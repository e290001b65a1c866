"""``positive_type_verdicts`` and the chunked ``positivity_falsifier`` against
the per-function loops they replaced.

The references are in ``oracles``.  ``loop_is_positive_type`` is the
per-function walk ``is_positive_type`` ran before its blocks were gathers:
one ``G.compose`` per block entry and one ``psd_verdict`` per object.
``loop_random_positive_type`` is the per-state Gram construction
``random_positive_type`` ran before states were drawn as a stack.
``loop_positivity_falsifier`` draws through it, applies each state by the
einsum formula ``einsum_apply`` and decides one trial at a time.  Every
field of every verdict and witness must agree bit for bit.  The solves are
counted too: eigenvectors only when read, and a channel's Choi matrix once
per tol.
"""

import copy
import warnings
from fractions import Fraction

import numpy as np
import pytest
from oracles import (
    disjoint_pair_groupoids,
    function_from_blocks,
    loop_is_positive_type,
    loop_positivity_falsifier,
    loop_random_positive_type,
    min_eigenvalue,
    psd,
)

from groupoidqm import (
    AlgebraElement,
    Channel,
    PositiveTypeResult,
    channels,
    choi_kraus_decomposition,
    eigen,
    hermitian_eigh,
    identity_channel,
    is_cp,
    is_flat_psd,
    is_positive_type,
    kernel_positive_type,
    pair_groupoid,
    positive_type_verdicts,
    positivity_falsifier,
    psd_verdict,
    random_choi_hermitian_channel,
    random_kraus_channel,
    random_positive_type,
    transpose_channel,
)
from groupoidqm.algebra import PSD_TOL
from groupoidqm.channels import _FALSIFIER_CHUNK, _random_gram_states
from groupoidqm.cli import main
from groupoidqm.symalgebra import QuotientFunction

SIZES = (3, 2, 1, 4, 2)

def optional_arrays_equal(a, b):
    return (a is None and b is None) or (
        a is not None and b is not None and a.tobytes() == b.tobytes()
    )


def assert_same_verdict(got, want):
    assert got.ok == want.ok
    assert np.array_equal(got.min_eigenvalue, want.min_eigenvalue, equal_nan=True)
    assert got.hermitian_defect == want.hermitian_defect
    assert (got.object_index, got.fiber) == (want.object_index, want.fiber)
    for field in ("matrix", "witness", "eigenvalues", "eigenvectors"):
        assert optional_arrays_equal(getattr(got, field), getattr(want, field)), field


# -- the batched walk --


def mixed_fiber_functions():
    """Functions on fibers of sizes 3, 2, 1, 4, 2: passing, failing at
    different objects, and failing on a Hermitian defect (a NaN verdict)."""
    g = disjoint_pair_groupoids(*SIZES)
    rng = np.random.default_rng(41)
    good = [psd(rng, n, 0.1) for n in SIZES]
    cases = [good, [np.eye(n) for n in SIZES]]
    for c in range(len(SIZES)):
        negative = list(good)
        negative[c] = good[c] - 5 * np.eye(SIZES[c])
        cases.append(negative)
    not_hermitian = list(good)
    not_hermitian[1] = good[1] + [[0, 0], [1j, 0]]
    cases.append(not_hermitian)
    repeated = [np.eye(n) for n in SIZES]
    repeated[1] = repeated[4] = np.diag([0.5, 2.0])  # byte-equal blocks at objects 3 and 10
    cases.append(repeated)
    return [function_from_blocks(g, blocks) for blocks in cases]


def test_mixed_fibers_match_the_loop():
    phis = mixed_fiber_functions()
    got = positive_type_verdicts(phis)
    assert len(got) == len(phis)
    for res, phi in zip(got, phis):
        assert_same_verdict(res, loop_is_positive_type(phi))
    assert {res.ok for res in got} == {True, False}
    assert any(np.isnan(res.min_eigenvalue) for res in got)


def test_functions_on_several_groupoids_in_one_call():
    rng = np.random.default_rng(7)
    phis = mixed_fiber_functions()
    for n in (1, 2, 3, 4):
        g = pair_groupoid(n)
        phis.append(random_positive_type(n, rng))
        phis.append(AlgebraElement(g, list(rng.normal(size=n * n) + 1j * rng.normal(size=n * n))))
        phis.append(AlgebraElement.constant(g, -1))
    order = rng.permutation(len(phis))
    phis = [phis[i] for i in order]
    for res, phi in zip(positive_type_verdicts(phis), phis):
        assert_same_verdict(res, loop_is_positive_type(phi))
        assert_same_verdict(is_positive_type(phi), res)


def test_tol_is_passed_through():
    phi = random_positive_type(3, np.random.default_rng(2), rank=1)
    shifted = phi - AlgebraElement.units_indicator(phi.groupoid) * 1e-6
    for tol in (1e-10, 1e-3):
        (got,) = positive_type_verdicts([shifted], tol)
        assert_same_verdict(got, loop_is_positive_type(shifted, tol))
    assert not positive_type_verdicts([shifted])[0].ok
    assert positive_type_verdicts([shifted], 1e-3)[0].ok


def test_no_functions_give_no_verdicts():
    assert positive_type_verdicts([]) == []


def test_inf_block_after_the_deciding_block_is_never_reached():
    g = disjoint_pair_groupoids(*SIZES)
    rng = np.random.default_rng(5)
    blocks = [psd(rng, n, 0.1) for n in SIZES]
    blocks[1] = blocks[1] - 5 * np.eye(2)
    blocks[2] = [[np.inf]]
    blocks[4] = [[np.inf, 0], [1, 1]]  # a non-finite block with an infinite defect
    phi = function_from_blocks(g, blocks)
    passing = function_from_blocks(g, [psd(rng, n, 0.1) for n in SIZES])
    got = positive_type_verdicts([passing, phi])
    assert_same_verdict(got[0], loop_is_positive_type(passing))
    assert_same_verdict(got[1], loop_is_positive_type(phi))
    assert (got[1].ok, got[1].object_index) == (False, 3)


def test_inf_block_the_walk_reaches_raises():
    g = disjoint_pair_groupoids(*SIZES)
    rng = np.random.default_rng(5)
    blocks = [psd(rng, n, 0.1) for n in SIZES]
    blocks[2] = [[np.inf]]
    phi = function_from_blocks(g, blocks)
    passing = function_from_blocks(g, [psd(rng, n, 0.1) for n in SIZES])
    # inf - inf in the Hermitian defect is NaN, which no tol rejects
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as want:
            loop_is_positive_type(phi)
        with pytest.raises(ValueError) as got:
            positive_type_verdicts([passing, phi])
    assert str(got.value) == str(want.value)


# -- the draws --


def assert_same_bytes(got, want):
    assert [type(v) for v in got] == [type(v) for v in want]
    assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("n", range(1, 10))
def test_random_positive_type_matches_the_loop(n):
    # from n = 8 on, np.trace sums the diagonal pairwise
    for rank in [None, *range(1, n + 2)]:
        for seed in range(3):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = random_positive_type(n, got_rng, rank)
            want = loop_random_positive_type(n, want_rng, rank)
            assert got.groupoid is want.groupoid
            assert_same_bytes(got.values, want.values)
            assert got_rng.normal() == want_rng.normal()  # the streams end together


@pytest.mark.parametrize("n", range(1, 10))
def test_a_stack_of_states_matches_the_loop(n):
    for ranks in ([n], list(range(1, n + 2)), [n, 1, n, 2, 1], [(t % n) + 1 for t in range(_FALSIFIER_CHUNK)]):
        got_rng, want_rng = np.random.default_rng(n), np.random.default_rng(n)
        got = _random_gram_states(n, got_rng, np.array(ranks))
        assert got.shape == (len(ranks), n, n) and got.dtype == np.complex128
        for state, rank in zip(got, ranks):
            want = loop_random_positive_type(n, want_rng, rank)
            assert_same_bytes(list(state.reshape(-1)), want.values)
        assert got_rng.normal() == want_rng.normal()


# -- the falsifier --


def fraction_channel(n):
    """An exact kernel with Fraction and int values, cast to complex128 beside
    the complex states it is contracted with: not positive."""
    def f(q):
        if q.y == q.w and q.x == q.z:
            return Fraction(2, 3)
        return Fraction(-1, 7) if q.y == q.z else 0

    return Channel(QuotientFunction.from_callable(n, f))


def falsifier_cases():
    for n, ancillas in ((2, (1, 2)), (3, (1, 2, 3))):
        for ancilla in ancillas:
            for seed in range(20):
                rng = np.random.default_rng(seed)
                yield n, ancilla, seed, "transpose", transpose_channel(n)
                yield n, ancilla, seed, "hermitian", random_choi_hermitian_channel(n, rng)
                yield n, ancilla, seed, "kraus", random_kraus_channel(n, rng)
            yield n, ancilla, 0, "fraction", fraction_channel(n)


def assert_same_witness(got, want, ancilla):
    if want is None:
        assert got is None
        return
    trial, state, output, min_eigenvalue = want
    assert (got.trial, got.ancilla) == (trial, ancilla)
    assert np.array_equal(got.min_eigenvalue, min_eigenvalue, equal_nan=True)
    # the witness holds its state row as an array, read as Python complex like its output
    assert_same_bytes(got.state.values, [complex(v) for v in state.values])
    assert_same_bytes(got.output.values, output.values)
    assert got.state.groupoid is state.groupoid and got.output.groupoid is output.groupoid


def test_falsifier_matches_the_loop():
    found = 0
    cases = 0
    for n, ancilla, seed, _, chan in falsifier_cases():
        want = loop_positivity_falsifier(chan, 10, seed, ancilla)
        assert_same_witness(positivity_falsifier(chan, 10, seed, ancilla), want, ancilla)
        found += want is not None
        cases += 1
    assert 0 < found < cases


@pytest.mark.parametrize("n, seed", [(2, 1), (2, 3), (2, 9), (3, 2), (3, 4)])
def test_falsifier_witness_in_a_full_chunk(n, seed):
    # at tol = 0.45 only strongly entangled states fail, so the first failing
    # trial lies beyond the chunks that double up to _FALSIFIER_CHUNK
    chan = transpose_channel(n)
    trials = 4 * _FALSIFIER_CHUNK
    want = loop_positivity_falsifier(chan, trials, seed, ancilla=2, tol=0.45)
    assert want is not None and want[0] >= 2 * _FALSIFIER_CHUNK
    got = positivity_falsifier(chan, trials, seed, ancilla=2, tol=0.45)
    assert_same_witness(got, want, 2)


def test_falsifier_draws_at_most_twice_the_trials_of_its_witness(monkeypatch):
    draws = []

    def counted(n, rng, ranks):
        draws.extend(ranks)
        return _random_gram_states(n, rng, ranks)

    monkeypatch.setattr(channels, "_random_gram_states", counted)
    for n, seed, tol in [(2, 0, PSD_TOL), (2, 1, 0.45), (3, 2, 0.45), (3, 5, 0.4)]:
        draws.clear()
        wit = positivity_falsifier(transpose_channel(n), 1000, seed, ancilla=2, tol=tol)
        assert 0 < len(draws) <= 2 * wit.trial + 1


def test_falsifier_without_a_witness_runs_every_chunk():
    chan = random_kraus_channel(2, np.random.default_rng(13), members=2)
    trials = 2 * _FALSIFIER_CHUNK + 5
    assert loop_positivity_falsifier(chan, trials, 5, ancilla=2) is None
    assert positivity_falsifier(chan, trials, 5, ancilla=2) is None


def test_falsifier_on_a_non_hermitian_output():
    # ψ -> iψ: every output fails on its Hermitian defect, with a NaN eigenvalue
    chan = Channel(transpose_channel(1).kernel * 1j)
    want = loop_positivity_falsifier(chan, 3, 0)
    assert want is not None and np.isnan(want[3])
    assert_same_witness(positivity_falsifier(chan, 3, 0), want, 1)


# -- verdicts on eigenvalues alone, eigenvectors solved when read --


@pytest.fixture
def solves(monkeypatch):
    """Each solve as ("values" or "vectors", shape), through the two bindings
    that solve: eigen's, which every verdict reads, and channels' own."""
    made = []

    def counted(a, vectors=True):
        made.append(("vectors" if vectors else "values", np.shape(a)))
        return hermitian_eigh(a, vectors=vectors)

    monkeypatch.setattr(eigen, "hermitian_eigh", counted)
    monkeypatch.setattr(channels, "hermitian_eigh", counted)
    return made


def test_values_only_solve_matches_the_vector_solve_and_checks_its_input():
    rng = np.random.default_rng(2)
    for d in (1, 4, 9):
        a = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
        w, v = hermitian_eigh(a, vectors=False)
        assert v is None and w.shape == (3, d)
        assert np.allclose(w, hermitian_eigh(a)[0], rtol=0, atol=1e-12 * np.abs(a).max())
        assert w.tobytes() == np.linalg.eigvalsh((a + a.conj().swapaxes(-1, -2)) / 2).tobytes()
    for bad in (np.ones((2, 3)), np.ones(4), np.array([[1.0, np.inf], [np.inf, 1.0]])):
        with pytest.raises(ValueError):
            hermitian_eigh(bad, vectors=False)


def test_passing_verdicts_make_no_vector_solve(solves):
    rng = np.random.default_rng(3)
    ch = random_kraus_channel(3, rng, members=9)
    assert is_cp(ch).ok and is_flat_psd(ch).ok
    assert kernel_positive_type(identity_channel(3))[0]
    states = [random_positive_type(n, rng) for n in (1, 2, 3, 4)]
    assert all(r.ok for r in positive_type_verdicts(states))
    assert positivity_falsifier(ch, 10, 0, ancilla=2) is None
    assert min_eigenvalue(np.eye(3)) == 1.0
    assert solves and {kind for kind, _ in solves} == {"values"}


def test_a_failing_verdict_solves_eigenvectors_only_when_read(solves):
    wit = positivity_falsifier(transpose_channel(2), 10, 0, ancilla=2)
    assert wit is not None and wit.min_eigenvalue < 0
    res = is_cp(transpose_channel(3))
    assert not res.ok
    assert {kind for kind, _ in solves} == {"values"}
    solves.clear()
    first = res.witness
    assert solves == [("vectors", (9, 9))]
    assert res.witness.tobytes() == first.tobytes()
    assert res.eigenvectors is res.eigenvectors
    assert len(solves) == 1
    # a PositiveTypeResult made from a verdict keeps the solve it read
    copied = PositiveTypeResult(**vars(res), object_index=0)
    assert copied.eigenvectors is res.eigenvectors
    assert len(solves) == 1


def test_reading_a_stacked_verdicts_witness_solves_its_block_once(solves):
    g = pair_groupoid(2)
    phi = AlgebraElement(g, [-1, 1, 1, -1])  # the block [[-1, 1], [1, -1]]
    (res,) = positive_type_verdicts([phi])
    assert not res.ok and solves == [("values", (1, 2, 2))]
    solves.clear()
    assert np.allclose(res.matrix @ res.witness, -2 * res.witness, atol=1e-12)
    assert res.witness is not None
    assert solves == [("vectors", (2, 2))]


def test_choi_kraus_decomposition_makes_its_one_solve_with_vectors(solves):
    choi_kraus_decomposition(random_kraus_channel(2, np.random.default_rng(4)))
    assert solves == [("vectors", (4, 4))]


# -- a channel keeps its Choi verdict, per tol --


def test_is_flat_psd_after_is_cp_solves_nothing(solves):
    ch = random_kraus_channel(3, np.random.default_rng(6), members=9)
    cp = is_cp(ch)
    assert is_flat_psd(ch) is cp and is_cp(ch) is cp
    assert solves == [("values", (9, 9))]


@pytest.mark.parametrize("tols", [(PSD_TOL, 2.0), (2.0, PSD_TOL)])
def test_the_held_verdict_is_per_tol(solves, tols):
    # the Choi matrix of the transpose is SWAP, whose least eigenvalue is -1
    ch = transpose_channel(2)
    for decide in (is_cp, is_flat_psd):
        assert [decide(ch, tol).ok for tol in tols] == [tol == 2.0 for tol in tols]
    assert solves == [("values", (4, 4))] * 2


def test_a_channel_and_its_held_verdict_cannot_be_edited():
    ch = transpose_channel(2)
    res = is_cp(ch)
    with pytest.raises(AttributeError):
        ch.kernel = identity_channel(2).kernel
    with pytest.raises(AttributeError):
        ch.n = 3
    with pytest.raises(AttributeError):
        res.ok = True
    with pytest.raises(ValueError, match="read-only"):
        res.matrix[0, 0] = 1
    assert (ch.n, is_cp(ch).ok, is_cp(ch).matrix[0, 0]) == (2, False, 1)
    # a copy is built anew from the kernel and decides for itself
    twin = copy.deepcopy(ch)
    assert twin.kernel == ch.kernel and is_cp(twin) is not res and not is_cp(twin).ok


def test_reproduce_decides_each_choi_matrix_once(solves, tmp_path, capsys):
    # is_cp then is_flat_psd on the shift channel at n = 3 and the Fourier
    # channels at n = 3 and 4: one solve per channel
    assert main(["reproduce", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert solves == [("values", (9, 9)), ("values", (9, 9)), ("values", (16, 16))]


def witness_matrices():
    rng = np.random.default_rng(5)
    for d in (1, 2, 5, 9, 16):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (a + a.conj().T) / 2
        yield h
        yield 1e6 * h
        yield 1e-6 * (h @ h)
    for n in (2, 3, 4):
        yield channels.to_choi(transpose_channel(n)).matrix


def test_the_witness_is_an_eigenvector_of_the_least_eigenvalue():
    for m in witness_matrices():
        res = psd_verdict(m)
        x = res.witness
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(m @ x - res.min_eigenvalue * x) <= 1e-10 * np.abs(m).max()


def test_a_defect_failed_verdict_makes_no_solve_and_has_no_witness(solves):
    res = psd_verdict(np.array([[1.0, 1e-3], [0.0, 1.0]]))
    assert not res.ok and np.isnan(res.min_eigenvalue)
    assert (res.witness, res.eigenvectors, res.eigenvalues) == (None, None, None)
    assert res.matrix.tolist() == [[1.0, 1e-3], [0.0, 1.0]]  # the block it failed on
    (stacked,) = positive_type_verdicts([AlgebraElement(pair_groupoid(2), [1, 1j, 0, 1])])
    assert not stacked.ok and np.isnan(stacked.min_eigenvalue)
    assert stacked.witness is None
    assert solves == []
