"""The channel diagnostics as algebra identities against the loops they replaced.

The references, in ``oracles``, are the index loops that ``dsf_check``,
``tomogram``, the Kraus branch of ``is_unital`` and ``choi_kraus_decomposition``
ran before they became calls into ``convolve``, ``involute``, ``apply`` and
``psd_verdict``.
Verdicts and errors must agree; tomogram values may move by rounding only.
``object_einsum`` is the object-dtype contraction an exact kernel beside
complex values ran on before ``contract`` cast it to complex128; those
outputs must agree bit for bit.
"""

from fractions import Fraction

import numpy as np
import pytest
from oracles import (
    cyclic_group_groupoid,
    delta,
    loop_dsf_check,
    loop_is_unital_kraus,
    loop_tomogram,
    object_einsum,
    two_solve_decomposition,
)

from groupoidqm import (
    AlgebraElement,
    GroupoidError,
    Channel,
    KrausFamily,
    QuotientFunction,
    bisection_indicator,
    choi_kraus_decomposition,
    dsf_check,
    flat_bisections,
    fourier_family,
    identity_channel,
    is_unital,
    pair_groupoid,
    random_kraus_channel,
    random_positive_type,
    tomogram,
    transpose_channel,
)
from groupoidqm import algebra, channels, eigen

# -- inputs --


def dsf_inputs():
    """Fourier members, units, deltas and exact projectors, each also perturbed
    off idempotence (a real scale) and off self-adjointness (one entry)."""
    cases = {}
    for n in range(1, 6):
        g = pair_groupoid(n)
        for l, v in enumerate(fourier_family(n).members):
            cases[f"fourier{n}-{l}"] = v
        cases[f"units{n}"] = AlgebraElement.units_indicator(g)
        cases[f"all-over-n{n}"] = AlgebraElement.constant(g, Fraction(1, n))
        cases[f"int-twos{n}"] = AlgebraElement.constant(g, 2)
        for j in range(n):
            for k in range(n):
                cases[f"delta{n}-{j}{k}"] = delta(n, j, k)
    for name, v in list(cases.items()):
        n = v.groupoid.n_objects
        cases[name + "-scaled"] = v * (1 + 1e-6)
        if n > 1:
            cases[name + "-skew"] = v + 1e-6j * delta(n, 0, 1)
    return cases


def states(n, rng):
    """Seeded positive-type states, a non-Hermitian one and every basis delta."""
    out = {f"pos{i}": random_positive_type(n, rng) for i in range(4)}
    vals = rng.normal(size=n * n) + 1j * rng.normal(size=n * n)
    out["general"] = AlgebraElement(pair_groupoid(n), list(vals))
    for j in range(n):
        for k in range(n):
            out[f"delta{j}{k}"] = delta(n, j, k)
    return out


def kraus_families(n, rng):
    """Complex and Fraction families, unital and not."""
    g = pair_groupoid(n)
    perms = [bisection_indicator(b) for b in flat_bisections(n)[:2]]
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    fams = {
        "fourier": fourier_family(n),
        "unitary": KrausFamily(n, [AlgebraElement(g, list(q.reshape(-1)))]),
        "random": KrausFamily(n, [
            AlgebraElement(g, list((rng.normal(size=n * n) + 1j * rng.normal(size=n * n)) / n))
            for _ in range(2)
        ]),
        "fraction-unital": KrausFamily(n, [Fraction(3, 5) * perms[0], Fraction(4, 5) * perms[-1]]),
        "fraction-random": KrausFamily(n, [
            AlgebraElement(g, [Fraction(int(p), int(r)) for p, r in rng.integers(1, 6, (n * n, 2))])
        ]),
        "empty": KrausFamily(n, []),
    }
    fams["fourier-scaled"] = KrausFamily(n, [v * (1 + 1e-6) for v in fams["fourier"].members])
    return fams


# -- parity --


def test_dsf_check_matches_loop():
    verdicts = set()
    for name, v in dsf_inputs().items():
        assert dsf_check(v) == loop_dsf_check(v), name
        verdicts.add(dsf_check(v))
    assert verdicts == {True, False}


def test_dsf_check_keeps_the_pair_groupoid_error():
    f = AlgebraElement.units_indicator(cyclic_group_groupoid(3))
    for check in (dsf_check, loop_dsf_check):
        with pytest.raises(GroupoidError, match="pair groupoid"):
            check(f)


@pytest.mark.parametrize("n", range(1, 6))
def test_tomogram_matches_loop(n):
    rng = np.random.default_rng(100 + n)
    for name, psi in states(n, rng).items():
        try:
            ref = loop_tomogram(psi, n)
        except GroupoidError:
            with pytest.raises(GroupoidError, match="is not real"):
                tomogram(psi, n)
            continue
        new = tomogram(psi, n)
        assert [type(v) for v in new] == [float] * n
        if n in (3, 4) and name in {f"delta{j}{j}" for j in range(n)}:
            assert new == ref, name
        else:
            assert max(abs(a - b) for a, b in zip(new, ref)) <= 1e-15, name


@pytest.mark.parametrize("n", range(2, 5))
def test_kraus_is_unital_matches_loop(n):
    rng = np.random.default_rng(200 + n)
    verdicts = set()
    for name, fam in kraus_families(n, rng).items():
        assert is_unital(fam) == loop_is_unital_kraus(fam), name
        verdicts.add(is_unital(fam))
    assert verdicts == {True, False}


def test_choi_kraus_decomposition_solves_once_and_matches_two_solves(monkeypatch):
    calls = []
    solve = eigen.hermitian_eigh

    def counted(matrix, vectors=True):
        calls.append(matrix.shape)
        return solve(matrix, vectors=vectors)

    monkeypatch.setattr(eigen, "hermitian_eigh", counted)
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        ch = random_kraus_channel(n, rng)
        calls.clear()
        members = choi_kraus_decomposition(ch).members
        assert len(calls) == 1
        assert [v.values for v in members] == [tuple(v) for v in two_solve_decomposition(ch)]


# -- exact kernels beside complex values --


def shift_channel(n):
    """ψ -> SψS† for the cyclic shift S: a permutation kernel of ints."""
    return Channel(QuotientFunction.from_callable(
        n, lambda q: int(q.z == (q.y + 1) % n and q.w == (q.x + 1) % n)
    ))


def rational_kraus_channel(n, rng):
    g = pair_groupoid(n)
    members = []
    for _ in range(int(rng.integers(1, min(3, n * n) + 1))):
        ps, qs = rng.integers(-3, 4, size=n * n), rng.integers(1, 7, size=n * n)
        members.append(AlgebraElement(g, [Fraction(int(p), int(q)) for p, q in zip(ps, qs)]))
    return channels.from_kraus(KrausFamily(n, members))


def exact_kernels(rng):
    for n in (1, 2, 3):
        yield from (identity_channel(n), transpose_channel(n), shift_channel(n))
        yield from (rational_kraus_channel(n, rng) for _ in range(4))


def test_exact_kernels_beside_complex_states_match_the_object_contraction():
    rng = np.random.default_rng(17)
    fractions = 0
    for ch in exact_kernels(rng):
        assert ch.kernel.tensor().dtype == object
        fractions += any(isinstance(v, Fraction) for v in ch.kernel.values)
        for ancilla in (1, 2):
            kernel = channels._extended_tensor(ch.kernel.tensor(), ancilla)
            d = kernel.shape[0]
            states = channels._random_gram_states(d, rng, np.arange(8) % d + 1)
            for values in (states, -states, np.where(rng.random(states.shape) < 0.3, -0.0, states)):
                got = channels._apply_tensor(kernel, values.reshape(8, -1))
                want = object_einsum("lrsm,...rs->...lm", kernel, values).reshape(8, -1)
                assert got.dtype == np.complex128
                assert got.tobytes() == want.tobytes()
    assert fractions > 0


def test_a_complex_kernel_beside_exact_values_matches_the_object_contraction():
    rng = np.random.default_rng(18)
    for n in (1, 2, 3):
        kernel = random_kraus_channel(n, rng).kernel.tensor()
        exact = np.array([Fraction(int(p), 5) for p in rng.integers(-9, 10, size=n * n)])
        got = algebra.contract("lrsm,rs->lm", kernel, exact.reshape(n, n))
        assert got.tobytes() == object_einsum("lrsm,rs->lm", kernel, exact.reshape(n, n)).tobytes()
