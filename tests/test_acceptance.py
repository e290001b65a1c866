"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Tolerances are pinned here;
exact assertions use integer or rational arithmetic end to end.
"""

from fractions import Fraction

import numpy as np

from groupoidqm import (
    AlgebraElement,
    GroupoidMeasure,
    QClass,
    QuotientFunction,
    Symmetroid,
    apply,
    channel_from_choi,
    compose_channels,
    convolve,
    convolve_S,
    dsf_check,
    enumerate_quotient,
    flat_bisection_product,
    flat_bisections,
    fourier_channel,
    fourier_family,
    from_flat_bisection,
    induce_measure,
    involute,
    involute_S,
    is_cp,
    is_flat_psd,
    is_unital,
    pair_groupoid,
    pair_index,
    positive_type_verdicts,
    positivity_falsifier,
    psd_verdict,
    q_horizontal_compose,
    q_horizontal_inverse,
    q_index,
    random_kraus_channel,
    random_positive_type,
    shift_bisection,
    transpose_channel,
    verify_disintegration,
    verify_induced_equivariance,
    verify_inverse_relation,
    verify_left_invariance,
    weighted_pair_measure,
)
from groupoidqm.channels import ChoiMatrix
from groupoidqm.selftest import exchange_identity_report

W124 = (1, 2, 4)
SEED = 20260810


def _passed(criterion: int, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: PASS ({detail})")


def _unit_matrix(n, i, j):
    m = [[0] * n for _ in range(n)]
    m[i][j] = 1
    return m


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][r] * b[r][j] for r in range(n)) for j in range(n)] for i in range(n)]


def _conj_transpose(a):
    n = len(a)
    return [[complex(a[j][i]).conjugate() for j in range(n)] for i in range(n)]


def test_criterion_1_groupoid_algebra_isomorphism():
    """δ_(j,k) -> e_jk is a ⋆-isomorphism onto M_n: exact on every basis pair."""
    for n in (2, 3):
        g = pair_groupoid(n)
        m = GroupoidMeasure.counting(g)

        def as_matrix(f):
            return [[f.values[j * n + k] for k in range(n)] for j in range(n)]

        checked = 0
        for a in g.morphisms():
            fa = AlgebraElement.delta(g, a)
            for b in g.morphisms():
                fb = AlgebraElement.delta(g, b)
                lhs = as_matrix(convolve(fa, fb, m))
                ja, ka = divmod(a, n)
                jb, kb = divmod(b, n)
                rhs = _matmul(_unit_matrix(n, ja, ka), _unit_matrix(n, jb, kb))
                assert lhs == rhs
                checked += 1
            star = as_matrix(involute(fa, m))
            assert star == _conj_transpose(_unit_matrix(n, ja, ka))
        assert checked == n**4
    _passed(1, "n=2,3: all basis products and involutions equal the matrix units, exactly")


def test_criterion_2_symmetroid_algebra_isomorphism():
    """All ⋆_S basis products and involutions equal the M_n ⊗ M_n oracle exactly."""
    for n in (2, 3):
        def unit(i, j):
            m = np.zeros((n, n), dtype=np.int64)
            m[i, j] = 1
            return m

        def image(q):
            return np.kron(unit(q.z, q.y), unit(q.w, q.x))

        def as_tensor(f):
            mat = np.zeros((n * n, n * n), dtype=np.complex128)
            for (z, y, x, w), v in f.support():
                mat[z * n + w, y * n + x] += complex(v)
            return mat

        classes = enumerate_quotient(n)
        for q1 in classes:
            f1 = QuotientFunction.delta(n, q1)
            for q2 in classes:
                f2 = QuotientFunction.delta(n, q2)
                lhs = as_tensor(convolve_S(f1, f2))
                rhs = image(q1) @ image(q2)
                assert np.array_equal(lhs, rhs)
            star = as_tensor(involute_S(f1))
            assert np.array_equal(star, image(q1).conj().T)
    _passed(2, "n=2,3: ⋆_S matches the tensor matrix-unit oracle on all basis pairs, exactly")


def test_criterion_3_induced_modular_function():
    """μ₂(Γ⁻¹) = μ₂(Γ)/Δ₂(Γ) with Δ₂ = δ(α)δ(γ), plus the homomorphism law
    and equivariance, on the weighted pair groupoid w = (1, 2, 4)."""
    tol = 1e-12
    g = pair_groupoid(3)
    m = weighted_pair_measure(g, W124)
    sym = Symmetroid(g)
    m2 = induce_measure(sym, m)
    base_delta = {mid: m.delta(mid) for mid in g.morphisms()}
    for t in sym.transformations:
        ti = sym.vertical_inverse(t)
        d2 = base_delta[t.alpha] * base_delta[t.gamma]
        assert abs(m2.delta2(t) - d2) <= tol
        assert abs(m2.mu2(ti) - m2.mu2(t) / d2) <= tol
    by_s1 = {}
    for t in sym.transformations:
        by_s1.setdefault(t.beta, []).append(t)
    pairs = 0
    for t1 in sym.transformations:
        for t2 in by_s1[sym.t1(t1)]:
            prod = sym.vertical_compose(t2, t1)
            assert abs(m2.delta2(prod) - m2.delta2(t2) * m2.delta2(t1)) <= tol
            pairs += 1
    rep = verify_induced_equivariance(m2, tol)
    assert rep.ok
    _passed(3, f"atomwise identity on {len(sym)} transformations, {pairs} homomorphism pairs, equivariance empty")


def flat_gram_gathers(n):
    """Per (x, w), the index array of the flat Gram block
    G[(z, y), (z', y')] = f(Γ_j ∘_H Γ_k^{-H}) over the classes Γ = ((z, y), (x, w)),
    built from the horizontal composition itself."""
    z, y = (a.ravel() for a in np.indices((n, n)))
    gathers = []
    for x in range(n):
        for w in range(n):
            group = QClass(z, y, np.full_like(z, x), np.full_like(z, w))
            rows = QClass(*(f[:, None] for f in group))
            cols = QClass(*(f[None, :] for f in group))
            gathers.append(q_index(n, q_horizontal_compose(rows, q_horizontal_inverse(cols))))
    return gathers


def test_criterion_4_channel_state_duality():
    """is_flat_psd == is_cp on 200 seeded Choi-Hermitian kernels per n, and so
    does the conjunction of psd_verdict on the n² flat Gram blocks built here,
    with the transpose channel as the negative control (Choi min eigenvalue -1)."""
    rng = np.random.default_rng(SEED)
    for n in (2, 3):
        gathers = flat_gram_gathers(n)
        disagreements = 0
        positives = 0
        for trial in range(200):
            d = n * n
            h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = (h + h.conj().T) / 2
            if trial % 2 == 0:
                # half the sweep PSD by construction, half generically indefinite
                h = h @ h.conj().T / d
            ch = channel_from_choi(ChoiMatrix(n, h))
            cp = is_cp(ch).ok
            flat = is_flat_psd(ch).ok
            values = np.array(ch.kernel.values, dtype=np.complex128)
            gram = all([psd_verdict(values[idx]).ok for idx in gathers])
            disagreements += (cp != flat) + (cp != gram)
            positives += cp
        assert disagreements == 0
        assert 0 < positives < 200
    control = is_cp(transpose_channel(2))
    assert not control.ok
    assert abs(control.min_eigenvalue + 1) <= 1e-10
    assert not is_flat_psd(transpose_channel(2)).ok
    swap = np.array(transpose_channel(2).kernel.values)
    assert not any(psd_verdict(swap[idx]).ok for idx in flat_gram_gathers(2))
    _passed(4, "400 random Hermitian kernels, zero disagreements, also on the flat Gram blocks; transpose min eig = -1")


def test_criterion_5_shift_bisection_example():
    """Shift channel = conjugation by the cyclic permutation matrix; CP,
    flat-PSD, unital; functor composition over all 36 ordered pairs."""
    n = 3
    g = pair_groupoid(n)
    ch = from_flat_bisection(shift_bisection(n))
    for r in range(n):
        for s in range(n):
            out = apply(ch, AlgebraElement.delta(g, pair_index(n, r, s)))
            # permutation oracle: U e_rs U† = e_{σr, σs}
            expected = AlgebraElement.delta(g, pair_index(n, (r + 1) % n, (s + 1) % n))
            assert out == expected
    assert is_cp(ch).ok
    assert is_flat_psd(ch).ok
    assert is_unital(ch)
    bs = flat_bisections(n)
    assert len(bs) == 6
    basis = [AlgebraElement.delta(g, mid) for mid in g.morphisms()]
    pairs = 0
    for b1 in bs:
        for b2 in bs:
            composed = compose_channels(from_flat_bisection(b1), from_flat_bisection(b2))
            direct = from_flat_bisection(flat_bisection_product(b1, b2))
            for psi in basis:
                assert apply(composed, psi).allclose(apply(direct, psi), 1e-12)
            pairs += 1
    assert pairs == 36
    _passed(5, "9 basis states exact; CP/flat-PSD/unital; 36 composition pairs")


def test_criterion_6_fourier_decoherence_example():
    """Closed form on all 9 basis inputs; the three unitality sums; idempotence;
    every member passes dsf_check.  All at 1e-12."""
    tol = 1e-12
    n = 3
    g = pair_groupoid(n)
    m = GroupoidMeasure.counting(g)
    ch = fourier_channel(n)
    for r in range(n):
        for s in range(n):
            out = apply(ch, AlgebraElement.delta(g, pair_index(n, r, s)))
            for p in range(n):
                for q in range(n):
                    expected = (1 / n) if (p - q) % n == (r - s) % n else 0
                    assert abs(out.values[p * n + q] - expected) <= tol
            twice = apply(ch, out)
            assert out.allclose(twice, tol)
    fam = fourier_family(n)
    chi = AlgebraElement.units_indicator(g)
    s_v = AlgebraElement.zeros(g)
    s_vv = AlgebraElement.zeros(g)
    s_vvs = AlgebraElement.zeros(g)
    for v in fam.members:
        s_v = s_v + v
        s_vv = s_vv + convolve(v, v, m)
        s_vvs = s_vvs + convolve(v, involute(v, m), m)
    assert s_v.allclose(chi, tol)
    assert s_vv.allclose(chi, tol)
    assert s_vvs.allclose(chi, tol)
    assert all(dsf_check(v, tol) for v in fam.members)
    _passed(6, "closed form, ΣV = ΣV⋆V = ΣV⋆V* = χ, idempotent, DSF members")


def test_criterion_7_exchange_identity():
    """Zero violations among all n⁹ quadruples at n = 2, 3, 6 and 9, with no
    seed: every n is decided exactly from the equality patterns."""
    checked = []
    for n in (2, 3, 6, 9):
        violations, quadruples = exchange_identity_report(n)
        assert violations == 0 and quadruples == n**9
        checked.append(quadruples)
    _passed(7, f"n=2, 3, 6, 9 exhaustive ({', '.join(map(str, checked))} quadruples)")


def test_criterion_8_positive_type_preservation():
    """100 seeded CP channels x 100 seeded positive-type states at n=3: every
    output is positive-type; the falsifier finds a transpose witness at M=2."""
    tol = 1e-10
    rng = np.random.default_rng(SEED)
    n = 3
    channels = [random_kraus_channel(n, rng) for _ in range(100)]
    states = [random_positive_type(n, rng) for _ in range(100)]
    outputs = [apply(chan, psi) for chan in channels for psi in states]
    verdicts = positive_type_verdicts(outputs, tol)
    assert len(verdicts) == 10_000
    worst = float("inf")
    for res in verdicts:
        assert res.ok
        worst = min(worst, res.min_eigenvalue)
    assert worst >= -tol
    witness = positivity_falsifier(transpose_channel(2), trials=100, seed=SEED, ancilla=2)
    assert witness is not None
    assert witness.min_eigenvalue < -tol
    _passed(8, f"10000 outputs all positive-type (worst eig {worst:.2e}); transpose witness found")


def test_criterion_9_haar_structure_suite():
    """Counting and weighted measures on pair groupoids of 2..4 points pass
    left invariance, the inverse relation and the disintegration identity,
    exactly in rational mode."""
    rng = np.random.default_rng(SEED)
    for n in (2, 3, 4):
        g = pair_groupoid(n)
        w = [Fraction(2) ** int(e) for e in rng.integers(-3, 4, size=n)]
        for m in (
            GroupoidMeasure.counting(g),
            weighted_pair_measure(g, W124[:2] if n == 2 else (list(W124) + [8])[:n]),
            weighted_pair_measure(g, w).with_exact(),
        ):
            assert verify_left_invariance(g, m, tol=0 if _exact(m) else 1e-12).ok
            assert verify_inverse_relation(g, m, tol=0 if _exact(m) else 1e-12).ok
            subsets = [list(g.morphisms())] + [[mid] for mid in g.morphisms()]
            subsets += [list(rng.choice(g.n_morphisms, size=3, replace=False)) for _ in range(5)]
            assert verify_disintegration(g, m, subsets=subsets, tol=0 if _exact(m) else 1e-12).ok
    _passed(9, "n=2..4, counting + weighted (+ exact rational) all invariances hold")


def _exact(m: GroupoidMeasure) -> bool:
    return all(isinstance(w, (int, Fraction)) for w in m.weights)
