import json
from fractions import Fraction

import numpy as np
import pytest

from groupoidqm import (
    AlgebraElement,
    GroupoidError,
    GroupoidMeasure,
    NotPullbackError,
    QClass,
    QuotientFunction,
    QuotientMeasure,
    SymFunction,
    Symmetroid,
    Transformation,
    convolve,
    convolve_S,
    convolve_general,
    enumerate_quotient,
    fiber_restrict,
    horizontal_convolve,
    induce_measure,
    involute_S,
    involute_general,
    modular_involution,
    pair_groupoid,
    pair_index,
    pullback_embed,
    q_vertical_inverse,
    rep_operator,
    tensor_matrix,
    verify_induced_equivariance,
    verify_modular_formula,
    verify_modular_homomorphism,
    weighted_pair_measure,
)
from groupoidqm.measure import NotHaarError
from groupoidqm.symalgebra import matrix_to_json, write_matrix_csv

W124 = (1, 2, 4)


def unit_matrix(n, i, j):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1
    return m


def kron_image(q, n):
    """Oracle: the M_n ⊗ M_n matrix of the basis class ((z,y),(x,w))."""
    return np.kron(unit_matrix(n, q.z, q.y), unit_matrix(n, q.w, q.x))


class TestInducedMeasure:
    def test_counting_atoms_all_one(self):
        sym = Symmetroid(pair_groupoid(3))
        m2 = induce_measure(sym, GroupoidMeasure.counting(sym.groupoid))
        assert all(m2.mu2(t) == 1 for t in sym.transformations)
        assert all(m2.nu2(t) == 1 for t in sym.transformations)
        assert all(m2.delta2(t) == 1 for t in sym.transformations)

    def test_weighted_atoms_and_modular(self):
        g = pair_groupoid(3)
        m = weighted_pair_measure(g, W124)
        sym = Symmetroid(g)
        m2 = induce_measure(sym, m)
        pi = lambda j, k: pair_index(3, j, k)
        # α=(1,0), γ=(2,1): Δ₂ = δ(α)·δ(γ) = 4·4 = 16
        t = Transformation(pi(1, 0), pi(0, 1), pi(2, 1))
        assert sym.is_valid(t)
        assert abs(m2.delta2(t) - 16) < 1e-12
        # atom identity μ₂(Γ) = ν(α)·ν(γ)·(object-weight product at t1)
        top = sym.t1(t)
        base_weight = m.object_weights[g.target[top]] * m.object_weights[g.source[top]]
        expected = m.nu_target(t.alpha) * m.nu_target(t.gamma) * base_weight
        assert abs(m2.mu2(t) - expected) < 1e-12

    def test_equivariance(self):
        g = pair_groupoid(3)
        sym = Symmetroid(g)
        for meas in (GroupoidMeasure.counting(g), weighted_pair_measure(g, W124)):
            m2 = induce_measure(sym, meas)
            assert verify_induced_equivariance(m2).ok

    def test_equivariance_detects_perturbation(self):
        g = pair_groupoid(2)
        sym = Symmetroid(g)
        m2 = induce_measure(sym, GroupoidMeasure.counting(g))
        t0 = sym.transformations[3]
        m2.fiber_weights[t0] = 2
        rep = verify_induced_equivariance(m2)
        assert not rep.ok

    def test_modular_formula_atomwise(self):
        g = pair_groupoid(3)
        sym = Symmetroid(g)
        for meas in (GroupoidMeasure.counting(g), weighted_pair_measure(g, W124)):
            m2 = induce_measure(sym, meas)
            assert verify_modular_formula(m2).ok
            # single-atom sum form: left = μ₂(Γ⁻¹), right = μ₂(Γ)/Δ₂(Γ)
            t = sym.transformations[17]
            ti = sym.vertical_inverse(t)
            assert abs(m2.mu2(ti) - m2.mu2(t) / m2.delta2(t)) < 1e-12

    def test_modular_formula_with_function(self):
        g = pair_groupoid(2)
        sym = Symmetroid(g)
        m2 = induce_measure(sym, weighted_pair_measure(g, (1, 2)))
        rng = np.random.default_rng(0)
        f = {t: complex(a, b) for t, (a, b) in zip(sym.transformations, rng.normal(size=(len(sym), 2)))}
        assert verify_modular_formula(m2, functions=[f]).ok

    def test_modular_homomorphism_exhaustive_n2(self):
        g = pair_groupoid(2)
        sym = Symmetroid(g)
        m2 = induce_measure(sym, weighted_pair_measure(g, (1, 2)))
        assert verify_modular_homomorphism(m2).ok

    def test_induce_rejects_non_haar(self):
        g = pair_groupoid(3)
        sym = Symmetroid(g)
        bad = weighted_pair_measure(g, W124, object_weights=(1, 1, 1))
        with pytest.raises(NotHaarError):
            induce_measure(sym, bad)

    def test_exact_rational_atoms(self):
        g = pair_groupoid(3)
        m = weighted_pair_measure(g, W124).with_exact()
        sym = Symmetroid(g)
        m2 = induce_measure(sym, m, tol=0)
        for t in sym.transformations:
            assert m2.mu2(sym.vertical_inverse(t)) * m2.delta2(t) == m2.mu2(t)
            assert isinstance(m2.mu2(t), Fraction)


class TestQuotientConvolution:
    def test_basis_law(self):
        n = 3
        f = QuotientFunction.delta(n, QClass(0, 1, 2, 1))
        g = QuotientFunction.delta(n, QClass(1, 2, 0, 2))
        assert convolve_S(f, g) == QuotientFunction.delta(n, QClass(0, 2, 0, 1))
        # mismatched middle indices annihilate
        h = QuotientFunction.delta(n, QClass(2, 2, 0, 2))
        assert convolve_S(f, h) == QuotientFunction.zeros(n)

    def test_unit_indicator(self):
        n = 2
        u = QuotientFunction.vertical_unit_indicator(n)
        rng = np.random.default_rng(1)
        f = QuotientFunction(n, list(rng.normal(size=16) + 1j * rng.normal(size=16)))
        assert convolve_S(u, f).allclose(f)
        assert convolve_S(f, u).allclose(f)

    @pytest.mark.parametrize("n", [2, 3])
    def test_tensor_isomorphism_all_basis_pairs(self, n):
        for q1 in enumerate_quotient(n):
            for q2 in enumerate_quotient(n):
                prod = convolve_S(
                    QuotientFunction.delta(n, q1), QuotientFunction.delta(n, q2)
                )
                assert np.array_equal(
                    tensor_matrix(prod), kron_image(q1, n) @ kron_image(q2, n)
                )

    @pytest.mark.parametrize("n", [2, 3])
    def test_tensor_isomorphism_involution(self, n):
        for q in enumerate_quotient(n):
            star = involute_S(QuotientFunction.delta(n, q))
            assert np.array_equal(tensor_matrix(star), kron_image(q, n).conj().T)

    def test_involution_display_form(self):
        # counting measure: (δ_((l,j),(k,m)))* = δ_((j,l),(m,k))
        n = 3
        q = QClass(0, 1, 2, 1)
        assert involute_S(QuotientFunction.delta(n, q)) == QuotientFunction.delta(
            n, QClass(1, 0, 1, 2)
        )

    def test_star_antimultiplicative(self):
        n = 2
        qm = QuotientMeasure(weighted_pair_measure(pair_groupoid(n), (1, 2)))
        rng = np.random.default_rng(2)
        for _ in range(50):
            f = QuotientFunction(n, list(rng.normal(size=16) + 1j * rng.normal(size=16)))
            g = QuotientFunction(n, list(rng.normal(size=16) + 1j * rng.normal(size=16)))
            lhs = involute_S(convolve_S(f, g, qm), qm)
            rhs = convolve_S(involute_S(g, qm), involute_S(f, qm), qm)
            assert lhs.allclose(rhs, 1e-10)

    def test_star_involutive(self):
        n = 2
        qm = QuotientMeasure(weighted_pair_measure(pair_groupoid(n), (1, 2)))
        rng = np.random.default_rng(3)
        f = QuotientFunction(n, list(rng.normal(size=16) + 1j * rng.normal(size=16)))
        assert involute_S(involute_S(f, qm), qm).allclose(f, 1e-12)

    def test_associativity(self):
        n = 2
        qm = QuotientMeasure(weighted_pair_measure(pair_groupoid(n), (1, 2)))
        rng = np.random.default_rng(4)
        for _ in range(20):
            fs = [
                QuotientFunction(n, list(rng.normal(size=16) + 1j * rng.normal(size=16)))
                for _ in range(3)
            ]
            lhs = convolve_S(convolve_S(fs[0], fs[1], qm), fs[2], qm)
            rhs = convolve_S(fs[0], convolve_S(fs[1], fs[2], qm), qm)
            assert lhs.allclose(rhs, 1e-10)

    def test_general_mode_agrees_with_fast_path(self):
        # the triple (α, β, γ) = ((l,j), (j,k), (m,k)) projects to (l,j,k,m);
        # convolution over S(G) must match the quadruple-indexed fast path
        n = 2
        g = pair_groupoid(n)
        meas = weighted_pair_measure(g, (1, 2))
        sym = Symmetroid(g)
        m2 = induce_measure(sym, meas)
        qm = QuotientMeasure(meas)
        rng = np.random.default_rng(5)
        fq = QuotientFunction(n, list(rng.normal(size=16) + 1j * rng.normal(size=16)))
        gq_ = QuotientFunction(n, list(rng.normal(size=16) + 1j * rng.normal(size=16)))

        def lift(qf):
            vals = [qf[sym.project(t)] for t in sym.transformations]
            return SymFunction(sym, vals)

        prod_general = convolve_general(lift(fq), lift(gq_), m2)
        prod_fast = convolve_S(fq, gq_, qm)
        for t in sym.transformations:
            assert abs(prod_general[t] - prod_fast[sym.project(t)]) < 1e-10
        star_general = involute_general(lift(fq), m2)
        star_fast = involute_S(fq, qm)
        for t in sym.transformations:
            assert abs(star_general[t] - star_fast[sym.project(t)]) < 1e-10


class TestRepresentation:
    def test_unit_maps_to_identity(self):
        n = 2
        mat = rep_operator(QuotientFunction.vertical_unit_indicator(n))
        assert np.array_equal(mat, np.eye(16))

    def test_multiplicative(self):
        n = 2
        rng = np.random.default_rng(6)
        for _ in range(10):
            f = QuotientFunction(n, list(rng.normal(size=16) + 1j * rng.normal(size=16)))
            g = QuotientFunction(n, list(rng.normal(size=16) + 1j * rng.normal(size=16)))
            lhs = rep_operator(convolve_S(f, g))
            rhs = rep_operator(f) @ rep_operator(g)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_adjoint_counting(self):
        # A_f† = A_{f*} on L²(S, μ₂); counting measure makes μ₂ trivial so the
        # adjoint is the plain conjugate transpose
        n = 2
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = QuotientFunction(n, list(rng.normal(size=16) + 1j * rng.normal(size=16)))
            assert np.max(np.abs(rep_operator(f).conj().T - rep_operator(involute_S(f)))) < 1e-12

    def test_adjoint_weighted(self):
        n = 2
        meas = weighted_pair_measure(pair_groupoid(n), (1, 2))
        qm = QuotientMeasure(meas)
        d = np.diag([float(qm.mu2(q)) for q in enumerate_quotient(n)])
        dinv = np.diag([1 / float(qm.mu2(q)) for q in enumerate_quotient(n)])
        rng = np.random.default_rng(8)
        for _ in range(10):
            f = QuotientFunction(n, list(rng.normal(size=16) + 1j * rng.normal(size=16)))
            lhs = rep_operator(involute_S(f, qm), qm)
            rhs = dinv @ rep_operator(f, qm).conj().T @ d
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_faithful_on_basis(self):
        n = 2
        images = [rep_operator(QuotientFunction.delta(n, q)) for q in enumerate_quotient(n)]
        flat = np.array([im.ravel() for im in images])
        assert np.linalg.matrix_rank(flat) == 16

    def test_modular_involution(self):
        n = 2
        rng = np.random.default_rng(9)
        psi = QuotientFunction(n, list(rng.normal(size=16) + 1j * rng.normal(size=16)))
        assert modular_involution(modular_involution(psi)).allclose(psi)
        c = 1.5 - 0.5j
        lhs = modular_involution(psi * c)
        rhs = modular_involution(psi) * c.conjugate()
        assert lhs.allclose(rhs)
        q = QClass(1, 0, 1, 0)
        assert modular_involution(QuotientFunction.delta(n, q)) == QuotientFunction.delta(
            n, q_vertical_inverse(q)
        )


class TestPullbacks:
    def test_embed_and_action_formula(self):
        n = 3
        g = pair_groupoid(n)
        rng = np.random.default_rng(10)
        psi = AlgebraElement(g, list(rng.normal(size=9) + 1j * rng.normal(size=9)))
        emb = pullback_embed(psi)
        for q in enumerate_quotient(n):
            assert emb[q] == psi.values[q.z * n + q.w]
        f = QuotientFunction(n, list(rng.normal(size=81) + 1j * rng.normal(size=81)))
        acted = convolve_S(f, emb)
        # (A_f t1*ψ)((l,j),(k,m)) = Σ_{r,s} f((l,r),(s,m)) ψ(r,s): fiber-constant
        for l in range(n):
            for m in range(n):
                expected = sum(
                    f.get(l, r, s, m) * psi.values[r * n + s]
                    for r in range(n)
                    for s in range(n)
                )
                for j in range(n):
                    for k in range(n):
                        assert abs(acted.get(l, j, k, m) - expected) < 1e-12
        back = fiber_restrict(acted)
        assert all(
            abs(back.values[l * n + m] - complex(sum(
                f.get(l, r, s, m) * psi.values[r * n + s]
                for r in range(n) for s in range(n)
            ))) < 1e-12
            for l in range(n) for m in range(n)
        )

    def test_fiber_restrict_rejects_non_pullback(self):
        n = 2
        f = QuotientFunction.delta(n, QClass(0, 0, 0, 0))
        with pytest.raises(NotPullbackError):
            fiber_restrict(f)

    def test_horizontal_convolution_intertwines(self):
        n = 3
        g = pair_groupoid(n)
        meas = GroupoidMeasure.counting(g)
        # matrix-unit law through the pullback: δ_(l,r) ⋆H δ_(r,m) = δ_(l,m)
        d_lr = AlgebraElement.delta(g, pair_index(n, 0, 1))
        d_rm = AlgebraElement.delta(g, pair_index(n, 1, 2))
        out = horizontal_convolve(pullback_embed(d_lr), pullback_embed(d_rm), meas)
        assert out == pullback_embed(AlgebraElement.delta(g, pair_index(n, 0, 2)))
        # χ_units pulls back to the ⋆H unit
        chi = pullback_embed(AlgebraElement.units_indicator(g))
        rng = np.random.default_rng(11)
        psi = AlgebraElement(g, list(rng.normal(size=9)))
        emb = pullback_embed(psi)
        assert horizontal_convolve(chi, emb, meas).allclose(emb)
        assert horizontal_convolve(emb, chi, meas).allclose(emb)
        # general intertwining against the base convolution oracle
        psi2 = AlgebraElement(g, list(rng.normal(size=9)))
        lhs = horizontal_convolve(pullback_embed(psi), pullback_embed(psi2), meas)
        rhs = pullback_embed(convolve(psi, psi2, meas))
        assert lhs.allclose(rhs)

    def test_pullback_subspace_invariant_under_rep(self):
        n = 2
        rng = np.random.default_rng(12)
        g = pair_groupoid(n)
        for q in enumerate_quotient(n):
            f = QuotientFunction.delta(n, q)
            psi = AlgebraElement(g, list(rng.normal(size=4) + 1j * rng.normal(size=4)))
            acted = convolve_S(f, pullback_embed(psi))
            fiber_restrict(acted)  # must not raise

    def test_restricted_representation_irreducible(self):
        # the commutant of {A_f restricted to the pullback block} is scalar:
        # restricted operators are exactly the A-matrices e_(l,m),(j,k), so the
        # commutant system has a one-dimensional solution space
        for n in (2, 3):
            d = n * n
            blocks = []
            for q in enumerate_quotient(n):
                mat = np.zeros((d, d), dtype=complex)
                mat[q.z * n + q.w, q.y * n + q.x] = 1
                blocks.append(mat)
            rows = []
            for b in blocks:
                rows.append(np.kron(b.T, np.eye(d)) - np.kron(np.eye(d), b))
            system = np.vstack(rows)
            null_dim = d * d - np.linalg.matrix_rank(system)
            assert null_dim == 1


def fractions(rng, size, dyadic=False):
    """Nonzero rationals; dyadic ones have power-of-two denominators."""
    nums = rng.integers(1, 10, size=size) * rng.choice([-1, 1], size=size)
    dens = 2 ** rng.integers(0, 4, size=size) if dyadic else rng.integers(1, 10, size=size)
    return [Fraction(int(p), int(q)) for p, q in zip(nums, dens)]


def all_fractions(f):
    return all(type(v) is Fraction for v in f.values)


class TestExactPath:
    def test_convolve_S_associative_exact_weighted(self):
        n = 3
        qm = QuotientMeasure(weighted_pair_measure(pair_groupoid(n), (1, 3, 5)).with_exact())
        rng = np.random.default_rng(31)
        f, g, h = (QuotientFunction(n, fractions(rng, n**4)) for _ in range(3))
        lhs = convolve_S(convolve_S(f, g, qm), h, qm)
        rhs = convolve_S(f, convolve_S(g, h, qm), qm)
        assert lhs == rhs
        assert all_fractions(lhs) and all_fractions(rhs)

    def test_involute_S_exact_weighted(self):
        n = 3
        qm = QuotientMeasure(weighted_pair_measure(pair_groupoid(n), (1, 3, 5)).with_exact())
        rng = np.random.default_rng(32)
        f, g = (QuotientFunction(n, fractions(rng, n**4)) for _ in range(2))
        star = involute_S(f, qm)
        assert all_fractions(star)
        assert involute_S(star, qm) == f
        assert involute_S(convolve_S(f, g, qm), qm) == convolve_S(involute_S(g, qm), star, qm)

    def test_int_weights_beside_fractions_stay_exact(self):
        # no .with_exact(): ints next to a Fraction are divided exactly
        n = 3
        g = pair_groupoid(n)
        rng = np.random.default_rng(36)
        f, h = (QuotientFunction(n, fractions(rng, n**4)) for _ in range(2))
        for m in (
            weighted_pair_measure(g, (Fraction(1, 3), 2, 5)),
            GroupoidMeasure(g, [Fraction(1, 2)] + [1] * 8),
        ):
            assert all(type(v) is Fraction for v in m.weights + m.object_weights)
            fiber_weights = [m.nu_target(a) for a in g.morphisms()]
            fiber_weights += [m.nu_source(a) for a in g.morphisms()]
            assert all(type(v) is Fraction for v in fiber_weights)
            qm = QuotientMeasure(m)
            assert all_fractions(convolve_S(f, h, qm))
            assert all_fractions(involute_S(f, qm))

    def test_rep_operator_homomorphism_exact_on_dyadic_values(self):
        n = 2
        qm = QuotientMeasure(weighted_pair_measure(pair_groupoid(n), (1, 4)).with_exact())
        rng = np.random.default_rng(33)
        f, g = (QuotientFunction(n, fractions(rng, n**4, dyadic=True)) for _ in range(2))
        fg = convolve_S(f, g, qm)
        assert np.array_equal(rep_operator(fg, qm), rep_operator(f, qm) @ rep_operator(g, qm))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_rep_operator_columns_are_convolutions_with_basis(self, weighted):
        n = 2
        qm = None
        if weighted:
            qm = QuotientMeasure(weighted_pair_measure(pair_groupoid(n), (1, 3)).with_exact())
        rng = np.random.default_rng(34)
        f = QuotientFunction(n, fractions(rng, n**4))
        mat = rep_operator(f, qm)
        for col, q in enumerate(enumerate_quotient(n)):
            column = convolve_S(f, QuotientFunction.delta(n, q), qm)
            assert mat[:, col].tolist() == [complex(v) for v in column.values]

    def test_pullback_and_restrict_stay_exact(self):
        n = 3
        g = pair_groupoid(n)
        psi = AlgebraElement(g, fractions(np.random.default_rng(35), n * n))
        pulled = pullback_embed(psi)
        assert all_fractions(pulled)
        assert fiber_restrict(pulled) == psi
        assert all(type(v) is Fraction for v in fiber_restrict(pulled).values)
        assert modular_involution(pulled) == involute_S(pulled)


class TestMismatchedBases:
    def test_quotient_arithmetic_across_bases_raises(self):
        small, big = QuotientFunction.zeros(2), QuotientFunction(3, [1] * 81)
        for combine in (lambda a, b: a + b, lambda a, b: a - b):
            with pytest.raises(GroupoidError, match="different bases"):
                combine(small, big)
            with pytest.raises(GroupoidError, match="different bases"):
                combine(big, small)

    def test_quotient_allclose_across_bases_raises(self):
        with pytest.raises(GroupoidError, match="different bases"):
            QuotientFunction.zeros(2).allclose(QuotientFunction.zeros(3))

    def test_sym_function_allclose_across_symmetroids_raises(self):
        small = SymFunction.zeros(Symmetroid(pair_groupoid(2)))
        big = SymFunction.zeros(Symmetroid(pair_groupoid(3)))
        assert small.allclose(SymFunction.zeros(Symmetroid(pair_groupoid(2))))
        with pytest.raises(GroupoidError, match="different symmetroids"):
            small.allclose(big)


class TestExports:
    GOLDEN_KERNEL = (
        '{"n": 2, "values": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],'
        ' [0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0],'
        ' [1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}'
    )

    def test_golden_class_order(self):
        # pins the canonical (z, y, x, w) row-major flattening
        from groupoidqm.channels import from_flat_bisection
        from groupoidqm import shift_bisection

        ch = from_flat_bisection(shift_bisection(2))
        assert json.dumps(ch.to_json(), sort_keys=True) == self.GOLDEN_KERNEL

    def test_matrix_csv_golden(self, tmp_path):
        from groupoidqm.channels import from_flat_bisection, to_a_matrix
        from groupoidqm import shift_bisection

        a = to_a_matrix(from_flat_bisection(shift_bisection(2))).matrix
        path = tmp_path / "a.csv"
        write_matrix_csv(a, str(path))
        expected = (
            b"0.0,0.0,0.0,0.0,0.0,0.0,1.0,0.0\r\n"
            b"0.0,0.0,0.0,0.0,1.0,0.0,0.0,0.0\r\n"
            b"0.0,0.0,1.0,0.0,0.0,0.0,0.0,0.0\r\n"
            b"1.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0\r\n"
        )
        assert path.read_bytes() == expected

    def test_matrix_json_shape(self):
        mat = np.array([[1 + 2j, 0], [0, 1]])
        data = matrix_to_json(mat)
        assert data["shape"] == [2, 2]
        assert data["entries"][0] == [1.0, 2.0]
