"""General-mode coverage beyond pair groupoids: isotropy, disconnection,
products, and the symmetroid machinery over them."""

from fractions import Fraction

import numpy as np
import pytest
from oracles import (
    cyclic_group_groupoid,
    is_little,
    reference_convolve_general,
    reference_involute_general,
    two_component_groupoid,
)

from groupoidqm import (
    AlgebraElement,
    GroupoidMeasure,
    NotComposableError,
    QClass,
    Symmetroid,
    Transformation,
    convolve,
    direct_product,
    induce_measure,
    involute,
    is_connected,
    is_positive_type,
    left_regular_matrix,
    pair_groupoid,
    validate,
    weighted_pair_measure,
    verify_induced_equivariance,
    verify_left_invariance,
    verify_modular_formula,
    verify_modular_homomorphism,
)


class TestGroupGroupoid:
    def test_valid_and_connected(self):
        g = cyclic_group_groupoid(3)
        assert validate(g).ok
        assert is_connected(g)

    def test_convolution_is_group_algebra(self):
        # δ_a ⋆ δ_b = δ_{a+b}: the group algebra of Z/3
        g = cyclic_group_groupoid(3)
        m = GroupoidMeasure.counting(g)
        for a in range(3):
            for b in range(3):
                prod = convolve(
                    AlgebraElement.delta(g, a), AlgebraElement.delta(g, b), m
                )
                assert prod == AlgebraElement.delta(g, (a + b) % 3)

    def test_left_regular_is_regular_representation(self):
        g = cyclic_group_groupoid(3)
        m = GroupoidMeasure.counting(g)
        mat = left_regular_matrix(AlgebraElement.delta(g, 1), m)
        perm = np.zeros((3, 3))
        for a in range(3):
            perm[(a + 1) % 3, a] = 1
        assert np.array_equal(mat, perm)

    def test_characters_are_positive_type(self):
        # φ(a) = e^{2πi a/3}: a character, hence positive-type; a sign flip is not
        g = cyclic_group_groupoid(3)
        chi = AlgebraElement(g, [np.exp(2j * np.pi * a / 3) for a in range(3)])
        assert is_positive_type(chi).ok
        bad = AlgebraElement(g, [1, -1, -1])
        assert not is_positive_type(bad).ok

    def test_nonuniform_group_measure_is_not_haar(self):
        g = cyclic_group_groupoid(2)
        m = GroupoidMeasure(g, [1, 2])
        rep = verify_left_invariance(g, m)
        assert not rep.ok

    def test_symmetroid_is_all_little(self):
        g = cyclic_group_groupoid(2)
        sym = Symmetroid(g)
        assert len(sym) == 8  # beta in 2, alpha in 2, gamma in 2
        assert all(is_little(sym, t) for t in sym.transformations)
        # the quotient collapses to the single object class
        assert {sym.project(t) for t in sym.transformations} == {QClass(0, 0, 0, 0)}

    def test_induced_measure_on_group_symmetroid(self):
        g = cyclic_group_groupoid(3)
        sym = Symmetroid(g)
        m2 = induce_measure(sym, GroupoidMeasure.counting(g))
        assert verify_induced_equivariance(m2).ok
        assert verify_modular_formula(m2).ok
        assert verify_modular_homomorphism(m2).ok

    def test_general_convolution_unit_and_associativity(self):
        g = cyclic_group_groupoid(2)
        sym = Symmetroid(g)
        m2 = induce_measure(sym, GroupoidMeasure.counting(g))
        v, m = sym.vertical, m2.measure
        unit = AlgebraElement(v, [int(t == sym.vertical_unit(t.beta)) for t in sym.transformations])
        rng = np.random.default_rng(0)
        fs = [
            AlgebraElement(v, list(rng.normal(size=len(sym)) + 1j * rng.normal(size=len(sym))))
            for _ in range(3)
        ]
        assert convolve(unit, fs[0], m).allclose(fs[0])
        assert convolve(fs[0], unit, m).allclose(fs[0])
        lhs = convolve(convolve(fs[0], fs[1], m), fs[2], m)
        rhs = convolve(fs[0], convolve(fs[1], fs[2], m), m)
        assert lhs.allclose(rhs, 1e-10)
        assert involute(involute(fs[0], m), m).allclose(fs[0], 1e-12)


class TestDisconnected:
    def test_valid_but_disconnected(self):
        g = two_component_groupoid()
        assert validate(g).ok
        assert not is_connected(g)

    def test_measure_checks_accept_disconnected(self):
        g = two_component_groupoid()
        m = GroupoidMeasure.counting(g)
        assert verify_left_invariance(g, m).ok

    def test_symmetroid_and_measure_on_disconnected(self):
        g = two_component_groupoid()
        sym = Symmetroid(g)
        m2 = induce_measure(sym, GroupoidMeasure.counting(g))
        assert verify_induced_equivariance(m2).ok
        assert verify_modular_formula(m2).ok


class TestProductGroupoidSymmetroid:
    def test_induced_structure(self):
        g = direct_product(pair_groupoid(2), pair_groupoid(2))
        sym = Symmetroid(g)
        assert len(sym) == 256
        m2 = induce_measure(sym, GroupoidMeasure.counting(g))
        assert verify_induced_equivariance(m2).ok
        assert verify_modular_formula(m2).ok

    def test_vertical_laws_sampled(self):
        g = direct_product(pair_groupoid(2), pair_groupoid(2))
        sym = Symmetroid(g)
        rng = np.random.default_rng(1)
        idx = rng.integers(0, len(sym), size=40)
        for i in idx:
            t = sym.transformations[int(i)]
            ti = sym.vertical_inverse(t)
            assert sym.vertical_compose(ti, t) == sym.vertical_unit(sym.s1(t))
            assert sym.vertical_compose(t, ti) == sym.vertical_unit(sym.t1(t))

    def test_weighted_product_measure(self):
        # product of two weighted Haar measures is Haar on the product
        g1, g2 = pair_groupoid(2), pair_groupoid(2)
        from groupoidqm import weighted_pair_measure

        m1 = weighted_pair_measure(g1, (1, 2))
        m2_ = weighted_pair_measure(g2, (1, 4))
        g = direct_product(g1, g2)
        weights = [
            m1.weights[a] * m2_.weights[b]
            for a in range(g1.n_morphisms)
            for b in range(g2.n_morphisms)
        ]
        obj = [
            m1.object_weights[x] * m2_.object_weights[y]
            for x in range(2)
            for y in range(2)
        ]
        m = GroupoidMeasure(g, weights, obj)
        assert verify_left_invariance(g, m).ok
        sym = Symmetroid(g)
        ind = induce_measure(sym, m)
        assert verify_modular_formula(ind).ok

    def test_involution_antimultiplicative_on_product(self):
        g = direct_product(pair_groupoid(2), pair_groupoid(2))
        m = GroupoidMeasure.counting(g)
        rng = np.random.default_rng(2)
        size = g.n_morphisms
        f1 = AlgebraElement(g, list(rng.normal(size=size) + 1j * rng.normal(size=size)))
        f2 = AlgebraElement(g, list(rng.normal(size=size) + 1j * rng.normal(size=size)))
        lhs = involute(convolve(f1, f2, m), m)
        rhs = convolve(involute(f2, m), involute(f1, m), m)
        assert lhs.allclose(rhs, 1e-10)


class TestVerticalGroupoid:
    """S(G) under vertical composition is a groupoid over the morphisms of G."""

    @pytest.mark.parametrize(
        "g",
        [pair_groupoid(2), pair_groupoid(3), cyclic_group_groupoid(3), two_component_groupoid()],
        ids=["pair2", "pair3", "z3", "two-component"],
    )
    def test_vertical_is_a_groupoid_with_s1_and_t1(self, g):
        sym = Symmetroid(g)
        v = sym.vertical
        assert validate(v).ok
        assert (v.n_objects, v.n_morphisms) == (g.n_morphisms, len(sym))
        for i, t in enumerate(sym.transformations):
            assert v.source[i] == sym.s1(t)
            assert v.target[i] == sym.t1(t)

    def test_triple_outside_symmetroid_is_not_composable(self):
        sym = Symmetroid(pair_groupoid(2))
        bad = Transformation(1, 0, 0)  # α = (0, 1) does not start where β = (0, 0) ends
        assert not sym.is_valid(bad)
        good = sym.vertical_unit(0)
        for call in (
            lambda: sym.t1(bad),
            lambda: sym.vertical_inverse(bad),
            lambda: sym.vertical_compose(good, bad),
            lambda: sym.vertical_compose(bad, good),
            lambda: sym.vertical_compose(sym.vertical_unit(3), good),  # t1 = 0, s1 = 3
        ):
            with pytest.raises(NotComposableError):
                call()


class TestGeneralConvolutionExact:
    @pytest.mark.parametrize(
        "base",
        [
            weighted_pair_measure(pair_groupoid(2), (Fraction(1, 3), 2)),
            GroupoidMeasure.counting(cyclic_group_groupoid(3)).with_exact(),
        ],
        ids=["pair2-weighted", "z3-counting"],
    )
    def test_matches_reference_exactly(self, base):
        sym = Symmetroid(base.groupoid)
        m2 = induce_measure(sym, base, tol=0)
        rng = np.random.default_rng(41)
        f, h = (
            AlgebraElement(sym.vertical, [Fraction(int(p), int(q)) for p, q in zip(
                rng.integers(-4, 5, size=len(sym)), rng.integers(1, 7, size=len(sym))
            )])
            for _ in range(2)
        )
        assert 0 in f.values  # the reference skips zero terms as convolve does
        for out, ref in (
            (convolve(f, h, m2.measure), reference_convolve_general(sym, f, h, base)),
            (involute(f, m2.measure), reference_involute_general(sym, f, base)),
        ):
            assert all(type(v) is Fraction for v in out.values)
            assert out.values == tuple(ref)
