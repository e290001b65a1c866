from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from groupoidqm import (
    GroupoidMeasure,
    NotHaarError,
    direct_product,
    modular,
    pair_groupoid,
    pair_index,
    verify_disintegration,
    verify_inverse_relation,
    verify_left_invariance,
    verify_right_invariance,
    weighted_pair_measure,
)

W124 = (1, 2, 4)


def test_counting_measure_units():
    g = pair_groupoid(3)
    m = GroupoidMeasure.counting(g)
    assert all(w == 1 for w in m.weights)
    assert all(w == 1 for w in m.object_weights)
    assert all(m.nu_target(a) == 1 for a in g.morphisms())


def test_counting_modular_trivial():
    g = pair_groupoid(3)
    d = modular(g, GroupoidMeasure.counting(g))
    assert all(v == 1 for v in d.values)


def test_weighted_modular_values():
    g = pair_groupoid(3)
    m = weighted_pair_measure(g, W124)
    d = modular(g, m)
    # direct ratio oracle: δ(α) = μ(α)/μ(α⁻¹)
    assert d(pair_index(3, 1, 0)) == (2 / 1) / (1 / 2) == 4
    # homomorphism: δ((2,0)) = δ((2,1))·δ((1,0))
    assert d(pair_index(3, 2, 0)) == d(pair_index(3, 2, 1)) * d(pair_index(3, 1, 0)) == 16


def test_not_haar_measure_raises():
    g = pair_groupoid(3)
    # perturb one weight so δ((2,0)) != δ((2,1))·δ((1,0))
    weights = [1] * 9
    weights[pair_index(3, 2, 0)] = 3
    m = GroupoidMeasure(g, weights)
    with pytest.raises(NotHaarError):
        modular(g, m)


def test_left_invariance_counting():
    for n in (2, 3, 4):
        g = pair_groupoid(n)
        rep = verify_left_invariance(g, GroupoidMeasure.counting(g))
        assert rep.ok and rep.checks == n**3


def test_left_invariance_weighted_needs_matching_object_weights():
    g = pair_groupoid(3)
    good = weighted_pair_measure(g, W124)
    assert verify_left_invariance(g, good).ok
    # all-ones object weights break invariance: ν^y(β) = w_y/w_k vs ν^x(γ⁻¹∘β) = w_x/w_k
    bad = weighted_pair_measure(g, W124, object_weights=(1, 1, 1))
    rep = verify_left_invariance(g, bad)
    assert not rep.ok


def test_left_invariance_detects_perturbation():
    g = pair_groupoid(3)
    weights = list(GroupoidMeasure.counting(g).weights)
    weights[pair_index(3, 1, 0)] = 2
    rep = verify_left_invariance(g, GroupoidMeasure(g, weights))
    assert not rep.ok
    gamma, beta = rep.violations[0].where
    assert 0 <= gamma < 9 and 0 <= beta < 9


def test_inverse_relation():
    g = pair_groupoid(3)
    assert verify_inverse_relation(g, GroupoidMeasure.counting(g)).ok
    assert verify_inverse_relation(g, weighted_pair_measure(g, W124)).ok


def test_right_invariance_counting_only():
    g = pair_groupoid(3)
    assert verify_right_invariance(g, GroupoidMeasure.counting(g)).ok
    # ν_x is right-invariant only up to δ; the weighted family fails it
    assert not verify_right_invariance(g, weighted_pair_measure(g, W124)).ok


def test_disintegration_exact_rational():
    g = pair_groupoid(3)
    m = weighted_pair_measure(g, W124).with_exact()
    subsets = [list(g.morphisms()), [0, 4, 7], [2], []]
    rep = verify_disintegration(g, m, subsets=subsets, tol=0)
    assert rep.ok
    # spelled out: Σ_x ν^x(E ∩ G^x) μ_Ω(x) == Σ_{α∈E} μ(α), exactly
    E = [0, 4, 7]
    lhs = sum(m.nu_target(a) * m.object_weights[g.target[a]] for a in E)
    assert lhs == sum(m.weights[a] for a in E)
    assert isinstance(lhs, Fraction)


def test_target_pushforward_object_weights():
    g = pair_groupoid(3)
    m = GroupoidMeasure(
        g, weighted_pair_measure(g, W124).weights, target_pushforward=True
    )
    # t⋆μ gives μ_Ω(j) = w_j · Σ_k 1/w_k, proportional to w, hence still Haar
    assert verify_left_invariance(g, m).ok
    ratio = m.object_weights[1] / m.object_weights[0]
    assert abs(ratio - 2) < 1e-12


def test_int_and_float_measures_keep_their_value_types():
    g = pair_groupoid(3)
    ints = GroupoidMeasure(g, [2] * 9)
    assert all(type(v) is int for v in ints.weights + ints.object_weights)
    floats = weighted_pair_measure(g, W124)
    assert all(type(v) is float for v in floats.weights)
    assert floats.object_weights == W124
    mixed = GroupoidMeasure(g, [Fraction(1, 2)] + [0.5] + [1] * 7)
    assert [type(v) for v in mixed.weights[:3]] == [Fraction, float, Fraction]


@pytest.mark.parametrize(
    "w,kinds",
    [
        ((1, 2, 4), (float, int)),
        ((Fraction(1, 2), Fraction(3), Fraction(2, 5)), (Fraction, Fraction)),
        ((1, Fraction(1, 2), 3), (Fraction, Fraction)),
        ((1.0, 0.5, 2.0), (float, float)),
    ],
    ids=["int", "fraction", "mixed", "float"],
)
def test_weighted_pair_measure_value_types(w, kinds):
    """μ(j, k) = w_j / w_k: floats from int w, Fractions once one w is a
    Fraction (built from w's integer form, equal to the quotients)."""
    g = pair_groupoid(3)
    m = weighted_pair_measure(g, w)
    weight_kind, object_kind = kinds
    assert [type(v) for v in m.weights] == [weight_kind] * 9
    assert [type(v) for v in m.object_weights] == [object_kind] * 3
    exact = [Fraction(v) if isinstance(v, int) else v for v in w] if object_kind is Fraction else w
    assert m.weights == tuple(exact[j] / exact[k] for j in range(3) for k in range(3))
    assert m.object_weights == tuple(exact)


def test_weighted_pair_measure_rejects_nonpositive_points():
    g = pair_groupoid(2)
    with pytest.raises(ValueError, match="morphism weight 1 must be strictly positive"):
        weighted_pair_measure(g, (Fraction(1, 2), Fraction(-1)))
    with pytest.raises(ValueError, match="object weight 0 must be strictly positive"):
        weighted_pair_measure(g, (Fraction(-1, 2), Fraction(-1)))
    with pytest.raises(ZeroDivisionError):
        weighted_pair_measure(g, (Fraction(1, 2), Fraction(0)))


def test_measure_rejects_nonpositive_weights():
    g = pair_groupoid(2)
    with pytest.raises(ValueError):
        GroupoidMeasure(g, [1, 1, 0, 1])
    with pytest.raises(ValueError):
        GroupoidMeasure(g, [1, 1, 1, 1], object_weights=[1, -2])


@pytest.mark.parametrize(
    "bad", [Fraction(0), Fraction(-1, 3), 0, -2, 0.0, -0.5, float("nan")], ids=repr
)
def test_nonpositive_weights_raise_one_message(bad):
    """A Fraction's sign is read from its numerator; the errors are those of v > 0."""
    g = pair_groupoid(2)
    for kwargs, want in (
        ({"weights": [1, 1, bad, 1]}, f"morphism weight 2 must be strictly positive, got {bad!r}"),
        (
            {"weights": [1] * 4, "object_weights": [Fraction(1, 2), bad]},
            f"object weight 1 must be strictly positive, got {bad!r}",
        ),
    ):
        with pytest.raises(ValueError) as err:
            GroupoidMeasure(g, **kwargs)
        assert str(err.value) == want


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 4),
    exps=st.lists(st.integers(-3, 3), min_size=4, max_size=4),
)
def test_weighted_family_is_haar_exactly(n, exps):
    """Any μ(j,k) = w_j/w_k with μ_Ω = w passes every Haar check exactly."""
    g = pair_groupoid(n)
    w = [Fraction(2) ** e for e in exps[:n]]
    m = weighted_pair_measure(g, w)
    assert verify_left_invariance(g, m, tol=0).ok
    assert verify_inverse_relation(g, m, tol=0).ok
    assert verify_disintegration(g, m, tol=0).ok
    modular(g, m, tol=0)


def test_measure_on_direct_product():
    g = direct_product(pair_groupoid(2), pair_groupoid(2))
    m = GroupoidMeasure.counting(g)
    assert verify_left_invariance(g, m).ok
    assert verify_inverse_relation(g, m).ok


def test_delta_inverse_reciprocal():
    g = pair_groupoid(3)
    m = weighted_pair_measure(g, W124)
    d = modular(g, m)
    for a in g.morphisms():
        assert abs(d(g.inv(a)) - 1 / d(a)) < 1e-12
