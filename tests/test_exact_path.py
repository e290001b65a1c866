"""The gathered verifiers and the exact contractions against the loops and
formulas they replaced.

The reference functions below are the per-check loops the measure and
symmetroid verifiers used before they became gathers over composable-pair
arrays; the reports must agree check for check and violation for violation.
"""

from fractions import Fraction
from numbers import Rational
from unittest import mock

import numpy as np
import pytest

from groupoidqm import (
    AlgebraElement,
    FiniteGroupoid,
    GroupoidMeasure,
    KrausFamily,
    NotComposableError,
    QuotientFunction,
    QuotientMeasure,
    SymFunction,
    Symmetroid,
    apply,
    convolve,
    convolve_S,
    convolve_general,
    direct_product,
    from_kraus,
    induce_measure,
    involute,
    involute_S,
    is_pair_groupoid,
    left_regular_matrix,
    modular,
    modular_homomorphism_report,
    pair_groupoid,
    verify_disintegration,
    verify_induced_equivariance,
    verify_inverse_relation,
    verify_left_invariance,
    verify_modular_formula,
    verify_modular_homomorphism,
    verify_right_invariance,
    weighted_pair_measure,
)
from groupoidqm.algebra import contract, value_array
from groupoidqm.measure import _is_exact
from groupoidqm.reports import ViolationReport
from groupoidqm.symalgebra import SymmetroidMeasure

TOL = 1e-12

# -- the loops the gathers replaced --


def loop_modular_homomorphism_report(g, values, tol=TOL):
    rep = ViolationReport()
    for b, a in g.composable_pairs():
        rep.checks += 1
        defect = abs(values[g.compose(b, a)] - values[b] * values[a])
        if defect > tol:
            where = f"({g.label(b)}, {g.label(a)})"
            rep.add("modular-hom", (b, a), f"not multiplicative on {where}", defect)
    return rep


def loop_left_invariance(g, m, tol=TOL):
    rep = ViolationReport()
    nu = [m.nu_target(beta) for beta in g.morphisms()]
    for gamma in g.morphisms():
        y = g.target[gamma]
        gi = g.inv(gamma)
        for beta in g.target_fiber(y):
            rep.checks += 1
            defect = abs(nu[beta] - nu[g.compose(gi, beta)])
            if defect > tol:
                rep.add(
                    "left-invariance",
                    (gamma, beta),
                    f"ν^y({g.label(beta)}) != ν^x(γ⁻¹∘β) for γ={g.label(gamma)}",
                    defect,
                )
    return rep


def loop_inverse_relation(g, m, tol=TOL):
    rep = ViolationReport()
    for x in g.objects():
        for alpha in g.source_fiber(x):
            rep.checks += 1
            lhs = m.nu_target(g.inv(alpha))
            rhs = m.nu_source(alpha) / m.delta(alpha)
            defect = abs(lhs - rhs)
            if defect > tol:
                rep.add(
                    "inverse-relation",
                    (x, alpha),
                    f"τ⋆ν^x != δ⁻¹ν_x at α={g.label(alpha)}",
                    defect,
                )
    return rep


def loop_right_invariance(g, m, tol=TOL):
    rep = ViolationReport()
    for gamma in g.morphisms():
        x = g.source[gamma]
        gi = g.inv(gamma)
        for alpha in g.source_fiber(x):
            rep.checks += 1
            lhs = m.nu_source(alpha)
            rhs = m.nu_source(g.compose(alpha, gi))
            defect = abs(lhs - rhs)
            if defect > tol:
                rep.add(
                    "right-invariance",
                    (gamma, alpha),
                    f"ν_x({g.label(alpha)}) != ν_y(α∘γ⁻¹) for γ={g.label(gamma)}",
                    defect,
                )
    return rep


def loop_modular_atoms(m2, tol=TOL):
    sym = m2.symmetroid
    rep = ViolationReport()
    for t in sym.transformations:
        rep.checks += 1
        ti = sym.vertical_inverse(t)
        defect = abs(m2.mu2(ti) - m2.mu2(t) / m2.delta2(t))
        if defect > tol:
            rep.add("modular-atom", (t,), f"μ₂(Γ⁻¹) != μ₂(Γ)/Δ₂(Γ) at Γ={t}", defect)
    return rep


def assert_same_report(new, ref):
    assert new.checks == ref.checks
    assert new.violations == ref.violations  # order, kind, where, message, magnitude


# -- groupoids and measures --


def cyclic_group_groupoid(k):
    """Z/k as a one-object groupoid: morphisms 0..k-1, addition mod k."""
    compose = {(b, a): (b + a) % k for b in range(k) for a in range(k)}
    return FiniteGroupoid(1, [0] * k, [0] * k, compose, [(-a) % k for a in range(k)], [0])


def two_component_groupoid():
    """A 2-point pair groupoid (morphisms 0..3) and a unit at object 2 (morphism 4)."""
    p = pair_groupoid(2)
    compose = dict(p.compose_table)
    compose[(4, 4)] = 4
    return FiniteGroupoid(
        3, list(p.source) + [2], list(p.target) + [2], compose, list(p.inverse) + [4],
        list(p.unit_of) + [4],
    )


GROUPOIDS = {
    "pair2": lambda: pair_groupoid(2),
    "pair3": lambda: pair_groupoid(3),
    "pair4": lambda: pair_groupoid(4),
    "z3": lambda: cyclic_group_groupoid(3),
    "two-component": two_component_groupoid,
    "product": lambda: direct_product(pair_groupoid(2), cyclic_group_groupoid(3)),
    "vertical2": lambda: Symmetroid(pair_groupoid(2)).vertical,
    "vertical3": lambda: Symmetroid(pair_groupoid(3)).vertical,
}


def _perturbed(values, small, large):
    """values with a change below the tolerance at one place and above it at another."""
    values = list(values)
    values[-1] += small
    if len(values) > 1:
        values[len(values) // 2] += large
    return values


def measures(g):
    """Haar and non-Haar measures with int, Fraction, float and mixed weights."""
    rng = np.random.default_rng(g.n_morphisms)
    m, n = g.n_morphisms, g.n_objects
    ints = [int(v) for v in rng.integers(1, 5, size=m)]
    fracs = [Fraction(int(p), int(q)) for p, q in zip(ints, rng.integers(1, 5, size=m))]
    floats = [float(v) for v in rng.uniform(0.5, 2.0, size=m)]
    ones = [Fraction(1)] * m
    out = {
        "counting-int": GroupoidMeasure.counting(g),
        "counting-fraction": GroupoidMeasure.counting(g).with_exact(),
        "int": GroupoidMeasure(g, ints, [int(v) for v in rng.integers(1, 4, size=n)]),
        "fraction": GroupoidMeasure(g, fracs),
        "float": GroupoidMeasure(g, floats, [1.5] * n),
        "fraction-near-tol": GroupoidMeasure(
            g, _perturbed(ones, Fraction(1, 10**14), Fraction(1, 10**6))
        ),
        "float-near-tol": GroupoidMeasure(g, _perturbed([1.0] * m, 1e-14, 1e-6)),
        "mixed": GroupoidMeasure(g, [0.5] + fracs[1:]),
    }
    if m == n * n:  # the family w_j / w_k, Haar where g is a pair groupoid
        w = [Fraction(2) ** k for k in range(n)]
        out["weighted-fraction"] = _ratio_measure(g, w)
        out["weighted-float"] = _ratio_measure(g, [float(v) for v in w])
    return out


def _ratio_measure(g, w):
    """weighted_pair_measure(g, w), and the same weights w_j / w_k on a
    groupoid with n² morphisms that is not a pair groupoid (the vertical
    groupoid of a symmetroid, whose morphisms are labelled otherwise)."""
    if is_pair_groupoid(g):
        return weighted_pair_measure(g, w)
    n = g.n_objects
    return GroupoidMeasure(g, [w[j] / w[k] for j in range(n) for k in range(n)], w)


CASES = [(gname, mname) for gname, make in GROUPOIDS.items() for mname in measures(make())]


@pytest.mark.parametrize("tol", [TOL, 0.0])
@pytest.mark.parametrize("gname,mname", CASES)
def test_measure_verifiers_match_loops(gname, mname, tol):
    g = GROUPOIDS[gname]()
    m = measures(g)[mname]
    for new, ref in (
        (verify_left_invariance, loop_left_invariance),
        (verify_right_invariance, loop_right_invariance),
        (verify_inverse_relation, loop_inverse_relation),
    ):
        assert_same_report(new(g, m, tol), ref(g, m, tol))
    values = [m.delta(a) for a in g.morphisms()]
    assert_same_report(
        modular_homomorphism_report(g, values, tol),
        loop_modular_homomorphism_report(g, values, tol),
    )


def test_parity_cases_exercise_violations():
    g = pair_groupoid(3)
    ms = measures(g)
    assert not loop_left_invariance(g, ms["int"]).ok
    assert not loop_right_invariance(g, ms["float"]).ok
    assert not loop_inverse_relation(g, ms["float"], 0.0).ok  # rounding, caught at tol 0
    near = ms["fraction-near-tol"]
    rep = verify_left_invariance(g, near)
    # the 1e-14 change passes, the 1e-6 change fails
    assert rep.violations and all(v.magnitude > 1e-7 for v in rep.violations)


def _value_lists(g):
    rng = np.random.default_rng(7 + g.n_morphisms)
    m = g.n_morphisms
    ones = [Fraction(1)] * m
    c = rng.normal(size=g.n_objects) + 1j * rng.normal(size=g.n_objects)
    character = [complex(c[g.target[a]] / c[g.source[a]]) for a in g.morphisms()]
    return {
        "int": [int(v) for v in rng.integers(-2, 3, size=m)],
        "fraction": [Fraction(int(p), int(q)) for p, q in rng.integers(1, 4, size=(m, 2))],
        "float": [float(v) for v in rng.normal(size=m)],
        "complex": [complex(v) for v in rng.normal(size=m) + 1j * rng.normal(size=m)],
        "complex-character": character,
        "fraction-near-tol": _perturbed(ones, Fraction(1, 10**13), Fraction(1, 10**9)),
        "int-fraction-float": [1, Fraction(1, 3), 0.5] * (m // 3) + [1] * (m % 3),
    }


@pytest.mark.parametrize("tol", [TOL, 0.0, -1.0])
@pytest.mark.parametrize("gname", list(GROUPOIDS))
def test_modular_homomorphism_values_match_loop(gname, tol):
    g = GROUPOIDS[gname]()
    for values in _value_lists(g).values():
        new = modular_homomorphism_report(g, values, tol)
        assert_same_report(new, loop_modular_homomorphism_report(g, values, tol))


def test_exact_values_near_the_tolerance():
    g = pair_groupoid(2)
    ones = [Fraction(1)] * 4
    assert modular_homomorphism_report(g, _perturbed(ones, Fraction(1, 10**13), 0)).ok
    rep = modular_homomorphism_report(g, _perturbed(ones, 0, Fraction(1, 10**11)))
    assert not rep.ok and rep.violations == loop_modular_homomorphism_report(
        g, _perturbed(ones, 0, Fraction(1, 10**11))
    ).violations


@pytest.mark.parametrize("n", [2, 3])
def test_symmetroid_checks_match_loops(n):
    g = pair_groupoid(n)
    sym = Symmetroid(g)
    w = [Fraction(2) ** k for k in range(n)]
    bases = {
        "haar-fraction": weighted_pair_measure(g, w),
        "haar-float": weighted_pair_measure(g, [float(v) for v in w]),
        "counting": GroupoidMeasure.counting(g),
        "non-haar-fraction": GroupoidMeasure(g, [Fraction(k + 1, 2) for k in g.morphisms()]),
        "non-haar-float": GroupoidMeasure(g, [1.0 + 0.1 * k for k in g.morphisms()]),
    }
    for base in bases.values():
        m2 = SymmetroidMeasure(sym, base)
        for tol in (TOL, 0.0, -1.0):
            rep = verify_modular_formula(m2, tol=tol)
            assert_same_report(rep, loop_modular_atoms(m2, tol))
            v = sym.vertical
            assert_same_report(
                verify_left_invariance(v, m2.measure, tol),
                loop_left_invariance(v, m2.measure, tol),
            )
            values = list(m2.modular.values())
            assert_same_report(
                modular_homomorphism_report(v, values, tol),
                loop_modular_homomorphism_report(v, values, tol),
            )
    # Δ₂ altered by less and by more than the tolerance: one atom passes, one fails
    m2 = SymmetroidMeasure(sym, bases["haar-fraction"])
    ts = sym.transformations
    deltas = list(m2.measure.deltas)
    deltas[1] += Fraction(1, 10**14)
    deltas[2] += Fraction(1, 10**6)
    m2.measure.deltas = tuple(deltas)
    rep = verify_modular_formula(m2)
    assert [v.where for v in rep.violations] == [(ts[2],)]
    assert_same_report(rep, loop_modular_atoms(m2))


# -- malformed tables --


def _pair3_missing(*pairs):
    g = pair_groupoid(3)
    table = {k: v for k, v in g.compose_table.items() if k not in pairs}
    return FiniteGroupoid(3, g.source, g.target, table, g.inverse, g.unit_of)


# (6, 0) comes first in pair order; (3, 1) comes first in γ-major order,
# since γ = (3)⁻¹ = 1 precedes (6)⁻¹ = 2.
MISSING = ((6, 0), (3, 1))


@pytest.mark.parametrize(
    "new,ref",
    [
        (
            lambda g: modular_homomorphism_report(g, [1] * 9),
            lambda g: loop_modular_homomorphism_report(g, [1] * 9),
        ),
        (
            lambda g: verify_left_invariance(g, GroupoidMeasure.counting(g)),
            lambda g: loop_left_invariance(g, GroupoidMeasure.counting(g)),
        ),
        (
            lambda g: verify_right_invariance(g, GroupoidMeasure.counting(g)),
            lambda g: loop_right_invariance(g, GroupoidMeasure.counting(g)),
        ),
    ],
    ids=["modular_homomorphism_report", "verify_left_invariance", "verify_right_invariance"],
)
def test_missing_composite_raises_at_the_loops_pair(new, ref):
    g = _pair3_missing(*MISSING)
    with pytest.raises(NotComposableError) as want:
        ref(g)
    with pytest.raises(NotComposableError) as got:
        new(g)
    assert str(got.value) == str(want.value)


def test_missing_pair_order_differs_between_checks():
    g = _pair3_missing(*MISSING)
    messages = set()
    for check in (
        lambda: modular_homomorphism_report(g, [1] * 9),
        lambda: verify_left_invariance(g, GroupoidMeasure.counting(g)),
    ):
        with pytest.raises(NotComposableError) as err:
            check()
        messages.add(str(err.value))
    assert len(messages) == 2


def test_composable_arrays():
    g = Symmetroid(pair_groupoid(2)).vertical
    b, a, ba = g.composable_arrays()
    assert list(zip(b.tolist(), a.tolist())) == list(g.composable_pairs())
    assert ba.tolist() == [g.compose(x, y) for x, y in g.composable_pairs()]
    assert g.composable_arrays()[0] is b
    with pytest.raises(ValueError):
        b[0] = 1
    assert _pair3_missing((6, 0)).composable_arrays()[2].tolist().count(-1) == 1


# -- the counting measure stays exact --


def _fractions(rng, size):
    pairs = zip(rng.integers(-5, 6, size=size), rng.integers(1, 6, size=size))
    return [Fraction(int(p), int(q)) for p, q in pairs]


def test_counting_measure_keeps_fractions_exact():
    g = pair_groupoid(2)
    m = GroupoidMeasure.counting(g)
    assert [type(m.nu_target(a)) for a in g.morphisms()] == [int] * 4
    assert type(m.delta(1)) is int and type(m.nu_source(1)) is int
    rng = np.random.default_rng(3)
    f, h = (AlgebraElement(g, _fractions(rng, 4)) for _ in range(2))
    for out in (convolve(f, h, m), involute(f, m)):
        assert all(type(v) is Fraction for v in out.values)
    sym = Symmetroid(g)
    m2 = induce_measure(sym, m)
    f2, h2 = (SymFunction(sym, _fractions(rng, len(sym))) for _ in range(2))
    assert all(type(v) is Fraction for v in convolve_general(f2, h2, m2).values)


def test_int_division_stays_exact():
    g = pair_groupoid(2)
    m = GroupoidMeasure(g, [2, 3, 4, 6], [2, 3])
    assert [m.nu_target(a) for a in g.morphisms()] == [1, Fraction(3, 2), Fraction(4, 3), 2]
    assert [type(m.nu_target(a)) for a in g.morphisms()] == [int, Fraction, Fraction, int]
    assert m.delta(1) == Fraction(3, 4)


def test_complex_values_see_float_weights():
    """Under int weights whose ratios are Fractions, complex functions give
    exactly what the same weights as floats give."""
    n = 3
    g = pair_groupoid(n)
    weights, objects = [k % 3 + 1 for k in range(n * n)], [2, 3, 1]
    m = GroupoidMeasure(g, weights, objects)
    mf = GroupoidMeasure(g, [float(w) for w in weights], [float(o) for o in objects])
    assert Fraction in {type(m.nu_target(a)) for a in g.morphisms()}
    rng = np.random.default_rng(4)
    f, h = (AlgebraElement(g, list(rng.normal(size=n * n) + 1j * rng.normal(size=n * n))) for _ in range(2))
    _same(convolve(f, h, m).values, convolve(f, h, mf).values)
    _same(involute(f, m).values, involute(f, mf).values)
    assert np.array_equal(left_regular_matrix(f, m), left_regular_matrix(f, mf))
    qm, qmf = QuotientMeasure(m), QuotientMeasure(mf)
    k, k2 = (QuotientFunction(n, list(rng.normal(size=n**4) + 1j * rng.normal(size=n**4))) for _ in range(2))
    _same(convolve_S(k, k2, qm).values, convolve_S(k, k2, qmf).values)
    _same(involute_S(k, qm).values, involute_S(k, qmf).values)


def test_involute_S_keeps_int_kernels_exact():
    n = 2
    rng = np.random.default_rng(6)
    f = QuotientFunction(n, [int(v) for v in rng.integers(-4, 5, size=n**4)])
    counting = GroupoidMeasure.counting(pair_groupoid(n))
    assert all(type(v) is int for v in involute_S(f, QuotientMeasure(counting)).values)
    m = GroupoidMeasure(pair_groupoid(n), [1, 2, 3, 1], [1, 1])
    out = involute_S(f, QuotientMeasure(m)).values
    t = _tensor(f.values, n).transpose(1, 0, 3, 2)
    dl = np.array([Fraction(v) for v in m.deltas], dtype=object).reshape(n, n)
    assert out == (t / (dl[:, :, None, None] * dl.T)).reshape(-1).tolist()
    assert {type(v) for v in out} <= {int, Fraction}


# -- exact contractions against the einsum formulas they replaced --


def _tensor(values, n):
    return value_array(values).reshape((n,) * 4)


def einsum_from_kraus(members, n):
    v = value_array([x for member in members for x in member]).reshape(-1, n, n)
    return np.einsum("pzy,pwx->zyxw", v, np.conj(v)).reshape(-1).tolist()


def einsum_apply(kernel, psi, n):
    out = np.einsum("lrsm,rs->lm", _tensor(kernel, n), value_array(psi).reshape(n, n))
    return out.reshape(-1).tolist()


def einsum_convolve_S(f, h, qm, n):
    t = _tensor(f, n)
    if qm is not None:
        nu = value_array(qm.base.nu_targets).reshape(n, n)
        t = t * nu[:, :, None, None] * nu.T
    return np.einsum("lrsm,rjks->ljkm", t, _tensor(h, n)).reshape(-1).tolist()


def _same(new, ref):
    assert new == ref
    assert [type(v) for v in new] == [type(v) for v in ref]


def _draw(kind, rng, size):
    if kind == "int":
        return [int(v) for v in rng.integers(-4, 5, size=size)]
    return [v if v else Fraction(1, 7) for v in _fractions(rng, size)]


@pytest.mark.parametrize("kind,want", [("int", int), ("fraction", Fraction)])
def test_exact_contractions_match_einsum(kind, want):
    rng = np.random.default_rng(5)
    n = 3
    g = pair_groupoid(n)
    members = [_draw(kind, rng, n * n) for _ in range(3)]
    ch = from_kraus(KrausFamily(n, [AlgebraElement(g, v) for v in members]))
    _same(ch.kernel.values, einsum_from_kraus(members, n))
    psi = _draw(kind, rng, n * n)
    _same(apply(ch, AlgebraElement(g, psi)).values, einsum_apply(ch.kernel.values, psi, n))
    f, h = _draw(kind, rng, n**4), _draw(kind, rng, n**4)
    int_weights = GroupoidMeasure(g, [2] * 9, [1] * 3)  # ν = 2: an int-only weighted base
    for qm in (
        None,
        QuotientMeasure(GroupoidMeasure.counting(g)),
        QuotientMeasure(int_weights),
        QuotientMeasure(weighted_pair_measure(g, (Fraction(1, 3), 2, Fraction(5, 2)))),
    ):
        out = convolve_S(QuotientFunction(n, f), QuotientFunction(n, h), qm).values
        assert out == einsum_convolve_S(f, h, qm, n)
        exact_weights = qm is None or all(type(v) is int for v in qm.base.nu_targets)
        assert all(type(v) is (want if exact_weights else Fraction) for v in out)
        if exact_weights:
            _same(out, einsum_convolve_S(f, h, qm, n))


def test_mixed_int_fraction_contraction_gives_fractions():
    """Any Fraction operand makes every output a Fraction, also an output all
    of whose terms are ints (an int under the plain object einsum)."""
    n = 2
    g = pair_groupoid(n)
    members = [[1, 2, 3, 4], [Fraction(1, 2), 0, 0, 0]]
    ch = from_kraus(KrausFamily(n, [AlgebraElement(g, v) for v in members]))
    ref = einsum_from_kraus(members, n)
    assert ch.kernel.values == ref
    assert all(type(v) is Fraction for v in ch.kernel.values)
    assert int in {type(v) for v in ref}
    psi = [1, 0, 0, 1]
    out = apply(ch, AlgebraElement(g, psi)).values
    assert out == einsum_apply(ch.kernel.values, psi, n)
    assert all(type(v) is Fraction for v in out)


def test_complex_contractions_unchanged():
    rng = np.random.default_rng(9)
    n = 3
    g = pair_groupoid(n)
    members = [list(rng.normal(size=n * n) + 1j * rng.normal(size=n * n)) for _ in range(2)]
    ch = from_kraus(KrausFamily(n, [AlgebraElement(g, v) for v in members]))
    assert ch.kernel.values == einsum_from_kraus(members, n)
    psi = list(rng.normal(size=n * n) + 0j)
    assert apply(ch, AlgebraElement(g, psi)).values == einsum_apply(ch.kernel.values, psi, n)
    f, h = (list(rng.normal(size=n**4) + 1j * rng.normal(size=n**4)) for _ in range(2))
    weighted = QuotientMeasure(weighted_pair_measure(g, (0.5, 2.0, 3.0)))
    for qm in (None, QuotientMeasure(GroupoidMeasure.counting(g)), weighted):
        out = convolve_S(QuotientFunction(n, f), QuotientFunction(n, h), qm).values
        _same(out, einsum_convolve_S(f, h, qm, n))


# -- the exact-type gate and the Fraction-free kernels --


class _Half(Fraction):
    """A Fraction subclass: Rational, but not a Fraction by type."""


@pytest.mark.parametrize(
    "v,exact",
    [
        (3, True),
        (Fraction(1, 3), True),
        (np.int64(3), True),
        (True, True),
        (_Half(1, 2), True),
        (0.5, False),
        (np.float64(0.5), False),
        (1j, False),
    ],
    ids=repr,
)
def test_exact_gate_classifies_values_as_the_abc_does(v, exact):
    """``_is_exact`` tests the type before the ABC; the three gates on it keep
    the ``isinstance(v, Rational)`` rule."""
    assert isinstance(v, Rational) is exact
    assert _is_exact([v], [1]) is exact
    assert value_array([v, 1]).dtype == (object if exact else np.complex128)
    half = np.array([Fraction(1, 2)], dtype=object)
    out = contract("i,i->i", np.array([v], dtype=object), half)
    assert (type(out[0]) is Fraction) is exact


FRACTION_OPERATORS = ("__add__", "__radd__", "__mul__", "__rmul__", "__sub__", "__truediv__")


def fraction_operator_calls(op) -> int:
    """The number of Fraction arithmetic operator calls that op() makes."""
    calls = []

    def counted(name):
        original = getattr(Fraction, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        return wrapper

    with mock.patch.multiple(Fraction, **{name: counted(name) for name in FRACTION_OPERATORS}):
        op()
    return len(calls)


def test_exact_kernels_make_no_fraction_arithmetic():
    assert fraction_operator_calls(lambda: 1 + Fraction(1, 2) * 3) == 2  # the counters count
    rng = np.random.default_rng(15)
    g = pair_groupoid(4)
    m = weighted_pair_measure(g, (Fraction(1, 2), 1, Fraction(3), Fraction(2, 5)))
    f, h = (AlgebraElement(g, _fractions(rng, 16)) for _ in range(2))
    assert fraction_operator_calls(lambda: convolve(f, h, m)) == 0
    # the measure tables and every exact check, on the same Fraction measure
    sym = Symmetroid(g)
    m2 = induce_measure(sym, m)
    fs = [dict(zip(sym.transformations, _fractions(rng, len(sym)))) for _ in range(2)]
    checks = {
        "GroupoidMeasure": lambda: GroupoidMeasure(g, m.weights, m.object_weights),
        "induce_measure": lambda: induce_measure(sym, m),
        "verify_disintegration": lambda: verify_disintegration(g, m),
        "verify_left_invariance": lambda: verify_left_invariance(g, m),
        "verify_inverse_relation": lambda: verify_inverse_relation(g, m),
        "modular": lambda: modular(g, m),
        "verify_modular_formula": lambda: verify_modular_formula(m2, fs),
        "verify_modular_homomorphism": lambda: verify_modular_homomorphism(m2),
        "verify_induced_equivariance": lambda: verify_induced_equivariance(m2),
    }
    assert all(type(v) is Fraction for v in m.weights + m.object_weights)
    assert {name: fraction_operator_calls(op) for name, op in checks.items()} == dict.fromkeys(checks, 0)
    g3 = pair_groupoid(3)
    qm = QuotientMeasure(weighted_pair_measure(g3, (Fraction(1, 3), 2, Fraction(5, 2))))
    k, k2 = (QuotientFunction(3, _fractions(rng, 81)) for _ in range(2))
    assert fraction_operator_calls(lambda: convolve_S(k, k2, qm)) == 0


def fractions_built(op) -> int:
    """The number of ``Fraction.__new__`` calls that op() makes."""
    calls = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        calls.append(cls)
        return new(cls, *args, **kwargs)

    with mock.patch.object(Fraction, "__new__", counted):
        op()
    return len(calls)


def test_exact_tables_and_checks_build_no_needless_fraction():
    assert fractions_built(lambda: Fraction(1, 2) * 3) == 2  # the counter counts
    g = pair_groupoid(4)
    m = weighted_pair_measure(g, (Fraction(1, 2), 1, Fraction(3), Fraction(2, 5)))
    # the weights exist; δ is built, ν only on first read
    fresh = []
    assert fractions_built(lambda: fresh.append(GroupoidMeasure(g, m.weights, m.object_weights))) == 16
    base = fresh[0]
    # μ₂ and Δ₂ per transformation and the object weights per base morphism
    sym = Symmetroid(g)
    assert fractions_built(lambda: fresh.append(induce_measure(sym, base))) == 256 + 256 + 16
    m2 = fresh[1]
    unimodular = GroupoidMeasure.counting(g).with_exact()
    checks = {
        "verify_left_invariance": lambda: verify_left_invariance(g, base),
        "verify_right_invariance": lambda: verify_right_invariance(g, unimodular),
        "verify_inverse_relation": lambda: verify_inverse_relation(g, base),
        "verify_disintegration": lambda: verify_disintegration(g, base),
        "modular": lambda: modular_homomorphism_report(g, base.deltas),
        "verify_induced_equivariance": lambda: verify_induced_equivariance(m2),
        "verify_modular_formula": lambda: verify_modular_formula(m2),
        "verify_modular_homomorphism": lambda: verify_modular_homomorphism(m2),
    }
    assert all(op().ok for op in checks.values())
    assert fractions_built(lambda: modular(g, base)) == 0
    assert {name: fractions_built(op) for name, op in checks.items()} == dict.fromkeys(checks, 0)
    assert fractions_built(lambda: base.nu_targets) == 16
    assert fractions_built(lambda: base.nu_sources) == 16
    assert base.nu_targets == m.nu_targets and base.nu_sources == m.nu_sources
    assert fractions_built(lambda: m2.measure.nu_targets) == 256


def loop_involute(f, m):
    """δ(α⁻¹)·conj(f(α⁻¹)) per entry, as Python arithmetic on the values."""
    inverse = m.groupoid.inverse
    return [m.deltas[inverse[a]] * f.values[inverse[a]].conjugate() for a in m.groupoid.morphisms()]


def loop_left_regular_matrix(f, m):
    """f(β)·ν(β) at (β∘γ, γ) per composable pair, each product cast to complex."""
    g = m.groupoid
    mat = np.zeros((g.n_morphisms,) * 2, dtype=np.complex128)
    for b, a in g.composable_pairs():
        if f.values[b] != 0:
            mat[g.compose(b, a), a] = complex(f.values[b] * m.nu_targets[b])
    return mat


def test_involute_and_left_regular_matrix_match_per_entry_arithmetic():
    g = pair_groupoid(3)
    rng = np.random.default_rng(21)
    bases = {
        "fraction": weighted_pair_measure(g, (Fraction(1, 3), 2, Fraction(5, 7))),
        "int": GroupoidMeasure(g, [2, 3, 4, 6, 1, 5, 7, 2, 3], [2, 3, 1]),
        "counting": GroupoidMeasure.counting(g),
    }
    values = {
        "fraction": _fractions(rng, 9),
        "int": [int(v) for v in rng.integers(-4, 5, size=9)],
        "mixed": [Fraction(1, 3), 2, 0, Fraction(-5, 2), 1, 0, 3, Fraction(7, 9), -1],
        "big": [Fraction(3**50 + k, 2**70 + 1) for k in range(9)],
    }
    for m in bases.values():
        for vs in values.values():
            f = AlgebraElement(g, vs)
            _same(involute(f, m).values, loop_involute(f, m))
            got, want = left_regular_matrix(f, m), loop_left_regular_matrix(f, m)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
