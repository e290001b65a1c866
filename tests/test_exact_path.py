"""The gathered verifiers and the exact contractions against the loops and
formulas they replaced.

The references are the per-check loops of ``oracles`` that the measure and
symmetroid verifiers used before they became gathers over composable-pair
arrays; the reports must agree check for check and violation for violation.
"""

from fractions import Fraction
from numbers import Rational
from unittest import mock

import numpy as np
import pytest
from oracles import (
    GROUPOIDS,
    TOL,
    assert_parity,
    assert_same_report,
    assert_same_values,
    cases,
    einsum_apply,
    einsum_convolve_S,
    einsum_from_kraus,
    fractions,
    loop_inverse_relation,
    loop_left_invariance,
    loop_modular_atoms,
    loop_modular_homomorphism_report,
    loop_right_invariance,
    measure,
    nonzero_fractions,
    pair3_missing,
    perturbed,
    value_lists,
    with_tables,
)

from groupoidqm import (
    AlgebraElement,
    GroupoidMeasure,
    KrausFamily,
    NotComposableError,
    QuotientFunction,
    QuotientMeasure,
    Symmetroid,
    apply,
    convolve,
    convolve_S,
    from_kraus,
    induce_measure,
    involute,
    involute_S,
    left_regular_matrix,
    modular,
    modular_homomorphism_report,
    pair_groupoid,
    rep_operator,
    verify_disintegration,
    verify_induced_equivariance,
    verify_inverse_relation,
    verify_left_invariance,
    verify_modular_formula,
    verify_modular_homomorphism,
    verify_right_invariance,
    weighted_pair_measure,
)
from groupoidqm import measure as measure_module
from groupoidqm.algebra import contract, value_array
from groupoidqm.measure import _is_exact, _Table
from groupoidqm.symalgebra import SymmetroidMeasure

NAMES = (
    "pair2", "pair3", "pair4", "z3", "two-component", "product", "product-z3", "vertical2", "vertical3",
)
KINDS = (
    "counting-int", "counting-fraction", "int", "fraction", "float", "fraction-near-tol",
    "float-near-tol", "mixed", "float-fraction", "weighted-fraction", "weighted-float",
)
CASES = cases(NAMES, KINDS)


@pytest.mark.parametrize("tol", [TOL, 0.0])
@pytest.mark.parametrize("gname,mname", CASES)
def test_measure_verifiers_match_loops(gname, mname, tol):
    g = GROUPOIDS[gname]()
    m = measure(g, mname)
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
    assert not loop_left_invariance(g, measure(g, "int")).ok
    assert not loop_right_invariance(g, measure(g, "float")).ok
    assert not loop_inverse_relation(g, measure(g, "float"), 0.0).ok  # rounding, caught at tol 0
    near = measure(g, "fraction-near-tol")
    rep = verify_left_invariance(g, near)
    # the 1e-14 change passes, the 1e-6 change fails
    assert rep.violations and all(v.magnitude > 1e-7 for v in rep.violations)


HOMOMORPHISM_KINDS = (
    "int", "fraction", "float", "complex", "complex-character", "fraction-near-tol", "int-fraction-float",
)


@pytest.mark.parametrize("tol", [TOL, 0.0, -1.0])
@pytest.mark.parametrize("gname", NAMES)
def test_modular_homomorphism_values_match_loop(gname, tol):
    g = GROUPOIDS[gname]()
    for values in map(value_lists(g, 7).get, HOMOMORPHISM_KINDS):
        new = modular_homomorphism_report(g, values, tol)
        assert_same_report(new, loop_modular_homomorphism_report(g, values, tol))


def test_exact_values_near_the_tolerance():
    g = pair_groupoid(2)
    ones = [Fraction(1)] * 4
    assert modular_homomorphism_report(g, perturbed(ones, Fraction(1, 10**13), 0)).ok
    rep = modular_homomorphism_report(g, perturbed(ones, 0, Fraction(1, 10**11)))
    assert not rep.ok and rep.violations == loop_modular_homomorphism_report(
        g, perturbed(ones, 0, Fraction(1, 10**11))
    ).violations


@pytest.mark.parametrize("n", [2, 3])
def test_symmetroid_checks_match_loops(n):
    g = pair_groupoid(n)
    sym = Symmetroid(g)
    for kind in ("weighted-fraction", "weighted-float", "counting", "fraction", "float"):
        base = measure(g, kind)
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
    m2 = SymmetroidMeasure(sym, measure(g, "weighted-fraction"))
    ts = sym.transformations
    deltas = list(m2.measure.deltas)
    deltas[1] += Fraction(1, 10**14)
    deltas[2] += Fraction(1, 10**6)
    m2 = with_tables(m2, deltas=deltas)
    rep = verify_modular_formula(m2)
    assert [v.where for v in rep.violations] == [(ts[2],)]
    assert_same_report(rep, loop_modular_atoms(m2))


# -- malformed tables --


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
    g = pair3_missing(*MISSING)
    with pytest.raises(NotComposableError) as want:
        ref(g)
    with pytest.raises(NotComposableError) as got:
        new(g)
    assert str(got.value) == str(want.value)


def test_missing_pair_order_differs_between_checks():
    g = pair3_missing(*MISSING)
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
    assert pair3_missing((6, 0)).composable_arrays()[2].tolist().count(-1) == 1


# -- the counting measure stays exact --


def test_counting_measure_keeps_fractions_exact():
    g = pair_groupoid(2)
    m = GroupoidMeasure.counting(g)
    assert [type(m.nu_target(a)) for a in g.morphisms()] == [int] * 4
    assert type(m.delta(1)) is int and type(m.nu_source(1)) is int
    rng = np.random.default_rng(3)
    f, h = (AlgebraElement(g, fractions(rng, 4)) for _ in range(2))
    for out in (convolve(f, h, m), involute(f, m)):
        assert all(type(v) is Fraction for v in out.values)
    sym = Symmetroid(g)
    m2 = induce_measure(sym, m)
    f2, h2 = (AlgebraElement(sym.vertical, fractions(rng, len(sym))) for _ in range(2))
    assert all(type(v) is Fraction for v in convolve(f2, h2, m2.measure).values)


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
    assert_same_values(convolve(f, h, m).values, convolve(f, h, mf).values)
    assert_same_values(involute(f, m).values, involute(f, mf).values)
    assert np.array_equal(left_regular_matrix(f, m), left_regular_matrix(f, mf))
    qm, qmf = QuotientMeasure(m), QuotientMeasure(mf)
    k, k2 = (QuotientFunction(n, list(rng.normal(size=n**4) + 1j * rng.normal(size=n**4))) for _ in range(2))
    assert_same_values(convolve_S(k, k2, qm).values, convolve_S(k, k2, qmf).values)
    assert_same_values(involute_S(k, qm).values, involute_S(k, qmf).values)


def test_involute_S_keeps_int_kernels_exact():
    n = 2
    rng = np.random.default_rng(6)
    f = QuotientFunction(n, [int(v) for v in rng.integers(-4, 5, size=n**4)])
    counting = GroupoidMeasure.counting(pair_groupoid(n))
    assert all(type(v) is int for v in involute_S(f, QuotientMeasure(counting)).values)
    m = GroupoidMeasure(pair_groupoid(n), [1, 2, 3, 1], [1, 1])
    out = involute_S(f, QuotientMeasure(m)).values
    t = value_array(f.values).reshape((n,) * 4).transpose(1, 0, 3, 2)
    dl = np.array([Fraction(v) for v in m.deltas], dtype=object).reshape(n, n)
    assert out == tuple((t / (dl[:, :, None, None] * dl.T)).reshape(-1).tolist())
    assert {type(v) for v in out} <= {int, Fraction}


# -- exact contractions against the einsum formulas they replaced --


def _draw(kind, rng, size):
    if kind == "int":
        return [int(v) for v in rng.integers(-4, 5, size=size)]
    return [v if v else Fraction(1, 7) for v in fractions(rng, size)]


@pytest.mark.parametrize("kind,want", [("int", int), ("fraction", Fraction)])
def test_exact_contractions_match_einsum(kind, want):
    rng = np.random.default_rng(5)
    n = 3
    g = pair_groupoid(n)
    members = [_draw(kind, rng, n * n) for _ in range(3)]
    ch = from_kraus(KrausFamily(n, [AlgebraElement(g, v) for v in members]))
    assert_same_values(ch.kernel.values, einsum_from_kraus(members, n))
    psi = _draw(kind, rng, n * n)
    assert_same_values(apply(ch, AlgebraElement(g, psi)).values, einsum_apply(ch.kernel.values, psi, n))
    f, h = _draw(kind, rng, n**4), _draw(kind, rng, n**4)
    int_weights = GroupoidMeasure(g, [2] * 9, [1] * 3)  # ν = 2: an int-only weighted base
    for qm in (
        None,
        QuotientMeasure(GroupoidMeasure.counting(g)),
        QuotientMeasure(int_weights),
        QuotientMeasure(weighted_pair_measure(g, (Fraction(1, 3), 2, Fraction(5, 2)))),
    ):
        out = convolve_S(QuotientFunction(n, f), QuotientFunction(n, h), qm).values
        ref = einsum_convolve_S(f, h, qm, n)[0]
        assert out == tuple(ref)
        exact_weights = qm is None or all(type(v) is int for v in qm.base.nu_targets)
        assert all(type(v) is (want if exact_weights else Fraction) for v in out)
        if exact_weights:
            assert_same_values(out, ref)


def test_mixed_int_fraction_contraction_gives_fractions():
    """Any Fraction operand makes every output a Fraction, also an output all
    of whose terms are ints (an int under the plain object einsum)."""
    n = 2
    g = pair_groupoid(n)
    members = [[1, 2, 3, 4], [Fraction(1, 2), 0, 0, 0]]
    ch = from_kraus(KrausFamily(n, [AlgebraElement(g, v) for v in members]))
    ref = einsum_from_kraus(members, n)
    assert ch.kernel.values == tuple(ref)
    assert all(type(v) is Fraction for v in ch.kernel.values)
    assert int in {type(v) for v in ref}
    psi = [1, 0, 0, 1]
    out = apply(ch, AlgebraElement(g, psi)).values
    assert out == tuple(einsum_apply(ch.kernel.values, psi, n))
    assert all(type(v) is Fraction for v in out)


def test_complex_contractions_unchanged():
    rng = np.random.default_rng(9)
    n = 3
    g = pair_groupoid(n)
    members = [list(rng.normal(size=n * n) + 1j * rng.normal(size=n * n)) for _ in range(2)]
    ch = from_kraus(KrausFamily(n, [AlgebraElement(g, v) for v in members]))
    assert ch.kernel.values == tuple(einsum_from_kraus(members, n))
    psi = list(rng.normal(size=n * n) + 0j)
    assert apply(ch, AlgebraElement(g, psi)).values == tuple(einsum_apply(ch.kernel.values, psi, n))
    f, h = (list(rng.normal(size=n**4) + 1j * rng.normal(size=n**4)) for _ in range(2))
    weighted = QuotientMeasure(weighted_pair_measure(g, (0.5, 2.0, 3.0)))
    for qm in (None, QuotientMeasure(GroupoidMeasure.counting(g)), weighted):
        out = convolve_S(QuotientFunction(n, f), QuotientFunction(n, h), qm).values
        ref, magnitudes = einsum_convolve_S(f, h, qm, n)
        assert_parity(out, ref, False, magnitudes)


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
    # the exact kernels take ints and Fractions by type, a flag each table records once
    assert _Table([1, v]).plain is (type(v) in (int, Fraction))
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
    f, h = (AlgebraElement(g, fractions(rng, 16)) for _ in range(2))
    assert fraction_operator_calls(lambda: convolve(f, h, m)) == 0
    # the measure tables and every exact check, on the same Fraction measure
    sym = Symmetroid(g)
    m2 = induce_measure(sym, m)
    fs = [dict(zip(sym.transformations, fractions(rng, len(sym)))) for _ in range(2)]
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
    k, k2 = (QuotientFunction(3, fractions(rng, 81)) for _ in range(2))
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
    # the weights exist, and a constructor builds no table until it is read
    fresh, weights, object_weights = [], m.weights, m.object_weights
    assert fractions_built(lambda: fresh.append(GroupoidMeasure(g, weights, object_weights))) == 0
    base = fresh[0]
    sym = Symmetroid(g)
    # the Haar checks read the base's tables in integer form only
    assert fractions_built(lambda: fresh.append(induce_measure(sym, base))) == 0
    m2 = fresh[1]
    # μ₂ and Δ₂ per transformation and the object weights per base morphism
    assert fractions_built(lambda: m2.measure.weights) == 256
    assert fractions_built(lambda: m2.measure.deltas) == 256
    assert fractions_built(lambda: m2.measure.object_weights) == 16
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
    # the quotient's measure is S(pair(3))'s, built from the base's integer
    # form; an exact convolve_S output builds its Fractions when read
    g3 = pair_groupoid(3)
    base3 = weighted_pair_measure(g3, (Fraction(1, 3), 2, Fraction(5, 2)))
    assert fractions_built(lambda: fresh.append(QuotientMeasure(base3))) == 0
    rng = np.random.default_rng(11)
    k, k2 = (QuotientFunction(3, fractions(rng, 81)) for _ in range(2))
    assert fractions_built(lambda: fresh.append(convolve_S(k, k2, fresh[2]))) == 0
    assert 0 < fractions_built(lambda: fresh[3].values) <= 81


# -- exact inputs are parsed into integer form once, by the first kernel that reads them --


def parses(op) -> int:
    """The number of value lists that op() parses into integer form (``measure._parts`` calls)."""
    calls = []
    parts = measure_module._parts

    def counted(values):
        calls.append(len(values))
        return parts(values)

    with mock.patch.object(measure_module, "_parts", counted):
        op()
    return len(calls)


def test_an_exact_identities_op_parses_each_exact_input_once():
    rng = np.random.default_rng(23)
    made = {}

    def make():
        made["m"] = weighted_pair_measure(pair_groupoid(4), (Fraction(1, 2), 1, Fraction(4), Fraction(1, 8)))
        made["fhkab"] = [AlgebraElement(pair_groupoid(4), nonzero_fractions(rng, 16, k > 2)) for k in range(5)]
        made["qm3"] = QuotientMeasure(weighted_pair_measure(pair_groupoid(3), (Fraction(1, 3), 2, Fraction(5, 2))))
        made["q"] = [QuotientFunction(3, nonzero_fractions(rng, 81)) for _ in range(3)]
        made["qm2"] = QuotientMeasure(weighted_pair_measure(pair_groupoid(2), (Fraction(1, 2), 4)))
        made["r"] = [QuotientFunction(2, nonzero_fractions(rng, 16, dyadic=True)) for _ in range(2)]

    assert parses(make) == 3  # the weight lists; a function is parsed by the first kernel that reads it

    def op():
        m, (f, h, k, a, b), (q1, q2, q3), (r1, r2) = made["m"], made["fhkab"], made["q"], made["r"]
        fh = convolve(f, h, m)
        assert convolve(fh, k, m) == convolve(f, convolve(h, k, m), m)
        assert involute(fh, m) == convolve(involute(h, m), involute(f, m), m)
        ab = convolve(a, b, m)
        assert np.array_equal(left_regular_matrix(ab, m), left_regular_matrix(a, m) @ left_regular_matrix(b, m))
        qm3, qm2 = made["qm3"], made["qm2"]
        assert convolve_S(convolve_S(q1, q2, qm3), q3, qm3) == convolve_S(q1, convolve_S(q2, q3, qm3), qm3)
        r12 = convolve_S(r1, r2, qm2)
        assert np.array_equal(rep_operator(r12, qm2), rep_operator(r1, qm2) @ rep_operator(r2, qm2))

    assert parses(op) == 5 + 3 + 2  # each function once, though f, h and q2 are read twice
    assert parses(op) == 0  # == reads only outputs; the inputs keep their integer forms


def test_exports_of_an_exact_element_keep_its_integer_form():
    rng = np.random.default_rng(24)
    n = 2
    qm = QuotientMeasure(weighted_pair_measure(pair_groupoid(n), (Fraction(1, 2), 3)))
    q, q2 = (QuotientFunction(n, nonzero_fractions(rng, n**4)) for _ in range(2))
    assert parses(lambda: q.tensor() is not None and q.to_json()) == 0  # read as given
    out = convolve_S(q, q2, qm)
    for f in (q, out):
        f.tensor()
        f.to_json()
        assert type(f.values) is tuple  # a read keeps the form too
    assert parses(lambda: (convolve_S(q, out, qm), involute_S(out, qm), rep_operator(q, qm))) == 0
    g = pair_groupoid(3)
    f, counting = AlgebraElement(g, nonzero_fractions(rng, 9)), GroupoidMeasure.counting(g)
    assert parses(lambda: convolve(f, f, counting)) == 1
    f.to_json()
    f.values  # read, and the integer form kept
    assert parses(lambda: (convolve(f, f, counting), involute(f, counting))) == 0


def test_editing_the_callers_list_after_construction_changes_nothing():
    rng = np.random.default_rng(26)
    g = pair_groupoid(3)
    m = weighted_pair_measure(g, (Fraction(1, 3), 2, Fraction(5, 2)))
    values, h = nonzero_fractions(rng, 9), AlgebraElement(g, nonzero_fractions(rng, 9))
    kept = list(values)
    f = AlgebraElement(g, values)
    values[2] = Fraction(99)
    assert_same_values(convolve(f, h, m).values, convolve(AlgebraElement(g, kept), h, m).values)
    assert f.values == tuple(kept) and f.values is not values
    qvalues = nonzero_fractions(rng, 16)
    q = QuotientFunction(2, qvalues)
    qkept = list(qvalues)
    qvalues[0] = 1
    assert_same_values(involute_S(q).values, involute_S(QuotientFunction(2, qkept)).values)


# -- exact outputs stay in integer form until read --


def _nonzero_fractions(rng, size):
    return _draw("fraction", rng, size)


def test_chained_exact_outputs_build_no_fraction_until_read():
    rng = np.random.default_rng(21)
    g = pair_groupoid(4)
    m = weighted_pair_measure(g, (Fraction(1, 2), 1, Fraction(3), Fraction(2, 5)))
    f, h = (AlgebraElement(g, _nonzero_fractions(rng, 16)) for _ in range(2))
    out = []
    assert fractions_built(lambda: out.append(convolve(involute(f, m), convolve(f, h, m), m))) == 0
    assert fractions_built(lambda: out[0].values) == 16
    assert fractions_built(lambda: out[0].values) == 0  # the tuple is built once
    assert all(type(v) is Fraction for v in out[0].values)
    n = 3
    qm = QuotientMeasure(weighted_pair_measure(pair_groupoid(n), (Fraction(1, 3), 2, Fraction(5, 2))))
    k, k2, k3 = (QuotientFunction(n, _nonzero_fractions(rng, n**4)) for _ in range(3))
    assert fractions_built(lambda: out.append(convolve_S(convolve_S(k, k2, qm), k3, qm))) == 0
    assert fractions_built(lambda: involute_S(out[1], qm)) == 0
    assert fractions_built(lambda: out[1].values) == n**4
    assert all(type(v) is Fraction for v in out[1].values)


CHAIN_NAMES = ("pair2", "pair3", "z3", "two-component", "product-z3", "vertical2")
CHAIN_CASES = cases(CHAIN_NAMES, ("counting", "int", "fraction", "float", "weighted-fraction"))


def _read(h):
    """h made afresh from its values, as a caller that reads them would make it."""
    return AlgebraElement(h.groupoid, h.values)


@pytest.mark.parametrize("gname,mname", CHAIN_CASES)
def test_chained_results_equal_the_path_that_reads_between_calls(gname, mname):
    g = GROUPOIDS[gname]()
    m = measure(g, mname)
    fs, hs = value_lists(g, 5), value_lists(g, 6)
    for fkind, hkind in zip(fs, list(hs)[1:] + list(hs)[:1]):
        f, h = AlgebraElement(g, fs[fkind]), AlgebraElement(g, hs[hkind])
        chained = convolve(involute(f, m), convolve(f, h, m), m)
        read = convolve(_read(involute(f, m)), _read(convolve(f, h, m)), m)
        assert_same_values(chained.values, read.values)
        assert_same_values(involute(convolve(h, f, m), m).values, involute(_read(convolve(h, f, m)), m).values)
        mat, ref = left_regular_matrix(convolve(f, h, m), m), left_regular_matrix(_read(convolve(f, h, m)), m)
        assert mat.tobytes() == ref.tobytes()


@pytest.mark.parametrize("kind", ["counting", "int", "fraction", "float", "weighted-fraction"])
def test_chained_quotient_results_equal_the_path_that_reads_between_calls(kind):
    n = 2
    qm = QuotientMeasure(measure(pair_groupoid(n), kind))
    vertical = GROUPOIDS["vertical2"]()  # n⁴ = 16 morphisms, one value list per kind
    fs, hs = value_lists(vertical, 7), value_lists(vertical, 8)
    for fkind, hkind in zip(fs, list(hs)[1:] + list(hs)[:1]):
        f, h = QuotientFunction(n, fs[fkind]), QuotientFunction(n, hs[hkind])
        chained = convolve_S(convolve_S(f, h, qm), involute_S(f, qm), qm)
        read = convolve_S(
            QuotientFunction(n, convolve_S(f, h, qm).values), QuotientFunction(n, involute_S(f, qm).values), qm
        )
        assert_same_values(chained.values, read.values)
        mat = rep_operator(convolve_S(f, h, qm), qm)
        assert mat.tobytes() == rep_operator(QuotientFunction(n, convolve_S(f, h, qm).values), qm).tobytes()
