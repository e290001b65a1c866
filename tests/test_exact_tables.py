"""Exact measure tables and sum checks against the per-entry formulas and loops
they replaced.

``GroupoidMeasure`` builds ν^x, ν_x and δ of Fraction weights from integer
numerators and denominators, each on its first read and from the weights it
was made with, and ``SymmetroidMeasure`` builds μ₂ and its object weights as
gathered products.  ``verify_disintegration`` and the sum
checks of ``verify_modular_formula`` decide exact sums on integer numerators.
Every table must match the old formula in value and in type, and every report
the old loop check for check and violation for violation.  Δ₂ is the vertical
measure's ``deltas``, which equals the old product δ(α)·δ(γ) in value on
exact bases and within 2 ulp on float ones.
"""

from fractions import Fraction

import numpy as np
import pytest
from oracles import (
    BIG,
    GROUPOIDS,
    assert_delta2_is_the_product,
    assert_same_report,
    assert_same_values,
    cases,
    loop_disintegration,
    loop_modular_formula,
    measure,
    old_symmetroid_measure,
    old_tables,
    weight_grid,
    with_tables,
)

from groupoidqm import (
    GroupoidMeasure,
    QuotientFunction,
    QuotientMeasure,
    Symmetroid,
    convolve_S,
    induce_measure,
    involute_S,
    pair_groupoid,
    rep_operator,
    verify_disintegration,
    verify_induced_equivariance,
    verify_modular_formula,
    verify_modular_homomorphism,
    weighted_pair_measure,
)
from groupoidqm.symalgebra import SymmetroidMeasure

NAMES, KINDS = ("pair3", "z3", "product"), ("counting", "int", "mixed", "fraction", "float", "big")
CASES = cases(NAMES, KINDS)
# the tables also over the Haar family w_j / w_k, which pair3 draws
TABLE_CASES = cases(NAMES, KINDS + ("weighted-fraction", "weighted-float"))
# the ν and δ tables and their per-call reads also on every case of
# test_gather_parity's algebra gathers
GATHER_NAMES = ("pair1", "pair2", "pair4", "two-component", "product-z3", "vertical2")
MEASURE_CASES = TABLE_CASES + cases(GATHER_NAMES, ("counting", "int", "fraction", "float", "weighted-fraction"))


@pytest.mark.parametrize("gname,bname", MEASURE_CASES)
def test_measure_tables_match_per_entry_ratios(gname, bname):
    g = GROUPOIDS[gname]()
    weights, object_weights = weight_grid(g)[bname]
    m = GroupoidMeasure(g, weights, object_weights)
    want = old_tables(g, weights, object_weights)
    for got, ref in zip((m.weights, m.object_weights, m.nu_targets, m.nu_sources, m.deltas), want):
        assert type(got) is tuple
        assert_same_values(got, ref)
    # each per-call read is its table's entry
    for call, table in ((m.nu_target, m.nu_targets), (m.nu_source, m.nu_sources), (m.delta, m.deltas)):
        assert_same_values(map(call, g.morphisms()), table)


@pytest.mark.parametrize("bname", ["int", "mixed", "fraction", "float", "big", "weighted-fraction"])
def test_derived_tables_follow_the_constructors_weights(bname):
    """ν^x, ν_x and δ are derived on first read, from the weights the measure
    was made with, and no table can be assigned."""
    g = pair_groupoid(3)
    weights, object_weights = weight_grid(g)[bname]
    want = old_tables(g, weights, object_weights)[2:]
    made = [GroupoidMeasure(g, weights, object_weights)]
    if bname == "weighted-fraction":
        made.append(weighted_pair_measure(g, object_weights))
    for m in made:
        for name in ("weights", "object_weights", "nu_targets", "nu_sources", "deltas"):
            with pytest.raises(AttributeError):
                setattr(m, name, tuple(2 * w for w in m.weights))
        for got, ref in zip((m.nu_targets, m.nu_sources, m.deltas), want):
            assert_same_values(got, ref)


def test_symmetroid_and_quotient_measures_derive_no_source_fiber_weights():
    """No operation or check of S(G) reads ν_x, so none derives it; a read does."""
    g = pair_groupoid(2)
    base = weighted_pair_measure(g, (Fraction(1, 2), 3))
    m2 = induce_measure(Symmetroid(g), base)
    for check in (verify_induced_equivariance, verify_modular_formula, verify_modular_homomorphism):
        assert check(m2).ok
    qm = QuotientMeasure(base)
    f = QuotientFunction(2, [Fraction(k + 1, 3) for k in range(16)])
    convolve_S(involute_S(f, qm), f, qm)
    rep_operator(f, qm)
    for v in (m2.measure, qm.measure):
        assert "nu_sources" not in v._tables
        want = old_tables(v.groupoid, v.weights, v.object_weights)[3]
        assert_same_values(v.nu_sources, want)


@pytest.mark.parametrize("gname,bname", TABLE_CASES)
def test_symmetroid_measure_matches_per_transformation_products(gname, bname):
    g = GROUPOIDS[gname]()
    base = measure(g, bname)
    sym = Symmetroid(g)
    m2 = SymmetroidMeasure(sym, base)
    mu2, ow2, modular = old_symmetroid_measure(sym, base)
    v = m2.measure
    assert v.groupoid is sym.vertical
    want = old_tables(sym.vertical, mu2, ow2)
    for got, ref in zip((v.weights, v.object_weights, v.nu_targets, v.nu_sources, v.deltas), want):
        assert_same_values(got, ref)
    assert list(m2.weights) == sym.transformations == list(m2.modular)
    assert_same_values(m2.weights.values(), want[0])
    assert_same_values(m2.modular.values(), v.deltas)
    assert_delta2_is_the_product(v.deltas, modular.values())
    assert type(m2.modular) is dict


def test_big_numerators_stay_exact():
    g = pair_groupoid(3)
    w = (Fraction(BIG + 1, 3), Fraction(2 * BIG + 5, 7), Fraction(3, BIG + 11))
    m = weighted_pair_measure(g, w)
    assert m.deltas[1] == (w[0] / w[1]) ** 2 and m.deltas[1].numerator > BIG
    m2 = SymmetroidMeasure(Symmetroid(g), m)
    assert all(type(v) is Fraction for v in m2.modular.values())
    assert verify_modular_formula(m2).ok
    assert verify_disintegration(g, m).ok


# -- the sum checks --


@pytest.mark.parametrize("gname,bname", CASES)
@pytest.mark.parametrize("tol", [1e-12, 0, -1])
def test_disintegration_matches_loop(gname, bname, tol):
    g = GROUPOIDS[gname]()
    m = measure(g, bname)
    ms = g.n_morphisms

    def custom():
        return [[0, 1], range(2, ms), [], (ms - 1,), [2, 2, 0], iter([1, 2]), np.arange(ms)]

    assert_same_report(verify_disintegration(g, m, tol=tol), loop_disintegration(g, m, tol=tol))
    got = verify_disintegration(g, m, (E for E in custom()), tol)
    assert_same_report(got, loop_disintegration(g, m, custom(), tol))


@pytest.mark.parametrize("bname", ["int", "fraction", "big", "float"])
def test_disintegration_violations_match_loop(bname):
    g = pair_groupoid(3)
    m = measure(g, bname)
    nu = list(m.nu_targets)
    nu[4] += Fraction(1, 10**20) if bname != "float" else 1e-15
    nu[7] *= 2
    m = with_tables(m, nu_targets=nu)
    subsets = [list(g.morphisms()), [4], [7], [4, 7], [0, 1], [3, 4, 5]]
    for tol in (0, 1e-12):
        got = verify_disintegration(g, m, subsets, tol)
        assert_same_report(got, loop_disintegration(g, m, subsets, tol))
        assert {v.where for v in got.violations} >= {(7,), (4, 7)}
    assert (4,) in {v.where for v in verify_disintegration(g, m, subsets, 0).violations}


@pytest.mark.parametrize("bname", ["fraction", "float"])
def test_disintegration_rejects_a_float_index(bname):
    # a subset is read through one index array; 1.5 must not become morphism 1
    g = pair_groupoid(3)
    m = measure(g, bname)
    with pytest.raises((TypeError, IndexError)):
        verify_disintegration(g, m, [[0], [1.5]])


def functions(sym, seed):
    """{Transformation: value} dicts: Fraction, int, float and complex values,
    a sparse one, and one with a key that is not a transformation."""
    rng = np.random.default_rng(seed)
    ts = sym.transformations
    k = len(ts)
    fr = [Fraction(int(p), int(q)) for p, q in rng.integers(-4, 5, size=(k, 2)) if q]
    return [
        dict(zip(ts, fr)),
        {t: int(v) for t, v in zip(ts, rng.integers(-3, 4, size=k))},
        {t: float(v) for t, v in zip(ts, rng.normal(size=k))},
        {t: complex(v, 1) for t, v in zip(ts, rng.normal(size=k))},
        {ts[1]: Fraction(1, 3), ts[-1]: 2},
        {ts[0]: 1, (99, 99, 99): Fraction(5)},
    ]


@pytest.mark.parametrize("gname,bname", CASES)
@pytest.mark.parametrize("tol", [1e-12, 0, -1])
def test_modular_sums_match_loop(gname, bname, tol):
    g = GROUPOIDS[gname]()
    m2 = SymmetroidMeasure(Symmetroid(g), measure(g, bname))
    fs = functions(m2.symmetroid, g.n_morphisms)
    got = verify_modular_formula(m2, fs, tol)
    assert_same_report(got, loop_modular_formula(m2, fs, tol))


@pytest.mark.parametrize("bname", ["counting", "fraction", "big", "float"])
def test_modular_sum_violations_match_loop(bname):
    g = pair_groupoid(2)
    sym = Symmetroid(g)
    m2 = SymmetroidMeasure(sym, measure(g, bname))
    ts = sym.transformations
    small = Fraction(1, 10**20) if bname != "float" else 1e-15
    deltas, weights = list(m2.measure.deltas), list(m2.measure.weights)
    deltas[3] += small
    deltas[5] *= 3
    # μ₂ at the inverse of t: the sum over t⁻¹ moves, the sum over t does not
    t = next(t for t in ts[6:] if sym.vertical_inverse(t) != t)
    weights[sym.index[sym.vertical_inverse(t)]] *= 2
    m2 = with_tables(m2, deltas=deltas, weights=weights)
    fs = functions(sym, 1) + [{ts[3]: 1}, {ts[5]: Fraction(1, 2)}, {t: 1}, {ts[6]: 0}]
    for tol in (0, 1e-12):
        got = verify_modular_formula(m2, fs, tol)
        assert_same_report(got, loop_modular_formula(m2, fs, tol))
        sums = {v.where for v in got.violations if v.kind == "modular-sum"}
        assert {(len(fs) - 3,), (len(fs) - 2,)} <= sums and (len(fs) - 1,) not in sums
