"""Exact measure tables and sum checks against the per-entry formulas and loops
they replaced.

``GroupoidMeasure`` builds ν^x, ν_x and δ of Fraction weights from integer
numerators and denominators, and ``SymmetroidMeasure`` builds μ₂ and its
object weights as gathered products.  ``verify_disintegration`` and the sum
checks of ``verify_modular_formula`` decide exact sums on integer numerators.
Every table must match the old formula in value and in type, and every report
the old loop check for check and violation for violation.  Δ₂ is the vertical
measure's ``deltas``, which equals the old product δ(α)·δ(γ) in value on
exact bases and within 2 ulp on float ones.
"""

from fractions import Fraction

import numpy as np
import pytest
from test_exact_path import assert_same_report, cyclic_group_groupoid, loop_modular_atoms
from test_gather_parity import assert_delta2_is_the_product, ratio

from groupoidqm import (
    GroupoidMeasure,
    Symmetroid,
    direct_product,
    pair_groupoid,
    verify_disintegration,
    verify_modular_formula,
    weighted_pair_measure,
)
from groupoidqm.reports import ViolationReport
from groupoidqm.symalgebra import SymmetroidMeasure

BIG = 2**70

# -- the formulas and loops the gathers replaced --


def old_tables(g, weights, object_weights):
    """(weights, object weights, ν^x, ν_x, δ) with per-entry ratios, after the
    rule that turns every int into a Fraction when any weight is a Fraction."""
    w, ow = tuple(weights), tuple(object_weights)
    if any(isinstance(v, Fraction) for v in w + ow):
        w, ow = (tuple(Fraction(v) if isinstance(v, int) else v for v in t) for t in (w, ow))
    nu_t = [ratio(w[a], ow[g.target[a]]) for a in g.morphisms()]
    nu_s = [ratio(w[a], ow[g.source[a]]) for a in g.morphisms()]
    delta = [ratio(w[a], w[g.inverse[a]]) for a in g.morphisms()]
    return w, ow, nu_t, nu_s, delta


def old_symmetroid_measure(sym, base):
    """(μ₂, object weights, Δ₂) as the per-transformation products built them."""
    g, ts = base.groupoid, sym.transformations
    w, ow = base.weights, base.object_weights
    mu2 = [w[t.alpha] * w[t.gamma] for t in ts]
    ow2 = [ow[g.target[b]] * ow[g.source[b]] for b in g.morphisms()]
    return mu2, ow2, {t: base.deltas[t.alpha] * base.deltas[t.gamma] for t in ts}


def loop_disintegration(g, m, subsets=None, tol=1e-12):
    rep = ViolationReport()
    if subsets is None:
        subsets = [list(g.morphisms())] + [[mid] for mid in g.morphisms()]
    for E in subsets:
        rep.checks += 1
        E = list(E)
        lhs = sum(m.nu_targets[a] * m.object_weights[g.target[a]] for a in E)
        rhs = sum(m.weights[a] for a in E)
        defect = abs(lhs - rhs)
        if defect > tol:
            rep.add("disintegration", tuple(E), f"disintegration fails on E={E}", defect)
    return rep


def loop_modular_formula(m2, functions, tol=1e-12):
    sym = m2.symmetroid
    rep = loop_modular_atoms(m2, tol)
    for i, f in enumerate(functions):
        rep.checks += 1
        lhs = sum(m2.mu2(t) * f.get(sym.vertical_inverse(t), 0) for t in sym.transformations)
        rhs = sum(m2.mu2(t) * f.get(t, 0) / m2.delta2(t) for t in sym.transformations)
        defect = abs(lhs - rhs)
        if defect > tol:
            rep.add("modular-sum", (i,), f"Σ μ₂ f(Γ⁻¹) != Σ μ₂ Δ₂⁻¹ f for function {i}", defect)
    return rep


# -- bases --


def bases(g):
    """Counting, int, mixed int/Fraction, Fraction, float and huge-numerator
    Fraction weights on g (not all Haar)."""
    rng = np.random.default_rng(5 + g.n_morphisms)
    m, n = g.n_morphisms, g.n_objects
    ints = [int(v) for v in rng.integers(1, 7, size=m)]
    fracs = [Fraction(int(p), int(q)) for p, q in rng.integers(1, 9, size=(m, 2))]
    return {
        "counting": ((1,) * m, (1,) * n),
        "int": (ints, [int(v) for v in rng.integers(1, 5, size=n)]),
        "mixed": ([f if k % 2 else i for k, (i, f) in enumerate(zip(ints, fracs))], [2] * n),
        "fraction": (fracs, [Fraction(k + 1, k + 2) for k in range(n)]),
        "float": ([float(v) for v in rng.uniform(0.5, 3.0, size=m)], [1.5] * n),
        "big": (
            [Fraction(BIG + 3 * k + 1, 3**45 + k) for k in range(m)],
            [Fraction(BIG - k, 7**30) for k in range(n)],
        ),
    }


BASE_GROUPOIDS = {
    "pair3": lambda: pair_groupoid(3),
    "z3": lambda: cyclic_group_groupoid(3),
    "product": lambda: direct_product(pair_groupoid(2), cyclic_group_groupoid(2)),
}


def assert_same_values(got, want):
    got, want = list(got), list(want)
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]


CASES = [(gname, bname) for gname, make in BASE_GROUPOIDS.items() for bname in bases(make())]


@pytest.mark.parametrize("gname,bname", CASES)
def test_measure_tables_match_per_entry_ratios(gname, bname):
    g = BASE_GROUPOIDS[gname]()
    weights, object_weights = bases(g)[bname]
    m = GroupoidMeasure(g, weights, object_weights)
    want = old_tables(g, weights, object_weights)
    for got, ref in zip((m.weights, m.object_weights, m.nu_targets, m.nu_sources, m.deltas), want):
        assert type(got) is tuple
        assert_same_values(got, ref)


@pytest.mark.parametrize("gname,bname", CASES)
def test_symmetroid_measure_matches_per_transformation_products(gname, bname):
    g = BASE_GROUPOIDS[gname]()
    base = GroupoidMeasure(g, *bases(g)[bname])
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
    g = BASE_GROUPOIDS[gname]()
    m = GroupoidMeasure(g, *bases(g)[bname])
    ms = g.n_morphisms

    def custom():
        return [[0, 1], range(2, ms), [], (ms - 1,), [2, 2, 0], iter([1, 2]), np.arange(ms)]

    assert_same_report(verify_disintegration(g, m, tol=tol), loop_disintegration(g, m, tol=tol))
    got = verify_disintegration(g, m, (E for E in custom()), tol)
    assert_same_report(got, loop_disintegration(g, m, custom(), tol))


@pytest.mark.parametrize("bname", ["int", "fraction", "big", "float"])
def test_disintegration_violations_match_loop(bname):
    g = pair_groupoid(3)
    m = GroupoidMeasure(g, *bases(g)[bname])
    nu = list(m.nu_targets)
    nu[4] += Fraction(1, 10**20) if bname != "float" else 1e-15
    nu[7] *= 2
    m.nu_targets = tuple(nu)
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
    m = GroupoidMeasure(g, *bases(g)[bname])
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
    g = BASE_GROUPOIDS[gname]()
    m2 = SymmetroidMeasure(Symmetroid(g), GroupoidMeasure(g, *bases(g)[bname]))
    fs = functions(m2.symmetroid, g.n_morphisms)
    got = verify_modular_formula(m2, fs, tol)
    assert_same_report(got, loop_modular_formula(m2, fs, tol))


@pytest.mark.parametrize("bname", ["counting", "fraction", "big", "float"])
def test_modular_sum_violations_match_loop(bname):
    g = pair_groupoid(2)
    sym = Symmetroid(g)
    m2 = SymmetroidMeasure(sym, GroupoidMeasure(g, *bases(g)[bname]))
    ts = sym.transformations
    small = Fraction(1, 10**20) if bname != "float" else 1e-15
    deltas, weights = list(m2.measure.deltas), list(m2.measure.weights)
    deltas[3] += small
    deltas[5] *= 3
    # μ₂ at the inverse of t: the sum over t⁻¹ moves, the sum over t does not
    t = next(t for t in ts[6:] if sym.vertical_inverse(t) != t)
    weights[sym.index[sym.vertical_inverse(t)]] *= 2
    m2.measure.deltas, m2.measure.weights = tuple(deltas), tuple(weights)
    fs = functions(sym, 1) + [{ts[3]: 1}, {ts[5]: Fraction(1, 2)}, {t: 1}, {ts[6]: 0}]
    for tol in (0, 1e-12):
        got = verify_modular_formula(m2, fs, tol)
        assert_same_report(got, loop_modular_formula(m2, fs, tol))
        sums = {v.where for v in got.violations if v.kind == "modular-sum"}
        assert {(len(fs) - 3,), (len(fs) - 2,)} <= sums and (len(fs) - 1,) not in sums
