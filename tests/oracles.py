"""The definition-level oracles of the parity tests, and the groupoids,
measures and value lists they run on.

Each public operation has one reference here, written from its formula:
sums over composable pairs, Gram blocks by fiber, Choi by Kraus, and
measure tables from the weights.  They are the loops the package ran before
its gathers and contractions, so a parity test compares a report check for
check and violation for violation, exact values with their types, and
float arrays byte for byte where the two paths do the same arithmetic.
The general bisections of the quotient and the horizontal representatives on
S(G) live only here: the package holds a flat bisection as its permutation
and the horizontal structure as the rules on classes, and the tests decide
against these that both are right.
Test modules import from here and never from one another.
"""

import cmath
import copy
import functools
import itertools
import math
from fractions import Fraction
from numbers import Rational

import numpy as np

from groupoidqm import (
    AlgebraElement,
    FiniteGroupoid,
    GroupoidError,
    GroupoidMeasure,
    NotComposableError,
    QClass,
    QuotientFunction,
    Symmetroid,
    Transformation,
    direct_product,
    extend_with_identity,
    left_regular_matrix,
    pair_groupoid,
    q_horizontal_compose,
    q_horizontally_composable,
    q_vertical_compose,
    selftest,
    to_choi,
    weighted_pair_measure,
)
from groupoidqm import eigen
from groupoidqm.algebra import PSD_TOL, PositiveTypeResult, psd_verdict, value_array
from groupoidqm.measure import _Table
from groupoidqm.symalgebra import SymmetroidMeasure
from groupoidqm.reports import ViolationReport

TOL = 1e-12
BIG = 2**70

# -- groupoids --


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


def pair3_missing(*pairs):
    """pair_groupoid(3) with the composites of ``pairs`` left out of its table."""
    g = pair_groupoid(3)
    table = {k: v for k, v in g.compose_table.items() if k not in pairs}
    return FiniteGroupoid(3, g.source, g.target, table, g.inverse, g.unit_of)


def disjoint_pair_groupoids(*sizes):
    """Disjoint union of pair groupoids; component c has sizes[c] objects, so
    source fibers have different sizes across components."""
    source, target, inverse, units, compose = [], [], [], [], {}
    obj = mor = 0
    for n in sizes:
        for j in range(n):
            for k in range(n):
                source.append(obj + k)
                target.append(obj + j)
                inverse.append(mor + k * n + j)
        units += [mor + x * n + x for x in range(n)]
        for z in range(n):
            for y in range(n):
                for x in range(n):
                    compose[(mor + z * n + y, mor + y * n + x)] = mor + z * n + x
        obj += n
        mor += n * n
    return FiniteGroupoid(obj, source, target, compose, inverse, units)


# each built once: a groupoid's tables are read-only
GROUPOIDS = {name: functools.cache(make) for name, make in {
    **{f"pair{n}": (lambda n=n: pair_groupoid(n)) for n in (1, 2, 3, 4)},
    "z3": lambda: cyclic_group_groupoid(3),
    "z4": lambda: cyclic_group_groupoid(4),
    "two-component": two_component_groupoid,
    "product": lambda: direct_product(pair_groupoid(2), cyclic_group_groupoid(2)),
    # several objects and isotropy elements that are not their own inverses
    "product-z3": lambda: direct_product(pair_groupoid(2), cyclic_group_groupoid(3)),
    "vertical2": lambda: Symmetroid(pair_groupoid(2)).vertical,
    "vertical3": lambda: Symmetroid(pair_groupoid(3)).vertical,
}.items()}

# -- measures and values --


def perturbed(values, small, large):
    """values with a change below the tolerance at one place and above it at another."""
    values = list(values)
    values[-1] += small
    if len(values) > 1:
        values[len(values) // 2] += large
    return values


def with_tables(m, **tables):
    """A new measure of m's class whose named tables hold the given values, a
    fault that no constructor makes (on a SymmetroidMeasure, the tables of its
    vertical ``measure``).  The other tables are m's: those not yet read are
    derived, on first read, from m's weights."""
    planted = copy.copy(m)
    if isinstance(m, SymmetroidMeasure):
        planted.measure = with_tables(m.measure, **tables)
    else:
        planted._tables = type(m._tables)(m._tables, **{name: _Table(tuple(v)) for name, v in tables.items()})
        planted._tables.derive = m._tables.derive
    return planted


def fractions(rng, size):
    pairs = zip(rng.integers(-5, 6, size=size), rng.integers(1, 6, size=size))
    return [Fraction(int(p), int(q)) for p, q in pairs]


def nonzero_fractions(rng, size, dyadic=False):
    """Nonzero rationals; dyadic ones have power-of-two denominators."""
    nums = rng.integers(1, 10, size=size) * rng.choice([-1, 1], size=size)
    dens = 2 ** rng.integers(0, 4, size=size) if dyadic else rng.integers(1, 10, size=size)
    return [Fraction(int(p), int(q)) for p, q in zip(nums, dens)]


def all_fractions(f):
    return all(type(v) is Fraction for v in f.values)


def draw(rng, size, exact):
    """Fractions over denominators up to 9, or complex normals."""
    if exact:
        nums, dens = rng.integers(-9, 10, size=size), rng.integers(1, 10, size=size)
        return [Fraction(int(p), int(q)) for p, q in zip(nums, dens)]
    return list(rng.normal(size=size) + 1j * rng.normal(size=size))


# Haar measures on the pair groupoids over up to three points, by kind
PAIR_HAAR_BASES = {
    "counting": GroupoidMeasure.counting,
    # μ(j, k) = a_j·b_k over object weights a: int weights, int ν, Fraction δ
    "int": lambda g, a=(1, 2, 3), b=(2, 1, 1): GroupoidMeasure(
        g, [aj * bk for aj in a[: g.n_objects] for bk in b[: g.n_objects]], a[: g.n_objects]
    ),
    "fraction": lambda g: weighted_pair_measure(g, (Fraction(1, 3), 2, Fraction(5, 2))[: g.n_objects]),
    "float": lambda g: weighted_pair_measure(g, (0.5, 2.0, 3.0)[: g.n_objects]),
}


@functools.cache
def weight_grid(g):
    """(morphism weights, object weights or None for the default ones) by
    kind: counting, int, mixed int/Fraction, Fraction, float, float beside
    Fraction, near-tolerance and 2**70-size Fraction weights, not all Haar;
    on a groupoid with n² morphisms also the family w_j / w_k, Haar on a pair
    groupoid, with Fraction and float w.  Drawn once per groupoid, as tuples."""
    rng = np.random.default_rng(5 + g.n_morphisms)
    m, n = g.n_morphisms, g.n_objects
    ints = [int(v) for v in rng.integers(1, 7, size=m)]
    fracs = [Fraction(int(p), int(q)) for p, q in rng.integers(1, 9, size=(m, 2))]
    ones = [Fraction(1)] * m
    grid = {
        "counting": ((1,) * m, (1,) * n),
        "counting-int": ((1,) * m, None),  # as GroupoidMeasure.counting makes it
        "counting-fraction": (ones, [Fraction(1)] * n),
        "int": (ints, [int(v) for v in rng.integers(1, 5, size=n)]),
        "mixed": ([f if k % 2 else i for k, (i, f) in enumerate(zip(ints, fracs))], [2] * n),
        "fraction": (fracs, [Fraction(k + 1, k + 2) for k in range(n)]),
        # 1.1 makes ν and δ round apart: the inverse relation fails at tol 0
        "float": ([float(v) for v in rng.uniform(0.5, 3.0, size=m)], [1.1] * n),
        "float-fraction": ([0.5] + fracs[1:], None),
        "fraction-near-tol": (perturbed(ones, Fraction(1, 10**14), Fraction(1, 10**6)), None),
        "float-near-tol": (perturbed([1.0] * m, 1e-14, 1e-6), None),
        "big": (
            [Fraction(BIG + 3 * k + 1, 3**45 + k) for k in range(m)],
            [Fraction(BIG - k, 7**30) for k in range(n)],
        ),
    }
    if m == n * n:
        w = [Fraction(2) ** k for k in range(n)]
        grid["weighted-fraction"] = ([w[j] / w[k] for j in range(n) for k in range(n)], w)
        w = [float(v) for v in w]
        grid["weighted-float"] = ([w[j] / w[k] for j in range(n) for k in range(n)], w)
    return {kind: tuple(None if t is None else tuple(t) for t in pair) for kind, pair in grid.items()}


def measure(g, kind):
    return GroupoidMeasure(g, *weight_grid(g)[kind])


def cases(groupoids, kinds):
    """(groupoid, measure) names over the named groupoids and those of the
    measure kinds that ``weight_grid`` draws on each."""
    return [(g, m) for g in groupoids for m in weight_grid(GROUPOIDS[g]()) if m in kinds]


def value_lists(g, seed):
    """int, Fraction, float, complex, numpy-integer, mixed int/Fraction,
    mixed exact/complex and int/Fraction/float values, with a zero of the
    list's own type at every third place from the second in the first five;
    a complex character c(t)/c(s), near-tolerance Fractions and Fractions
    with 2**70-size denominators."""
    rng = np.random.default_rng(seed + g.n_morphisms)
    m = g.n_morphisms
    lists = {
        "int": [int(v) for v in rng.integers(-3, 4, size=m)],
        "fraction": [Fraction(int(p), int(q)) for p, q in rng.integers(1, 5, size=(m, 2))],
        "float": [float(v) for v in rng.normal(size=m)],
        "complex": [complex(v) for v in rng.normal(size=m) + 1j * rng.normal(size=m)],
        "numpy-int": list(rng.integers(-3, 4, size=m)),  # Rational, but neither int nor Fraction
    }
    for values in lists.values():
        for i in range(1, m, 3):
            values[i] *= 0
    exact_cycle, mixed_cycle = [Fraction(1, 3), 2, 0, Fraction(-5, 2)], [Fraction(1, 3), 2, complex(0.5, -1.25), 0]
    lists["int-fraction"] = [exact_cycle[i % 4] for i in range(m)]
    lists["exact-complex"] = [mixed_cycle[i % 4] for i in range(m)]
    lists["int-fraction-float"] = [1, Fraction(1, 3), 0.5] * (m // 3) + [1] * (m % 3)
    c = rng.normal(size=g.n_objects) + 1j * rng.normal(size=g.n_objects)
    lists["complex-character"] = [complex(c[g.target[a]] / c[g.source[a]]) for a in g.morphisms()]
    lists["fraction-near-tol"] = perturbed([Fraction(1)] * m, Fraction(1, 10**13), Fraction(1, 10**9))
    lists["big"] = [Fraction(3**50 + k, 2**70 + 1) for k in range(m)]
    return lists


def exact(*value_lists):
    return all(isinstance(v, Rational) for vs in value_lists for v in vs)


def delta(n, j, k):
    """The basis function at (j, k) of pair_groupoid(n)."""
    return AlgebraElement.delta(pair_groupoid(n), j * n + k)


def quotient_zeros(n):
    """The zero function on the quotient symmetroid classes over n points."""
    return QuotientFunction(n, [0] * n**4)


def function_from_blocks(g, blocks):
    """phi((j, k)) = blocks[c][j, k] on component c of disjoint_pair_groupoids:
    every fiber block of component c is blocks[c]."""
    values = []
    for block in blocks:
        values += [complex(v) for v in np.asarray(block).ravel()]
    return AlgebraElement(g, values)


def psd(rng, n, shift=0.0):
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return b @ b.conj().T / n + shift * np.eye(n)


def normal_state(xis, f, m):
    """ω(f) = Σ_i ⟨ξ_i, π(f) ξ_i⟩ with ⟨ψ, χ⟩ = Σ_α conj(ψ(α)) χ(α) μ(α), for value arrays ξ_i."""
    mat, mu = left_regular_matrix(f, m), np.array(m.weights, dtype=float)
    return sum(np.vdot(xi, mu * (mat @ xi)) for xi in xis)


# -- comparisons --


def assert_same_report(new, ref):
    assert new.checks == ref.checks
    assert new.violations == ref.violations  # order, kind, where, message, magnitude


def assert_same_values(got, want):
    got, want = list(got), list(want)
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]


U = 2.0**-53  # the unit roundoff of float64
# A side rounds a sum of k terms within (k + 7)·u·Σ|terms| to first order:
# k - 1 for the sum, and 8 for casting its three factors and its two complex
# products (each within √5·u).  So two sides differ by 2(k + 7)·u·Σ|terms|
# at most, which is 32 at k = 9, the largest target fiber summed over here.
SUM_ROUNDING = 32


def assert_parity(new, ref, exact_inputs, magnitudes=None):
    """Outputs of exact inputs match in value and type, others to rounding:
    a sum within SUM_ROUNDING·u of its Σ|terms| in ``magnitudes``, and one
    product (no ``magnitudes``) within 1e-15 of the largest output."""
    assert len(new) == len(ref)
    if exact_inputs:
        assert_same_values(new, ref)
    elif magnitudes is None:
        scale = max(abs(v) for v in ref)
        assert max(abs(a - b) for a, b in zip(new, ref)) <= 1e-15 * scale
    else:
        for a, b, magnitude in zip(new, ref, magnitudes):
            assert abs(a - b) <= SUM_ROUNDING * U * magnitude


def assert_delta2_is_the_product(deltas, products):
    """Δ₂ = μ₂(Γ)/μ₂(Γ⁻¹) against δ(α)·δ(γ): equal in value where the
    product is exact, within 2 ulp where it is a float."""
    deltas, products = list(deltas), list(products)
    assert len(deltas) == len(products)
    for d, p in zip(deltas, products):
        assert abs(d - p) <= 2 * np.spacing(p) if isinstance(p, float) else d == p


# -- measure tables from the weights --


def ratio(p, q):
    if isinstance(p, int) and isinstance(q, int):
        return p // q if p % q == 0 else Fraction(p, q)
    return p / q


def old_tables(g, weights, object_weights=None):
    """(weights, object weights, ν^x, ν_x, δ) with per-entry ratios, after the
    rule that turns every int into a Fraction when any weight is a Fraction;
    the object weights are ones when not given."""
    w = tuple(weights)
    ow = (1,) * g.n_objects if object_weights is None else tuple(object_weights)
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
    delta = old_tables(g, w, ow)[4]
    mu2 = [w[t.alpha] * w[t.gamma] for t in ts]
    ow2 = [ow[g.target[b]] * ow[g.source[b]] for b in g.morphisms()]
    return mu2, ow2, {t: delta[t.alpha] * delta[t.gamma] for t in ts}


# -- the groupoid axioms, checked instance by instance --


def loop_validate(g):
    """``validate`` as a loop over the morphisms, the compose table and the
    composable triples; its two domain kinds come in set-iteration order."""
    rep = ViolationReport()
    m = g.n_morphisms

    def in_range(i):
        return 0 <= i < m

    for mid in g.morphisms():
        rep.checks += 1
        if not (0 <= g.source[mid] < g.n_objects and 0 <= g.target[mid] < g.n_objects):
            rep.add("index-range", (mid,), f"morphism {mid} has out-of-range endpoints")
    if not rep.ok:
        return rep

    expected = set(g.composable_pairs())
    actual = set(g.compose_table)
    for pair in expected - actual:
        rep.add("domain-missing", pair, f"composable pair {pair} missing from table")
    for pair in actual - expected:
        rep.add("domain-extra", pair, f"table entry {pair} for a non-composable pair")
    rep.checks += len(expected | actual)

    for (b, a), r in g.compose_table.items():
        rep.checks += 1
        if not in_range(r):
            rep.add("index-range", (b, a, r), f"composite {r} out of range")
            continue
        if (b, a) not in expected:
            continue
        if g.source[r] != g.source[a] or g.target[r] != g.target[b]:
            rep.add("endpoint", (b, a, r), f"{g.label(b)}∘{g.label(a)} = {g.label(r)} has wrong endpoints")

    def comp(b, a):
        return g.compose_table.get((b, a))

    for a in g.morphisms():
        for b in g.source_fiber(g.target[a]):
            ba = comp(b, a)
            for c in g.source_fiber(g.target[b]):
                rep.checks += 1
                cb = comp(c, b)
                lhs = comp(cb, a) if cb is not None else None
                rhs = comp(c, ba) if ba is not None else None
                if lhs is None or rhs is None or lhs != rhs:
                    rep.add("associativity", (c, b, a), f"(c∘b)∘a != c∘(b∘a) for c={c}, b={b}, a={a}")

    for x in g.objects():
        rep.checks += 1
        u = g.unit_of[x]
        if not in_range(u):
            rep.add("index-range", (x, u), f"unit of object {x} out of range")
            continue
        if g.source[u] != x or g.target[u] != x:
            rep.add("unit-endpoint", (x, u), f"unit of {x} is not an endomorphism of {x}")

    for a in g.morphisms():
        rep.checks += 1
        u_s = g.unit_of[g.source[a]]
        u_t = g.unit_of[g.target[a]]
        if comp(a, u_s) != a:
            rep.add("unit-law", (a, u_s), f"{g.label(a)}∘1_s != {g.label(a)}")
        if comp(u_t, a) != a:
            rep.add("unit-law", (u_t, a), f"1_t∘{g.label(a)} != {g.label(a)}")

    for a in g.morphisms():
        rep.checks += 1
        ai = g.inverse[a]
        if not in_range(ai):
            rep.add("index-range", (a, ai), f"inverse of {a} out of range")
            continue
        if g.source[ai] != g.target[a] or g.target[ai] != g.source[a]:
            rep.add("inverse-endpoint", (a, ai), f"inverse of {g.label(a)} has wrong endpoints")
            continue
        if comp(a, ai) != g.unit_of[g.target[a]]:
            rep.add("inverse-law", (a, ai), f"{g.label(a)}∘{g.label(a)}⁻¹ != 1_t")
        if comp(ai, a) != g.unit_of[g.source[a]]:
            rep.add("inverse-law", (ai, a), f"{g.label(a)}⁻¹∘{g.label(a)} != 1_s")
        if g.inverse[ai] != a:
            rep.add("inverse-law", (a, ai), f"inverse of {g.label(a)} is not involutive")

    return rep


# -- the measure verifiers, on the measure's own tables --


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


def loop_disintegration(g, m, subsets=None, tol=TOL):
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


def loop_modular_formula(m2, functions, tol=TOL):
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


# -- the convolution algebra, with ν and δ from the weights --


def weights_against(weights, *value_lists):
    if exact(*value_lists):
        return weights
    return [float(w) for w in weights]


def loop_convolve(f, g, m):
    """Σ over the target fiber of α of f(β)·g(β⁻¹∘α)·ν(β), skipping a zero
    f(β), and beside each output the Σ|terms| that scales its rounding."""
    G = m.groupoid
    out, magnitudes = [0] * G.n_morphisms, [0.0] * G.n_morphisms
    fv, gv = f.values, g.values
    nu = weights_against(old_tables(G, m.weights, m.object_weights)[2], fv, gv)
    for alpha in G.morphisms():
        acc, magnitude = 0, 0.0
        for beta in G.target_fiber(G.target[alpha]):
            w = fv[beta]
            if w == 0:
                continue
            term = w * gv[G.compose(G.inv(beta), alpha)] * nu[beta]
            acc += term
            magnitude += float(abs(term))
        out[alpha], magnitudes[alpha] = acc, magnitude
    return out, magnitudes


def loop_involute(f, m):
    """δ(α⁻¹)·conj(f(α⁻¹)) per morphism, as Python arithmetic on the values."""
    G = m.groupoid
    delta = old_tables(G, m.weights, m.object_weights)[4]
    inverse_delta = weights_against([delta[G.inv(a)] for a in G.morphisms()], f.values)
    return [inverse_delta[a] * f.values[G.inv(a)].conjugate() for a in G.morphisms()]


def loop_left_regular_matrix(f, m):
    """f(β)·ν(β) at (α, γ) for β = α∘γ⁻¹ over each source fiber, each product
    cast to complex."""
    G = m.groupoid
    mat = np.zeros((G.n_morphisms, G.n_morphisms), dtype=np.complex128)
    nu = weights_against(old_tables(G, m.weights, m.object_weights)[2], f.values)
    for alpha in G.morphisms():
        for gamma in G.source_fiber(G.source[alpha]):
            beta = G.compose(alpha, G.inv(gamma))
            if f.values[beta] != 0:
                mat[alpha, gamma] = complex(f.values[beta] * nu[beta])
    return mat


def loop_is_positive_type(phi, tol=PSD_TOL):
    """The Gram block phi(α_j ∘ α_k⁻¹) of each source fiber in object order,
    one ``psd_verdict`` each: the first failing block decides, else the
    first with the least eigenvalue."""
    G = phi.groupoid
    worst = PositiveTypeResult(True, float("inf"), 0.0)
    seen = set()
    for x in G.objects():
        fiber = G.source_fiber(x)
        if not fiber:
            continue
        k = len(fiber)
        block = np.zeros((k, k), dtype=np.complex128)
        for i, a in enumerate(fiber):
            for j, b in enumerate(fiber):
                block[i, j] = complex(phi.values[G.compose(a, G.inv(b))])
        key = block.tobytes()
        if key in seen:
            continue
        seen.add(key)
        verdict = psd_verdict(block, tol)
        if not verdict.ok or verdict.min_eigenvalue < worst.min_eigenvalue:
            worst = PositiveTypeResult(**vars(verdict), object_index=x, fiber=fiber)
        if not worst.ok:
            return worst
    return worst


# -- S(G): the symmetroid's tables and algebra on triples --


def loop_symmetroid(g):
    """(transformations, index, vertical) as the constructor loop built them."""
    ts = [
        Transformation(a, b, c)
        for b in g.morphisms()
        for a in g.source_fiber(g.target[b])
        for c in g.source_fiber(g.source[b])
    ]
    index = {t: i for i, t in enumerate(ts)}
    top = [g.compose(a, g.compose(b, g.inv(c))) for a, b, c in ts]
    by_s1 = [[] for _ in g.morphisms()]
    for i, t in enumerate(ts):
        by_s1[t.beta].append(i)
    compose = {
        (i2, i1): index[(g.compose(ts[i2].alpha, a1), b1, g.compose(ts[i2].gamma, c1))]
        for i1, (a1, b1, c1) in enumerate(ts)
        for i2 in by_s1[top[i1]]
    }
    inverse = [index[(g.inv(a), top[i], g.inv(c))] for i, (a, _, c) in enumerate(ts)]
    units = [index[(g.unit(g.target[b]), b, g.unit(g.source[b]))] for b in g.morphisms()]
    source = [t.beta for t in ts]
    return ts, index, FiniteGroupoid(g.n_morphisms, source, top, compose, inverse, units)


def reference_convolve_general(sym, f, h, base):
    """Σ over the 2-target fiber of t1(Γ) of ν₂(Γ₁) f(Γ₁) h(Γ₁⁻¹ ∘_V Γ), with
    every piece written out on triples; f and h are functions on
    ``sym.vertical``, read at ``sym.index[Γ]``."""
    g = base.groupoid

    def t1(t):
        return g.compose(t.alpha, g.compose(t.beta, g.inv(t.gamma)))

    out = []
    for t in sym.transformations:
        acc = 0
        for l in sym.transformations:
            if t1(l) != t1(t) or f[sym.index[l]] == 0:
                continue
            nu2 = base.nu_target(l.alpha) * base.nu_target(l.gamma)
            rest = Transformation(g.compose(g.inv(l.alpha), t.alpha), t.beta, g.compose(g.inv(l.gamma), t.gamma))
            acc += nu2 * f[sym.index[l]] * h[sym.index[rest]]
        out.append(acc)
    return out


def reference_involute_general(sym, f, base):
    """Δ₂(Γ)⁻¹ conj(f(Γ⁻¹)) with Δ₂ = δ(α)·δ(γ) and Γ⁻¹ = (α⁻¹, t1(Γ), γ⁻¹);
    f is a function on ``sym.vertical``, read at ``sym.index[Γ]``."""
    g = base.groupoid
    out = []
    for a, b, c in sym.transformations:
        top = g.compose(a, g.compose(b, g.inv(c)))
        inverse = Transformation(g.inv(a), top, g.inv(c))
        out.append(f[sym.index[inverse]].conjugate() / (base.delta(a) * base.delta(c)))
    return out


def is_little(sym, t):
    """Membership in the little symmetroid: α and γ are isotropy elements."""
    g = sym.groupoid
    return g.target[t.alpha] == g.source[t.alpha] and g.target[t.gamma] == g.source[t.gamma]


# Horizontal representatives on S(G): only their 2-source and 2-target are
# contractual, and their classes are what the q-rules must give.


def _canonical_transition(sym, x, y):
    """The first transition x -> y in x's source fiber."""
    g = sym.groupoid
    for m in g.source_fiber(x):
        if g.target[m] == y:
            return m
    raise NotComposableError(f"no transition from object {x} to object {y}")


def horizontal_compose(sym, t2, t1):
    """(t1(Γ₂)∘α₁∘s1(Γ₂)⁻¹, s1(Γ₂)∘s1(Γ₁), γ₁), from s1(Γ₂)∘s1(Γ₁) to
    t1(Γ₂)∘t1(Γ₁); defined when both of those base compositions are."""
    g = sym.groupoid
    alpha = g.compose(sym.t1(t2), g.compose(t1.alpha, g.inv(t2.beta)))
    return Transformation(alpha, g.compose(t2.beta, t1.beta), t1.gamma)


def horizontal_unit(sym, y, x):
    """(a, 1_x, a) for the canonical transition a: x -> y; it sends 1_x to 1_y."""
    a = _canonical_transition(sym, x, y)
    return Transformation(a, sym.groupoid.unit(x), a)


def horizontal_inverse(sym, t):
    """(t1(Γ)⁻¹∘u∘β, β⁻¹, u), with u the canonical transition from t(β) to
    t(t1(Γ)): s1 = s1(Γ)⁻¹ and t1 = t1(Γ)⁻¹."""
    g = sym.groupoid
    top = sym.t1(t)
    u = _canonical_transition(sym, g.target[t.beta], g.target[top])
    return Transformation(g.compose(g.inv(top), g.compose(u, t.beta)), g.inv(t.beta), u)


# -- the quotient: the exchange identity --


def exchange_sides(free):
    """Both sides of the exchange identity at the quadruples of ``free``,
    through selftest's bindings of the rules, so that a planted fault
    reaches them."""
    gp2, gp1, g2, g1 = selftest._exchange_quadruple(free)
    lhs = selftest.q_vertical_compose(
        selftest.q_horizontal_compose(gp2, gp1), selftest.q_horizontal_compose(g2, g1)
    )
    rhs = selftest.q_horizontal_compose(
        selftest.q_vertical_compose(gp2, g2), selftest.q_vertical_compose(gp1, g1)
    )
    return lhs, rhs


def array_count(n):
    """The n⁹ oracle: every admissible quadruple at n as one column of one
    index array, composed at once."""
    free = np.indices((n,) * 9, dtype=np.int8).reshape(9, -1)
    lhs, rhs = exchange_sides(free)
    return int(np.count_nonzero(np.any(np.asarray(lhs) != np.asarray(rhs), axis=0))), free.shape[1]


def loop_count(n, columns):
    """The per-quadruple oracle: compose each quadruple on its own."""
    violations = 0
    for free in columns:
        lhs, rhs = exchange_sides(tuple(int(v) for v in free))
        violations += lhs != rhs
    return violations


# -- bisections over pair(n): a bijection τ of the n² transitions is the
# bisection whose entry at β has 2-source β and 2-target τ(β) --


def permutation_graph(perm):
    """The bisection of a permutation σ of the objects: (j, k) -> (σj, σk)."""
    n = len(perm)
    return tuple(perm[j] * n + perm[k] for j in range(n) for k in range(n))


def bisection_entry(tau, beta):
    """The class at β: 2-source β = (y, x) and 2-target τ(β) = (z, w)."""
    n = math.isqrt(len(tau))
    (z, w), (y, x) = divmod(tau[beta], n), divmod(beta, n)
    return QClass(z, y, x, w)


def bisection_product(tau2, tau1):
    """(τ₂ • τ₁)(β) = τ₂'s entry at τ₁(β) ∘_V τ₁'s entry at β, entry by entry."""
    n = math.isqrt(len(tau1))
    entries = (
        q_vertical_compose(bisection_entry(tau2, tau1[beta]), bisection_entry(tau1, beta))
        for beta in range(len(tau1))
    )
    return tuple(q.z * n + q.w for q in entries)


def is_flat(taus):
    """Which rows of a (B, n²) array of bijections are flat bisections.

    With (Z, W)[y, x] the 2-target of the entry at β = (y, x), the pair
    ((z', y'), (y', x')) composes horizontally iff W[z', y'] = Z[y', x'].
    That for all (z', y', x') makes Z[y, x] = W[z, y] = a(y) for one map a,
    so the composite's 2-target (Z[z', y'], W[y', x']) = (a(z'), a(x')) is
    the entry at (z', x') already: flatness is this one array check.
    """
    n = math.isqrt(taus.shape[1])
    Z, W = np.divmod(taus.reshape(-1, n, n), n)
    return np.all(W[:, :, :, None] == Z[:, None, :, :], axis=(1, 2, 3))


def loop_is_flat(tau) -> bool:
    """Exact multiplicativity b(β'∘β) = b(β') ∘_H b(β), pair by pair."""
    n = math.isqrt(len(tau))
    for zz, yy, xx in itertools.product(range(n), repeat=3):
        left, right = bisection_entry(tau, zz * n + yy), bisection_entry(tau, yy * n + xx)
        if not q_horizontally_composable(left, right):
            return False
        if q_horizontal_compose(left, right) != bisection_entry(tau, zz * n + xx):
            return False
    return True


# -- channels: Choi by Kraus and the contractions as einsum formulas --


def _tensor(values, n):
    return value_array(values).reshape((n,) * 4)


def einsum_from_kraus(members, n):
    v = value_array([x for member in members for x in member]).reshape(-1, n, n)
    return np.einsum("pzy,pwx->zyxw", v, np.conj(v)).reshape(-1).tolist()


def einsum_apply(kernel, psi, n):
    out = np.einsum("lrsm,rs->lm", _tensor(kernel, n), value_array(psi).reshape(n, n))
    return out.reshape(-1).tolist()


def einsum_convolve_S(f, h, qm, n):
    """Σ_{r,s} ν(l,r)ν(m,s)·f(l,r,s,m)·h(r,j,k,s), ν from the base's weights,
    and beside each output the Σ|terms| that scales its rounding."""
    t, u = _tensor(f, n), _tensor(h, n)
    if qm is not None:
        base = qm.base
        nu = value_array(old_tables(base.groupoid, base.weights, base.object_weights)[2]).reshape(n, n)
        t = t * nu[:, :, None, None] * nu.T
    out, magnitudes = (np.einsum("lrsm,rjks->ljkm", a, b) for a, b in ((t, u), (abs(t), abs(u))))
    return out.reshape(-1).tolist(), magnitudes.astype(float).reshape(-1).tolist()


def object_einsum(subscripts, *operands):
    """The contraction on object arrays, cast to complex128 after."""
    return np.einsum(subscripts, *(op.astype(object) for op in operands)).astype(np.complex128)


def loop_dsf_check(v, tol=TOL):
    g = v.groupoid
    n = g.n_objects
    if g.n_morphisms != n * n:
        raise GroupoidError("dsf_check expects a function on a pair groupoid")
    vals = v.values
    for j in range(n):
        for l in range(n):
            acc = sum(vals[j * n + k] * vals[k * n + l] for k in range(n))
            if abs(acc - vals[j * n + l]) > tol:
                return False
    for j in range(n):
        for k in range(n):
            if abs(vals[j * n + k].conjugate() - vals[k * n + j]) > tol:
                return False
    return True


def loop_tomogram(psi, n, tol=PSD_TOL):
    out = []
    for l in range(n):
        acc = 0
        for r in range(n):
            for s in range(n):
                acc += (
                    cmath.exp(-2j * cmath.pi * l * r / n)
                    * psi.values[r * n + s]
                    * cmath.exp(2j * cmath.pi * l * s / n)
                )
        acc = complex(acc) / n
        if abs(acc.imag) > tol:
            raise GroupoidError(f"tomogram value {l} is not real: {acc}")
        out.append(acc.real)
    return out


def loop_is_unital_kraus(fam, tol=TOL):
    """Σ V ⋆ V* against the units' indicator, one member at a time."""
    g = pair_groupoid(fam.n)
    m = GroupoidMeasure.counting(g)
    total = AlgebraElement.zeros(g)
    for v in fam.members:
        total = total + AlgebraElement(g, loop_convolve(v, AlgebraElement(g, loop_involute(v, m)), m)[0])
    return total.allclose(AlgebraElement.units_indicator(g), tol)


def min_eigenvalue(a):
    """Smallest eigenvalue of a Hermitian matrix; inf for a 0×0 one."""
    w, _ = eigen.hermitian_eigh(a, vectors=False)
    return float(w[0]) if len(w) else float("inf")


def two_solve_decomposition(ch, tol=PSD_TOL):
    """Kraus members √λ·v from a second solve of a Choi matrix that passed."""
    choi = to_choi(ch).matrix
    assert psd_verdict(choi, tol).ok
    w, v = eigen.hermitian_eigh(choi)
    return [
        [float(np.sqrt(w[i])) * complex(x) for x in v[:, i]]
        for i in range(len(w) - 1, -1, -1)
        if w[i] > tol
    ]


def loop_random_positive_type(n, rng, rank=None):
    """One Gram state Σ v v† / tr, from rank complex normal vectors."""
    if rank is None:
        rank = int(rng.integers(1, n + 1))
    vecs = rng.normal(size=(rank, n)) + 1j * rng.normal(size=(rank, n))
    mat = sum(np.outer(v, v.conj()) for v in vecs)
    mat = mat / np.trace(mat).real
    return AlgebraElement(pair_groupoid(n), [mat[j, k] for j in range(n) for k in range(n)])


def loop_positivity_falsifier(ch, trials, seed, ancilla=1, tol=PSD_TOL):
    """Draw, apply and decide one trial at a time: (trial, state, output, λ_min)
    of the first output not of positive type, or None."""
    rng = np.random.default_rng(seed)
    extended = extend_with_identity(ch, ancilla) if ancilla > 1 else ch
    dim = extended.n
    for trial in range(trials):
        psi = loop_random_positive_type(dim, rng, rank=(trial % dim) + 1)
        out = AlgebraElement(psi.groupoid, einsum_apply(extended.kernel.values, psi.values, dim))
        verdict = loop_is_positive_type(out, tol)
        if not verdict.ok:
            return trial, psi, out, verdict.min_eigenvalue
    return None
