"""Measures on finite groupoids: disintegration, modular function, invariance checks.

A measure assigns a strictly positive weight μ(α) to every morphism and a
strictly positive weight μ_Ω(x) to every object.  The derived fiber measures
are

    ν^x(α) = μ(α) / μ_Ω(t(α))   on the target fiber G^x,
    ν_x(α) = μ(α) / μ_Ω(s(α))   on the source fiber G_x,

and the modular function is δ(α) = μ(α) / μ(α⁻¹), each built once into a
tuple indexed by morphism that every consumer reads: one Fraction per entry
with Fraction weights; with int weights an int where the quotient divides
and a Fraction otherwise; with float weights a float.  A measure is a Haar
measure when the family ν^x is invariant under left translations; the
verifiers below check that and the companion identities exhaustively.

The verifiers are gathers: each is one ``_report_defects`` call whose two
sides are products of values read through index arrays (the composable pairs
of ``FiniteGroupoid.composable_arrays`` for the translation and homomorphism
checks), and a sum check sums those products by check.  Exact values have
one integer format, object arrays of Python-int numerators and denominators
read by ``_parts``, and two kernels: ``_product_parts`` multiplies gathered
values term by term (both sides of every check, the Fraction tables below,
the S(G) atoms of ``_products``, the terms of ``algebra.convolve``), and
``_group_sums`` sums terms by group over their one lcm (the sum checks and
``convolve``).  On ints and Fractions a check cross-multiplies its two sides
and computes the defect ``abs(lhs - rhs)`` only where they differ; on floats
and complex values every check computes its defect in Python.  A violation
is a defect above the tolerance.

Object weights are user-supplied, defaulting to all ones (the convention under
which the counting measure gives unit fiber weights and matrix-unit
convolution).  ``target_pushforward=True`` instead sets μ_Ω = t⋆μ.  Weights
may be ints, floats or ``fractions.Fraction``; with rational weights every
identity below is checked exactly, and a quotient of two int weights is an
int or a Fraction, so the counting measure has int fiber weights.
"""

from __future__ import annotations

import json
import math
import operator
from fractions import Fraction
from numbers import Rational
from typing import Callable, Sequence

import numpy as np

from .groupoid import FiniteGroupoid, GroupoidError, is_pair_groupoid
from .reports import ViolationReport

DEFAULT_TOL = 1e-12


class NotHaarError(GroupoidError):
    """The measure is not in a Haar class (invariance or modular law fails)."""


def _positive(values, what: str):
    vals = tuple(values)
    for i, v in enumerate(vals):
        # a Fraction's sign is its numerator's: no Fraction comparison
        if not (v.numerator > 0 if type(v) is Fraction else v > 0):
            raise ValueError(f"{what} {i} must be strictly positive, got {v!r}")
    return vals


def _ints_as_fractions(*groups: tuple) -> tuple:
    """The groups with every int as a Fraction when any value is a Fraction,
    so that quotients of them stay exact; otherwise the groups unchanged."""
    if not any(isinstance(v, Fraction) for g in groups for v in g):
        return groups
    return tuple(tuple(Fraction(v) if isinstance(v, int) else v for v in g) for g in groups)


def _ratio(p, q):
    """p / q, exact when both are ints: an int when q divides p, else a Fraction."""
    if isinstance(p, int) and isinstance(q, int):
        return p // q if p % q == 0 else Fraction(p, q)
    return p / q


def _is_exact(*value_lists) -> bool:
    """Whether every value is a ``numbers.Rational``; the package's one
    exact-type gate, which spares ints and Fractions the ABC check."""
    flat = (v for values in value_lists for v in values)
    return all(type(v) in (int, Fraction) or isinstance(v, Rational) for v in flat)


def _parts(values) -> tuple[np.ndarray, np.ndarray]:
    """The integer numerators and denominators of rational values, as object
    arrays of Python ints: the one reader of the exact format."""
    return (
        np.array([int(v.numerator) for v in values], dtype=object),
        np.array([int(v.denominator) for v in values], dtype=object),
    )


def _over_lcm(num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, int]:
    """The fractions num / den as integer numerators over the lcm of den."""
    lcm = math.lcm(*den.tolist())
    return num * (lcm // den), lcm


def _product_parts(side: tuple, parts: dict) -> tuple[np.ndarray, np.ndarray]:
    """The integer numerators and denominators of a side's products, term by
    term.  A side is a tuple of factors: ``(values, index)`` multiplies term k
    by values[index[k]] and ``(values, index, -1)`` divides it; the first
    multiplies.  ``parts`` maps the id of each value list to its ``_parts``."""
    (values, index, *_), *rest = side
    num, den = (p[index] for p in parts[id(values)])
    for values, index, *inverse in rest:
        n, d = parts[id(values)]
        num, den = (num * d[index], den * n[index]) if inverse else (num * n[index], den * d[index])
    return num, den


def _group_sums(num: np.ndarray, den: np.ndarray, ids: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """The sums of the terms num / den by group, term k adding to group
    ids[k] < n: integer numerators over the one lcm of den, and that lcm."""
    scaled, lcm = _over_lcm(num, den)
    sums = np.zeros(n, dtype=object)
    np.add.at(sums, ids, scaled)
    return sums, lcm


def _products(values, i, j) -> list:
    """values[i[k]] * values[j[k]] for each k; on Fractions one
    Fraction(p·p', q·q') per entry, from numerators and denominators read once."""
    i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
    if not all(isinstance(v, Fraction) for v in values):
        v = np.array(values, dtype=object)
        return (v[i] * v[j]).tolist()
    num, den = _product_parts(((values, i), (values, j)), {id(values): _parts(values)})
    return list(map(Fraction, num.tolist(), den.tolist()))


class GroupoidMeasure:
    """Positive morphism and object weights on a fixed groupoid, with the tables
    ``nu_targets`` (ν^x), ``nu_sources`` (ν_x) and ``deltas`` (δ) derived once."""

    __slots__ = ("groupoid", "weights", "object_weights", "nu_targets", "nu_sources", "deltas")

    def __init__(
        self,
        groupoid: FiniteGroupoid,
        weights: Sequence,
        object_weights: Sequence | None = None,
        target_pushforward: bool = False,
    ):
        self.groupoid = groupoid
        if len(weights) != groupoid.n_morphisms:
            raise ValueError("need one weight per morphism")
        self.weights = _positive(weights, "morphism weight")
        if object_weights is not None:
            if target_pushforward:
                raise ValueError("give object_weights or target_pushforward, not both")
            if len(object_weights) != groupoid.n_objects:
                raise ValueError("need one weight per object")
            self.object_weights = _positive(object_weights, "object weight")
        elif target_pushforward:
            self.object_weights = tuple(
                sum(self.weights[m] for m in groupoid.target_fiber(x))
                for x in groupoid.objects()
            )
        else:
            self.object_weights = (1,) * groupoid.n_objects
        self.weights, self.object_weights = _ints_as_fractions(self.weights, self.object_weights)
        w, ow = self.weights, self.object_weights
        g = groupoid
        by = ((ow, g.target), (ow, g.source), (w, g.inverse))  # w[k] / q[i[k]]
        if all(isinstance(v, Fraction) for v in w + ow):  # one Fraction each
            parts, k = {id(w): _parts(w), id(ow): _parts(ow)}, np.arange(len(w))
            quotients = (_product_parts(((w, k), (q, np.asarray(i), -1)), parts) for q, i in by)
            tables = (tuple(map(Fraction, num.tolist(), den.tolist())) for num, den in quotients)
        else:
            tables = (tuple(map(_ratio, w, map(q.__getitem__, i))) for q, i in by)
        self.nu_targets, self.nu_sources, self.deltas = tables

    @classmethod
    def counting(cls, groupoid: FiniteGroupoid) -> "GroupoidMeasure":
        """All morphism and object weights equal to one."""
        return cls(groupoid, (1,) * groupoid.n_morphisms)

    def nu_target(self, m: int):
        """ν^x(m) for x = t(m)."""
        return self.nu_targets[m]

    def nu_source(self, m: int):
        """ν_x(m) for x = s(m)."""
        return self.nu_sources[m]

    def delta(self, m: int):
        """Modular ratio μ(m)/μ(m⁻¹) (no homomorphism check; see :func:`modular`)."""
        return self.deltas[m]

    def with_exact(self) -> "GroupoidMeasure":
        """Copy with all weights converted to Fractions for exact arithmetic."""
        return GroupoidMeasure(
            self.groupoid,
            tuple(_to_fraction(w) for w in self.weights),
            tuple(_to_fraction(w) for w in self.object_weights),
        )

    def to_json(self) -> dict:
        return {
            "morphism_weights": [_num_to_json(w) for w in self.weights],
            "object_weights": [_num_to_json(w) for w in self.object_weights],
        }


def _to_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        return Fraction(v).limit_denominator(10**12)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"cannot convert {v!r} to Fraction")


def _num_to_json(v):
    if isinstance(v, Fraction):
        return str(v)
    return v


def _weight_from_json(w, exact: bool):
    if isinstance(w, bool):
        raise TypeError(f"weight {w!r} is not a number")
    if exact:
        return _to_fraction(w)
    v = float(Fraction(w)) if isinstance(w, str) else w
    if not math.isfinite(v):
        raise ValueError(f"weight {w!r} is not finite")
    return v


def measure_from_json(data: dict, groupoid: FiniteGroupoid, exact: bool = False) -> GroupoidMeasure:
    """GroupoidError on a missing key, a wrong count, or a weight that is not
    a finite positive number."""
    try:
        mw = [_weight_from_json(w, exact) for w in data["morphism_weights"]]
        ow = data.get("object_weights")
        if ow is not None:
            ow = [_weight_from_json(w, exact) for w in ow]
        return GroupoidMeasure(groupoid, mw, ow)
    except (KeyError, TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise GroupoidError(f"malformed measure JSON: {exc}") from exc


def load_measure(path: str, groupoid: FiniteGroupoid, exact: bool = False) -> GroupoidMeasure:
    with open(path) as fh:
        return measure_from_json(json.load(fh), groupoid, exact=exact)


def weighted_pair_measure(g: FiniteGroupoid, w: Sequence, object_weights=None) -> GroupoidMeasure:
    """μ(j,k) = w_j / w_k on a pair groupoid.

    Left invariance of the derived ν^x forces object weights proportional to
    w, so that is the default; pass ``object_weights`` explicitly to study the
    non-invariant alternatives.
    """
    n = g.n_objects
    if len(w) != n or not is_pair_groupoid(g):
        raise ValueError("weighted_pair_measure expects a pair groupoid and one weight per point")
    (w,) = _ints_as_fractions(tuple(w))
    weights = [w[j] / w[k] for j in range(n) for k in range(n)]
    if object_weights is None:
        object_weights = tuple(w)
    return GroupoidMeasure(g, weights, object_weights)


class ModularFunction:
    """δ: G -> R₊ with δ(α) = μ(α)/μ(α⁻¹); a homomorphism for Haar measures."""

    __slots__ = ("groupoid", "values")

    def __init__(self, groupoid: FiniteGroupoid, values: Sequence):
        self.groupoid = groupoid
        self.values = tuple(values)

    def __call__(self, m: int):
        return self.values[m]


def _report_defects(
    kind: str,
    tol: float,
    lhs: tuple,
    rhs: tuple,
    describe: Callable[[int], tuple[tuple, str]],
    key: np.ndarray | None = None,
    groups: tuple[np.ndarray, int] | None = None,
) -> ViolationReport:
    """The report of the checks lhs_i == rhs_i, with a violation for each i
    whose defect abs(lhs_i - rhs_i) exceeds tol.

    A side is a tuple of factors, as ``_product_parts`` reads them.  Without
    ``groups`` term i is check i; with ``groups = (ids, n)`` check c < n sums
    the terms k with ids[k] == c.  When every value is an int or a Fraction,
    equality is decided first, exactly, by the two kernels, and only the
    checks that differ get their defect computed.  Otherwise every check
    computes ``abs(lhs - rhs) > tol`` in Python, as a per-check loop would:
    products left to right, sums by ``sum`` over the terms in order.
    ``describe(i)`` gives the violation's ``where`` and message; violations
    are added in increasing ``key`` (default: check order).
    """
    rep = ViolationReport(checks=len(lhs[0][1]) if groups is None else groups[1])
    # a value list that several factors read (Δ at b∘a, b and a) is read once
    distinct = {id(values): values for values, *_ in lhs + rhs}
    if tol >= 0 and _is_exact(*distinct.values()):
        parts = {i: _parts(values) for i, values in distinct.items()}
        sides = [_product_parts(side, parts) for side in (lhs, rhs)]
        (ln, ld), (rn, rd) = sides if groups is None else [_group_sums(*s, *groups) for s in sides]
        differ = ln * rd != rn * ld
    else:  # a zero defect exceeds a negative tol; floats are compared by Python
        differ = np.ones(rep.checks, dtype=bool)
    suspects = np.flatnonzero(differ)
    if key is not None:
        suspects = suspects[np.argsort(key[suspects], kind="stable")]
    for i in suspects.tolist():
        if groups is None:
            l, r = _product(lhs, i), _product(rhs, i)
        else:  # the sums of check i's terms, in order
            terms = np.flatnonzero(groups[0] == i).tolist()
            l, r = (sum(_product(side, k) for k in terms) for side in (lhs, rhs))
        defect = abs(l - r)
        if defect > tol:
            where, message = describe(i)
            rep.add(kind, where, message, defect)
    return rep


def _product(side: tuple, k: int):
    """Term k of a side on its Python values, each factor applied left to right."""
    (values, index, *_), *rest = side
    v = values[index[k]]
    for values, index, *inverse in rest:
        v = v / values[index[k]] if inverse else v * values[index[k]]
    return v


def modular_homomorphism_report(
    g: FiniteGroupoid, values: Sequence, tol: float = DEFAULT_TOL
) -> ViolationReport:
    """Check values[b∘a] == values[b]·values[a] on every composable pair (b, a)."""
    b, a, ba = g.composable_arrays()
    g.require_composites(b, a, ba)

    def describe(i):
        bi, ai = int(b[i]), int(a[i])
        return (bi, ai), f"not multiplicative on ({g.label(bi)}, {g.label(ai)})"

    return _report_defects("modular-hom", tol, ((values, ba),), ((values, b), (values, a)), describe)


def modular(g: FiniteGroupoid, m: GroupoidMeasure, tol: float = DEFAULT_TOL) -> ModularFunction:
    """Compute δ(α) = μ(α)/μ(α⁻¹) and verify it is a homomorphism.

    Raises NotHaarError naming the first composable pair on which
    δ(β∘α) != δ(β)·δ(α) beyond `tol`; such a measure has no Haar
    disintegration.
    """
    rep = modular_homomorphism_report(g, m.deltas, tol)
    if not rep.ok:
        first = rep.violations[0]
        raise NotHaarError(f"modular function is {first.message}: defect {first.magnitude:.3e}")
    return ModularFunction(g, m.deltas)


def _translation_report(
    g: FiniteGroupoid, kind: str, values: Sequence, tol: float, right: bool, message: str
) -> ViolationReport:
    """The left (right) translation check of ``verify_left_invariance``
    (``verify_right_invariance``); ``message`` takes the labels of β and γ."""
    b, a, ba = g.composable_arrays()
    moved, fixed = (a, b) if right else (b, a)
    gamma = np.asarray(g.inverse, dtype=np.intp)[moved]
    key = gamma * g.n_morphisms + fixed
    g.require_composites(b, a, ba, key)

    def describe(i):
        gm, beta = int(gamma[i]), int(fixed[i])
        return (gm, beta), message.format(g.label(beta), g.label(gm))

    return _report_defects(kind, tol, ((values, fixed),), ((values, ba),), describe, key)


def verify_left_invariance(
    g: FiniteGroupoid, m: GroupoidMeasure, tol: float = DEFAULT_TOL
) -> ViolationReport:
    """Check (L_γ)⋆ν^x = ν^y for every γ: x -> y.

    Atomically: ν^y(β) == ν^x(γ⁻¹∘β) for every β in the target fiber G^y.
    The check (γ, β) is the composable pair (γ⁻¹, β); violations come in
    order of γ, then β.
    """
    message = "ν^y({}) != ν^x(γ⁻¹∘β) for γ={}"
    return _translation_report(g, "left-invariance", m.nu_targets, tol, False, message)


def verify_inverse_relation(
    g: FiniteGroupoid, m: GroupoidMeasure, tol: float = DEFAULT_TOL
) -> ViolationReport:
    """Check τ⋆(ν^x) = δ⁻¹·ν_x: ν^x(α⁻¹) == δ(α)⁻¹·ν_x(α) for every α in G_x."""
    alphas = np.argsort(g.source, kind="stable")  # G_0, then G_1, ...
    lhs = ((m.nu_targets, np.asarray(g.inverse, dtype=np.intp)[alphas]),)

    def describe(i):
        alpha = int(alphas[i])
        return (g.source[alpha], alpha), f"τ⋆ν^x != δ⁻¹ν_x at α={g.label(alpha)}"

    rhs = ((m.nu_sources, alphas), (m.deltas, alphas, -1))
    return _report_defects("inverse-relation", tol, lhs, rhs, describe)


def verify_right_invariance(
    g: FiniteGroupoid, m: GroupoidMeasure, tol: float = DEFAULT_TOL
) -> ViolationReport:
    """Check (R_γ)⋆ν_y = ν_x for γ: x -> y with R_γ(β) = β∘γ.

    Atomically: ν_x(α) == ν_y(α∘γ⁻¹) for every α in the source fiber G_x.
    Holds for unimodular measures (counting); fails by δ(γ) otherwise, which
    is why the exact right-invariant family is δ⁻¹ν rather than ν itself.
    The check (γ, α) is the composable pair (α, γ⁻¹); violations come in
    order of γ, then α.
    """
    message = "ν_x({}) != ν_y(α∘γ⁻¹) for γ={}"
    return _translation_report(g, "right-invariance", m.nu_sources, tol, True, message)


def verify_disintegration(
    g: FiniteGroupoid, m: GroupoidMeasure, subsets=None, tol: float = DEFAULT_TOL
) -> ViolationReport:
    """Check μ(E) == Σ_x ν^x(E ∩ G^x)·μ_Ω(x) for each subset E of morphisms.

    Defaults to the full morphism set plus all singletons; pass an iterable of
    morphism collections to check more.  The subsets are the checks of one
    grouped ``_report_defects`` call, with the terms ν^x(a)·μ_Ω(t(a)) and
    μ(a) for each a in E.
    """
    if subsets is None:
        subsets = [list(g.morphisms())] + [[mid] for mid in g.morphisms()]
    subsets = [list(E) for E in subsets]
    a = np.array([operator.index(x) for E in subsets for x in E], dtype=np.intp)  # no float index
    ids = np.repeat(np.arange(len(subsets)), [len(E) for E in subsets])
    lhs = (m.nu_targets, a), (m.object_weights, np.asarray(g.target, dtype=np.intp)[a])

    def describe(c):
        return tuple(subsets[c]), f"disintegration fails on E={subsets[c]}"

    groups = (ids, len(subsets))
    return _report_defects("disintegration", tol, lhs, ((m.weights, a),), describe, groups=groups)
