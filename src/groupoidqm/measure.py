"""Measures on finite groupoids: disintegration, modular function, invariance checks.

A measure assigns a strictly positive weight μ(α) to every morphism and a
strictly positive weight μ_Ω(x) to every object.  The derived fiber measures
are

    ν^x(α) = μ(α) / μ_Ω(t(α))   on the target fiber G^x,
    ν_x(α) = μ(α) / μ_Ω(s(α))   on the source fiber G_x,

and the modular function is δ(α) = μ(α) / μ(α⁻¹), each built once into a
tuple indexed by morphism that every consumer reads.  With Fraction weights
each entry is one Fraction(p·q', p'·q), with no Fraction operator call; int
weights keep the rule that a quotient is an int where it divides and a
Fraction otherwise, and float weights divide as floats.  A measure is a Haar
measure when the family ν^x is invariant under left translations; the
verifiers below check that and the companion identities exhaustively.

The verifiers are gathers: every check reads its two sides through index
arrays (the composable pairs of ``FiniteGroupoid.composable_arrays`` for the
translation and homomorphism checks).  On ints and Fractions equality is
decided first, exactly, and the defect ``abs(lhs - rhs)`` is computed only
where the two sides differ; on floats and complex values every check
computes its defect in Python.  Exact values have one integer format:
``_parts`` is the one reader of numerators and denominators, which it gives
as object arrays of Python ints.  An equality check cross-multiplies them
entry by entry.  A sum check (``verify_disintegration`` and the function sums
of ``symalgebra.verify_modular_formula``), like a contraction in ``algebra``,
puts each side over the lcm of its denominators (``_over_lcm``) and compares
the two.  Equalities are not put over one lcm: with denominators as far
apart as Δ₂'s on S(G), the scaled numerators grow into multi-digit ints.  A
violation is a defect above the tolerance.

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


def _gather(values, index) -> list:
    return list(map(values.__getitem__, index))


def _products(values, i, j) -> list:
    """values[i[k]] * values[j[k]] for each k; on Fractions one
    Fraction(p·p', q·q') per entry, from numerators and denominators read once."""
    i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
    if not all(isinstance(v, Fraction) for v in values):
        v = np.array(values, dtype=object)
        return (v[i] * v[j]).tolist()
    num, den = _parts(values)
    return list(map(Fraction, (num[i] * num[j]).tolist(), (den[i] * den[j]).tolist()))


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
        if all(isinstance(v, Fraction) for v in w + ow):
            (wn, wd), (on, od) = _parts(w), _parts(ow)
            t, s, inv = (np.asarray(i, dtype=np.intp) for i in (g.target, g.source, g.inverse))
            by = ((on, od, t), (on, od, s), (wn, wd, inv))  # w[k] / q[i[k]], one Fraction each
            tables = (
                tuple(map(Fraction, (wn * qd[i]).tolist(), (wd * qn[i]).tolist())) for qn, qd, i in by
            )
        else:
            by = ((ow, g.target), (ow, g.source), (w, g.inverse))
            tables = (tuple(map(_ratio, w, _gather(q, index))) for q, index in by)
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
) -> ViolationReport:
    """The report of the checks lhs_i == rhs_i, with a violation for each i
    whose defect abs(lhs_i - rhs_i) exceeds tol.

    A term ``(values, index)`` reads values[index[i]] at check i.  ``lhs`` is a
    term; ``rhs`` is a term or ``(x, op, y)`` for two terms and ``op``
    ``operator.mul`` or ``operator.truediv``.  When every operand is an int
    or a Fraction, equality is decided first, exactly, by cross-multiplying
    numerators and denominators, and only the checks that differ get their
    defect computed.  Otherwise every check computes ``abs(lhs - rhs) > tol``
    on the original Python values, as a per-check loop would.  ``describe(i)`` gives
    the violation's ``where`` and message; violations are added in increasing
    ``key`` (default: check order).
    """
    x, op, y = rhs if len(rhs) == 3 else (rhs, None, None)
    terms = (lhs, x) if op is None else (lhs, x, y)
    n_checks = len(lhs[1])
    rep = ViolationReport(checks=n_checks)
    # a value list that several terms read (Δ at b∘a, b and a) is read once
    distinct = {id(values): values for values, _ in terms}
    if tol >= 0 and _is_exact(*distinct.values()):
        differ = ~_exactly_equal(terms, op, distinct)
    else:  # a zero defect exceeds a negative tol; floats are compared by Python
        differ = np.ones(n_checks, dtype=bool)
    suspects = np.flatnonzero(differ)
    if key is not None:
        suspects = suspects[np.argsort(key[suspects], kind="stable")]
    for i in suspects.tolist():
        l, *r = (values[index[i]] for values, index in terms)
        defect = abs(l - (r[0] if op is None else op(*r)))
        if defect > tol:
            where, message = describe(i)
            rep.add(kind, where, message, defect)
    return rep


def _exactly_equal(terms, op, distinct: dict) -> np.ndarray:
    """lhs == rhs per check, cross-multiplied on integer numerators and
    denominators (no gcd); ``distinct`` maps the id of each value list the
    terms read to that list."""
    parts = {key: _parts(values) for key, values in distinct.items()}
    (ln, ld), (xn, xd), *y = [[p[index] for p in parts[id(values)]] for values, index in terms]
    if op is None:
        return ln * xd == xn * ld
    yn, yd = y[0] if op is operator.mul else y[0][::-1]
    return ln * xd * yd == xn * yn * ld


def modular_homomorphism_report(
    g: FiniteGroupoid, values: Sequence, tol: float = DEFAULT_TOL
) -> ViolationReport:
    """Check values[b∘a] == values[b]·values[a] on every composable pair (b, a)."""
    b, a, ba = g.composable_arrays()
    g.require_composites(b, a, ba)

    def describe(i):
        bi, ai = int(b[i]), int(a[i])
        return (bi, ai), f"not multiplicative on ({g.label(bi)}, {g.label(ai)})"

    rhs = ((values, b), operator.mul, (values, a))
    return _report_defects("modular-hom", tol, (values, ba), rhs, describe)


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


def verify_left_invariance(
    g: FiniteGroupoid, m: GroupoidMeasure, tol: float = DEFAULT_TOL
) -> ViolationReport:
    """Check (L_γ)⋆ν^x = ν^y for every γ: x -> y.

    Atomically: ν^y(β) == ν^x(γ⁻¹∘β) for every β in the target fiber G^y.
    The check (γ, β) is the composable pair (γ⁻¹, β); violations come in
    order of γ, then β.
    """
    b, a, ba = g.composable_arrays()
    gamma = np.asarray(g.inverse, dtype=np.intp)[b]
    key = gamma * g.n_morphisms + a
    g.require_composites(b, a, ba, key)

    def describe(i):
        gm, beta = int(gamma[i]), int(a[i])
        return (gm, beta), f"ν^y({g.label(beta)}) != ν^x(γ⁻¹∘β) for γ={g.label(gm)}"

    terms = (m.nu_targets, a), (m.nu_targets, ba)
    return _report_defects("left-invariance", tol, *terms, describe, key)


def verify_inverse_relation(
    g: FiniteGroupoid, m: GroupoidMeasure, tol: float = DEFAULT_TOL
) -> ViolationReport:
    """Check τ⋆(ν^x) = δ⁻¹·ν_x: ν^x(α⁻¹) == δ(α)⁻¹·ν_x(α) for every α in G_x."""
    alphas = np.argsort(g.source, kind="stable")  # G_0, then G_1, ...
    lhs = (m.nu_targets, np.asarray(g.inverse, dtype=np.intp)[alphas])

    def describe(i):
        alpha = int(alphas[i])
        return (g.source[alpha], alpha), f"τ⋆ν^x != δ⁻¹ν_x at α={g.label(alpha)}"

    rhs = ((m.nu_sources, alphas), operator.truediv, (m.deltas, alphas))
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
    b, a, ba = g.composable_arrays()
    gamma = np.asarray(g.inverse, dtype=np.intp)[a]
    key = gamma * g.n_morphisms + b
    g.require_composites(b, a, ba, key)

    def describe(i):
        gm, alpha = int(gamma[i]), int(b[i])
        return (gm, alpha), f"ν_x({g.label(alpha)}) != ν_y(α∘γ⁻¹) for γ={g.label(gm)}"

    terms = (m.nu_sources, b), (m.nu_sources, ba)
    return _report_defects("right-invariance", tol, *terms, describe, key)


def verify_disintegration(
    g: FiniteGroupoid,
    m: GroupoidMeasure,
    subsets=None,
    tol: float = DEFAULT_TOL,
) -> ViolationReport:
    """Check μ(E) == Σ_x ν^x(E ∩ G^x)·μ_Ω(x) for each subset E of morphisms.

    Defaults to the full morphism set plus all singletons; pass an iterable of
    morphism collections to check more.  On ints and Fractions with tol >= 0 a
    subset's two sums are compared on integer numerators, and the defect is
    computed only where they differ.
    """
    rep = ViolationReport()
    if subsets is None:
        subsets = [list(g.morphisms())] + [[mid] for mid in g.morphisms()]
    nu, ow, w = m.nu_targets, m.object_weights, m.weights
    exact = tol >= 0 and _is_exact(nu, ow, w)
    if exact:  # the terms ν^x(a)·μ_Ω(t(a)) and μ(a), as numerators and denominators
        (nn, nd), (on, od) = _parts(nu), _parts(ow)
        t = np.asarray(g.target, dtype=np.intp)
        terms = (nn * on[t], nd * od[t]), _parts(w)
    for E in subsets:
        rep.checks += 1
        E = list(E)
        if exact:
            (ln, ld), (rn, rd) = (_over_lcm(num[E], den[E]) for num, den in terms)
            if sum(ln.tolist()) * rd == sum(rn.tolist()) * ld:
                continue
        lhs = sum(nu[a] * ow[g.target[a]] for a in E)
        rhs = sum(w[a] for a in E)
        defect = abs(lhs - rhs)
        if defect > tol:
            rep.add("disintegration", tuple(E), f"disintegration fails on E={E}", defect)
    return rep
