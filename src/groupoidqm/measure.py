"""Measures on finite groupoids: disintegration, modular function, invariance checks.

A measure assigns a strictly positive weight μ(α) to every morphism and a
strictly positive weight μ_Ω(x) to every object.  The derived fiber measures
are

    ν^x(α) = μ(α) / μ_Ω(t(α))   on the target fiber G^x,
    ν_x(α) = μ(α) / μ_Ω(s(α))   on the source fiber G_x,

and the modular function is δ(α) = μ(α) / μ(α⁻¹).  A measure is a Haar
measure when the family ν^x is invariant under left translations; the
verifiers below check that and the companion identities exhaustively.

Object weights are user-supplied, defaulting to all ones (the convention under
which the counting measure gives unit fiber weights and matrix-unit
convolution).  ``target_pushforward=True`` instead sets μ_Ω = t⋆μ.  Weights
may be ints, floats or ``fractions.Fraction``; with rational weights every
identity below is checked exactly.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Sequence

from .groupoid import FiniteGroupoid, GroupoidError
from .reports import ViolationReport

DEFAULT_TOL = 1e-12


class NotHaarError(GroupoidError):
    """The measure is not in a Haar class (invariance or modular law fails)."""


def _positive(values, what: str):
    vals = tuple(values)
    for i, v in enumerate(vals):
        if not v > 0:
            raise ValueError(f"{what} {i} must be strictly positive, got {v!r}")
    return vals


def _ints_as_fractions(*groups: tuple) -> tuple:
    """The groups with every int as a Fraction when any value is a Fraction,
    so that quotients of them stay exact; otherwise the groups unchanged."""
    if not any(isinstance(v, Fraction) for g in groups for v in g):
        return groups
    return tuple(tuple(Fraction(v) if isinstance(v, int) else v for v in g) for g in groups)


class GroupoidMeasure:
    """Positive morphism weights plus object weights on a fixed groupoid."""

    __slots__ = ("groupoid", "weights", "object_weights")

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

    @classmethod
    def counting(cls, groupoid: FiniteGroupoid) -> "GroupoidMeasure":
        """All morphism and object weights equal to one."""
        return cls(groupoid, (1,) * groupoid.n_morphisms)

    def nu_target(self, m: int):
        """ν^x(m) for x = t(m)."""
        return self.weights[m] / self.object_weights[self.groupoid.target[m]]

    def nu_source(self, m: int):
        """ν_x(m) for x = s(m)."""
        return self.weights[m] / self.object_weights[self.groupoid.source[m]]

    def delta(self, m: int):
        """Modular ratio μ(m)/μ(m⁻¹) (no homomorphism check; see :func:`modular`)."""
        return self.weights[m] / self.weights[self.groupoid.inverse[m]]

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
    if len(w) != n or g.n_morphisms != n * n:
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


def modular_homomorphism_report(
    g: FiniteGroupoid, values: Sequence, tol: float = DEFAULT_TOL
) -> ViolationReport:
    """Check values[b∘a] == values[b]·values[a] on every composable pair (b, a)."""
    rep = ViolationReport()
    for b, a in g.composable_pairs():
        rep.checks += 1
        defect = abs(values[g.compose(b, a)] - values[b] * values[a])
        if defect > tol:
            where = f"({g.label(b)}, {g.label(a)})"
            rep.add("modular-hom", (b, a), f"not multiplicative on {where}", defect)
    return rep


def modular(g: FiniteGroupoid, m: GroupoidMeasure, tol: float = DEFAULT_TOL) -> ModularFunction:
    """Compute δ(α) = μ(α)/μ(α⁻¹) and verify it is a homomorphism.

    Raises NotHaarError naming the first composable pair on which
    δ(β∘α) != δ(β)·δ(α) beyond `tol`; such a measure has no Haar
    disintegration.
    """
    values = [m.delta(mid) for mid in g.morphisms()]
    rep = modular_homomorphism_report(g, values, tol)
    if not rep.ok:
        first = rep.violations[0]
        raise NotHaarError(f"modular function is {first.message}: defect {first.magnitude:.3e}")
    return ModularFunction(g, values)


def verify_left_invariance(
    g: FiniteGroupoid, m: GroupoidMeasure, tol: float = DEFAULT_TOL
) -> ViolationReport:
    """Check (L_γ)⋆ν^x = ν^y for every γ: x -> y.

    Atomically: ν^y(β) == ν^x(γ⁻¹∘β) for every β in the target fiber G^y.
    """
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


def verify_inverse_relation(
    g: FiniteGroupoid, m: GroupoidMeasure, tol: float = DEFAULT_TOL
) -> ViolationReport:
    """Check τ⋆(ν^x) = δ⁻¹·ν_x: ν^x(α⁻¹) == δ(α)⁻¹·ν_x(α) for every α in G_x."""
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


def verify_right_invariance(
    g: FiniteGroupoid, m: GroupoidMeasure, tol: float = DEFAULT_TOL
) -> ViolationReport:
    """Check (R_γ)⋆ν_y = ν_x for γ: x -> y with R_γ(β) = β∘γ.

    Atomically: ν_x(α) == ν_y(α∘γ⁻¹) for every α in the source fiber G_x.
    Holds for unimodular measures (counting); fails by δ(γ) otherwise, which
    is why the exact right-invariant family is δ⁻¹ν rather than ν itself.
    """
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


def verify_disintegration(
    g: FiniteGroupoid,
    m: GroupoidMeasure,
    subsets=None,
    tol: float = DEFAULT_TOL,
) -> ViolationReport:
    """Check μ(E) == Σ_x ν^x(E ∩ G^x)·μ_Ω(x) for each subset E of morphisms.

    Defaults to the full morphism set plus all singletons; pass an iterable of
    morphism collections to check more.
    """
    rep = ViolationReport()
    if subsets is None:
        subsets = [list(g.morphisms())] + [[mid] for mid in g.morphisms()]
    for E in subsets:
        rep.checks += 1
        E = list(E)
        lhs = sum(m.nu_target(a) * m.object_weights[g.target[a]] for a in E)
        rhs = sum(m.weights[a] for a in E)
        defect = abs(lhs - rhs)
        if defect > tol:
            rep.add("disintegration", tuple(E), f"disintegration fails on E={E}", defect)
    return rep
