"""The convolution *-algebra of a measured groupoid and its left-regular action.

Elements are complex functions on the morphisms.  With a measure μ (fiber
weights ν, modular ratios δ) the operations are

    (f ⋆ g)(α) = Σ_{β ∈ G^{t(α)}} f(β) · g(β⁻¹∘α) · ν^{t(α)}(β)
    f*(α)      = δ(α)⁻¹ · conj(f(α⁻¹))

and the left-regular representation π(f)ψ = f⋆ψ acts on L²(G, μ) with inner
product ⟨ψ, χ⟩ = Σ_α conj(ψ(α)) χ(α) μ(α).  On a pair groupoid with counting
measure the basis map δ_(j,k) -> e_jk identifies everything with the full
matrix algebra.

The operations are gathers over ``FiniteGroupoid.composable_arrays()``.  Values
may be ints, Fractions, floats or complex; when every value and weight is exact
the arithmetic is exact, on ints and Fractions, and otherwise on complex128.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Sequence

import numpy as np

from .eigen import hermitian_defect, hermitian_eigh
from .groupoid import FiniteGroupoid, GroupoidError
from .measure import GroupoidMeasure

PSD_TOL = 1e-10


class NormalizationError(GroupoidError):
    """A state vector family is not normalized."""


class AlgebraElement:
    """A complex-valued function on the morphisms of a fixed groupoid."""

    __slots__ = ("groupoid", "values")

    def __init__(self, groupoid: FiniteGroupoid, values: Sequence):
        if len(values) != groupoid.n_morphisms:
            raise ValueError("need one value per morphism")
        self.groupoid = groupoid
        self.values = list(values)

    @classmethod
    def zeros(cls, g: FiniteGroupoid) -> "AlgebraElement":
        return cls(g, [0] * g.n_morphisms)

    @classmethod
    def delta(cls, g: FiniteGroupoid, m: int) -> "AlgebraElement":
        f = cls.zeros(g)
        f.values[m] = 1
        return f

    @classmethod
    def units_indicator(cls, g: FiniteGroupoid) -> "AlgebraElement":
        """χ_Ω, the indicator of the unit morphisms: the algebra unit."""
        f = cls.zeros(g)
        for x in g.objects():
            f.values[g.unit(x)] = 1
        return f

    @classmethod
    def constant(cls, g: FiniteGroupoid, value=1) -> "AlgebraElement":
        return cls(g, [value] * g.n_morphisms)

    def __getitem__(self, m: int):
        return self.values[m]

    def support(self):
        return [(m, v) for m, v in enumerate(self.values) if v != 0]

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same_parent(other)
        return AlgebraElement(self.groupoid, [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same_parent(other)
        return AlgebraElement(self.groupoid, [a - b for a, b in zip(self.values, other.values)])

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.groupoid, [-a for a in self.values])

    def __mul__(self, scalar) -> "AlgebraElement":
        return AlgebraElement(self.groupoid, [v * scalar for v in self.values])

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.groupoid.n_morphisms == other.groupoid.n_morphisms
            and all(a == b for a, b in zip(self.values, other.values))
        )

    def allclose(self, other: "AlgebraElement", tol: float = 1e-12) -> bool:
        self._same_parent(other)
        return all(abs(a - b) <= tol for a, b in zip(self.values, other.values))

    def _same_parent(self, other: "AlgebraElement") -> None:
        if self.groupoid is not other.groupoid and (
            self.groupoid.n_morphisms != other.groupoid.n_morphisms
        ):
            raise GroupoidError("algebra elements live on different groupoids")

    def to_json(self) -> dict:
        return {"values": complex_values_to_json(self.values)}

    def __repr__(self) -> str:
        nz = self.support()
        return f"AlgebraElement({len(nz)} nonzero of {self.groupoid.n_morphisms})"


def element_from_json(data: dict, g: FiniteGroupoid) -> AlgebraElement:
    try:
        values = complex_values_from_json(data["values"])
    except (KeyError, TypeError, ValueError) as exc:
        raise GroupoidError(f"malformed function JSON: {exc}") from exc
    if len(values) != g.n_morphisms:
        raise GroupoidError(
            f"malformed function JSON: need {g.n_morphisms} values, got {len(values)}"
        )
    return AlgebraElement(g, values)


def complex_values_to_json(values) -> list[list[float]]:
    """Each value as [re, im]; the inverse of complex_values_from_json."""
    return [[c.real, c.imag] for c in map(complex, values)]


def complex_values_from_json(pairs) -> list[complex]:
    """[[re, im], ...] as complex numbers; ValueError on a non-finite one."""
    values = [complex(re, im) for re, im in pairs]
    for v in values:
        if not cmath.isfinite(v):
            raise ValueError(f"non-finite value {v}")
    return values


def value_array(values) -> np.ndarray:
    """The values as a 1-D array: object dtype when every value is exact
    (an int or a Fraction), so that exact inputs keep exact outputs, and
    complex128 otherwise.  Contract such arrays with :func:`contract`, which
    keeps the object path off per-entry Fraction arithmetic."""
    exact = all(isinstance(v, Rational) for v in values)
    return np.array(values, dtype=object if exact else np.complex128)


def _value_arrays(*value_lists) -> list[np.ndarray]:
    """The lists as arrays of one ``value_array`` dtype: object only when every
    value of every list is exact, so weights take the dtype of the values they
    multiply and float arithmetic never mixes with Fractions."""
    joined = value_array([v for vs in value_lists for v in vs])
    return np.split(joined, np.cumsum([len(vs) for vs in value_lists[:-1]]))


def contract(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """``np.einsum(subscripts, *operands)``, with one Fraction per output on
    exact inputs.

    When every operand is an object array of ints and Fractions and one of
    them holds a Fraction, each operand is scaled to integer numerators over
    the lcm of its denominators, the integers are contracted, and each output
    is one Fraction over the product of those lcms.  So every output is a
    Fraction, also where all of its terms are ints.  Otherwise this is plain
    ``np.einsum``: int-only inputs give ints, complex128 inputs complex128.
    """
    if not all(op.dtype == object for op in operands):
        return np.einsum(subscripts, *operands)
    flat = [op.ravel().tolist() for op in operands]
    values = [v for vs in flat for v in vs]
    if not (
        any(isinstance(v, Fraction) for v in values)
        and all(isinstance(v, Rational) for v in values)
    ):
        return np.einsum(subscripts, *operands)
    numerators, denominator = [], 1
    for op, vs in zip(operands, flat):
        lcm = math.lcm(*(int(v.denominator) for v in vs))
        scaled = [int(v.numerator) * (lcm // int(v.denominator)) for v in vs]
        numerators.append(np.array(scaled, dtype=object).reshape(op.shape))
        denominator *= lcm
    out = np.einsum(subscripts, *numerators)
    exact = [Fraction(v, denominator) for v in out.ravel().tolist()]
    return np.array(exact, dtype=object).reshape(out.shape)


def load_element(path: str, g: FiniteGroupoid) -> AlgebraElement:
    with open(path) as fh:
        return element_from_json(json.load(fh), g)


def _left_translations(f: AlgebraElement, m: GroupoidMeasure, *value_lists):
    """The terms f(β)ν^{t(β)}(β) of ψ -> f⋆ψ at (β∘γ, γ), one per composable
    pair (β, γ) with f(β) != 0, in pair order, as (rows, columns, terms),
    followed by ``value_lists`` as arrays of the terms' dtype."""
    b, a, ba = m.groupoid.composable_arrays()
    m.groupoid.require_composites(b, a, ba)
    fv, nu, *others = _value_arrays(f.values, m.nu_targets, *value_lists)
    pairs = np.flatnonzero(fv[b] != 0)  # a zero f(β) adds no term, not even a zero
    return (ba[pairs], a[pairs], (fv * nu)[b[pairs]], *others)


def convolve(f: AlgebraElement, g: AlgebraElement, m: GroupoidMeasure) -> AlgebraElement:
    """(f ⋆ g)(α) = Σ_{β ∈ G^{t(α)}} f(β) g(β⁻¹∘α) ν^{t(α)}(β): the terms
    f(β)ν(β)·g(γ) at α = β∘γ, summed by α."""
    rows, cols, terms, gv = _left_translations(f, m, g.values)
    out = np.zeros(m.groupoid.n_morphisms, dtype=terms.dtype)
    np.add.at(out, rows, terms * gv[cols])
    return AlgebraElement(m.groupoid, out.tolist())


def involute(f: AlgebraElement, m: GroupoidMeasure) -> AlgebraElement:
    """f*(α) = δ(α)⁻¹ conj(f(α⁻¹)); an antilinear involution with (f⋆g)* = g*⋆f*."""
    inverse = np.asarray(m.groupoid.inverse, dtype=np.intp)
    fv, delta = _value_arrays(f.values, m.deltas)
    # δ(α)⁻¹ = δ(α⁻¹), a quotient of weights rather than a reciprocal
    return AlgebraElement(m.groupoid, (delta[inverse] * np.conj(fv[inverse])).tolist())


def left_regular_matrix(f: AlgebraElement, m: GroupoidMeasure) -> np.ndarray:
    """Matrix of ψ -> f⋆ψ in the basis {δ_α} of L²(G, μ).

    Column γ is f⋆δ_γ, whose one term at α (when s(α) = s(γ)) comes from
    β = α∘γ⁻¹: the entry is f(β) ν^{t(α)}(β).
    """
    n = m.groupoid.n_morphisms
    rows, cols, terms = _left_translations(f, m)
    mat = np.zeros((n, n), dtype=np.complex128)
    mat[rows, cols] = terms
    return mat


def inner(psi: AlgebraElement, chi: AlgebraElement, m: GroupoidMeasure) -> complex:
    """⟨ψ, χ⟩ = Σ_α conj(ψ(α)) χ(α) μ(α), antilinear in the first slot."""
    return sum(
        psi.values[a].conjugate() * chi.values[a] * m.weights[a]
        for a in m.groupoid.morphisms()
    )


def norm_sq(psi: AlgebraElement, m: GroupoidMeasure):
    return sum(abs(psi.values[a]) ** 2 * m.weights[a] for a in m.groupoid.morphisms())


@dataclass
class PSDResult:
    """The verdict of ``psd_verdict``: a defect above tol fails with a NaN
    ``min_eigenvalue``, no witness and no eigenpairs; otherwise the solve is
    kept as ascending ``eigenvalues`` and the columns of ``eigenvectors``, and
    ``witness`` is an eigenvector of ``min_eigenvalue``."""

    ok: bool
    min_eigenvalue: float
    hermitian_defect: float
    witness: np.ndarray | None = None
    eigenvalues: np.ndarray | None = None
    eigenvectors: np.ndarray | None = None

    def __bool__(self) -> bool:
        return self.ok


def psd_verdict(matrix, tol: float = PSD_TOL) -> PSDResult:
    """Hermitian PSD within tol: defect <= tol and min eigenvalue >= -tol.
    Every positivity verdict in the package is this decision on some matrix."""
    defect = hermitian_defect(matrix)
    if defect > tol:
        return PSDResult(False, float("nan"), defect)
    w, v = hermitian_eigh(matrix)
    return PSDResult(bool(w[0] >= -tol), float(w[0]), defect, v[:, 0], w, v)


@dataclass
class PositiveTypeResult(PSDResult):
    """The verdict of the deciding block: the matrix ``block`` over the source
    fiber ``fiber`` of object ``object_index`` that failed first in object
    order or, when every block passes, has the smallest eigenvalue."""

    object_index: int | None = None
    fiber: tuple[int, ...] | None = None
    block: np.ndarray | None = None


def is_positive_type(phi: AlgebraElement, tol: float = PSD_TOL) -> PositiveTypeResult:
    """Decide whether phi is of positive type.

    For every object x the matrix M[j, k] = phi(α_j ∘ α_k⁻¹) over the source
    fiber α_j, α_k ∈ G_x must be positive semidefinite (these blocks exhaust
    the defining quadratic form, which only pairs morphisms with equal
    sources).  Fails with the offending block and an eigenvector witness.
    """
    G = phi.groupoid
    _, a, ba = G.composable_arrays()
    inverse, target = (np.asarray(t, dtype=np.intp) for t in (G.inverse, G.target))
    # the pairs (·, α⁻¹) are contiguous and run over G_{t(α⁻¹)} in fiber order
    starts = np.searchsorted(a, inverse)
    values = np.array(phi.values, dtype=np.complex128)
    worst = PositiveTypeResult(True, float("inf"), 0.0)
    seen: set[bytes] = set()
    for x in G.objects():
        fiber = G.source_fiber(x)
        if not fiber:
            continue
        js = np.array(fiber, dtype=np.intp)
        # column j reads a_i∘a_j⁻¹ from the pairs (a_i, a_j⁻¹), in G_x when t(a_j⁻¹) = x
        read = ba.take(starts[js] + np.arange(len(js))[:, None], mode="clip")
        idx = np.where(target[inverse[js]] == x, read, -1)  # -1: a malformed inverse
        G.require_composites(js[:, None], inverse[js], idx)
        block = values[idx]
        key = block.tobytes()
        if key in seen:
            continue
        seen.add(key)
        verdict = psd_verdict(block, tol)
        if not verdict.ok or verdict.min_eigenvalue < worst.min_eigenvalue:
            worst = PositiveTypeResult(
                **vars(verdict), object_index=x, fiber=fiber, block=block
            )
        if not worst.ok:
            return worst
    return worst


def state_normalization(phi: AlgebraElement, m: GroupoidMeasure):
    """Σ_x phi(1_x)·μ_Ω(x): equals one for trace-one states on pair groupoids."""
    G = phi.groupoid
    return sum(phi.values[G.unit(x)] * m.object_weights[x] for x in G.objects())


class StateFunction:
    """A positive-type function normalized to Σ_x φ(1_x) μ_Ω(x) = 1."""

    __slots__ = ("function", "measure")

    def __init__(self, function: AlgebraElement, measure: GroupoidMeasure, tol: float = PSD_TOL):
        check = is_positive_type(function, tol)
        if not check.ok:
            raise GroupoidError(
                f"not a positive-type function (min eigenvalue {check.min_eigenvalue})"
            )
        norm = state_normalization(function, measure)
        if abs(norm - 1) > tol:
            raise NormalizationError(f"state normalization is {norm}, expected 1")
        self.function = function
        self.measure = measure


def evaluate_state(
    xi_list: Sequence[AlgebraElement],
    f: AlgebraElement,
    m: GroupoidMeasure,
    tol: float = 1e-12,
) -> complex:
    """ω(f) = Σ_i ⟨ξ_i, π(f) ξ_i⟩ for a normal state given by L² vectors ξ_i.

    Requires Σ_i ‖ξ_i‖² = 1 within tol.
    """
    total = sum(norm_sq(xi, m) for xi in xi_list)
    if abs(total - 1) > tol:
        raise NormalizationError(f"Σ‖ξ‖² = {total}, expected 1")
    return sum(inner(xi, convolve(f, xi, m), m) for xi in xi_list)


def state_function(
    xi_list: Sequence[AlgebraElement], m: GroupoidMeasure, tol: float = 1e-12
) -> AlgebraElement:
    """The function α -> ω(δ_α) attached to the normal state of ξ_list."""
    G = m.groupoid
    values = [
        evaluate_state(xi_list, AlgebraElement.delta(G, a), m, tol) for a in G.morphisms()
    ]
    return AlgebraElement(G, values)
