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
the arithmetic is exact, and otherwise on complex128.  Exact arithmetic runs on
integer numerators and denominators (``measure._Table``; int64 where
``measure._narrowed`` bounds it, else Python ints), with no Fraction operator
call: ``contract`` puts each operand over the lcm of its denominators
(``measure._over_lcm``), ``convolve``, ``involute`` and ``left_regular_matrix``
multiply their terms by ``measure._product_parts``, and ``convolve`` sums them
over their one lcm by ``measure._group_sums``; each output is built once.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import eigen
# every solve here reads eigen.hermitian_eigh when it is made, so one binding
# sees them all; this one is not called, but perfbench's tracer test pins it
from .eigen import hermitian_defect, hermitian_eigh  # noqa: F401
from .groupoid import FiniteGroupoid, GroupoidError
from .measure import GroupoidMeasure, _group_sums, _is_exact, _narrowed, _over_lcm, _product_parts, _Table

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
    """[[re, im], ...] as complex numbers; TypeError on a boolean part, and
    ValueError on a value that is not finite or too large for a float."""
    try:
        values = [complex(re, im) for re, im in pairs]
    except OverflowError as exc:
        raise ValueError(f"value too large for a float: {exc}") from exc
    if any(type(re) is bool or type(im) is bool for re, im in pairs):
        raise TypeError("a boolean is not a number")
    for v in values:
        if not cmath.isfinite(v):
            raise ValueError(f"non-finite value {v}")
    return values


def value_array(values) -> np.ndarray:
    """The values as a 1-D array: object dtype when every value is exact
    (an int or a Fraction), so that exact inputs keep exact outputs, and
    complex128 otherwise.  Contract such arrays with :func:`contract`, which
    keeps the object path off per-entry Fraction arithmetic."""
    return np.array(values, dtype=object if _is_exact(values) else np.complex128)


def _value_arrays(*value_lists) -> list[np.ndarray]:
    """The lists as arrays of one ``value_array`` dtype: object only when every
    value of every list is exact, so weights take the dtype of the values they
    multiply and float arithmetic never mixes with Fractions."""
    joined = value_array([v for vs in value_lists for v in vs])
    return np.split(joined, np.cumsum([len(vs) for vs in value_lists[:-1]]))


def contract(subscripts: str, *operands) -> np.ndarray:
    """``np.einsum(subscripts, *operands)``, with one Fraction per output on
    exact inputs.  An operand is an array or a measure table in integer form
    (``measure._Table.reshape``), which stands for an object array.

    When every operand is an object array of ints and Fractions and one of
    them holds a Fraction, each operand is scaled to integer numerators over
    the lcm of its denominators; the operands whose indices all occur in the
    first one's weight it by broadcasting, the rest are contracted with it,
    and each output is one Fraction over the product of those lcms.  So
    every output is a Fraction, also where all of its terms are ints.  The
    integers are int64 where ``measure._narrowed`` bounds the contraction.
    Otherwise this is plain ``np.einsum``: int-only inputs give ints,
    complex128 inputs complex128.  Exact arrays beside a complex128 operand
    are cast to complex128 first, so a mixed contraction runs on complex128,
    not on objects.
    """
    if not all(isinstance(op, _Table) or op.dtype == object for op in operands):
        if any(op.dtype == np.complex128 for op in operands):
            operands = [op.astype(np.complex128, copy=False) for op in operands]
        return np.einsum(subscripts, *operands)
    tables = [t if isinstance(t, _Table) else _Table(t.ravel().tolist()).reshape(t.shape) for t in operands]
    if not (all(t.num is not None for t in tables) and any(t.fraction.any() for t in tables)):
        arrays = (
            np.array(op.read(), dtype=object).reshape(op.fraction.shape) if isinstance(op, _Table) else op
            for op in operands
        )
        return np.einsum(subscripts, *arrays)
    inputs, output = subscripts.split("->")
    specs = inputs.split(",")
    scaled, lcms, bits = zip(*(_over_lcm(t) for t in tables))
    sizes = {c: n for spec, a in zip(specs, scaled) for c, n in zip(spec[::-1], a.shape[::-1])}
    ops = _narrowed(scaled, *bits, terms=math.prod(n for c, n in sizes.items() if c not in output + "."))
    weights = [k for k, spec in enumerate(specs) if k == 0 or "." not in spec and set(spec) <= set(specs[0])]
    rest = [k for k in range(1, len(specs)) if k not in weights]
    first = np.einsum(",".join(specs[k] for k in weights) + "->" + specs[0], *(ops[k] for k in weights))
    contraction = ",".join([specs[0]] + [specs[k] for k in rest]) + "->" + output
    out = np.einsum(contraction, first, *(ops[k] for k in rest))
    denominator = math.prod(lcms)
    exact = [Fraction(v, denominator) for v in out.ravel().tolist()]
    return np.array(exact, dtype=object).reshape(out.shape)


def _require_one_value_per_morphism(m: GroupoidMeasure, *value_lists) -> None:
    """GroupoidError unless each list has one value per morphism of m's
    groupoid: a gather would read a longer or shorter list without error."""
    n = m.groupoid.n_morphisms
    for values in value_lists:
        if len(values) != n:
            raise GroupoidError(
                f"need one value per morphism of the measure's groupoid: {n}, got {len(values)}"
            )


def _translation_pairs(m: GroupoidMeasure, nonzero: np.ndarray):
    """The composable pairs (β, γ) with nonzero[β], in pair order, as arrays
    (β, γ, β∘γ): a zero f(β) adds no term, not even a zero."""
    b, a, ba = m.groupoid.composable_arrays()
    m.groupoid.require_composites(b, a, ba)
    pairs = np.flatnonzero(nonzero[b])
    return b[pairs], a[pairs], ba[pairs]


def _exact(*tables: _Table) -> bool:
    """Whether every value is an int or a Fraction (a table not yet read holds only those)."""
    return all(t.num is not None and {type(v) for v in t.values or ()} <= {int, Fraction} for t in tables)


def convolve(f: AlgebraElement, g: AlgebraElement, m: GroupoidMeasure) -> AlgebraElement:
    """(f ⋆ g)(α) = Σ_{β ∈ G^{t(α)}} f(β) g(β⁻¹∘α) ν^{t(α)}(β): the terms
    f(β)ν(β)·g(γ) at α = β∘γ, summed by α.

    A zero f(β) adds no term, so an output with no term is the int 0.  On
    ints and Fractions the terms are products of integer numerators, and an
    output is a Fraction iff one of its terms has a Fraction factor, else an
    int; other values take the ``value_array`` dtype of all three lists.
    """
    _require_one_value_per_morphism(m, f.values, g.values)
    tables = (_Table(f.values), m._tables["nu_targets"], _Table(g.values))
    if _exact(*tables):
        return AlgebraElement(m.groupoid, _convolve_numerators(m, *tables))
    fv, nu, gv = _value_arrays(f.values, m.nu_targets, g.values)
    b, a, ba = _translation_pairs(m, fv != 0)
    out = np.zeros(m.groupoid.n_morphisms, dtype=fv.dtype)
    np.add.at(out, ba, (fv * nu)[b] * gv[a])
    return AlgebraElement(m.groupoid, out.tolist())


def _convolve_numerators(m: GroupoidMeasure, f: _Table, nu: _Table, g: _Table) -> tuple:
    """``convolve`` on int and Fraction values, with no Fraction arithmetic."""
    b, a, ba = _translation_pairs(m, f.num != 0)
    sums = _group_sums(_product_parts(((f, b), (nu, b), (g, a))), ba, m.groupoid.n_morphisms)
    sums.fraction = np.zeros(m.groupoid.n_morphisms, dtype=bool)
    sums.fraction[ba[(f.fraction | nu.fraction)[b] | g.fraction[a]]] = True  # a Fraction factor in a term
    return sums.read()


def involute(f: AlgebraElement, m: GroupoidMeasure) -> AlgebraElement:
    """f*(α) = δ(α)⁻¹ conj(f(α⁻¹)); an antilinear involution with (f⋆g)* = g*⋆f*.
    δ(α)⁻¹ = δ(α⁻¹), a quotient of weights rather than a reciprocal; on ints
    and Fractions each output is built once, from the integer product."""
    _require_one_value_per_morphism(m, f.values)
    inverse = np.asarray(m.groupoid.inverse, dtype=np.intp)
    ft, delta = _Table(f.values), m._tables["deltas"]
    if _exact(ft, delta):  # their own conjugates
        product = _product_parts(((delta, inverse), (ft, inverse)))
        product.fraction = (delta.fraction | ft.fraction)[inverse]
        return AlgebraElement(m.groupoid, product.read())
    fv, dl = _value_arrays(f.values, m.deltas)
    return AlgebraElement(m.groupoid, (dl[inverse] * np.conj(fv[inverse])).tolist())


def left_regular_matrix(f: AlgebraElement, m: GroupoidMeasure) -> np.ndarray:
    """Matrix of ψ -> f⋆ψ in the basis {δ_α} of L²(G, μ).

    Column γ is f⋆δ_γ, whose one term at α (when s(α) = s(γ)) comes from
    β = α∘γ⁻¹: the entry is f(β) ν^{t(α)}(β), on ints and Fractions the
    integer quotient num / den, rounded once as complex(Fraction) rounds.
    """
    n = m.groupoid.n_morphisms
    _require_one_value_per_morphism(m, f.values)
    mat = np.zeros((n, n), dtype=np.complex128)
    ft, nu = _Table(f.values), m._tables["nu_targets"]
    if _exact(ft, nu):
        b, a, ba = _translation_pairs(m, ft.num != 0)
        terms = _product_parts(((ft, b), (nu, b)))
        mat[ba, a] = [p / q for p, q in zip(terms.num.tolist(), terms.den.tolist())]
    else:
        fv, nuv = _value_arrays(f.values, m.nu_targets)
        b, a, ba = _translation_pairs(m, fv != 0)
        mat[ba, a] = (fv * nuv)[b]
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
    ``min_eigenvalue``, no witness and no eigenpairs; otherwise the verdict's
    one solve gives the ascending ``eigenvalues``, and ``matrix`` is the
    matrix solved.  ``eigenvectors`` (as columns) and ``witness``, an
    eigenvector of the least eigenvalue, are solved from ``matrix`` on first
    read, by one ``eigen.hermitian_eigh`` call kept for later reads, unless
    the solve already gave them."""

    ok: bool
    min_eigenvalue: float
    hermitian_defect: float
    eigenvalues: np.ndarray | None = None
    matrix: np.ndarray | None = field(default=None, repr=False)
    _eigenvectors: np.ndarray | None = field(default=None, repr=False)

    def __bool__(self) -> bool:
        return self.ok

    @property
    def eigenvectors(self) -> np.ndarray | None:
        if self._eigenvectors is None and self.matrix is not None:
            self._eigenvectors = eigen.hermitian_eigh(self.matrix)[1]
        return self._eigenvectors

    @property
    def witness(self) -> np.ndarray | None:
        v = self.eigenvectors
        return None if v is None else v[:, 0]


def psd_verdict(matrix, tol: float = PSD_TOL) -> PSDResult:
    """Hermitian PSD within tol: defect <= tol and min eigenvalue >= -tol.
    Every positivity verdict in the package is this decision on some matrix,
    made on one eigenvalues-only solve."""
    matrix = np.array(matrix, dtype=np.complex128)  # a copy, for an eigenvector read later
    return _psd_result(
        matrix, hermitian_defect(matrix), lambda: eigen.hermitian_eigh(matrix, vectors=False), tol
    )


def _psd_result(matrix: np.ndarray, defect: float, eigh, tol: float) -> PSDResult:
    """The verdict on ``matrix``, whose Hermitian defect is ``defect``: above
    tol it fails unsolved, otherwise ``eigh()`` gives its eigenvalues w and
    eigenvectors v, or None for v to solve them only when read."""
    if defect > tol:
        return PSDResult(False, float("nan"), defect)
    w, v = eigh()
    return PSDResult(bool(w[0] >= -tol), float(w[0]), defect, w, matrix, v)


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
    return positive_type_verdicts([phi], tol)[0]


def positive_type_verdicts(
    phis: Sequence[AlgebraElement], tol: float = PSD_TOL
) -> list[PositiveTypeResult]:
    """``is_positive_type`` of each function, with one solve per distinct gather.

    The functions on one groupoid are decided together, as the rows of one
    complex128 array, by ``_PositiveTypeStack``; groupoids are taken in the
    order of their first function.
    """
    phis = list(phis)
    by_groupoid: dict[int, list[int]] = {}
    for i, phi in enumerate(phis):
        by_groupoid.setdefault(id(phi.groupoid), []).append(i)
    results: list[PositiveTypeResult] = [None] * len(phis)  # type: ignore[list-item]
    for members in by_groupoid.values():
        values = np.array([phis[i].values for i in members], dtype=np.complex128)
        stack = _PositiveTypeStack(phis[members[0]].groupoid, values, tol)
        for p, i in enumerate(members):
            results[i] = stack.result(p)
    return results


class _PositiveTypeStack:
    """``is_positive_type`` of each row of an (F, N) complex128 array of
    functions on the groupoid G, decided as arrays.

    Each distinct source-fiber gather of G reads one (F, d, d) stack of
    blocks, one per function, and each stack is decided by one
    ``_StackedSolve``.  A function's verdict is that of a walk over its
    objects in order: the first failing block decides, and otherwise the
    first block with the least eigenvalue does.  Objects that share a gather
    share its verdicts, so only the first object of each gather can decide,
    and the gathers are in the order of their first objects: the walk is one
    over gathers.  ``ok`` holds the verdicts, and ``result(p)`` builds row
    p's ``PositiveTypeResult`` from the stacked solves, with no solve of its
    own until its eigenvectors are read.  A non-finite block raises
    ValueError here when, and only when, the walk of its row reaches it; a
    table that lacks a composite that a block reads raises
    NotComposableError before any block is decided.
    """

    __slots__ = ("heads", "blocks", "solves", "ok")

    def __init__(self, G: FiniteGroupoid, values: np.ndarray, tol: float):
        indices, self.heads = _fiber_gathers(G)
        self.blocks = [values[:, idx] for idx in indices]
        self.solves = [_StackedSolve(block, tol) for block in self.blocks]
        self.ok = np.ones(len(values), dtype=bool)
        for solve in self.solves:
            self.ok &= solve.ok
        if any(solve.unsolvable.any() for solve in self.solves):
            for p in range(len(values)):
                u = self._deciding(p)
                if self.solves[u].unsolvable[p]:
                    psd_verdict(self.blocks[u][p], tol)  # not finite: the solver raises

    def _deciding(self, p: int) -> int:
        """The gather of row p's deciding block."""
        for u, solve in enumerate(self.solves):
            if not solve.ok[p]:
                return u
        return min(range(len(self.solves)), key=lambda u: self.solves[u].least[p])

    def result(self, p: int) -> PositiveTypeResult:
        if not self.solves:  # no block to walk
            return PositiveTypeResult(True, float("inf"), 0.0)
        u = self._deciding(p)
        x, fiber = self.heads[u]
        verdict = self.solves[u].verdict(p)
        return PositiveTypeResult(**vars(verdict), object_index=x, fiber=fiber, block=self.blocks[u][p])


@functools.lru_cache(maxsize=64)
def _fiber_gathers(G: FiniteGroupoid):
    """The source-fiber blocks of G as gathers, built once per groupoid (its
    tables are read-only): the distinct index arrays, in the order of the
    first object with a nonempty source fiber that reads each, and that
    object x with its fiber as (x, fiber).  values[indices[u]] is x's block
    M[j, k] = phi(α_j ∘ α_k⁻¹), read through ``G.composites``, and later
    objects whose blocks read the same morphisms share u.  A table that
    lacks a composite that some block reads raises NotComposableError here,
    for the first such object in object order."""
    inverse = np.asarray(G.inverse, dtype=np.intp)
    indices: list[np.ndarray] = []
    heads = []
    seen: set[bytes] = set()
    for x in G.objects():
        fiber = G.source_fiber(x)
        if not fiber:
            continue
        js = np.array(fiber, dtype=np.intp)
        idx = G.composites(js[:, None], inverse[js])
        key = idx.tobytes()  # the bytes fix the order too
        if key not in seen:
            seen.add(key)
            idx.flags.writeable = False
            indices.append(idx)
            heads.append((x, fiber))
    return tuple(indices), tuple(heads)


class _StackedSolve:
    """``psd_verdict`` of each block of an (F, d, d) stack, as arrays, with one
    eigenvalues-only ``hermitian_eigh`` call for the blocks that are finite
    and Hermitian within tol.  ``least`` holds their least eigenvalues (NaN
    for the other blocks) and ``ok`` every block's verdict.  ``unsolvable``
    marks the non-finite blocks within tol, which only ``psd_verdict``
    decides (its solver raises ValueError); ``verdict(p)`` is the PSDResult
    of any other block p, which solves its block's eigenvectors only when
    they are read."""

    __slots__ = ("stack", "tol", "defects", "solved", "w", "least", "ok", "unsolvable")

    def __init__(self, stack: np.ndarray, tol: float):
        with np.errstate(invalid="ignore"):  # inf - inf: a NaN defect, left to the solver
            self.defects = np.abs(stack - stack.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        finite = np.isfinite(self.defects)  # a non-finite entry makes the defect inf or NaN
        rejected = self.defects > tol
        self.solved = finite & ~rejected
        self.w = None
        self.least = np.full(len(stack), np.nan)
        if self.solved.any():
            self.w, _ = eigen.hermitian_eigh(stack[self.solved], vectors=False)
            self.least[self.solved] = self.w[:, 0]
        self.ok = self.least >= -tol
        self.unsolvable = ~finite & ~rejected
        self.stack, self.tol = stack, tol

    def verdict(self, p: int) -> PSDResult:
        r = np.count_nonzero(self.solved[:p])
        return _psd_result(self.stack[p], float(self.defects[p]), lambda: (self.w[r], None), self.tol)


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
