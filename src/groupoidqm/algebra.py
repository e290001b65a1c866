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
over their one lcm by ``measure._group_sums``.  An element holds one form
of its values for its life, which every kernel reads as it is: an exact
output of ``convolve`` or ``involute`` its integer form, a complex128 output
a read-only complex128 array, and given values their tuple, which the first
kernel that reads its integer form parses once.  ``values`` is a tuple,
built from the form once, and reading it changes no form.
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
# every solve reads eigen.hermitian_eigh; this binding is for perfbench's tracer test
from .eigen import hermitian_defect, hermitian_eigh  # noqa: F401
from .groupoid import FiniteGroupoid, GroupoidError
from .measure import GroupoidMeasure, _group_sums, _is_exact, _narrowed, _over_lcm, _product_parts, _Table

PSD_TOL = 1e-10


class _Values:
    """The values of a function, held in one form for its life, which kernels
    read as it is: a tuple of the values given, a ``measure._Table`` (the
    integer form an exact kernel output computed) or a read-only complex128
    array (a copy of an array given).  The first kernel that reads the
    integer form of a tuple parses it once into the ``_Table`` of that tuple
    and keeps it.  ``values`` is that tuple, or the table's, or the array's
    as a tuple built once; ``_like`` makes sums and multiples."""

    __slots__ = ("_form", "_values")

    def _hold(self, values) -> None:
        self._values = None
        if type(values) is np.ndarray and values.dtype == np.complex128:
            values = values.copy()
            values.flags.writeable = False
        elif type(values) is not _Table:
            self._values = values = tuple(values)
        self._form = values

    @property
    def values(self) -> tuple:
        if self._values is None:
            form = self._form
            self._values = tuple(form.tolist()) if type(form) is np.ndarray else form.read()
        return self._values

    def _integer_form(self) -> _Table:
        if type(self._form) is tuple:  # parsed once and kept
            self._form = _Table(self._form)
        return self._form if type(self._form) is _Table else _Table(self._form)

    def _array_form(self) -> np.ndarray:
        """The held array, or ``value_array`` of the values."""
        form = self._form
        return form if type(form) is np.ndarray else value_array(self.values)

    def __add__(self, other):
        self._same_parent(other)
        return self._like([a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        self._same_parent(other)
        return self._like([a - b for a, b in zip(self.values, other.values)])

    def __mul__(self, scalar):
        return self._like([v * scalar for v in self.values])

    __rmul__ = __mul__

    def allclose(self, other, tol: float = 1e-12) -> bool:
        self._same_parent(other)
        return all(abs(a - b) <= tol for a, b in zip(self.values, other.values))


class AlgebraElement(_Values):
    """A complex-valued function on the morphisms of a fixed groupoid."""

    __slots__ = ("groupoid",)

    def __init__(self, groupoid: FiniteGroupoid, values: Sequence):
        if len(values) != groupoid.n_morphisms:
            raise ValueError("need one value per morphism")
        self.groupoid = groupoid
        self._hold(values)

    @classmethod
    def zeros(cls, g: FiniteGroupoid) -> "AlgebraElement":
        return cls(g, [0] * g.n_morphisms)

    @classmethod
    def delta(cls, g: FiniteGroupoid, m: int) -> "AlgebraElement":
        return cls(g, [int(a == m) for a in g.morphisms()])

    @classmethod
    def units_indicator(cls, g: FiniteGroupoid) -> "AlgebraElement":
        """χ_Ω, the indicator of the unit morphisms: the algebra unit."""
        units = {g.unit(x) for x in g.objects()}
        return cls(g, [int(a in units) for a in g.morphisms()])

    @classmethod
    def constant(cls, g: FiniteGroupoid, value=1) -> "AlgebraElement":
        return cls(g, [value] * g.n_morphisms)

    def __getitem__(self, m: int):
        return self.values[m]

    def support(self):
        return [(m, v) for m, v in enumerate(self.values) if v != 0]

    def _like(self, values) -> "AlgebraElement":
        return AlgebraElement(self.groupoid, values)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.groupoid, [-a for a in self.values])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.groupoid.n_morphisms == other.groupoid.n_morphisms
            and all(a == b for a, b in zip(self.values, other.values))
        )

    def _same_parent(self, other: "AlgebraElement") -> None:
        if self.groupoid is not other.groupoid and (
            self.groupoid.n_morphisms != other.groupoid.n_morphisms
        ):
            raise GroupoidError("algebra elements live on different groupoids")

    def to_json(self) -> dict:
        return {"values": complex_values_to_json(self._array_form())}

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
    """Each value as [re, im]; the inverse of complex_values_from_json.  A
    complex128 array is read as its float pairs, with no complex in between."""
    if type(values) is np.ndarray and values.dtype == np.complex128:
        return np.ascontiguousarray(values).view(np.float64).reshape(-1, 2).tolist()
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


def _joined_array(forms) -> np.ndarray:
    """Held forms (``_Values._form``: tuples, tables, arrays) and value tuples as one
    array of one ``value_array`` dtype: object only when every value is exact, so
    weights take the dtype of the values they multiply and never mix floats with Fractions."""
    forms = [f.read() if type(f) is _Table else f for f in forms]
    if any(type(f) is np.ndarray for f in forms):
        return np.concatenate([np.asarray(f, dtype=np.complex128) for f in forms])
    return value_array([v for vs in forms for v in vs])


def _value_arrays(*forms) -> list[np.ndarray]:
    """The forms as arrays of the one dtype of ``_joined_array``."""
    return np.split(_joined_array(forms), np.cumsum([len(f) for f in forms[:-1]]))


def contract(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """``np.einsum(subscripts, *operands)``, with one Fraction per output on
    exact inputs.

    When every operand is an object array of ints and Fractions and one of
    them holds a Fraction, each operand is scaled to integer numerators over
    the lcm of its denominators, the numerators are contracted, and each
    output is one Fraction over the product of those lcms.  So every output
    is a Fraction, also where all of its terms are ints.  The integers are
    int64 where ``measure._narrowed`` bounds the contraction.  Otherwise this
    is plain ``np.einsum``: int-only inputs give ints, complex128 inputs
    complex128.  Exact arrays beside a complex128 operand are cast to
    complex128 first, so a mixed contraction runs on complex128, not on
    objects.
    """
    if not all(op.dtype == object for op in operands):
        if any(op.dtype == np.complex128 for op in operands):
            operands = [op.astype(np.complex128, copy=False) for op in operands]
        return np.einsum(subscripts, *operands)
    tables = [_Table(op.ravel().tolist()) for op in operands]
    if not (all(t.num is not None for t in tables) and any(t.fraction.any() for t in tables)):
        return np.einsum(subscripts, *operands)
    inputs, output = subscripts.split("->")
    scaled, lcms, bits = zip(*(_over_lcm(t) for t in tables))
    scaled = [a.reshape(op.shape) for a, op in zip(scaled, operands)]
    shapes = zip(inputs.split(","), (op.shape for op in operands))
    sizes = {c: n for spec, shape in shapes for c, n in zip(spec[::-1], shape[::-1])}
    ops = _narrowed(scaled, *bits, terms=math.prod(n for c, n in sizes.items() if c not in output + "."))
    out = np.einsum(subscripts, *ops)
    denominator = math.prod(lcms)
    exact = [Fraction(v, denominator) for v in out.ravel().tolist()]
    return np.array(exact, dtype=object).reshape(out.shape)


def _require_one_value_per_morphism(m: GroupoidMeasure, *tables: _Table | tuple) -> None:
    """GroupoidError unless each table or tuple has one value per morphism of m's
    groupoid: a gather would read a longer or shorter one without error."""
    n = m.groupoid.n_morphisms
    for t in tables:
        if len(t) != n:
            raise GroupoidError(f"need one value per morphism of the measure's groupoid: {n}, got {len(t)}")


def _translation_pairs(m: GroupoidMeasure, nonzero: np.ndarray):
    """The composable pairs (β, γ) with nonzero[β], in pair order, as arrays
    (β, γ, β∘γ): a zero f(β) adds no term, not even a zero."""
    b, a, ba = m.groupoid.composable_arrays()
    m.groupoid.require_composites(b, a, ba)
    pairs = np.flatnonzero(nonzero[b])
    return b[pairs], a[pairs], ba[pairs]


def _exact(*tables: _Table) -> bool:
    """Whether every value is an int or a Fraction, as each table recorded when it was made."""
    return all(t.plain for t in tables)


def convolve(f: AlgebraElement, g: AlgebraElement, m: GroupoidMeasure) -> AlgebraElement:
    """(f ⋆ g)(α) = Σ_{β ∈ G^{t(α)}} f(β) g(β⁻¹∘α) ν^{t(α)}(β): the terms
    f(β)ν(β)·g(γ) at α = β∘γ, summed by α.

    A zero f(β) adds no term, so an output with no term is the int 0.  On
    ints and Fractions the terms are products of integer numerators, and an
    output is a Fraction iff one of its terms has a Fraction factor, else an
    int; other values take the ``value_array`` dtype of all three lists.
    """
    ft, gt = f._integer_form(), g._integer_form()
    _require_one_value_per_morphism(m, ft, gt)
    tables = (ft, m._tables["nu_targets"], gt)
    if _exact(*tables):
        return AlgebraElement(m.groupoid, _convolve_numerators(m, *tables))
    fv, nu, gv = _value_arrays(f._form, m.nu_targets, g._form)
    b, a, ba = _translation_pairs(m, fv != 0)
    out = np.zeros(m.groupoid.n_morphisms, dtype=fv.dtype)
    np.add.at(out, ba, (fv * nu)[b] * gv[a])
    return AlgebraElement(m.groupoid, out)


def _convolve_numerators(m: GroupoidMeasure, f: _Table, nu: _Table, g: _Table) -> _Table:
    """``convolve`` on int and Fraction values, with no Fraction arithmetic."""
    b, a, ba = _translation_pairs(m, f.num != 0)
    sums = _group_sums(_product_parts(((f, b), (nu, b), (g, a))), ba, m.groupoid.n_morphisms)
    sums.fraction = np.zeros(m.groupoid.n_morphisms, dtype=bool)
    sums.fraction[ba[(f.fraction | nu.fraction)[b] | g.fraction[a]]] = True  # a Fraction factor in a term
    return sums


def involute(f: AlgebraElement, m: GroupoidMeasure) -> AlgebraElement:
    """f*(α) = δ(α)⁻¹ conj(f(α⁻¹)); an antilinear involution with (f⋆g)* = g*⋆f*.
    δ(α)⁻¹ = δ(α⁻¹), a quotient of weights rather than a reciprocal; on ints
    and Fractions the output is the integer product, read as values on first read."""
    ft, delta = f._integer_form(), m._tables["deltas"]
    _require_one_value_per_morphism(m, ft)
    inverse = np.asarray(m.groupoid.inverse, dtype=np.intp)
    if _exact(ft, delta):  # their own conjugates
        product = _product_parts(((delta, inverse), (ft, inverse)))
        product.fraction = (delta.fraction | ft.fraction)[inverse]
        return AlgebraElement(m.groupoid, product)
    fv, dl = _value_arrays(f._form, m.deltas)
    return AlgebraElement(m.groupoid, dl[inverse] * np.conj(fv[inverse]))


def left_regular_matrix(f: AlgebraElement, m: GroupoidMeasure) -> np.ndarray:
    """Matrix of ψ -> f⋆ψ in the basis {δ_α} of L²(G, μ).

    Column γ is f⋆δ_γ, whose one term at α (when s(α) = s(γ)) comes from
    β = α∘γ⁻¹: the entry is f(β) ν^{t(α)}(β), on ints and Fractions the
    integer quotient num / den, rounded once as complex(Fraction) rounds.
    """
    n = m.groupoid.n_morphisms
    ft, nu = f._integer_form(), m._tables["nu_targets"]
    _require_one_value_per_morphism(m, ft)
    mat = np.zeros((n, n), dtype=np.complex128)
    if _exact(ft, nu):
        b, a, ba = _translation_pairs(m, ft.num != 0)
        terms = _product_parts(((ft, b), (nu, b)))
        mat[ba, a] = [p / q for p, q in zip(terms.num.tolist(), terms.den.tolist())]
    else:
        fv, nuv = _value_arrays(f._form, m.nu_targets)
        b, a, ba = _translation_pairs(m, fv != 0)
        mat[ba, a] = (fv * nuv)[b]
    return mat


@dataclass(frozen=True)
class PSDResult:
    """A PSD verdict on ``matrix``, made by ``_PSDVerdicts``: a Hermitian defect
    above tol fails with a NaN ``min_eigenvalue``, no witness and no
    eigenpairs; otherwise its solve gives the ascending ``eigenvalues``.
    ``eigenvectors`` (as columns) and ``witness``, an eigenvector of the least
    eigenvalue, are solved from ``matrix`` on first read, by one
    ``eigen.hermitian_eigh`` call kept for later reads, unless it gave them.
    Frozen, with read-only arrays: a ``Channel`` shares its ``is_cp`` verdict."""

    ok: bool
    min_eigenvalue: float
    hermitian_defect: float
    eigenvalues: np.ndarray | None = None
    matrix: np.ndarray | None = field(default=None, repr=False)
    _eigenvectors: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        for a in (self.eigenvalues, self.matrix, self._eigenvectors):
            if a is not None:
                a.flags.writeable = False

    def __bool__(self) -> bool:
        return self.ok

    @property
    def eigenvectors(self) -> np.ndarray | None:
        if self._eigenvectors is None and self.eigenvalues is not None:
            object.__setattr__(self, "_eigenvectors", eigen.hermitian_eigh(self.matrix)[1])
            self._eigenvectors.flags.writeable = False
        return self._eigenvectors

    @property
    def witness(self) -> np.ndarray | None:
        v = self.eigenvectors
        return None if v is None else v[:, 0]


def psd_verdict(matrix, tol: float = PSD_TOL) -> PSDResult:
    """Hermitian PSD within tol: defect <= tol and min eigenvalue >= -tol, the
    one-matrix case of ``_PSDVerdicts``, which makes every positivity verdict
    in the package; one eigenvalues-only solve."""
    matrix = np.array(matrix, dtype=np.complex128)  # a copy, for an eigenvector read later
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    return _PSDVerdicts(matrix, tol).verdict(0)


class _PSDVerdicts:
    """``psd_verdict`` of a square matrix or of each block of an (F, d, d)
    stack: the one place that compares a Hermitian defect or an eigenvalue
    with tol.  The shape is checked, then each block's defect computed once;
    a block above tol fails unsolved, and the finite blocks within tol are
    solved by one ``eigen.hermitian_eigh`` call, for eigenvalues alone unless
    ``vectors``, on the input as given when no block is masked out (a matrix
    is solved as a matrix).  ``w`` and ``v`` hold a row per solved block and
    ``ranks`` (with ``vectors``) each row's eigenvalues above tol; ``least``
    and ``ok`` list each block's least eigenvalue (NaN unsolved, inf if 0×0)
    and verdict.  ``verdict(p)`` is block p's PSDResult; a non-finite block
    within tol raises the solver's ValueError there, and only there."""

    __slots__ = ("blocks", "defects", "rejected", "solvable", "every", "w", "v", "least", "ok", "ranks")

    def __init__(self, blocks: np.ndarray, tol: float, vectors: bool = False):
        d = blocks.shape[-1]
        self.blocks = blocks[None] if blocks.ndim == 2 else blocks
        with np.errstate(invalid="ignore"):  # inf - inf: a NaN defect, which the solver rejects when read
            defects = hermitian_defect(self.blocks)
        self.defects = defects.tolist()
        self.every = all(x <= tol and math.isfinite(x) for x in self.defects)
        self.w = self.v = None
        if not self.every:  # rejected and solvable are read only then
            self.rejected = defects > tol
            self.solvable = ~self.rejected & np.isfinite(defects)  # a non-finite entry makes it inf or NaN
        if d and (self.every or self.solvable.any()):
            w, v = eigen.hermitian_eigh(blocks if self.every else self.blocks[self.solvable], vectors=vectors)
            self.w, self.v = w.reshape(-1, d), v if v is None else v.reshape(-1, d, d)
            if vectors:
                self.ranks = np.count_nonzero(self.w > tol, axis=1)
        least = self.w[:, 0] if self.every and d else np.full(len(self.blocks), np.nan if d else np.inf)
        if self.w is not None and not self.every:
            least[self.solvable] = self.w[:, 0]
        self.least = least.tolist()
        self.ok = [x >= -tol for x in self.least]

    def verdict(self, p: int) -> PSDResult:
        defect, r = self.defects[p], p
        if not self.every:
            if self.rejected[p]:
                return PSDResult(False, float("nan"), defect, matrix=self.blocks[p])
            if not self.solvable[p]:
                eigen.hermitian_eigh(self.blocks[p], vectors=False)  # not finite: the solver raises
            r = np.count_nonzero(self.solvable[:p])
        if self.w is None:  # a 0×0 block, decided as is_positive_type decides no block
            return PSDResult(True, float("inf"), defect)
        v = self.v if self.v is None else self.v[r]
        return PSDResult(self.ok[p], self.least[p], defect, self.w[r], self.blocks[p], v)


@dataclass(frozen=True)
class PositiveTypeResult(PSDResult):
    """The verdict of the deciding block: the ``matrix`` over the source fiber
    ``fiber`` of object ``object_index`` that failed first in object order
    or, when every block passes, has the smallest eigenvalue."""

    object_index: int | None = None
    fiber: tuple[int, ...] | None = None


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
        G = phis[members[0]].groupoid
        values = _joined_array([phis[i]._form for i in members]).reshape(len(members), G.n_morphisms)
        stack = _PositiveTypeStack(G, values.astype(np.complex128, copy=False), tol)
        for p, i in enumerate(members):
            results[i] = stack.result(p)
    return results


class _PositiveTypeStack:
    """``is_positive_type`` of each row of an (F, N) complex128 array of
    functions on the groupoid G, decided as arrays.

    Each distinct source-fiber gather of G reads one (F, d, d) stack of
    blocks, one per function, and each stack is decided by one
    ``_PSDVerdicts``.  A function's verdict is that of a walk over its
    objects in order: the first failing block decides, and otherwise the
    first block with the least eigenvalue does.  Objects that share a gather
    share its verdicts, so only the first object of each gather can decide,
    and the gathers are in the order of their first objects: the walk is one
    over gathers.  ``ok`` holds the verdicts, and ``result(p)`` builds row
    p's ``PositiveTypeResult`` from the stacked solves, with no solve of its
    own until its eigenvectors are read.  A non-finite block raises
    ValueError in ``result(p)`` when, and only when, the walk of row p
    reaches it; a table that lacks a composite that a block reads raises
    NotComposableError before any block is decided.
    """

    __slots__ = ("heads", "solves", "ok")

    def __init__(self, G: FiniteGroupoid, values: np.ndarray, tol: float):
        indices, self.heads = _fiber_gathers(G)
        self.solves = [_PSDVerdicts(values[:, idx], tol) for idx in indices]
        self.ok = np.ones(len(values), dtype=bool)
        for solve in self.solves:
            self.ok &= solve.ok

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
        return PositiveTypeResult(**vars(verdict), object_index=x, fiber=fiber)


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


def state_normalization(phi: AlgebraElement, m: GroupoidMeasure):
    """Σ_x phi(1_x)·μ_Ω(x) over the objects of m's groupoid: equals one for
    trace-one states on pair groupoids.  GroupoidError unless phi has one
    value per morphism of that groupoid."""
    _require_one_value_per_morphism(m, phi.values)
    G = m.groupoid
    return sum(phi.values[G.unit(x)] * m.object_weights[x] for x in G.objects())
