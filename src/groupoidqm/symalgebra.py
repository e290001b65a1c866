"""The measured symmetroid and its convolution algebra.

A Haar measure μ on the base groupoid induces a measure on the symmetroid.
The 2-target fiber S^β is identified with G^{t(β)} x G^{s(β)} by
Γ = (α, ·, γ) -> (α, γ), and carries the product fiber measure

    ν₂(Γ) = ν^{t(α)}(α) · ν^{t(γ)}(γ).

Summing the fibers against the weight μ_Ω(t(β))·μ_Ω(s(β)) on the base point
β = t1(Γ) gives the atoms

    μ₂(Γ) = μ(α) · μ(γ),        Δ₂(Γ) = δ(α) · δ(γ),

where Δ₂ is exactly the modular function of μ₂ (μ₂(Γ⁻¹) = μ₂(Γ)/Δ₂(Γ)
atom by atom) and a homomorphism for the vertical composition.  On a counting
base all three collapse to 1 and the fiber weight on the base equals μ, the
convention in which C₀ of the quotient is M_n(C) ⊗ M_n(C) on the nose.

The convolution product, involution and left-regular operators are those of
``algebra`` on the vertical groupoid under ``SymmetroidMeasure.measure`` (μ₂,
whose fiber weights are ν₂); a function on S(G) is an ``AlgebraElement`` on
``sym.vertical``, its value at Γ at ``sym.index[Γ]``:

    (f ⋆_S g)(Γ) = Σ_{Γ₁ ∈ S^{t1(Γ)}} ν₂(Γ₁) f(Γ₁) g(Γ₁⁻¹ ∘_V Γ)
    f*(Γ) = Δ₂(Γ)⁻¹ conj(f(Γ⁻¹))
    A_f ψ = f ⋆_S ψ,

with A_f A_g = A_{f⋆g} and A_f† = A_{f*} on L²(S, μ₂).

Over a pair groupoid each quotient class is one transformation, and the
classes under the q-rules form ``quotient_groupoid(n)``, S(pair(n))'s vertical
groupoid numbered by class.  ``QuotientMeasure`` induces μ₂ on it, and
``convolve_S``, ``involute_S`` and ``rep_operator`` are ``convolve``,
``involute`` and ``left_regular_matrix`` there, run on the QuotientFunctions
as they are: the kernels read only the measure's groupoid and the values.  A
QuotientFunction stores its values row-major in (z, y, x, w), the class
order, which is the package-wide order for every matrix export.
"""

from __future__ import annotations

import csv
import functools
import json
from typing import Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    _Values,
    complex_values_from_json,
    complex_values_to_json,
    convolve,
    involute,
    left_regular_matrix,
)
from .groupoid import GroupoidError, is_pair_groupoid, pair_groupoid
from .measure import (
    DEFAULT_TOL,
    GroupoidMeasure,
    NotHaarError,
    _report_defects,
    _require_multiplicative,
    modular_homomorphism_report,
    verify_left_invariance,
)
from .reports import ViolationReport
from .symmetroid import (
    QClass,
    Symmetroid,
    Transformation,
    enumerate_quotient,
    q_from_index,
    q_index,
    quotient_groupoid,
)


class NotPullbackError(GroupoidError):
    """A function expected to be constant along 2-target fibers is not."""


# -- induced measure on a general symmetroid --


class SymmetroidMeasure:
    """μ₂, ν₂ and Δ₂ on S(G).  ``measure`` is the GroupoidMeasure on the vertical
    groupoid with atoms μ₂ and object weights μ_Ω(t(β))·μ_Ω(s(β)), so its fiber
    weights are ν₂ and its modular ratios ``measure.deltas`` are Δ₂, equal to
    δ(α)·δ(γ); ``weights`` and ``modular`` key them by Γ.

    μ₂ and its object weights are products gathered over the index arrays of
    α and γ; on an exact base they stay in the integer form built from the
    base's, and the vertical ν₂ and Δ₂ are derived from them on first read."""

    __slots__ = ("symmetroid", "base", "measure")

    def __init__(self, symmetroid: Symmetroid, base: GroupoidMeasure):
        self.symmetroid = symmetroid
        self.base = base
        g = base.groupoid
        alpha, _, gamma = symmetroid._triples
        self.measure = GroupoidMeasure._product_measure(
            symmetroid.vertical, base, (alpha, gamma), (g.target, g.source)
        )

    @property
    def weights(self) -> dict:
        """μ₂ keyed by Γ, read from ``measure.weights``."""
        return dict(zip(self.symmetroid.transformations, self.measure.weights))

    @property
    def modular(self) -> dict:
        """Δ₂ keyed by Γ, read from ``measure.deltas``."""
        return dict(zip(self.symmetroid.transformations, self.measure.deltas))

    def mu2(self, t: Transformation):
        return self.measure.weights[self.symmetroid.index[t]]

    def nu2(self, t: Transformation):
        return self.measure.nu_target(self.symmetroid.index[t])

    def delta2(self, t: Transformation):
        return self.measure.delta(self.symmetroid.index[t])


def induce_measure(sym: Symmetroid, m: GroupoidMeasure, tol: float = DEFAULT_TOL) -> SymmetroidMeasure:
    """Induce the symmetroid measure from a Haar measure on the base.

    Verifies that m is Haar (left-invariant fibers, multiplicative modular
    function) and raises NotHaarError otherwise.
    """
    g = sym.groupoid
    rep = verify_left_invariance(g, m, tol)
    if not rep.ok:
        raise NotHaarError(f"base measure is not left-invariant: {rep}")
    _require_multiplicative(g, m._tables["deltas"], tol)
    return SymmetroidMeasure(sym, m)


def verify_induced_equivariance(m2: SymmetroidMeasure, tol: float = DEFAULT_TOL) -> ViolationReport:
    """Check (L_Γ)⋆ν₂^{s1(Γ)} = ν₂^{t1(Γ)} for every transformation Γ: the
    left invariance of ``m2.measure`` on the vertical groupoid."""
    return verify_left_invariance(m2.symmetroid.vertical, m2.measure, tol)


def verify_modular_formula(
    m2: SymmetroidMeasure, functions: Sequence[dict] | None = None, tol: float = DEFAULT_TOL
) -> ViolationReport:
    """Check Σ_Γ μ₂(Γ) f(Γ⁻¹) == Σ_Γ μ₂(Γ) Δ₂(Γ)⁻¹ f(Γ).

    Defaults to the basis of indicator functions, for which the check is the
    atomwise identity μ₂(Γ⁻¹) == μ₂(Γ)/Δ₂(Γ).  Extra functions may be given
    as {Transformation: value} dicts; one grouped call checks their sums.

    The identity holds for every base measure, Haar or not: Δ₂ is built as
    μ₂(Γ)/μ₂(Γ⁻¹), and μ₂(Γ⁻¹) = μ₂(Γ)/(δ(α)δ(γ)) for every product measure.
    So it checks the tables; ``verify_induced_equivariance`` and
    ``verify_modular_homomorphism`` are the Haar tests.
    """
    sym, k = m2.symmetroid, len(m2.symmetroid)  # its transformations are read to name one
    w, delta = m2.measure._tables["weights"], m2.measure._tables["deltas"]
    idx = np.arange(k)
    inverse = np.asarray(sym.vertical.inverse, dtype=np.intp)

    def describe(i):
        t = sym.transformations[i]
        return (t,), f"μ₂(Γ⁻¹) != μ₂(Γ)/Δ₂(Γ) at Γ={t}"

    rep = _report_defects("modular-atom", tol, ((w, inverse),), ((w, idx), (delta, idx, -1)), describe)
    # term (i, Γ) of function i reads μ₂(Γ), Δ₂(Γ), f_i(Γ) and f_i(Γ⁻¹)
    values = [f.get(t, 0) for f in functions or () for t in sym.transformations]
    if not values:  # no functions
        return rep
    ids, gamma = np.divmod(np.arange(len(values)), k)
    lhs = (w, gamma), (values, ids * k + inverse[gamma])
    rhs = (w, gamma), (values, ids * k + gamma), (delta, gamma, -1)

    def describe_sum(i):
        return (i,), f"Σ μ₂ f(Γ⁻¹) != Σ μ₂ Δ₂⁻¹ f for function {i}"

    groups = (ids, len(values) // k)
    sums = _report_defects("modular-sum", tol, lhs, rhs, describe_sum, groups=groups)
    return ViolationReport(rep.checks + sums.checks, rep.violations + sums.violations)


def verify_modular_homomorphism(m2: SymmetroidMeasure, tol: float = DEFAULT_TOL) -> ViolationReport:
    """Δ₂(Γ₂ ∘_V Γ₁) == Δ₂(Γ₂)·Δ₂(Γ₁) over all vertically composable pairs."""
    return modular_homomorphism_report(m2.symmetroid.vertical, m2.measure._tables["deltas"], tol)


# -- the quotient over a pair groupoid: the vertical groupoid of its classes --


@functools.lru_cache(maxsize=16)
def _counting(n: int) -> GroupoidMeasure:
    """The counting measure on ``quotient_groupoid(n)``, built once per n."""
    return GroupoidMeasure.counting(quotient_groupoid(n))


class QuotientMeasure:
    """The base measure, checked to live on a pair groupoid, and ``measure``,
    which the quotient operations read: μ₂ on ``quotient_groupoid(n)`` as
    ``SymmetroidMeasure`` builds it, the atom μ(z,y)·μ(w,x) at the class
    ((z, y), (x, w)) and the weight μ_Ω(y)·μ_Ω(x) at the transition (y, x)."""

    __slots__ = ("base", "measure")

    def __init__(self, base: GroupoidMeasure):
        g = base.groupoid
        if not is_pair_groupoid(g):
            raise GroupoidError("QuotientMeasure needs a pair-groupoid base")
        self.base = base
        n = g.n_objects
        q = q_from_index(n, np.arange(n**4))
        self.measure = GroupoidMeasure._product_measure(
            quotient_groupoid(n), base, (q.z * n + q.y, q.w * n + q.x), (g.target, g.source)
        )


class QuotientFunction(_Values):
    """A function on the n⁴ quotient classes, stored row-major in (z, y, x, w).

    That storage order is the canonical flattening used by every matrix
    export in this package.  ``tensor`` and ``from_tensor`` are the one place
    where it meets an array layout; kernel arithmetic works on that view.
    """

    __slots__ = ("n",)

    def __init__(self, n: int, values: Sequence):
        if n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        if len(values) != n**4:
            raise ValueError(f"need n⁴ = {n**4} values, got {len(values)}")
        self.n = n
        self._hold(values)

    @classmethod
    def delta(cls, n: int, q: QClass) -> "QuotientFunction":
        k = q_index(n, q)
        return cls(n, [int(i == k) for i in range(n**4)])

    @classmethod
    def vertical_unit_indicator(cls, n: int) -> "QuotientFunction":
        """Indicator of the units ((y, y), (x, x)) of ``quotient_groupoid(n)``: the ⋆_S unit."""
        return cls(n, AlgebraElement.units_indicator(quotient_groupoid(n)).values)

    @classmethod
    def from_callable(cls, n: int, fn) -> "QuotientFunction":
        return cls(n, [fn(q) for q in enumerate_quotient(n)])

    @classmethod
    def from_tensor(cls, t: np.ndarray) -> "QuotientFunction":
        """The function whose tensor view is the (n, n, n, n) array t: a
        complex128 t is held as a read-only copy, and any other as a tuple."""
        flat = t.reshape(-1)
        return cls(t.shape[0], flat if t.dtype == np.complex128 else flat.tolist())

    def tensor(self) -> np.ndarray:
        """The values as a read-only (n, n, n, n) array indexed [z, y, x, w]:
        a view of the held complex128 array, else ``value_array`` of the
        values (object for exact values, else complex128)."""
        t = self._array_form().reshape((self.n,) * 4)
        t.flags.writeable = False
        return t

    def __getitem__(self, q: QClass):
        return self.values[q_index(self.n, q)]

    def get(self, z: int, y: int, x: int, w: int):
        return self.values[((z * self.n + y) * self.n + x) * self.n + w]

    def support(self):
        return [(q_from_index(self.n, i), v) for i, v in enumerate(self.values) if v != 0]

    def _like(self, values) -> "QuotientFunction":
        return QuotientFunction(self.n, values)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuotientFunction)
            and self.n == other.n
            and all(a == b for a, b in zip(self.values, other.values))
        )

    def _same_parent(self, other: "QuotientFunction") -> None:
        if self.n != other.n:
            raise GroupoidError("quotient functions live over different bases")

    def to_json(self) -> dict:
        return {"n": self.n, "values": complex_values_to_json(self._array_form())}


def quotient_function_from_json(data: dict) -> QuotientFunction:
    try:
        n = data["n"]
        values = complex_values_from_json(data["values"])
    except (KeyError, TypeError, ValueError) as exc:
        raise GroupoidError(f"malformed quotient-function JSON: {exc}") from exc
    if type(n) is not int or n < 1:
        raise GroupoidError(f"malformed quotient-function JSON: n must be a positive integer, got {n!r}")
    if len(values) != n**4:
        raise GroupoidError(
            f"malformed quotient-function JSON: need n⁴ = {n**4} values, got {len(values)}"
        )
    return QuotientFunction(n, values)


def convolve_S(
    f: QuotientFunction, g: QuotientFunction, qm: QuotientMeasure | None = None
) -> QuotientFunction:
    """(f ⋆_S g)((l,j),(k,m)) = Σ_{r,s} ν(l,r) ν(m,s) f((l,r),(s,m)) g((r,j),(k,s)):
    ``convolve`` on ``quotient_groupoid(n)``.

    With a counting base the fiber weights are 1 and this is multiplication in
    M_n ⊗ M_n under the matrix-unit identification.
    """
    if g.n != f.n:
        raise GroupoidError("quotient functions live over different bases")
    return QuotientFunction(f.n, convolve(f, g, _counting(f.n) if qm is None else qm.measure)._form)


def involute_S(f: QuotientFunction, qm: QuotientMeasure | None = None) -> QuotientFunction:
    """f*((l,j),(k,m)) = Δ₂⁻¹ conj(f((j,l),(m,k))), where Δ₂⁻¹ = Δ₂(Γ⁻¹) =
    δ(j,l)·δ(k,m): ``involute`` on ``quotient_groupoid(n)``; on a counting
    base this is the antilinear modular involution conj(f(Γ⁻¹))."""
    return QuotientFunction(f.n, involute(f, _counting(f.n) if qm is None else qm.measure)._form)


def rep_operator(f: QuotientFunction, qm: QuotientMeasure | None = None) -> np.ndarray:
    """Matrix of A_f: ψ -> f ⋆_S ψ in the basis {δ_Γ}, its rows and columns in
    class order: ``left_regular_matrix`` on ``quotient_groupoid(n)``.

    Column (r, j, k, s) is f ⋆_S δ_((r,j),(k,s)), whose one term at row
    (l, j, k, m) is ν(l,r) ν(m,s) f((l,r),(s,m)).
    """
    return left_regular_matrix(f, _counting(f.n) if qm is None else qm.measure)


def pullback_embed(psi: AlgebraElement) -> QuotientFunction:
    """t1-pullback: value at ((l, j), (k, m)) is ψ(l, m); constant on 2-target fibers."""
    g = psi.groupoid
    n = g.n_objects
    if not is_pair_groupoid(g):
        raise GroupoidError("pullback_embed expects a function on a pair groupoid")
    p = psi._array_form().reshape(n, 1, 1, n)
    return QuotientFunction.from_tensor(np.broadcast_to(p, (n,) * 4))


def fiber_restrict(f: QuotientFunction, tol: float = 1e-12) -> AlgebraElement:
    """Inverse of pullback_embed; raises NotPullbackError when f is not
    constant along the 2-target fibers."""
    t = f.tensor()
    ref = t[:, :1, :1, :]
    spread = np.abs(t - ref).max(axis=(1, 2))
    bad = np.argwhere(spread > tol)
    if len(bad):
        l, m = bad[0]
        raise NotPullbackError(
            f"not constant along the 2-target fiber of ({l}, {m}): spread {spread[l, m]}"
        )
    return AlgebraElement(pair_groupoid(f.n), ref.reshape(-1))


def tensor_matrix(f: QuotientFunction) -> np.ndarray:
    """Image of f under δ_((l,j),(k,m)) -> e_lj ⊗ e_mk in M_n ⊗ M_n.

    An algebra isomorphism for the counting base: it is the same matrix as
    the left-regular action restricted to a 2-target fiber.  As a channel
    kernel's matrix it is the superoperator A[(l,m),(j,k)] = f((l,j),(k,m)).
    """
    n = f.n
    mat = f.tensor().astype(np.complex128).transpose(0, 3, 1, 2).reshape(n * n, n * n)
    mat[mat == 0] = 0  # a zero exports as +0.0 whatever the sign of the kernel's zero
    return mat


# -- matrix exports --


def matrix_to_json(mat: np.ndarray) -> dict:
    return {"shape": list(mat.shape), "entries": complex_values_to_json(mat.reshape(-1))}


def write_matrix_csv(mat: np.ndarray, path: str) -> None:
    """Row-major CSV with alternating re, im columns."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in mat:
            cells = []
            for c in row:
                cells.append(repr(float(c.real)))
                cells.append(repr(float(c.imag)))
            writer.writerow(cells)


def write_matrix_json(mat: np.ndarray, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_json(mat), fh, indent=1, sort_keys=True)
        fh.write("\n")
