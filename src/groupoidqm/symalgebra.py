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
whose fiber weights are ν₂), and a ``SymFunction`` is an ``AlgebraElement`` on
that groupoid, passed to ``convolve`` and ``involute`` as it is:

    (f ⋆_S g)(Γ) = Σ_{Γ₁ ∈ S^{t1(Γ)}} ν₂(Γ₁) f(Γ₁) g(Γ₁⁻¹ ∘_V Γ)
    f*(Γ) = Δ₂(Γ)⁻¹ conj(f(Γ⁻¹))
    A_f ψ = f ⋆_S ψ,

with A_f A_g = A_{f⋆g} and A_f† = A_{f*} on L²(S, μ₂).  The quotient over a
pair groupoid gets a fast path on the (n, n, n, n) tensor view of a
QuotientFunction, indexed [z, y, x, w]; its row-major flattening is the
package-wide order for every matrix export.
"""

from __future__ import annotations

import csv
import json
import operator
from typing import Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    complex_values_from_json,
    complex_values_to_json,
    contract,
    convolve,
    involute,
    value_array,
)
from .groupoid import FiniteGroupoid, GroupoidError, pair_groupoid
from .measure import (
    DEFAULT_TOL,
    GroupoidMeasure,
    NotHaarError,
    _report_defects,
    modular,
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
)


class NotPullbackError(GroupoidError):
    """A function expected to be constant along 2-target fibers is not."""


# -- induced measure on a general symmetroid --


class SymmetroidMeasure:
    """μ₂, ν₂ and Δ₂ on S(G).  ``measure`` is the GroupoidMeasure on the vertical
    groupoid with atoms μ₂ and object weights μ_Ω(t(β))·μ_Ω(s(β)), so its fiber
    weights are ν₂; ``weights`` (μ₂) and ``modular`` (Δ₂) are keyed by Γ."""

    __slots__ = ("symmetroid", "base", "measure", "weights", "modular")

    def __init__(self, symmetroid: Symmetroid, base: GroupoidMeasure):
        self.symmetroid = symmetroid
        self.base = base
        g, ts = base.groupoid, symmetroid.transformations
        w, ow = base.weights, base.object_weights
        self.measure = GroupoidMeasure(
            symmetroid.vertical,
            [w[t.alpha] * w[t.gamma] for t in ts],
            [ow[g.target[b]] * ow[g.source[b]] for b in g.morphisms()],
        )
        self.weights = dict(zip(ts, self.measure.weights))
        self.modular = {t: base.deltas[t.alpha] * base.deltas[t.gamma] for t in ts}

    def mu2(self, t: Transformation):
        return self.weights[t]

    def nu2(self, t: Transformation):
        return self.measure.nu_target(self.symmetroid.index[t])

    def delta2(self, t: Transformation):
        return self.modular[t]


def induce_measure(sym: Symmetroid, m: GroupoidMeasure, tol: float = DEFAULT_TOL) -> SymmetroidMeasure:
    """Induce the symmetroid measure from a Haar measure on the base.

    Verifies that m is Haar (left-invariant fibers, multiplicative modular
    function) and raises NotHaarError otherwise.
    """
    g = sym.groupoid
    rep = verify_left_invariance(g, m, tol)
    if not rep.ok:
        raise NotHaarError(f"base measure is not left-invariant: {rep}")
    modular(g, m, tol)  # raises NotHaarError when not multiplicative
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
    as {Transformation: value} dicts.
    """
    sym = m2.symmetroid
    w, ts = m2.measure.weights, sym.transformations
    idx = np.arange(len(ts))
    inverse = np.asarray(sym.vertical.inverse, dtype=np.intp)
    quotient = ((w, idx), operator.truediv, ([m2.modular[t] for t in ts], idx))

    def describe(i):
        return (ts[i],), f"μ₂(Γ⁻¹) != μ₂(Γ)/Δ₂(Γ) at Γ={ts[i]}"

    rep = _report_defects("modular-atom", tol, (w, inverse), quotient, describe)
    for i, f in enumerate(functions or []):
        rep.checks += 1
        lhs = sum(m2.mu2(t) * f.get(sym.vertical_inverse(t), 0) for t in sym.transformations)
        rhs = sum(m2.mu2(t) * f.get(t, 0) / m2.delta2(t) for t in sym.transformations)
        defect = abs(lhs - rhs)
        if defect > tol:
            rep.add("modular-sum", (i,), f"Σ μ₂ f(Γ⁻¹) != Σ μ₂ Δ₂⁻¹ f for function {i}", defect)
    return rep


def verify_modular_homomorphism(m2: SymmetroidMeasure, tol: float = DEFAULT_TOL) -> ViolationReport:
    """Δ₂(Γ₂ ∘_V Γ₁) == Δ₂(Γ₂)·Δ₂(Γ₁) over all vertically composable pairs."""
    values = [m2.modular[t] for t in m2.symmetroid.transformations]
    return modular_homomorphism_report(m2.symmetroid.vertical, values, tol)


# -- functions on a general symmetroid --


class SymFunction(AlgebraElement):
    """A complex function on the transformations of a Symmetroid: an element
    of the convolution algebra of ``symmetroid.vertical``, indexed by
    Transformation.  Its sums, differences and scalar multiples are
    AlgebraElements on that groupoid."""

    __slots__ = ("symmetroid",)

    def __init__(self, symmetroid: Symmetroid, values: Sequence):
        if len(values) != len(symmetroid):
            raise ValueError("need one value per transformation")
        super().__init__(symmetroid.vertical, values)
        self.symmetroid = symmetroid

    @classmethod
    def zeros(cls, sym: Symmetroid) -> "SymFunction":
        return cls(sym, [0] * len(sym))

    @classmethod
    def delta(cls, sym: Symmetroid, t: Transformation) -> "SymFunction":
        return super().delta(sym, sym.index[t])

    def __getitem__(self, t: Transformation):
        return self.values[self.symmetroid.index[t]]

    def _same_parent(self, other: AlgebraElement) -> None:
        if len(self.values) != len(other.values):
            raise GroupoidError("symmetroid functions live on different symmetroids")


def convolve_general(f: SymFunction, g: SymFunction, m2: SymmetroidMeasure) -> SymFunction:
    """⋆_S on a general symmetroid: ``convolve`` on the vertical groupoid."""
    return SymFunction(f.symmetroid, convolve(f, g, m2.measure).values)


def involute_general(f: SymFunction, m2: SymmetroidMeasure) -> SymFunction:
    """f*(Γ) = Δ₂(Γ)⁻¹ conj(f(Γ⁻¹)): ``involute`` on the vertical groupoid."""
    return SymFunction(f.symmetroid, involute(f, m2.measure).values)


# -- quotient fast path over a pair groupoid --


class QuotientMeasure:
    """Per-transition data of an induced measure, specialized to the quotient.

    For the class ((z, y), (x, w)) the two translation legs are the
    transitions (z, y) and (w, x) of the base pair groupoid, so μ₂, ν₂ and Δ₂
    are products of per-transition tables.
    """

    __slots__ = ("n", "base", "mu", "nu", "dl")

    def __init__(self, base: GroupoidMeasure):
        g = base.groupoid
        n = g.n_objects
        if g.n_morphisms != n * n:
            raise GroupoidError("QuotientMeasure needs a pair-groupoid base")
        self.n = n
        self.base = base
        self.mu = base.weights
        self.nu = base.nu_targets
        self.dl = base.deltas

    @classmethod
    def counting(cls, n: int) -> "QuotientMeasure":
        return cls(GroupoidMeasure.counting(pair_groupoid(n)))

    def mu2(self, q: QClass):
        n = self.n
        return self.mu[q.z * n + q.y] * self.mu[q.w * n + q.x]

    def nu2(self, q: QClass):
        n = self.n
        return self.nu[q.z * n + q.y] * self.nu[q.w * n + q.x]

    def delta2(self, q: QClass):
        n = self.n
        return self.dl[q.z * n + q.y] * self.dl[q.w * n + q.x]


class QuotientFunction:
    """A function on the n⁴ quotient classes, stored row-major in (z, y, x, w).

    That storage order is the canonical flattening used by every matrix
    export in this package.  ``tensor`` and ``from_tensor`` are the one place
    where it meets an array layout; kernel arithmetic works on that view.
    """

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: Sequence):
        if len(values) != n**4:
            raise ValueError(f"need n⁴ = {n**4} values, got {len(values)}")
        self.n = n
        self.values = list(values)

    @classmethod
    def zeros(cls, n: int) -> "QuotientFunction":
        return cls(n, [0] * n**4)

    @classmethod
    def delta(cls, n: int, q: QClass) -> "QuotientFunction":
        f = cls.zeros(n)
        f.values[q_index(n, q)] = 1
        return f

    @classmethod
    def vertical_unit_indicator(cls, n: int) -> "QuotientFunction":
        """Indicator of the classes ((y, y), (x, x)); the ⋆_S unit."""
        f = cls.zeros(n)
        for y in range(n):
            for x in range(n):
                f.values[q_index(n, QClass(y, y, x, x))] = 1
        return f

    @classmethod
    def from_callable(cls, n: int, fn) -> "QuotientFunction":
        return cls(n, [fn(q) for q in enumerate_quotient(n)])

    @classmethod
    def from_tensor(cls, t: np.ndarray) -> "QuotientFunction":
        """The function whose tensor view is the (n, n, n, n) array t."""
        return cls(t.shape[0], t.reshape(-1).tolist())

    def tensor(self) -> np.ndarray:
        """The values as an (n, n, n, n) array indexed [z, y, x, w], with the
        dtype of ``value_array``: object for exact values, else complex128."""
        return value_array(self.values).reshape((self.n,) * 4)

    def __getitem__(self, q: QClass):
        return self.values[q_index(self.n, q)]

    def get(self, z: int, y: int, x: int, w: int):
        return self.values[((z * self.n + y) * self.n + x) * self.n + w]

    def support(self):
        return [(q_from_index(self.n, i), v) for i, v in enumerate(self.values) if v != 0]

    def __add__(self, other: "QuotientFunction") -> "QuotientFunction":
        self._same_base(other)
        return QuotientFunction(self.n, [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other: "QuotientFunction") -> "QuotientFunction":
        self._same_base(other)
        return QuotientFunction(self.n, [a - b for a, b in zip(self.values, other.values)])

    def __mul__(self, scalar) -> "QuotientFunction":
        return QuotientFunction(self.n, [v * scalar for v in self.values])

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuotientFunction)
            and self.n == other.n
            and all(a == b for a, b in zip(self.values, other.values))
        )

    def allclose(self, other: "QuotientFunction", tol: float = 1e-12) -> bool:
        self._same_base(other)
        return all(abs(a - b) <= tol for a, b in zip(self.values, other.values))

    def _same_base(self, other: "QuotientFunction") -> None:
        if self.n != other.n:
            raise GroupoidError("quotient functions live over different bases")

    def to_json(self) -> dict:
        return {"n": self.n, "values": complex_values_to_json(self.values)}


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


def _weighted(f: QuotientFunction, qm: QuotientMeasure | None) -> np.ndarray:
    """ν(l,r) ν(m,s) f((l,r),(s,m)) at [l, r, s, m]; f itself on a counting base."""
    t = f.tensor()
    if qm is None:
        return t
    # ν takes the kernel's dtype, so that a complex kernel stays on complex128
    # arithmetic under the int and Fraction weights of an int-weighted base
    nu = value_array(qm.nu).reshape(f.n, f.n).astype(t.dtype)
    return contract("lrsm,lr,ms->lrsm", t, nu, nu)


def convolve_S(
    f: QuotientFunction, g: QuotientFunction, qm: QuotientMeasure | None = None
) -> QuotientFunction:
    """(f ⋆_S g)((l,j),(k,m)) = Σ_{r,s} ν(l,r) ν(m,s) f((l,r),(s,m)) g((r,j),(k,s)).

    With a counting base the fiber weights are 1 and this is multiplication in
    M_n ⊗ M_n under the matrix-unit identification.
    """
    if g.n != f.n:
        raise GroupoidError("quotient functions live over different bases")
    out = contract("lrsm,rjks->ljkm", _weighted(f, qm), g.tensor())
    return QuotientFunction.from_tensor(out)


def involute_S(f: QuotientFunction, qm: QuotientMeasure | None = None) -> QuotientFunction:
    """f*((l,j),(k,m)) = Δ₂⁻¹ conj(f((j,l),(m,k)))."""
    t = np.conj(f.tensor().transpose(1, 0, 3, 2))
    if qm is not None:
        dl = value_array(qm.dl).reshape(f.n, f.n)
        if t.dtype == dl.dtype == object:
            # Δ₂⁻¹ as the product of δ(α⁻¹) = δ(α)⁻¹ terms, so int kernels stay ints
            t = t * (dl.T[:, :, None, None] * dl)
        else:
            dl = dl.astype(t.dtype)
            t = t / (dl[:, :, None, None] * dl.T)
    return QuotientFunction.from_tensor(t)


def modular_involution(psi: QuotientFunction) -> QuotientFunction:
    """(Jψ)(Γ) = conj(ψ(Γ⁻¹)); the antilinear modular involution."""
    return involute_S(psi)


def rep_operator(f: QuotientFunction, qm: QuotientMeasure | None = None) -> np.ndarray:
    """Matrix of A_f: ψ -> f ⋆_S ψ in the basis {δ_Γ}, canonical class order.

    Column (r, j, k, s) is f ⋆_S δ_((r,j),(k,s)), whose one term at row
    (l, j, k, m) is ν(l,r) ν(m,s) f((l,r),(s,m)).
    """
    n = f.n
    mat = np.zeros((n,) * 8, dtype=np.complex128)
    w = _weighted(f, qm).astype(np.complex128)
    np.einsum("ljkmrjks->lrsmjk", mat)[...] = w[..., None, None]
    return mat.reshape(n**4, n**4)


def pullback_embed(psi: AlgebraElement) -> QuotientFunction:
    """t1-pullback: value at ((l, j), (k, m)) is ψ(l, m); constant on 2-target fibers."""
    g = psi.groupoid
    n = g.n_objects
    if g.n_morphisms != n * n:
        raise GroupoidError("pullback_embed expects a function on a pair groupoid")
    p = value_array(psi.values).reshape(n, 1, 1, n)
    return QuotientFunction.from_tensor(np.broadcast_to(p, (n,) * 4))


def fiber_restrict(f: QuotientFunction, base: FiniteGroupoid | None = None, tol: float = 1e-12) -> AlgebraElement:
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
    g = base if base is not None else pair_groupoid(f.n)
    return AlgebraElement(g, ref.reshape(-1).tolist())


def horizontal_convolve(
    f1: QuotientFunction,
    f2: QuotientFunction,
    base_measure: GroupoidMeasure,
) -> QuotientFunction:
    """⋆_H on pullbacks: (t1*ψ₁) ⋆_H (t1*ψ₂) = t1*(ψ₁ ⋆ ψ₂).

    Both inputs must lie in the pullback subspace (NotPullbackError
    otherwise); the product is computed through the base convolution, the
    unambiguous finite-dimensional form of the horizontal structure.
    """
    g = base_measure.groupoid
    psi1 = fiber_restrict(f1, g)
    psi2 = fiber_restrict(f2, g)
    return pullback_embed(convolve(psi1, psi2, base_measure))


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
