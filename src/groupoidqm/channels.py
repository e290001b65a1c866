"""Dynamical maps on the pair-groupoid algebra.

A channel is a function f on the quotient symmetroid classes ((l, j), (k, m)).
It acts on base functions by

    (K ψ)(l, m) = Σ_{r,s} f((l, r), (s, m)) ψ(r, s),

the fiber-constant part of f ⋆_S (t1-pullback of ψ).  Two reshuffles of the
kernel's tensor view f[z, y, x, w] represent the map in matrix form under the
row-major flattening (a, b) -> a·n + b:

    A[(l,m), (r,s)]   = f((l,r),(s,m))    (the superoperator: vec out = A vec in)
    Choi[(l,j), (m,k)] = f((l,j),(k,m))

Kraus families give f((l,j),(k,m)) = Σ_p V_p(l,j) conj(V_p(m,k)), equivalently
ψ -> Σ_p V_p ⋆ ψ ⋆ V_p*; such maps are completely positive, and complete
positivity in general is decided by positive semidefiniteness of the Choi
matrix.  The same condition reappears intrinsically as flat positive
semidefiniteness: the Gram matrices f(Γ_j ∘_H Γ_k^{-H}) over horizontally
compatible tuples of classes are positive semidefinite.

The other diagnostics are algebra identities under the counting measure,
decided by ``convolve``, ``involute`` and ``apply``: V ⋆ V = V = V* for a
decoherence member, K(χ_Ω) = Σ_p V_p ⋆ V_p* = χ_Ω for unitality, and the
Fourier tomogram tr(V_l ψ) = Σ_x (V_l ⋆ ψ)(1_x).
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    PSD_TOL,
    PSDResult,
    _PositiveTypeStack,
    _PSDVerdicts,
    _joined_array,
    contract,
    convolve,
    element_from_json,
    involute,
    psd_verdict,
    state_normalization,
)
from .eigen import hermitian_eigh  # noqa: F401  (not called; perfbench's tracer test pins it)
from .groupoid import GroupoidError, is_pair_groupoid, pair_groupoid
from .measure import GroupoidMeasure
from .symmetroid import FlatBisection
from .symalgebra import QuotientFunction, quotient_function_from_json, tensor_matrix


class DimensionMismatchError(GroupoidError):
    """Channel and state dimensions disagree."""


class TooManyKrausError(GroupoidError):
    """A Kraus family over n outcomes can have at most n² members."""


class Channel:
    """A dynamical map given by its kernel on the quotient symmetroid; its
    ``n`` and ``kernel`` are set once, and ``_verdicts`` keeps ``is_cp``'s
    verdict per tol."""

    __slots__ = ("n", "kernel", "_verdicts")

    def __init__(self, kernel: QuotientFunction):
        for name, value in (("n", kernel.n), ("kernel", kernel), ("_verdicts", {})):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Channel is immutable: cannot set {name!r}")

    def __reduce__(self):  # a copy or an unpickled channel is built anew, keeping no verdict
        return Channel, (self.kernel,)

    def __repr__(self) -> str:
        return f"Channel(n={self.n})"

    def to_json(self) -> dict:
        return self.kernel.to_json()


def channel_from_json(data: dict) -> Channel:
    return Channel(quotient_function_from_json(data))


def load_channel(path: str) -> Channel:
    with open(path) as fh:
        return channel_from_json(json.load(fh))


class KrausFamily:
    """At most n² base functions V_p defining ψ -> Σ_p V_p ⋆ ψ ⋆ V_p*."""

    __slots__ = ("n", "members")

    def __init__(self, n: int, members: Sequence[AlgebraElement]):
        if len(members) > n * n:
            raise TooManyKrausError(
                f"{len(members)} members over {n} outcomes; at most {n * n} allowed"
            )
        for v in members:
            if not is_pair_groupoid(v.groupoid, n):
                raise DimensionMismatchError("Kraus member has the wrong dimension")
        self.n = n
        self.members = list(members)

    def to_json(self) -> dict:
        return {"n": self.n, "members": [v.to_json() for v in self.members]}


def kraus_from_json(data: dict) -> KrausFamily:
    try:
        n = data["n"]
        members = list(data["members"])
    except (KeyError, TypeError) as exc:
        raise GroupoidError(f"malformed Kraus JSON: {exc}") from exc
    if type(n) is not int or n < 1:
        raise GroupoidError(f"malformed Kraus JSON: n must be a positive integer, got {n!r}")
    g = pair_groupoid(n)
    return KrausFamily(n, [element_from_json(m, g) for m in members])


def load_kraus(path: str) -> KrausFamily:
    with open(path) as fh:
        return kraus_from_json(json.load(fh))


# -- construction --


def from_kraus(ks: KrausFamily) -> Channel:
    """Kernel f((l,j),(k,m)) = Σ_p V_p(l,j) conj(V_p(m,k))."""
    n = ks.n
    v = _joined_array([member._form for member in ks.members]).reshape(-1, n, n)
    return Channel(QuotientFunction.from_tensor(contract("pzy,pwx->zyxw", v, np.conj(v))))


def from_flat_bisection(b: FlatBisection) -> Channel:
    """The unitary channel of a flat bisection: conjugation by the permutation
    matrix of σ (single Kraus member χ_b, the indicator of {(σj, j)})."""
    return from_kraus(KrausFamily(b.n, [bisection_indicator(b)]))


def bisection_indicator(b: FlatBisection) -> AlgebraElement:
    """χ_b on the base pair groupoid; its left-regular matrix is the
    permutation matrix of σ."""
    ones = {b.perm[j] * b.n + j for j in range(b.n)}
    return AlgebraElement(pair_groupoid(b.n), [int(a in ones) for a in range(b.n * b.n)])


def identity_channel(n: int) -> Channel:
    g = pair_groupoid(n)
    return from_kraus(KrausFamily(n, [AlgebraElement.units_indicator(g)]))


def transpose_channel(n: int) -> Channel:
    """ψ -> ψᵀ; positive but not completely positive (Choi = SWAP)."""
    kernel = QuotientFunction.from_callable(
        n, lambda q: 1 if (q.y == q.w and q.x == q.z) else 0
    )
    return Channel(kernel)


# -- action --


def apply(ch: Channel, psi: AlgebraElement) -> AlgebraElement:
    """out(l, m) = Σ_{r,s} f((l,r),(s,m)) ψ(r, s)."""
    n = ch.n
    g = psi.groupoid
    if not is_pair_groupoid(g, n):
        raise DimensionMismatchError(
            f"channel over {n} outcomes applied to a function on {g.n_morphisms} transitions"
        )
    return AlgebraElement(g, _apply_tensor(ch.kernel.tensor(), psi._array_form()))


def _apply_tensor(f: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``apply`` with the kernel as its tensor f[l, r, s, m], to value arrays
    of shape (..., n²): one contraction for a whole stack of inputs, each
    output as if applied alone."""
    n = f.shape[0]
    out = contract("lrsm,...rs->...lm", f, values.reshape(*values.shape[:-1], n, n))
    return out.reshape(values.shape)


def compose_channels(ch2: Channel, ch1: Channel) -> Channel:
    """The map ψ -> ch2(ch1(ψ)); kernel given by A-matrix multiplication."""
    if ch2.n != ch1.n:
        raise DimensionMismatchError("composed channels must share a dimension")
    a = to_a_matrix(ch2).matrix @ to_a_matrix(ch1).matrix
    return channel_from_a_matrix(AMatrix(ch1.n, a))


def extend_with_identity(ch: Channel, m_ancilla: int) -> Channel:
    """id_M ⊗ K on the product of pair groupoids over M·n points.

    The product point (a, p) is flattened to a·n + p; the extended kernel
    carries f across the second factor and the identity across the first:
    its value at ((a·n+l, a·n+j), (b·n+k, b·n+m)) is f((l,j),(k,m)).
    """
    return Channel(QuotientFunction.from_tensor(_extended_tensor(ch.kernel.tensor(), m_ancilla)))


def _extended_tensor(t: np.ndarray, m_ancilla: int) -> np.ndarray:
    """The tensor of id_M ⊗ K from the kernel tensor t of K, in t's dtype."""
    n, M = t.shape[0], m_ancilla
    if M < 1:
        raise ValueError("ancilla dimension must be at least 1")
    big = np.zeros((M, n) * 4, dtype=t.dtype)
    np.einsum("alajbkbm->abljkm", big)[...] = t
    return big.reshape((M * n,) * 4)


def zero_pad(ch: Channel, n_to: int) -> Channel:
    """Extend a channel by zeroes to a larger outcome set (explicit, never implicit)."""
    if n_to < ch.n:
        raise DimensionMismatchError("can only pad to a larger dimension")
    n = ch.n
    t = ch.kernel.tensor()
    big = np.zeros((n_to,) * 4, dtype=t.dtype)
    big[:n, :n, :n, :n] = t
    return Channel(QuotientFunction.from_tensor(big))


def pad_element(psi: AlgebraElement, n_to: int) -> AlgebraElement:
    """psi on pair_groupoid(n) as the corner of a function on pair_groupoid(n_to)."""
    if not is_pair_groupoid(psi.groupoid):
        raise DimensionMismatchError("pad_element expects a function on a pair groupoid")
    n = psi.groupoid.n_objects
    if n_to < n:
        raise DimensionMismatchError("can only pad to a larger dimension")
    values = [psi.values[j * n + k] if j < n and k < n else 0 for j in range(n_to) for k in range(n_to)]
    return AlgebraElement(pair_groupoid(n_to), values)


# -- matrix representations --


@dataclass(frozen=True)
class AMatrix:
    n: int
    matrix: np.ndarray


@dataclass(frozen=True)
class ChoiMatrix:
    n: int
    matrix: np.ndarray


def to_a_matrix(ch: Channel) -> AMatrix:
    """A[(l,m),(r,s)] = f((l,r),(s,m)); vec(out) = A·vec(in)."""
    return AMatrix(ch.n, tensor_matrix(ch.kernel))


def to_choi(ch: Channel) -> ChoiMatrix:
    """Choi[(l,j),(m,k)] = f((l,j),(k,m)); PSD exactly for completely positive maps."""
    n = ch.n
    choi = np.array(ch.kernel.tensor().transpose(0, 1, 3, 2), dtype=np.complex128, order="C")
    return ChoiMatrix(n, choi.reshape(n * n, n * n))


def channel_from_a_matrix(a: AMatrix) -> Channel:
    n = a.n
    f = a.matrix.reshape(n, n, n, n).transpose(0, 2, 3, 1)
    return Channel(QuotientFunction.from_tensor(f))


def channel_from_choi(c: ChoiMatrix) -> Channel:
    n = c.n
    f = c.matrix.reshape(n, n, n, n).transpose(0, 1, 3, 2)
    return Channel(QuotientFunction.from_tensor(f))


def choi_kraus_decomposition(ch: Channel, tol: float = PSD_TOL) -> KrausFamily:
    """Kraus members from the eigendecomposition of the Choi matrix.

    Requires the Choi matrix to be Hermitian PSD within tol.  One solve, with
    eigenvectors, both decides that and gives the members, √λ·v for each
    eigenvalue λ above tol, largest first.
    """
    decided = _PSDVerdicts(to_choi(ch).matrix, tol, vectors=True)
    verdict = decided.verdict(0)
    if not verdict.ok:
        raise GroupoidError(
            f"Choi matrix is not Hermitian PSD (defect {verdict.hermitian_defect:.3e}, "
            f"min eigenvalue {verdict.min_eigenvalue:.3e})"
        )
    w, v = verdict.eigenvalues, verdict.eigenvectors
    g = pair_groupoid(ch.n)
    members = [
        AlgebraElement(g, [float(np.sqrt(w[i])) * complex(x) for x in v[:, i]])
        for i in range(len(w) - 1, len(w) - 1 - decided.ranks[0], -1)
    ]
    return KrausFamily(ch.n, members)


# -- positivity diagnostics --


def is_cp(ch: Channel, tol: float = PSD_TOL) -> PSDResult:
    """Complete positivity: the Choi matrix is Hermitian with min eigenvalue >= -tol.

    By channel-state duality this decides positivity of every ancilla
    extension at once.  The channel keeps its verdict per tol: a later call
    with the same tol returns it and solves nothing.
    """
    verdict = ch._verdicts.get(tol)
    if verdict is None:
        verdict = ch._verdicts[tol] = psd_verdict(to_choi(ch).matrix, tol)
    return verdict


def is_flat_psd(ch: Channel, tol: float = PSD_TOL) -> PSDResult:
    """Flat positive semidefiniteness of the kernel.

    Classes are grouped by horizontal compatibility: Γ_j ∘_H Γ_k^{-H} is
    defined exactly when Γ_j and Γ_k share the lower pair (x, w).  For each
    such group the Gram matrix G[j, k] = f(Γ_j ∘_H Γ_k^{-H}) must be
    Hermitian PSD.  With Γ_j = ((z, y), (x, w)) and Γ_k = ((z', y'), (x, w)),
    q_horizontal_compose gives Γ_j ∘_H Γ_k^{-H} = ((z, y), (y', z')), so

        G[(z, y), (z', y')] = f((z, y), (y', z')) = Choi[(z, y), (z', y')]

    for every group: one matrix, decided by ``is_cp`` and kept per tol.
    """
    return is_cp(ch, tol)


def kernel_positive_type(ch: Channel, tol: float = PSD_TOL):
    """Positive-typeness of the kernel along the vertical composition.

    Blocks are indexed by the shared 2-source (j, k); the entry at
    ((z, w), (z', w')) is f(Γ ∘_V Γ'⁻¹) = f((z, z'), (w', w)), the same
    matrix for every 2-source: the A matrix.  Returns (ok, min_eigenvalue).
    """
    verdict = psd_verdict(to_a_matrix(ch).matrix, tol)
    return verdict.ok, verdict.min_eigenvalue


def is_unital(obj, tol: float = 1e-12) -> bool:
    """K(χ_Ω) = χ_Ω.  A Kraus family is decided through its channel, whose
    K(χ_Ω) is Σ_p V_p ⋆ V_p*."""
    if isinstance(obj, KrausFamily):
        obj = from_kraus(obj)
    if not isinstance(obj, Channel):
        raise TypeError("is_unital expects a Channel or a KrausFamily")
    chi = AlgebraElement.units_indicator(pair_groupoid(obj.n))
    return apply(obj, chi).allclose(chi, tol)


def dsf_check(v: AlgebraElement, tol: float = 1e-12) -> bool:
    """Self-adjoint convolution idempotents: V ⋆ V = V and V* = V under the
    counting measure; such functions are exactly the projector-valued states
    generating decoherence channels."""
    g = v.groupoid
    if not is_pair_groupoid(g):
        raise GroupoidError("dsf_check expects a function on a pair groupoid")
    m = GroupoidMeasure.counting(g)
    return convolve(v, v, m).allclose(v, tol) and involute(v, m).allclose(v, tol)


# -- the decoherence example --


def fourier_family(n: int) -> KrausFamily:
    """V_l(j, k) = (1/n) e^{2πi l (j-k)/n} for l = 0..n-1: rank-one projectors
    onto the Fourier basis; a family of self-adjoint convolution idempotents."""
    if n < 1:
        raise ValueError("need n >= 1")
    g = pair_groupoid(n)
    members = []
    for l in range(n):
        vals = [
            cmath.exp(2j * cmath.pi * l * (j - k) / n) / n
            for j in range(n)
            for k in range(n)
        ]
        members.append(AlgebraElement(g, vals))
    return KrausFamily(n, members)


def fourier_channel(n: int) -> Channel:
    return from_kraus(fourier_family(n))


def tomogram(psi: AlgebraElement, n: int, tol: float = PSD_TOL) -> list[float]:
    """Expectations ⟨v_l| ψ |v_l⟩ against the Fourier basis, l = 0..n-1: the
    state on the projectors of ``fourier_family(n)``, tr(V_l ψ) = Σ_x (V_l ⋆ ψ)(1_x).

    Values must be real within tol (they are for positive-type inputs).
    """
    if not is_pair_groupoid(psi.groupoid, n):
        raise DimensionMismatchError("tomogram dimension mismatch")
    members = fourier_family(n).members
    m = GroupoidMeasure.counting(members[0].groupoid)
    out = []
    for l, v in enumerate(members):
        value = complex(state_normalization(convolve(v, psi, m), m))
        if abs(value.imag) > tol:
            raise GroupoidError(f"tomogram value {l} is not real: {value}")
        out.append(value.real)
    return out


# -- randomized positivity falsification --

# the most trials the falsifier draws, applies and decides together: it bounds
# the memory of a search over many trials
_FALSIFIER_CHUNK = 32


@dataclass
class PositivityWitness:
    """A positive-type input whose image fails the positive-type check."""

    trial: int
    ancilla: int
    state: AlgebraElement
    output: AlgebraElement
    min_eigenvalue: float


def random_positive_type(n: int, rng: np.random.Generator, rank: int | None = None) -> AlgebraElement:
    """A random state on pair_groupoid(n) by the Gram construction:
    ψ(j, k) = Σ_i ξ_i(j) conj(ξ_i(k)) over ``rank`` vectors ξ_i with standard
    normal real and imaginary parts, scaled to trace one.  A rank of None is
    drawn from 1..n first.  The state is the one-trial case of
    ``_random_gram_states``; its values are numpy complex128 scalars.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if rank is None:
        rank = int(rng.integers(1, n + 1))
    elif rank < 1:
        raise ValueError(f"rank must be at least 1, got {rank}")
    (mat,) = _random_gram_states(n, rng, np.array([rank]))
    return AlgebraElement(pair_groupoid(n), list(mat.reshape(-1)))


def _random_gram_states(n: int, rng: np.random.Generator, ranks: np.ndarray) -> np.ndarray:
    """One trace-one Gram state of each rank, as an (F, n, n) complex128 stack:
    bit for bit the states ``sum(np.outer(v, v.conj()) for v in vecs)``
    divided by its real trace gives one at a time.

    One ``rng.normal`` call draws the whole stream in the per-state order:
    each state's real parts (rank × n), then its imaginary parts.  The
    vectors are zero-padded to the largest rank.  The Python ``sum`` over the
    rank starts from int 0, as the per-state sum does (a −0.0 becomes +0.0),
    and a padded zero term adds nothing.  Each trace sums one diagonal, as
    ``np.trace`` does (pairwise from n = 8 on).
    """
    rows = rng.normal(size=(2 * int(ranks.sum()), n))
    # state f's rows are its ranks[f] real rows, then as many imaginary rows
    i = np.arange(ranks.max())[:, None]
    real = 2 * (ranks.cumsum() - ranks) + i
    vecs = rows.take(real, axis=0, mode="clip") + 1j * rows.take(real + ranks, axis=0, mode="clip")
    vecs[i >= ranks] = 0  # (rank, state, n), zero past each state's rank
    gram = sum(vecs[:, :, :, None] * vecs[:, :, None, :].conj())
    traces = gram.diagonal(0, 1, 2).sum(axis=1)
    return gram / traces.real[:, None, None]


def random_kraus_channel(n: int, rng: np.random.Generator, members: int | None = None) -> Channel:
    """A random completely positive channel with the given Kraus rank."""
    if members is None:
        members = int(rng.integers(1, n * n + 1))
    g = pair_groupoid(n)
    fam = []
    for _ in range(members):
        vals = (rng.normal(size=n * n) + 1j * rng.normal(size=n * n)) / np.sqrt(n)
        fam.append(AlgebraElement(g, list(vals)))
    return from_kraus(KrausFamily(n, fam))


def random_choi_hermitian_channel(
    n: int, rng: np.random.Generator, psd: bool = False
) -> Channel:
    """A random kernel whose Choi matrix is Hermitian (PSD when psd=True)."""
    d = n * n
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (h + h.conj().T) / 2
    if psd:
        h = h @ h.conj().T / d
    return channel_from_choi(ChoiMatrix(n, h))


def positivity_falsifier(
    ch: Channel,
    trials: int,
    seed: int,
    ancilla: int = 1,
    tol: float = PSD_TOL,
) -> PositivityWitness | None:
    """Search for a positive-type input mapped to a non-positive-type output.

    Random positive-type states are drawn on the product of the channel's
    base with an ancilla pair groupoid of the given size (at least one) and
    fed through the trivially extended channel id_M ⊗ K.  This falsifies
    complete positivity without the Choi matrix; it is a sampler, never a
    verifier.  Trial ranks cycle from one (pure, maximally falsifying for
    entanglement-breaking failures) upward.  Trials are drawn in order from
    one seeded stream, as ``random_positive_type`` would draw them one at a
    time, and handled a chunk at a time as arrays: one draw of the chunk's
    Gram states, one contraction with the kernel tensor of id_M ⊗ K, built
    once, and one stacked positive-type decision.  The first failing trial
    is the witness, the only trial made into ``AlgebraElement``s, and no
    chunk after it is drawn.  Chunks double from one trial up to
    ``_FALSIFIER_CHUNK`` trials, so a witness at trial t is found after at
    most 2t + 1 draws.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    kernel = _extended_tensor(ch.kernel.tensor(), ancilla)
    dim = kernel.shape[0]
    g = pair_groupoid(dim)
    rng = np.random.default_rng(seed)
    start, size = 0, 1
    while start < trials:
        chunk = np.arange(start, min(start + size, trials))
        states = _random_gram_states(dim, rng, chunk % dim + 1).reshape(len(chunk), -1)
        outputs = _apply_tensor(kernel, states)
        verdicts = _PositiveTypeStack(g, outputs.astype(np.complex128, copy=False), tol)
        failing = np.flatnonzero(~verdicts.ok)
        if failing.size:
            p = failing[0]
            return PositivityWitness(
                trial=int(chunk[p]),
                ancilla=ancilla,
                state=AlgebraElement(g, states[p]),
                output=AlgebraElement(g, outputs[p]),
                min_eigenvalue=verdicts.result(p).min_eigenvalue,
            )
        start, size = start + len(chunk), min(2 * size, _FALSIFIER_CHUNK)
    return None
