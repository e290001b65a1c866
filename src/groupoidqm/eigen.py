"""Round-robin Jacobi diagonalization for stacks of small dense Hermitian matrices.

Every positive-semidefiniteness verdict in this package is decided by this
solver rather than an external eigensolver.  The matrices involved are small
(at most n² x n² with n the number of outcomes), where Jacobi is simple,
converges quadratically and keeps the relative accuracy of graded positive
definite matrices (Demmel & Veselić, SIAM J. Matrix Anal. Appl. 13(4), 1992).

A sweep visits every off-diagonal pair once, in the round-robin parallel
ordering of Brent & Luk (SIAM J. Sci. Stat. Comput. 6(1):69-84, 1985): d - 1
rounds of d/2 disjoint pairs, or d rounds with one dummy index for odd d.
The rotations of a round act on disjoint planes, so a round is applied to a
whole stack of shape (B, d, d) at once by a few array operations.  Each
rotation zeroes its pivot A[p, q] = r·e^{iφ}: the phase diag(1, e^{-iφ}) on
the (p, q) plane makes it real, and the classical real rotation with
t = sign(τ)/(|τ| + sqrt(1+τ²)), τ = (A_qq - A_pp)/(2|A_pq|), annihilates it.

Before each round the basis is permuted so that the pairs of the round sit
at positions (0, 1), (2, 3), ...; the round is then a product with 2 x 2
blocks.  The permutation is undone before the eigenpairs are returned.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def hermitian_eigh(a, tol: float = 1e-14, max_sweeps: int = 60):
    """Eigenvalues and eigenvectors of a Hermitian matrix, or a stack of them.

    Returns (w, v): eigenvalues ascending as a float array and a unitary matrix
    whose columns are the matching eigenvectors.  A stack of shape (B, d, d)
    gives w of shape (B, d) and v of shape (B, d, d), each matrix decided as
    if alone.  The input is symmetrized as (A + A†)/2; callers that care about
    Hermiticity defects must check them separately.  A matrix stops rotating
    once its off-diagonal norm is at most tol·max|A|·d; ArithmeticError is
    raised if any matrix is still above that after max_sweeps sweeps, and
    ValueError on non-finite entries.
    """
    A = np.array(a, dtype=np.complex128)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    single = A.ndim == 2
    if single:
        A = A[None]
    A = (A + A.conj().swapaxes(1, 2)) / 2
    w, v = _jacobi(A, tol, max_sweeps)
    return (w[0], v[0]) if single else (w, v)


@lru_cache(maxsize=64)
def _round_robin(d: int):
    """The sweep plan for order d >= 2, cached since it depends on d alone.

    Layout r lists the m = d + (d mod 2) indices so that round r pairs the
    entries at positions (0, 1), (2, 3), ...; index d is the dummy of odd
    orders.  The working array moves from layout r - 1 into layout r at the
    start of round r (from the last layout, for r = 0), so a sweep starts and
    ends in the last layout.  Returns (plan, where, offdiag):

    - plan[r] = (perm, pivots): perm[i] is the position in layout r - 1 of
      the index at position i of layout r, or None if they are equal; pivots
      are the flat offsets of the entries (p, p), (q, q) and (p, q) of the
      pairs of round r, in layout r - 1 and in rows of length 2m;
    - where[j], the position of index j in the last layout, for j < d;
    - offdiag, the flat offsets of the off-diagonal entries.
    """
    m = d + d % 2
    players = list(range(m))
    layouts = []
    for _ in range(m - 1):
        layout = []
        for i in range(m // 2):
            p, q = players[i], players[m - 1 - i]
            layout += [min(p, q), max(p, q)]
        layouts.append(np.array(layout, dtype=np.intp))
        players = [players[0], players[-1]] + players[1:-1]
    plan = []
    for r, layout in enumerate(layouts):
        perm = np.argsort(layouts[r - 1])[layout]
        p, q = perm[0::2], perm[1::2]
        pivots = np.concatenate([p * (2 * m + 1), q * (2 * m + 1), p * 2 * m + q])
        plan.append((None if np.array_equal(perm, np.arange(m)) else perm, pivots))
    rows, cols = np.nonzero(~np.eye(m, dtype=bool))
    return tuple(plan), np.argsort(layouts[-1])[:d], rows * 2 * m + cols


def _jacobi(A, tol: float, max_sweeps: int):
    """Sorted eigenvalues (B, d) and eigenvectors (B, d, d) of a Hermitian stack."""
    b, d = A.shape[0], A.shape[-1]
    if d < 2 or b == 0:
        return A.real.reshape(b, d).copy(), np.ones_like(A)
    m = d + d % 2
    plan, where, offdiag = _round_robin(d)
    # Row i of W holds row i of the matrix being diagonalized, then row i of
    # U = V†, the adjoint of the accumulated rotation, so that one row
    # operation rotates both.  Odd orders get a zero dummy row and column,
    # which no rotation touches since their pivots are zero.
    W = np.zeros((b, m, 2 * m), dtype=np.complex128)
    W[:, where[:, None], where] = A
    W[:, where, m + np.arange(d)] = 1
    scale = np.maximum(np.abs(A).max(axis=(1, 2)), 1e-300)[:, None]
    skip = tol * scale / d
    for _ in range(max_sweeps):
        # off ≤ tol·scale·d, with the norm taken of A/scale so that squaring
        # neither overflows nor underflows at extreme scales
        rel = np.abs(W.reshape(b, 2 * m * m)[:, offdiag]) / scale
        live = np.sqrt(np.add.reduce(rel * rel, axis=1)) > tol * d
        if not np.count_nonzero(live):
            break
        # A converged matrix gets no rotation: its threshold is infinite.
        W = _sweep(W, np.where(live[:, None], skip, np.inf), plan)
    else:
        raise ArithmeticError("Jacobi sweep limit reached without convergence")
    # Ascending by eigenvalue; equal ones keep the order of their indices.
    w = W.reshape(b, 2 * m * m)[:, :: 2 * m + 1].real[:, where]
    order = np.argsort(w, axis=1, kind="stable")
    rows = np.arange(b)[:, None]
    return w[rows, order], W[rows, where[order], m : m + d].conj().swapaxes(1, 2)


def _sweep(W, skip, plan):
    """One sweep over a stack; returns the rotated stack.

    A round rotates every pair (2i, 2i+1) of its layout: A ← J†·A·J and
    U ← J†·U.  Both are row operations, because A·J = (J†·A)† for Hermitian
    A, and the relabelling into the layout rides along as row gathers.
    """
    b, m = W.shape[0], W.shape[1]
    k = m // 2
    Jh = np.empty((b, k, 2, 2), dtype=np.complex128)
    for perm, pivots in plan:
        piv = W.reshape(b, 2 * m * m)[:, pivots]
        apq = piv[:, 2 * k :]
        r = np.abs(apq)
        rot = r > skip
        if not np.count_nonzero(rot):
            if perm is not None:
                W = W.take(perm, axis=1)
                W[:, :, :m] = W[:, :, :m].take(perm, axis=2)
            continue
        diag = piv[:, : 2 * k].real
        half = (diag[:, k:] - diag[:, :k]) * 0.5
        # g·r = t, the tangent of the rotation angle; g = 0 keeps a pair fixed.
        g = np.copysign(rot, half)
        np.divide(g, np.abs(half) + np.hypot(half, r), out=g, where=rot)
        c = 1.0 / np.hypot(1.0, g * r)
        sp = c * g * apq
        Jh.reshape(b, k, 4)[:, :, ::3] = c[:, :, None]
        np.negative(sp, out=Jh[:, :, 0, 1])
        np.conjugate(sp, out=Jh[:, :, 1, 0])
        if perm is not None:
            W = W.take(perm, axis=1)
        W = np.matmul(Jh, W.reshape(b, k, 2, 2 * m)).reshape(b, m, 2 * m)
        turned = W[:, :, :m].conj().swapaxes(1, 2)
        if perm is not None:
            turned = turned.take(perm, axis=1)
        np.matmul(Jh, turned.reshape(b, k, 2, m), out=W[:, :, :m].reshape(b, k, 2, m))
        flat = W.reshape(b, 2 * m * m)
        np.copyto(flat[:, 1 :: 4 * m + 2], 0, where=rot)
        np.copyto(flat[:, 2 * m :: 4 * m + 2], 0, where=rot)
        flat[:, :: 2 * m + 1].imag = 0
    return W


def min_eigenvalue(a) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    w, _ = hermitian_eigh(a)
    return float(w[0])


def hermitian_defect(a) -> float:
    """max |A - A†| entrywise; zero on exactly Hermitian input."""
    A = np.asarray(a, dtype=np.complex128)
    return float(np.max(np.abs(A - A.conj().T))) if A.size else 0.0
