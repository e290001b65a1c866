"""Hermitian eigenvalues, and eigenvectors when read, for the PSD verdicts.

Every PSD verdict in this package is decided on eigenvalues from
:func:`hermitian_eigh`, the one place that calls a solver: LAPACK's Hermitian
eigensolver through ``numpy.linalg.eigvalsh`` for a verdict, which reads only
the eigenvalues, and through ``numpy.linalg.eigh`` where eigenvectors are
read (a failure witness, a Kraus factorisation).  The input is first checked
to be a finite square matrix or a stack of them, and symmetrized as
(A + A†)/2, so the solver always sees an exactly Hermitian matrix and callers
check Hermiticity defects separately (``hermitian_defect``).  The solver is
backward stable: each computed eigenvalue is within about ε‖A‖ of an exact
one, with ε the unit roundoff, with or without eigenvectors; the two drivers
may differ in the last bits.  That absolute bound is what a verdict comparing
λ_min with an absolute tolerance relies on, also on singular or indefinite
matrices.
"""

from __future__ import annotations

import numpy as np


def _square(a) -> np.ndarray:
    """``a`` as complex128, not copied if it already is; raises ValueError
    unless it is a square matrix or a stack of them."""
    A = np.asarray(a, dtype=np.complex128)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {A.shape}")
    return A


def hermitian_eigh(a, vectors: bool = True):
    """Eigenvalues and eigenvectors of a Hermitian matrix, or a stack of them.

    Returns (w, v): eigenvalues ascending as a float array and a unitary matrix
    whose columns are the matching eigenvectors.  A stack of shape (B, d, d)
    gives w of shape (B, d) and v of shape (B, d, d), each matrix decided as
    if alone.  With ``vectors=False`` only the eigenvalues are solved for, and
    v is None.  The input is symmetrized as (A + A†)/2; callers that care about
    Hermiticity defects must check them separately.  Raises ValueError unless
    the input is a finite square matrix or stack of them.
    """
    A = _square(a)
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    H = (A + A.conj().swapaxes(-1, -2)) / 2
    return np.linalg.eigh(H) if vectors else (np.linalg.eigvalsh(H), None)


def min_eigenvalue(a) -> float:
    """Smallest eigenvalue of a Hermitian matrix; inf for a 0×0 one."""
    w, _ = hermitian_eigh(a, vectors=False)
    return float(w[0]) if len(w) else float("inf")


def hermitian_defect(a) -> float:
    """max |A - A†| entrywise; zero on exactly Hermitian input and on a 0×0 matrix."""
    A = _square(a)
    return float(np.max(np.abs(A - A.conj().swapaxes(-1, -2)), initial=0.0))
