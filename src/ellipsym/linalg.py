"""Dense symmetric linear algebra shared by the tests.

Symmetric square roots come from eigendecompositions so that the root is
the unique symmetric one; the Gram-Schmidt (triangular) standardizer comes
from a Cholesky factorization.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .exceptions import DomainError, UsageError

# Relative eigenvalue floor: a symmetric matrix counts as positive definite
# only if min_eig > SPD_RTOL * max_eig.  Collinear inputs must fail loudly.
SPD_RTOL = 1e-10


def _as_symmetric(S, name: str) -> NDArray[np.float64]:
    A = np.asarray(S, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise UsageError(f"{name} must be a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise DomainError(f"{name} has non-finite entries")
    scale = np.max(np.abs(A))
    if scale > 0 and np.max(np.abs(A - A.T)) > 1e-12 * scale:
        raise DomainError(f"{name} is not symmetric")
    return 0.5 * (A + A.T)


def _spd_eigh(S, name: str):
    A = _as_symmetric(S, name)
    vals, vecs = np.linalg.eigh(A)
    if vals[0] <= SPD_RTOL * vals[-1] or vals[-1] <= 0.0:
        raise DomainError(
            f"{name} is not positive definite: smallest eigenvalue "
            f"{vals[0]:.6g} vs largest {vals[-1]:.6g}"
        )
    return vals, vecs


def sym_sqrt(S) -> NDArray[np.float64]:
    """Symmetric square root: the unique symmetric M with M @ M = S.

    Parameters
    ----------
    S : array_like
        Symmetric positive-definite matrix.

    Raises
    ------
    DomainError
        If ``S`` is not symmetric positive definite (smallest eigenvalue
        at or below ``SPD_RTOL`` times the largest).
    """
    vals, vecs = _spd_eigh(S, "S")
    return (vecs * np.sqrt(vals)) @ vecs.T


def sym_inv_sqrt(S) -> NDArray[np.float64]:
    """Symmetric inverse square root: the unique symmetric M with M S M = I."""
    vals, vecs = _spd_eigh(S, "S")
    return (vecs / np.sqrt(vals)) @ vecs.T


def gram_schmidt_root(S) -> NDArray[np.float64]:
    """Lower-triangular R with positive diagonal and R @ S @ R.T = I.

    This is the inverse of the Cholesky factor of ``S``; standardizing with
    it (rather than with the symmetric root) makes the result invariant
    under lower-triangular positive-diagonal transformations of the data.
    """
    vals, _ = _spd_eigh(S, "S")
    L = np.linalg.cholesky(np.asarray(S, dtype=float))
    d = L.shape[0]
    # invert the triangular factor by forward substitution against I
    R = np.linalg.solve(L, np.eye(d))
    return R
