"""Dense symmetric linear algebra shared by the tests.

Symmetric square roots come from eigendecompositions so that the root is
the unique symmetric one; the Gram-Schmidt (triangular) standardizer comes
from a Cholesky factorization.  Each root accepts one (d, d) matrix or a
(..., d, d) stack of them and returns the same shape.  The positive-
definiteness rule below lives only in this module and every root applies
it, so a caller whitens with a root and does not check the matrix first.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .exceptions import DomainError, UsageError

# Relative eigenvalue floor: a symmetric matrix counts as positive definite
# only if min_eig > SPD_RTOL * max_eig.  Collinear inputs must fail loudly.
SPD_RTOL = 1e-10


def _real(A, error, message) -> NDArray[np.float64]:
    """``A`` as a float array, else ``error`` with ``message`` and the reason."""
    try:
        if np.iscomplexobj(A):
            raise TypeError("complex values")
        return np.asarray(A, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{message}: {exc}") from None


def _as_symmetric(S) -> NDArray[np.float64]:
    A = _real(S, DomainError, "S is not a real numeric matrix")
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or A.shape[-1] == 0:
        raise UsageError(
            f"S must be a non-empty square matrix or a stack of them, got shape {A.shape}"
        )
    if not np.isfinite(A).all():
        raise DomainError("S has non-finite entries")
    AT = np.swapaxes(A, -1, -2)
    # each matrix is held to its own scale, so one stack may mix magnitudes
    scale = np.abs(A).max(axis=(-2, -1))
    if (np.abs(A - AT).max(axis=(-2, -1)) > 1e-12 * scale).any():
        raise DomainError("S is not symmetric")
    return 0.5 * A + 0.5 * AT  # 0.5 * (A + AT) overflows for entries near 1e308


def _require_spd(vals) -> None:
    """Refuse a stack whose ascending eigenvalues (..., d) break the rule."""
    bad = vals[..., 0] <= SPD_RTOL * vals[..., -1]  # true, too, if vals[..., -1] <= 0
    if bad.any():
        low, high = vals[bad][0][[0, -1]]
        raise DomainError(
            "scatter matrix is not positive definite: smallest eigenvalue "
            f"{low:.6g} vs largest {high:.6g}"
        )


def _spd_eigh(S):
    vals, vecs = np.linalg.eigh(_as_symmetric(S))
    _require_spd(vals)
    return vals, vecs


def _spd(S) -> NDArray[np.float64]:
    """``S`` made exactly symmetric, once each matrix is known to be SPD."""
    A = _as_symmetric(S)
    _require_spd(np.linalg.eigvalsh(A))
    return A


def sym_sqrt(S) -> NDArray[np.float64]:
    """Symmetric square root: the unique symmetric M with M @ M = S.

    Parameters
    ----------
    S : array_like, shape (..., d, d)
        Symmetric positive-definite matrix, or a stack of them.

    Raises
    ------
    DomainError
        If a matrix of ``S`` is not symmetric positive definite (smallest
        eigenvalue at or below ``SPD_RTOL`` times the largest).
    """
    vals, vecs = _spd_eigh(S)
    return (vecs * np.sqrt(vals)[..., None, :]) @ np.swapaxes(vecs, -1, -2)


def sym_inv_sqrt(S) -> NDArray[np.float64]:
    """Symmetric inverse square root: the unique symmetric M with M S M = I."""
    vals, vecs = _spd_eigh(S)
    return (vecs / np.sqrt(vals)[..., None, :]) @ np.swapaxes(vecs, -1, -2)


def gram_schmidt_root(S) -> NDArray[np.float64]:
    """Lower-triangular R with positive diagonal and R @ S @ R.T = I.

    This is the inverse of the Cholesky factor of ``S``; standardizing with
    it (rather than with the symmetric root) makes the result invariant
    under lower-triangular positive-diagonal transformations of the data.
    """
    return np.linalg.inv(np.linalg.cholesky(_spd(S)))


def row_norms(Y) -> NDArray[np.float64]:
    """``np.linalg.norm(Y, axis=-1)`` bit for bit, with no array of squares:
    numpy adds up to seven squares in order, as here, and more pairwise."""
    if Y.shape[-1] >= 8:
        return np.linalg.norm(Y, axis=-1)
    total = Y[..., 0] * Y[..., 0]
    for j in range(1, Y.shape[-1]):
        total += Y[..., j] * Y[..., j]
    return np.sqrt(total, out=total)
