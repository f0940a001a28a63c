"""Location and scatter estimators.

Besides the sample covariance this module provides Tyler's
M-estimator of scatter, the distribution-free estimator used by the
pseudo-Gaussian and skew-optimal tests.  Tyler's estimator is defined only
up to scale; the iteration here fixes the scale so that the average squared
Mahalanobis norm of the data equals the dimension, which makes it agree
asymptotically with the covariance matrix under ellipticity with finite
second moments.

References
----------
Tyler, D. E. (1987). A distribution-free M-estimator of multivariate
scatter. The Annals of Statistics, 15(1), 234-251.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .exceptions import ConvergenceError, DomainError, NumericError, UsageError
from .linalg import _real, _spd, sym_inv_sqrt

ZERO_NORM_TOL = 1e-12
TYLER_TOL = 1e-12
TYLER_MAX_ITER = 500


def validate_sample(X) -> NDArray[np.float64]:
    """Coerce X to a float n x d array and enforce n > d >= 2."""
    A = _real(X, DomainError, "sample is not a real numeric matrix")
    if A.ndim != 2:
        raise DomainError(f"sample must be a 2-D array, got ndim={A.ndim}")
    n, d = A.shape
    if d < 2:
        raise DomainError(f"sample must have at least 2 columns, got d={d}")
    if n <= d:
        raise DomainError(f"sample needs more rows than columns (n={n}, d={d})")
    if not np.all(np.isfinite(A)):
        raise DomainError("sample contains non-finite values")
    return A


_OVERFLOW_MESSAGE = (
    "the data's magnitude overflows the second-moment matrix; rescale the data"
)


def _second_moment(W, denominator) -> NDArray[np.float64]:
    """W'W / denominator for W of shape (..., n, d), refusing overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        S = np.swapaxes(W, -1, -2) @ W / denominator
    if not np.all(np.isfinite(S)):
        raise DomainError(_OVERFLOW_MESSAGE)
    return S


def _centered_cov(A, denominator):
    """(W, S) for each sample of a (..., n, d) stack: the residuals about the
    sample's mean and W'W / denominator.  S is not yet known to be positive
    definite; the ``linalg`` root that whitens W with it checks that."""
    W = A - A.mean(axis=-2, keepdims=True)
    return W, _second_moment(W, denominator)


def sample_cov(X, denominator: str = "n") -> NDArray[np.float64]:
    """Centered cross-product matrix divided by n or n-1.

    Parameters
    ----------
    X : array_like, shape (n, d)
    denominator : {"n", "n-1"}
        "n" gives the maximum-likelihood version, "n-1" the unbiased one.

    Raises
    ------
    DomainError
        If the result is rank deficient (smallest eigenvalue at or below
        ``SPD_RTOL`` times the largest) or overflows.
    """
    A = validate_sample(X)
    if denominator not in ("n", "n-1"):
        raise UsageError(f"denominator must be 'n' or 'n-1', got {denominator!r}")
    n = A.shape[0]
    return _spd(_centered_cov(A, n if denominator == "n" else n - 1)[1])


def tyler_scatter(X, location) -> NDArray[np.float64]:
    """Tyler's M-estimator of scatter about a given location.

    Runs the fixed-point iteration

        V <- (d/n) * sum_i w_i w_i' / (w_i' V^{-1} w_i),   w_i = x_i - location,

    starting at the second-moment matrix about ``location`` and trace-
    normalizing each iterate.  Convergence is declared when the fixed-point
    residual  || V^{-1/2} M(V) V^{-1/2} - I ||_max  drops below ``TYLER_TOL``,
    i.e. when the direction vectors s_i = V^{-1/2} w_i / ||V^{-1/2} w_i||
    satisfy (d/n) sum_i s_i s_i' = I to within 1e-12.  One root V^{-1/2} per
    iteration gives that residual and the squared norms w_i' V^{-1} w_i =
    ||V^{-1/2} w_i||^2; with the last iteration's norms the returned matrix
    is rescaled so that (1/n) sum_i w_i' V^{-1} w_i = d.

    Raises
    ------
    UsageError
        If ``location`` is not a finite vector of length d.
    DomainError
        If an observation coincides with ``location`` (its squared norm is
        at most ``ZERO_NORM_TOL**2`` times the median, a scale that one gross
        outlier cannot move), or if the second-moment matrix overflows.
    NumericError
        If an iterate is numerically singular, as when the data are collinear
        or one observation is many orders of magnitude farther from
        ``location`` than the rest.
    ConvergenceError
        If the residual is still at least 1e-12 after ``TYLER_MAX_ITER``
        (500) iterations; the message carries the last residual.
    """
    A = validate_sample(X)
    n, d = A.shape
    theta = _real(location, UsageError, "location is not a real numeric vector")
    if theta.shape != (d,):
        raise UsageError(
            f"location must be a vector of length {d}, got shape {theta.shape}"
        )
    if not np.all(np.isfinite(theta)):
        raise UsageError("location must be finite")
    W = A - theta
    V = _second_moment(W, n)
    sq = np.einsum("ij,ij->i", W, W)
    if not np.isfinite(sq.max()):  # one norm can overflow while W'W does not
        raise DomainError(_OVERFLOW_MESSAGE)
    if np.any(sq <= ZERO_NORM_TOL**2 * np.median(sq)):
        raise DomainError(
            "an observation coincides with the location "
            "(norm <= 1e-12 times the median)"
        )

    V *= d / np.trace(V)
    resid = np.inf
    for _ in range(TYLER_MAX_ITER):
        try:
            iroot = sym_inv_sqrt(V)
        except DomainError as exc:
            raise NumericError(
                "Tyler scatter iterate is numerically singular; the data may be "
                "collinear, or an observation may lie too far from the location "
                "for the fit (rescale or remove it)"
            ) from exc
        Z = W @ iroot
        q = np.einsum("ij,ij->i", Z, Z)  # w_i' V^{-1} w_i
        del Z
        if np.any(q <= 0.0):
            raise DomainError("scatter iterate lost positive definiteness")
        M = (W / q[:, None]).T @ W * (d / n)
        resid = np.max(np.abs(iroot @ M @ iroot - np.eye(d)))
        if resid < TYLER_TOL:
            break
        V = M * (d / np.trace(M))
    else:
        raise ConvergenceError(
            f"Tyler iteration did not converge in {TYLER_MAX_ITER} steps "
            f"(last residual {resid:.3e}, tol {TYLER_TOL:.1e})"
        )
    # scale fix: average squared Mahalanobis norm equals d (q is about V)
    return V * (q.mean() / d)
