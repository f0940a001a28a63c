"""Compare ``tyler_scatter`` with the solve-based fit it replaced.

Until the fit took one symmetric inverse root per iteration, each
iteration also solved V z = w for every row to get the squared norms
w_i' V^{-1} w_i.  ``solve_based_fit`` below is that loop, kept as a
reference: same start, same residual, same tolerance.  For 48 samples
(d = 2..5, n = 50..50,000, Gaussian, t with 3 degrees of freedom and
skewed) the script prints the largest relative difference between the two
scatters and whether the iteration counts agree.

Run from the repository root::

    PYTHONPATH=src python tests/tyler_parity.py
"""

from __future__ import annotations

import numpy as np

import ellipsym.estimators as estimators
from ellipsym import sample_mvn, sample_mvt, sample_skewed, tyler_scatter
from ellipsym.linalg import sym_inv_sqrt


def solve_based_fit(X, location, tol=1e-12, max_iter=500):
    """(scatter, iterations) from the solve-based loop."""
    n, d = X.shape
    W = X - location
    V = W.T @ W / n
    V *= d / np.trace(V)
    for it in range(1, max_iter + 1):
        q = np.einsum("ij,ji->i", W, np.linalg.solve(V, W.T))
        M = (W / q[:, None]).T @ W * (d / n)
        iroot = sym_inv_sqrt(V)
        if np.max(np.abs(iroot @ M @ iroot - np.eye(d))) < tol:
            break
        V = M * (d / np.trace(M))
    q = np.einsum("ij,ji->i", W, np.linalg.solve(V, W.T))
    return V * (q.mean() / d), it


def root_fit(X, location):
    """(scatter, iterations) from ``tyler_scatter``; one root per iteration."""
    calls = []

    def counted(S):
        calls.append(1)
        return sym_inv_sqrt(S)

    estimators.sym_inv_sqrt = counted
    try:
        return tyler_scatter(X, location), len(calls)
    finally:
        estimators.sym_inv_sqrt = sym_inv_sqrt


def samples():
    for d in (2, 3, 4, 5):
        for n in (50, 500, 5_000, 50_000):
            seed = 100 * d + n % 97
            yield "normal", sample_mvn(np.zeros(d), np.eye(d), n, seed)
            yield "t3", sample_mvt(np.zeros(d), np.eye(d), 3.0, n, seed)
            yield "skewed", sample_skewed(d, n, 4.0, seed)


def main() -> int:
    worst, mismatched, count = 0.0, 0, 0
    for kind, X in samples():
        theta = X.mean(axis=0)
        V, iters = root_fit(X, theta)
        R, ref_iters = solve_based_fit(X, theta)
        rel = np.max(np.abs(V - R)) / np.max(np.abs(R))
        worst = max(worst, rel)
        mismatched += iters != ref_iters
        count += 1
        print(f"{kind:7s} n={X.shape[0]:6d} d={X.shape[1]}  iterations "
              f"{iters:3d} vs {ref_iters:3d}  max relative difference {rel:.2e}")
    print(f"{count} samples: largest relative difference {worst:.2e}, "
          f"{mismatched} iteration counts differ")
    return int(worst > 1e-13 or mismatched > 0)


if __name__ == "__main__":
    raise SystemExit(main())
