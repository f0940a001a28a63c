"""Poke at the orthonormal spherical-harmonic bases behind the moment tests.

Shows the dimension count per degree, checks empirical orthonormality with
a Monte Carlo Gram matrix, and demonstrates the parity and rotation
behaviour of the basis functions.
"""

import numpy as np
from numpy.random import default_rng

from ellipsym import build_basis, harmonic_dim, sample_uniform_sphere

rng = default_rng(7)

print("dim of the degree-k harmonic space on the unit sphere in R^d:")
print(f"{'d':>3} " + "".join(f"{f'k={k}':>6}" for k in range(5)) + "  total")
for d in range(2, 7):
    dims = [harmonic_dim(d, k) for k in range(5)]
    print(f"{d:>3} " + "".join(f"{v:>6}" for v in dims) + f"{sum(dims):>7}")
print()

d = 3
basis = build_basis(d)
U = sample_uniform_sphere(d, 200_000, rng)
B = basis.evaluate(U)

G = B.T @ B / len(U)
err = np.max(np.abs(G - np.eye(basis.size)))
print(f"d={d}: max |Gram - I| over {len(U):,} uniform points = {err:.4f}")

# parity: odd degrees flip sign with u, even degrees do not (exactly)
Bneg = basis.evaluate(-U[:50])
for k in range(5):
    sl = basis.degree_slice(k)
    sign = -1.0 if k % 2 else 1.0
    exact = np.array_equal(Bneg[:, sl], sign * B[:50, sl])
    print(f"degree {k}: psi(-u) == {'-' if k % 2 else '+'}psi(u) exactly: {exact}")

# rotations mix the functions within a degree but keep the vector length
Q, R = np.linalg.qr(rng.normal(size=(d, d)))
Q *= np.sign(np.diag(R))
BQ = basis.evaluate(U[:50] @ Q.T)
for k in range(1, 5):
    sl = basis.degree_slice(k)
    drift = np.max(
        np.abs(np.sum(BQ[:, sl] ** 2, axis=1) - np.sum(B[:50, sl] ** 2, axis=1))
    )
    mixing = np.max(np.abs(BQ[:, sl] - B[:50, sl]))
    print(f"degree {k}: rotation changes entries by up to {mixing:.3f}, "
          f"but the squared length moves only {drift:.2e}")
