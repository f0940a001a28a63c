"""Benchmark inputs, generated from the workload seed with numpy alone.

None of ellipsym's samplers is used here, so a change to a sampler cannot
change what the benchmark measures.  Every input is a pure function of the
seed (and, for the library workload, of the call index).
"""

from __future__ import annotations

import numpy as np

#: cli_csv: one large skew-normal sample, written once per run
CLI_N, CLI_D, CLI_SLANT = 50_000, 5, 2.0

#: rolling: an elliptical first half followed by a skewed second half
ROLL_HALF, ROLL_SLANT, ROLL_NU = 300, 3.0, 5.0
ROLL_ROOT = np.array([[1.0, 0.0], [0.6, 0.8]])

#: bootstrap: sample shapes of the two library-call kinds
KS_N, KS_D, KS_NU = 1000, 4, 5.0
HP_N, HP_D, HP_SLANT = 2000, 3, 1.0


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def skew_normal(rng: np.random.Generator, n: int, d: int, slant: float):
    """Skew-normal along the first axis: z1 keeps its sign iff w < slant * z1."""
    Z = rng.standard_normal((n, d))
    w = rng.standard_normal(n)
    flip = ~(w < slant * Z[:, 0])
    Z[flip, 0] = -Z[flip, 0]
    return Z


def student_t(rng: np.random.Generator, n: int, d: int, nu: float):
    """Spherical multivariate t: a normal block over an independent chi scale."""
    Z = rng.standard_normal((n, d))
    return Z * np.sqrt(nu / rng.chisquare(nu, size=n))[:, None]


def cli_sample(seed: int):
    return skew_normal(_rng(seed, 0), CLI_N, CLI_D, CLI_SLANT)


def rolling_sample(seed: int):
    rng = _rng(seed, 1)
    first = student_t(rng, ROLL_HALF, 2, ROLL_NU)
    second = skew_normal(rng, ROLL_HALF, 2, ROLL_SLANT)
    return np.vstack([first, second]) @ ROLL_ROOT.T


def bootstrap_sample(seed: int, index: int, kind: str):
    """The sample of library call ``index``, drawn fresh for every call."""
    rng = _rng(seed, 2, index)
    if kind == "ks":
        return student_t(rng, KS_N, KS_D, KS_NU)
    return skew_normal(rng, HP_N, HP_D, HP_SLANT)


def write_csv(path, X) -> None:
    header = ",".join(f"x{j + 1}" for j in range(X.shape[1]))
    np.savetxt(path, X, delimiter=",", fmt="%.17g", header=header, comments="")
