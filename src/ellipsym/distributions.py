"""Probability machinery: chi-squared laws, radial densities, samplers,
null-law descriptors and p-values.

Samplers use numpy Generators seeded explicitly, so every draw in the
package is reproducible.  The draw order inside each sampler is part of
its contract (golden files depend on it) and must not change.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .exceptions import NumericError, UsageError, _integer, _number
from .linalg import _real, row_norms, sym_sqrt

#: relative stopping tolerance of the incomplete-gamma series and fraction
_GAMMA_EPS = 2.0**-53
#: floor that keeps the Lentz iterates away from zero
_GAMMA_TINY = 1e-300
#: term limit at small a; near x = a both expansions need about
#: 8.6 * sqrt(a) terms, so the limit grows by 20 * sqrt(a)
_GAMMA_MAX_TERMS = 10_000


def _gamma_q(a: float, x: float) -> float:
    """Q, the regularized upper incomplete gamma at x >= 0.

    Below x = a + 1 the power series gives the lower tail P and Q = 1 - P;
    from there on the continued fraction, evaluated by the modified Lentz
    method, gives Q.  Either way the smaller tail carries no cancellation,
    and both share the prefactor exp(-x + a log x - lgamma(a)), so a tail
    beyond the double range comes out as exactly 0.0.  The exponent of
    the prefactor cancels as a grows, which bounds the accuracy (see
    :func:`chi2_sf`).
    """
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    prefactor = math.exp(-x + a * math.log(x) - math.lgamma(a))
    max_terms = _GAMMA_MAX_TERMS + int(20.0 * math.sqrt(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        ap = a
        for _ in range(max_terms):
            ap += 1.0
            term *= x / ap
            total += term
            if term < total * _GAMMA_EPS:
                return 1.0 - prefactor * total
    else:
        b = x + 1.0 - a
        c = 1.0 / _GAMMA_TINY
        d = 1.0 / b
        h = d
        for i in range(1, max_terms):
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            if abs(d) < _GAMMA_TINY:
                d = _GAMMA_TINY
            c = b + an / c
            if abs(c) < _GAMMA_TINY:
                c = _GAMMA_TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
            if abs(delta - 1.0) < _GAMMA_EPS:
                return prefactor * h
    raise NumericError(f"incomplete gamma did not converge at a={a}, x={x}")


def chi2_sf(x: float, df: float) -> float:
    """Chi-squared survival function, 1 - CDF, computed without cancellation.

    Relative error about 1e-12 for df up to 2000 and 1e-11 at df = 1e4,
    growing in proportion to df beyond (about 1e-9 at df = 1e6); the
    package's own dfs are at most 870 for d <= 10.
    """
    x, df = _number("x", x), _number("df", df)
    if not 0 < df < math.inf:
        raise UsageError(f"df must be positive and finite, got {df}")
    if not x >= 0:
        raise UsageError(f"chi2_sf requires x >= 0, got {x}")
    return _gamma_q(df / 2.0, x / 2.0)


# ---------------------------------------------------------------------------
# radial densities
# ---------------------------------------------------------------------------

RADIAL_FAMILIES = ("t", "logistic", "powerExp")


@dataclass(frozen=True)
class RadialDensity:
    """A radial density family used by the skew-optimal test.

    family : {"t", "logistic", "powerExp"}
    param : finite degrees of freedom nu > 2 for "t"; finite kurtosis
        parameter beta > 0, != 1 for "powerExp"; None for "logistic".

    The t family's density is f(x) = (1 + x^2/nu)^(-(nu+d)/2), so its
    score phi_f = -(log f)' depends on the ambient dimension d, which is
    supplied at evaluation time.
    """

    family: str
    param: Optional[float] = None

    def __post_init__(self):
        if self.family not in RADIAL_FAMILIES:
            raise UsageError(
                f"unknown radial density {self.family!r}; expected one of {RADIAL_FAMILIES}"
            )
        if self.family == "t":
            nu = 4.0 if self.param is None else _number("nu", self.param)
            if not 2.0 < nu < math.inf:
                raise UsageError(f"t radial density requires a finite nu > 2, got {nu}")
            object.__setattr__(self, "param", nu)
        elif self.family == "powerExp":
            beta = 0.5 if self.param is None else _number("beta", self.param)
            if not 0.0 < beta < math.inf:
                raise UsageError(f"powerExp requires a finite beta > 0, got {beta}")
            if beta == 1.0:
                raise UsageError(
                    "powerExp requires beta != 1 (beta = 1 is the Gaussian case)"
                )
            object.__setattr__(self, "param", beta)
        else:  # logistic
            if self.param is not None:
                raise UsageError("logistic radial density takes no parameter")

    def phi(self, x, d: int):
        """The score phi_f(x) = -f'(x)/f(x)."""
        x = np.asarray(x, dtype=float)
        if self.family == "t":
            nu = self.param
            return (nu + d) * x / (nu + x * x)
        if self.family == "logistic":
            return 2.0 * x * np.tanh(0.5 * x * x)
        beta = self.param
        return beta * x ** (2.0 * beta - 1.0)

    def phi_prime(self, x, d: int):
        """Derivative of the score."""
        x = np.asarray(x, dtype=float)
        if self.family == "t":
            nu = self.param
            return (nu + d) * (nu - x * x) / (nu + x * x) ** 2
        if self.family == "logistic":
            t = np.tanh(0.5 * x * x)
            return 2.0 * t + 2.0 * x * x * (1.0 - t * t)
        beta = self.param
        return beta * (2.0 * beta - 1.0) * x ** (2.0 * beta - 2.0)


# ---------------------------------------------------------------------------
# null laws and p-values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NullLaw:
    """Descriptor of a test's null distribution.

    kind : {"chi2", "scaled_chi2", "monte_carlo", "bootstrap"}
    df, scale : parameters of the (scaled) chi-squared laws.
    reference : simulated statistic values for the resampling-based kinds:
        any non-empty iterable of finite real numbers, held as a stable-sorted
        tuple of floats.
    """

    kind: str
    df: Optional[float] = None
    scale: Optional[float] = None
    reference: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in ("chi2", "scaled_chi2", "monte_carlo", "bootstrap"):
            raise UsageError(f"unknown null law kind {self.kind!r}")
        for name in ("df", "scale"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _number(name, getattr(self, name)))
        if self.kind in ("chi2", "scaled_chi2"):
            if self.df is None or not 0 < self.df < math.inf:
                raise UsageError("chi-squared null law requires a finite df > 0")
        if self.kind == "scaled_chi2":
            if self.scale is None or not 0.0 < self.scale <= 1.0:
                raise UsageError("scaled chi-squared law requires scale in (0, 1]")
        if self.kind in ("monte_carlo", "bootstrap"):
            ref = self.reference
            if isinstance(ref, Iterable) and not isinstance(ref, np.ndarray):
                ref = list(ref)  # a generator or a set, too
            ref = _real(ref, UsageError, f"{self.kind} reference is not a real numeric sample")
            if ref.ndim != 1 or not ref.size or not np.isfinite(ref).all():
                raise UsageError(f"{self.kind} reference must be a flat, non-empty finite sample")
            object.__setattr__(self, "reference", tuple(np.sort(ref, kind="stable").tolist()))

    @staticmethod
    def chi2(df: float) -> "NullLaw":
        return NullLaw(kind="chi2", df=df)

    @staticmethod
    def scaled_chi2(scale: float, df: float) -> "NullLaw":
        return NullLaw(kind="scaled_chi2", df=df, scale=scale)

    @staticmethod
    def monte_carlo(reference) -> "NullLaw":
        return NullLaw(kind="monte_carlo", reference=reference)

    @staticmethod
    def bootstrap(reference) -> "NullLaw":
        return NullLaw(kind="bootstrap", reference=reference)

    def describe(self) -> dict:
        """JSON-ready summary (reference samples reported by size only)."""
        out: dict = {"kind": self.kind}
        if self.df is not None:
            out["df"] = self.df
        if self.scale is not None:
            out["scale"] = self.scale
        if self.reference is not None:
            out["reference_size"] = len(self.reference)
        return out


def pvalue(law: NullLaw, statistic: float) -> float:
    """p-value of an observed statistic under a null law.

    Resampling laws use the add-one convention
    (1 + #{reference >= statistic}) / (1 + #reference), so the result is
    always strictly positive.
    """
    statistic = _number("statistic", statistic)
    if not math.isfinite(statistic):
        raise UsageError(f"statistic must be finite, got {statistic}")
    if law.kind == "chi2":
        return chi2_sf(statistic, law.df)
    if law.kind == "scaled_chi2":
        return chi2_sf(statistic / law.scale, law.df)
    ref = np.asarray(law.reference)
    exceed = int(np.sum(ref >= statistic))
    return (1.0 + exceed) / (1.0 + len(ref))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(_integer("seed", seed, 0))


def sample_uniform_sphere(d: int, n: int, seed) -> NDArray[np.float64]:
    """n i.i.d. points uniform on S^{d-1} (normalized Gaussian vectors)."""
    d, n = _integer("d", d, 1), _integer("n", n, 1)
    rng = _rng(seed)
    Z = rng.standard_normal((n, d))
    norms = row_norms(Z)
    while np.any(norms < 1e-12):  # essentially impossible, but stay exact
        bad = norms < 1e-12
        Z[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = row_norms(Z)
    return Z / norms[:, None]


def _gaussian(mean, cov, n: int, seed):
    """(mean, Generator, Z @ cov^{1/2}) for an n x d standard normal block Z,
    drawn once mean and cov are checked: the Gaussian step of both samplers."""
    mean = _real(mean, UsageError, "mean is not a real numeric vector")
    root = sym_sqrt(cov)
    if mean.shape != (root.shape[0],):
        raise UsageError("mean and cov dimensions do not match")
    rng = _rng(seed)
    return mean, rng, rng.standard_normal((n, root.shape[0])) @ root


def sample_mvn(mean, cov, n: int, seed) -> NDArray[np.float64]:
    """n draws from N(mean, cov) via the symmetric square root of cov."""
    mean, _, ZR = _gaussian(mean, cov, _integer("n", n, 1), seed)
    return mean + ZR


def sample_mvt(mean, cov, nu: float, n: int, seed) -> NDArray[np.float64]:
    """n draws from the multivariate t with nu degrees of freedom.

    Gaussian numerator over an independent chi scaling: X = mean +
    sqrt(nu / W) * Z @ cov^{1/2} with W ~ chi2(nu).  Draw order: the n x d
    normal block first, then the n chi-squared variables.
    """
    nu, n = _number("nu", nu), _integer("n", n, 1)
    if not 0 < nu < math.inf:
        raise UsageError(f"sample_mvt requires a finite nu > 0, got {nu}")
    mean, rng, ZR = _gaussian(mean, cov, n, seed)
    w = rng.chisquare(nu, size=n)
    return mean + ZR * np.sqrt(nu / w)[:, None]


def sample_skewed(d: int, n: int, slant: float, seed) -> NDArray[np.float64]:
    """Skew-normal-type draws for power studies.

    Z is a standard normal d-vector and W an independent standard normal
    scalar; the draw is Z if W < slant * Z_1 and Z with the sign of its
    first coordinate flipped otherwise.  slant = 0 reduces to N(0, I_d).
    """
    slant, d, n = _number("slant", slant), _integer("d", d, 2), _integer("n", n, 1)
    if not slant >= 0:
        raise UsageError(f"sample_skewed requires slant >= 0, got {slant}")
    rng = _rng(seed)
    Z = rng.standard_normal((n, d))
    W = rng.standard_normal(n)
    flip = ~(W < slant * Z[:, 0])
    Z[flip, 0] = -Z[flip, 0]
    return Z
