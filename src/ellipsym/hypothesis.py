"""The six hypothesis tests for elliptical symmetry.

Every test takes an (n, d) data matrix and returns a :class:`TestResult`
carrying the observed statistic, its p-value, a descriptor of the null law
the p-value was computed under, and the effective parameters.

========  ==========================================  =======================
key       statistic                                   null law
========  ==========================================  =======================
ks        Koltchinskii-Sakhanenko sup of a harmonic    bootstrap
          empirical process
mpq       Manzotti et al. average of degree-3 and -4   (1 - eps) * chi2
          harmonics outside a small radius
schott    Schott's Wald test on fourth moments         chi2
hp        Huffer-Park sector/shell Pearson counts      bootstrap or
                                                       Monte-Carlo calibrated
pg        pseudo-Gaussian Fechner-asymmetry test       chi2(d)
so        skew-optimal location-score test             chi2(d)
========  ==========================================  =======================

The bootstrap tests resample a null-mimicking ellipse: standardized radii
are drawn with replacement, attached to fresh uniform directions, and mapped
back through the estimated location and scatter.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .distributions import NullLaw, RadialDensity, pvalue, sample_uniform_sphere
from .estimators import ZERO_NORM_TOL, _centered_cov, tyler_scatter, validate_sample
from .exceptions import DomainError, NumericError, UsageError, _integer, _number
from .linalg import _real, gram_schmidt_root, row_norms, sym_inv_sqrt, sym_sqrt
from .resample import ALL_BUT_ONE, BootstrapPlan, run_replicates

#: display names, keyed by the short method identifiers used everywhere else
METHOD_LABELS = {
    "ks": "Test for elliptical symmetry by Koltchinskii and Sakhanenko",
    "mpq": "Test for elliptical symmetry by Manzotti et al.",
    "schott": "Schott test for elliptical symmetry",
    "hp": "Test for elliptical symmetry by Huffer and Park",
    "pg": "Pseudo-Gaussian test for elliptical symmetry",
    "so": "SkewOptimal test for elliptical symmetry",
}

HP_SECTORS = ("orthants", "permutations", "bivariateangles")

#: Monte-Carlo replicates used to calibrate the Huffer-Park statistic when
#: no bootstrap replicate count is requested.
HP_CALIBRATION_SIMS = 2000

#: largest sector/shell grid the Huffer-Park counts table may occupy
_HP_MAX_CELLS = 5_000_000

#: most shells ``_hp_shells`` counts by thresholds; one argsort is cheaper past it
_HP_COUNTED_SHELLS = 12

#: rows per block of Schott's fourth-moment sum
_SCHOTT_ROWS = 2048


@dataclass(frozen=True)
class TestResult:
    """Outcome of one test: statistic, p-value, null law, parameters."""

    method: str
    statistic: float
    p_value: float
    null_law: NullLaw
    params: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return METHOD_LABELS[self.method]

    def describe(self) -> dict:
        """JSON-ready summary of the result."""
        return {
            "method": self.method,
            "label": self.label,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "null_law": self.null_law.describe(),
            "params": {k: _jsonable(v) for k, v in self.params.items()},
        }


def _jsonable(v):
    # tolist gives Python values for arrays and numpy scalars alike
    return v.tolist() if isinstance(v, (np.ndarray, np.generic)) else v


def _prepare(X, location=None):
    """(X, location) validated, and both scaled by the power of two that brings
    their largest |entry| into [0.5, 1) if it lies outside [2^-256, 2^256]:
    exact, and every test is invariant to it, so no result depends on magnitude.
    n = d + 1 rows are refused: their standardized radii all equal d^2/(d + 1)."""
    X = validate_sample(X)
    n, d = X.shape
    if n < d + 2:
        raise DomainError(f"sample needs at least d + 2 = {d + 2} rows (n={n}, d={d})")
    peak = max(X.max(), -X.min())
    if location is not None:
        location = _real(location, UsageError, "location is not a real numeric vector")
        peak = max(peak, np.abs(location).max(initial=0.0))
    if not 2.0**-256 <= peak <= 2.0**256:
        shift = -math.frexp(peak)[1]
        X = np.ldexp(X, shift)
        location = None if location is None else np.ldexp(location, shift)
    return X, location


def _directions(W, scatter):
    """(norms, U) of the residuals W, shape (..., n, d), whitened by
    ``sym_inv_sqrt(scatter)``, which checks the scatter: the whitened rows'
    norms, and the whitened rows divided by them in place."""
    Y = W @ sym_inv_sqrt(scatter)
    norms = row_norms(Y)
    if np.any(norms < ZERO_NORM_TOL):
        i = int(np.argmin(norms)) % norms.shape[-1]
        raise DomainError(
            f"observation {i} coincides with the location estimate; "
            "directions are undefined"
        )
    Y /= norms[..., None]
    return norms, Y


def _null_resampler(X):
    """Null-mimicking resampler for the bootstrap tests.

    Fits the ellipse (mean, 1/n covariance), then draws datasets whose
    radii are resampled from the observed standardized radii and whose
    directions are uniform on the sphere.  Per replicate the draw order is:
    radius indices first, then the direction block.  The generator takes
    run_replicates' out array, and its in-place steps are the same IEEE
    operations as theta + (norms[idx, None] * u) @ root.
    """
    n, d = X.shape
    W, S = _centered_cov(X, n)
    norms, _ = _directions(W, S)
    theta = X.mean(axis=0)
    root = sym_sqrt(S)

    def generate(rng: np.random.Generator, out=None) -> NDArray[np.float64]:
        idx = rng.integers(0, n, size=n)
        u = sample_uniform_sphere(d, n, rng)
        u *= norms[idx, None]
        x = np.matmul(u, root, out=out)
        x += theta
        return x

    return generate


def _sorting_index(a):
    """Index (rows, order) sorting each row of a (k, n) array, ties in row
    order: the default sort, which is fastest and exact on distinct values,
    then the stable sort for rows holding a tie (duplicate observations)."""
    index = np.arange(len(a))[:, None], np.argsort(a, axis=-1)
    ranked = a[index]
    tied = (ranked[:, 1:] == ranked[:, :-1]).any(axis=-1)
    index[1][tied] = np.argsort(a[tied], axis=-1, kind="stable")
    return index


# ---------------------------------------------------------------------------
# Koltchinskii-Sakhanenko
# ---------------------------------------------------------------------------


def _ks_statistics(S, basis) -> NDArray[np.float64]:
    """Koltchinskii-Sakhanenko statistic of each sample in a (k, n, d) stack.

    One stacked standardization, then one streaming pass of the basis over
    each sample's points in radius order; no (m, n) table is built.
    """
    k, n, d = S.shape
    norms, U = _directions(*_centered_cov(S, n))
    return np.sqrt(basis.cumulative_peaks(U[_sorting_index(norms)])) / math.sqrt(n)


def _ks_statistic(X, basis) -> float:
    return float(_ks_statistics(X[None], basis)[0])


def ks_test(X, R: int = 1000, seed: int = 0, workers: int = ALL_BUT_ONE) -> TestResult:
    """Koltchinskii-Sakhanenko test, bootstrap calibrated.

    Observations are ordered by the norm of the standardized residual and
    the basis evaluations (constant harmonic centered at 1) are summed
    cumulatively; the statistic is n^{-1/2} times the largest Euclidean
    norm reached by that cumulative sum.
    """
    from .harmonics import MAX_DEGREE, build_basis  # imported here: only ks and mpq use it
    X, _ = _prepare(X)
    n, d = X.shape
    plan = BootstrapPlan(R=R, seed=seed, workers=workers)
    basis = build_basis(d)
    params = {"n": n, "d": d, "R": R, "seed": seed, "max_degree": MAX_DEGREE}
    if n <= basis.size:
        msg = (
            f"sample size {n} does not exceed the harmonic basis size "
            f"{basis.size}; the bootstrap calibration is unreliable"
        )
        warnings.warn(msg, stacklevel=2)
        params["warning"] = msg

    stat = _ks_statistic(X, basis)
    reference = run_replicates(plan, _null_resampler(X), lambda S: _ks_statistics(S, basis))
    law = NullLaw.bootstrap(reference)
    return TestResult("ks", stat, pvalue(law, stat), law, params)


# ---------------------------------------------------------------------------
# Manzotti / Perez / Quiroz
# ---------------------------------------------------------------------------


def mpq_test(X, epsilon: float = 0.05) -> TestResult:
    """Manzotti et al. test on degree-3 and degree-4 harmonic averages.

    Directions whose standardized radius lies at or below the empirical
    epsilon-quantile are discarded; the statistic is n times the squared
    Euclidean norm of the remaining harmonic averages, with null law
    (1 - epsilon) times chi-squared.
    """
    from .harmonics import build_basis, harmonic_dim
    epsilon = _number("epsilon", epsilon)
    if not 0.0 <= epsilon < 1.0:
        raise UsageError(f"epsilon must lie in [0, 1), got {epsilon}")
    X, _ = _prepare(X)
    n, d = X.shape
    k = math.ceil(epsilon * n)  # directions trimmed; 0 exactly when epsilon is
    if k >= n:
        raise UsageError(f"epsilon = {epsilon} trims all n = {n} observations")

    norms, U = _directions(*_centered_cov(X, n - 1))
    rho = 0.0 if k == 0 else float(np.partition(norms, k - 1)[k - 1])

    U = U[norms > rho]
    basis = build_basis(d)
    means = basis.sums(U)[basis.degree_slice(3).start :] / n
    stat = float(n * means @ means)

    df = harmonic_dim(d, 3) + harmonic_dim(d, 4)
    law = NullLaw.scaled_chi2(scale=1.0 - epsilon, df=df)
    params = {"n": n, "d": d, "epsilon": epsilon, "radius_cutoff": rho, "df": df}
    return TestResult("mpq", stat, pvalue(law, stat), law, params)


# ---------------------------------------------------------------------------
# Schott
# ---------------------------------------------------------------------------


def schott_df(d: int) -> int:
    """Degrees of freedom of Schott's statistic: d^2 + d(d-1)(d^2+7d-6)/24 - 1."""
    d = _integer("d", d, 2)
    return d * d + d * (d - 1) * (d * d + 7 * d - 6) // 24 - 1


def _fourth_moments(Y) -> NDArray[np.float64]:
    """Z'Z, the rows of Z being vec(y y') for the rows y of Y, summed a block
    of ``_SCHOTT_ROWS`` rows at a time: one block is the one product Z'Z."""
    blocks = (Y[lo : lo + _SCHOTT_ROWS] for lo in range(0, len(Y), _SCHOTT_ROWS))
    Zs = (np.einsum("ni,nj->nij", B, B).reshape(len(B), -1) for B in blocks)
    return sum(Z.T @ Z for Z in Zs)


def schott_test(X) -> TestResult:
    """Schott's Wald-type test on the standardized fourth-moment matrix.

    Compares tr(M4*^2) and vec(I)' M4*^2 vec(I) of the standardized
    fourth-moment matrix M4* against the value an elliptical law with the
    sample's own radial moments would produce, with no (n, d^2) table of
    vec(y y') rows built.  Null law chi-squared.
    """
    X, _ = _prepare(X)
    n, d = X.shape
    W, S = _centered_cov(X, n - 1)
    Y = W @ sym_inv_sqrt(S)
    del W
    r = np.einsum("ij,ij->i", Y, Y)  # squared Mahalanobis norms
    M4s = _fourth_moments(Y) / n

    kap1 = float(np.sum(r**2)) / (n * d * (d + 2))  # 1 + kappa-hat
    eta1 = float(np.sum(r**3)) / (n * d * (d + 2) * (d + 4))
    ome1 = float(np.sum(r**4)) / (n * d * (d + 2) * (d + 4) * (d + 6))
    a = ome1 + kap1**3 - 2.0 * kap1 * eta1
    beta1 = (1.0 / ome1) / 24.0
    beta2 = -3.0 * a / (24.0 * ome1**2 + 12.0 * (d + 4) * a * ome1)

    M2 = M4s @ M4s
    trace = float(np.trace(M2))
    vec_i = np.eye(d).reshape(-1)
    quad = float(vec_i @ M2 @ vec_i)
    stat = n * (
        beta1 * trace
        + beta2 * quad
        - (3.0 * beta1 + (d + 2) * beta2) * d * (d + 2) * kap1**2
    )
    # the Wald form is a nonnegative quadratic form expanded into three terms
    # that can cancel, on small samples, to a few ULPs below zero
    stat = 0.0 if stat <= 0.0 else stat

    df = schott_df(d)
    law = NullLaw.chi2(df)
    params = {"n": n, "d": d, "df": df}
    return TestResult("schott", stat, pvalue(law, stat), law, params)


# ---------------------------------------------------------------------------
# Huffer-Park
# ---------------------------------------------------------------------------


def _lex_ranks(perms: NDArray[np.int64]) -> NDArray[np.int64]:
    """Lexicographic rank of each permutation of 0..d-1 along the last axis."""
    d = perms.shape[-1]
    ranks = np.zeros(perms.shape[:-1], dtype=np.int64)
    for i in range(d - 1):
        smaller_after = np.sum(perms[..., i + 1 :] < perms[..., i : i + 1], axis=-1)
        ranks += smaller_after * math.factorial(d - 1 - i)
    return ranks


def _hp_sectors(Y, sector: str, g: int) -> NDArray[np.int64]:
    d = Y.shape[-1]
    if sector == "orthants":
        return sum((Y[..., j] < 0.0) << j for j in range(d))
    if sector == "permutations":
        return _lex_ranks(np.argsort(Y, axis=-1, kind="stable"))
    # bivariate angles (d == 2): g equal arcs starting at angle zero,
    # with an exact arc boundary assigned to the lower arc
    phi = np.mod(np.arctan2(Y[..., 1], Y[..., 0]), 2.0 * math.pi)
    scaled = phi * g / (2.0 * math.pi)
    m = np.floor(scaled)
    m[(scaled == m) & (scaled > 0.0)] -= 1.0
    return np.minimum(m, g - 1).astype(np.int64)


def _hp_shells(norms, c: int) -> NDArray[np.int64]:
    """Equal-count shell index of each radius in a (k, n) stack, ties broken
    by row order, the remainder of n / c one per shell from the innermost:
    the number of inner shells' last radii it exceeds, from one sort per row.
    Rows where radii tie across a shell boundary, and all rows past
    ``_HP_COUNTED_SHELLS`` shells, are ranked by ``_sorting_index`` instead."""
    base, rem = divmod(norms.shape[-1], c)
    labels = np.repeat(np.arange(c), base + (np.arange(c) < rem))
    shells = np.zeros(norms.shape, dtype=np.int64)
    redo = np.full(len(norms), True)
    if c <= _HP_COUNTED_SHELLS:
        ranked = np.sort(norms, axis=-1)
        first = np.flatnonzero(np.diff(labels)) + 1  # where shells 1 .. c-1 start
        for last in ranked[:, first - 1].T:
            shells += norms > last[:, None]
        redo = (ranked[:, first - 1] == ranked[:, first]).any(axis=-1)
    if redo.any():
        rows, order = _sorting_index(norms[redo])
        shells[np.flatnonzero(redo)[rows], order] = labels
    return shells


def _hp_tables(S, c: int, sector: str, g: int) -> NDArray[np.int64]:
    """The Huffer-Park (sector, shell) counts of each sample in a (k, n, d)
    stack, shape (k, g, c): residuals whitened by the lower-triangular
    Gram-Schmidt root of the 1/n covariance, sectors by direction, and
    equal-count shells by radius rank.  Each step reads one (k, d, n) copy
    of the stack through its (k, n, d) view; whitening is elementwise, so
    equal rows get bit-equal radii, which ``_hp_shells`` orders by row."""
    k, n, d = S.shape
    columns = np.ascontiguousarray(np.swapaxes(S, -1, -2))
    W, cov = _centered_cov(np.swapaxes(columns, -1, -2), n)
    root = gram_schmidt_root(cov)
    for i in reversed(range(d)):  # row i of the root reads coordinates 0..i
        W[..., i] *= root[:, i, i, None]
        for j in range(i):
            W[..., i] += W[..., j] * root[:, i, j, None]
    cells = _hp_sectors(W, sector, g) * c + _hp_shells(row_norms(W), c)
    cells += np.arange(k)[:, None] * (g * c)
    return np.bincount(cells.ravel(), minlength=k * g * c).reshape(k, g, c)


def _hp_pearson(tables) -> NDArray[np.float64]:
    """Pearson statistic of each (g, c) table in a (k, g, c) stack."""
    k, g, c = tables.shape
    expected = tables[0].sum() / (g * c)
    return np.sum((tables.reshape(k, -1) - expected) ** 2, axis=1) / expected


def _hp_check(n, d, c, sector, g, R):
    """(c, g) once every rule of hp's arguments holds, checked in this order."""
    if sector not in HP_SECTORS:
        raise UsageError(f"sector must be one of {HP_SECTORS}, got {sector!r}")
    c = _integer("shell count c", c, 1)
    if c > n:
        raise UsageError(f"shell count c = {c} exceeds the sample size {n}")
    if sector == "orthants":
        if g is not None:
            raise UsageError("g is fixed at 2^d for orthant sectors; leave it unset")
        g = 2**d
    elif sector == "permutations":
        if g is not None:
            raise UsageError("g is fixed at d! for permutation sectors; leave it unset")
        g = math.factorial(d)
    else:
        if d != 2:
            raise UsageError("bivariate angle sectors require d = 2")
        if g is None:
            raise UsageError("bivariate angle sectors require a positive integer g")
        g = _integer("sector count g", g, 1)
    if g * c > _HP_MAX_CELLS:
        raise UsageError(
            f"counts table with {g} sectors x {c} shells is too large "
            f"(over {_HP_MAX_CELLS} cells)"
        )
    if R is None and sector != "orthants":
        raise UsageError(
            f"the {sector!r} sectors have no built-in calibration; "
            "pass a bootstrap replicate count R"
        )
    return c, g


def huffer_park_test(
    X,
    c: int,
    sector: str = "orthants",
    g: Optional[int] = None,
    R: Optional[int] = None,
    seed: int = 0,
    workers: int = ALL_BUT_ONE,
) -> TestResult:
    """Huffer-Park Pearson test on sector-by-shell cell counts.

    With ``R`` set, the p-value is bootstrapped from null-mimicking
    resamples.  Without ``R`` (orthant sectors only) the null is calibrated
    by Monte Carlo: the statistic's distribution for a Gaussian sample of
    the same size, which is what the chi-bar asymptotics approximate.
    """
    X, _ = _prepare(X)
    n, d = X.shape
    c, g_eff = _hp_check(n, d, c, sector, g, R)
    plan = BootstrapPlan(R=HP_CALIBRATION_SIMS if R is None else R, seed=seed, workers=workers)
    params = {"n": n, "d": d, "c": c, "sector": sector, "g": g_eff, "seed": seed}
    if g_eff * c > n / 5.0:
        msg = (
            f"sector/shell grid has {g_eff * c} cells for {n} observations "
            "(expected count below 5 per cell); the statistic is unstable"
        )
        warnings.warn(msg, stacklevel=2)
        params["warning"] = msg

    tables = _hp_tables(X[None], c, sector, g_eff)
    stat = float(_hp_pearson(tables)[0])
    params["counts"] = tables[0]

    if R is None:
        params["calibration_sims"] = HP_CALIBRATION_SIMS
        generate = lambda rng, out=None: rng.standard_normal((n, d), out=out)  # noqa: E731
        make_law = NullLaw.monte_carlo
    else:
        params["R"] = R
        generate, make_law = _null_resampler(X), NullLaw.bootstrap
    reference = run_replicates(
        plan, generate, lambda S: _hp_pearson(_hp_tables(S, c, sector, g_eff))
    )
    law = make_law(reference)
    return TestResult("hp", stat, pvalue(law, stat), law, params)


# ---------------------------------------------------------------------------
# pseudo-Gaussian (Cassart's Fechner-asymmetry tests)
# ---------------------------------------------------------------------------


def _cd_constant(d: int) -> float:
    return (
        4.0
        * math.gamma(d / 2.0)
        / ((d * d - 1) * math.sqrt(math.pi) * math.gamma((d - 1) / 2.0))
    )


def _tyler_directions(X, location):
    """(norms, U) of the residuals about ``location``, or about the sample
    mean when it is None, in the axes of the symmetric root of Tyler's
    scatter about that point."""
    theta = X.mean(axis=0) if location is None else location
    scatter = tyler_scatter(X, theta)  # checks the location first
    return _directions(X - theta, scatter)


def pseudo_gaussian_test(X, location=None) -> TestResult:
    """Pseudo-Gaussian test against Fechner-type skewed alternatives.

    With a known ``location`` the statistic aggregates signed squared
    directions weighted by squared radii; radial weighting makes it valid
    under any elliptical null with finite fourth moments.  Without a
    location the mean is estimated and the statistic is the efficient
    central-sequence form with the location-estimation effect projected
    out.  Scatter is Tyler's M-estimator in both cases; null law chi2(d).
    Directions are read in the axes of the symmetric root of Tyler's
    scatter, so the statistic is invariant under shifts, nonzero scalings
    and signed coordinate permutations, but not under rotations or general
    linear maps.
    """
    X, location = _prepare(X, location)
    n, d = X.shape
    norms, U = _tyler_directions(X, location)

    # sign(u) u^2 as |u| u, the same product bit for bit
    squares = np.abs(U)
    squares *= U
    if location is not None:
        m4 = float(np.mean(norms**4))
        squares *= norms[:, None] ** 2
        v = squares.sum(axis=0)
        stat = d * (d + 2) / (3.0 * n * m4) * float(v @ v)
        law = NullLaw.chi2(d)
        params = {"n": n, "d": d, "location": "specified"}
        return TestResult("pg", stat, pvalue(law, stat), law, params)

    m1 = float(np.mean(norms))
    m2 = float(np.mean(norms**2))
    m3 = float(np.mean(norms**3))
    m4 = float(np.mean(norms**4))
    cd = _cd_constant(d)

    # norms * (cd (d + 1) m1 U - norms * squares), formed in place on U
    squares *= norms[:, None]
    U *= cd * (d + 1) * m1
    U -= squares
    U *= norms[:, None]
    delta = U.sum(axis=0) / math.sqrt(n)
    gamma = (
        3.0 / (d * (d + 2)) * m4
        - 2.0 * cd**2 * (d + 1) * m1 * m3
        + cd**2 * (d + 1) ** 2 / d * m1 * m1 * m2
    )
    if gamma <= 0.0:
        raise NumericError(
            f"information estimate is not positive (gamma = {gamma:.6g})"
        )
    stat = float(delta @ delta) / gamma
    law = NullLaw.chi2(d)
    params = {"n": n, "d": d, "location": "estimated"}
    return TestResult("pg", stat, pvalue(law, stat), law, params)


# ---------------------------------------------------------------------------
# skew-optimal
# ---------------------------------------------------------------------------


def skew_optimal_test(
    X,
    location=None,
    f: str = "t",
    param: Optional[float] = None,
) -> TestResult:
    """Skew-optimal test based on location scores of a radial density.

    With a known ``location`` the statistic is the Wald form
    n (mean - location)' V^{-1} (mean - location) with V Tyler's scatter
    about the location; the radial density is checked but plays no role.
    Without a location, radial scores phi_f reweight the directions; ``f``
    is one of "t" (param nu > 2, default 4), "logistic" (no param), or
    "powerExp" (param beta > 0, beta != 1, default 0.5).  Null law chi2(d).
    """
    density = RadialDensity(f, param)
    X, location = _prepare(X, location)
    n, d = X.shape

    if location is not None:
        scatter = tyler_scatter(X, location)
        diff = X.mean(axis=0) - location
        stat = float(n * diff @ np.linalg.solve(scatter, diff))
        law = NullLaw.chi2(d)
        params = {"n": n, "d": d, "location": "specified"}
        return TestResult("so", stat, pvalue(law, stat), law, params)

    norms, U = _tyler_directions(X, None)

    phi = density.phi(norms, d)
    dphi = density.phi_prime(norms, d)
    K = float(np.mean(dphi + (d - 1) * phi / norms))
    if abs(K) < 1e-12:
        raise NumericError("radial score normalization vanished (K-hat = 0)")
    w = norms - (d / K) * phi
    wsq = float(w @ w)
    if wsq <= 0.0:
        raise NumericError("all score weights vanished")
    U *= w[:, None]
    num = U.sum(axis=0)
    stat = float(d * (num @ num) / wsq)
    law = NullLaw.chi2(d)
    params = {
        "n": n,
        "d": d,
        "location": "estimated",
        "f": density.family,
        "param": density.param,
    }
    return TestResult("so", stat, pvalue(law, stat), law, params)
