"""Hypothesis tests for elliptical symmetry of multivariate data.

Six tests are provided, each returning a :class:`TestResult`:

- :func:`ks_test` -- Koltchinskii-Sakhanenko sup-statistic, bootstrap
- :func:`mpq_test` -- Manzotti et al. harmonic averages, (1-eps) chi-squared
- :func:`schott_test` -- Schott's fourth-moment Wald test, chi-squared
- :func:`huffer_park_test` -- sector/shell Pearson counts, bootstrap or
  Monte-Carlo calibrated
- :func:`pseudo_gaussian_test` -- Fechner-asymmetry pseudo-Gaussian test
- :func:`skew_optimal_test` -- location-score test for a chosen radial
  density

Supporting machinery is exported too: Tyler's scatter estimator, the
orthonormal spherical-harmonic bases, samplers, the chi-squared tail, and
the replicate engine behind the resampled p-values.
"""

from .exceptions import (
    ConvergenceError,
    DataError,
    DomainError,
    EllipsymError,
    NumericError,
    ParseError,
    UsageError,
)
from .linalg import gram_schmidt_root, sym_inv_sqrt, sym_sqrt
from .estimators import (
    sample_cov,
    tyler_scatter,
    validate_sample,
)
from .harmonics import HarmonicBasis, build_basis, harmonic_dim
from .distributions import (
    NullLaw,
    RadialDensity,
    chi2_sf,
    pvalue,
    sample_mvn,
    sample_mvt,
    sample_skewed,
    sample_uniform_sphere,
)
from .resample import (
    ALL_BUT_ONE,
    BootstrapPlan,
    replicate_rng,
    resolve_workers,
    run_replicates,
)
from .hypothesis import (
    METHOD_LABELS,
    TestResult,
    huffer_park_test,
    ks_test,
    mpq_test,
    pseudo_gaussian_test,
    schott_df,
    schott_test,
    skew_optimal_test,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_BUT_ONE",
    "BootstrapPlan",
    "ConvergenceError",
    "DataError",
    "DomainError",
    "EllipsymError",
    "HarmonicBasis",
    "METHOD_LABELS",
    "NullLaw",
    "NumericError",
    "ParseError",
    "RadialDensity",
    "TestResult",
    "UsageError",
    "build_basis",
    "chi2_sf",
    "gram_schmidt_root",
    "harmonic_dim",
    "huffer_park_test",
    "ks_test",
    "mpq_test",
    "pseudo_gaussian_test",
    "pvalue",
    "replicate_rng",
    "resolve_workers",
    "run_replicates",
    "sample_cov",
    "sample_mvn",
    "sample_mvt",
    "sample_skewed",
    "sample_uniform_sphere",
    "schott_df",
    "schott_test",
    "skew_optimal_test",
    "sym_inv_sqrt",
    "sym_sqrt",
    "tyler_scatter",
    "validate_sample",
    "__version__",
]
