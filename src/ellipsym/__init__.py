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

Exports load on first use: ``import ellipsym`` imports no submodule (and so
no numpy), and the first access to a name imports the module that defines
it.  ``ellipsym.cli`` relies on this to set up numpy before it is loaded.
A submodule is an attribute of the package only once it has been imported:
``ellipsym.linalg`` needs ``import ellipsym.linalg`` (or a prior use of one of
its names) first.
"""

import importlib

__version__ = "0.1.0"

#: submodule -> the public names it defines
_EXPORTS = {
    "exceptions": (
        "ConvergenceError", "DataError", "DomainError", "EllipsymError",
        "NumericError", "ParseError", "UsageError",
    ),
    "linalg": ("gram_schmidt_root", "sym_inv_sqrt", "sym_sqrt"),
    "estimators": ("sample_cov", "tyler_scatter", "validate_sample"),
    "harmonics": ("HarmonicBasis", "build_basis", "harmonic_dim"),
    "distributions": (
        "NullLaw", "RadialDensity", "chi2_sf", "pvalue", "sample_mvn",
        "sample_mvt", "sample_skewed", "sample_uniform_sphere",
    ),
    "resample": (
        "ALL_BUT_ONE", "BootstrapPlan", "replicate_rng", "resolve_workers",
        "run_replicates",
    ),
    "hypothesis": (
        "METHOD_LABELS", "TestResult", "huffer_park_test", "ks_test", "mpq_test",
        "pseudo_gaussian_test", "schott_df", "schott_test", "skew_optimal_test",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
