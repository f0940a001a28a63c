import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import naive
from ellipsym import (
    NullLaw,
    RadialDensity,
    UsageError,
    chi2_sf,
    pvalue,
    sample_mvn,
    sample_mvt,
    sample_skewed,
    sample_uniform_sphere,
)
from ellipsym.harmonics import harmonic_dim
from ellipsym.hypothesis import schott_df


# ---------------------------------------------------------------------------
# chi-squared tail
# ---------------------------------------------------------------------------


def test_chi2_closed_form_df2():
    for x in (0.0, 0.5, 1.7, 9.0):
        assert abs(chi2_sf(x, 2) - math.exp(-x / 2)) < 1e-14


def _library_dfs():
    """Every chi-squared df the tests use for d = 2..10: pg/so, schott, mpq."""
    dims = range(2, 11)
    return sorted(
        set(dims)
        | {schott_df(d) for d in dims}
        | {harmonic_dim(d, 3) + harmonic_dim(d, 4) for d in dims}
    )


def test_chi2_tails_match_scipy():
    from scipy import special  # the reference; the package no longer imports it

    worst = 0.0
    for df in _library_dfs():
        for x in np.geomspace(1e-4, 20 * df + 2000, 200):
            x = float(x)
            want = float(special.chdtrc(df, x))
            got = chi2_sf(x, df)
            if want > 1e-300:
                worst = max(worst, abs(got - want) / want)
            else:
                assert got <= 1e-290, (df, x, got, want)
    assert worst <= 1e-11


def _lower_gamma_reference(mpmath, a, x):
    """P(a, x) by its power series in 30-digit arithmetic."""
    with mpmath.workdps(30):
        a, x = mpmath.mpf(a), mpmath.mpf(x)
        term = total = mpmath.mpf(1)
        tol = mpmath.mpf(10) ** -25
        n = 0
        while term > total * tol:
            n += 1
            term *= x / (a + n)
            total += term
        return total * mpmath.exp(-x + a * mpmath.log(x) - mpmath.loggamma(a + 1))


@pytest.mark.parametrize("df", [1e6, 1e7])
def test_chi2_tails_at_large_df(df):
    # near x = df both expansions need O(sqrt(df)) terms, and the accuracy
    # is the documented one, in proportion to df.  The reference is a
    # 30-digit series: scipy's chdtr is off by 8e-9 at df = 1e6 and by 0.7%
    # at df = 1e7, five standard deviations below the mean.
    mpmath = pytest.importorskip("mpmath")
    for k in (-6.0, -3.0, 0.0, 3.0, 6.0):
        x = df + k * math.sqrt(2.0 * df)
        lower = _lower_gamma_reference(mpmath, df / 2, x / 2)
        got, want = chi2_sf(x, df), 1 - lower
        assert abs(got - want) <= 2e-15 * df * want, (x, got, want)


def test_chi2_tails_at_zero_and_underflow():
    for df in (2, 5, 870):
        assert chi2_sf(0.0, df) == 1.0
        assert chi2_sf(1e5, df) == 0.0
        assert chi2_sf(math.inf, df) == 0.0
    assert pvalue(NullLaw.chi2(5), 4000.0) == 0.0


def test_import_leaves_scipy_unloaded():
    code = "import sys, ellipsym.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_chi2_guards():
    for x, df in ((-1.0, 2), (1.0, 0), (math.nan, 2), (1.0, math.nan)):
        with pytest.raises(UsageError):
            chi2_sf(x, df)


# ---------------------------------------------------------------------------
# radial densities
# ---------------------------------------------------------------------------


def test_radial_defaults():
    assert RadialDensity("t").param == 4.0
    assert RadialDensity("powerExp").param == 0.5
    assert RadialDensity("logistic").param is None


def test_radial_validation():
    with pytest.raises(UsageError):
        RadialDensity("t", 2.0)  # needs nu > 2
    with pytest.raises(UsageError):
        RadialDensity("powerExp", 1.0)  # beta = 1 excluded
    with pytest.raises(UsageError):
        RadialDensity("powerExp", 0.0)
    with pytest.raises(UsageError):
        RadialDensity("logistic", 3.0)  # takes no parameter
    with pytest.raises(UsageError):
        RadialDensity("gaussian")
    for family, param in (("t", math.nan), ("t", math.inf),
                          ("powerExp", math.nan), ("powerExp", math.inf)):
        with pytest.raises(UsageError):
            RadialDensity(family, param)


def test_scores_match_oracle():
    xs = np.array([0.3, 0.9, 1.4, 2.6])
    d = 3
    for family, param in (("t", 4.0), ("t", 7.5), ("logistic", None), ("powerExp", 0.5), ("powerExp", 2.0)):
        f = RadialDensity(family, param)
        phi, dphi = f.phi(xs, d), f.phi_prime(xs, d)
        for x, p, dp in zip(xs, phi, dphi):
            op, odp = naive._phi_oracle(family, param, float(x), d)
            assert abs(p - op) < 1e-13
            assert abs(dp - odp) < 1e-13


def test_score_is_negative_log_density_slope():
    # phi_f = -f'/f, checked by central differences on the density itself
    d = 2
    h = 1e-6
    for family, param in (("t", 4.0), ("logistic", None), ("powerExp", 0.5)):
        f = RadialDensity(family, param)

        def density(x):
            return naive.radial_density_oracle(family, param, x, d)

        for x in (0.5, 1.0, 2.0):
            fp = (density(x + h) - density(x - h)) / (2 * h)
            assert abs(f.phi(x, d) - (-fp / density(x))) < 1e-5


# ---------------------------------------------------------------------------
# null laws and p-values
# ---------------------------------------------------------------------------


def test_null_law_validation():
    with pytest.raises(UsageError):
        NullLaw(kind="gamma")
    with pytest.raises(UsageError):
        NullLaw.chi2(0)
    with pytest.raises(UsageError):
        NullLaw.chi2(math.nan)
    with pytest.raises(UsageError):
        NullLaw.scaled_chi2(0.0, 4)
    with pytest.raises(UsageError):
        NullLaw.scaled_chi2(1.2, 4)
    with pytest.raises(UsageError):
        NullLaw.bootstrap([])


GIVEN = [3.0, 1.5, -0.0, 0.0]
SORTED = [-0.0, 0.0, 1.5, 3.0]  # equal values keep their order: -0.0 first, as given


@pytest.mark.parametrize(
    "make, expected",
    [(lambda: list(GIVEN), SORTED),
     (lambda: tuple(GIVEN), SORTED),
     (lambda: np.array(GIVEN), SORTED),
     (lambda: (v for v in GIVEN), SORTED),
     (lambda: dict.fromkeys(GIVEN[:3]), SORTED[:1] + SORTED[2:]),
     (lambda: np.array([3, 1, 0], dtype=np.int8), [0.0, 1.0, 3.0]),
     (lambda: [np.float32(3.0), Fraction(3, 2), 0], [0.0, 1.5, 3.0])],
    ids=["list", "tuple", "array", "generator", "dict", "int8 array", "mixed"],
)
def test_resampled_reference_is_a_stable_sorted_tuple_of_floats(make, expected):
    for law in (NullLaw.monte_carlo(make()), NullLaw.bootstrap(make())):
        assert type(law.reference) is tuple
        assert [(type(v), v, math.copysign(1.0, v)) for v in law.reference] == [
            (float, v, math.copysign(1.0, v)) for v in expected]


def test_pvalue_chi2():
    law = NullLaw.chi2(2)
    assert abs(pvalue(law, 3.0) - math.exp(-1.5)) < 1e-14
    scaled = NullLaw.scaled_chi2(0.5, 2)
    assert abs(pvalue(scaled, 3.0) - math.exp(-3.0)) < 1e-14


def test_pvalue_addone_counting():
    law = NullLaw.monte_carlo([1.0, 2.0, 3.0, 4.0])
    assert pvalue(law, 2.5) == (1 + 2) / (1 + 4)
    assert pvalue(law, 0.0) == 1.0
    assert pvalue(law, 9.0) == (1 + 0) / (1 + 4)
    # ties count as exceedances
    assert pvalue(law, 3.0) == (1 + 2) / (1 + 4)


def test_pvalue_rejects_nonfinite():
    with pytest.raises(UsageError):
        pvalue(NullLaw.chi2(2), float("nan"))


def test_describe_is_json_ready():
    law = NullLaw.bootstrap([0.1, 0.2])
    out = law.describe()
    assert out == {"kind": "bootstrap", "reference_size": 2}
    assert NullLaw.scaled_chi2(0.95, 4).describe() == {
        "kind": "scaled_chi2",
        "df": 4.0,
        "scale": 0.95,
    }


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def test_sphere_sampler_properties():
    U = sample_uniform_sphere(3, 500, seed=4)
    assert U.shape == (500, 3)
    assert np.allclose(np.linalg.norm(U, axis=1), 1.0, atol=1e-12)
    again = sample_uniform_sphere(3, 500, seed=4)
    assert np.array_equal(U, again)
    assert np.max(np.abs(U.mean(axis=0))) < 0.1


def test_mvn_sampler_moments():
    mean = np.array([1.0, -2.0])
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    X = sample_mvn(mean, cov, 40_000, seed=5)
    assert np.allclose(X.mean(axis=0), mean, atol=0.05)
    assert np.allclose(np.cov(X.T), cov, atol=0.08)
    with pytest.raises(UsageError):
        sample_mvn(np.zeros(3), np.eye(2), 10, seed=0)


def test_mvt_sampler_heavy_tails():
    X = sample_mvt(np.zeros(2), np.eye(2), 4.0, 100_000, seed=6)
    x = X[:, 0]
    kurt = np.mean((x - x.mean()) ** 4) / np.var(x) ** 2
    assert kurt > 3.5  # well above the Gaussian value 3
    for nu in (0.0, math.nan, math.inf):
        with pytest.raises(UsageError):
            sample_mvt(np.zeros(2), np.eye(2), nu, 10, seed=0)


def test_skewed_sampler():
    X0 = sample_skewed(2, 50_000, 0.0, seed=7)
    # slant zero is standard normal
    assert np.max(np.abs(X0.mean(axis=0))) < 0.03
    assert np.allclose(np.cov(X0.T), np.eye(2), atol=0.05)
    X5 = sample_skewed(2, 50_000, 5.0, seed=8)
    x = X5[:, 0]
    skew = np.mean((x - x.mean()) ** 3) / np.std(x) ** 3
    assert skew > 0.5  # first coordinate is right-skewed
    y = X5[:, 1]
    assert abs(np.mean((y - y.mean()) ** 3) / np.std(y) ** 3) < 0.05
    for slant in (-1.0, math.nan):
        with pytest.raises(UsageError):
            sample_skewed(2, 10, slant, seed=0)
    with pytest.raises(UsageError):
        sample_skewed(1, 10, 1.0, seed=0)
