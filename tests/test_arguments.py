"""One argument rule per kind: counts follow ``_integer`` (with its lower
bound) and real parameters ``_number``, at every public entry, before any
work.  Each call either returns a result or raises an ``EllipsymError``; no
raw exception, no silent acceptance, and no warning before a refused
argument."""

import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from ellipsym import (
    BootstrapPlan,
    DomainError,
    NullLaw,
    RadialDensity,
    UsageError,
    build_basis,
    chi2_sf,
    harmonic_dim,
    huffer_park_test,
    ks_test,
    mpq_test,
    pvalue,
    replicate_rng,
    resolve_workers,
    sample_mvn,
    sample_mvt,
    sample_skewed,
    sample_uniform_sphere,
    schott_df,
    skew_optimal_test,
    sym_sqrt,
)

Z2, I2 = np.zeros(2), np.eye(2)
#: large enough that neither ks nor hp (c = 2) warns about its size
X = sample_mvn(np.zeros(3), np.eye(3), 200, seed=1)
#: 8 rows: ks warns (9 basis functions), and hp with c = 3 warns (12 cells)
SMALL = sample_mvn(Z2, I2, 8, seed=3)

#: id -> (call, None for a result, else the error type and a message pattern)
CASES = {
    # real parameters: bools, strings, lists, complex values and Decimals are
    # refused, and a density is checked even where a location makes it unused
    "so param string": (lambda: skew_optimal_test(X, param="abc"), UsageError, "real number"),
    "so param list": (lambda: skew_optimal_test(X, param=[5.0]), UsageError, "real number"),
    "so param complex": (lambda: skew_optimal_test(X, param=1j), UsageError, "real number"),
    "so location bad f": (
        lambda: skew_optimal_test(X, location=np.zeros(3), f="bogus"),
        UsageError, "unknown radial density"),
    "so location bad nu": (
        lambda: skew_optimal_test(X, location=np.zeros(3), param=1.0), UsageError, "nu > 2"),
    "density Decimal": (lambda: RadialDensity("t", Decimal("5")), UsageError, "real number"),
    "chi2_sf infinite df": (lambda: chi2_sf(3.0, np.inf), UsageError, "finite"),
    "chi2_sf string df": (lambda: chi2_sf(1.0, "2"), UsageError, "real number"),
    "chi2_sf huge int x": (lambda: chi2_sf(10**400, 2), UsageError, "double range"),
    "NullLaw string df": (lambda: NullLaw(kind="chi2", df="2"), UsageError, "real number"),
    "NullLaw string scale": (
        lambda: NullLaw(kind="scaled_chi2", df=2, scale="0.5"), UsageError, "real number"),
    "pvalue string statistic": (
        lambda: pvalue(NullLaw.chi2(2), "3"), UsageError, "statistic must be a real"),
    "mvt string nu": (lambda: sample_mvt(Z2, I2, "4", 5, 0), UsageError, "real number"),
    "mpq bool epsilon": (lambda: mpq_test(X, epsilon=False), UsageError, "real number"),
    # ceil(epsilon * n) = n puts the cutoff at the largest radius: nothing is left
    "mpq epsilon trims all": (
        lambda: mpq_test(X, epsilon=0.999), UsageError, "epsilon = 0.999 trims all n = 200"),
    "mpq epsilon keeps one": (lambda: mpq_test(X, epsilon=0.99), None, None),
    # a resampled law's reference is one finite real sample, checked as an array
    "bootstrap string reference": (
        lambda: pvalue(NullLaw(kind="bootstrap", reference=("a",)), 1.0),
        UsageError, "not a real numeric sample"),
    "bootstrap nan reference": (
        lambda: NullLaw.bootstrap([np.nan, 1.0]), UsageError, "finite sample"),
    "monte_carlo inf reference": (
        lambda: NullLaw.monte_carlo([np.inf]), UsageError, "finite sample"),
    "bootstrap array reference": (
        lambda: NullLaw(kind="bootstrap", reference=np.array([2.0, 1.0])), None, None),
    # counts: one integer rule with its lower bound
    "mvn float n": (lambda: sample_mvn(Z2, I2, 2.5, 0), UsageError, "n must be an integer"),
    "sphere float n": (
        lambda: sample_uniform_sphere(2, 3.5, 0), UsageError, "n must be an integer"),
    "skewed string d": (
        lambda: sample_skewed("2", 5, 1.0, 0), UsageError, "d must be an integer"),
    "mvn string seed": (lambda: sample_mvn(Z2, I2, 5, "x"), UsageError, "seed must be an int"),
    "resolve_workers float": (
        lambda: resolve_workers(2.5), UsageError, "workers must be an integer"),
    "replicate_rng float seed": (
        lambda: replicate_rng(1.5, 0), UsageError, "seed must be an integer"),
    # arrays: a non-real matrix is refused, not cast
    "sym_sqrt string": (lambda: sym_sqrt("abc"), DomainError, "not a real numeric matrix"),
    "sym_sqrt complex": (
        lambda: sym_sqrt(1j * np.eye(2)), DomainError, "not a real numeric matrix"),
    "sym_sqrt empty": (lambda: sym_sqrt(np.eye(0)), UsageError, "non-empty square"),
    "sym_sqrt non-finite": (
        lambda: sym_sqrt([[1.0, np.inf], [np.inf, 1.0]]), DomainError, "non-finite entries"),
    "mvn string mean": (
        lambda: sample_mvn(["a", "b"], I2, 5, 0), UsageError, "mean is not a real"),
    "mvt mean beside cov": (
        lambda: sample_mvt(np.zeros(3), I2, 4.0, 5, 0), UsageError, "dimensions do not match"),
    "evaluate string": (
        lambda: build_basis(2).evaluate("abc"), UsageError, "not a real numeric array"),
    "degree_slice absent": (
        lambda: build_basis(2).degree_slice(5), UsageError, "no degree-5 functions"),
    # hp: sectors, their count and the size of the counts table
    "hp unknown sector": (
        lambda: huffer_park_test(X, 2, sector="cubes"), UsageError, "sector must be one of"),
    "hp g with permutations": (
        lambda: huffer_park_test(X, 2, sector="permutations", g=6, R=5),
        UsageError, r"fixed at d! for permutation"),
    "hp cell cap": (
        lambda: huffer_park_test(SMALL, 2, sector="bivariateangles", g=3_000_000, R=5),
        UsageError, "3000000 sectors x 2 shells is too large"),
    # R is refused before the observed statistic and any size warning
    "ks R 0": (lambda: ks_test(SMALL, R=0), UsageError, "replicate count"),
    "hp R 0": (lambda: huffer_park_test(SMALL, 3, R=0), UsageError, "replicate count"),
    # numpy scalars and other real or integral numbers still pass
    "chi2_sf numpy": (lambda: chi2_sf(np.float32(3.0), np.int64(2)), None, None),
    "mpq numpy epsilon": (lambda: mpq_test(X, epsilon=np.float64(0.1)), None, None),
    "mpq int epsilon": (lambda: mpq_test(X, epsilon=0), None, None),
    "so numpy param": (lambda: skew_optimal_test(X, param=np.float32(5.0)), None, None),
    "density Fraction": (lambda: RadialDensity("powerExp", Fraction(1, 2)), None, None),
    "mvn numpy n": (lambda: sample_mvn(Z2, I2, np.int32(5), np.uint64(7)), None, None),
    "mvt numpy nu": (lambda: sample_mvt(Z2, I2, np.int64(4), np.uint8(5), 0), None, None),
    "sphere numpy": (lambda: sample_uniform_sphere(np.int64(2), np.uint8(3), 0), None, None),
    "skewed numpy": (lambda: sample_skewed(np.int16(2), 5, np.float64(1.0), 0), None, None),
    "hp numpy counts": (
        lambda: huffer_park_test(X, np.int64(2), R=np.int32(5), seed=np.int64(0)),
        None, None),
    "ks numpy R": (lambda: ks_test(X, R=np.int16(5), seed=np.uint8(1)), None, None),
    "basis numpy d": (lambda: build_basis(np.int64(3)), None, None),
    "counts numpy": (
        lambda: (harmonic_dim(np.int8(3), np.int8(4)), schott_df(np.int32(3))), None, None),
    "plan numpy": (lambda: BootstrapPlan(np.int32(4), np.uint64(3), np.int8(1)), None, None),
}


@pytest.mark.parametrize("case", list(CASES))
def test_each_argument_gives_a_result_or_a_typed_error(case):
    call, error, pattern = CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning before the refusal fails too
        if error is None:
            call()
        else:
            with pytest.raises(error, match=pattern):
                call()


#: id -> (call, the message of its refusal)
BOUNDS = {
    "harmonic_dim d": (lambda: harmonic_dim(1, 3), "d must be at least 2, got 1"),
    "harmonic_dim k": (lambda: harmonic_dim(3, -1), "k must be at least 0, got -1"),
    "schott_df d": (lambda: schott_df(np.int64(1)), "d must be at least 2, got 1"),
    "build_basis d": (lambda: build_basis(1), "d must be at least 2, got 1"),
    "hp c": (lambda: huffer_park_test(X, 0), "shell count c must be at least 1, got 0"),
    "hp g": (
        lambda: huffer_park_test(SMALL, 2, sector="bivariateangles", g=0, R=5),
        "sector count g must be at least 1, got 0"),
    "plan seed": (lambda: BootstrapPlan(R=5, seed=-1), "seed must be at least 0, got -1"),
    "skewed d": (lambda: sample_skewed(1, 5, 1.0, 0), "d must be at least 2, got 1"),
    "mvn n": (lambda: sample_mvn(Z2, I2, 0, 0), "n must be at least 1, got 0"),
    "mvn seed": (lambda: sample_mvn(Z2, I2, 5, -1), "seed must be at least 0, got -1"),
}


@pytest.mark.parametrize("case", list(BOUNDS))
def test_integer_rule_applies_the_lower_bound(case):
    call, message = BOUNDS[case]
    with pytest.raises(UsageError, match=message):
        call()
