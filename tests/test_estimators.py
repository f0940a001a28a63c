import numpy as np
import pytest

import naive
from ellipsym import (
    ConvergenceError,
    DomainError,
    NumericError,
    UsageError,
    pseudo_gaussian_test,
    sample_cov,
    sample_mvn,
    sample_mvt,
    sample_skewed,
    skew_optimal_test,
    tyler_scatter,
    validate_sample,
)
from ellipsym import estimators
from ellipsym.estimators import _centered_cov
from ellipsym.linalg import sym_inv_sqrt


def test_validate_sample_shape_errors():
    with pytest.raises(DomainError):
        validate_sample(np.ones(5))
    with pytest.raises(DomainError):
        validate_sample(np.ones((10, 1)))  # needs d >= 2
    with pytest.raises(DomainError):
        validate_sample(np.ones((3, 3)))  # needs n > d
    bad = np.ones((10, 2))
    bad[4, 1] = np.nan
    with pytest.raises(DomainError):
        validate_sample(bad)


def test_mean_and_cov_match_oracle(rng):
    X = rng.standard_normal((17, 3))
    W, _ = _centered_cov(X, 17)  # every test centres about this mean
    assert np.allclose(X - W, naive.mean_oracle(X), atol=1e-13)
    assert np.allclose(sample_cov(X, "n"), naive.cov_oracle(X, "n"), atol=1e-13)
    assert np.allclose(sample_cov(X, "n-1"), naive.cov_oracle(X, "n-1"), atol=1e-13)


def test_cov_denominator_validated(rng):
    X = rng.standard_normal((10, 2))
    with pytest.raises(UsageError):
        sample_cov(X, denominator="N")


def test_cov_rejects_degenerate():
    X = np.column_stack([np.arange(10.0), 2.0 * np.arange(10.0)])  # rank 1
    with pytest.raises(DomainError):
        sample_cov(X)


def test_tyler_matches_oracle():
    samples = [sample_mvn(np.zeros(d), np.eye(d), 60, seed=d + 3) for d in (2, 3, 4, 5)]
    samples.append(sample_mvt(np.zeros(3), np.eye(3), 1.5, 60, seed=7))  # heavy tails
    samples.append(sample_skewed(4, 60, 4.0, seed=8))  # skewed
    for X in samples:
        theta = X.mean(axis=0)
        V = tyler_scatter(X, theta)
        W = naive.tyler_oracle(X, theta)
        assert np.allclose(V, W, rtol=1e-9, atol=1e-12)


def test_tyler_fixed_point_and_scale(rng):
    X = sample_mvn(np.zeros(3), np.diag([1.0, 2.0, 5.0]), 200, seed=9)
    theta = np.zeros(3)
    V = tyler_scatter(X, theta)
    W = X - theta
    q = np.einsum("ij,ji->i", W, np.linalg.solve(V, W.T))
    # the returned scale makes the average squared Mahalanobis norm equal d
    assert abs(q.mean() - 3.0) < 1e-10
    # fixed-point residual measured directly
    M = (W / q[:, None]).T @ W * (3.0 / len(X))
    iroot = sym_inv_sqrt(V)
    assert np.max(np.abs(iroot @ M @ iroot - np.eye(3))) < 1e-9


def test_tyler_affine_equivariance(rng):
    X = sample_mvn(np.zeros(2), np.eye(2), 80, seed=12)
    theta = X.mean(axis=0)
    A = np.array([[2.0, 0.7], [-0.3, 1.5]])
    b = np.array([1.0, -2.0])
    V1 = tyler_scatter(X @ A.T + b, A @ theta + b)
    V0 = tyler_scatter(X, theta)
    assert np.allclose(V1, A @ V0 @ A.T, rtol=1e-8)


def test_tyler_rejects_bad_location(rng):
    X = rng.standard_normal((20, 2))
    with pytest.raises(UsageError):
        tyler_scatter(X, np.zeros(3))
    for location in ([np.nan, 0.0], [0.0, np.inf]):
        with pytest.raises(UsageError, match="location must be finite"):
            tyler_scatter(X, location)
    with pytest.raises(DomainError):
        tyler_scatter(X, X[3])  # coincides with an observation


def test_tyler_zero_test_is_relative(rng):
    X = rng.standard_normal((20, 2))
    small = 2.0**-40
    np.testing.assert_array_equal(
        tyler_scatter(X * small, np.zeros(2)), tyler_scatter(X, np.zeros(2)) * small**2
    )
    with pytest.raises(DomainError):
        tyler_scatter(X * small, X[3] * small)
    with pytest.raises(DomainError):
        tyler_scatter(np.ones((5, 2)), np.ones(2))  # every observation at the location


def test_tyler_zero_test_ignores_one_gross_outlier(rng):
    # a row 1e6 times the others must not make a row at norm 1e-7 from a
    # given location "coincide" with it
    X = rng.standard_normal((150, 3))
    X[0, 0] = 1e6
    X[1] = [1e-7, 0.0, 0.0]
    assert np.all(np.isfinite(tyler_scatter(X, np.zeros(3))))
    for test in (pseudo_gaussian_test, skew_optimal_test):
        assert np.isfinite(test(X, location=np.zeros(3)).statistic)


def test_tyler_rejects_overflowing_norm(rng):
    # W'W stays finite, but the squared norm of row 7 overflows
    X = rng.standard_normal((60, 3))
    X[7] = [1.2e154, -1.1e154, 1.3e154]
    with pytest.raises(DomainError, match="overflows"):
        tyler_scatter(X, np.zeros(3))


def test_tyler_singular_iterate_is_typed(rng):
    # one row 1e10 from the location makes an iterate numerically singular
    X = rng.standard_normal((150, 3))
    X[0] = 1e10
    with pytest.raises(NumericError, match="singular"):
        tyler_scatter(X, np.zeros(3))
    for test in (pseudo_gaussian_test, skew_optimal_test):
        with pytest.raises(NumericError, match="singular"):
            test(X, location=np.zeros(3))


def test_tyler_on_collinear_data_names_both_causes(rng):
    # x2 = 2 x1 + 1: the start matrix is singular as for a gross outlier,
    # and the message names collinearity as well
    x1 = rng.standard_normal(200)
    X = np.column_stack([x1, 2.0 * x1 + 1.0, rng.standard_normal(200)])
    calls = (lambda: tyler_scatter(X, X.mean(axis=0)),
             lambda: pseudo_gaussian_test(X), lambda: skew_optimal_test(X))
    for call in calls:
        with pytest.raises(NumericError, match="singular; the data may be collinear"):
            call()


def test_tyler_convergence_error(monkeypatch):
    monkeypatch.setattr(estimators, "TYLER_MAX_ITER", 1)
    X = sample_mvn(np.zeros(2), np.eye(2), 50, seed=2)
    with pytest.raises(ConvergenceError, match="in 1 steps"):
        tyler_scatter(X, np.zeros(2))
