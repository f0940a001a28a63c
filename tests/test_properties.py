"""Property suite: every small sample gives a finite statistic with a p-value
in [0, 1], or a typed error that is not a usage error; and every test is
invariant under power-of-two scaling and the order of the rows."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellipsym import (
    huffer_park_test,
    ks_test,
    mpq_test,
    pseudo_gaussian_test,
    sample_mvt,
    schott_test,
    skew_optimal_test,
)
from ellipsym.exceptions import EllipsymError, UsageError

KINDS = ("gaussian", "rounded", "cubed", "duplicated")


@st.composite
def samples(draw):
    """(X, c): an n x d sample of one kind, n from d + 1 to d + 8, and a
    valid Huffer-Park shell count."""
    d = draw(st.integers(2, 4))
    n = draw(st.integers(d + 1, d + 8))
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, d))
    if kind == "rounded":
        X = np.round(X)
    elif kind == "cubed":
        X = X**3
    elif kind == "duplicated":
        X = X[rng.integers(0, max(2, n // 2), n)]
    return X, draw(st.integers(1, n))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sample=samples())
# Schott's expanded Wald form cancels to a few ULPs below zero on these rows
@example(sample=(np.array([[3.0, -1.0], [-1.0, 0.0], [0.0, 0.0], [-2.0, 1.0]]), 2))
def test_every_test_gives_a_p_value_or_a_typed_error(sample):
    X, c = sample
    calls = {
        "ks": lambda: ks_test(X, R=9, workers=1),
        "mpq": lambda: mpq_test(X),
        "schott": lambda: schott_test(X),
        "hp": lambda: huffer_park_test(X, c, R=9, workers=1),
        "pg": lambda: pseudo_gaussian_test(X),
        "so": lambda: skew_optimal_test(X),
    }
    for method, call in calls.items():
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # small samples warn by design
                result = call()
        except UsageError as exc:  # the arguments above are all valid
            raise AssertionError(f"{method}: usage error {exc}") from exc
        except EllipsymError:
            continue
        assert math.isfinite(result.statistic), method
        # p = 0 is allowed: a bootstrap p-value is at least 1 / (R + 1), but
        # the chi-squared tail can underflow to 0 (ROADMAP item 6)
        assert 0.0 <= result.p_value <= 1.0, (method, result.p_value)


#: the six tests, hp calibrated by Monte Carlo and pg and so also about a
#: given location, as functions of the sample and that location
RUNS = {
    "ks": lambda X, loc: ks_test(X, R=20, seed=1, workers=1),
    "mpq": lambda X, loc: mpq_test(X),
    "schott": lambda X, loc: schott_test(X),
    "hp": lambda X, loc: huffer_park_test(X, 2),
    "pg": lambda X, loc: pseudo_gaussian_test(X),
    "so": lambda X, loc: skew_optimal_test(X),
    "pg_location": lambda X, loc: pseudo_gaussian_test(X, location=loc),
    "so_location": lambda X, loc: skew_optimal_test(X, location=loc),
}


def invariance_sample(d):
    """A heavy-tailed 120 x d sample off the origin and a location near it."""
    X = sample_mvt(np.arange(d) / 4.0, np.eye(d), 4.0, 120, seed=d)
    return X, np.arange(d) / 4.0 + 0.1


@pytest.mark.parametrize("d", [2, 3, 5])
def test_power_of_two_scaling_moves_no_bit(d):
    # every step scales exactly by a power of two, so every result is unchanged
    X, loc = invariance_sample(d)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # hp's grid warns at d = 5, at every scale
        for method, run in RUNS.items():
            base = run(X, loc)
            for scale in (2.0**7, 2.0**-9):
                scaled = run(X * scale, loc * scale)
                assert (scaled.statistic, scaled.p_value) == (base.statistic, base.p_value), (
                    method, scale)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_row_order_moves_no_statistic_or_asymptotic_p_value(d):
    # ks and hp bootstrap p-values are left out: each replicate's draws are
    # keyed to the rows' order, so permuting the rows redraws the reference
    X, loc = invariance_sample(d)
    shuffled = X[np.random.default_rng(d).permutation(len(X))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for method, run in RUNS.items():
            base, moved = run(X, loc), run(shuffled, loc)
            assert math.isclose(moved.statistic, base.statistic, rel_tol=1e-9), method
            if method != "ks":  # chi-squared laws and hp's Monte Carlo law
                assert math.isclose(moved.p_value, base.p_value, rel_tol=1e-9), method
