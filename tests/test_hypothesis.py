"""Statistic-level checks against tests/naive.py and frozen oracle values.

The literals below were produced by running the naive reference
implementations on the two golden CSV files (see tests/data); the library
must reproduce them independently.  Regenerate with:

    python3 -c "import sys; sys.path.insert(0, 'tests'); import naive; ..."
"""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import naive
from ellipsym import (
    DomainError,
    NullLaw,
    UsageError,
    build_basis,
    harmonic_dim,
    huffer_park_test,
    ks_test,
    mpq_test,
    pseudo_gaussian_test,
    run_replicates,
    sample_cov,
    sample_mvn,
    sample_mvt,
    sample_skewed,
    schott_df,
    schott_test,
    skew_optimal_test,
    tyler_scatter,
)
from ellipsym.hypothesis import (
    HP_CALIBRATION_SIMS,
    METHOD_LABELS,
    _HP_COUNTED_SHELLS,
    _SCHOTT_ROWS,
    _directions,
    _fourth_moments,
    _hp_pearson,
    _hp_shells,
    _hp_tables,
    _ks_statistic,
    _ks_statistics,
    _null_resampler,
)
from ellipsym.estimators import _centered_cov
from ellipsym import resample
from ellipsym.resample import BLOCK_CELLS, BootstrapPlan


def hp_statistic(X, c, sector, g):
    return float(_hp_pearson(_hp_tables(X[None], c, sector, g))[0])


Z2 = np.zeros(2)

GOLDEN_20 = {
    "ks": 2.300456175914503,
    "mpq_005": 4.7288088685020835,
    "mpq_0": 4.264056476114519,
    "mpq_020": 4.692566995075914,
    "schott": 2.141691235666787,
    "hp_c3": 1.6,
    "hp_perm_c2": 3.2,
    "hp_ang_c2_g6": 7.6000000000000005,
    "pg": 1.8624116807700377,
    "pg_loc0": 9.55552301611759,
    "so_t4": 0.12169178690962272,
    "so_t7": 0.06587331508975988,
    "so_logistic": 0.5282423912366487,
    "so_powerexp05": 0.2896321458866452,
    "so_powerexp2": 0.01179630784048886,
    "so_loc0": 8.474971022907349,
}

GOLDEN_40_HP_COUNTS_C4 = np.array(
    [[2, 2, 3, 1], [1, 3, 3, 4], [6, 4, 2, 3], [1, 1, 2, 2]]
)


def relclose(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# frozen golden values
# ---------------------------------------------------------------------------


def test_ks_statistic_golden(golden_20x2):
    stat = _ks_statistic(golden_20x2, build_basis(2))
    assert relclose(stat, GOLDEN_20["ks"], 1e-12)


def test_mpq_golden(golden_20x2):
    assert relclose(mpq_test(golden_20x2).statistic, GOLDEN_20["mpq_005"], 1e-12)
    assert relclose(
        mpq_test(golden_20x2, epsilon=0.0).statistic, GOLDEN_20["mpq_0"], 1e-12
    )
    assert relclose(
        mpq_test(golden_20x2, epsilon=0.20).statistic, GOLDEN_20["mpq_020"], 1e-12
    )


def test_schott_golden(golden_20x2):
    assert relclose(schott_test(golden_20x2).statistic, GOLDEN_20["schott"], 1e-10)


#: four rows whose Schott statistic is 8e-59 in 60-digit arithmetic; its
#: expanded double-precision Wald form cancels to -5.7e-14
SCHOTT_CANCELS = np.array([[3.0, -1.0], [-1.0, 0.0], [0.0, 0.0], [-2.0, 1.0]])


def test_schott_statistic_that_cancels_below_zero_reads_zero():
    result = schott_test(SCHOTT_CANCELS)
    assert result.statistic == 0.0 and math.copysign(1.0, result.statistic) == 1.0
    assert result.p_value == 1.0


def test_hp_golden(golden_20x2):
    with pytest.warns(UserWarning):  # 12 cells for 20 points
        r = huffer_park_test(golden_20x2, 3, R=25, seed=0, workers=1)
    assert relclose(r.statistic, GOLDEN_20["hp_c3"], 1e-12)
    assert relclose(
        hp_statistic(golden_20x2, 2, "permutations", 2), GOLDEN_20["hp_perm_c2"], 1e-12
    )
    assert relclose(
        hp_statistic(golden_20x2, 2, "bivariateangles", 6),
        GOLDEN_20["hp_ang_c2_g6"],
        1e-12,
    )


def test_hp_counts_table_golden(golden_40x2):
    assert np.array_equal(
        _hp_tables(golden_40x2[None], 4, "orthants", 4)[0], GOLDEN_40_HP_COUNTS_C4
    )
    assert np.array_equal(
        naive.hp_counts_oracle(golden_40x2, 4), GOLDEN_40_HP_COUNTS_C4
    )


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stacked_hp_tables_match_the_oracle(d):
    # each sample of one block against the oracle; the samples at the block's
    # first, middle and last positions repeat a row at their first, middle and
    # last rows, and the second sample repeats half its rows
    n = 4 * d + 3
    S = sample_skewed(d, 5 * n, 2.0, seed=40 + d).reshape(5, n, d)
    for b, (dst, src) in zip((0, 2, 4), ((0, n // 2), (n // 2, n - 1), (n - 1, 0))):
        S[b, dst] = S[b, src]
    S[1, n // 2 :] = S[1, : n - n // 2]
    schemes = [("orthants", 2**d), ("permutations", math.factorial(d))]
    if d == 2:
        schemes.append(("bivariateangles", 5))
    for sector, g in schemes:
        for c in range(1, min(n, 6) + 1):
            for X, table in zip(S, _hp_tables(S, c, sector, g)):
                assert np.array_equal(table, naive.hp_counts_oracle(X, c, sector, g))


def test_pg_golden(golden_20x2):
    assert relclose(pseudo_gaussian_test(golden_20x2).statistic, GOLDEN_20["pg"])
    assert relclose(
        pseudo_gaussian_test(golden_20x2, location=Z2).statistic, GOLDEN_20["pg_loc0"]
    )


def test_so_golden(golden_20x2):
    X = golden_20x2
    assert relclose(skew_optimal_test(X).statistic, GOLDEN_20["so_t4"])
    assert relclose(skew_optimal_test(X, param=7.0).statistic, GOLDEN_20["so_t7"])
    assert relclose(
        skew_optimal_test(X, f="logistic").statistic, GOLDEN_20["so_logistic"]
    )
    assert relclose(
        skew_optimal_test(X, f="powerExp").statistic, GOLDEN_20["so_powerexp05"]
    )
    assert relclose(
        skew_optimal_test(X, f="powerExp", param=2.0).statistic,
        GOLDEN_20["so_powerexp2"],
    )
    assert relclose(skew_optimal_test(X, location=Z2).statistic, GOLDEN_20["so_loc0"])


# ---------------------------------------------------------------------------
# live oracle agreement on a fresh draw
# ---------------------------------------------------------------------------


def test_oracle_agreement_fresh_draw():
    X = sample_mvn(np.array([0.5, -1.0]), np.array([[2.0, 0.4], [0.4, 1.0]]), 35, seed=77)
    assert relclose(_ks_statistic(X, build_basis(2)), naive.ks_statistic_oracle(X), 1e-10)
    assert relclose(mpq_test(X, 0.1).statistic, naive.mpq_statistic_oracle(X, 0.1), 1e-10)
    assert relclose(schott_test(X).statistic, naive.schott_statistic_oracle(X), 1e-9)
    assert relclose(hp_statistic(X, 4, "orthants", 4), naive.hp_statistic_oracle(X, 4), 1e-12)
    assert relclose(pseudo_gaussian_test(X).statistic, naive.pg_statistic_oracle(X))
    loc = [0.5, -1.0]  # the O(n^2) double sum of the specified-location form
    assert relclose(
        pseudo_gaussian_test(X, location=loc).statistic, naive.pg_statistic_oracle(X, loc)
    )
    assert relclose(skew_optimal_test(X).statistic, naive.so_statistic_oracle(X))


ORACLE_SAMPLES = {
    "skewed": lambda d: sample_skewed(d, 50, slant=2.0, seed=80 + d),
    "t": lambda d: sample_mvt(np.arange(d) / d, np.eye(d) + 0.3, 5.0, 50, seed=90 + d),
}


@pytest.mark.parametrize("sample", list(ORACLE_SAMPLES))
@pytest.mark.parametrize("d", [3, 4, 5])
def test_tyler_and_schott_oracle_agreement_beyond_d2(d, sample):
    X = ORACLE_SAMPLES[sample](d)
    loc = X.mean(axis=0) + 0.1  # off the mean, so the located forms differ
    assert relclose(schott_test(X).statistic, naive.schott_statistic_oracle(X), 1e-10)
    for location in (None, loc):
        got = pseudo_gaussian_test(X, location=location).statistic
        assert relclose(got, naive.pg_statistic_oracle(X, location), 1e-10)
        for f, param in (("t", 4.0), ("logistic", None), ("powerExp", 0.5)):
            got = skew_optimal_test(X, location=location, f=f, param=param).statistic
            expected = naive.so_statistic_oracle(X, f, param, location)
            assert relclose(got, expected, 1e-10)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_kernel_oracle_agreement_any_d(d):
    # the addition-theorem kernels share no code with the harmonic basis
    X = sample_skewed(d, 60, slant=2.0, seed=40 + d)
    ks = _ks_statistic(X, build_basis(d))
    assert relclose(ks, naive.ks_statistic_kernel_oracle(X), 1e-9)
    for eps in (0.0, 0.05):
        mpq = mpq_test(X, eps).statistic
        assert relclose(mpq, naive.mpq_statistic_kernel_oracle(X, eps), 1e-9)


def test_kernel_oracle_matches_circle_oracle(golden_20x2):
    X = golden_20x2
    assert relclose(naive.ks_statistic_kernel_oracle(X), naive.ks_statistic_oracle(X), 1e-10)
    assert relclose(
        naive.mpq_statistic_kernel_oracle(X), naive.mpq_statistic_oracle(X), 1e-10
    )


# ---------------------------------------------------------------------------
# result structure
# ---------------------------------------------------------------------------


def test_result_structure(golden_20x2):
    r = mpq_test(golden_20x2)
    assert r.method == "mpq"
    assert r.label == METHOD_LABELS["mpq"]
    assert 0.0 < r.p_value <= 1.0
    blob = r.describe()
    assert set(blob) >= {"method", "statistic", "p_value", "null_law", "params"}
    json.dumps(blob)  # must be serializable


def test_describe_serializes_counts(golden_20x2):
    with pytest.warns(UserWarning):
        r = huffer_park_test(golden_20x2, 2, R=10, seed=3, workers=1)
    blob = r.describe()
    json.dumps(blob)
    assert blob["params"]["counts"] == r.params["counts"].tolist()


def test_null_law_kinds(golden_20x2):
    assert mpq_test(golden_20x2).null_law.kind == "scaled_chi2"
    assert schott_test(golden_20x2).null_law.kind == "chi2"
    assert pseudo_gaussian_test(golden_20x2).null_law == NullLaw.chi2(2)
    assert skew_optimal_test(golden_20x2).null_law == NullLaw.chi2(2)


def test_hp_law_kind_depends_on_R(golden_40x2):
    boot = huffer_park_test(golden_40x2, 2, R=12, seed=1, workers=1)
    assert boot.null_law.kind == "bootstrap"
    assert len(boot.null_law.reference) == 12
    mc = huffer_park_test(golden_40x2, 2, seed=1, workers=1)
    assert mc.null_law.kind == "monte_carlo"
    assert mc.params["calibration_sims"] == len(mc.null_law.reference)


def test_schott_df_values():
    assert [schott_df(d) for d in (2, 3, 4, 5, 10)] == [4, 14, 34, 69, 714]
    # the closed form is C(d+3, 4) - 1
    for d in range(2, 12):
        assert schott_df(d) == math.comb(d + 3, 4) - 1
    assert schott_df(np.int32(3)) == 14


@pytest.mark.parametrize(
    "func, args",
    [(schott_df, (2.5,)), (schott_df, (True,)), (harmonic_dim, (3.0, 2)),
     (harmonic_dim, (3, 2.0)), (harmonic_dim, (3, np.bool_(True)))],
    ids=lambda v: getattr(v, "__name__", None) or "-".join(map(str, v)),
)
def test_counts_follow_one_integer_rule(func, args):
    # the rule of BootstrapPlan and build_basis: numpy integers yes, bools no
    with pytest.raises(UsageError, match="must be an integer"):
        func(*args)


def test_mpq_df(golden_20x2):
    r = mpq_test(golden_20x2)
    assert r.null_law.df == 4  # dim H(2,3) + dim H(2,4)
    assert r.null_law.scale == 0.95


# ---------------------------------------------------------------------------
# argument and data guards
# ---------------------------------------------------------------------------


def test_mpq_epsilon_guard(golden_20x2):
    with pytest.raises(UsageError):
        mpq_test(golden_20x2, epsilon=1.0)
    with pytest.raises(UsageError):
        mpq_test(golden_20x2, epsilon=-0.1)
    for epsilon in ("x", None):
        with pytest.raises(UsageError, match="epsilon"):
            mpq_test(golden_20x2, epsilon=epsilon)


@pytest.mark.parametrize("epsilon", [Fraction(1, 20), np.float32(0.05)], ids=type)
def test_mpq_takes_epsilon_as_a_float(golden_40x2, epsilon):
    # the result of the Python float: JSON-ready, and n * epsilon in double
    # precision (float32 gives 40 * 0.05 = 2 exactly; the double is above 2)
    r = mpq_test(golden_40x2, epsilon)
    assert type(r.params["epsilon"]) is float
    assert r.describe() == mpq_test(golden_40x2, float(epsilon)).describe()
    json.dumps(r.describe())


def test_hp_guards(golden_20x2):
    with pytest.raises(UsageError):
        huffer_park_test(golden_20x2, 0)
    with pytest.raises(UsageError):
        huffer_park_test(golden_20x2, 3, g=4)  # g fixed for orthants
    with pytest.raises(UsageError):
        huffer_park_test(golden_20x2, 3, sector="permutations", R=None)
    with pytest.raises(UsageError):
        huffer_park_test(golden_20x2, 3, sector="bivariateangles", R=10)  # g missing
    with pytest.raises(UsageError):
        huffer_park_test(golden_20x2, 999)  # more shells than points
    X3 = sample_mvn(np.zeros(3), np.eye(3), 30, seed=1)
    with pytest.raises(UsageError):
        huffer_park_test(X3, 2, sector="bivariateangles", g=4, R=10)
    # bools are not counts, as in BootstrapPlan and build_basis
    with pytest.raises(UsageError, match="shell count"):
        huffer_park_test(golden_20x2, True, R=5, seed=0, workers=1)
    with pytest.raises(UsageError, match="sector count g must be an integer"):
        huffer_park_test(golden_20x2, 2, sector="bivariateangles", g=True, R=5)


@pytest.mark.parametrize(
    "kwargs", [{"R": 50.0}, {"R": True}, {"seed": 1.5}, {"workers": 2.0}], ids=str
)
def test_resampling_arguments_must_be_integers(golden_40x2, kwargs):
    with pytest.raises(UsageError, match="must be an integer"):
        ks_test(golden_40x2, **kwargs)
    with pytest.raises(UsageError, match="must be an integer"):
        huffer_park_test(golden_40x2, 2, **{"R": 20, **kwargs})


def test_ks_small_sample_warning():
    X = sample_mvn(Z2, np.eye(2), 8, seed=3)  # basis has 9 functions
    with pytest.warns(UserWarning, match="basis"):
        r = ks_test(X, R=10, seed=0, workers=1)
    assert "warning" in r.params


def test_location_guards(golden_20x2):
    with pytest.raises(UsageError):
        pseudo_gaussian_test(golden_20x2, location=np.zeros(3))
    with pytest.raises(UsageError):
        skew_optimal_test(golden_20x2, location=np.array([np.inf, 0.0]))
    with pytest.raises(UsageError):
        skew_optimal_test(golden_20x2, f="logistic", param=2.0)


@pytest.mark.parametrize(
    "test, location",
    [
        (pseudo_gaussian_test, "a"),
        (skew_optimal_test, [1, "x"]),
        (pseudo_gaussian_test, [1j, 0]),
        (skew_optimal_test, np.array([0.5j, 0.0])),
    ],
    ids=["string", "mixed", "complex_list", "complex_array"],
)
def test_non_numeric_location_is_a_usage_error(golden_40x2, test, location):
    with pytest.raises(UsageError, match="location is not a real numeric vector"):
        test(golden_40x2, location=location)


def test_degenerate_sample_rejected():
    row = np.array([1.0, 2.0])
    X = np.tile(row, (10, 1)) + 1e-16
    with pytest.raises(DomainError):
        schott_test(X)


@pytest.mark.parametrize(
    "X",
    [
        [["a", "b"]] * 10,  # not numbers
        [[1.0, 2.0], [3.0]] + [[1.0, 2.0]] * 8,  # ragged
        sample_mvn(Z2, np.eye(2), 10, seed=1) + 0.5j,  # complex
    ],
    ids=["strings", "ragged", "complex"],
)
def test_non_real_matrix_is_a_domain_error(X):
    runs = {
        "ks": lambda: ks_test(X, R=5, seed=0, workers=1),
        "mpq": lambda: mpq_test(X),
        "schott": lambda: schott_test(X),
        "hp": lambda: huffer_park_test(X, 1, R=5, seed=0, workers=1),
        "pg": lambda: pseudo_gaussian_test(X),
        "so": lambda: skew_optimal_test(X),
    }
    for method, run in runs.items():
        with pytest.raises(DomainError, match="not a real numeric matrix"):
            run()


@pytest.mark.parametrize(
    "run",
    [lambda X: ks_test(X, R=5, seed=0, workers=1),
     lambda X: huffer_park_test(X, 2, R=5, seed=0, workers=1)],
    ids=["ks", "hp_bootstrap"],
)
def test_an_observation_at_the_mean_is_a_domain_error(run):
    # the last row is the sample mean: its standardized direction is undefined
    Z = sample_mvn(Z2, np.eye(2), 20, seed=4)
    with pytest.raises(DomainError, match="observation 40 coincides with the location"):
        run(np.vstack([Z, -Z, [[0.0, 0.0]]]))


#: the six tests, pg and so also about a given location, as functions of the
#: sample and that location
MAGNITUDE_RUNS = {
    "ks": lambda X, loc: ks_test(X, R=5, seed=0, workers=1),
    "mpq": lambda X, loc: mpq_test(X),
    "schott": lambda X, loc: schott_test(X),
    "hp": lambda X, loc: huffer_park_test(X, 1, R=5, seed=0, workers=1),
    "pg": lambda X, loc: pseudo_gaussian_test(X),
    "so": lambda X, loc: skew_optimal_test(X),
    "pg_location": lambda X, loc: pseudo_gaussian_test(X, location=loc),
    "so_location": lambda X, loc: skew_optimal_test(X, location=loc),
}
MAGNITUDE_LOCATION = np.array([0.1, -0.2, 0.05])


@pytest.mark.parametrize("d", [2, 3, 4])
def test_d_plus_one_rows_are_a_domain_error(d):
    # Y Y' = (n - 1)(I - 11'/n) at n = d + 1, so every standardized radius is
    # d^2/(d + 1): schott divided by zero or went negative, the rest constant
    X = sample_mvn(np.zeros(d), np.eye(d), d + 1, seed=d)
    for method, run in MAGNITUDE_RUNS.items():
        with pytest.raises(DomainError, match=rf"at least d \+ 2 = {d + 2} rows"):
            run(X, np.zeros(d))
    assert schott_test(sample_mvn(np.zeros(d), np.eye(d), d + 2, seed=d)).p_value >= 0


def test_overflowing_sample_raises_typed_error():
    # squares of entries near 1e160 overflow the second-moment matrix: the
    # tests rescale the data first, the standalone estimators refuse it
    X = sample_mvn(np.zeros(3), np.eye(3), 60, seed=1)
    for method, run in MAGNITUDE_RUNS.items():
        big = run(X * 1e160, MAGNITUDE_LOCATION * 1e160).statistic
        assert math.isclose(big, run(X, MAGNITUDE_LOCATION).statistic, rel_tol=1e-12), method
    with pytest.raises(DomainError, match="overflows"):
        tyler_scatter(X * 1e160, np.zeros(3))
    with pytest.raises(DomainError, match="overflows"):
        sample_cov(X * 1e160)


@pytest.mark.parametrize("method", list(MAGNITUDE_RUNS))
def test_results_do_not_depend_on_magnitude(method):
    # second moments of data near 2^+-600 or 1e+-160 overflow or fall into
    # subnormals unless the data are rescaled first
    run = MAGNITUDE_RUNS[method]
    X = sample_mvn(np.zeros(3), np.eye(3), 60, seed=1)
    base = run(X, MAGNITUDE_LOCATION)
    for scale in (2.0**600, 2.0**-600):
        r = run(X * scale, MAGNITUDE_LOCATION * scale)
        assert (r.statistic, r.p_value) == (base.statistic, base.p_value)
    for scale in (1e160, 1e-160):
        r = run(X * scale, MAGNITUDE_LOCATION * scale)
        assert math.isclose(r.statistic, base.statistic, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# reproducibility and invariance
# ---------------------------------------------------------------------------


def test_bootstrap_p_is_seed_deterministic(golden_20x2):
    a = ks_test(golden_20x2, R=30, seed=11, workers=1)
    b = ks_test(golden_20x2, R=30, seed=11, workers=1)
    c = ks_test(golden_20x2, R=30, seed=12, workers=1)
    assert a.p_value == b.p_value
    assert a.null_law.reference == b.null_law.reference
    assert a.p_value != c.p_value or a.null_law.reference != c.null_law.reference


@pytest.mark.parametrize(
    "n, d, kwargs",
    [
        (130, 2, {"c": 3}),
        (130, 2, {"c": 3, "R": 300}),
        (90, 3, {"c": 2, "sector": "permutations", "R": 200}),
        (130, 2, {"c": 2, "sector": "bivariateangles", "g": 6, "R": 300}),
    ],
    ids=["orthants_monte_carlo", "orthants_bootstrap", "permutations", "bivariateangles"],
)
def test_hp_reference_is_block_independent(n, d, kwargs):
    # the blocked reference equals the replicate-by-replicate statistics of
    # the same draws, for any worker count, with a partial last block
    X = sample_mvn(np.zeros(d), np.eye(d), n, seed=n + d)
    R = kwargs.get("R", HP_CALIBRATION_SIMS)
    block = BLOCK_CELLS // (n * d)
    assert R > block and R % block != 0
    if "R" in kwargs:
        generate = _null_resampler(X)
    else:
        generate = lambda rng: rng.standard_normal((n, d))  # noqa: E731
    c, sector = kwargs["c"], kwargs.get("sector", "orthants")
    g = kwargs.get("g", 2**d if sector == "orthants" else math.factorial(d))
    seed = 17
    expected = np.sort(
        [hp_statistic(generate(naive.numpy_replicate_rng(seed, r)), c, sector, g)
         for r in range(R)]
    )
    for workers in (1, 2, 8):
        law = huffer_park_test(X, seed=seed, workers=workers, **kwargs).null_law
        assert np.array_equal(law.reference, expected)


def test_ks_reference_is_block_independent():
    # stacked statistics equal the one-sample statistic element for element,
    # and the blocked reference equals the per-replicate statistics for any
    # worker count, with a partial last block and a singular replicate
    n, d, R, seed = 40, 3, 300, 17
    X = sample_mvn(np.zeros(d), np.eye(d), n, seed=5)
    basis = build_basis(d)
    block = BLOCK_CELLS // (n * d)
    assert R > block and R % block != 0
    base = _null_resampler(X)
    singular = 7
    singular_draw = base(naive.numpy_replicate_rng(seed, singular))

    def generate(rng, out=None):
        x = base(rng, out)
        if np.array_equal(x, singular_draw):  # replicate `singular`'s base stream
            x[:, 2] = x[:, 0] - x[:, 1]  # rank-deficient covariance
        return x

    draws = [generate(naive.numpy_replicate_rng(seed, r)) for r in range(R)]
    S = np.stack(draws[:block])
    with pytest.raises(DomainError):
        _ks_statistics(S, basis)  # the engine rescores this block alone
    alone = [_ks_statistic(x, basis) for x in np.delete(S, singular, axis=0)]
    assert np.array_equal(_ks_statistics(np.delete(S, singular, axis=0), basis), alone)

    null = np.sort(
        [_ks_statistic(base(naive.numpy_replicate_rng(seed, r)), basis) for r in range(R)]
    )
    draws[singular] = generate(naive.numpy_replicate_rng(seed, singular, 1))
    expected = np.sort([_ks_statistic(x, basis) for x in draws])
    for workers in (1, 2, 8):
        plan = BootstrapPlan(R=R, seed=seed, workers=workers)
        got = run_replicates(plan, generate, lambda S: _ks_statistics(S, basis))
        assert np.array_equal(got, expected)
        law = ks_test(X, R=R, seed=seed, workers=workers).null_law
        assert np.array_equal(law.reference, null)


CHUNKED_RUNS = {
    "ks": (40, 3, lambda X, workers: ks_test(X, R=1200, seed=4, workers=workers)),
    "hp_monte_carlo": (130, 2, lambda X, workers: huffer_park_test(X, 3, seed=4,
                                                                   workers=workers)),
}


@pytest.mark.parametrize("method", list(CHUNKED_RUNS))
def test_chunked_seed_words_keep_the_reference(monkeypatch, method):
    # seed words hashed two blocks at a time give the same bytes as one hash
    n, d, test = CHUNKED_RUNS[method]
    X = sample_mvn(np.zeros(d), np.eye(d), n, seed=9)
    expected = test(X, 1).null_law.reference
    monkeypatch.setattr(resample, "_SEED_CHUNK", 2 * (BLOCK_CELLS // (n * d)))
    assert len(expected) > 2 * resample._SEED_CHUNK
    for workers in (1, 2):
        assert test(X, workers).null_law.reference == expected


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_streaming_ks_matches_the_per_sample_tables(d):
    # n spans one chunk, a chunk edge on either side and several chunks.
    # Radii tie in the last two samples, so the sort falls back to the stable
    # order there: the second repeats rows, the third holds pairs x, -x about
    # an exact zero mean (dyadic values sum exactly), whose directions differ
    basis = build_basis(d)
    rng = np.random.default_rng(60 + d)
    for n in (50, 2047, 2048, 2049, 5000):
        S = np.round(rng.standard_normal((3, n, d)) * 64) / 64
        S[0] **= 3
        S[1, n // 2 :] = S[1, : n - n // 2]
        S[2, n // 4 : 2 * (n // 4)] = -S[2, : n // 4]
        S[2, -1] -= S[2].sum(axis=0)
        W, cov = _centered_cov(S, n)
        assert np.array_equal(W[2], S[2])
        norms, U = _directions(W, cov)
        ranked = np.sort(norms, axis=-1)
        assert (ranked[1:, 1:] == ranked[1:, :-1]).any(axis=-1).all()
        assert np.array_equal(_ks_statistics(S, basis), naive.ks_table_oracle(norms, U, basis))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_streaming_mpq_matches_the_table_sum(d):
    # the statistic from the row sums of the full ``evaluate`` table: equal
    # bit for bit within one chunk, and within rounding of the in-order
    # addition of chunk sums past it (epsilon = 0 keeps all n points)
    basis = build_basis(d)
    degree3 = basis.degree_slice(3).start
    rng = np.random.default_rng(70 + d)
    for n in (50, 2047, 2048, 2049, 5000):
        X = rng.standard_normal((n, d))
        X[:, 0] **= 3
        W, cov = _centered_cov(X, n - 1)
        norms, U = _directions(W, cov)
        for epsilon in (0.0, 0.05):
            r = mpq_test(X, epsilon=epsilon)
            kept = U[norms > r.params["radius_cutoff"]]
            means = basis.evaluate(kept)[:, degree3:].sum(axis=0) / n
            table_stat = float(n * means @ means)
            if len(kept) <= 2048:
                assert r.statistic == table_stat
            else:
                assert relclose(r.statistic, table_stat, 1e-12)


def test_mpq_keeps_no_direction_when_every_radius_ties():
    # the square (+-1, +-1): every standardized radius equals the cutoff, so
    # the harmonic sums start and end at zero
    X = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    r = mpq_test(X)
    assert r.statistic == 0.0
    assert r.p_value == 1.0


def test_hp_shells_break_ties_in_row_order():
    rng = np.random.default_rng(8)
    norms = rng.exponential(size=(3, 301))
    norms[1, 150:] = norms[1, :151]  # duplicate rows
    norms[2] = np.round(norms[2], 1)  # many ties
    order = np.argsort(norms, axis=-1, kind="stable")
    for c in (1, 4, 7, _HP_COUNTED_SHELLS, _HP_COUNTED_SHELLS + 1, 300, 301):
        base, rem = divmod(norms.shape[1], c)
        labels = np.repeat(np.arange(c), base + (np.arange(c) < rem))
        expected = np.empty_like(order)
        np.put_along_axis(expected, order, np.broadcast_to(labels, order.shape), axis=-1)
        assert np.array_equal(_hp_shells(norms, c), expected)


def test_ks_reduction_builds_no_table():
    # one (m, n) table of the basis at n = 20,000, d = 4 would take 8.8 MB
    import tracemalloc

    n, d = 20_000, 4
    X = np.random.default_rng(3).standard_normal((n, d))
    basis = build_basis(d)
    tracemalloc.start()
    try:
        _ks_statistic(X, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < basis.size * n * 8


@pytest.mark.parametrize("n", [50, _SCHOTT_ROWS - 1, _SCHOTT_ROWS, _SCHOTT_ROWS + 1,
                               3 * _SCHOTT_ROWS + 100])
def test_blocked_schott_matches_one_product(monkeypatch, n):
    # Z'Z summed over blocks of rows is the one product Z'Z bit for bit up
    # to one block, and within rounding past it; so is the statistic
    X = sample_skewed(3, n, 3.0, seed=n)
    Y = X - X.mean(axis=0)
    Z = np.einsum("ni,nj->nij", Y, Y).reshape(n, 9)
    blocked, one = _fourth_moments(Y), Z.T @ Z
    stat = schott_test(X).statistic
    monkeypatch.setattr("ellipsym.hypothesis._SCHOTT_ROWS", n)  # one block
    one_stat = schott_test(X).statistic
    if n <= _SCHOTT_ROWS:
        assert np.array_equal(blocked, one) and stat == one_stat
    else:
        assert np.abs(blocked - one).max() <= 1e-12 * np.abs(one).max()
        assert math.isclose(stat, one_stat, rel_tol=1e-12)


#: bound on each test's new allocations at n = 50,000, d = 5, in copies of
#: the sample: no (n, d^2) table and no dead (n, d) temporaries
WORKING_SET = {
    "schott": (schott_test, 3.0),
    "mpq": (mpq_test, 4.0),
    "pg": (pseudo_gaussian_test, 3.5),
    "so": (skew_optimal_test, 3.0),
}


@pytest.mark.parametrize("method", list(WORKING_SET))
def test_working_set_is_a_few_copies_of_the_sample(method):
    test, copies = WORKING_SET[method]
    X = sample_skewed(5, 50_000, 3.0, seed=9)
    test(X[:100])  # builds the cached basis outside the trace
    tracemalloc.start()
    try:
        test(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < copies * X.nbytes, f"{peak / X.nbytes:.2f} copies"


def test_rotation_invariance_spot_check(golden_20x2):
    X = golden_20x2
    th = 0.7
    Q = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    XQ = X @ Q.T
    assert relclose(
        _ks_statistic(XQ, build_basis(2)), _ks_statistic(X, build_basis(2)), 1e-10
    )
    assert relclose(mpq_test(XQ).statistic, mpq_test(X).statistic, 1e-10)
    assert relclose(schott_test(XQ).statistic, schott_test(X).statistic, 1e-10)
    assert relclose(skew_optimal_test(XQ).statistic, skew_optimal_test(X).statistic, 1e-9)
    # the pseudo-Gaussian statistic is built from signed squared directions
    # and genuinely moves under rotations
    pg0 = pseudo_gaussian_test(X).statistic
    pg1 = pseudo_gaussian_test(XQ).statistic
    assert abs(pg1 - pg0) / pg0 > 1e-3


@pytest.mark.parametrize("power", [-200, -40, 40])
def test_pg_so_exact_under_power_of_two_scaling(power):
    X = sample_mvn(np.zeros(3), np.eye(3), 150, seed=3)
    Y = X * 2.0**power
    assert pseudo_gaussian_test(Y).statistic == pseudo_gaussian_test(X).statistic
    assert skew_optimal_test(Y).statistic == skew_optimal_test(X).statistic


def test_hp_triangular_invariance(golden_40x2):
    X = golden_40x2
    A = np.array([[1.5, 0.0], [-0.4, 0.8]])  # lower triangular, positive diagonal
    b = np.array([3.0, -1.0])
    tables = _hp_tables(np.stack([X, X @ A.T + b]), 4, "orthants", 4)
    assert np.array_equal(tables[0], tables[1])
