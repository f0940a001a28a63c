import numpy as np
import pytest

from ellipsym import (
    ALL_BUT_ONE,
    BootstrapPlan,
    NumericError,
    UsageError,
    replicate_rng,
    resolve_workers,
    run_replicates,
)


def test_plan_validation():
    BootstrapPlan(R=1, seed=0)
    with pytest.raises(UsageError):
        BootstrapPlan(R=0, seed=0)
    with pytest.raises(UsageError):
        BootstrapPlan(R=10, seed=-1)
    with pytest.raises(UsageError):
        BootstrapPlan(R=10, seed=0, workers=0)
    with pytest.raises(UsageError):
        BootstrapPlan(R=10, seed=0, workers=-3)


def test_resolve_workers(monkeypatch):
    assert resolve_workers(4) == 4
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    assert resolve_workers(ALL_BUT_ONE) == 7
    monkeypatch.setattr("os.cpu_count", lambda: 1)
    assert resolve_workers(ALL_BUT_ONE) == 1
    with pytest.raises(UsageError):
        resolve_workers(0)


def test_replicate_rng_is_keyed():
    a = replicate_rng(3, 7).uniform()
    b = replicate_rng(3, 7).uniform()
    c = replicate_rng(3, 8).uniform()
    d = replicate_rng(4, 7).uniform()
    e = replicate_rng(3, 7, retry=1).uniform()
    assert a == b
    assert len({a, c, d, e}) == 4


def test_replicates_sorted_and_worker_independent():
    def generate(rng):
        return rng.standard_normal(50)

    def statistic(x):
        return float(np.mean(x))

    results = {}
    for workers in (1, 2, 5):
        plan = BootstrapPlan(R=40, seed=123, workers=workers)
        results[workers] = run_replicates(plan, generate, statistic)
    assert np.all(np.diff(results[1]) >= 0)
    assert np.array_equal(results[1], results[2])
    assert np.array_equal(results[1], results[5])


def test_retry_uses_fresh_stream():
    # the first statistic call blows up; the replicate must be retried on
    # the (seed, r, 1) stream and the final reference still holds R values
    calls = {"failed": False}

    def generate(rng):
        return rng.uniform(size=3)

    def statistic(x):
        if not calls["failed"]:
            calls["failed"] = True
            raise FloatingPointError("injected")
        return float(x.sum())

    plan = BootstrapPlan(R=5, seed=9, workers=1)
    out = run_replicates(plan, generate, statistic)
    assert calls["failed"]
    assert out.shape == (5,)
    # replicate 0 was recomputed from the retry stream, not the base stream
    retry_value = float(replicate_rng(9, 0, retry=1).uniform(size=3).sum())
    assert retry_value in out


def test_double_failure_is_fatal():
    def generate(rng):
        return rng.uniform(size=2)

    def statistic(x):
        raise FloatingPointError("always")

    plan = BootstrapPlan(R=3, seed=1, workers=1)
    with pytest.raises(NumericError, match="replicate 0"):
        run_replicates(plan, generate, statistic)


def test_programming_error_is_not_retried():
    raised = []

    def generate(rng):
        return rng.uniform(size=2)

    def statistic(x):
        raised.append(TypeError("not a numeric failure"))
        raise raised[-1]

    plan = BootstrapPlan(R=3, seed=1, workers=1)
    with pytest.raises(TypeError) as exc:
        run_replicates(plan, generate, statistic)
    assert len(raised) == 1
    assert exc.value is raised[0]
