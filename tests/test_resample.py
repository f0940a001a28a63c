import sys
import threading

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
    # 5000 cells per replicate: blocks of BLOCK_CELLS // 5000 = 6, so R = 40
    # spans several blocks and ends on a partial one
    def generate(rng):
        return rng.standard_normal(5000)

    def statistic(S):
        return S[:, 0] * S[:, -1]

    results = {}
    for workers in (1, 2, 5):
        plan = BootstrapPlan(R=40, seed=123, workers=workers)
        results[workers] = run_replicates(plan, generate, statistic)
    assert np.all(np.diff(results[1]) >= 0)
    assert np.array_equal(results[1], results[2])
    assert np.array_equal(results[1], results[5])
    draws = [replicate_rng(123, r).standard_normal(5000) for r in range(40)]
    assert np.array_equal(results[1], np.sort([x[0] * x[-1] for x in draws]))


def test_blocks_under_thread_contention():
    # blocks of 2 replicates on more threads than cores, switching threads
    # often: a lost or misplaced block write would change the output
    def generate(rng):
        return rng.standard_normal(2**14)

    plan = BootstrapPlan(R=101, seed=5, workers=16)
    out = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(
            target=lambda: out.update(v=run_replicates(plan, generate, lambda S: S[:, 0]))
        )
        worker.start()
        worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    draws = [replicate_rng(5, r).standard_normal(2**14)[0] for r in range(101)]
    assert np.array_equal(out["v"], np.sort(draws))


def test_retry_uses_fresh_stream():
    # replicate 0's base-stream data always fails; its block is scored one
    # replicate at a time, and only replicate 0 is retried, on the
    # (seed, r, 1) stream
    base0 = replicate_rng(9, 0).uniform(size=3)
    generated = []

    def generate(rng):
        generated.append(rng.uniform(size=3))
        return generated[-1]

    def statistic(S):
        if any(np.array_equal(x, base0) for x in S):
            raise FloatingPointError("injected")
        return S.sum(axis=1)

    plan = BootstrapPlan(R=5, seed=9, workers=1)
    out = run_replicates(plan, generate, statistic)
    assert len(generated) == plan.R + 1  # once per replicate, once per retry
    retry_value = replicate_rng(9, 0, retry=1).uniform(size=3).sum()
    others = [replicate_rng(9, r).uniform(size=3).sum() for r in range(1, 5)]
    assert np.array_equal(out, np.sort([retry_value, *others]))


def test_double_failure_is_fatal():
    def generate(rng):
        return rng.uniform(size=2)

    def statistic(S):
        raise FloatingPointError("always")

    plan = BootstrapPlan(R=3, seed=1, workers=1)
    with pytest.raises(NumericError, match="replicate 0"):
        run_replicates(plan, generate, statistic)


def test_programming_error_is_not_retried():
    raised = []

    def generate(rng):
        return rng.uniform(size=2)

    def statistic(S):
        raised.append(TypeError("not a numeric failure"))
        raise raised[-1]

    plan = BootstrapPlan(R=3, seed=1, workers=1)
    with pytest.raises(TypeError) as exc:
        run_replicates(plan, generate, statistic)
    assert len(raised) == 1
    assert exc.value is raised[0]


@pytest.mark.parametrize(
    "statistic",
    [lambda S: float(S.sum()), lambda S: S.sum(axis=1)[:-1], lambda S: S],
    ids=["scalar", "short", "unreduced"],
)
def test_statistic_must_return_one_value_per_replicate(statistic):
    calls = []

    def counted(S):
        calls.append(len(S))
        return statistic(S)

    plan = BootstrapPlan(R=4, seed=2, workers=1)
    with pytest.raises(TypeError, match="for 4 replicates"):
        run_replicates(plan, lambda rng: rng.uniform(size=3), counted)
    assert calls == [4]  # refused without scoring alone or retrying


def test_replicate_shapes_must_match():
    def generate(rng):
        return rng.uniform(size=3 if rng.uniform() < 0.5 else 1)

    plan = BootstrapPlan(R=50, seed=0, workers=1)
    with pytest.raises(TypeError, match="shape"):
        run_replicates(plan, generate, lambda S: S.sum(axis=1))
