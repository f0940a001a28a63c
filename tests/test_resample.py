import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from naive import numpy_replicate_rng
from ellipsym import (
    ALL_BUT_ONE,
    BootstrapPlan,
    NumericError,
    UsageError,
    replicate_rng,
    resolve_workers,
    run_replicates,
)
from ellipsym import resample
from ellipsym.resample import _replicate_words, _seeded


def _into(x, out):
    """x, or x copied into the engine's out array when it passes one."""
    if out is None:
        return x
    out[...] = x
    return out


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


@pytest.mark.parametrize(
    "field, value",
    [("R", 50.0), ("R", True), ("R", 2**32 + 1), ("R", "50"), ("seed", 1.5),
     ("seed", np.float64(3)), ("seed", False), ("seed", np.bool_(True)), ("workers", 2.0)],
)
def test_plan_refuses_non_integers(field, value):
    args = {"R": 10, "seed": 0, "workers": 1, field: value}
    with pytest.raises(UsageError, match=field):
        BootstrapPlan(**args)


def test_plan_normalizes_numpy_integers():
    plan = BootstrapPlan(R=np.int32(4), seed=np.int64(3), workers=np.uint8(1))
    assert [type(v) for v in (plan.R, plan.seed, plan.workers)] == [int, int, int]
    assert BootstrapPlan(R=2**32, seed=0).R == 2**32  # the largest count the hash takes
    draw = lambda rng, out=None: _into(rng.uniform(size=2), out)  # noqa: E731
    got = run_replicates(plan, draw, lambda S: S.sum(axis=1))
    expected = np.sort([draw(numpy_replicate_rng(3, r)).sum() for r in range(4)])
    assert np.array_equal(got, expected)


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


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 9])
@pytest.mark.parametrize("retry", [0, 1])
def test_streams_match_numpy_seed_sequence(seed, retry):
    # replicate_rng and the engine's one-pass derivation over a run both give
    # numpy's default_rng(SeedSequence((seed, r[, retry]))), state and draws
    rs = [0, 1, 2**31, 2**32 - 1, *range(2, 50)]
    words = _replicate_words(seed, np.array(rs, dtype=np.uint32), retry)
    assert words.shape == (len(rs), 4) and words.dtype == np.uint64
    for r, row in zip(rs, words):
        expected = numpy_replicate_rng(seed, r, retry)
        state = expected.bit_generator.state
        draws = expected.standard_normal(8)
        for rng in (replicate_rng(seed, r, retry), _seeded()(row)):
            assert rng.bit_generator.state == state
            assert np.array_equal(rng.standard_normal(8), draws)


def test_replicate_rng_takes_multiword_indices():
    for r in (2**32, 2**40 + 3):
        expected = numpy_replicate_rng(5, r).bit_generator.state
        assert replicate_rng(5, r).bit_generator.state == expected
    with pytest.raises(UsageError):
        replicate_rng(-1, 0)


def test_import_does_not_load_numpy_random():
    # numpy.random costs every CLI process 10+ ms; only replicates need it
    code = "import sys, ellipsym, ellipsym.cli; assert 'numpy.random' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)


def test_replicates_sorted_and_worker_independent():
    # 5000 cells per replicate: blocks of BLOCK_CELLS // 5000 = 6, so R = 40
    # spans several blocks and ends on a partial one
    def generate(rng, out=None):
        return rng.standard_normal(5000, out=out)

    def statistic(S):
        return S[:, 0] * S[:, -1]

    results = {}
    for workers in (1, 2, 5):
        plan = BootstrapPlan(R=40, seed=123, workers=workers)
        results[workers] = run_replicates(plan, generate, statistic)
    assert np.all(np.diff(results[1]) >= 0)
    assert np.array_equal(results[1], results[2])
    assert np.array_equal(results[1], results[5])
    draws = [numpy_replicate_rng(123, r).standard_normal(5000) for r in range(40)]
    assert np.array_equal(results[1], np.sort([x[0] * x[-1] for x in draws]))


@pytest.mark.parametrize("chunk", [6, 7, 13])
def test_chunked_seed_words_give_the_same_replicates(monkeypatch, chunk):
    # blocks of 6 replicates (as above) stop at each chunk's end, a block
    # edge or not, and each chunk's words are those of its replicate indices
    monkeypatch.setattr(resample, "_SEED_CHUNK", chunk)
    draws = [numpy_replicate_rng(5, r).standard_normal(5000) for r in range(40)]
    expected = np.sort([x[0] * x[-1] for x in draws])
    for workers in (1, 2):
        calls = []

        def generate(rng, out=None):
            calls.append(1)
            return rng.standard_normal(5000, out=out)

        plan = BootstrapPlan(R=40, seed=5, workers=workers)
        got = run_replicates(plan, generate, lambda S: S[:, 0] * S[:, -1])
        assert np.array_equal(got, expected)
        assert len(calls) == 40  # no replicate is drawn twice


def test_seed_words_are_hashed_a_chunk_at_a_time():
    # hashing holds about 148 B per replicate, over 18 MiB for all 2**17 at
    # once; a chunk of 2**16 holds about 9 MiB, next to the first chunk's
    # words (2 MiB) and the 1 MiB of values
    plan = BootstrapPlan(R=2**17, seed=0, workers=1)
    tracemalloc.start()
    try:
        values = run_replicates(plan, lambda rng, out=None: _into(np.zeros(1), out),
                                lambda S: S[:, 0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(values) == 2**17
    assert peak < 15 * 2**20


def test_blocks_under_thread_contention():
    # blocks of 2 replicates on more threads than cores, switching threads
    # often: a lost or misplaced block write would change the output
    def generate(rng, out=None):
        return rng.standard_normal(2**14, out=out)

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
    draws = [numpy_replicate_rng(5, r).standard_normal(2**14)[0] for r in range(101)]
    assert np.array_equal(out["v"], np.sort(draws))


def test_retry_uses_fresh_stream():
    # replicate 0's base-stream data always fails; its block is scored one
    # replicate at a time, and only replicate 0 is retried, on the
    # (seed, r, 1) stream
    base0 = numpy_replicate_rng(9, 0).uniform(size=3)
    generated = []

    def generate(rng, out=None):
        generated.append(rng.uniform(size=3))
        return _into(generated[-1], out)

    def statistic(S):
        if any(np.array_equal(x, base0) for x in S):
            raise FloatingPointError("injected")
        return S.sum(axis=1)

    plan = BootstrapPlan(R=5, seed=9, workers=1)
    out = run_replicates(plan, generate, statistic)
    assert len(generated) == plan.R + 1  # once per replicate, once per retry
    retry_value = numpy_replicate_rng(9, 0, retry=1).uniform(size=3).sum()
    others = [numpy_replicate_rng(9, r).uniform(size=3).sum() for r in range(1, 5)]
    assert np.array_equal(out, np.sort([retry_value, *others]))


def test_double_failure_is_fatal():
    def generate(rng, out=None):
        return _into(rng.uniform(size=2), out)

    def statistic(S):
        raise FloatingPointError("always")

    plan = BootstrapPlan(R=3, seed=1, workers=1)
    with pytest.raises(NumericError, match="replicate 0"):
        run_replicates(plan, generate, statistic)


def test_programming_error_is_not_retried():
    raised = []

    def generate(rng, out=None):
        return _into(rng.uniform(size=2), out)

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
        run_replicates(plan, lambda rng, out=None: _into(rng.uniform(size=3), out), counted)
    assert calls == [4]  # refused without scoring alone or retrying


def test_replicate_shapes_must_match():
    # a replicate of another shape than replicate 0's cannot be its slot
    def generate(rng, out=None):
        return rng.uniform(size=3 if rng.uniform() < 0.5 else 1)

    plan = BootstrapPlan(R=50, seed=0, workers=1)
    with pytest.raises(TypeError, match=r"replicate [1-9]\d* was not drawn into its out "
                                        r"array of shape \([13],\)"):
        run_replicates(plan, generate, lambda S: S.sum(axis=1))


def test_replicates_must_be_drawn_into_their_slot():
    # a draw of the right shape that ignores out would leave its slot unwritten
    scored = []

    def generate(rng, out=None):
        return rng.uniform(size=3)

    plan = BootstrapPlan(R=5, seed=0, workers=1)
    with pytest.raises(TypeError, match=r"replicate 1 was not drawn into its out array "
                                        r"of shape \(3,\)"):
        run_replicates(plan, generate, lambda S: scored.append(S) or S.sum(axis=1))
    assert scored == []  # refused before the block is scored


def test_replicate_zero_and_retries_are_drawn_without_out():
    outs = []

    def generate(rng, out=None):
        outs.append(out)
        return rng.standard_normal(3, out=out)

    def statistic(S):
        if len(S) > 1:
            raise FloatingPointError("score each replicate alone")
        if S[0, 0] == first[0]:
            raise FloatingPointError("retry replicate 0")
        return S[:, 0]

    first = numpy_replicate_rng(4, 0).standard_normal(3)
    plan = BootstrapPlan(R=4, seed=4, workers=1)
    run_replicates(plan, generate, statistic)
    assert outs[0] is None and outs[-1] is None  # replicate 0, then its retry
    assert len(outs) == 5 and all(out.shape == (3,) for out in outs[1:4])
