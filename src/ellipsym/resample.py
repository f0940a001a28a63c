"""Replicate scheduling for the bootstrap- and Monte-Carlo-calibrated tests.

Each replicate r gets its own Generator seeded from SeedSequence((seed, r)),
so the reference sample never depends on the worker count or the completion
order.  Replicates are drawn into blocks of consecutive indices whose size
depends only on the replicate shape, the statistic reduces each block in one
call, and the thread pool maps over blocks.  If a block fails numerically (an
EllipsymError such as a singular resample, an ArithmeticError or a
LinAlgError), its replicates are scored one at a time from the same draws; a
replicate that fails alone is retried once with SeedSequence((seed, r, 1)),
and a second failure is a hard error naming the replicate.  Any other
exception is a programming error and propagates as is.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .exceptions import EllipsymError, NumericError, UsageError

#: sentinel for "use every core but one" (at least one).
ALL_BUT_ONE = -1

#: array cells per block: enough replicates of a small sample to amortize
#: per-call overhead, while each block buffer stays at 256 KiB
BLOCK_CELLS = 2**15

_NUMERIC_FAILURES = (EllipsymError, ArithmeticError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class BootstrapPlan:
    """How many replicates to run, from what seed, on how many threads."""

    R: int
    seed: int
    workers: int = ALL_BUT_ONE

    def __post_init__(self):
        if self.R < 1:
            raise UsageError(f"replicate count must be >= 1, got {self.R}")
        if self.workers != ALL_BUT_ONE and self.workers < 1:
            raise UsageError(
                f"workers must be >= 1 or {ALL_BUT_ONE} (all but one core), "
                f"got {self.workers}"
            )
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")


def resolve_workers(workers: int) -> int:
    """Translate the worker setting into a concrete thread count."""
    if workers == ALL_BUT_ONE:
        return max(1, (os.cpu_count() or 1) - 1)
    if workers < 1:
        raise UsageError(f"workers must be >= 1 or {ALL_BUT_ONE}, got {workers}")
    return workers


def replicate_rng(seed: int, r: int, retry: int = 0) -> np.random.Generator:
    """The Generator assigned to replicate r (retry > 0 reseeds it)."""
    key = (seed, r) if retry == 0 else (seed, r, retry)
    return np.random.default_rng(np.random.SeedSequence(key))


def run_replicates(
    plan: BootstrapPlan,
    generate: Callable[[np.random.Generator], NDArray[np.float64]],
    statistic: Callable[[NDArray[np.float64]], ArrayLike],
) -> NDArray[np.float64]:
    """Simulate plan.R replicates, score them with statistic, and sort.

    generate draws one synthetic dataset from the replicate's Generator;
    every draw must have the first one's shape.  statistic maps a stack of k
    draws, shape (k, *shape), to k values, each depending on its own draw
    only; any other number of values is a TypeError.  Results are placed by
    replicate index before sorting, so the output is identical for any
    worker count.
    """
    first = np.asarray(generate(replicate_rng(plan.seed, 0)), dtype=float)
    size = max(1, BLOCK_CELLS // max(1, first.size))
    values = np.empty(plan.R, dtype=float)

    def scored(S) -> NDArray[np.float64]:
        out = np.asarray(statistic(S), dtype=float)
        if out.shape != (len(S),):
            raise TypeError(f"statistic gave shape {out.shape} for {len(S)} replicates")
        return out

    def alone(r: int, x) -> float:
        for retry in (0, 1):
            try:
                return scored(x[None])[0]
            except _NUMERIC_FAILURES as exc:
                if retry == 1:
                    raise NumericError(f"replicate {r} failed twice: {exc}") from exc
            x = np.asarray(generate(replicate_rng(plan.seed, r, 1)), dtype=float)

    def block(lo: int) -> None:
        S = np.empty((min(size, plan.R - lo), *first.shape))
        for i in range(len(S)):
            r = lo + i
            x = first if r == 0 else generate(replicate_rng(plan.seed, r))
            if np.shape(x) != first.shape:
                raise TypeError(f"replicate {r} has shape {np.shape(x)}, not {first.shape}")
            S[i] = x
        try:
            values[lo : lo + len(S)] = scored(S)
        except _NUMERIC_FAILURES:
            for i, x in enumerate(S):
                values[lo + i] = alone(lo + i, x)

    starts = range(0, plan.R, size)
    n_workers = resolve_workers(plan.workers)
    if n_workers == 1:
        for lo in starts:
            block(lo)
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            # materialize to propagate the first worker exception
            list(pool.map(block, starts))

    values.sort()
    return values
