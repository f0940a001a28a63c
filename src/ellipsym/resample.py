"""Replicate scheduling for the bootstrap- and Monte-Carlo-calibrated tests.

Each replicate r gets its own Generator seeded from SeedSequence((seed, r)),
so the reference sample never depends on the worker count or the completion
order.  A replicate whose statistic fails numerically (an EllipsymError such
as a singular resample, an ArithmeticError or a LinAlgError) is retried once
with SeedSequence((seed, r, 1)); a second failure is a hard error naming the
replicate.  Any other exception is a programming error and propagates as is.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .exceptions import EllipsymError, NumericError, UsageError

#: sentinel for "use every core but one" (at least one).
ALL_BUT_ONE = -1


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
    statistic: Callable[[NDArray[np.float64]], float],
) -> NDArray[np.float64]:
    """Simulate plan.R values of statistic(generate(rng)) and sort them.

    generate draws one synthetic dataset from the replicate's Generator;
    statistic reduces it to a scalar.  Results are placed by replicate
    index before sorting, so the output is identical for any worker count.
    """

    values = np.empty(plan.R, dtype=float)

    def one(r: int) -> None:
        for retry in (0, 1):
            rng = replicate_rng(plan.seed, r, retry)
            try:
                values[r] = float(statistic(generate(rng)))
                return
            except (EllipsymError, ArithmeticError, np.linalg.LinAlgError) as exc:
                if retry == 1:
                    raise NumericError(
                        f"replicate {r} failed twice: {exc}"
                    ) from exc

    n_workers = resolve_workers(plan.workers)
    if n_workers == 1:
        for r in range(plan.R):
            one(r)
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            # materialize to propagate the first worker exception
            list(pool.map(one, range(plan.R)))

    values.sort()
    return values
