"""Replicate scheduling for the bootstrap- and Monte-Carlo-calibrated tests.

Each replicate r gets its own Generator, with exactly the stream of
default_rng(SeedSequence((seed, r))), so the reference sample never depends
on the worker count or the completion order.  SeedSequence's hash runs once
per chunk of up to 65,536 replicate indices, and numpy seeds each PCG64 from
its row of words (so bit_generator.seed_seq is not a SeedSequence).
Replicates are drawn into blocks of consecutive indices, within one chunk,
whose size depends only on the replicate shape; the statistic reduces each
block in one call, and the thread pool maps over a chunk's blocks.  If a
block fails numerically (an EllipsymError such as a singular resample, an
ArithmeticError or a LinAlgError), its replicates are scored one at a time
from the same draws; a replicate that fails alone is retried once on the
stream of SeedSequence((seed, r, 1)), and a second failure is a hard error
naming the replicate.  Any other exception is a programming error and
propagates as is.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .exceptions import EllipsymError, NumericError, UsageError, _integer

#: sentinel for "use every core but one" (at least one).
ALL_BUT_ONE = -1

#: array cells per block: enough replicates of a small sample to amortize
#: per-call overhead, while each block buffer stays at 256 KiB
BLOCK_CELLS = 2**15

#: replicates whose seed words are hashed in one call; hashing takes about
#: 148 bytes per replicate, so a chunk bounds it at about 10 MB for any R
_SEED_CHUNK = 2**16

_NUMERIC_FAILURES = (EllipsymError, ArithmeticError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class BootstrapPlan:
    """How many replicates to run, from what seed, on how many threads."""

    R: int
    seed: int
    workers: int = ALL_BUT_ONE

    def __post_init__(self):
        for name, low in (("R", None), ("seed", 0), ("workers", None)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), low))
        # the seed hash takes each replicate index as one 32-bit word
        if not 1 <= self.R <= 2**32:
            raise UsageError(f"R (replicate count) must be in [1, 2**32], got {self.R}")
        resolve_workers(self.workers)


def resolve_workers(workers: int) -> int:
    """Translate the worker setting into a concrete thread count."""
    workers = _integer("workers", workers)
    if workers == ALL_BUT_ONE:
        return max(1, (os.cpu_count() or 1) - 1)
    if workers < 1:
        raise UsageError(f"workers must be >= 1 or {ALL_BUT_ONE}, got {workers}")
    return workers


def _replicate_words(seed: int, r, retry: int = 0) -> NDArray[np.uint64]:
    """SeedSequence(key).generate_state(4, np.uint64), key = (seed, r[, retry > 0]).

    seed, r and retry are >= 0, as the callers check; r is an int (one row) or
    a uint32 array of m indices (m rows, hashed at once): numpy's steps and
    constants, in uint32 arithmetic that wraps as its C code does."""
    def split(n):  # little-endian 32-bit words, [0] for 0
        return [n >> s & 0xFFFFFFFF for s in range(0, max(n.bit_length(), 1), 32)]

    key = split(seed) + ([r] if isinstance(r, np.ndarray) else split(int(r)))
    key += split(retry) if retry else []
    # numpy hashes 0 into pool words (of 4) that the key does not fill
    key = [np.atleast_1d(np.asarray(w, dtype=np.uint32)) for w in key + [0] * (4 - len(key))]

    def hashmix(value, chain):
        const = chain[0]
        chain[0] = const * chain[1] & 0xFFFFFFFF
        value = (value ^ const) * chain[0]
        return value ^ value >> 16

    def mix(dst, value):
        out = pool[dst] * 0xCA01F9DD - hashmix(value, chain) * 0x4973F715
        pool[dst] = out ^ out >> 16

    chain = [0x43B0D7E5, 0x931E8875]
    pool = [hashmix(w, chain) for w in key[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        mix(dst, pool[src])
    for word, dst in itertools.product(key[4:], range(4)):
        mix(dst, word)
    chain = [0x8B51F9DD, 0x58F38DED]
    state = [hashmix(pool[i % 4], chain).astype(np.uint64) for i in range(8)]
    return np.stack([state[i] | state[i + 1] << 32 for i in range(0, 8, 2)], axis=-1)


@functools.cache
def _seeded() -> Callable[[NDArray[np.uint64]], np.random.Generator]:
    """Maps one row of _replicate_words to its Generator; numpy seeds PCG64
    from the row.  Built on first use: importing ellipsym skips numpy.random."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class PresetSeed(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for exactly 4 uint64 words

    return lambda words: Generator(PCG64(PresetSeed(words)))


def replicate_rng(seed: int, r: int, retry: int = 0) -> np.random.Generator:
    """The Generator assigned to replicate r (retry > 0 reseeds it): the stream
    of default_rng(SeedSequence((seed, r))), or of (seed, r, retry)."""
    key = _integer("seed", seed, 0), _integer("r", r, 0), _integer("retry", retry, 0)
    return _seeded()(_replicate_words(*key)[0])


def run_replicates(
    plan: BootstrapPlan,
    generate: Callable[..., NDArray[np.float64]],
    statistic: Callable[[NDArray[np.float64]], ArrayLike],
) -> NDArray[np.float64]:
    """Simulate plan.R replicates, score them with statistic, and sort.

    generate(rng, out=None) draws one synthetic dataset from the replicate's
    Generator, as numpy's samplers do: replicate 0 and the retries are drawn
    with out=None, and replicate 0's draw fixes the shape; every other
    replicate is drawn into its slot of the block, out=slot, and generate
    must return that same slot, else it is a TypeError.  statistic maps a
    stack of k draws, shape (k, *shape), to k values, each depending on its
    own draw only; any other number of values is a TypeError.  Results are
    placed by replicate index before sorting, so the output is identical for
    any worker count.
    """
    words = _replicate_words(plan.seed, np.arange(min(plan.R, _SEED_CHUNK), dtype=np.uint32))
    seeded = _seeded()
    first = np.asarray(generate(seeded(words[0])), dtype=float)
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
        # a block ends at its chunk's end: words holds that chunk's rows
        S = np.empty((min(size, plan.R - lo, _SEED_CHUNK - lo % _SEED_CHUNK), *first.shape))
        for i in range(len(S)):
            r, slot = lo + i, S[i, ...]  # a view, also of a 0-d replicate
            if r == 0:
                slot[...] = first
            elif generate(seeded(words[r % _SEED_CHUNK]), out=slot) is not slot:
                raise TypeError(f"replicate {r} was not drawn into its out array "
                                f"of shape {first.shape}")
        try:
            values[lo : lo + len(S)] = scored(S)
        except _NUMERIC_FAILURES:
            for i, x in enumerate(S):
                values[lo + i] = alone(lo + i, x)

    def run(map_blocks) -> None:
        nonlocal words
        for start in range(0, plan.R, _SEED_CHUNK):
            stop = min(start + _SEED_CHUNK, plan.R)
            if start:
                words = _replicate_words(plan.seed, np.arange(start, stop, dtype=np.uint32))
            # materialize to propagate the first worker exception
            list(map_blocks(block, range(start, stop, size)))

    n_workers = resolve_workers(plan.workers)
    if n_workers == 1:
        run(map)
    else:
        from concurrent.futures import ThreadPoolExecutor  # imported only for a pool
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            run(pool.map)

    values.sort()
    return values
