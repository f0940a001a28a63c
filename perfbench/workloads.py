"""The three workloads: what one call is, and how its output is checked.

A workload is a fixed cycle of call kinds.  Call ``i`` is of kind
``cycle[i % len(cycle)]``; its inputs depend only on the workload seed and,
for the library workload, on ``i``.

Every output gets a structural check: a finite statistic, a p-value in
[0, 1], the frozen five-line text block of ``ellipsym test`` and one
``ellipsym rolling`` row per window.  For the seed recorded in
``expected.json`` each output is also compared with the values recorded at
the commit that introduced the benchmark: statistics to a relative 1e-9,
resampled p-values, text blocks and rolling rows exactly.
"""

from __future__ import annotations

import csv
import json
import math
import re
import resource
import time
from pathlib import Path

import inputs

BENCH = Path(__file__).resolve().parent
EXPECTED_PATH = BENCH / "expected.json"

#: relative tolerance on statistics compared with the recorded values
STAT_RTOL = 1e-9

#: titles of the frozen text block, by method
LABELS = {
    "ks": "Test for elliptical symmetry by Koltchinskii and Sakhanenko",
    "mpq": "Test for elliptical symmetry by Manzotti et al.",
    "schott": "Schott test for elliptical symmetry",
    "hp": "Test for elliptical symmetry by Huffer and Park",
    "pg": "Pseudo-Gaussian test for elliptical symmetry",
    "so": "SkewOptimal test for elliptical symmetry",
}
ALTERNATIVE = "alternative hypothesis: the distribution is not elliptically symmetric"
DATA_NAME = "sample"

ROLL_WINDOW, ROLL_STEP, ROLL_HP_C = 120, 40, 3
ROLL_WINDOWS = (2 * inputs.ROLL_HALF - ROLL_WINDOW) // ROLL_STEP + 1
HP_CALIBRATION_SIMS = 2000
BOOT_R, BOOT_HP_C = 200, 4


def load_expected(seed: int):
    """Recorded outputs for ``seed``, or None if it is not the recorded seed."""
    if not EXPECTED_PATH.is_file():
        return None
    expected = json.loads(EXPECTED_PATH.read_text())
    return expected if expected["seed"] == seed else None


def cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _check_pair(statistic, p_value):
    if not math.isfinite(statistic):
        return f"statistic {statistic!r} is not finite"
    if not 0.0 <= p_value <= 1.0:
        return f"p-value {p_value!r} is outside [0, 1]"
    return None


def _close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * abs(ref)


def _check_analytic(statistic, p_value, ref):
    """Compare with a recorded chi-squared result.

    A chi-squared tail at x changes by about x/2 times the relative change
    of x, so the p-value tolerance scales with the statistic.
    """
    if not _close(statistic, ref["statistic"], STAT_RTOL):
        return f"statistic {statistic!r} != recorded {ref['statistic']!r}"
    if not _close(p_value, ref["p_value"], STAT_RTOL * max(1.0, statistic)):
        return f"p-value {p_value!r} != recorded {ref['p_value']!r}"
    return None


class Workload:
    """A cycle of call kinds on inputs drawn from one seed."""

    name = ""
    cycle: tuple = ()
    cli = True  # calls are fresh ``ellipsym`` processes

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.path = workdir / f"{DATA_NAME}.csv"
        self.expected = load_expected(seed)

    def kind(self, i: int) -> str:
        return self.cycle[i % len(self.cycle)]


class CliCsv(Workload):
    """Fresh ``ellipsym test`` processes on one large CSV."""

    name = "cli_csv"
    cycle = ("schott", "mpq", "pg", "so")

    def prepare(self) -> None:
        inputs.write_csv(self.path, inputs.cli_sample(self.seed))

    def _format(self, i: int) -> str:
        # text on even cycles, json (full-precision statistic) on odd ones
        return ("text", "json")[(i // len(self.cycle)) % 2]

    def argv(self, i: int) -> list:
        return ["test", "--method", self.kind(i), "--input", str(self.path),
                "--format", self._format(i)]

    def check(self, i: int, stdout: str):
        method, fmt = self.kind(i), self._format(i)
        ref = self.expected and self.expected[self.name][f"{method}/{fmt}"]
        if fmt == "json":
            out = json.loads(stdout)
            if out.get("method") != method:
                return f"json result is for method {out.get('method')!r}"
            stat, p = out["statistic"], out["p_value"]
            return _check_pair(stat, p) or (ref and _check_analytic(stat, p, ref))
        lines = stdout.split("\n")
        frozen = ["\t" + LABELS[method], "", f"data:  {DATA_NAME}", None, ALTERNATIVE, ""]
        if len(lines) != len(frozen) or any(
            want is not None and line != want for line, want in zip(lines, frozen)
        ):
            return f"text block is not the frozen five-line layout: {stdout!r}"
        match = re.fullmatch(r"statistic = (\S+), p-value = (\S+)", lines[3])
        if match is None:
            return f"malformed statistic line {lines[3]!r}"
        error = _check_pair(float(match[1]), float(match[2]))
        if error is None and ref is not None and stdout != ref:
            return f"text block {stdout!r} != recorded {ref!r}"
        return error

    def trace_expect(self, i: int) -> dict:
        method = self.kind(i)
        return {f"hypothesis.{method}": 1,
                "estimators.tyler": int(method in ("pg", "so")),
                "resample.runs": 0}


class Rolling(Workload):
    """Fresh ``ellipsym rolling`` processes: many small windows of one shape."""

    name = "rolling"
    cycle = ("so", "hp")

    def prepare(self) -> None:
        inputs.write_csv(self.path, inputs.rolling_sample(self.seed))

    def argv(self, i: int) -> list:
        extra = ["--c", str(ROLL_HP_C)] if self.kind(i) == "hp" else []
        return ["rolling", "--method", self.kind(i), *extra, "--input", str(self.path),
                "--window", str(ROLL_WINDOW), "--step", str(ROLL_STEP)]

    def check(self, i: int, stdout: str):
        rows = list(csv.reader(stdout.splitlines()))
        if not rows or rows[0] != ["start", "end", "label", "statistic", "p_value"]:
            return f"rolling output lacks its header: {stdout[:200]!r}"
        if len(rows) - 1 != ROLL_WINDOWS:
            return f"{len(rows) - 1} rolling rows, expected {ROLL_WINDOWS}"
        for k, row in enumerate(rows[1:]):
            start = 1 + k * ROLL_STEP
            if row[:3] != [str(start), str(start + ROLL_WINDOW - 1), ""]:
                return f"rolling row {k} is {row!r}"
            error = _check_pair(float(row[3]), float(row[4]))
            if error:
                return f"rolling row {k}: {error}"
        ref = self.expected and self.expected[self.name][self.kind(i)]
        if ref is not None and stdout.splitlines() != ref:
            return f"rolling rows differ from the recorded rows: {stdout!r}"
        return None

    def trace_expect(self, i: int) -> dict:
        hp = self.kind(i) == "hp"
        return {f"hypothesis.{self.kind(i)}": ROLL_WINDOWS,
                "estimators.tyler": 0 if hp else ROLL_WINDOWS,
                "resample.runs": ROLL_WINDOWS if hp else 0,
                "resample.replicates": ROLL_WINDOWS * HP_CALIBRATION_SIMS if hp else 0}


class Bootstrap(Workload):
    """In-process library calls on fresh in-memory samples."""

    name = "bootstrap"
    cycle = ("ks", "hp")
    cli = False

    def prepare(self) -> None:
        pass

    def check(self, i: int, record: dict):
        stat, p = record["statistic"], record["p_value"]
        error = _check_pair(stat, p)
        refs = self.expected and self.expected[self.name]
        if error or not refs or i >= len(refs):
            return error
        ref = refs[i]
        if not _close(stat, ref["statistic"], STAT_RTOL):
            return f"call {i}: statistic {stat!r} != recorded {ref['statistic']!r}"
        if p != ref["p_value"]:
            return f"call {i}: p-value {p!r} != recorded {ref['p_value']!r}"
        return None

    def trace_expect(self, i: int) -> dict:
        return {f"hypothesis.{self.kind(i)}": 1, "estimators.tyler": 0,
                "resample.runs": 1, "resample.replicates": BOOT_R}


WORKLOADS = {w.name: w for w in (CliCsv, Rolling, Bootstrap)}


def library_call(seed: int, i: int) -> dict:
    """Run bootstrap call ``i``; the sample is drawn outside the timed span."""
    from ellipsym import hypothesis  # looked up per call so traced wrappers apply

    kind = Bootstrap.cycle[i % len(Bootstrap.cycle)]
    t0 = time.perf_counter()
    X = inputs.bootstrap_sample(seed, i, kind)
    gen_s = time.perf_counter() - t0
    cpu0 = cpu_seconds(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    if kind == "ks":
        result = hypothesis.ks_test(X, R=BOOT_R, seed=i)
    else:
        result = hypothesis.huffer_park_test(X, BOOT_HP_C, R=BOOT_R, seed=i)
    return {"index": i, "kind": kind,
            "latency_s": time.perf_counter() - t0,
            "cpu_s": cpu_seconds(resource.RUSAGE_SELF) - cpu0,
            "gen_s": gen_s,
            "statistic": result.statistic, "p_value": result.p_value}


def whole_cycles(call, start: int, cycle_len: int, seconds: float):
    """Call ``call(i)`` from ``start`` in whole cycles until ``seconds`` pass.

    Returns the call records and the wall time from the first call's start
    to the last call's end.
    """
    records = []
    i = start
    t0 = time.perf_counter()
    while True:
        for _ in range(cycle_len):
            records.append(call(i))
            i += 1
        if time.perf_counter() - t0 >= seconds:
            return records, time.perf_counter() - t0
