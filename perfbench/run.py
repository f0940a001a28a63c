"""ellipsym benchmark: three closed-loop workloads, each driven by one caller.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli_csv --seed 0 --seconds 30 --trace 0

or, for the end-to-end metrics of every workload:

    for w in cli_csv rolling bootstrap; do python3 perfbench/run.py --workload $w; done

Workloads (inputs come from ``--seed`` through ``inputs.py``):

  cli_csv    fresh ``ellipsym test`` processes on one 50,000 x 5 skew-normal
             CSV, cycling --method schott, mpq, pg, so (text output on even
             cycles, json on odd ones).  Pays import, CSV ingest and one
             large-n pass of each kernel; resampling is idle.
  rolling    fresh ``ellipsym rolling --window 120 --step 40`` processes on a
             600 x 2 CSV (elliptical, then skewed), alternating --method so
             and --method hp --c 3 (Monte Carlo calibrated).  The only
             workload with repeated (n, d, c) inputs.
  bootstrap  library calls in this process on fresh in-memory samples,
             alternating ks_test(n=1000, d=4, R=200) and
             huffer_park_test(n=2000, d=3, c=4, R=200).  No import, ingest
             or Tyler fit per call; the replicate engine does the work.

Calls run one after another at the program's defaults (no --jobs,
workers=ALL_BUT_ONE).  A run measures whole cycles of call kinds until
``--seconds`` have passed, so every kind is measured equally often.

End-to-end metrics (``--trace 0``):

  calls_per_s      completed calls per second of wall time
  call_p50_ms      median latency of each call kind, averaged over kinds
  call_tail_ms     call_p50_ms times the tail of the latencies divided by
                   their kind's median, taken at the highest percentile that
                   leaves at least ten calls beyond it (never below the
                   median); the summary line names that percentile and the
                   call count
  cpu_ms_per_call  user plus system CPU per call, child processes included
  peak_rss_mb      largest resident set of any process doing the work
  setup_s          median over three fresh interpreters of the time up to
                   the end of the first call (input generation excluded)

``failed_frac`` (failed over attempted calls) is printed in the summary;
it is not a result metric because it is zero on a healthy run.

Per-layer metrics (``--trace 1``): half the time runs untraced, half with
the timing wrappers of ``tracer.py``; see ``layer_metrics``.  Times are
inclusive of nested layers except the ``self_ms`` of each test.

stdout ends with a summary, one JSON line recording the environment, and
the result JSON as the last line.  The run fails (exit 2, no result) when
the checkout has no ``src/ellipsym``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD = str(BENCH / "child.py")

#: the ``ellipsym`` console script, run from source
ENTRY = "import sys; from ellipsym.cli import main; sys.exit(main())"

CALL_TIMEOUT_S = 60
SETUP_REPEATS = 3
METHODS = ("ks", "mpq", "schott", "hp", "pg", "so")


def kind_medians(records) -> dict:
    by_kind: dict = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r["latency_s"])
    return {k: statistics.median(v) for k, v in by_kind.items()}


def p50_s(records) -> float:
    return statistics.fmean(kind_medians(records).values())


def tail(records):
    """(tail latency in s, percentile, calls) as described for call_tail_ms."""
    medians = kind_medians(records)
    ratios = [r["latency_s"] / medians[r["kind"]] for r in records]
    q = max(0.5, 1.0 - 10.0 / len(ratios))
    return p50_s(records) * float(np.quantile(ratios, q)), 100.0 * q, len(ratios)


class Runner:
    """Runs the calls of one workload and keeps every attempted call."""

    def __init__(self, bench, seed: int):
        self.bench = bench
        self.seed = seed
        self.attempted: list = []
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")

    def _keep(self, record: dict) -> dict:
        self.attempted.append(record)
        return record

    def _child(self, args: list, timeout: float = CALL_TIMEOUT_S):
        return subprocess.run([sys.executable, *args], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=timeout)

    def cli_call(self, i: int, traced: bool = False) -> dict:
        argv = self.bench.argv(i)
        out = self.bench.workdir / f"trace-{i}.json"
        cmd = [CHILD, "cli", str(out), *argv] if traced else ["-c", ENTRY, *argv]
        record = {"index": i, "kind": self.bench.kind(i), "error": None}
        cpu0 = _cpu_children()
        t0 = time.perf_counter()
        try:
            proc = self._child(cmd)
        except subprocess.TimeoutExpired:
            record["error"] = f"call {i} timed out after {CALL_TIMEOUT_S} s"
            return self._keep(record)
        record["latency_s"] = time.perf_counter() - t0
        record["cpu_s"] = _cpu_children() - cpu0
        if proc.returncode != 0:
            record["error"] = f"call {i} exited {proc.returncode}: {proc.stderr[-500:]}"
        else:
            record["error"] = self.check(i, proc.stdout)
        if traced and record["error"] is None:
            data = json.loads(out.read_text())
            record["trace"], record["import_s"] = data["trace"], data["import_s"]
            record["error"] = self.self_check(record)
        return self._keep(record)

    def library_call(self, i: int) -> dict:
        try:
            record = workloads.library_call(self.seed, i)
        except Exception as exc:  # noqa: BLE001 - a failed call is counted, not fatal
            record = {"index": i, "kind": self.bench.kind(i),
                      "error": f"call {i}: {type(exc).__name__}: {exc}"}
            return self._keep(record)
        record["error"] = self.check(i, record)
        return self._keep(record)

    def check(self, i: int, output) -> str | None:
        try:
            return self.bench.check(i, output)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"call {i}: unreadable output ({type(exc).__name__}: {exc})"

    def self_check(self, record: dict):
        """Check that the trace saw every layer call the call must make."""
        seen = record["trace"]
        for key, want in self.bench.trace_expect(record["index"]).items():
            layer = seen["layers"].get(key)
            got = layer[0] if layer else seen["counts"].get(key, 0)
            if got != want:
                return f"trace self-check, call {record['index']}: {key} = {got}, expected {want}"
        return None

    def setup_s(self) -> float:
        """Fresh interpreter to the end of call 0, input generation excluded."""
        if self.bench.cli:
            record = self.cli_call(0)
            return record.get("latency_s", float("nan"))
        t0 = time.perf_counter()
        proc = self._child([CHILD, "setup", str(self.seed)])
        if proc.returncode != 0:
            self._keep({"index": 0, "kind": self.bench.kind(0),
                        "error": f"setup exited {proc.returncode}: {proc.stderr[-500:]}"})
            return float("nan")
        record = json.loads(proc.stdout.splitlines()[-1])
        record["error"] = self.check(0, record)
        self._keep(record)
        return record["end"] - t0 - record["gen_s"]

    def phase(self, start: int, seconds: float, traced: bool = False):
        """Whole cycles from call ``start``: (records, wall s, import times)."""
        cycle = len(self.bench.cycle)
        if self.bench.cli:
            records, wall = workloads.whole_cycles(
                lambda i: self.cli_call(i, traced), start, cycle, seconds)
            return records, wall, [r["import_s"] for r in records if "import_s" in r]
        if not traced:
            records, wall = workloads.whole_cycles(self.library_call, start, cycle, seconds)
            return records, wall, []
        out = self.bench.workdir / "trace-bootstrap.json"
        proc = self._child([CHILD, "bootstrap", str(self.seed), str(seconds), str(start),
                            str(out)], timeout=seconds + 4 * CALL_TIMEOUT_S)
        if proc.returncode != 0:
            self._keep({"index": start, "kind": self.bench.kind(start),
                        "error": f"traced run exited {proc.returncode}: {proc.stderr[-500:]}"})
            return [], float("nan"), []
        data = json.loads(out.read_text())
        for record in data["records"]:
            record["error"] = (record.get("error") or self.check(record["index"], record)
                               or self.self_check(record))
            self._keep(record)
        return data["records"], data["wall_s"], [data["import_s"]]


def _cpu_children() -> float:
    return workloads.cpu_seconds(resource.RUSAGE_CHILDREN)


def _peak_rss_mb(cli: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if not cli:
        kb = max(kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return kb / 1024.0


def _succeeded(records) -> list:
    ok = [r for r in records if r["error"] is None]
    if not ok:
        reason = records[0]["error"] if records else "no call was made"
        raise SystemExit(f"perfbench: no call succeeded ({reason})")
    return ok


def end_to_end(runner: Runner, records, wall: float, setups) -> dict:
    ok = _succeeded(records)
    tail_s, q, n = tail(ok)
    print(f"{runner.bench.name} call_tail_ms is at p{q:.1f} of {n} calls")
    setups = [s for s in setups if not math.isnan(s)]
    if not setups:
        raise SystemExit("perfbench: every set-up failed")
    return {
        "calls_per_s": (len(ok) / wall, "1/s"),
        "call_p50_ms": (1e3 * p50_s(ok), "ms"),
        "call_tail_ms": (1e3 * tail_s, "ms"),
        "cpu_ms_per_call": (1e3 * statistics.fmean(r["cpu_s"] for r in ok), "ms"),
        "peak_rss_mb": (_peak_rss_mb(runner.bench.cli), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def layer_metrics(total: dict, calls: int, processes: int, import_s, overhead: float):
    """Per-layer metrics from the merged trace of ``calls`` traced calls.

    ``_ms`` metrics are span time per workload call, except build_ms and
    import.ms, which are per fresh interpreter.  Counts are per workload
    call, except tyler_iters (per Tyler fit; one ``sym_inv_sqrt`` inside a
    Tyler span per iteration) and workers (the resolved worker count).
    Layers a workload never enters read 0.
    """
    layers, counts, pairs = total["layers"], total["counts"], total["pairs"]

    def spans(name):
        return layers.get(name, [0, 0.0, 0.0])[0]

    def secs(name):
        return layers.get(name, [0, 0.0, 0.0])[1]

    def ratio(num, den):
        return num / den if den else 0.0

    def ms(name):
        return (1e3 * secs(name) / calls, "ms/call")

    busy = secs("resample.generate") + secs("resample.statistic")
    ingest = secs("cli.read") + secs("cli.parse")
    out = {
        "import.ms": (1e3 * statistics.median(import_s), "ms"),
        "cli.read_ms": ms("cli.read"),
        "cli.parse_ms": ms("cli.parse"),
        "cli.rows_per_s": (ratio(counts.get("cli.rows", 0), ingest), "rows/s"),
        "estimators.validate_calls": (spans("estimators.validate") / calls, "count/call"),
        "estimators.validate_ms": ms("estimators.validate"),
        "estimators.cov_ms": ms("estimators.cov"),
        "estimators.tyler_ms": ms("estimators.tyler"),
        "estimators.tyler_iters": (ratio(pairs.get("linalg.root<estimators.tyler", 0),
                                         spans("estimators.tyler")), "count/fit"),
        "linalg.root_ms": ms("linalg.root"),
        "linalg.root_calls": (spans("linalg.root") / calls, "count/call"),
        "harmonics.build_ms": (1e3 * secs("harmonics.build") / processes, "ms/process"),
        "harmonics.eval_ms": ms("harmonics.eval"),
        "harmonics.eval_points": (counts.get("harmonics.eval_points", 0) / calls,
                                  "count/call"),
        "harmonics.eval_points_per_s": (ratio(counts.get("harmonics.eval_points", 0),
                                              secs("harmonics.eval")), "points/s"),
    }
    for method in METHODS:
        own = layers.get(f"hypothesis.{method}", [0, 0.0, 0.0])[2]
        out[f"hypothesis.{method}.self_ms"] = (1e3 * own / calls, "ms/call")
    replicates = counts.get("resample.replicates", 0)
    out.update({
        "resample.replicates": (replicates / calls, "count/call"),
        "resample.retries": ((spans("resample.generate") - replicates) / calls, "count/call"),
        "resample.workers": (counts.get("resample.workers", 0), "count"),
        "resample.generate_ms": ms("resample.generate"),
        "resample.statistic_ms": ms("resample.statistic"),
        "resample.busy_frac": (ratio(busy, counts.get("resample.capacity_s", 0.0)), "frac"),
        "distributions.nulllaw_ms": ms("distributions.nulllaw"),
        "distributions.pvalue_ms": ms("distributions.pvalue"),
        "distributions.pvalue_zero": (counts.get("distributions.pvalue_zero", 0) / calls,
                                      "count/call"),
        "trace.overhead_frac": (overhead, "frac"),
    })
    return out


def environment() -> dict:
    import scipy

    from ellipsym.resample import ALL_BUT_ONE, resolve_workers

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "all_but_one_workers": resolve_workers(ALL_BUT_ONE),
    }


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it is not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                return int(fn())
    return None


def measure(runner: Runner, seconds: float, trace: bool):
    if not trace:
        setups = [runner.setup_s() for _ in range(SETUP_REPEATS)]
        start = _warm_up(runner)
        records, wall, _ = runner.phase(start, seconds)
        return end_to_end(runner, records, wall, setups)

    runner.setup_s()
    start = _warm_up(runner)
    plain, _, _ = runner.phase(start, seconds / 2)
    start += len(plain)
    traced, _, import_s = runner.phase(start, seconds / 2, traced=True)
    ok = _succeeded(traced)
    total = tracer.empty()
    for record in ok:
        tracer.merge(total, record["trace"])
    overhead = p50_s(ok) / p50_s(_succeeded(plain)) - 1.0
    processes = len(ok) if runner.bench.cli else 1
    return layer_metrics(total, len(ok), processes, import_s, overhead)


def _warm_up(runner: Runner) -> int:
    """In-process workloads run one untimed cycle first; returns the next call."""
    if runner.bench.cli:
        return 0
    for i in range(len(runner.bench.cycle)):
        runner.library_call(i)
    return len(runner.bench.cycle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ellipsym" / "__init__.py").is_file():
        print(f"perfbench: no ellipsym sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ellipsym

    if not Path(ellipsym.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: ellipsym imported from {ellipsym.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        bench = workloads.WORKLOADS[args.workload](args.seed, workdir)
        bench.prepare()
        runner = Runner(bench, args.seed)
        metrics = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    attempted = len(runner.attempted)
    errors = [r["error"] for r in runner.attempted if r["error"] is not None]
    for error in errors[:5]:
        print(f"perfbench: {error}", file=sys.stderr)
    print(f"{args.workload} failed_frac = {len(errors) / attempted:.6g} "
          f"({len(errors)} of {attempted} calls)")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({"environment": environment()}))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
