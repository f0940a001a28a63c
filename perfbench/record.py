"""Record the reference outputs that run.py compares against.

    python3 perfbench/record.py

Writes ``perfbench/expected.json`` for seed 0: the text block and the json
statistic and p-value of every ``cli_csv`` call kind, the rolling rows of
both ``rolling`` call kinds, and statistic and p-value of the first
LIBRARY_CALLS ``bootstrap`` calls (later calls get the structural check
only).  Every recorded output first passes the structural check.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads

SEED = 0
LIBRARY_CALLS = 256


def cli_outputs(cls, calls: int, workdir):
    bench = cls(SEED, workdir)
    bench.expected = None
    bench.prepare()
    runner = run.Runner(bench, SEED)
    for i in range(calls):
        proc = runner._child(["-c", run.ENTRY, *bench.argv(i)])
        error = f"exit {proc.returncode}: {proc.stderr}" if proc.returncode else None
        error = error or bench.check(i, proc.stdout)
        if error:
            raise SystemExit(f"{bench.name} call {i}: {error}")
        yield i, bench, proc.stdout


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    expected = {"seed": SEED, "cli_csv": {}, "rolling": {}, "bootstrap": []}
    workdir = run.WORK / f"record-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for i, bench, stdout in cli_outputs(workloads.CliCsv, 8, workdir):
            method, fmt = bench.kind(i), bench.argv(i)[-1]
            if fmt == "json":
                result = json.loads(stdout)
                stdout = {"statistic": result["statistic"], "p_value": result["p_value"]}
            expected["cli_csv"][f"{method}/{fmt}"] = stdout
        for i, bench, stdout in cli_outputs(workloads.Rolling, 2, workdir):
            expected["rolling"][bench.kind(i)] = stdout.splitlines()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bench = workloads.Bootstrap(SEED, workdir)
    bench.expected = None
    for i in range(LIBRARY_CALLS):
        record = workloads.library_call(SEED, i)
        error = bench.check(i, record)
        if error:
            raise SystemExit(f"bootstrap call {i}: {error}")
        expected["bootstrap"].append(
            {"statistic": record["statistic"], "p_value": record["p_value"]})
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
