"""Child-process entry points of the benchmark (started by run.py).

    child.py cli OUT ARGV...               one traced ``ellipsym`` CLI call
    child.py setup SEED                    a fresh interpreter up to the end
                                           of bootstrap call 0
    child.py bootstrap SEED SECONDS START OUT
                                           traced bootstrap calls from START,
                                           in whole cycles, for SECONDS

The package is found through PYTHONPATH, which run.py points at the
checkout's ``src``.  Traced modes write their recording as JSON to OUT.
"""

from __future__ import annotations

import json
import sys
import time


def _import_package() -> float:
    t0 = time.perf_counter()
    import ellipsym.cli  # noqa: F401 - the package import is what is timed

    return time.perf_counter() - t0


def traced_cli(out: str, argv: list) -> int:
    import tracer

    import_s = _import_package()
    trace = tracer.Tracer()
    trace.install()
    import ellipsym.cli

    code = ellipsym.cli.main(argv)
    sys.stdout.flush()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "trace": trace.take()}, fh)
    return code


def setup(seed: int) -> int:
    _import_package()
    import workloads

    record = workloads.library_call(seed, 0)
    record["end"] = time.perf_counter()
    print(json.dumps(record))
    return 0


def traced_bootstrap(seed: int, seconds: float, start: int, out: str) -> int:
    import tracer
    import workloads

    import_s = _import_package()
    trace = tracer.Tracer()
    trace.install()

    def call(i):
        try:
            record = workloads.library_call(seed, i)
        except Exception as exc:  # noqa: BLE001 - reported as a failed call
            record = {"index": i, "kind": workloads.Bootstrap.cycle[i % 2],
                      "error": f"{type(exc).__name__}: {exc}"}
        record["trace"] = trace.take()
        return record

    records, wall = workloads.whole_cycles(call, start, len(workloads.Bootstrap.cycle),
                                           seconds)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "records": records, "wall_s": wall}, fh)
    return 0


def main(argv: list) -> int:
    mode = argv[0]
    if mode == "cli":
        return traced_cli(argv[1], argv[2:])
    if mode == "setup":
        return setup(int(argv[1]))
    if mode == "bootstrap":
        return traced_bootstrap(int(argv[1]), float(argv[2]), int(argv[3]), argv[4])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
