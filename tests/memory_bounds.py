"""Peak resident memory of ``ellipsym test`` on a large CSV file.

Not collected by pytest.  Run it from the root of a checkout:

    PYTHONPATH=src python tests/memory_bounds.py

It writes a 300,000 x 10 sample with ``ellipsym simulate`` to a temporary
directory, then runs ``ellipsym test --method schott`` and ``--method mpq``
on it, each in a fresh process.  Each run's peak resident set must stay
below that of a process that only imports ``ellipsym.cli``, plus the file's
size, plus four times the size of the (n, d) sample: ingest holds the file's
bytes and two copies of the sample, and a test a few copies of it.  An
(n, d^2) table of fourth moments alone takes ten copies at d = 10.
"""

import os
import subprocess
import sys
import tempfile

N, D = 300_000, 10
COPIES = 4
CLI = [sys.executable, "-m", "ellipsym.cli"]


def _peak_mb(argv) -> float:
    """Peak resident set, in MB, of a child process running ``argv``."""
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}")
    return usage.ru_maxrss / 1024.0  # kB on Linux


def main() -> int:
    X_mb = N * D * 8 / 2**20
    base = _peak_mb([sys.executable, "-c", "import ellipsym.cli"])
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sample.csv")
        subprocess.run([*CLI, "simulate", "--dist", "skewnormal", "--n", str(N),
                        "--d", str(D), "--seed", "1", "--out", path], check=True)
        file_mb = os.path.getsize(path) / 2**20
        bound = base + file_mb + COPIES * X_mb
        for method in ("schott", "mpq"):
            peak = _peak_mb([*CLI, "test", "--method", method, "--input", path])
            ok = peak < bound
            failed |= not ok
            print(f"{method}: peak {peak:.1f} MB, bound {bound:.1f} MB (import "
                  f"{base:.1f} + file {file_mb:.1f} + {COPIES} x {X_mb:.1f}) "
                  f"{'ok' if ok else 'EXCEEDED'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
