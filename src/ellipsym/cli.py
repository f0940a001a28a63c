"""Command-line front end: CSV in, test reports out.

Three subcommands:

``ellipsym test``      run one test on a CSV file, print a text block or JSON
``ellipsym rolling``   run one test on successive row windows, emit a CSV
``ellipsym simulate``  write a synthetic CSV sample for the other commands

Exit codes: 0 success, 1 computation failure, 2 usage error.  Errors and
each distinct library warning print as one ``ellipsym:`` line on stderr.

Importing this module before numpy, in any program, loads numpy's OpenBLAS
with one thread for the rest of that process (see the note at the top of
the imports), unless an OpenBLAS thread variable is already set.  ``main``
also fixes glibc's heap thresholds for its process (see ``_pin_heap``);
importing the module does not.
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import csv
import inspect
import io
import itertools
import json
import math
import os
import sys
import warnings
from typing import Optional

# BLAS products here are d x d or skinny n x d, and --jobs is the only
# parallelism, so unless the user chose a thread count, numpy's OpenBLAS
# loads with one thread (an idle second one spins for ~0.1 s after each
# call).  The variable is removed again so child processes see the user's
# environment.  It has no effect if numpy was imported before this module;
# if not, the one thread holds for the whole process, also outside the CLI.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & set(os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

import numpy as np

from .estimators import validate_sample
from .exceptions import (
    DataError,
    DomainError,
    EllipsymError,
    ParseError,
    UsageError,
)
from .hypothesis import (
    HP_SECTORS,
    METHOD_LABELS,
    TestResult,
    huffer_park_test,
    ks_test,
    mpq_test,
    pseudo_gaussian_test,
    schott_test,
    skew_optimal_test,
)
from .distributions import RADIAL_FAMILIES, sample_mvn, sample_mvt, sample_skewed
from .resample import ALL_BUT_ONE

ALTERNATIVE_LINE = (
    "alternative hypothesis: the distribution is not elliptically symmetric"
)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


class _Lines:
    """A CSV file's lines from line ``skip`` on, ends kept, decoded afresh
    from its bytes on each pass; ``len`` counts them without decoding."""

    def __init__(self, data: bytes, skip: int = 0):
        self.data, self.skip = data, skip

    def __iter__(self):
        text = io.TextIOWrapper(io.BytesIO(self.data), encoding="utf-8-sig", newline="")
        return itertools.islice(text, self.skip, None)

    def __len__(self) -> int:
        # lines end at \n, \r\n or a lone \r, and the last one may have no end
        data = self.data
        ends = data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")
        return ends + (data[-1:] not in (b"\n", b"\r")) - self.skip


def read_table(path: str, has_header: bool = True):
    """Column names (or None) and the data lines of a CSV file.

    The file's bytes are read once and checked as UTF-8.  The lines are a
    re-iterable :class:`_Lines`, ends and blank lines kept (one can lie in a
    quoted cell): ``csv.reader(lines)`` reads the file's rows.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot open {path}: {exc}") from exc
    _check_utf8(path, data)
    reader = csv.reader(_Lines(data))
    try:
        first = next(filter(None, reader), None)
    except csv.Error as exc:
        raise ParseError(f"{'header' if has_header else 'row 1'}: {exc}") from None
    if first is None:
        raise DataError(f"{path} contains no data")
    if not has_header:
        return None, _Lines(data)
    lines = _Lines(data, reader.line_num)
    if not any(line.strip("\r\n") for line in lines):
        raise DataError(f"{path} has a header row but no data rows")
    return [cell.strip() for cell in first], lines


def _check_utf8(path: str, data: bytes) -> None:
    """Raise a ParseError naming the first byte of ``data`` that is not UTF-8.
    A megabyte is decoded at a time; a step may stop short of a split character."""
    at = 0
    try:
        while at < len(data):
            step = memoryview(data)[at : at + 2**20]
            at += codecs.utf_8_decode(step, None, at + 2**20 >= len(data))[1]
    except UnicodeDecodeError as exc:
        at += exc.start
        raise ParseError(f"{path} is not UTF-8: byte {data[at]:#04x} at offset {at}") from None


def _rows(lines):
    """The non-empty rows of ``csv.reader(lines)``.  A ``csv`` error, such as
    a cell over the field size limit, is a ParseError naming the row."""
    i = 0
    try:
        for i, row in enumerate(filter(None, csv.reader(lines)), start=1):
            yield row
    except csv.Error as exc:
        raise ParseError(f"row {i + 1}: {exc}") from None


def _named(names, token: str, remedy: str = "select it by index"):
    """The 0-based index of column name ``token`` in the header ``names``, or
    None if there is no header or it does not hold the name; a name the header
    holds more than once is a UsageError that ends with ``remedy``."""
    count = 0 if names is None else names.count(token)
    if count > 1:
        raise UsageError(f"column name {token!r} appears {count} times in the header; {remedy}")
    return names.index(token) if count else None


def _resolve_columns(columns, names, lines, skip=None) -> list:
    """0-based indices for names or 1-based indices, up to the first row's
    width, or without ``columns`` every column but ``skip``; a header is a row
    like the others, so it must have that width."""
    width = len(next(_rows(lines)))
    if names is not None and len(names) != width:
        raise ParseError(f"header has {len(names)} fields, expected {width}")
    out = [j for j in range(width) if j != skip] if columns is None else []
    for token in columns or []:
        token = token.strip()
        j = _named(names, token)
        if j is not None:
            out.append(j)
            continue
        try:
            j = int(token)
        except ValueError:
            raise UsageError(f"unknown column {token!r}") from None
        if not 1 <= j <= width:
            raise UsageError(f"column index {j} is out of range 1..{width}")
        out.append(j - 1)
    if len(set(out)) != len(out):
        raise UsageError("the column selection repeats a column")
    if not out:
        raise UsageError("the column selection is empty")
    return out


def _numeric_matrix(names, lines, selection) -> np.ndarray:
    """Parse the selected cells into an F-ordered float matrix with located errors.

    One ``np.loadtxt`` splits rows and quoted cells as ``csv`` does, in C, and
    checks every row's width: each selected column is an ``f8`` field and
    every other one a ``U1`` field, which takes any text.  Its values are kept
    when they are all finite.  Anything else takes :func:`_located_matrix`,
    the one definition of the accepted syntax and of the messages.
    """
    chosen = set(selection)
    width = len(next(_rows(lines)))
    fields = [(f"f{j}", "f8" if j in chosen else "U1") for j in range(width)]
    with contextlib.suppress(ValueError):
        table = np.loadtxt(lines, dtype=fields, delimiter=",", quotechar='"',
                           comments=None, ndmin=1)
        X = np.empty((len(table), len(selection)), order="F")
        for k, j in enumerate(selection):
            X[:, k] = table[f"f{j}"]
        if np.isfinite(X).all():
            return X
    return _located_matrix(names, list(_rows(lines)), selection)


def _located_matrix(names, rows, selection) -> np.ndarray:
    """Parse cell by cell, raising on the first fault with its row and column."""
    width = len(rows[0])
    X = np.empty((len(rows), len(selection)), order="F")
    for i, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ParseError(f"row {i} has {len(row)} fields, expected {width}")
        for k, j in enumerate(selection):
            cell = row[j].strip()
            label = names[j] if names and names[j] else str(j + 1)
            if cell == "" or cell.upper() in ("NA", "NAN"):
                raise DataError(f"missing value at row {i}, column {label}")
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"non-numeric value {cell!r} at row {i}, column {label}"
                ) from None
            if not math.isfinite(value):
                raise DataError(f"non-finite value at row {i}, column {label}")
            X[i - 1, k] = value
    return X


def _ingest(path: str, has_header: bool, columns, label: Optional[str] = None):
    """(X, labels): the validated sample, and the stripped cells of the header
    column ``label`` (None without one), which cannot be a tested column."""
    names, lines = read_table(path, has_header)
    index = None if label is None else _named(names, label, "rename one of them")
    if label is not None and index is None:
        raise UsageError(f"date column {label!r} not found in header")
    selection = _resolve_columns(columns, names, lines, index)
    if index in selection:
        raise UsageError(f"date column {label!r} cannot be tested")
    X = validate_sample(_numeric_matrix(names, lines, selection))
    return X, None if index is None else [row[index].strip() for row in _rows(lines)]


def ingest_csv(path: str, has_header: bool = True, columns=None) -> np.ndarray:
    """Read an (n, d) sample from a CSV file.

    ``columns`` optionally selects a subset by header name or 1-based
    index.  A non-numeric cell raises :class:`ParseError` and an empty or
    NA cell raises :class:`DataError`, both naming the row and column; a
    sample with too few rows or columns raises :class:`DomainError`.
    """
    return _ingest(path, has_header, columns)[0]


# ---------------------------------------------------------------------------
# shared method dispatch
# ---------------------------------------------------------------------------


def _split_tokens(text: str) -> list:
    return [t for t in text.split(",") if t.strip() != ""]


#: --method -> the name of its library function, looked up in this module's
#: globals when ``_method`` runs, so a function rebound here is the one that runs
_METHODS = {"ks": "ks_test", "mpq": "mpq_test", "schott": "schott_test",
            "hp": "huffer_park_test", "pg": "pseudo_gaussian_test", "so": "skew_optimal_test"}

#: library parameter -> (flag, add_argument keywords) of each method option.
#: An option not given is absent from the parsed arguments, so the function's
#: own default applies; the function's parameters are the options it reads.
_METHOD_FLAGS = {
    "R": ("--R", dict(type=int, help="bootstrap replicates (ks default 1000; "
                                    "hp default: Monte-Carlo calibration)")),
    "epsilon": ("--epsilon", dict(type=float, help="mpq radial trimming fraction")),
    "c": ("--c", dict(type=int, help="hp: number of radial shells")),
    "sector": ("--sector", dict(choices=list(HP_SECTORS), help="hp: sector scheme")),
    "g": ("--g", dict(type=int, help="hp: sector count for bivariate angles")),
    "f": ("--f", dict(choices=RADIAL_FAMILIES, help="so: radial density family")),
    "param": ("--param", dict(type=float, help="so: radial density parameter "
                                               "(t default 4, powerExp default 0.5)")),
    "location": ("--location", dict(
        type=lambda text: text.split(","), metavar="X1,X2,...",  # the library converts it
        help="pg/so: known location; omitted means the location is estimated")),
    "seed": ("--seed", dict(type=int, help="resampling seed")),
    "workers": ("--jobs", dict(type=int, metavar="JOBS", help="worker threads for resampling; "
                               f"{ALL_BUT_ONE} (default) = all but one core")),
}

#: --dist -> the name of its sampler, and the sampler options, as above
_SAMPLERS = {"normal": "sample_mvn", "t": "sample_mvt", "skewnormal": "sample_skewed"}
_SAMPLE_FLAGS = {"nu": ("--nu", dict(type=float, help="t: degrees of freedom")),
                 "slant": ("--slant", dict(type=float, help="skewnormal: slant"))}


def _options(choice: str, function, args, flags, defaults=None) -> dict:
    """The options of ``flags`` given in ``args``, over the ``defaults`` that
    ``function`` reads, as its keywords.  A UsageError names each given one it
    has no parameter for, or else each one it requires that is missing."""
    params = inspect.signature(function).parameters
    given = {dest: value for dest, value in vars(args).items() if dest in flags}
    unread = [flags[dest][0] for dest in given if dest not in params]
    if unread:
        raise UsageError(f"{choice} does not read {', '.join(unread)}")
    options = {dest: v for dest, v in (defaults or {}).items() if dest in params} | given
    missing = [flag for dest, (flag, _) in flags.items() if dest not in options
               and dest in params and params[dest].default is params[dest].empty]
    if missing:
        raise UsageError(f"{choice} requires {', '.join(missing)}")
    return options


def _method(args):
    """The library function ``--method`` names and the given options it reads."""
    function = globals()[_METHODS[args.method]]
    return function, _options(f"--method {args.method}", function, args, _METHOD_FLAGS)


def format_text_block(result: TestResult, data_name: str) -> str:
    """The classic hypothesis-test report block."""
    return (
        f"\t{result.label}\n"
        "\n"
        f"data:  {data_name}\n"
        f"statistic = {result.statistic:.5g}, p-value = {result.p_value:.4g}\n"
        f"{ALTERNATIVE_LINE}"
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _output(path: Optional[str]):
    """``path`` opened for writing, or stdout (left open) when it is None."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def cmd_test(args) -> int:
    function, options = _method(args)  # an option the method does not read stops here
    X, _ = _ingest(args.input, not args.no_header, args.columns)
    result = function(X, **options)
    if args.format == "json":
        print(json.dumps(result.describe(), indent=2))
    else:
        name = os.path.splitext(os.path.basename(args.input))[0]
        print(format_text_block(result, name))
    return 0


def cmd_rolling(args) -> int:
    function, options = _method(args)
    if args.step < 1:
        raise UsageError(f"--step must be at least 1, got {args.step}")
    X, labels = _ingest(args.input, not args.no_header, args.columns, args.date_column)
    n, d = X.shape
    window, step = args.window, args.step
    if window > n:
        raise DomainError(f"window of {window} rows exceeds the {n} available")
    if window < d + 2:
        raise UsageError(f"window must be at least d + 2 = {d + 2} rows, got {window}")
    labels = labels or [""] * n

    with _output(args.out) as fh:  # an unwritable --out fails before any window
        out_rows = []
        for start in range(0, n - window + 1, step):
            result = function(X[start : start + window], **options)
            out_rows.append((start + 1, start + window, labels[start],
                             f"{result.statistic:.10g}", f"{result.p_value:.10g}"))
        header = ["start", "end", "label", "statistic", "p_value"]
        csv.writer(fh, lineterminator="\n").writerows([header, *out_rows])
    return 0


def cmd_simulate(args) -> int:
    sampler = globals()[_SAMPLERS[args.dist]]
    options = _options(f"--dist {args.dist}", sampler, args, _SAMPLE_FLAGS,
                       {"nu": 4.0, "slant": 1.0})
    n, d = args.n, args.d
    if d < 2:
        raise UsageError(f"--d must be at least 2, got {d}")
    shape = (d,) if args.dist == "skewnormal" else (np.zeros(d), np.eye(d))
    X = sampler(*shape, n=n, seed=args.seed, **options)

    with _output(args.out) as fh:
        header = ",".join(f"x{j + 1}" for j in range(d))
        np.savetxt(fh, X, fmt="%.17g", delimiter=",", header=header, comments="")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_test_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--method",
        required=True,
        choices=sorted(METHOD_LABELS),
        help="which elliptical-symmetry test to run",
    )
    parser.add_argument("--input", required=True, help="CSV file, one row per observation")
    parser.add_argument(
        "--no-header",
        action="store_true",
        help="the CSV has no header row (columns are then addressed by index)",
    )
    parser.add_argument(
        "--columns",
        type=_split_tokens,
        default=None,
        metavar="A,B,...",
        help="columns to use, by header name or 1-based index (default: all)",
    )
    for dest, (flag, keywords) in _METHOD_FLAGS.items():
        parser.add_argument(flag, dest=dest, default=argparse.SUPPRESS, **keywords)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellipsym",
        description="Hypothesis tests for elliptical symmetry of multivariate data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run one test on a CSV sample")
    _add_test_flags(p_test)
    p_test.add_argument("--format", choices=["text", "json"], default="text")

    p_roll = sub.add_parser(
        "rolling", help="run one test on successive row windows of a CSV sample"
    )
    _add_test_flags(p_roll)
    p_roll.add_argument("--window", type=int, required=True, help="rows per window")
    p_roll.add_argument("--step", type=int, required=True, help="rows between window starts")
    p_roll.add_argument(
        "--date-column",
        default=None,
        help="header name of a label column copied to each output row",
    )
    p_roll.add_argument("--out", default=None, help="output CSV path (default: stdout)")

    p_sim = sub.add_parser("simulate", help="write a synthetic CSV sample")
    p_sim.add_argument("--dist", required=True, choices=list(_SAMPLERS))
    p_sim.add_argument("--n", type=int, required=True, help="number of rows")
    p_sim.add_argument("--d", type=int, required=True, help="number of columns")
    p_sim.add_argument("--seed", type=int, default=0)
    for dest, (flag, keywords) in _SAMPLE_FLAGS.items():
        p_sim.add_argument(flag, dest=dest, default=argparse.SUPPRESS, **keywords)
    p_sim.add_argument("--out", required=True, help="output CSV path")
    return parser


#: (glibc mallopt parameter, value): M_MMAP_THRESHOLD and M_TRIM_THRESHOLD at
#: the ceilings glibc's dynamic thresholds reach on 64-bit, 32 MiB and twice that
_HEAP_POLICY = ((-3, 32 * 2**20), (-1, 64 * 2**20))
_MALLOC_VARIABLES = {"MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_"}


def _pin_heap() -> None:
    """Fix glibc's heap thresholds for this process, unless the user set one.

    With glibc's defaults, the heap top that a replicate block's temporaries
    grew is trimmed once they are freed, and the next block faults it back
    in.  Both values are set: the trim threshold alone would switch off the
    dynamic mmap threshold, so that each large array is mapped and faulted
    afresh.  Nothing happens where libc has no mallopt.
    """
    tunables = os.environ.get("GLIBC_TUNABLES", "")
    if _MALLOC_VARIABLES & set(os.environ) or "glibc.malloc." in tunables:
        return
    import ctypes  # numpy has loaded it already

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # TypeError: no dlopen(NULL)
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in _HEAP_POLICY:
        mallopt(param, value)


def main(argv=None) -> int:
    _pin_heap()
    args = build_parser().parse_args(argv)
    command = {"test": cmd_test, "rolling": cmd_rolling}.get(args.command, cmd_simulate)
    with warnings.catch_warnings(record=True) as caught:  # the user's filters apply
        try:
            code, error = command(args), None
        except EllipsymError as exc:
            code, error = 2 if isinstance(exc, UsageError) else 1, exc
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"ellipsym: warning: {message}", file=sys.stderr)
    if error is not None:
        print(f"ellipsym: error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
