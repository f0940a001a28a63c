"""Command-line interface: ingestion, dispatch, output formats, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ellipsym import (
    EllipsymError,
    NullLaw,
    ParseError,
    huffer_park_test,
    ks_test,
    mpq_test,
    pseudo_gaussian_test,
    sample_mvn,
    schott_test,
    skew_optimal_test,
)
from ellipsym import cli
from ellipsym.cli import (
    _located_matrix,
    _numeric_matrix,
    _resolve_columns,
    format_text_block,
    ingest_csv,
    main,
    read_table,
)
from ellipsym.hypothesis import TestResult as HypothesisResult

DATA = Path(__file__).parent / "data"
GOLDEN_20 = str(DATA / "golden_20x2.csv")


def write_csv(path, rows, header=None):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)
    return str(path)


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------


def test_simulate_then_ingest_roundtrip(tmp_path):
    out = str(tmp_path / "sim.csv")
    assert main(["simulate", "--dist", "normal", "--n", "25", "--d", "3",
                 "--seed", "5", "--out", out]) == 0
    X = ingest_csv(out)
    np.testing.assert_array_equal(X, sample_mvn(np.zeros(3), np.eye(3), 25, seed=5))


def test_read_table_header_modes(tmp_path):
    p = write_csv(tmp_path / "t.csv", [["1", "2"], ["3", "4"]], header=["a", "b"])
    names, rows = read_table(p)
    assert names == ["a", "b"] and len(list(rows)) == 2
    names, lines = read_table(p, has_header=False)
    assert names is None and list(lines)[0] == "a,b\n"


def with_dates(path, out):
    """A copy of the CSV file at ``path`` with a leading ``date`` column."""
    with open(path, encoding="utf-8") as src, open(out, "w", encoding="utf-8") as dst:
        dst.write("date," + next(src))
        for i, line in enumerate(src):
            dst.write(f"2024-{i % 12 + 1:02d}-{i % 28 + 1:02d},{line}")
    return str(out)


def test_ingest_holds_the_file_and_two_copies_of_the_sample(tmp_path):
    # the file's bytes, the parsed table and its selected columns: no list of
    # lines and no decoded copy of the whole file, also past a text column
    path = str(tmp_path / "big.csv")
    assert main(["simulate", "--dist", "skewnormal", "--n", "50000", "--d", "5",
                 "--seed", "9", "--out", path]) == 0
    dated = with_dates(path, tmp_path / "dated.csv")
    for path, columns in ((path, None), (dated, ["x1", "x2", "x3", "x4", "x5"])):
        tracemalloc.start()
        try:
            X = ingest_csv(path, columns=columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra = (peak - os.path.getsize(path)) / X.nbytes
        assert extra < 2.75, f"{os.path.basename(path)}: file + {extra:.2f} copies"


def test_an_unselected_text_column_changes_no_bit(tmp_path):
    # the tests' last bits depend on X's layout, so a file with a date column
    # must give the same bytes in the same (Fortran) order as one without
    plain = str(tmp_path / "plain.csv")
    assert main(["simulate", "--dist", "skewnormal", "--n", "2000", "--d", "5",
                 "--seed", "0", "--out", plain]) == 0
    X = ingest_csv(plain)
    Y = ingest_csv(with_dates(plain, tmp_path / "dated.csv"),
                   columns=["x1", "x2", "x3", "x4", "x5"])
    assert X.flags.f_contiguous and Y.flags.f_contiguous
    assert X.tobytes(order="F") == Y.tobytes(order="F")
    for test in (mpq_test, pseudo_gaussian_test, skew_optimal_test):
        a, b = test(X), test(Y)
        assert (a.statistic, a.p_value) == (b.statistic, b.p_value), test.__name__


def test_column_selection_by_name_and_index(tmp_path):
    rows = [[str(i), str(2 * i), str(3 * i)] for i in range(1, 9)]
    p = write_csv(tmp_path / "t.csv", rows, header=["u", "v", "w"])
    by_name = ingest_csv(p, columns=["u", "w"])
    by_index = ingest_csv(p, columns=["1", "3"])
    np.testing.assert_array_equal(by_name, by_index)
    assert by_name.shape == (8, 2)
    assert by_name[2, 1] == 9.0


def test_ingest_error_messages(tmp_path):
    p = write_csv(tmp_path / "bad.csv",
                  [["1", "2"], ["3", "oops"], ["5", "6"], ["7", "8"]],
                  header=["a", "b"])
    with pytest.raises(Exception, match=r"non-numeric value 'oops' at row 2, column b"):
        ingest_csv(p)

    p = write_csv(tmp_path / "na.csv",
                  [["1", "2"], ["3", "NA"], ["5", "6"], ["7", "8"]],
                  header=["a", "b"])
    with pytest.raises(Exception, match=r"missing value at row 2, column b"):
        ingest_csv(p)

    p = write_csv(tmp_path / "ragged.csv",
                  [["1", "2"], ["3"], ["5", "6"], ["7", "8"]],
                  header=["a", "b"])
    with pytest.raises(Exception, match=r"row 2 has 1 fields, expected 2"):
        ingest_csv(p)

    with pytest.raises(Exception, match="unknown column"):
        ingest_csv(write_csv(tmp_path / "c.csv", [["1", "2"]] * 6, header=["a", "b"]),
                   columns=["zz"])


# (csv text, has header, columns, expected message or None for a matrix)
PARSE_CASES = {
    "quoted": ('a,b\n"1.5","2"\n"3",4\n', True, None, None),
    "whitespace": ("a,b\n 1 ,\t2\n3 , 4 \n", True, None, None),
    "signs": ("a,b\n+2,-0\n-0.0,+1e3\n", True, None, None),
    "subnormal": ("a,b\n1e-320,1\n2,3\n", True, None, None),
    "underscore": ("a,b\n1_000,2\n3,4\n", True, None, None),
    "unselected_text": ("a,name,b\n1,x,2\n3,y,4\n", True, ["a", "b"], None),
    "one_column": ("a,b\n1,2\n3,4\n", True, ["b"], None),
    "no_header": ("1,2\n3,4\n", False, None, None),
    "NA": ("a,b\n1,2\n3,NA\n", True, None, "missing value at row 2, column b"),
    "NaN": ("a,b\n1,2\n3,NaN\n", True, None, "missing value at row 2, column b"),
    "inf": ("a,b\n1,2\n3,inf\n", True, None, "non-finite value at row 2, column b"),
    "empty": ("a,b\n1,2\n3,\n", True, None, "missing value at row 2, column b"),
    "abc": ("a,b\n1,2\n3,abc\n", True, None,
            "non-numeric value 'abc' at row 2, column b"),
    "ragged": ("a,b\n1,2\n3\n5,6\n", True, None, "row 2 has 1 fields, expected 2"),
    "abc_before_ragged": ("1,2\nabc,4\n5\n", False, None,
                          "non-numeric value 'abc' at row 2, column 1"),
    "quoted_newline": ('a,b\n"1\n",2\n3,4\n', True, None, None),
    "devanagari_digit": ("a,b\n\u0967,2\n3,4\n", True, None, None),
    "crlf": ("a,b\r\n1,2\r\n\r\n3,4\r\n", True, None, None),
    "text_beside_wider_row": ("a,name,b\n1,x,2\n3,y,4,5\n", True, ["a", "b"],
                              "row 2 has 4 fields, expected 3"),
    "text_beside_narrower_row": ("a,name,b\n1,x,2\n3,y\n", True, ["a", "b"],
                                 "row 2 has 2 fields, expected 3"),
}
# cells that float() reads and loadtxt refuses: only the cell loop parses them
CELL_LOOP_CASES = {"underscore", "devanagari_digit"}


@pytest.mark.parametrize("case", sorted(PARSE_CASES))
def test_bulk_parse_matches_cell_loop(tmp_path, monkeypatch, case):
    text, has_header, columns, message = PARSE_CASES[case]
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8", newline="")
    names, lines = read_table(str(path), has_header)
    rows = [row for row in csv.reader(lines) if row]
    selection = _resolve_columns(columns, names, lines)
    if message is None:
        loop = _located_matrix(names, rows, selection)

        def no_fallback(*args):
            raise AssertionError("the bulk conversion fell back to the cell loop")

        if case not in CELL_LOOP_CASES:
            monkeypatch.setattr(cli, "_located_matrix", no_fallback)
        bulk = _numeric_matrix(names, lines, selection)
        assert bulk.shape == loop.shape == (len(rows), len(selection))
        assert bulk.tobytes() == loop.tobytes()  # bit for bit, signed zeros too
        assert bulk.flags.f_contiguous and loop.flags.f_contiguous
    else:
        for parse, table in ((_numeric_matrix, lines), (_located_matrix, rows)):
            with pytest.raises(EllipsymError) as exc:
                parse(names, table, selection)
            assert str(exc.value) == message


# cell spellings: float() and loadtxt agree on some, and differ on others
CELLS = ["1", "-2.5", "+3e2", "4.5E-3", ".5", "6.", "-0", "-0.0", "5e-324",
         "2.2250738585072014e-308", "1e-400", "1e400", " 7 ", "\t8", "9\t",
         '"10"', '" 11 "', '"1"2', '"1,2"', '""', "1_0", "\u0967", "NA", "na",
         "nan", "NaN", "inf", "-Infinity", "", " ", "abc", "0x10", "1d3",
         "\u20025", "\x0c6", '"1\n"', '"\n2"', '"3\r\n"', '"4\n\n"', '"a\n\nb"']


@st.composite
def csv_tables(draw):
    """CSV text with a header flag and a column selection."""
    width = draw(st.integers(1, 4))
    text_column = draw(st.none() | st.integers(0, width - 1))
    numbers = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    cell = st.sampled_from(CELLS) | numbers
    rows = []
    for i in range(draw(st.integers(1, 5))):
        row = [draw(cell) for _ in range(width)]
        if text_column is not None:
            row[text_column] = draw(st.sampled_from(["x", "a b", '"p,q"']))
        if i > 0 and draw(st.integers(0, 9)) == 0:  # a ragged row
            row = row[:-1] if width > 1 and draw(st.booleans()) else row + ["1"]
        rows.append(",".join(row))
    has_header = draw(st.booleans())
    if has_header:
        rows.insert(0, ",".join(f"c{j}" for j in range(width)))
    for _ in range(draw(st.integers(0, 2))):  # blank lines anywhere
        rows.insert(draw(st.integers(0, len(rows))), "")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(rows) + draw(st.sampled_from(["", end]))
    chosen = [j for j in range(width) if j != text_column]
    selection = draw(st.lists(st.sampled_from(chosen), min_size=1, unique=True)
                     if chosen else st.just([0]))
    return text, has_header, selection


def _outcome(parse):
    try:
        return parse().tobytes()
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=csv_tables())
def test_fast_path_matches_located_loop(tmp_path, table):
    # the loadtxt path must give the bytes, or the error, of the cell loop
    # over the rows that csv reads from the original text
    text, has_header, selection = table
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8", newline="")
    rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row]
    names = [cell.strip() for cell in rows.pop(0)] if has_header else None
    assume(rows)  # read_table refuses a table without data rows
    names_read, lines = read_table(str(path), has_header)
    assert names_read == names
    assert _outcome(lambda: _numeric_matrix(names, lines, selection)) == _outcome(
        lambda: _located_matrix(names, rows, selection)
    )


def test_byte_order_mark_is_dropped(tmp_path, capsys):
    # Excel's "CSV UTF-8" export starts the file with a byte-order mark
    X = sample_mvn(np.zeros(2), np.eye(2), 10, seed=3)
    path = tmp_path / "bom.csv"
    with open(path, "w", newline="", encoding="utf-8-sig") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["a", "b"])
        writer.writerows([[f"{v:.17g}" for v in row] for row in X])
    np.testing.assert_array_equal(ingest_csv(str(path), columns=["a", "b"]), X)
    assert main(["test", "--method", "schott", "--columns", "a,b",
                 "--input", str(path)]) == 0
    assert capsys.readouterr().out.startswith("\tSchott test")

    dated = tmp_path / "bom_dated.csv"
    rows = [[f"2024-01-{i + 1:02d}"] + [f"{v:.17g}" for v in row]
            for i, row in enumerate(X)]
    with open(dated, "w", newline="", encoding="utf-8-sig") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["day", "x1", "x2"])
        writer.writerows(rows)
    assert main(["rolling", "--method", "schott", "--input", str(dated),
                 "--window", "5", "--step", "5", "--date-column", "day"]) == 0
    assert [r[2] for r in rolling_rows(capsys)] == ["2024-01-01", "2024-01-06"]


def test_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    # a Latin-1 cell, once near the start and once past the reader's first
    # buffer, so the offset must count from the start of the file
    for prefix in (b"", b"1,2\n" * 30_000):
        path = tmp_path / "latin1.csv"
        data = b"a,b\n" + prefix + b"1,2\n3,\xe9\n5,6\n7,8\n"
        path.write_bytes(data)
        offset = data.index(b"\xe9")
        with pytest.raises(ParseError, match=f"byte 0xe9 at offset {offset}$"):
            read_table(str(path))
        assert main(["test", "--method", "schott", "--input", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"ellipsym: error: {path} is not UTF-8: byte 0xe9 at offset {offset}\n"
        )


@pytest.mark.parametrize("cell", ["1" * 200_000, '"' + "x" * 200_000 + '"'],
                         ids=["digits", "quoted_text"])
def test_cell_over_the_csv_field_limit_is_a_parse_error(tmp_path, capsys, cell):
    # csv refuses cells over 131,072 characters; that is a located ParseError
    limit = "field larger than field limit"
    path = tmp_path / "big.csv"
    for rows, where in ((["1,2", "3,4", f"{cell},5", "6,7"], "row 3"),
                        ([f"{cell},5", "1,2", "3,4", "6,7"], "row 1")):
        path.write_text("\n".join(["a,b", *rows, "8,9", "1,3"]) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{where}: {limit}"):
            ingest_csv(str(path))
        for argv in (["test", "--method", "schott"],
                     ["rolling", "--method", "schott", "--window", "4", "--step", "1"]):
            assert main([*argv, "--input", str(path)]) == 1
            assert capsys.readouterr().err.startswith(f"ellipsym: error: {where}: {limit}")
    path.write_text(f"a,{cell}\n1,2\n3,4\n5,6\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"^header: {limit}"):
        read_table(str(path))
    with pytest.raises(ParseError, match=f"^row 1: {limit}"):
        read_table(str(path), has_header=False)


HEADER_WIDTH_CASES = {
    # a header wider than the data, selected past the data's width
    "wide": ("a,b,c\n1,2\n3,4\n5,7\n7,1\n9,3\n", ["--columns", "a,c"], 3, 2),
    # a header narrower than the data, with a bad cell in a later column
    "narrow": ("a\n1,2\n3,4\n5,x\n7,1\n9,3\n", [], 1, 2),
    # R's write.table(sep = ","): no header field for the quoted row names
    "r_row_names": ('"x1","x2"\n"1",0.5,1.2\n"2",0.1,-0.3\n"3",2,0.7\n'
                    '"4",-1,0.2\n"5",0.3,0.9\n"6",1.1,-2\n', ["--columns", "x1,x2"], 2, 3),
}


@pytest.mark.parametrize("case", sorted(HEADER_WIDTH_CASES))
def test_header_width_must_match_the_data(tmp_path, capsys, case):
    text, flags, width, expected = HEADER_WIDTH_CASES[case]
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8", newline="")
    message = f"header has {width} fields, expected {expected}"
    for extra in ([], flags):
        assert main(["test", "--method", "schott", "--input", str(path), *extra]) == 1
        assert capsys.readouterr().err == f"ellipsym: error: {message}\n"
    with pytest.raises(ParseError, match=message):
        ingest_csv(str(path))


# input text: numbers, separators, quotes, line ends, missing-value and
# non-finite spellings, letters and a non-ASCII letter
FUZZ_TOKENS = list("0123456789,.-e\" \r\nabx") + ["NA", "nan", "inf", "\u00e9"]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    text=st.lists(st.sampled_from(FUZZ_TOKENS), max_size=60).map("".join),
    bad_byte=st.booleans(),
    no_header=st.booleans(),
    columns=st.sampled_from([None, "1,2", "2,1", "3", "a,b", "x,1", "0"]),
)
def test_no_input_file_makes_the_cli_raise(tmp_path, capsys, text, bad_byte,
                                           no_header, columns):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(text.encode("utf-8") + (b"\xff" if bad_byte else b""))
    argv = ["test", "--method", "schott", "--input", str(path)]
    argv += ["--no-header"] * no_header
    argv += [] if columns is None else ["--columns", columns]
    assert main(argv) in (0, 1, 2)
    capsys.readouterr()


# ---------------------------------------------------------------------------
# text and json output
# ---------------------------------------------------------------------------


def test_format_text_block_exact():
    result = HypothesisResult(
        method="schott",
        statistic=2.141691235666787,
        p_value=0.7096969,
        null_law=NullLaw.chi2(4),
        params={},
    )
    assert format_text_block(result, "golden_20x2") == (
        "\tSchott test for elliptical symmetry\n"
        "\n"
        "data:  golden_20x2\n"
        "statistic = 2.1417, p-value = 0.7097\n"
        "alternative hypothesis: the distribution is not elliptically symmetric"
    )


def test_cmd_test_text_output(capsys):
    assert main(["test", "--method", "schott", "--input", GOLDEN_20]) == 0
    out = capsys.readouterr().out
    assert out.startswith("\tSchott test for elliptical symmetry\n")
    assert "data:  golden_20x2\n" in out
    assert out.endswith("not elliptically symmetric\n")


def test_cmd_test_json_output(capsys):
    assert main(["test", "--method", "so", "--input", GOLDEN_20, "--f", "logistic",
                 "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["method"] == "so"
    assert blob["null_law"]["kind"] == "chi2"
    assert 0 < blob["p_value"] <= 1


def test_cmd_test_location_flag(capsys):
    assert main(["test", "--method", "pg", "--input", GOLDEN_20,
                 "--location", "0,0", "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["statistic"] == pytest.approx(9.55552301611759)


@pytest.mark.filterwarnings("ignore:sector/shell grid")
@pytest.mark.parametrize("method, function", [
    ("ks", ks_test), ("mpq", mpq_test), ("schott", schott_test),
    ("hp", huffer_park_test), ("pg", pseudo_gaussian_test), ("so", skew_optimal_test)])
def test_cli_defaults_are_the_library_defaults(capsys, method, function):
    # with no method option given, the command line calls the library function
    # with no keywords (hp needs its shell count), so every default is the library's
    extra, args = (["--c", "2"], (2,)) if method == "hp" else ([], ())
    assert main(["test", "--method", method, "--input", GOLDEN_20, *extra,
                 "--format", "json"]) == 0
    expected = function(ingest_csv(GOLDEN_20), *args).describe()
    assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(expected))


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_unknown_method_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["test", "--method", "nope", "--input", GOLDEN_20])
    assert exc.value.code == 2


def test_usage_error_exits_2(tmp_path, capsys):
    # hp without --c is a usage problem
    assert main(["test", "--method", "hp", "--input", GOLDEN_20]) == 2
    assert "ellipsym: error:" in capsys.readouterr().err

    # powerExp with the exponent of 1 is the Gaussian edge the score
    # construction excludes
    assert main(["test", "--method", "so", "--input", GOLDEN_20,
                 "--f", "powerExp", "--param", "1"]) == 2

    assert main(["test", "--method", "schott", "--input",
                 str(tmp_path / "no_such.csv")]) == 2

    # nu must be finite; a guard that NaN slips past writes a table of NaN
    out = tmp_path / "t.csv"
    for nu in ("nan", "inf"):
        assert main(["simulate", "--dist", "t", "--nu", nu, "--n", "5", "--d", "2",
                     "--out", str(out)]) == 2
    assert not out.exists()


def test_arguments_are_refused_before_any_work(tmp_path, capsys):
    # 12 cells for 20 rows would warn, but R = 0 is refused first: one line
    assert main(["rolling", "--method", "hp", "--c", "3", "--R", "0", "--window", "20",
                 "--step", "20", "--input", GOLDEN_20]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("ellipsym: error: R ")
    # a known location makes the density unused, but it is checked all the same
    assert main(["test", "--method", "so", "--location", "0,0", "--param", "1",
                 "--input", GOLDEN_20]) == 2
    assert "nu > 2" in capsys.readouterr().err
    # the samplers refuse n < 1, and no file is written
    out = tmp_path / "unwritten.csv"
    assert main(["simulate", "--dist", "normal", "--n", "0", "--d", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "ellipsym: error: n must be at least 1, got 0\n"
    assert not out.exists()


#: id -> (argv, its one stderr line after "ellipsym: error: "); OUT is a path
#: in a temporary directory, which a refused command leaves unwritten
USAGE_ERRORS = {
    "repeated column": (["test", "--method", "schott", "--columns", "x1,x1"],
                        "the column selection repeats a column"),
    "no column": (["test", "--method", "schott", "--columns", ","],
                  "the column selection is empty"),
    "unknown date column": (
        ["rolling", "--method", "schott", "--window", "5", "--step", "5",
         "--date-column", "day"], "date column 'day' not found in header"),
    "step 0": (["rolling", "--method", "schott", "--window", "5", "--step", "0"],
               "--step must be at least 1, got 0"),
    "simulate d 1": (["simulate", "--dist", "normal", "--n", "5", "--d", "1", "--out", "OUT"],
                     "--d must be at least 2, got 1"),
    # the library's location rule, not a parser of the CLI's own
    "pg location": (
        ["test", "--method", "pg", "--location", "a,b"],
        "location is not a real numeric vector: could not convert string to float: 'a'"),
    "so location": (
        ["rolling", "--method", "so", "--window", "10", "--step", "10", "--location", "0,b"],
        "location is not a real numeric vector: could not convert string to float: 'b'"),
    # a method's parameters are the options it reads; any other given one is refused
    "ks location": (["test", "--method", "ks", "--location", "1,2"],
                    "--method ks does not read --location"),
    "schott options": (
        ["test", "--method", "schott", "--epsilon", "5", "--c", "0", "--location", "a,b"],
        "--method schott does not read --epsilon, --c, --location"),
    "so seed": (
        ["rolling", "--method", "so", "--window", "10", "--step", "10", "--seed", "1",
         "--out", "OUT"], "--method so does not read --seed"),
    "hp without c": (["rolling", "--method", "hp", "--window", "10", "--step", "10",
                      "--out", "OUT"], "--method hp requires --c"),
    "normal nu": (["simulate", "--dist", "normal", "--nu", "3", "--n", "5", "--d", "2",
                   "--out", "OUT"], "--dist normal does not read --nu"),
    "t slant": (["simulate", "--dist", "t", "--slant", "2", "--n", "5", "--d", "2",
                 "--out", "OUT"], "--dist t does not read --slant"),
}


@pytest.mark.parametrize("case", list(USAGE_ERRORS))
def test_usage_error_is_one_line_and_exit_2(tmp_path, capsys, case):
    argv, message = USAGE_ERRORS[case]
    out = tmp_path / "unwritten.csv"
    argv = [str(out) if a == "OUT" else a for a in argv]
    if argv[0] != "simulate":
        argv += ["--input", GOLDEN_20]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"ellipsym: error: {message}\n"
    assert not out.exists()


def test_data_error_exits_1(tmp_path, capsys):
    p = write_csv(tmp_path / "bad.csv",
                  [["1", "2"], ["3", "x"], ["5", "6"], ["7", "8"], ["9", "1"]],
                  header=["a", "b"])
    assert main(["test", "--method", "schott", "--input", p]) == 1
    err = capsys.readouterr().err
    assert "row 2" in err and "column b" in err


def test_data_near_1e160_exits_0(tmp_path):
    # the second moments of such data overflow unless the test rescales them
    X = sample_mvn(np.zeros(3), np.eye(3), 60, seed=1)
    outputs = []
    for name, scale in (("plain.csv", 1.0), ("big.csv", 1e160)):
        p = write_csv(tmp_path / name, [[f"{v:.17g}" for v in row] for row in X * scale],
                      header=["a", "b", "c"])
        proc = subprocess.run(
            [sys.executable, "-m", "ellipsym.cli", "test", "--method", "schott",
             "--input", p],
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        outputs.append([line for line in proc.stdout.splitlines() if "p-value" in line])
    assert outputs[0] == outputs[1] and len(outputs[0]) == 1


def test_singular_tyler_iterate_exits_1(tmp_path, capsys):
    X = np.random.default_rng(0).standard_normal((150, 3))
    X[0] = 1e10
    p = write_csv(tmp_path / "gross.csv", [[f"{v:.17g}" for v in row] for row in X],
                  header=["a", "b", "c"])
    assert main(["test", "--method", "pg", "--input", p,
                 "--location", "0,0,0"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("ellipsym: error:") and "singular" in err


def test_jobs_flag_alone_sets_the_worker_count(monkeypatch, capsys):
    # no environment variable stands in for --jobs, and the count changes no bit
    monkeypatch.setenv("ELLIPSYM_JOBS", "abc")
    argv = ["test", "--method", "ks", "--input", GOLDEN_20, "--R", "5", "--seed", "1"]
    outputs = []
    for jobs in ([], ["--jobs", "1"], ["--jobs", "2"]):
        assert main([*argv, *jobs]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert main([*argv, "--jobs", "0"]) == 2
    assert capsys.readouterr().err.startswith("ellipsym: error: workers must be")
    # schott never resamples, so it does not read the count and refuses it
    assert main(["test", "--method", "schott", "--input", GOLDEN_20, "--jobs", "0"]) == 2
    assert capsys.readouterr().err == "ellipsym: error: --method schott does not read --jobs\n"


def test_too_few_rows_for_the_tests_exits_1(tmp_path, capsys):
    # n = d + 1 rows all have the same standardized radius
    X = np.random.default_rng(3).standard_normal((3, 2))
    p = write_csv(tmp_path / "three.csv", [[f"{v:.17g}" for v in row] for row in X],
                  header=["a", "b"])
    assert main(["test", "--method", "schott", "--input", p]) == 1
    assert capsys.readouterr().err == (
        "ellipsym: error: sample needs at least d + 2 = 4 rows (n=3, d=2)\n"
    )


def test_a_library_warning_is_one_line(capsys):
    # 2^2 orthants x 3 shells = 12 cells for 20 rows; each window warns alike
    message = ("ellipsym: warning: sector/shell grid has 12 cells for 20 observations "
               "(expected count below 5 per cell); the statistic is unstable\n")
    hp = ["--method", "hp", "--c", "3", "--R", "5", "--jobs", "1"]
    assert main(["test", *hp, "--input", GOLDEN_20]) == 0
    assert capsys.readouterr().err == message
    assert main(["rolling", *hp, "--input", str(DATA / "golden_40x2.csv"),
                 "--window", "20", "--step", "5"]) == 0
    assert capsys.readouterr().err == message


# ---------------------------------------------------------------------------
# rolling windows
# ---------------------------------------------------------------------------


def rolling_input(tmp_path, n=10, with_dates=False, seed=2):
    X = sample_mvn(np.zeros(2), np.eye(2), n, seed=seed)
    rows = [[f"{v:.17g}" for v in row] for row in X]
    header = ["x1", "x2"]
    if with_dates:
        header = ["day"] + header
        rows = [[f"2024-01-{i + 1:02d}"] + row for i, row in enumerate(rows)]
    return write_csv(tmp_path / "roll.csv", rows, header=header)


def rolling_rows(capsys):
    out = capsys.readouterr().out
    reader = csv.reader(io.StringIO(out))
    header = next(reader)
    assert header == ["start", "end", "label", "statistic", "p_value"]
    return list(reader)


def test_rolling_window_step_grid(tmp_path, capsys):
    p = rolling_input(tmp_path, n=10)
    # 10 rows, window 5: step 5 tiles exactly, step 2 stops at start row 5
    assert main(["rolling", "--method", "schott", "--input", p,
                 "--window", "5", "--step", "5"]) == 0
    rows = rolling_rows(capsys)
    assert [(r[0], r[1]) for r in rows] == [("1", "5"), ("6", "10")]

    assert main(["rolling", "--method", "schott", "--input", p,
                 "--window", "5", "--step", "2"]) == 0
    rows = rolling_rows(capsys)
    assert [(r[0], r[1]) for r in rows] == [("1", "5"), ("3", "7"), ("5", "9")]
    for r in rows:
        assert 0.0 < float(r[4]) <= 1.0


def test_rolling_date_labels(tmp_path, capsys):
    p = rolling_input(tmp_path, n=10, with_dates=True)
    assert main(["rolling", "--method", "schott", "--input", p,
                 "--window", "5", "--step", "5", "--date-column", "day"]) == 0
    rows = rolling_rows(capsys)
    assert [r[2] for r in rows] == ["2024-01-01", "2024-01-06"]


def test_rolling_date_column_not_testable(tmp_path, capsys):
    p = rolling_input(tmp_path, n=10, with_dates=True)
    assert main(["rolling", "--method", "schott", "--input", p,
                 "--window", "5", "--step", "5", "--date-column", "day",
                 "--columns", "day,x1"]) == 2
    assert "cannot be tested" in capsys.readouterr().err


def test_rolling_has_no_format_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rolling", "--method", "schott", "--input", rolling_input(tmp_path),
              "--window", "5", "--step", "5", "--format", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


def test_rolling_window_bounds(tmp_path, capsys):
    p = rolling_input(tmp_path, n=10)
    assert main(["rolling", "--method", "schott", "--input", p,
                 "--window", "50", "--step", "1"]) == 1
    capsys.readouterr()
    assert main(["rolling", "--method", "schott", "--input", p,
                 "--window", "3", "--step", "1"]) == 2
    assert "at least d + 2" in capsys.readouterr().err


def test_rolling_out_file(tmp_path):
    p = rolling_input(tmp_path, n=12)
    out = str(tmp_path / "windows.csv")
    assert main(["rolling", "--method", "mpq", "--input", p,
                 "--window", "6", "--step", "3", "--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "start,end,label,statistic,p_value"
    assert len(lines) == 1 + 3  # starts 1, 4, 7


def test_out_into_a_missing_directory_exits_2(tmp_path, capsys):
    out = str(tmp_path / "missing" / "out.csv")
    for argv in (["simulate", "--dist", "normal", "--n", "5", "--d", "2"],
                 ["rolling", "--method", "schott", "--input", rolling_input(tmp_path),
                  "--window", "5", "--step", "5"]):
        assert main([*argv, "--out", out]) == 2
        assert capsys.readouterr().err.startswith(f"ellipsym: error: cannot write {out}:")


def test_unwritable_rolling_out_fails_before_any_window(tmp_path, capsys, monkeypatch):
    def never(X, args):
        raise AssertionError("a window ran before --out was opened")

    monkeypatch.setattr(cli, "_run_method", never)
    out = tmp_path / "missing" / "dir" / "out.csv"
    assert main(["rolling", "--method", "schott", "--input", rolling_input(tmp_path),
                 "--window", "5", "--step", "5", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"ellipsym: error: cannot write {out}:")


# ---------------------------------------------------------------------------
# real process entry point
# ---------------------------------------------------------------------------


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "ellipsym.cli", "test", "--method", "mpq",
         "--input", GOLDEN_20],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("\tTest for elliptical symmetry by Manzotti et al.")


# ---------------------------------------------------------------------------
# run-time dependencies
# ---------------------------------------------------------------------------


def test_no_run_time_path_needs_scipy(tmp_path):
    # scipy is a test dependency only: with every import of it refused, all
    # six tests run, in the library and through the command line
    path = str(tmp_path / "sim.csv")
    code = f"""
import sys
sys.modules["scipy"] = None  # any `import scipy...` now raises ImportError
import numpy as np
import ellipsym
from ellipsym.cli import main

X = ellipsym.sample_mvn(np.zeros(3), np.eye(3), 60, seed=1)
results = [
    ellipsym.ks_test(X, R=20, workers=1),
    ellipsym.mpq_test(X),
    ellipsym.schott_test(X),
    ellipsym.huffer_park_test(X, c=2, R=20, workers=1),
    ellipsym.huffer_park_test(X, c=2, workers=1),
    ellipsym.pseudo_gaussian_test(X),
    ellipsym.pseudo_gaussian_test(X, location=np.zeros(3)),
    ellipsym.skew_optimal_test(X),
    ellipsym.skew_optimal_test(X, location=np.zeros(3)),
]
assert all(0.0 < r.p_value <= 1.0 for r in results)
path = {path!r}
assert main(["simulate", "--dist", "normal", "--n", "60", "--d", "2",
             "--seed", "1", "--out", path]) == 0
for method, extra in (("ks", ["--R", "20", "--jobs", "1"]), ("mpq", []), ("schott", []),
                      ("hp", ["--c", "2", "--jobs", "1"]), ("pg", []), ("so", [])):
    assert main(["test", "--method", method, "--input", path, *extra]) == 0
assert main(["rolling", "--method", "so", "--input", path,
             "--window", "30", "--step", "15"]) == 0
print("scipy" in sys.modules and sys.modules["scipy"] is not None)
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


# ---------------------------------------------------------------------------
# package import and BLAS threads
# ---------------------------------------------------------------------------

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# prints the thread count of numpy's bundled OpenBLAS, or None if not found
PRINT_BLAS_THREADS = """
import ctypes, glob, pathlib
import numpy
libs = pathlib.Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
         "openblas_get_num_threads")
fns = [getattr(ctypes.CDLL(path), name, None)
       for path in glob.glob(str(libs / "*openblas*")) for name in names]
print(next((fn() for fn in fns if fn is not None), None))
"""


def fresh_python(code, **env):
    """stdout lines of ``code`` run in a new interpreter, with no BLAS
    thread variable set except those in ``env``."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    proc = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_package_import_loads_no_numpy():
    code = "import sys, ellipsym; print('numpy' in sys.modules)"
    assert fresh_python(code) == ["False"]


def test_every_export_resolves_and_is_listed():
    code = """
import ellipsym
listed = set(dir(ellipsym))
print(all(name in listed for name in ellipsym.__all__))
namespace = {}
exec("from ellipsym import *", namespace)
print(all(namespace[name] is getattr(ellipsym, name) for name in ellipsym.__all__))
print(ellipsym.ks_test is ellipsym.hypothesis.ks_test, hasattr(ellipsym, "nope"))
"""
    assert fresh_python(code) == ["True", "True", "True", "False"]


@pytest.mark.parametrize("env", [{}, {"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}],
                         ids=["unset", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_cli_import_sets_one_blas_thread_unless_the_user_chose(env):
    default = fresh_python(PRINT_BLAS_THREADS)[0]
    if default == "None":
        pytest.skip("numpy's bundled OpenBLAS not found")
    code = ("import os\nbefore = dict(os.environ)\nimport ellipsym.cli\n"
            "print(dict(os.environ) == before)\n" + PRINT_BLAS_THREADS)
    expected = min(2, int(default)) if env else 1
    assert fresh_python(code, **env) == ["True", str(expected)]
