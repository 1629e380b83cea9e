import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import cantor_hankel
from cantor_hankel import checks, cli, engine, kernel, sequences, series
from cantor_hankel.hankel import MAX_HANKEL_ORDER, det_exact, det_mod3
from cantor_hankel.pade import (MAX_BASE, MAX_ETA_DEPTH, MAX_FEQ_DEGREE,
                                MAX_IRR_ORDER, MAX_PADE_ORDER)
from cantor_hankel.kernel import build_dfao, parse_dfao_table
from cantor_hankel.sequences import MAX_SLICE_COUNT, diff_term, sequence_slice
from slow_paths import grid_text_by_cells, hankel_by_terms, split_cell, split_value_calls

EXPECTED_VERIFY = Path(__file__).resolve().parent.parent / "bench" / "expected_verify.txt"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_seq_raw(capsys):
    code, out = run(capsys, "seq", "--kind", "c", "--count", "9")
    assert code == 0
    assert out == "1 0 1 0 0 0 1 0 1\n"


def test_seq_csv(capsys):
    code, out = run(capsys, "seq", "--kind", "d", "--start", "2", "--count", "3",
                    "--format", "csv")
    assert code == 0
    assert out == "n,value\n2,1\n3,0\n4,1\n"


def test_seq_json(capsys):
    code, out = run(capsys, "seq", "--kind", "c", "--count", "4",
                    "--format", "json")
    assert code == 0
    assert json.loads(out) == {"kind": "c", "start": 0,
                               "values": [1, 0, 1, 0]}


def test_det_exact_and_mod3(capsys):
    code, out = run(capsys, "det", "--kind", "gamma", "-p", "0", "-n", "4")
    assert (code, out) == (0, "-1\n")
    code, out = run(capsys, "det", "--kind", "gamma", "-p", "0", "-n", "4",
                    "--mod3")
    assert (code, out) == (0, "2\n")


@given(n=st.one_of(st.integers(-3, 60), st.sampled_from([MAX_HANKEL_ORDER, MAX_HANKEL_ORDER + 1])),
       p=st.one_of(st.integers(-3 ** 40, 3 ** 40), st.integers(-3, 30)),
       kind=st.sampled_from(["gamma", "delta"]), mod3=st.booleans())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_hostile_det_arguments_exit_0_or_2(capsys, n, p, kind, mod3):
    argv = ["det", "--kind", kind, "-p", str(p), "-n", str(n)] + ["--mod3"] * mod3
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    if n < 0 or p < 0 or n > MAX_HANKEL_ORDER:
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: "), argv
    else:
        assert (code, err) == (0, ""), argv
        assert out == f"{int(out)}\n", argv
        assert not mod3 or out in ("0\n", "1\n", "2\n"), argv


def test_det_mode_conflict(capsys):
    code = cli.main(["det", "-p", "0", "-n", "2", "--exact", "--mod3"])
    capsys.readouterr()
    assert code == 2


def test_cell(capsys):
    code, out = run(capsys, "cell", "--kind", "gamma", "-n", "1", "-p", "0")
    assert (code, out) == (0, "1\n")
    code, out = run(capsys, "cell", "--kind", "delta", "-n", "2", "-p", "0")
    assert (code, out) == (0, "2\n")


def test_grid_ascii(capsys):
    code, out = run(capsys, "grid", "--n-max", "2", "--p-max", "3")
    assert code == 0
    assert out == "#.#.\n#x..\n"


def test_grid_csv(capsys):
    code, out = run(capsys, "grid", "--n-max", "2", "--p-max", "3",
                    "--format", "csv")
    assert code == 0
    assert out == "1,0,1,0\n1,2,0,0\n"


def test_grid_json(capsys):
    code, out = run(capsys, "grid", "--n-max", "2", "--p-max", "2",
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"] == [[1, 0, 1], [1, 2, 0]]


def test_grid_ppm(capsys):
    code, out = run(capsys, "grid", "--n-max", "2", "--p-max", "1",
                    "--format", "ppm")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "P3"
    assert lines[1] == "2 2"
    assert lines[2] == "255"
    assert lines[3] == "0 200 0 0 0 255"
    assert lines[4] == "0 200 0 255 0 0"


def test_grid_ppm_window_dimensions(capsys):
    code, out = run(capsys, "grid", "--n-max", "96", "--p-max", "127",
                    "--format", "ppm")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "128 96"
    assert len(lines) == 3 + 96
    assert all(len(line.split()) == 3 * 128 for line in lines[3:])


# SHA-256 of `grid --n-max 300 --p-max 299` stdout, pinned from the
# cell-by-cell engine and formatter that the table engine replaced.
GRID_300_DIGESTS = {
    ("gamma", "ascii"): "ff4d2e79060cadc582410c518ae952feed8b02d8e5ed2314ae06a913ec9c5124",
    ("gamma", "csv"): "a18faeba7f368f25840db43d0a1f0b72baa3e801192ee03e76d2ef482a33fea9",
    ("gamma", "json"): "c773cddd8dc3edb82496f48f7db3545f07f120e04197d46171ed51571d9e5465",
    ("gamma", "ppm"): "bcbaffb6a31f5536fcf4c765fbb1f5ea73d2a4545fabdb9875c7a910e71c9294",
    ("delta", "ascii"): "ff4d64879886d4f0f6d359d6b551729e33b5df7dfc6306aea1c4c9df2c57f450",
    ("delta", "csv"): "7aad94481e5a05d71368d59cea0d763c4d098a8361b607e2b7a573ec2c5770f5",
    ("delta", "json"): "7fc1b1c98d5a9051b6878fd9858cc07499fec3ee8aabc37ea94ae0942245e854",
    ("delta", "ppm"): "0e91f8dc5180441af4d063a938f82e874d2cb1aa0ccd834006aab18c8dab72ac",
}


@pytest.mark.parametrize("kind, fmt", sorted(GRID_300_DIGESTS))
def test_grid_output_is_pinned(capsys, kind, fmt):
    code, out = run(capsys, "grid", "--kind", kind, "--n-max", "300", "--p-max", "299",
                    "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GRID_300_DIGESTS[kind, fmt]


# One grid format and a random table of values 0, 1, 2, each side 1 to
# 40 cells with whole rows or columns of one cell drawn often.
GRID_SIDE = st.one_of(st.just(1), st.integers(1, 40))
GRID_TABLES = st.tuples(GRID_SIDE, GRID_SIDE).flatmap(
    lambda shape: arrays(np.int8, shape, elements=st.integers(0, 2)))


@given(fmt=st.sampled_from(sorted(cli.GRID_CELLS)), table=GRID_TABLES,
       block=st.integers(1, 400))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_grid_text_matches_per_cell_formatter(monkeypatch, fmt, table, block):
    # A small block size puts row-block boundaries inside these tables.
    monkeypatch.setattr(cli, "GRID_BLOCK_BYTES", block)
    assert "".join(cli._grid_text(table, fmt)) == grid_text_by_cells(table.tolist(), fmt)


@pytest.mark.parametrize("fmt", sorted(cli.GRID_CELLS))
def test_grid_text_crosses_the_row_block_boundary(fmt):
    sep, texts = cli.GRID_CELLS[fmt]
    cols = 300
    per_block = cli.GRID_BLOCK_BYTES // (cols * len(texts[0] + sep) + 1 - len(sep))
    table = np.random.default_rng(19).integers(0, 3, (2 * per_block + 1, cols), dtype=np.int8)
    blocks = list(cli._grid_text(table, fmt))
    assert len(blocks) == 3 + (fmt == "ppm")
    assert "".join(blocks) == grid_text_by_cells(table.tolist(), fmt)


@pytest.mark.parametrize("fmt", sorted(cli.GRID_CELLS))
def test_grid_text_splits_a_wide_row(fmt):
    # One row of two and a half blocks of cells at the real block size:
    # three blocks, the newline only after the last.
    per_block = cli.GRID_BLOCK_BYTES // cli._GRID_LUTS[fmt].itemsize
    table = np.random.default_rng(43).integers(0, 3, (1, 5 * per_block // 2), dtype=np.int8)
    blocks = list(cli._grid_text(table, fmt))
    assert len(blocks) == 3 + (fmt == "ppm")
    assert [block.count("\n") for block in blocks[-3:]] == [0, 0, 1]
    assert "".join(blocks) == grid_text_by_cells(table.tolist(), fmt)


@given(kind=st.sampled_from(["gamma", "delta"]), table=GRID_TABLES, block=st.integers(1, 400))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_grid_json_matches_json_dumps(monkeypatch, kind, table, block):
    # A small block size puts row-block boundaries, and cuts inside a
    # row, in these tables.
    monkeypatch.setattr(cli, "GRID_BLOCK_BYTES", block)
    rows, cols = table.shape
    want = json.dumps({"kind": kind, "n_max": rows, "p_max": cols - 1, "rows": table.tolist()},
                      sort_keys=True) + "\n"
    assert "".join(cli._grid_json(table, kind)) == want


def test_grid_json_crosses_the_row_block_boundary():
    rows = 2 * (cli.GRID_BLOCK_BYTES // (3 * 300 + 2)) + 1
    table = np.random.default_rng(42).integers(0, 3, (rows, 300), dtype=np.int8)
    blocks = list(cli._grid_json(table, "delta"))
    assert len(blocks) == 4
    assert "".join(blocks) == json.dumps({"kind": "delta", "n_max": rows, "p_max": 299,
                                          "rows": table.tolist()}, sort_keys=True) + "\n"


def test_grid_cells_share_one_width():
    for fmt, (sep, texts) in cli.GRID_CELLS.items():
        assert {len(text + sep) for text in texts} == {cli._GRID_LUTS[fmt].itemsize}, fmt
    # A darker blue is one digit short, so its cells could not be
    # looked up at a fixed width.
    with pytest.raises(ValueError, match="width"):
        cli._cell_lut(" ", ("0 0 25", "0 200 0", "255 0 0"))
    with pytest.raises(ValueError, match="separator"):
        cli._cell_lut(", ", ("0", "1", "2"))


def test_period(capsys):
    code, out = run(capsys, "period", "-p", "2")
    assert (code, out) == (0, "12\n")


def test_series_rational(capsys):
    code, out = run(capsys, "series", "--kind", "gamma", "-p", "0")
    assert (code, out) == (0, "(2 + x + x^2 + 2x^3)/(1 - x^4)\n")


def test_series_coeffs(capsys):
    code, out = run(capsys, "series", "--kind", "delta", "-p", "2",
                    "--format", "coeffs")
    assert (code, out) == (0, "1,1,1,1,0,0,2,2,2,2,0,0\n")
    # Written by the csv row formatter, as the comma-joined coefficients.
    for kind, build in (("gamma", series.series_gamma), ("delta", series.series_delta)):
        for p in (0, 1, 5, 400, 3 ** 8):
            code, out = run(capsys, "series", "--kind", kind, "-p", str(p), "--format", "coeffs")
            assert (code, out) == (0, ",".join(map(str, build(p).coeffs)) + "\n"), (kind, p)


@pytest.mark.parametrize("kind", ["gamma", "delta"])
def test_series_negative_p_names_p(capsys, kind):
    # period reads the same column scan as series, and names only p too.
    for command in ("period", "series"):
        code = cli.main([command, "--kind", kind, "-p", "-2"])
        captured = capsys.readouterr()
        assert code == 2, command
        assert captured.out == "", command
        assert captured.err == "error: need p >= 0\n", command


@pytest.mark.parametrize("command", ["period", "series"])
@pytest.mark.parametrize("p", [3 ** 11 + 1, 3 ** 40])
def test_column_scan_over_the_cap_names_p(capsys, command, p):
    code = cli.main([command, "-p", str(p)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: column p = {p} needs a scan of ")


def test_kernel_summary(capsys):
    code, out = run(capsys, "kernel", "--start", "gamma")
    assert code == 0
    assert out == "start gamma\nstates 1632\n"


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_kernel_nonpositive_cap_is_usage_error(capsys, cap):
    code = cli.main(["kernel", "--cap", cap])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "positive integer" in captured.err


def test_kernel_over_the_cap_is_usage_error(capsys):
    # A refused closure falsifies nothing, so it is not exit 1.
    code = cli.main(["kernel", "--cap", "100"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "cap of 100 states" in captured.err


def test_dfao_table_round_trip(capsys):
    code, out = run(capsys, "dfao", "--export", "table")
    assert code == 0
    assert parse_dfao_table(out) == build_dfao("gamma")


def test_dfao_eval(capsys):
    for n, p, want in ((1, 0, "1"), (3, 0, "2"), (0, 0, "2")):
        code, out = run(capsys, "dfao-eval", "-n", str(n), "-p", str(p))
        assert (code, out) == (0, want + "\n")


# Calls in an order that would show state one call leaves in the parser:
# a refused call before a valid one, options given then left to their
# defaults, formats alternating, a refused cap then the default.
PARSER_SCRIPT = (
    ("grid", "--n-max", "x", "--p-max", "3"),
    ("grid", "--n-max", "3", "--p-max", "3"),
    ("verify", "--oracle", "--n-max", "3", "--p-max", "4"),
    ("verify", "--oracle"),
    ("grid", "--n-max", "4", "--p-max", "2", "--format", "ppm"),
    ("grid", "--n-max", "4", "--p-max", "2"),
    ("grid", "--kind", "delta", "--n-max", "4", "--p-max", "2", "--format", "csv"),
    ("grid", "--n-max", "4", "--p-max", "2", "--format", "json"),
    ("grid", "--n-max", "4", "--p-max", "2"),
    ("kernel", "--cap", "5"),
    ("kernel",),
)


def test_cached_parser_leaks_no_state(capsys, monkeypatch):
    cached = [run(capsys, *argv) for argv in PARSER_SCRIPT]
    assert cli._build_parser() is cli._build_parser()
    assert [code for code, _ in cached] == [2, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0]
    _, (n_max, p_max) = checks.VERIFY_GROUPS["oracle"][0]
    assert f"n <= {n_max}, 0 <= p <= {p_max}," in cached[3][1]
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert [run(capsys, *argv) for argv in PARSER_SCRIPT] == cached


# Hostile arguments: an integer of any sign and size, or any short text.
# Each command may exit 0, 1 or 2, never with a traceback; a refusal
# prints nothing on stdout and one error or usage message on stderr.
HOSTILE_ARG = st.one_of(st.integers(-3 ** 40, 3 ** 40).map(str), st.integers(-5, 100).map(str),
                        st.text(max_size=6))
HOSTILE_SETTINGS = settings(max_examples=25, deadline=None,
                            suppress_health_check=[HealthCheck.function_scoped_fixture])


def _run_hostile(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), argv
    if code == 0:
        assert err == "" and out.endswith("\n"), argv
    else:
        assert out == "", argv
        assert err.startswith(("error: ", "usage: ")), argv
    return code, out


@given(start=st.sampled_from(["gamma", "delta", "omega", ""]),
       export=st.sampled_from(["table", "dot", "svg", ""]))
@HOSTILE_SETTINGS
def test_hostile_dfao_arguments(capsys, start, export):
    code, out = _run_hostile(capsys, ["dfao", "--start", start, "--export", export])
    assert code == (0 if start in ("gamma", "delta") and export in ("table", "dot") else 2)


@given(start=st.sampled_from(["gamma", "delta"]),
       cap=st.one_of(HOSTILE_ARG, st.sampled_from(["1631", "1632"])))
@HOSTILE_SETTINGS
def test_hostile_kernel_arguments(capsys, start, cap):
    code, out = _run_hostile(capsys, ["kernel", "--start", start, "--cap", cap])
    try:
        value = int(cap)  # as argparse reads it
    except ValueError:
        value = None
    if value is not None and value >= 1632:
        assert (code, out) == (0, f"start {start}\nstates 1632\n"), (start, cap)
    else:
        assert code == 2, (start, cap)


@given(start=st.sampled_from(["gamma", "delta", "omega"]), n=HOSTILE_ARG, p=HOSTILE_ARG)
@HOSTILE_SETTINGS
def test_hostile_dfao_eval_arguments(capsys, start, n, p):
    code, out = _run_hostile(capsys, ["dfao-eval", "--start", start, "-n", n, "-p", p])
    if code == 0:
        # Held to the splitting recursion, not to the engine's cells,
        # which walk the minimal automata too.
        value = split_cell("G" if start == "gamma" else "D", int(n), int(p))
        assert out == f"{value}\n", (start, n, p)


@given(kind=st.sampled_from(["gamma", "delta", "omega"]), n_max=HOSTILE_ARG, p_max=HOSTILE_ARG,
       fmt=st.sampled_from(["ppm", "csv", "ascii", "json"]))
@HOSTILE_SETTINGS
def test_hostile_grid_arguments(capsys, kind, n_max, p_max, fmt):
    code, out = _run_hostile(capsys, ["grid", "--kind", kind, "--n-max", n_max,
                                      "--p-max", p_max, "--format", fmt])
    assert code in (0, 2), (kind, n_max, p_max, fmt)
    if code == 0:
        rows = engine.grid(1, int(n_max), 0, int(p_max), kind)
        if fmt == "json":
            want = json.dumps({"kind": kind, "n_max": int(n_max), "p_max": int(p_max),
                               "rows": rows}, sort_keys=True) + "\n"
        else:
            want = grid_text_by_cells(rows, fmt)
        assert out == want, (kind, n_max, p_max, fmt)


# Index arguments at the edges of the cell's domain: the digit cap and
# the rows below 0 (delta has a boundary row at n = -1, gamma none).
CELL_INDEX = st.one_of(HOSTILE_ARG, st.sampled_from(
    [str(3 ** engine.MAX_INDEX_DIGITS + k) for k in (-1, 0, 1)] + ["-1", "-2"]))


@given(kind=st.sampled_from(["gamma", "delta", "omega"]), n=CELL_INDEX, p=CELL_INDEX)
@HOSTILE_SETTINGS
def test_hostile_cell_arguments(capsys, kind, n, p):
    code, out = _run_hostile(capsys, ["cell", "--kind", kind, "-n", n, "-p", p])
    assert code in (0, 2), (kind, n, p)
    if code == 0 and int(n) >= 0:
        assert out == f"{build_dfao(kind).evaluate(int(n), int(p))}\n", (kind, n, p)
    elif code == 0:
        # The boundary row of delta: 1 at p = 0, else 0.
        assert (kind, int(n), out) == ("delta", -1, f"{int(int(p) == 0)}\n"), p


@given(kind=st.sampled_from(["gamma", "delta", "omega"]), p=HOSTILE_ARG)
@HOSTILE_SETTINGS
def test_hostile_period_arguments(capsys, kind, p):
    code, out = _run_hostile(capsys, ["period", "--kind", kind, "-p", p])
    if code == 0:
        assert (12 * 3 ** 11) % int(out) == 0, (kind, p)


@given(kind=st.sampled_from(["gamma", "delta", "omega"]), p=HOSTILE_ARG,
       fmt=st.sampled_from(["rational", "coeffs", "latex"]))
@HOSTILE_SETTINGS
def test_hostile_series_arguments(capsys, kind, p, fmt):
    code, out = _run_hostile(capsys, ["series", "--kind", kind, "-p", p, "--format", fmt])
    assert code != 1, (kind, p, fmt)
    if code == 0:
        assert out.count("\n") == 1, (kind, p, fmt)


@given(kind=st.sampled_from(["c", "d", "e"]), start=HOSTILE_ARG, count=HOSTILE_ARG,
       fmt=st.sampled_from(["raw", "csv", "json", "xml"]))
@example(kind="c", start="0", count=str(MAX_SLICE_COUNT + 1), fmt="raw")
@example(kind="d", start=str(3 ** 40), count="5", fmt="json")
@HOSTILE_SETTINGS
def test_hostile_seq_arguments(capsys, kind, start, count, fmt):
    code, out = _run_hostile(capsys, ["seq", "--kind", kind, "--start", start,
                                      "--count", count, "--format", fmt])
    assert code in (0, 2), (kind, start, count, fmt)
    if code == 0:
        values = sequence_slice(kind, int(start), int(count))
        if fmt == "raw":
            assert out == " ".join(map(str, values)) + "\n", (kind, start, count)
        elif fmt == "csv":
            assert out.count("\n") == 1 + len(values), (kind, start, count)
        else:
            assert json.loads(out)["values"] == values, (kind, start, count)


# An offset of 4,000 decimal digits, about the most an argument may have
# (Python parses at most 4,300), base-3 digits 2 and 0 alternating.
HUGE_OFFSET = 6 * (9 ** 4191 - 1) // 8


def test_seq_at_a_4000_digit_start(capsys):
    assert len(str(HUGE_OFFSET)) == 4000
    code, out = _run_hostile(capsys, ["seq", "--kind", "d", "--start", str(HUGE_OFFSET),
                                      "--count", "50"])
    values = [diff_term(HUGE_OFFSET + k) for k in range(50)]
    assert any(values)
    assert (code, out) == (0, " ".join(map(str, values)) + "\n")


class _DigestSink:
    """A stdout that keeps only a digest and a byte count of its text."""

    def __init__(self):
        self.digest, self.size = hashlib.sha256(), 0

    def write(self, text):
        self.digest.update(text.encode())
        self.size += len(text)

    def flush(self):
        pass


def test_seq_raw_writes_a_million_terms_in_blocks(monkeypatch):
    # Joining a million str objects peaked at about 65 MB traced (113 MB
    # RSS in a fresh process); blocks of cells leave about 3 MB.
    want = " ".join(map(str, sequence_slice("d", 5, MAX_SLICE_COUNT))) + "\n"
    sink = _DigestSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = cli.main(["seq", "--kind", "d", "--start", "5",
                         "--count", str(MAX_SLICE_COUNT)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert (sink.size, sink.digest.hexdigest()) == \
        (len(want), hashlib.sha256(want.encode()).hexdigest())
    assert peak < 6 * 2 ** 20, peak


def _seq_csv_by_lines(start, values):
    return "n,value\n" + "".join(f"{start + i},{v}\n" for i, v in enumerate(values))


@pytest.mark.parametrize("start, count", [
    (0, 0), (0, 1), (95, 20), (999_995, 10), (999_995, 1000), (10 ** 50 - 3, 30),
    (10 ** 6 - 1, 9), (HUGE_OFFSET, 3), (HUGE_OFFSET - 10 ** 20 + 7, 2000)])
def test_seq_csv_counts_in_the_low_digits(capsys, start, count):
    # Empty and one-line slices, and starts whose low digits carry into
    # the high ones within the slice, from a start of 0 or 4,000 digits.
    code, out = run(capsys, "seq", "--kind", "d", "--start", str(start),
                    "--count", str(count), "--format", "csv")
    assert (code, out) == (0, _seq_csv_by_lines(start, sequence_slice("d", start, count)))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="needs the int to str conversion limit")
def test_seq_csv_converts_the_start_once(monkeypatch):
    # Under a limit of 640 digits, a 645-digit index cannot be written as
    # one number, but its 640 high digits can: csv lines must be built
    # from the high digits and a count in the low ones, not one
    # conversion of the whole index a line.
    start = 10 ** 644 + 123_456_789
    args = cli._build_parser().parse_args(
        ["seq", "--kind", "c", "--start", str(start), "--count", "2000", "--format", "csv"])
    sink = _DigestSink()
    monkeypatch.setattr(sys, "stdout", sink)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = args.func(args)
    finally:
        sys.set_int_max_str_digits(limit)
    want = _seq_csv_by_lines(start, sequence_slice("c", start, 2000)).encode()
    assert (code, sink.digest.hexdigest()) == (0, hashlib.sha256(want).hexdigest())


def test_import_reads_mpmath_only_for_irr():
    code = ("import sys, cantor_hankel.cli; assert 'mpmath' not in sys.modules; "
            "from cantor_hankel import cli; cli.main(['irr', '-b', '2', '--n-max', '3']); "
            "assert 'mpmath' in sys.modules")
    done = _run_cli([], ["-c", code])
    assert (done.returncode, done.stderr) == (0, "")


@pytest.mark.parametrize("kind", ["gamma", "delta"])
@pytest.mark.parametrize("mod3", [False, True])
def test_det_at_a_4000_digit_offset(capsys, kind, mod3):
    code, out = _run_hostile(capsys, ["det", "--kind", kind, "-p", str(HUGE_OFFSET),
                                      "-n", "20"] + ["--mod3"] * mod3)
    m = hankel_by_terms(kind, HUGE_OFFSET, 1, 20)[0]
    assert (code, out) == (0, f"{det_mod3(m) if mod3 else det_exact(m)}\n")


@given(n=HOSTILE_ARG, verify=st.booleans())
@example(n=str(MAX_PADE_ORDER), verify=False)
@example(n=str(MAX_PADE_ORDER + 1), verify=True)
@HOSTILE_SETTINGS
def test_hostile_pade_arguments(capsys, n, verify):
    code, out = _run_hostile(capsys, ["pade", "-n", n] + ["--verify"] * verify)
    assert code in (0, 2), (n, verify)
    if code == 0:
        lines = out.splitlines()
        assert lines[0] == f"order {int(n)}" and len(lines) == 3 + verify, (n, verify)
        assert not verify or lines[3].startswith("error-law ok"), n


@given(deg=HOSTILE_ARG)
@example(deg=str(MAX_FEQ_DEGREE))
@example(deg=str(MAX_FEQ_DEGREE + 1))
@HOSTILE_SETTINGS
def test_hostile_feq_arguments(capsys, deg):
    code, out = _run_hostile(capsys, ["feq", "--deg", deg])
    assert code in (0, 2), deg
    if code == 0:
        assert out == f"ok functional equation through degree {int(deg)}\n", deg


@given(b=HOSTILE_ARG, n_max=HOSTILE_ARG, fmt=st.sampled_from(["table", "json", "csv"]))
@example(b="2", n_max=str(MAX_IRR_ORDER), fmt="table")
@example(b=str(MAX_BASE), n_max=str(MAX_IRR_ORDER), fmt="json")
@example(b=str(MAX_BASE + 1), n_max="3", fmt="table")
@HOSTILE_SETTINGS
def test_hostile_irr_arguments(capsys, b, n_max, fmt):
    code, out = _run_hostile(capsys, ["irr", "-b", b, "--n-max", n_max, "--format", fmt])
    assert code in (0, 2), (b, n_max, fmt)
    if code == 0 and fmt == "table":
        assert out.count("\n") == 1 + int(n_max), (b, n_max)
    elif code == 0:
        assert [row["order"] for row in json.loads(out)] == list(range(1, int(n_max) + 1))


@given(b=HOSTILE_ARG, depth=HOSTILE_ARG)
@example(b="2", depth=str(MAX_ETA_DEPTH))
@example(b=str(MAX_BASE), depth="30")
@example(b=str(MAX_BASE + 1), depth="30")
@HOSTILE_SETTINGS
def test_hostile_eta_arguments(capsys, b, depth):
    code, out = _run_hostile(capsys, ["eta", "-b", b, "--depth", depth])
    assert code in (0, 2), (b, depth)
    if code == 0:
        assert out.splitlines()[-1] == "ok" and out.count("\n") == 3, (b, depth)


def test_pade_output(capsys):
    code, out = run(capsys, "pade", "-n", "2")
    assert code == 0
    assert out == "order 2\nnumerator -1\ndenominator -1,0,1\n"


def test_pade_verify(capsys):
    code, out = run(capsys, "pade", "-n", "5", "--verify")
    assert code == 0
    assert "error-law ok" in out


# SHA-256 of `pade` stdout, pinned from the per-order elimination that
# the J-fraction pass replaced.
PADE_DIGESTS = {
    ("-n", "60"): "e5eebce7a45ff916492cdd2fa0bbfdbfc5772b2582ddb4aec74788c9976f49e8",
    ("-n", "120"): "f5763cc42a2402d1ab0ad6aa3a50d2ec1089ee84b1bf918967a75b99bea73ae6",
    ("-n", "200"): "2f02539dc767f3e8017ee91ee6220fe9243f750e1b0513b9512538b867b6b82d",
    ("-n", "40", "--verify"):
        "ec17b5504c3b6aa2b08c15747a51f4e260a3531d45e7a0a255c860af3bb0ccb4",
}


@pytest.mark.parametrize("argv", sorted(PADE_DIGESTS),
                         ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_pade_output_is_pinned(capsys, argv):
    code, out = run(capsys, "pade", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PADE_DIGESTS[argv]


def test_feq(capsys):
    code, out = run(capsys, "feq", "--deg", "200")
    assert (code, out) == (0, "ok functional equation through degree 200\n")


def test_irr_table(capsys):
    code, out = run(capsys, "irr", "-b", "2", "--n-max", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "order p q mu_lo mu_hi note"
    assert lines[1] == "1 1 1 - - integer value"
    assert lines[2].startswith("2 4 3 2.505")
    assert len(lines) == 4


def test_irr_json(capsys):
    code, out = run(capsys, "irr", "-b", "2", "--n-max", "2",
                    "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["degenerate"] is True
    assert rows[1]["q"] == 3


# SHA-256 of `irr` stdout.  The two text digests at b = 2 and 3 were
# pinned from the per-order elimination that the J-fraction pass
# replaced.  The JSON digest was re-pinned, and the one at b = 2**32
# pinned, when the high end of each window came to be rounded up to a
# float rather than toward zero: the JSON mu_hi values moved up one ulp, and
# at b = 2**32 the text rows of orders 13 and 21 moved too, whose
# truncated highs were exactly 277/128 and 269/128 and so printed
# rounded to even.
IRR_DIGESTS = {
    ("-b", "2", "--n-max", "100"):
        "4380f3b66da645570e071e31aa042e1c35410f0e4b247f928fa0923d1c467c05",
    ("-b", "3", "--n-max", "60"):
        "e48395d6297eec009b6a685a1e27128983091c41ef0f8b7c6253b7761e726434",
    ("-b", "2", "--n-max", "50", "--format", "json"):
        "764cc6b6038de268747919a121b30aa100d8e69c3dcc459ad1d8407f457e6d69",
    ("-b", "4294967296", "--n-max", "100"):
        "40ccb6e2df61f92abd8f401593b0a056df5dae9cb4cb8a436801cb477fc5ddeb",
}


@pytest.mark.parametrize("argv", sorted(IRR_DIGESTS),
                         ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_irr_output_is_pinned(capsys, argv):
    code, out = run(capsys, "irr", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == IRR_DIGESTS[argv]


@pytest.mark.parametrize("argv", [["pade", "-n", "2"], ["pade", "-n", "3", "--verify"],
                                  ["irr", "-b", "2", "--n-max", "4"]],
                         ids=["pade", "pade-verify", "irr"])
def test_missing_approximant_fails_cleanly(capsys, monkeypatch, argv):
    # f = 1 has H_2 = 0, so no approximant of order 2 exists.
    pade_module = importlib.import_module("cantor_hankel.pade")
    monkeypatch.setattr(pade_module, "cantor_coefficients",
                        lambda count: [1] + [0] * (count - 1))
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: no Pade approximant: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("n_max", ["0", "-1"])
def test_irr_empty_window_is_usage_error(capsys, n_max):
    code = cli.main(["irr", "-b", "2", "--n-max", n_max])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"max_order must be at least 1, got {n_max}" in captured.err


def test_eta(capsys):
    code, out = run(capsys, "eta", "-b", "2", "--depth", "20")
    assert code == 0
    assert out.splitlines()[-1] == "ok"


# `eta` stdout, pinned when both enclosures were reduced Fractions and
# the sums Horner loops; the sides now stay integers over their own
# denominators, whose true division rounds as float() of the Fraction did.
ETA_OUTPUTS = {
    ("2", "30"):
        "lhs [2.347680464387, 2.347680464853]\n"
        "rhs [2.347680464387, 2.347680464400]\n"
        "ok\n",
    ("10", "12"):
        "lhs [2.010102010000, 2.010102010000]\n"
        "rhs [2.010102010000, 2.010102010000]\n"
        "ok\n",
    ("3", "1000"):
        "lhs [2.126352718858, 2.126352718858]\n"
        "rhs [2.126352718858, 2.126352718858]\n"
        "ok\n",
    ("4294967296", "10000"):
        "lhs [2.000000000000, 2.000000000000]\n"
        "rhs [2.000000000000, 2.000000000000]\n"
        "ok\n",
}


@pytest.mark.parametrize("b, depth", sorted(ETA_OUTPUTS),
                         ids=[f"{b}-{depth}" for b, depth in sorted(ETA_OUTPUTS)])
def test_eta_output_is_pinned(capsys, b, depth):
    assert run(capsys, "eta", "-b", b, "--depth", depth) == (0, ETA_OUTPUTS[b, depth])


def test_verify_oracle_selection(capsys):
    code, out = run(capsys, "verify", "--oracle", "--n-max", "6", "--p-max", "6")
    assert code == 0
    assert out == "ok   oracle-equivalence: 1 <= n <= 6, 0 <= p <= 6, both families\n"


def _forbid_work(monkeypatch, table):
    """Fail on any engine cell, any call of engine.<table> and any
    elimination by the checks."""
    def no_work(*args):
        raise AssertionError("a cell or a determinant was computed")

    for target, name in ((engine, "gamma_mod3"), (engine, "delta_mod3"), (engine, table),
                         (checks, "minors_mod3_stack"), (checks, "hankel_stack")):
        monkeypatch.setattr(target, name, no_work)


def test_verify_oracle_over_the_order_cap_refuses_before_any_cell(capsys, monkeypatch):
    _forbid_work(monkeypatch, "tables")
    code = cli.main(["verify", "--oracle", "--n-max", str(MAX_HANKEL_ORDER + 1),
                     "--p-max", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"error: the oracle window needs n_max <= {MAX_HANKEL_ORDER}, "
                            f"got {MAX_HANKEL_ORDER + 1}\n")


@given(n_max=st.integers(-2, 4), p_max=st.integers(-2, 40))
@HOSTILE_SETTINGS
def test_verify_oracle_window_flags(capsys, n_max, p_max):
    code, out = _run_hostile(capsys, ["verify", "--oracle", "--n-max", str(n_max),
                                      "--p-max", str(p_max)])
    if n_max >= 1 and p_max >= 0:
        assert (code, out) == (0, f"ok   oracle-equivalence: 1 <= n <= {n_max}, "
                                  f"0 <= p <= {p_max}, both families\n")
    else:
        assert code == 2


def _oracle_work(n_max, p_max):
    # The order-n_max matrix at each offset, both families.
    return 2 * (p_max + 1) * n_max ** 3


# Up to n_max = 19 a window can be under the work cap but over the table
# engine's cell cap, n_max * (p_max + 1) cells: p_max from the cell cap's
# boundary to the work cap's.  The table builder, engine._level, stands
# in for every cell, so tables' own check is what refuses.
@given(st.integers(1, 19).flatmap(
    lambda n_max: st.tuples(st.just(n_max),
                            st.integers(engine.DEFAULT_GRID_CELL_CAP // n_max,
                                        checks.ORACLE_WORK_CAP // (2 * n_max ** 3) - 1))))
@example(window=(1, engine.DEFAULT_GRID_CELL_CAP))
@example(window=(19, 210526))
@HOSTILE_SETTINGS
def test_verify_oracle_over_the_cell_cap_refuses_before_any_work(capsys, monkeypatch, window):
    _forbid_work(monkeypatch, "_level")
    n_max, p_max = window
    assert _oracle_work(n_max, p_max) <= checks.ORACLE_WORK_CAP
    code = cli.main(["verify", "--oracle", "--n-max", str(n_max), "--p-max", str(p_max)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (f"error: table of {n_max * (p_max + 1)} cells exceeds the cap "
                            f"{engine.DEFAULT_GRID_CELL_CAP}\n")


# p_max from the work cap's boundary up, at every order: the work cap is
# checked before the table is read, so it refuses windows over the cell
# cap too.
@given(st.integers(1, MAX_HANKEL_ORDER).flatmap(
    lambda n_max: st.tuples(st.just(n_max),
                            st.integers(checks.ORACLE_WORK_CAP // (2 * n_max ** 3),
                                        10 ** 30))))
@example(window=(110, 1126))
@example(window=(MAX_HANKEL_ORDER, 12))
@example(window=(1, checks.ORACLE_WORK_CAP // 2))
@HOSTILE_SETTINGS
def test_verify_oracle_over_the_work_cap_refuses_before_any_work(capsys, monkeypatch, window):
    _forbid_work(monkeypatch, "tables")
    n_max, p_max = window
    code = cli.main(["verify", "--oracle", "--n-max", str(n_max), "--p-max", str(p_max)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (f"error: the oracle window takes {_oracle_work(n_max, p_max)} "
                            f"units of elimination work, over the cap of "
                            f"{checks.ORACLE_WORK_CAP}\n")


def test_oracle_work_cap_admits_the_windows_in_use():
    # The verify default, CI's acceptance window and the benchmark's
    # sweeps; every order at p_max = 0; and the largest windows under the
    # cap at three orders, next to the smallest refused ones.
    for window in ((20, 27), (40, 81), (5, 10), (8, 27), (10, 27), (12, 20), (6, 81),
                   (MAX_HANKEL_ORDER, 0)):
        assert _oracle_work(*window) <= checks.ORACLE_WORK_CAP, window
    for n_max, p_max in ((500, 11), (200, 186), (120, 867)):
        assert _oracle_work(n_max, p_max) <= checks.ORACLE_WORK_CAP \
            < _oracle_work(n_max, p_max + 1), n_max
    # Up to n_max = 19 every window under the cell cap is under the work
    # cap too; from 20 the work cap refuses first.
    cap = engine.DEFAULT_GRID_CELL_CAP
    assert all(_oracle_work(n_max, cap // n_max - 1) <= checks.ORACLE_WORK_CAP
               for n_max in range(1, 20))
    assert _oracle_work(20, cap // 20 - 1) > checks.ORACLE_WORK_CAP


def _engine_wrong_at(cells):
    """An engine stand-in for checks whose tables are off by one at each
    (kind, n, p) in cells."""
    def tables(n_lo, n_hi, p_lo, p_hi):
        out = engine.tables(n_lo, n_hi, p_lo, p_hi)
        for kind, n, p in cells:
            if n_lo <= n <= n_hi and p_lo <= p <= p_hi:
                table = out[engine.KINDS.index(kind)]
                table[n - n_lo, p - p_lo] = (table[n - n_lo, p - p_lo] + 1) % 3
        return out

    return SimpleNamespace(KINDS=engine.KINDS, PRINTED_COLUMNS=engine.PRINTED_COLUMNS,
                           tables=tables)


# The default budget, and one small enough that every order of the
# window below takes three to six matrices at a time.
STACK_BUDGETS = (checks.STACK_ENTRIES, 400)


@pytest.mark.parametrize("stack_entries", STACK_BUDGETS)
@pytest.mark.parametrize("cells, first", [
    ({("delta", 7, 33)}, ("delta", 7, 33)),
    # Gamma before delta at one (n, p), p before a later p at that n, and
    # n before p: (5, 0) comes after every cell of row 4.
    ({("delta", 4, 10), ("gamma", 4, 10), ("gamma", 4, 30), ("delta", 5, 0)},
     ("gamma", 4, 10)),
    # p before the family: delta at an earlier p than gamma in one row.
    ({("gamma", 6, 20), ("delta", 6, 3), ("gamma", 7, 0)}, ("delta", 6, 3)),
], ids=["one-cell", "order-of-cells", "p-before-family"])
def test_oracle_check_names_its_first_mismatch(monkeypatch, stack_entries, cells, first):
    monkeypatch.setattr(checks, "STACK_ENTRIES", stack_entries)
    kind, n, p = first
    true = getattr(engine, f"{kind}_mod3")(n, p)
    monkeypatch.setattr(checks, "engine", _engine_wrong_at(cells))
    result = checks.oracle_equivalence(8, 40)
    assert result.line() == (f"FAIL oracle-equivalence: first mismatch {kind} at n={n} "
                             f"p={p}: engine {(true + 1) % 3}, determinant {true}")


@pytest.mark.parametrize("cells, message", [
    ({("delta", 9, 1)}, "column 1 pattern breaks at n=9: (0, 1)"),
    # Column 0 before column 1 at one n, whichever stream breaks, and an
    # earlier n before a later one.
    ({("delta", 12, 0), ("gamma", 12, 1), ("gamma", 40, 0)},
     "column 0 pattern breaks at n=12: (2, 2)"),
    # n before the column: column 1 at n = 5 before column 0 at n = 30.
    ({("delta", 30, 0), ("gamma", 5, 1)}, "column 1 pattern breaks at n=5: (1, 0)"),
], ids=["one-cell", "column-order", "n-order"])
def test_closed_form_check_names_its_first_break(monkeypatch, cells, message):
    monkeypatch.setattr(checks, "engine", _engine_wrong_at(cells))
    assert checks.closed_forms(50).line() == f"FAIL closed-forms: {message}"


def test_oracle_and_closed_form_checks_read_no_engine_cell(monkeypatch):
    # Both read one engine.tables rectangle; tables reads its smallest
    # rectangles through its own reference to the memo, not these names.
    def no_cell(*args):
        raise AssertionError("an engine cell was read")

    monkeypatch.setattr(engine, "gamma_mod3", no_cell)
    monkeypatch.setattr(engine, "delta_mod3", no_cell)
    for group in ("oracle", "closed-forms"):
        assert all(result.ok for result in checks.run_group(group)), group


def test_tables_and_every_check_group_never_walk_the_minimal_automata(monkeypatch):
    # dfao-grid puts tables() on trial against the automata, so tables()
    # may not read the minimal automata the cells walk, and no check may
    # read a cell.
    def no_walk(*args):
        raise AssertionError("a cell or the minimal automaton was read")

    for name in ("gamma_mod3", "delta_mod3", "_walk"):
        monkeypatch.setattr(engine, name, no_walk)
    # Cell-by-cell rectangles, among them one cell at 151 digits, and a split one.
    for n_lo, n_hi, p_lo, p_hi in ((-1, 3, 0, 1), (2, 2, 3 ** 150, 3 ** 150), (1, 40, 0, 39)):
        engine.tables(n_lo, n_hi, p_lo, p_hi)
    for group in checks.VERIFY_GROUPS:
        assert all(result.ok for result in checks.run_group(group)), group


@pytest.mark.parametrize("n_max", [2_000_001, 10 ** 9])
def test_closed_form_check_over_the_cell_cap_refuses_before_any_cell(monkeypatch, n_max):
    # Two cells per row: more than half the cell cap in rows is refused.
    _forbid_work(monkeypatch, "_level")
    with pytest.raises(ValueError, match=f"table of {2 * n_max} cells exceeds the cap "
                                         f"{engine.DEFAULT_GRID_CELL_CAP}"):
        checks.closed_forms(n_max)


def test_closed_form_check_at_the_cell_cap_passes():
    # The tallest table the cap admits: two columns of 2,000,000 rows.
    assert checks.closed_forms(2_000_000).ok


def test_oracle_check_stacks_stay_within_their_budget(monkeypatch):
    shapes = []
    minors = checks.minors_mod3_stack

    def recorded(stack):
        shapes.append(stack.shape)
        return minors(stack)

    monkeypatch.setattr(checks, "minors_mod3_stack", recorded)
    monkeypatch.setattr(checks, "STACK_ENTRIES", 400)
    result = checks.oracle_equivalence(8, 40)
    assert result.line() == "ok   oracle-equivalence: 1 <= n <= 8, 0 <= p <= 40, both families"
    # Only order 8 is eliminated, three offsets at a time.
    for count, n, _ in shapes:
        assert n == 8 and count * (n * n + checks.STACK_OVERHEAD) <= 400, (count, n)
    assert sum(count for count, _, _ in shapes) == 2 * 41
    assert len(shapes) == 2 * 14


def test_oracle_check_stack_memory_is_bounded_at_every_order():
    # The budget holds whatever p_max is: one stack at a time is live.
    for n in (1, 10, 40, 362):
        count = max(1, checks.STACK_ENTRIES // (n * n + checks.STACK_OVERHEAD))
        tracemalloc.start()
        try:
            checks.minors_mod3_stack(checks.hankel_stack("delta", 12345, n, count))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024, (n, count, peak)


@pytest.mark.parametrize("bounds, named", [
    (("--n-max", "-1", "--p-max", "2"), "n_max >= 1, got -1"),
    (("--n-max", "0", "--p-max", "2"), "n_max >= 1, got 0"),
    (("--n-max", "3", "--p-max", "-1"), "p_max >= 0, got -1"),
], ids=["n_max=-1", "n_max=0", "p_max=-1"])
def test_verify_oracle_empty_window_is_usage_error(capsys, bounds, named):
    code = cli.main(["verify", "--oracle", *bounds])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert named in captured.err


@pytest.mark.parametrize("check, window, named", [
    ("kernel_soundness", (-1,), "window >= 0, got -1"),
    ("dfao_grid", (0, -5), "n_max >= 1, got 0"),
    ("structure_identities", (0, 0), "n_max >= 1, got 0"),
    ("splitting_exact", (5, 2, 3), "n_hi >= 5, got 2"),
    ("closed_forms", (0,), "n_max >= 1, got 0"),
    ("period_bounds", ((),), "len(k_values) >= 1, got 0"),
    ("pade_error_law", (0,), "max_order >= 1, got 0"),
    ("period_bounds", ((-1,),), "k >= 0, got -1"),
    ("splitting_exact", (0, 1, 1), "n_lo >= 1, got 0"),
    ("splitting_mod3", (0, 1, 1), "n_lo >= 1, got 0"),
])
def test_check_refuses_empty_window(check, window, named):
    # Each of these windows would pass without comparing anything.
    with pytest.raises(ValueError, match=re.escape(named)):
        getattr(checks, check)(*window)


def test_dfao_check_over_the_cell_cap_refuses_before_any_closure(monkeypatch):
    def no_work(*args):
        raise AssertionError("a closure, lattice or automaton was built")

    for target, name in ((kernel, "kernel_closure"), (kernel, "build_dfao"),
                         (engine, "witness_lattices")):
        monkeypatch.setattr(target, name, no_work)
    with pytest.raises(ValueError, match=f"table of {2001 * 2000} cells exceeds the cap "
                                         f"{engine.DEFAULT_GRID_CELL_CAP}"):
        checks.dfao_grid(2001, 1999)


def test_dfao_check_reads_the_engine_as_one_table(monkeypatch):
    calls = split_value_calls(monkeypatch)
    assert checks.dfao_grid().ok
    # One table, rows 1 .. 96 by columns 0 .. 127, a copy of the cells
    # of the corner built at import: it computes no cell one by one (52
    # before the corner, when its levels ended there); a recursion read
    # per cell would compute about 13,000.
    assert calls == []


def test_dfao_check_names_the_first_cell_of_a_flipped_output(monkeypatch):
    dfao = build_dfao("gamma")
    # With outputs 0, 1, 2, ... the automaton returns the state it ends in.
    final_state = kernel.Dfao2D(dfao.start, tuple(range(dfao.n_states)),
                                dfao.transitions).evaluate
    flipped = final_state(7, 11)
    first = next((n, p) for n in range(1, 17) for p in range(17)
                 if final_state(n, p) == flipped)
    outputs = list(dfao.outputs)
    outputs[flipped] = (outputs[flipped] + 1) % 3
    monkeypatch.setattr(kernel, "build_dfao", lambda start: kernel.Dfao2D(
        dfao.start, tuple(outputs), dfao.transitions))
    result = checks.dfao_grid(16, 16)
    assert not result.ok
    assert result.detail == "mismatch at n={} p={}".format(*first)


def test_dfao_check_names_the_first_mismatch_across_blocks(monkeypatch):
    # Blocks of 37 cells, which split rows, find the mismatch of the
    # flipped output that one block finds: n=5 p=1, cell 69 of the
    # 16 x 17 window, in the second block.
    dfao = build_dfao("gamma")
    outputs = list(dfao.outputs)
    flipped = dfao.transitions[dfao.transitions[0][3 * 2 + 1]][3 * 1]
    outputs[flipped] = (outputs[flipped] + 1) % 3
    monkeypatch.setattr(kernel, "build_dfao", lambda start: kernel.Dfao2D(
        dfao.start, tuple(outputs), dfao.transitions))
    whole = checks.dfao_grid(16, 16)
    monkeypatch.setattr(engine, "_GATHER_BYTES", 8 * 37)
    assert not whole.ok
    assert checks.dfao_grid(16, 16) == whole


# dfao_grid(600, 599) walked its 360,000 cells at once and peaked at
# 27 MB (tracemalloc, closures built); in blocks of
# engine._GATHER_BYTES // 8 cells it peaks at about 5.7 MB.
DFAO_GRID_PEAK_BUDGET = 10_000_000


def test_dfao_check_memory_is_bounded_by_its_block():
    assert checks.dfao_grid(1, 0).ok
    tracemalloc.start()
    try:
        result = checks.dfao_grid(600, 599)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.ok
    assert peak < DFAO_GRID_PEAK_BUDGET


def test_verify_dfao_checks_states_the_window_never_ends_in(monkeypatch, capsys):
    # No cell of the window ends in state 100; its witness is (3, 0, 12).
    dfao = build_dfao("gamma")
    outputs = list(dfao.outputs)
    outputs[100] = (outputs[100] + 1) % 3
    monkeypatch.setattr(kernel, "build_dfao", lambda start: kernel.Dfao2D(
        dfao.start, tuple(outputs), dfao.transitions))
    code, out = run(capsys, "verify", "--dfao")
    assert code == 1
    assert out == (f"FAIL dfao-grid: state 100 with witness (3,0,12) outputs "
                   f"{outputs[100]}, engine {dfao.outputs[100]}\n")


def test_verify_selection_is_deterministic(capsys):
    _, first = run(capsys, "verify", "--closed-forms", "--series")
    _, second = run(capsys, "verify", "--closed-forms", "--series")
    assert first == second
    assert first.count("\n") == 2


def test_verify_timings_go_to_stderr(capsys):
    code = cli.main(["verify", "--timings"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == EXPECTED_VERIFY.read_text()
    names = [line.split(":")[0].split()[1] for line in captured.out.splitlines()]
    timings = captured.err.splitlines()
    assert len(timings) == len(names) == 11
    for name, line in zip(names, timings):
        assert re.fullmatch(rf"timing {name} \d+\.\d{{3}} s", line), line


def test_verify_reports_failure(capsys, monkeypatch):
    monkeypatch.setattr(
        checks, "closed_forms",
        lambda n_max=2000: checks.CheckResult("closed-forms", False, "forced"))
    code, out = run(capsys, "verify", "--closed-forms")
    assert code == 1
    assert out == "FAIL closed-forms: forced\n"


def test_verify_reports_aperiodic_column(capsys, monkeypatch):
    # A column that is not 12 * 3**k-periodic fails its check by name,
    # and the groups after it still run.
    real = engine.column_period

    def broken(p, k_hint=0, kind="gamma"):
        if p == 5:
            raise RuntimeError("column 5 is not 36-periodic on the scanned window")
        return real(p, k_hint, kind)

    monkeypatch.setattr(engine, "column_period", broken)
    code, out = run(capsys, "verify", "--periods", "--feq")
    assert code == 1
    assert out.splitlines() == [
        "FAIL period-bounds: column 5 is not 36-periodic on the scanned window",
        "ok   functional-equation: through degree 600",
    ]


def test_verify_reports_a_missing_approximant(capsys, monkeypatch):
    # With c_1 flipped to 1, H_2 = c_0 c_2 - c_1^2 = 0, so the J-fraction
    # stops at order 2: the check fails by name instead of raising.
    block = sequences._CANTOR_BLOCK.copy()
    block[1] ^= 1
    monkeypatch.setattr(sequences, "_CANTOR_BLOCK", block)
    code, out = run(capsys, "verify", "--pade")
    assert code == 1
    assert out == "FAIL pade-error-law: order 2: eps_1 = 0 (H_2 = 0) at order 2\n"


def test_eta_failure_exit(capsys, monkeypatch):
    real = cli.eta_identity_check

    def broken(b, depth):
        report = real(b, depth)
        return type(report)(report.b, report.depth, report.lhs, report.rhs, False)

    monkeypatch.setattr(cli, "eta_identity_check", broken)
    code, out = run(capsys, "eta", "-b", "2", "--depth", "10")
    assert code == 1
    assert out.splitlines()[-1] == "FAIL"


def test_usage_errors(capsys):
    assert cli.main(["nonsense"]) == 2
    capsys.readouterr()
    assert cli.main(["det", "-p", "0"]) == 2
    capsys.readouterr()
    assert cli.main([]) == 2
    capsys.readouterr()


def test_domain_error_exit_code(capsys):
    code = cli.main(["seq", "--kind", "c", "--start", "-1", "--count", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv, named", [
    (["det", "-p", "0", "-n", str(MAX_HANKEL_ORDER + 1)],
     f"order n = {MAX_HANKEL_ORDER + 1} is over the cap"),
    (["seq", "--kind", "c", "--count", str(MAX_SLICE_COUNT + 1)],
     f"count {MAX_SLICE_COUNT + 1} is over the cap"),
    (["pade", "-n", str(MAX_PADE_ORDER + 1)],
     f"order n = {MAX_PADE_ORDER + 1} is over the cap"),
    (["irr", "-b", "2", "--n-max", str(MAX_IRR_ORDER + 1)],
     f"max_order {MAX_IRR_ORDER + 1} is over the cap"),
    (["feq", "--deg", str(MAX_FEQ_DEGREE + 1)],
     f"degree {MAX_FEQ_DEGREE + 1} is over the cap"),
    (["eta", "-b", "2", "--depth", str(MAX_ETA_DEPTH + 1)],
     f"depth {MAX_ETA_DEPTH + 1} is over the cap"),
    (["irr", "-b", str(MAX_BASE + 1), "--n-max", str(MAX_IRR_ORDER)],
     f"base b = {MAX_BASE + 1} is over the cap"),
    (["eta", "-b", str(MAX_BASE + 1), "--depth", str(MAX_ETA_DEPTH)],
     f"base b = {MAX_BASE + 1} is over the cap"),
    (["cell", "-n", str(3 ** engine.MAX_INDEX_DIGITS), "-p", "5"],
     f"n has more than {engine.MAX_INDEX_DIGITS} base-3 digits"),
    (["cell", "--kind", "delta", "-n", "5", "-p", str(3 ** engine.MAX_INDEX_DIGITS)],
     f"p has more than {engine.MAX_INDEX_DIGITS} base-3 digits"),
], ids=["det-n", "seq-count", "pade-n", "irr-n-max", "feq-deg", "eta-depth",
        "irr-b", "eta-b", "cell-n", "cell-p"])
def test_caps_refuse_before_any_work(argv, named):
    # A separate process under a timeout: past the cap the command must
    # exit 2 at once, not start the work.
    done = _run_cli(argv)
    assert done.returncode == 2
    assert done.stdout == ""
    assert named in done.stderr


@pytest.mark.parametrize("kind", ["gamma", "delta"])
def test_cell_just_under_the_digit_cap_returns_a_value(kind):
    # A fresh process under a recursion limit of 700: a cell walks the
    # minimal automaton in a loop, so its stack depth does not grow with
    # the digits (test_tables_at_the_digit_cap_fit_the_recursion_limit
    # holds the recursion behind the smallest tables to its depth).
    largest = str(3 ** engine.MAX_INDEX_DIGITS - 1)
    code = ("import sys; from cantor_hankel import cli; sys.setrecursionlimit(700); "
            "raise SystemExit(cli.main(sys.argv[1:]))")
    done = _run_cli(["cell", "--kind", kind, "-n", largest, "-p", largest], ["-c", code])
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout in ("0\n", "1\n", "2\n")


def test_tables_at_the_digit_cap_fit_the_recursion_limit():
    # The recursion behind the smallest rectangles of tables() spends two
    # frames per base-3 digit: one cell and a 3 x 3 table at 200 digits
    # need a recursion limit of 410 in a fresh process, so 460 leaves 50
    # frames; a third frame per digit (a module memo's wrapper) needs 612.
    largest = 3 ** engine.MAX_INDEX_DIGITS - 1
    code = ("import sys; from cantor_hankel import engine; "
            "sys.setrecursionlimit(460); n = int(sys.argv[1]); "
            "print([t.tolist() for t in engine.tables(n, n, n, n) + "
            "engine.tables(n - 2, n, n - 2, n)])")
    done = _run_cli([str(largest)], ["-c", code])
    assert (done.returncode, done.stderr) == (0, "")
    cells = [[[cell(n, p) for p in range(largest - k, largest + 1)]
              for n in range(largest - k, largest + 1)]
             for k in (0, 2) for cell in (engine.gamma_mod3, engine.delta_mod3)]
    assert done.stdout == f"{cells}\n"


def _run_cli(argv, entry=("-m", "cantor_hankel.cli")):
    env = dict(os.environ,
               PYTHONPATH=str(Path(cantor_hankel.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *entry, *argv],
                          capture_output=True, text=True, timeout=30, env=env)
