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

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cantor_hankel
from cantor_hankel import checks, cli, engine, kernel
from cantor_hankel.hankel import MAX_HANKEL_ORDER
from cantor_hankel.pade import (MAX_BASE, MAX_ETA_DEPTH, MAX_FEQ_DEGREE,
                                MAX_IRR_ORDER, MAX_PADE_ORDER)
from cantor_hankel.kernel import build_dfao, parse_dfao_table
from cantor_hankel.sequences import MAX_SLICE_COUNT

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


# Each distinct cap from the closure size up builds the closure again
# (about 0.2 s), so the draws stay few.
@given(start=st.sampled_from(["gamma", "delta"]),
       cap=st.one_of(HOSTILE_ARG, st.sampled_from(["1631", "1632"])))
@settings(HOSTILE_SETTINGS, max_examples=15)
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
        value = engine.gamma_mod3 if start == "gamma" else engine.delta_mod3
        assert out == f"{value(int(n), int(p))}\n", (start, n, p)


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


# SHA-256 of `irr` stdout, pinned from the per-order elimination that
# the J-fraction pass replaced.
IRR_DIGESTS = {
    ("-b", "2", "--n-max", "100"):
        "4380f3b66da645570e071e31aa042e1c35410f0e4b247f928fa0923d1c467c05",
    ("-b", "3", "--n-max", "60"):
        "e48395d6297eec009b6a685a1e27128983091c41ef0f8b7c6253b7761e726434",
    ("-b", "2", "--n-max", "50", "--format", "json"):
        "72ac5d338320e1f4eea8700598569f1e7717fcc67d657d36a19eb28720f930ce",
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


def test_verify_oracle_selection(capsys):
    code, out = run(capsys, "verify", "--oracle", "--n-max", "6", "--p-max", "6")
    assert code == 0
    assert out == "ok   oracle-equivalence: 1 <= n <= 6, 0 <= p <= 6, both families\n"


def test_verify_oracle_over_the_order_cap_refuses_before_any_cell(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("a cell or a determinant was computed")

    for target, name in ((engine, "gamma_mod3"), (engine, "delta_mod3"),
                         (checks, "det_mod3_stack"), (checks, "hankel_stack")):
        monkeypatch.setattr(target, name, no_work)
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


# p_max from ORACLE_READ_CAP // 2 makes more than ORACLE_READ_CAP reads
# at every n_max >= 1.
@given(n_max=st.integers(1, 4),
       p_max=st.one_of(st.integers(checks.ORACLE_READ_CAP // 2, 10 ** 6),
                       st.integers(10 ** 6, 10 ** 30)))
@HOSTILE_SETTINGS
def test_verify_oracle_over_the_read_cap_refuses_before_any_work(capsys, monkeypatch,
                                                                 n_max, p_max):
    def no_work(*args):
        raise AssertionError("a cell or a determinant was computed")

    for target, name in ((engine, "gamma_mod3"), (engine, "delta_mod3"),
                         (checks, "det_mod3_stack"), (checks, "hankel_stack")):
        monkeypatch.setattr(target, name, no_work)
    code = cli.main(["verify", "--oracle", "--n-max", str(n_max), "--p-max", str(p_max)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (f"error: the oracle window makes {2 * n_max * (p_max + 1)} "
                            f"engine reads, over the cap of {checks.ORACLE_READ_CAP}\n")


def _oracle_work(n_max, p_max):
    return sum(n ** 3 for n in range(1, n_max + 1)) * 2 * (p_max + 1)


# Orders from 278, where p_max = 0 already passes ORACLE_WORK_CAP, and
# p_max under the read cap, so the work cap is what refuses.
@given(st.integers(278, MAX_HANKEL_ORDER).flatmap(
    lambda n_max: st.tuples(st.just(n_max),
                            st.integers(0, checks.ORACLE_READ_CAP // (2 * n_max) - 1))))
@HOSTILE_SETTINGS
def test_verify_oracle_over_the_work_cap_refuses_before_any_work(capsys, monkeypatch, window):
    def no_work(*args):
        raise AssertionError("a cell or a determinant was computed")

    for target, name in ((engine, "gamma_mod3"), (engine, "delta_mod3"),
                         (checks, "det_mod3_stack"), (checks, "hankel_stack")):
        monkeypatch.setattr(target, name, no_work)
    n_max, p_max = window
    code = cli.main(["verify", "--oracle", "--n-max", str(n_max), "--p-max", str(p_max)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (f"error: the oracle window takes {_oracle_work(n_max, p_max)} "
                            f"units of elimination work, over the cap of "
                            f"{checks.ORACLE_WORK_CAP}\n")


def test_oracle_work_cap_admits_the_windows_in_use():
    # The verify default, CI's acceptance window and the benchmark's
    # sweeps, next to the smallest refused order at p_max = 0.
    for window in ((20, 27), (40, 81), (5, 10), (8, 27), (10, 27), (12, 20), (6, 81)):
        assert _oracle_work(*window) <= checks.ORACLE_WORK_CAP, window
    assert _oracle_work(277, 0) <= checks.ORACLE_WORK_CAP < _oracle_work(278, 0)


def _engine_wrong_at(cells):
    """An engine stand-in for checks that is off by one at (kind, n, p) in cells."""
    def stream(kind):
        true = getattr(engine, f"{kind}_mod3")
        return lambda n, p: (true(n, p) + ((kind, n, p) in cells)) % 3

    return SimpleNamespace(KINDS=engine.KINDS, gamma_mod3=stream("gamma"),
                           delta_mod3=stream("delta"))


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
], ids=["one-cell", "order-of-cells"])
def test_oracle_check_names_its_first_mismatch(monkeypatch, stack_entries, cells, first):
    monkeypatch.setattr(checks, "STACK_ENTRIES", stack_entries)
    kind, n, p = first
    true = getattr(engine, f"{kind}_mod3")(n, p)
    monkeypatch.setattr(checks, "engine", _engine_wrong_at(cells))
    result = checks.oracle_equivalence(8, 40)
    assert result.line() == (f"FAIL oracle-equivalence: first mismatch {kind} at n={n} "
                             f"p={p}: engine {(true + 1) % 3}, determinant {true}")


def test_oracle_check_stacks_stay_within_their_budget(monkeypatch):
    shapes = []
    stack_det = checks.det_mod3_stack

    def recorded(stack):
        shapes.append(stack.shape)
        return stack_det(stack)

    monkeypatch.setattr(checks, "det_mod3_stack", recorded)
    monkeypatch.setattr(checks, "STACK_ENTRIES", 400)
    result = checks.oracle_equivalence(8, 40)
    assert result.line() == "ok   oracle-equivalence: 1 <= n <= 8, 0 <= p <= 40, both families"
    for count, n, _ in shapes:
        assert count * (n * n + checks.STACK_OVERHEAD) <= 400, (count, n)
    assert sum(count for count, _, _ in shapes) == 2 * 8 * 41
    assert len(shapes) > 2 * 8 * 6


def test_oracle_check_stack_memory_is_bounded_at_every_order():
    # The budget holds whatever p_max is: one stack at a time is live.
    for n in (1, 10, 40, 362):
        count = max(1, checks.STACK_ENTRIES // (n * n + checks.STACK_OVERHEAD))
        tracemalloc.start()
        try:
            checks.det_mod3_stack(checks.hankel_stack("delta", 12345, n, count))
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


def test_dfao_check_reads_the_engine_as_one_table():
    engine.clear_caches()
    assert checks.dfao_grid().ok
    # A scalar read per cell would leave about 13,000 memo entries.
    memo = engine.gamma_mod3.cache_info().currsize + engine.delta_mod3.cache_info().currsize
    assert memo < 100


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
    # A fresh process, so the scalar recursion runs cold to its full depth:
    # three frames per base-3 digit need a recursion limit of about 608
    # at 200 digits, and one more frame per digit would need about 808.
    largest = str(3 ** engine.MAX_INDEX_DIGITS - 1)
    code = ("import sys; from cantor_hankel import cli; sys.setrecursionlimit(700); "
            "raise SystemExit(cli.main(sys.argv[1:]))")
    done = _run_cli(["cell", "--kind", kind, "-n", largest, "-p", largest], ["-c", code])
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout in ("0\n", "1\n", "2\n")


def _run_cli(argv, entry=("-m", "cantor_hankel.cli")):
    env = dict(os.environ,
               PYTHONPATH=str(Path(cantor_hankel.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *entry, *argv],
                          capture_output=True, text=True, timeout=30, env=env)
