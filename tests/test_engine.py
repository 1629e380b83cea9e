import gc
import itertools
import logging
import math
import random
import tracemalloc

import numpy as np
import pytest

from cantor_hankel import checks, engine, hankel, kernel, series
from cantor_hankel.hankel import det_mod3, hankel_matrix, hankel_stack, minors_mod3_stack
from cantor_hankel.sequences import cantor_term, diff_term
from slow_paths import (lattices_by_memo, lattices_by_rule_groups, minimal_period_by_divisors,
                        oracle_reads_by_matrix, split_cell, split_value_calls,
                        tables_by_rule_passes)


def test_gamma_base_cases():
    assert engine.gamma_mod3(0, 0) == 2
    for p in range(1, 30):
        assert engine.gamma_mod3(0, p) == 1
    for p in range(30):
        assert engine.gamma_mod3(1, p) == cantor_term(p) % 3


def test_delta_base_cases():
    assert engine.delta_mod3(-1, 0) == 1
    for p in range(1, 30):
        assert engine.delta_mod3(-1, p) == 0
    for p in range(30):
        assert engine.delta_mod3(0, p) == 1
        assert engine.delta_mod3(1, p) == diff_term(p) % 3


def test_engine_matches_oracle_dense_window():
    for kind, value in (("gamma", engine.gamma_mod3), ("delta", engine.delta_mod3)):
        minors = minors_mod3_stack(hankel_stack(kind, 0, 14, 21))
        for n in range(1, 15):
            assert [value(n, p) for p in range(21)] == minors[:, n - 1].tolist(), (kind, n)


# Deterministic scatter of larger cells; the acceptance suite sweeps the
# full rectangle.
SCATTER = [(17, 25), (19, 29), (21, 8), (22, 27), (23, 13), (24, 29)]


def test_engine_matches_oracle_scatter():
    for n, p in SCATTER:
        assert engine.gamma_mod3(n, p) == det_mod3(hankel_matrix("gamma", p, n))
        assert engine.delta_mod3(n, p) == det_mod3(hankel_matrix("delta", p, n))


def test_first_row_values():
    assert [engine.gamma_mod3(1, p) for p in range(9)] == [1, 0, 1, 0, 0, 0, 1, 0, 1]
    assert [engine.gamma_mod3(4, p) for p in range(2)] == [2, 1]


def test_closed_forms_window():
    for n in range(1, 401):
        assert (engine.gamma_mod3(n, 0), engine.delta_mod3(n, 0)) == \
            engine.closed_form_p0(n)
        common = engine.closed_form_p1(n)
        assert engine.gamma_mod3(n, 1) == common
        assert engine.delta_mod3(n, 1) == common
    with pytest.raises(ValueError):
        engine.closed_form_p0(0)
    with pytest.raises(ValueError):
        engine.closed_form_p1(-3)


def test_closed_form_pattern_literals():
    assert [engine.closed_form_p0(n) for n in (1, 2, 3, 4)] == \
        [(1, 2), (1, 2), (2, 1), (2, 1)]
    assert [engine.closed_form_p1(n) for n in (1, 2, 3, 4)] == [0, 2, 0, 1]


def _variant_second_factor(rule: engine.Rule) -> engine.Rule:
    """The same splitting rule with the squared factor read one index up."""
    return tuple(
        (shift, tuple(("G", 2, 0, 2) if factor == ("G", 1, 0, 2) else factor
                      for factor in factors))
        for shift, factors in rule)


def test_split_rule_variant_adjudication():
    """Two near-identical readings of one splitting rule differ in whether
    the squared factor sits at index m+1 or m+2; only the first survives
    against the determinant oracle."""
    rule = engine.SPLIT_RULES[(1, 0, "G")]
    variant = _variant_second_factor(rule)
    assert variant != rule
    reads = checks._oracle_reads(True, {"G": (20, 23), "D": (20, 23)})
    implemented_bad = variant_bad = 0
    for n in range(2, 7):
        for p in range(8):
            lhs = reads["G"](3 * n + 1, 3 * p)
            if lhs != engine.split_value(rule, 3 * n + 1, 3 * p, reads):
                implemented_bad += 1
            if lhs != engine.split_value(variant, 3 * n + 1, 3 * p, reads):
                variant_bad += 1
    assert implemented_bad == 0
    assert variant_bad > 0


def test_splitting_replays_read_no_engine_cell(monkeypatch):
    # The replays share engine.split_value but feed it oracle values
    # only, so their left side still catches a misread rule table.
    def no_cell(*args):
        raise AssertionError("an engine cell was read")

    monkeypatch.setattr(engine, "gamma_mod3", no_cell)
    monkeypatch.setattr(engine, "delta_mod3", no_cell)
    monkeypatch.setattr(engine, "tables", no_cell)
    assert checks.splitting_exact().ok
    assert checks.splitting_mod3().ok


@pytest.mark.parametrize("n_hi, p_max, stack_entries", [
    (5, 8, checks.STACK_ENTRIES), (5, 8, 1000), (8, 27, checks.STACK_ENTRIES)],
    ids=["verify", "verify-in-chunks-of-2", "criterion-02"])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "mod3"])
def test_windowed_reads_match_the_per_matrix_reads(monkeypatch, exact, n_hi, p_max,
                                                   stack_entries):
    # Each replay's two windows, the replayed stream's the larger; a
    # budget of 1000 entries splits the order-17 window into stacks of 2.
    monkeypatch.setattr(checks, "STACK_ENTRIES", stack_entries)
    expected = oracle_reads_by_matrix(exact)
    for stream, other in ("GD", "DG"):
        windows = {stream: (3 * n_hi + 2, 3 * p_max + 2), other: (n_hi + 2, p_max + 1)}
        reads = checks._oracle_reads(exact, windows)
        for sym, (n_max, p_hi) in windows.items():
            cells = [(n, p) for n in range(n_max + 1) for p in range(p_hi + 1)]
            assert [reads[sym](*cell) for cell in cells] == \
                [expected[sym](*cell) for cell in cells], (stream, sym)


def test_replays_refuse_windows_over_the_order_cap_before_any_elimination(monkeypatch):
    # Left sides of order 3 * 167 + 2 = 503: eliminating every lower order
    # first ran for more than 20 s before the refusal.
    def no_elimination(*args):
        raise AssertionError("a matrix was eliminated")

    for name in ("det_exact", "det_mod3", "minors_exact_stack", "minors_mod3_stack"):
        monkeypatch.setattr(hankel, name, no_elimination)
        monkeypatch.setattr(checks, name, no_elimination, raising=False)
    for replay in (checks.splitting_exact, checks.splitting_mod3):
        with pytest.raises(ValueError, match="order n = 503 is over the cap of 500"):
            replay(2, 167, 0)


def test_structure_window_over_the_order_cap_refuses_before_any_work(monkeypatch):
    # verify_structure(p, 167) would build order 3 * 167 + 2 = 503 only
    # after every lower n had eliminated its matrices, 32 s in all.
    def no_work(*args):
        raise AssertionError("verify_structure was called")

    monkeypatch.setattr(checks, "verify_structure", no_work)
    with pytest.raises(ValueError, match="order 3 \\* n_max \\+ 2 = 503, over the cap of 500"):
        checks.structure_identities(167, 0)
    # Order 500 itself is admitted.
    with pytest.raises(AssertionError, match="verify_structure was called"):
        checks.structure_identities(166, 0)


def test_structure_window_over_the_call_cap_refuses_before_any_work(monkeypatch):
    # (1, 10**7) would make 10**7 verify_structure calls, about three hours.
    def no_work(*args):
        raise AssertionError("verify_structure was called")

    monkeypatch.setattr(checks, "verify_structure", no_work)
    for n_max, p_max in ((1, 10 ** 7), (1, checks.STRUCTURE_CALL_CAP), (166, 12)):
        calls = n_max * (p_max + 1)
        with pytest.raises(ValueError, match=f"takes {calls} verify_structure calls, over "
                                             f"the cap of {checks.STRUCTURE_CALL_CAP}"):
            checks.structure_identities(n_max, p_max)
    with pytest.raises(AssertionError, match="verify_structure was called"):
        checks.structure_identities(1, checks.STRUCTURE_CALL_CAP - 1)
    monkeypatch.undo()
    # verify's window is far under the cap.
    window = dict(checks.VERIFY_GROUPS["structure"])["structure_identities"]
    assert window == (4, 4)
    assert checks.structure_identities(*window).ok


# Every term of every splitting identity, by (rule key, term index).
SPLIT_TERMS = [(key, t) for key, rule in sorted(engine.SPLIT_RULES.items())
               for t in range(len(rule))]


@pytest.mark.parametrize("key, t", SPLIT_TERMS, ids=[f"{i}{j}{sym}-term{t}"
                                                     for (i, j, sym), t in SPLIT_TERMS])
def test_replays_catch_every_term_with_its_sign_flipped(monkeypatch, key, t):
    # One more in a term's shift flips its sign.  The replay of the rule's
    # stream fails at the verify window, naming the rule, n and p the
    # per-matrix reads name.
    assert len(SPLIT_TERMS) == 26
    rule = engine.SPLIT_RULES[key]
    monkeypatch.setitem(engine.SPLIT_RULES, key, tuple(
        (shift + (k == t), factors) for k, (shift, factors) in enumerate(rule)))
    replay = checks.splitting_exact if key[2] == "G" else checks.splitting_mod3
    got = replay(2, 5, 8)
    assert not got.ok and got.detail.startswith(f"rule ({key[0]},{key[1]}) fails at"), got
    monkeypatch.setattr(checks, "_oracle_reads",
                        lambda exact, windows: oracle_reads_by_matrix(exact))
    assert replay(2, 5, 8) == got


def test_deep_indices_stay_within_recursion_limit():
    value = engine.gamma_mod3(3 ** 10 + 5, 3 ** 7 + 2)
    assert value in (0, 1, 2)
    n = 10 ** 6
    assert (engine.gamma_mod3(n, 0), engine.delta_mod3(n, 0)) == \
        engine.closed_form_p0(n)


MINIMAL_PERIODS = {0: 4, 1: 4, 2: 12, 3: 12, 4: 36}


def test_column_periods():
    for p, t in MINIMAL_PERIODS.items():
        assert engine.column_period(p) == t


def test_column_period_is_a_period():
    for p, t in MINIMAL_PERIODS.items():
        for n in range(1, 3 * t):
            assert engine.gamma_mod3(n, p) == engine.gamma_mod3(n + t, p)


def _period_words(seed):
    """Words for the period search: length 1, prime lengths, and every
    length 2**a * 3**b up to 12 * 3**10, each as a repetition of a random
    word of a random proper divisor length, all zero, random (aperiodic
    but for chance), and a repetition with one coefficient flipped."""
    rng = np.random.default_rng(seed)

    def word(n):
        return tuple(rng.integers(0, 3, n).tolist())

    words = [(0,), (2,)]
    lengths = [2, 3, 5, 7, 11, 101, 7919] + [2 ** a * 3 ** b for a in range(3)
                                               for b in range(12) if 2 ** a * 3 ** b > 1]
    for n in lengths:
        divisors = [d for k in range(1, math.isqrt(n) + 1) if n % k == 0 for d in (k, n // k)]
        d = int(rng.choice([d for d in divisors if d < n]))
        periodic = word(d) * (n // d)
        flipped = list(periodic)
        i = int(rng.integers(n))
        flipped[i] = (flipped[i] + int(rng.integers(1, 3))) % 3
        words += [periodic, (0,) * n, word(n), tuple(flipped)]
    return words


def test_minimal_period_matches_the_divisor_search():
    words = _period_words(46)
    assert max(map(len, words)) == 12 * 3 ** 10
    for word in words:
        assert engine.minimal_period(word) == minimal_period_by_divisors(word), len(word)


def test_column_refuses_before_computing_a_cell(monkeypatch):
    # The table builder, engine._level, stands in for every cell.
    def level(*args, **kwargs):
        raise AssertionError("a cell was computed")
    monkeypatch.setattr(engine, "_level", level)
    with pytest.raises(ValueError, match="p = 177148"):
        engine.column("gamma", 3 ** 11 + 1, 0)
    with pytest.raises(ValueError, match=f"p = {3 ** 40}"):
        engine.column("delta", 3 ** 40, 1)
    # A large k_hint is refused by the same message, with no power of 3
    # past the cap computed or printed.
    message = (f"column p = 2 needs a scan of more than {engine.DEFAULT_GRID_CELL_CAP} "
               "cells, over the cap")
    for k_hint in (11, 22, 3000, 10 ** 4, 3 * 10 ** 6):
        with pytest.raises(ValueError) as refused:
            engine.column("gamma", 2, 1, k_hint)
        assert str(refused.value) == message, k_hint
    with pytest.raises(ValueError, match="^column p = 1 needs a scan of more than"):
        engine.column_period(1, 3 * 10 ** 6)


def test_column_refusals_come_in_order(monkeypatch):
    # p, then k_hint, then the kind, then the digit cap, then the scan cap.
    def level(*args, **kwargs):
        raise AssertionError("a cell was computed")
    monkeypatch.setattr(engine, "_level", level)
    for scan, message in ((lambda: engine.column("theta", -1, 0, -1), "need p >= 0"),
                          (lambda: series.series_gamma(-1), "need p >= 0"),
                          (lambda: engine.column_period(-1, -1, "theta"), "need p >= 0"),
                          (lambda: engine.column("theta", 3 ** 300, 0, -1),
                           "need k_hint >= 0, got -1"),
                          (lambda: engine.column_period(3 ** 300, 0, "theta"),
                           "unknown matrix kind 'theta'"),
                          (lambda: engine.column("delta", 3 ** 300, 1, 3 * 10 ** 6),
                           f"p has more than {engine.MAX_INDEX_DIGITS} base-3 digits, over the cap")):
        with pytest.raises(ValueError) as refused:
            scan()
        assert str(refused.value) == message

@pytest.mark.parametrize("p", [3 ** 200, 3 ** 300, 10 ** 5000],
                         ids=["3^200", "3^300", "10^5000"])
def test_column_refuses_a_p_over_the_digit_cap(monkeypatch, p):
    # Checked before the scan cap, whose message prints p: 10**5000 has
    # too many decimal digits to print at all.
    def level(*args, **kwargs):
        raise AssertionError("a cell was computed")
    monkeypatch.setattr(engine, "_level", level)
    message = f"p has more than {engine.MAX_INDEX_DIGITS} base-3 digits, over the cap"
    for scan in (lambda: engine.column("gamma", p, 0),
                 lambda: engine.column_period(p, 0, "delta"),
                 lambda: series.series_delta(p)):
        with pytest.raises(ValueError) as refused:
            scan()
        assert str(refused.value) == message
    with pytest.raises(ValueError, match=f"^column p = {3 ** 200 - 1} needs a scan"):
        engine.column("gamma", 3 ** 200 - 1, 0)


def _candidate(p):
    """12 * 3**k, k the least exponent with p <= 3**(k+1)."""
    k = 0
    while p > 3 ** (k + 1):
        k += 1
    return 12 * 3 ** k


def test_column_is_the_minimal_period_of_the_first_candidate_period():
    for first in (0, 1):
        tables = engine.tables(first, first + _candidate(200) - 1, 0, 200)
        for kind, table in zip(engine.KINDS, tables):
            for p in range(201):
                expected = engine.minimal_period(tuple(table[:_candidate(p), p].tolist()))
                assert engine.column(kind, p, first) == expected, (kind, p, first)


def test_column_reads_serve_period_and_series():
    for kind, build in (("gamma", series.series_gamma), ("delta", series.series_delta)):
        for p in range(82):
            assert build(p).coeffs == engine.column(kind, p, 0), (kind, p)
            assert engine.column_period(p, 0, kind) == len(engine.column(kind, p, 1)), (kind, p)


def test_column_scan_at_the_cap_keeps_one_period_of_python_ints():
    # The three-period window as a list of Python ints took 28.8 MB.
    tracemalloc.start()
    try:
        assert engine.column_period(3 ** 11) == 12 * 3 ** 10
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def _assert_tables_match_scalar(n_lo, n_hi, p_lo, p_hi):
    """tables() against the cells, which walk the minimal automata, cell by
    cell; gamma's row -1 is 0."""
    gamma, delta = engine.tables(n_lo, n_hi, p_lo, p_hi)
    assert gamma.shape == delta.shape == (n_hi - n_lo + 1, p_hi - p_lo + 1)
    for n in range(n_lo, n_hi + 1):
        for p in range(p_lo, p_hi + 1):
            cell = (n - n_lo, p - p_lo)
            want = engine.gamma_mod3(n, p) if n >= 0 else 0
            assert gamma[cell] == want, ("gamma", n, p)
            assert delta[cell] == engine.delta_mod3(n, p), ("delta", n, p)


def _random_rectangles(seed):
    """(n_lo, p_lo, height, width): small corners, mid-sized indices, and
    scattered blocks with 13 base-3 digits in n and p.

    Scattered 13-digit blocks are nearly all zero, so one more block sits
    at n = 3**12, where that table is not.
    """
    rng = random.Random(seed)
    out = [(rng.randrange(2, 100), rng.randrange(0, 100), rng.randint(30, 60),
            rng.randint(30, 60)) for _ in range(3)]
    out += [(rng.randrange(3 ** 6, 3 ** 8), rng.randrange(0, 3 ** 5), rng.randint(20, 40),
             rng.randint(20, 40)) for _ in range(2)]
    out += [(rng.randrange(3 ** 12, 3 ** 13), rng.randrange(3 ** 12, 3 ** 13), 40, 40)
            for _ in range(2)]
    return out + [(3 ** 12, 3 ** 12 + rng.randrange(3 ** 11), 90, 90)]


def test_tables_match_the_cold_scalar_engine():
    for n_lo, p_lo, height, width in _random_rectangles(2024):
        _assert_tables_match_scalar(n_lo, n_lo + height - 1, p_lo, p_lo + width - 1)


def test_tables_match_the_scalar_engine_from_the_boundary_rows():
    _assert_tables_match_scalar(-1, 60, 0, 60)
    _assert_tables_match_scalar(-1, 1, 3 ** 9, 3 ** 9 + 200)
    for p in (0, 1, 2, 5, 13, 40, 122, 3 ** 8 + 1):
        _assert_tables_match_scalar(-1, 300, p, p)
    _assert_tables_match_scalar(3 ** 9 - 5, 3 ** 9 + 5, 0, 400)
    # Short wide rectangles, built by array passes down to a few cells.
    _assert_tables_match_scalar(1, 3, 0, 2000)
    _assert_tables_match_scalar(-1, 3, 7, 1500)
    _assert_tables_match_scalar(2, 5, 3 ** 9, 3 ** 9 + 400)
    _assert_tables_match_scalar(2, 2, 3 ** 12 - 100, 3 ** 12 + 300)


def _rule_pass_rectangles(seed):
    """(n_lo, n_hi, p_lo, p_hi) for the compiled levels against the rule
    passes: the boundary rows, either side of _CELLWISE_AREA, single rows
    and columns, offsets past 2**63 and near 3**200, and widths of more
    than one block of quotient columns."""
    rng = random.Random(seed)
    out = []
    for n_lo in (-1, 0, 1, 2):
        for height, width in ((4, 8), (8, 4), (3, 11), (11, 3), (1, 40), (40, 1), (33, 1),
                              (1, 33), (rng.randint(2, 70), rng.randint(2, 70))):
            p_lo = rng.choice((0, 1, rng.randrange(3 ** 9)))
            out.append((n_lo, n_lo + height - 1, p_lo, p_lo + width - 1))
    for lo in (2 ** 63 - 7, 2 ** 64 + 5, 3 ** 199 + 11, 3 ** 200 - 90):
        for height, width in ((4, 8), (1, 60), (60, 1), (33, 33)):
            n_lo = lo - rng.randrange(3 ** 5) if rng.random() < 0.5 else rng.randrange(3 ** 8)
            out.append((n_lo, n_lo + height - 1, lo, min(lo + width - 1, 3 ** 200 - 1)))
    # A block holds _GATHER_BYTES // 108 quotient columns when every rule
    # is read, so the first width fits one block and the others span two.
    wide = 3 * engine._GATHER_BYTES // 108
    out += [(1, 5, 0, wide - 10), (1, 5, 5, wide + 400), (-1, 7, 3 ** 20, 3 ** 20 + wide + 3)]
    return out


def _assert_tables_match_rule_passes(n_lo, n_hi, p_lo, p_hi):
    got = engine.tables(n_lo, n_hi, p_lo, p_hi)
    want = tables_by_rule_passes(n_lo, n_hi, p_lo, p_hi)
    for kind, table, expected in zip(engine.KINDS, got, want):
        assert table.dtype == np.int8 and table.shape == expected.shape, (kind, n_lo, p_lo)
        assert np.array_equal(table, expected), (kind, n_lo, n_hi, p_lo, p_hi)


def test_tables_match_the_rule_passes():
    for rectangle in _rule_pass_rectangles(28):
        _assert_tables_match_rule_passes(*rectangle)


# Rectangles read in blocks of seven quotient cells (_GATHER_BYTES = 7 * 108).
BLOCK_RECTANGLES = ((-1, 60, 0, 60), (1, 300, 4, 9), (5, 11, 3 ** 12, 3 ** 12 + 200),
                    (0, 400, 3 ** 30, 3 ** 30))


def test_tables_match_the_rule_passes_block_by_block(monkeypatch):
    # Blocks of seven quotient cells: every level of these rectangles is
    # split into many blocks along both axes, wide and tall.
    monkeypatch.setattr(engine, "_GATHER_BYTES", 7 * 108)
    for rectangle in BLOCK_RECTANGLES:
        _assert_tables_match_rule_passes(*rectangle)


def test_corner_matches_the_recursion_and_elimination():
    # Rows -1 .. 404 by columns 0 .. 134 of both streams, read-only.
    corner = engine._CORNER
    assert corner.shape == (2, 406, 135) and corner.dtype == np.int8
    assert not corner.flags.writeable
    for s, want in enumerate(tables_by_rule_passes(-1, 404, 0, 134)):
        assert np.array_equal(corner[s], want), "GD"[s]
    for s, kind in enumerate(engine.KINDS):
        minors = minors_mod3_stack(hankel_stack(kind, 0, 40, 135))
        assert np.array_equal(corner[s, 2:42], minors.T), kind
    for (s, row, p), value in np.ndenumerate(corner[:, :16, :5]):
        stream, n = "GD"[s], row - 1
        want = engine._anchor(stream, n, p) if n <= 1 else split_cell(stream, n, p)
        assert value == want, (stream, n, p)


def test_tables_inside_the_corner_are_writable_copies():
    for n_lo, n_hi, p_lo, p_hi in ((-1, 14, 0, 4), (1, 5, 0, 2), (3, 3, 4, 4)):
        tables = engine.tables(n_lo, n_hi, p_lo, p_hi)
        for s, table in enumerate(tables):
            assert np.array_equal(table, engine._CORNER[s, n_lo + 1:n_hi + 2, p_lo:p_hi + 1])
            assert table.flags.writeable and not np.shares_memory(table, engine._CORNER)
        assert not np.shares_memory(*tables)


def test_table_reads_near_the_origin_compute_no_cell(monkeypatch):
    # Their levels end in the corner, built once at import: each call
    # read the corner cell by cell, 52 or 24 split_value calls, before.
    calls = split_value_calls(monkeypatch)
    engine.tables(1, 300, 0, 299)
    engine.column_period(300)
    series.series_delta(400)
    assert calls == []


def test_reads_from_the_origin_end_their_levels_in_the_corner(monkeypatch):
    # Split levels per read, against 5, 6, 6 and 4 when the corner was
    # rows -1 .. 14 by columns 0 .. 4.
    calls, real = [], engine._split_level
    monkeypatch.setattr(engine, "_split_level", lambda *args: calls.append(args) or real(*args))
    for read, levels in ((lambda kind: engine._table(kind, 1, 300, 0, 299), 1),
                         (lambda kind: engine._table(kind, 1, 1000, 0, 999), 2),
                         (lambda kind: engine.column(kind, 400, 1), 3),
                         (lambda kind: engine.tables(1, 96, 0, 127), 0)):
        for kind in engine.KINDS:
            calls.clear()
            read(kind)
            assert len(calls) == levels, (kind, levels)


def _corner_edge_rectangles():
    """Rectangles ending on either side of the corner's last row and
    column, and reads whose first level lands just outside it."""
    out = [(n_lo, n_hi, p_lo, p_hi) for n_hi in (403, 404, 405) for p_hi in (133, 134, 135)
           for n_lo, p_lo in ((-1, 0), (n_hi - 2, p_hi - 4))]
    # One level down, rows -1 .. n // 3 + 2 by columns 0 .. p // 3 + 1:
    # rows up to 405 or columns up to 135 for these.
    out += [(1, 1209, 0, 30), (0, 30, 0, 402), (1, 1209, 0, 402), (-1, 1208, 0, 401),
            (1203, 1209, 398, 402), (1, 1215, 0, 404)]
    return out


def test_tables_across_the_corner_edges_match_the_rule_passes():
    for rectangle in _corner_edge_rectangles():
        _assert_tables_match_rule_passes(*rectangle)
        _one_kind_matches_tables(*rectangle)


def _one_kind_matches_tables(n_lo, n_hi, p_lo, p_hi):
    """Each kind split alone at the top level against tables()."""
    both = engine.tables(n_lo, n_hi, p_lo, p_hi)
    for k, kind in enumerate(engine.KINDS):
        one = engine._level(n_lo, n_hi, p_lo, p_hi, slice(k, k + 1), engine._CORNER)
        assert len(one) == 1 and one[0].dtype == np.int8, kind
        assert np.array_equal(one[0], both[k]), (kind, n_lo, n_hi, p_lo, p_hi)
        if n_lo >= 0 or kind == "delta":
            assert np.array_equal(engine._table(kind, n_lo, n_hi, p_lo, p_hi), both[k])


def test_one_kind_tables_match_both_kinds():
    for rectangle in _rule_pass_rectangles(28):
        _one_kind_matches_tables(*rectangle)
    for n_lo, p_lo, height, width in _random_rectangles(2024):
        _one_kind_matches_tables(n_lo, n_lo + height - 1, p_lo, p_lo + width - 1)


def test_one_kind_tables_match_both_kinds_block_by_block(monkeypatch):
    monkeypatch.setattr(engine, "_GATHER_BYTES", 7 * 108)
    for rectangle in BLOCK_RECTANGLES:
        _one_kind_matches_tables(*rectangle)


def test_compiled_rules_decode_to_split_rules():
    plane, row, col, weight = engine._COMPILED_RULES
    assert plane.shape == row.shape == col.shape == (2, 3, 3, 2, 3)
    assert weight.shape == (2, 3, 3, 2, 1, 1)
    planes = {index: key for key, index in engine._FACTOR_PLANES.items()}
    decoded = {}
    for (s, i, j), _ in np.ndenumerate(plane[..., 0, 0]):
        terms = []
        for t in range(2):
            sign = int(weight[s, i, j, t, 0, 0])
            at = [(s, i, j, t, f) for f in range(3)]
            if sign == 0:
                assert all(plane[k] == engine._ONES_PLANE for k in at)
                continue
            factors = tuple((sym, int(row[k]) - 1, int(col[k]), e)
                            for k in at if plane[k] != engine._ONES_PLANE
                            for sym, e in [planes[plane[k]]])
            terms.append(({1: 0, 2: 1}[sign], factors))
        decoded[i, j, "GD"[s]] = tuple(terms)
    assert decoded == engine.SPLIT_RULES


def _flip_second_term(rules, key):
    """rules with the sign of the second term of rules[key] flipped."""
    rules = dict(rules)
    first, (shift, factors) = rules[key]
    rules[key] = (first, (1 - shift, factors))
    return rules


def test_an_edited_rule_changes_the_table(monkeypatch):
    # The second term of (1, 0, "G") with its sign flipped, compiled and
    # read by tables() alone: the cell-by-cell path keeps the true rules.
    rules = _flip_second_term(engine.SPLIT_RULES, (1, 0, "G"))
    monkeypatch.setattr(engine, "_COMPILED_RULES", engine.compile_rules(rules))
    want_gamma, want_delta = tables_by_rule_passes(1, 60, 0, 60)
    # The corner was built at import by the true rules: until it is
    # rebuilt, a table inside it reads no edit, and one past it does.
    gamma, delta = engine.tables(1, 60, 0, 60)
    assert np.array_equal(gamma, want_gamma) and np.array_equal(delta, want_delta)
    past = engine.tables(1, 405, 0, 60)
    assert not np.array_equal(past[0], tables_by_rule_passes(1, 405, 0, 60)[0])
    monkeypatch.setattr(engine, "_CORNER", engine._build_corner())
    gamma, delta = engine.tables(1, 60, 0, 60)
    # Row n = 1 is split by the rules too: at p = 0 the edited rule reads
    # 2 * 1 * 1 + 1 * 1 = 0 mod 3 in place of c_0 = 1.
    assert (gamma[0, 0], want_gamma[0, 0], engine.gamma_mod3(1, 0)) == (0, 1, 1)
    assert not np.array_equal(delta, want_delta)
    # One kind split alone reads the edit where tables() does.
    for kind, edited, want in (("gamma", gamma, want_gamma), ("delta", delta, want_delta)):
        one = engine._table(kind, 1, 60, 0, 60)
        assert np.array_equal(one, edited), kind
        assert np.array_equal(one != want, edited != want), kind


def _boundary_rule_misses(rules):
    """The (q, c, i, j, stream) at which an identity of rules with i in
    {0, 1}, read at m = 0, misses rows n = 0 and 1 at p = 3q + j.

    The identity reads rows -1, 0 and 1 at the columns q and q + 1, and
    for q >= 1 those rows depend only on c = (c_q, c_(q+1), c_(q+2),
    c_(q+3)): row -1 of delta is 0 there, row 0 is 1, and row 1 is c_p
    and d_p = c_p + c_(p+2).  Every pattern with q >= 1 stands for all
    the q that have it, and q = 0 has the pattern (1, 0, 1, 1) with
    delta 1 at (-1, 0) and gamma 2 at (0, 0).  Rows 0 and 1 at
    3q .. 3q + 2 follow from c_3q = c_q, c_(3q+1) = 0, c_(3q+2) = c_q.
    """
    misses = []
    patterns = [(1, c) for c in itertools.product((0, 1), repeat=4)] + [(0, (1, 0, 1, 1))]
    for q, c in patterns:
        cells = {("D", -1, b): int(q == 0 and b == 0) for b in (0, 1)}
        for b in (0, 1):
            cells["G", 0, b], cells["D", 0, b] = 2 if q == 0 and b == 0 else 1, 1
            cells["G", 1, b], cells["D", 1, b] = c[b], (c[b] + c[b + 2]) % 3
        reads = {sym: lambda n, p, sym=sym: cells[sym, n, p - q] for sym in "GD"}
        # c at 3q .. 3q + 4; c_(3q+3) = c_(q+1) and c_(3q+4) = 0.
        run = (c[0], 0, c[0], c[1], 0)
        for j in range(3):
            want = {("G", 0): 2 if q == 0 and j == 0 else 1, ("D", 0): 1,
                    ("G", 1): run[j], ("D", 1): (run[j] + run[j + 2]) % 3}
            for (sym, i), value in want.items():
                if engine.split_value(rules[i, j, sym], i, 3 * q + j, reads) % 3 != value:
                    misses.append((q, c, i, j, sym))
    return misses


def test_boundary_rows_satisfy_the_splitting_identities():
    # So tables() may split rows 0 and 1 like any other: at every
    # column, the twelve identities with i in {0, 1} rebuild them from
    # rows -1 .. 1 one level down.
    assert _boundary_rule_misses(engine.SPLIT_RULES) == []
    assert _boundary_rule_misses(_flip_second_term(engine.SPLIT_RULES, (1, 0, "G"))) == [
        (0, (1, 0, 1, 1), 1, 0, "G")]


def test_compile_rules_refuses_rules_outside_the_windows():
    for key, rule, message in (
            ((0, 0, "G"), ((0, (("G", 0, 0, 1),)),) * 3, "more than 2 terms"),
            ((0, 0, "G"), ((0, (("G", 0, 0, 1),) * 4),), "3 factors"),
            ((1, 2, "D"), ((0, (("D", -2, 0, 1),)),), r"reads \('D', -2, 0, 1\)"),
            ((1, 2, "D"), ((0, (("D", 0, 2, 1),)),), "outside the windows"),
            ((2, 2, "G"), ((0, (("F", 0, 0, 1),)),), "outside the windows"),
            ((2, 2, "G"), ((0, (("G", 0, 0, 3),)),), "outside the windows")):
        with pytest.raises(ValueError, match=message):
            engine.compile_rules({**engine.SPLIT_RULES, key: rule})


def test_tables_return_two_unshared_arrays():
    for rectangle in ((1, 5, 0, 9), (-1, 60, 0, 60), (1, 300, 7, 7), (2, 3, 0, 5000)):
        gamma, delta = engine.tables(*rectangle)
        assert not np.shares_memory(gamma, delta), rectangle


def test_tables_peak_memory_stays_near_the_output():
    # The output is two int8 tables of 2000 x 2000 cells.  The rest of
    # the peak is the five factor planes of the level below (about 0.28
    # of the output) and one block's temporaries: 1.40 of the output in
    # six fresh processes, as for the per-rule build, and 1.51 with
    # blocks of 1 MiB (CHANGES.md has the derivation).
    engine.tables(1, 50, 0, 49)
    tracemalloc.start()
    try:
        gamma, delta = engine.tables(1, 2000, 0, 1999)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (gamma.nbytes + delta.nbytes)


def test_tables_match_elimination_over_the_oracle_window():
    # The oracle window, and a short wide table built by array passes.
    for n_max, p_max in ((40, 81), (3, 2000)):
        tables = dict(zip(engine.KINDS, engine.tables(1, n_max, 0, p_max)))
        for kind, table in tables.items():
            minors = minors_mod3_stack(hankel_stack(kind, 0, n_max, p_max + 1))
            for n in range(1, n_max + 1):
                assert np.array_equal(table[n - 1], minors[:, n - 1]), (kind, n, p_max)


def test_grid_leaves_the_memo_small(monkeypatch):
    for n_hi, p_hi, kind in ((2, 99_999, "gamma"), (1000, 999, "delta")):
        calls = split_value_calls(monkeypatch)
        rows = engine.grid(1, n_hi, 0, p_hi, kind)
        monkeypatch.undo()
        # Only the smallest rectangle is read cell by cell: 4 cells, and
        # none where the levels end in the corner.
        assert len(calls) <= 20, (n_hi, p_hi)
        value = engine.gamma_mod3 if kind == "gamma" else engine.delta_mod3
        rng = random.Random(10)
        for _ in range(300):
            n, p = rng.randint(1, n_hi), rng.randrange(p_hi + 1)
            assert rows[n - 1][p] == value(n, p), (kind, n, p)


def _assert_anchor_rows_match_scalar(p_lo, count):
    for stream, table in zip("GD", engine.tables(-1, 1, p_lo, p_lo + count - 1)):
        for n in (-1, 0, 1):
            want = [engine._anchor(stream, n, p_lo + k) for k in range(count)]
            assert table[n + 1].tolist() == want, (stream, n, p_lo)


def test_anchor_rows_match_the_scalar_anchors():
    # Rows -1 .. 1 of tables(), split by the identities down to a few
    # cells read from _anchor, against _anchor at every column.
    _assert_anchor_rows_match_scalar(0, 3 ** 8 + 1)
    for p_lo in (1, 2, 3 ** 5 - 4, 3 ** 8):
        _assert_anchor_rows_match_scalar(p_lo, 40)
    # Past int64, across the carry into the 200th digit.
    for p_lo in (3 ** 199 - 60, 2 * 3 ** 198 - 7, 3 ** 199 + 3 ** 40 - 30):
        _assert_anchor_rows_match_scalar(p_lo, 90)
    # Row n = 0 of the lattices with r <= 1: the columns 3**m * p + s.
    witnesses = [(m, r, s) for m, s in ((1, 0), (1, 2), (3, 26), (4, 80), (6, 3 ** 6 - 1),
                                        (150, 3 ** 149 + 2)) for r in (0, 1)]
    window = 20
    lattices = engine.witness_lattices({kind: witnesses for kind in engine.KINDS}, window)
    for kind, stream in zip(engine.KINDS, "GD"):
        for (m, r, s), row in zip(witnesses, lattices[kind][:, :window + 1].tolist()):
            want = [engine._anchor(stream, r, 3 ** m * p + s) for p in range(window + 1)]
            assert row == want, (kind, m, r, s)


def _assert_lattices_match_scalar(witnesses, window):
    """witness_lattices() against the scalar engine, point by point."""
    points = [(n, p) for n in range(window + 1) for p in range(window + 1)]
    got = engine.witness_lattices(witnesses, window)
    for kind, triples in witnesses.items():
        value = engine.gamma_mod3 if kind == "gamma" else engine.delta_mod3
        want = [[value(3 ** m * n + r, 3 ** m * p + s) for n, p in points]
                for m, r, s in triples]
        assert got[kind].tolist() == want, kind


def test_lattices_match_the_scalar_engine_at_every_witness():
    _assert_lattices_match_scalar(
        {start: kernel.kernel_closure(start).witnesses for start in engine.KINDS}, 3)


def _near_edge_witnesses():
    """Witnesses with r and s near 3**m, so a factor lattice one level
    down has r // 3 + 2 >= 3**(m - 1), past the witness range."""
    rng = random.Random(11)
    witnesses = {kind: [] for kind in engine.KINDS}
    for _ in range(24):
        m = rng.randint(1, 10)
        r = 3 ** m - rng.randint(1, min(3 ** m, 5))
        s = rng.choice((3 ** m - rng.randint(1, min(3 ** m, 5)), rng.randrange(3 ** m)))
        witnesses[rng.choice(engine.KINDS)].append((m, r, s))
    witnesses["gamma"] += [(0, 0, 0), (2, 0, 1), (3, 1, 0)]
    witnesses["delta"] += [(0, 0, 0), (2, 1, 1), (3, 0, 26)]
    return witnesses


def test_lattices_match_the_scalar_engine_near_the_lattice_edge():
    _assert_lattices_match_scalar(_near_edge_witnesses(), 5)


def _far_witnesses():
    """Witnesses at m = 20, 21, 40 and 150, whose lattice codes are past
    int64 down to level 20, near 0 and near 3**m in r and s."""
    witnesses = {kind: [] for kind in engine.KINDS}
    for m in (20, 21, 40, 150):
        top = 3 ** m
        witnesses["gamma"] += [(m, 0, 0), (m, 1, top - 1), (m, top - 2, 2)]
        witnesses["delta"] += [(m, 0, 1), (m, top - 1, top - 1), (m, top // 3, top - 3)]
    return witnesses


_WITNESS_SETS = {"near-edge": _near_edge_witnesses, "far": _far_witnesses}


@pytest.mark.parametrize("witnesses, window", [
    ("closure", 0), ("closure", 8), ("closure", 20), ("near-edge", 5),
    ("far", 0), ("far", 1)])
def test_lattices_match_the_per_lattice_recursion(witnesses, window):
    # The compiled-rule gather against the rule groups it replaced and
    # the memoised recursion before them, array for array.
    if witnesses == "closure":
        witnesses = {start: kernel.kernel_closure(start).witnesses for start in engine.KINDS}
    else:
        witnesses = _WITNESS_SETS[witnesses]()
    got = engine.witness_lattices(witnesses, window)
    for slow in (lattices_by_rule_groups, lattices_by_memo):
        want = slow(witnesses, window)
        assert got.keys() == want.keys()
        for kind in want:
            assert got[kind].dtype == np.int8 and np.array_equal(got[kind], want[kind]), \
                (slow.__name__, kind)


def test_lattices_match_the_scalar_engine_past_int64():
    _assert_lattices_match_scalar(_far_witnesses(), 1)


def test_lattices_refuse_witnesses_off_the_lattice():
    with pytest.raises(ValueError, match=r"witness \(2,9,0\)"):
        engine.witness_lattices({"gamma": [(2, 9, 0)]}, 3)
    with pytest.raises(ValueError, match=r"witness \(0,0,1\)"):
        engine.witness_lattices({"delta": [(0, 0, 1)]}, 3)
    with pytest.raises(ValueError, match="window >= 0, got -1"):
        engine.witness_lattices({"delta": [(0, 0, 0)]}, -1)
    with pytest.raises(ValueError, match="unknown matrix kind"):
        engine.witness_lattices({"omega": [(0, 0, 0)]}, 3)
    with pytest.raises(ValueError, match="n has more than"):
        engine.witness_lattices({"gamma": [(engine.MAX_INDEX_DIGITS, 0, 0)]}, 1)


def test_kernel_soundness_leaves_the_memo_small(monkeypatch):
    calls = split_value_calls(monkeypatch)
    assert checks.kernel_soundness(20).ok
    # Only the smallest rectangles of tables() are read cell by cell,
    # through the recursion: none, as they lie in the corner (96 cells
    # before the corner was built once at import, 1012 distinct cells
    # when the kernel evaluator read every generator through a module
    # memo).
    assert len(calls) <= 100


def test_lattice_sweep_peak_memory():
    # Both closures at window 20: 5,937 lattices, the largest level 2,750.
    # The traced peak read 4.1675 to 4.1678 times the output bytes in six
    # fresh processes (4.2045 with the rule groups); 4.5 is 8 % over it
    # (CHANGES.md has the derivation).
    witnesses = {start: kernel.kernel_closure(start).witnesses for start in engine.KINDS}
    engine.witness_lattices(witnesses, 20)
    tracemalloc.start()
    try:
        out = engine.witness_lattices(witnesses, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * sum(lattices.nbytes for lattices in out.values())


def test_lattice_sweep_logs_one_debug_record(caplog, capsys):
    caplog.set_level(logging.DEBUG, logger="cantor_hankel.engine")
    engine.witness_lattices({"gamma": [(0, 0, 0), (1, 2, 1)], "delta": [(1, 2, 1)]}, 4)
    records = [r for r in caplog.records if r.name == "cantor_hankel.engine"]
    assert len(records) == 1
    record = records[0]
    assert record.levelno == logging.DEBUG
    window, built, seconds = record.args
    # The three requested lattices and the five at m = 0 that rules
    # (2, 1, G) and (2, 1, D) read: G at (1, 0) and (2, 0), D at (0, 1),
    # (0, 0) and (1, 0).
    assert (window, built) == (4, 8) and seconds >= 0
    assert capsys.readouterr().out == ""


def test_tables_refuse_bad_ranges_before_any_work(monkeypatch):
    with pytest.raises(ValueError, match="empty table range"):
        engine.tables(5, 4, 0, 0)
    with pytest.raises(ValueError, match="need n >= -1"):
        engine.tables(-2, 4, 0, 0)
    monkeypatch.setattr(engine, "DEFAULT_GRID_CELL_CAP", 50)
    with pytest.raises(ValueError, match="table of 10100 cells exceeds the cap 50"):
        engine.tables(1, 100, 0, 100)
    assert len(engine.tables(1, 5, 0, 9)[0]) == 5
    with pytest.raises(ValueError, match="p has more than"):
        engine.tables(1, 2, 3 ** engine.MAX_INDEX_DIGITS, 3 ** engine.MAX_INDEX_DIGITS)
    with pytest.raises(ValueError, match="need n >= 0"):
        engine.grid(-1, 3, 0, 3, "gamma")
    assert engine.grid(-1, 0, 0, 1, "delta") == [[1, 0], [1, 1]]


def test_grid_shape_and_cap(monkeypatch):
    rows = engine.grid(1, 3, 0, 4)
    assert len(rows) == 3 and all(len(r) == 5 for r in rows)
    assert rows[0] == [engine.gamma_mod3(1, p) for p in range(5)]
    monkeypatch.setattr(engine, "DEFAULT_GRID_CELL_CAP", 50)
    with pytest.raises(ValueError, match="exceeds the cap 50"):
        engine.grid(1, 100, 0, 100)
    with pytest.raises(ValueError):
        engine.grid(2, 1, 0, 0)


def test_tables_keep_no_state_between_calls():
    # 100 distinct 3 x 3 tables at 200 digits, each read cell by cell by
    # the recursion: a memo kept between calls retained 6.4 MB of them.
    rng = random.Random(43)
    corners = [(rng.randrange(3 ** 199, 3 ** 200 - 2), rng.randrange(3 ** 199, 3 ** 200 - 2))
               for _ in range(101)]
    # One table first, so that what every call allocates once is not counted.
    (n, p), *corners = corners
    engine.tables(n, n + 2, p, p + 2)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n, p in corners:
            engine.tables(n, n + 2, p, p + 2)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 500_000


def test_cell_memo_stays_within_its_size():
    # Three times the memo's size in distinct cells of each kind; an
    # unbounded memo kept every one of them.
    for cell in (engine.gamma_mod3, engine.delta_mod3):
        for p in range(3 * engine.CELL_MEMO_SIZE):
            cell(5, p)
        assert cell.cache_info().currsize <= engine.CELL_MEMO_SIZE


# Suffixes (u, v) read after a digit pair: (0, 0) ends the word there,
# the others make the walk read the pair and go on.
SUFFIXES = [(0, 0), (1, 0), (0, 2), (2, 1), (4, 7)]


@pytest.mark.parametrize("kind, stream", [("gamma", "G"), ("delta", "D")],
                         ids=["gamma", "delta"])
def test_walk_matches_the_recursion_at_every_transition(kind, stream):
    # A shortest word (m digit pairs, read as r and s) to each state of
    # the minimal automaton, then each digit pair (i, j) and suffix: the
    # cell (r + 3**m * (i + 3u), s + 3**m * (j + 3v)).
    from cantor_hankel._minimal import AUTOMATA
    outputs, transitions = AUTOMATA[kind]
    words, queue = {0: (0, 0, 0)}, [0]
    # The loop also visits the states appended while it runs.
    for state in queue:
        m, r, s = words[state]
        for d in range(9):
            target = transitions[9 * state + d]
            if target not in words:
                words[target] = (m + 1, r + 3 ** m * (d // 3), s + 3 ** m * (d % 3))
                queue.append(target)
    assert len(words) == len(outputs) == 60
    walk = getattr(engine, f"{kind}_mod3")
    for state, (m, r, s) in words.items():
        for i, j in itertools.product(range(3), repeat=2):
            for u, v in SUFFIXES:
                n, p = r + 3 ** m * (i + 3 * u), s + 3 ** m * (j + 3 * v)
                assert walk(n, p) == split_cell(stream, n, p), (kind, state, i, j, u, v)


def _seeded_index(rng, digits, weights):
    """An index of digits base-3 digits, each drawn with weights for 0, 1
    and 2 (the leading one nonzero)."""
    value = rng.choices((1, 2), weights[1:])[0]
    for _ in range(digits - 1):
        value = 3 * value + rng.choices((0, 1, 2), weights)[0]
    return value


def test_walk_matches_the_recursion_on_a_seeded_sample():
    # Every digit count up to the cap, the digits drawn uniformly, mostly
    # 0, or from {0, 2} as in the support of c; the other index is as long
    # or shorter, down to 0.
    rng = random.Random(40)
    for digits in range(1, engine.MAX_INDEX_DIGITS + 1):
        for weights in ((1, 1, 1), (4, 1, 1), (1, 0, 1)):
            other = rng.randint(0, digits)
            n = _seeded_index(rng, digits, weights)
            p = _seeded_index(rng, other, weights) if other else 0
            if rng.random() < 0.5:
                n, p = p, n
            for kind, stream in (("gamma", "G"), ("delta", "D")):
                assert getattr(engine, f"{kind}_mod3")(n, p) == split_cell(stream, n, p), \
                    (kind, n, p)
