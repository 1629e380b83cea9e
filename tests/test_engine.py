import logging
import random

import numpy as np
import pytest

from cantor_hankel import checks, engine, kernel
from cantor_hankel.hankel import det_mod3, det_mod3_stack, hankel_matrix, hankel_stack
from cantor_hankel.sequences import cantor_term, diff_term
from slow_paths import lattices_by_memo


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
        for n in range(1, 15):
            dets = det_mod3_stack(hankel_stack(kind, 0, n, 21)).tolist()
            assert [value(n, p) for p in range(21)] == dets, (kind, n)


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
    reads = checks._oracle_reads(exact=True)
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
    monkeypatch.setattr(engine, "_CELLS", {"G": no_cell, "D": no_cell})
    assert checks.splitting_exact().ok
    assert checks.splitting_mod3().ok


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


def test_column_window_refuses_before_computing_a_cell(monkeypatch):
    def tables(*args, **kwargs):
        raise AssertionError("a cell was computed")
    monkeypatch.setattr(engine, "tables", tables)
    with pytest.raises(ValueError, match="p = 177148"):
        engine.column_window("gamma", 3 ** 11 + 1, 0)
    with pytest.raises(ValueError, match=f"p = {3 ** 40}"):
        engine.column_window("delta", 3 ** 40, 1)
    with pytest.raises(ValueError, match="p = 2"):
        engine.column_window("gamma", 2, 1, k_hint=11)


def _assert_tables_match_scalar(n_lo, n_hi, p_lo, p_hi):
    """tables() against the scalar engine, cell by cell; gamma's row -1 is 0."""
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
        engine.clear_caches()
        _assert_tables_match_scalar(n_lo, n_lo + height - 1, p_lo, p_lo + width - 1)


def test_tables_match_the_scalar_engine_from_the_boundary_rows():
    _assert_tables_match_scalar(-1, 60, 0, 60)
    _assert_tables_match_scalar(-1, 1, 3 ** 9, 3 ** 9 + 200)
    for p in (0, 1, 2, 5, 13, 40, 122, 3 ** 8 + 1):
        _assert_tables_match_scalar(-1, 300, p, p)
    _assert_tables_match_scalar(3 ** 9 - 5, 3 ** 9 + 5, 0, 400)


def test_tables_match_elimination_over_the_oracle_window():
    tables = dict(zip(engine.KINDS, engine.tables(1, 40, 0, 81)))
    for kind, table in tables.items():
        for n in range(1, 41):
            dets = det_mod3_stack(hankel_stack(kind, 0, n, 82))
            assert np.array_equal(table[n - 1], dets), (kind, n)


def test_grid_leaves_the_memo_small():
    engine.clear_caches()
    rows = engine.grid(1, 1000, 0, 999, "delta")
    assert engine.gamma_mod3.cache_info().currsize < 5000
    assert engine.delta_mod3.cache_info().currsize < 5000
    rng = random.Random(10)
    for _ in range(300):
        n, p = rng.randint(1, 1000), rng.randrange(1000)
        assert rows[n - 1][p] == engine.delta_mod3(n, p), (n, p)


def _assert_anchor_rows_match_scalar(p_lo, count, step=1):
    rows = engine._anchor_rows(p_lo, count, step)
    for stream, table in rows.items():
        assert table.shape == (3, count) and table.dtype == np.int8
        for n in (-1, 0, 1):
            want = [engine._anchor(stream, n, p_lo + step * k) for k in range(count)]
            assert table[n + 1].tolist() == want, (stream, n, p_lo, step)


def test_anchor_rows_match_the_scalar_anchors():
    _assert_anchor_rows_match_scalar(0, 3 ** 8 + 1)
    for p_lo in (1, 2, 3 ** 5 - 4, 3 ** 8):
        _assert_anchor_rows_match_scalar(p_lo, 40)
    # Past int64, across the carry into the 200th digit.
    for p_lo in (3 ** 199 - 60, 2 * 3 ** 198 - 7, 3 ** 199 + 3 ** 40 - 30):
        _assert_anchor_rows_match_scalar(p_lo, 90)
    # The lattice engine's rows: columns 3**m * k + s, s up to 3**m + 1.
    for m, s in ((1, 0), (1, 4), (3, 26), (4, 83), (6, 3 ** 6 + 1), (150, 3 ** 149 + 2)):
        _assert_anchor_rows_match_scalar(s, 21, 3 ** m)


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


@pytest.mark.parametrize("witnesses, window", [
    ("closure", 0), ("closure", 8), ("near-edge", 5)])
def test_lattices_match_the_per_lattice_recursion(witnesses, window):
    # The level-by-level stacks against the memoised recursion they
    # replaced, array for array.
    if witnesses == "closure":
        witnesses = {start: kernel.kernel_closure(start).witnesses for start in engine.KINDS}
    else:
        witnesses = _near_edge_witnesses()
    got = engine.witness_lattices(witnesses, window)
    want = lattices_by_memo(witnesses, window)
    assert got.keys() == want.keys()
    for kind in want:
        assert got[kind].dtype == np.int8 and np.array_equal(got[kind], want[kind]), kind


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


def test_kernel_soundness_leaves_the_memo_small():
    engine.clear_caches()
    assert checks.kernel_soundness(20).ok
    # Only the smallest rectangles of tables() are read cell by cell:
    # 18 gamma and 20 delta cells (1012 when the kernel evaluator read
    # every generator through the memo).
    assert engine.gamma_mod3.cache_info().currsize <= 18
    assert engine.delta_mod3.cache_info().currsize <= 20


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


def test_clear_caches_keeps_values():
    before = engine.gamma_mod3(50, 7)
    engine.clear_caches()
    assert engine.gamma_mod3(50, 7) == before
