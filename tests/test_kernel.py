import dataclasses
import hashlib
import itertools
import logging
import re
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantor_hankel import checks, engine, kernel
from cantor_hankel.kernel import (DELTA, GAMMA, KernelExpr, build_dfao,
                                  evaluate_states, export_dfao,
                                  generator_expr, kernel_closure,
                                  parse_dfao_table, project_row)
import slow_paths
from slow_paths import (closure_by_monomial_chains, closure_by_part_memo,
                        evaluate_states_at_points, generator_value, split_cell,
                        walk_by_cells, window_points)

CLOSURE_STATES = 1632


def test_generator_bounds():
    generator_expr("G", -1, 2)
    generator_expr("D", 2, 0)
    with pytest.raises(ValueError):
        generator_expr("G", 3, 0)
    with pytest.raises(ValueError):
        generator_expr("D", 0, 3)
    with pytest.raises(ValueError):
        generator_expr("X", 0, 0)


def test_exponent_cap_is_odd_even_folding():
    # x**3 = x over GF(3), so exponents fold to parity above 2: a power
    # of a generator bit x is x itself when odd and x's square bit,
    # x << _WIDTH, when even.
    for k in range(kernel._WIDTH):
        x = 1 << k
        powers = [x]
        for _ in range(5):
            powers.append(kernel._mono_product(powers[-1], x))
        assert powers[2] == powers[4] == x
        assert powers[1] == powers[3] == powers[5] == x << kernel._WIDTH
        # x**4 also as the square of x**2, which reads the high mask.
        assert kernel._mono_product(powers[1], powers[1]) == powers[3]
    for v in (0, 1, 2):
        for e in range(1, 7):
            folded = 1 if e % 2 else 2
            assert v ** e % 3 == v ** folded % 3


def test_split_rules_cover_all_targets():
    assert set(engine.SPLIT_RULES) == {(i, j, sym)
                                       for i in range(3) for j in range(3)
                                       for sym in ("G", "D")}


def test_split_rules_against_oracle():
    # The G rules over the integers, the D rules mod 3.
    windows = {"G": (14, 17), "D": (14, 17)}
    readers = {"G": checks._oracle_reads(True, windows),
               "D": checks._oracle_reads(False, windows)}
    for (i, j, sym), rule in engine.SPLIT_RULES.items():
        reads = readers[sym]
        for n in range(2, 5):
            for p in range(6):
                rhs = engine.split_value(rule, 3 * n + i, 3 * p + j, reads)
                assert reads[sym](3 * n + i, 3 * p + j) == (rhs if sym == "G" else rhs % 3), \
                    (i, j, sym, n, p)


DIGIT_PAIRS = list(itertools.product(range(3), range(3)))

# One stepper for the module: its images, memoised as it steps, serve
# every test that steps states.
STEPPER = kernel._Stepper()


def step_all(exprs):
    """The nine digit steps of each expression: entry 9k + d is exprs[k]
    read at (3n + i, 3p + j), (i, j) = DIGIT_PAIRS[d]."""
    rows = STEPPER.successors(kernel._to_rows([expr.poly for expr in exprs]))
    return [KernelExpr(poly) for poly in kernel._to_packed(rows)]


# Polynomials whose terms repeat a few packed monomials, 0 and the
# widest 52-bit key among them, with coefficients 1 and 2, so like terms
# add up to 0, 1 or 2 mod 3.
_MONOMIALS = st.sampled_from([0, 1, 5 << 26, (1 << 52) - 1, 3 << 40])
_POLYS = st.lists(st.lists(st.tuples(_MONOMIALS, st.sampled_from([1, 2])), max_size=8),
                  max_size=6)


@settings(max_examples=200, deadline=None)
@given(_POLYS)
def test_rows_sum_like_terms_and_compare_by_bytes(polys):
    rows = kernel._to_rows(polys)
    want = []
    for poly in polys:
        counter = {}
        for key, coeff in poly:
            counter[key] = counter.get(key, 0) + coeff
        want.append(kernel._reduce(counter))
    assert kernel._to_packed(rows) == want
    forms = rows.forms()
    for a, b in itertools.product(range(len(polys)), repeat=2):
        assert (forms[a] == forms[b]) == (want[a] == want[b])
    # Rows built in other batches give the same bytes: the closure
    # compares successors of different chunks by them.
    assert [kernel._to_rows([poly]).forms()[0] for poly in polys] == forms


def test_single_digit_steps_match_engine():
    for start, stream in ((GAMMA, "G"), (DELTA, "D")):
        stepped = step_all([start])
        want = [[split_cell(stream, 3 * n + i, 3 * p + j) for n, p in window_points(5)]
                for i, j in DIGIT_PAIRS]
        assert evaluate_states(stepped, 5).tolist() == want


def test_every_generator_split_matches_engine():
    # Every generator under every digit pair, the shifted ones included.
    # No split reads gamma at row -1, but S[-1,b]G itself does at
    # n = 0 with i = 0; there the engine has no value to compare.
    assert len(kernel._GENERATORS) == 26
    splits = [(gen, i, j) for gen in kernel._GENERATORS for i, j in DIGIT_PAIRS]
    got = evaluate_states(
        [KernelExpr(kernel._split_generator(i, j, gen)) for gen, i, j in splits], 4)
    for row, (gen, i, j) in zip(got.tolist(), splits):
        sym, a, _ = gen
        defined = [(k, n, p) for k, (n, p) in enumerate(window_points(4))
                   if sym != "G" or 3 * n + i + a >= 0]
        assert [row[k] for k, _, _ in defined] == \
            [generator_value(gen, 3 * n + i, 3 * p + j) for _, n, p in defined], (gen, i, j)


def test_two_digit_chains_match_engine():
    # T acts least significant digit first: chaining (i1,j1) then (i2,j2)
    # reads the subsequence at (9n + 3*i2 + i1, 9p + 3*j2 + j1).
    for start, stream in ((GAMMA, "G"), (DELTA, "D")):
        chains = list(itertools.product(range(3), repeat=4))
        chained = step_all(step_all([start]))
        want = [[split_cell(stream, 9 * n + 3 * i2 + i1, 9 * p + 3 * j2 + j1)
                 for n, p in window_points(2)]
                for i1, j1, i2, j2 in chains]
        assert evaluate_states(chained, 2).tolist() == want


@pytest.mark.parametrize("start", ["gamma", "delta"])
def test_closure_size_and_shape(start):
    closure = kernel_closure(start)
    assert len(closure.states) == CLOSURE_STATES
    assert len(closure.witnesses) == CLOSURE_STATES
    assert len(closure.transitions) == CLOSURE_STATES
    for row in closure.transitions:
        assert len(row) == 9
        assert all(0 <= t < CLOSURE_STATES for t in row)


@pytest.mark.parametrize("start", ["gamma", "delta"])
def test_closure_matches_the_monomial_chain_build(start):
    # The stepper that builds images from memoised G and D/F parts
    # against the per-digit chain of generator products it replaced:
    # states, transitions and witnesses identical state for state.
    got, want = kernel_closure(start), closure_by_monomial_chains(start)
    assert got.start == want.start
    assert got.states == want.states
    assert got.transitions == want.transitions
    assert got.witnesses == want.witnesses


@pytest.mark.parametrize("start", ["gamma", "delta"])
def test_closure_matches_the_part_memo_build(start):
    # The level-at-a-time batched build against the state-by-state search
    # over memoised part images it replaced: states, transitions and
    # witnesses identical state for state.
    got, want = kernel_closure(start), closure_by_part_memo(start)
    assert got.start == want.start
    assert got.states == want.states
    assert got.transitions == want.transitions
    assert got.witnesses == want.witnesses


def test_closure_witnesses_sample():
    closure = kernel_closure("gamma")
    # Every 40th state; the acceptance sweep covers all of them.
    got = evaluate_states(closure.states[::40], 2).tolist()
    want = [[split_cell("G", 3 ** m * n + r, 3 ** m * p + s) for n, p in window_points(2)]
            for m, r, s in closure.witnesses[::40]]
    assert got == want


def _reference_step(i, j, expr):
    """The digit step (i, j) by term-by-term expansion: split every
    generator, multiply the factors out with exponents capped, and
    collect like monomials."""

    def mono_mul(m1, m2):
        powers = {}
        for g, e in m1 + m2:
            powers[g] = powers.get(g, 0) + e
        # x**3 = x: exponents above 2 fold to 1 when odd, 2 when even.
        return tuple(sorted((g, e if e <= 2 else 2 - e % 2) for g, e in powers.items()))

    def mul(terms1, terms2):
        counter = {}
        for m1, c1 in terms1:
            for m2, c2 in terms2:
                mono = mono_mul(m1, m2)
                counter[mono] = counter.get(mono, 0) + c1 * c2
        return list(counter.items())

    out = {}
    for mono, coeff in expr.terms:
        prod = [((), 1)]
        for gen, e in mono:
            factor = kernel.KernelExpr(kernel._split_generator(i, j, gen)).terms
            if e == 2:
                factor = mul(factor, factor)
            prod = mul(prod, factor)
        for m, c in prod:
            out[m] = out.get(m, 0) + c * coeff
    return tuple(sorted((m, c % 3) for m, c in out.items() if c % 3))


@pytest.mark.parametrize("start", ["gamma", "delta"])
def test_packed_step_matches_term_by_term_expansion(start):
    states = kernel_closure(start).states[::40]
    stepped = step_all(states)
    assert len(stepped) == 369
    for k, state in enumerate(states):
        for d, (i, j) in enumerate(DIGIT_PAIRS):
            assert stepped[9 * k + d].terms == _reference_step(i, j, state), \
                (start, 40 * k, i, j)


def _reference_evaluate(expr, n, p):
    """The scalar evaluator the batch one replaced: walk the set bits of
    each monomial, read each generator power once per call, and stop a
    monomial at its first zero factor."""
    powers = {}
    total = 0
    for key, coeff in expr.poly:
        value = coeff
        rest = key
        while rest:
            bit = rest & -rest
            rest ^= bit
            power = powers.get(bit)
            if power is None:
                high, k = divmod(bit.bit_length() - 1, kernel._WIDTH)
                base = generator_value(kernel._GENERATORS[k], n, p)
                power = powers[bit] = base ** (high + 1) % 3
            if not power:
                break
            value *= power
        else:
            total += value
    return total % 3


@pytest.mark.parametrize("start", ["gamma", "delta"])
def test_batch_evaluation_matches_reference(start):
    states = kernel_closure(start).states
    got = evaluate_states(states, 4)
    assert got.dtype == np.int8 and got.shape == (CLOSURE_STATES, 25)
    assert got.tolist() == [[_reference_evaluate(s, n, p) for n, p in window_points(4)]
                            for s in states]


@pytest.mark.parametrize("window", [0, 8, 14, 20])
@pytest.mark.parametrize("start", ["gamma", "delta"])
def test_window_evaluation_matches_the_per_point_evaluator(start, window):
    # The table read against the evaluator it replaced, which reads
    # every generator through the scalar engine, state for state.
    states = kernel_closure(start).states
    got = evaluate_states(states, window)
    assert got.dtype == np.int8
    assert np.array_equal(got, evaluate_states_at_points(states, window_points(window)))


def test_window_evaluation_refuses_gamma_row_minus_one():
    # tables() holds a placeholder 0 at gamma's row -1; the scalar
    # engine has no value there, and neither may the evaluator.
    with pytest.raises(ValueError, match="need n >= 0"):
        evaluate_states_at_points([generator_expr("G", -1, 2)], [(0, 0)])
    for window in (0, 3):
        with pytest.raises(ValueError, match=r"S\[-1,2\]G reads gamma at row -1"):
            evaluate_states([GAMMA, generator_expr("G", -1, 2)], window)
    with pytest.raises(ValueError, match="need window >= 0, got -1"):
        evaluate_states([GAMMA], -1)
    assert evaluate_states([generator_expr("D", -1, 0)], 1).tolist() == [[1, 0, 1, 1]]


def test_lattices_and_state_values_over_the_cell_cap_refuse_before_any_table(monkeypatch):
    # Output cells are witnesses (or states) times (window + 1)**2: both
    # closures' witnesses admit window 34 and one closure's states 48.
    closures = {start: kernel_closure(start) for start in engine.KINDS}
    witnesses = {start: closure.witnesses for start, closure in closures.items()}
    states = closures["gamma"].states

    class TableRead(Exception):
        pass

    def no_table(*args):
        raise TableRead

    monkeypatch.setattr(engine, "tables", no_table)
    cap = engine.DEFAULT_GRID_CELL_CAP
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"output of {2 * CLOSURE_STATES * 36 ** 2} "
                                             f"cells exceeds the cap {cap}"):
            checks.kernel_soundness(35)
        with pytest.raises(ValueError, match=f"output of {CLOSURE_STATES * 50 ** 2} "
                                             f"cells exceeds the cap {cap}"):
            evaluate_states(states, 49)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    # The windows in use and the largest admitted ones reach the table.
    for window in (0, 8, 14, 20, 34):
        with pytest.raises(TableRead):
            engine.witness_lattices(witnesses, window)
    for window in (20, 48):
        with pytest.raises(TableRead):
            evaluate_states(states, window)


# A state swapped with its successor, chosen so that the first mismatch
# lies off the row n = 0 and the column p = 0.
SWAPPED_STATE = {"gamma": 28, "delta": 19}


@pytest.mark.parametrize("start, stream", [("gamma", "G"), ("delta", "D")],
                         ids=["gamma", "delta"])
def test_kernel_soundness_reports_first_mismatch(monkeypatch, start, stream):
    real = kernel.kernel_closure
    closure = real(start)
    states = list(closure.states)
    k = SWAPPED_STATE[start]
    states[k], states[k + 1] = states[k + 1], states[k]
    broken = kernel.Closure(closure.start, tuple(states), closure.witnesses,
                            closure.transitions)
    monkeypatch.setattr(kernel, "kernel_closure",
                        lambda s, cap=kernel.DEFAULT_STATE_CAP:
                        broken if s == start else real(s, cap))

    window = 8
    mismatches = (
        f"{start} state with witness ({m},{r},{s}) disagrees at n={n} p={p}"
        for state, (m, r, s) in zip(states, closure.witnesses)
        for n in range(window + 1) for p in range(window + 1)
        if _reference_evaluate(state, n, p)
        != split_cell(stream, 3 ** m * n + r, 3 ** m * p + s))
    expected = next(mismatches)
    result = checks.kernel_soundness(window)
    assert not result.ok
    assert result.line() == f"FAIL kernel-soundness: {expected}"


def test_kernel_soundness_fails_on_a_flipped_compiled_sign(monkeypatch):
    # The second term of (1, 0, "G") with its sign flipped in the table
    # the lattices and tables gather by; the kernel keeps SPLIT_RULES.
    plane, row, col, weight = engine._COMPILED_RULES
    weight = weight.copy()
    weight[0, 1, 0, 1] = 3 - weight[0, 1, 0, 1]
    monkeypatch.setattr(engine, "_COMPILED_RULES", engine.CompiledRules(plane, row, col, weight))
    # The closure states are evaluated on rows -1 .. window + 2 of one
    # table, a copy of the corner built at import by the true rules; the
    # lattices read the edit at every level above it.  The report is the
    # first mismatch of the per-point evaluator, reading its generators
    # from that table, against the lattices.
    window = 8
    table = dict(zip("GD", engine.tables(-1, window + 2, 0, window + 2)))
    with monkeypatch.context() as edited:
        edited.setattr(slow_paths, "split_cell", lambda sym, n, p: int(table[sym][n + 1, p]))
        states = {start: evaluate_states_at_points(kernel_closure(start).states,
                                                   window_points(window))
                  for start in engine.KINDS}
    witnesses = {start: kernel_closure(start).witnesses for start in engine.KINDS}
    lattices = engine.witness_lattices(witnesses, window)
    mismatches = (
        f"{start} state with witness ({m},{r},{s}) disagrees at n={col // (window + 1)} "
        f"p={col % (window + 1)}"
        for start in engine.KINDS for k, col in np.argwhere(states[start] != lattices[start])
        for m, r, s in [witnesses[start][k]])
    result = checks.kernel_soundness(window)
    assert (result.ok, result.detail) == (False, next(mismatches))
    assert not checks.dfao_grid().ok


def test_kernel_soundness_fails_on_a_rule_only_the_kernel_reads(monkeypatch):
    # Factor G[0,1]^2 of (0, 2, "G") read at column shift 0: the closure
    # is built from the edited SPLIT_RULES, the engine keeps its compiled
    # table and its cells the true rules.
    rules = dict(engine.SPLIT_RULES)
    assert rules[0, 2, "G"] == ((0, (("G", 0, 1, 2), ("D", 0, 0, 1))),)
    rules[0, 2, "G"] = ((0, (("G", 0, 0, 2), ("D", 0, 0, 1))),)
    seen_by_kernel = types.SimpleNamespace(**vars(engine))
    seen_by_kernel.SPLIT_RULES = rules
    monkeypatch.setattr(kernel, "engine", seen_by_kernel)
    monkeypatch.setattr(kernel, "_CLOSURES", {})
    result = checks.kernel_soundness(8)
    assert (result.ok, result.detail) == (
        False, "gamma state with witness (1,0,2) disagrees at n=1 p=0")


# SHA-256 of the closure states printed one to a line in discovery order,
# pinned from the term-by-term build: with TABLE_DIGESTS below this holds
# the closure identical state for state.
STATE_DIGESTS = {
    "gamma": "0530b36b5b89a7d27854b5b0778847ea0a4291339582735d7ce65255277d1c08",
    "delta": "1fa228658408dd7e2056fee47ed53060901279da4679fb4ba1a903f8bcb455c7",
}


@pytest.mark.parametrize("start", ["gamma", "delta"])
def test_closure_state_digest(start):
    text = "\n".join(str(s) for s in kernel_closure(start).states) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == STATE_DIGESTS[start]


# SHA-256 of the closure witnesses "m r s", one to a line in state order,
# pinned from the build that recorded each witness as its state appeared.
WITNESS_DIGESTS = {
    "gamma": "34903d9aec04e8d3925e0c929acb5bd729d782a39d83e66348d859d18561f967",
    "delta": "ed4e712cc2b3494b8bbabbdee4eddf142b437d9e7d89d72cd921662e38b3f3d0",
}


@pytest.mark.parametrize("start", ["gamma", "delta"])
def test_closure_witness_digest(start):
    text = "".join(f"{m} {r} {s}\n" for m, r, s in kernel_closure(start).witnesses)
    assert hashlib.sha256(text.encode()).hexdigest() == WITNESS_DIGESTS[start]


def test_closure_build_logs_one_debug_record(caplog, capsys):
    caplog.set_level(logging.DEBUG, logger="cantor_hankel.kernel")
    # Past the per-process cache, so the build really runs.
    kernel._build_closure("delta", 2000)
    records = [r for r in caplog.records if r.name == "cantor_hankel.kernel"]
    assert len(records) == 1
    record = records[0]
    assert record.levelno == logging.DEBUG
    start, states, memoised, seconds = record.args
    assert (start, states) == ("delta", CLOSURE_STATES)
    assert memoised > 0 and seconds >= 0
    assert "delta" in record.getMessage()
    assert capsys.readouterr().out == ""


def test_closure_cache_is_per_start(caplog):
    caplog.set_level(logging.DEBUG, logger="cantor_hankel.kernel")
    build_dfao("gamma")
    closure = kernel_closure("gamma")
    for cap in range(2000, 2008):
        assert kernel_closure("gamma", cap) is closure
    caplog.clear()
    build_dfao("gamma")
    assert [r for r in caplog.records if r.name == "cantor_hankel.kernel"] == []
    # A cap under the cached closure's size is refused as a cold build
    # over it is.
    assert kernel_closure("gamma", CLOSURE_STATES) is closure
    with pytest.raises(RuntimeError, match=f"cap of {CLOSURE_STATES - 1} states"):
        kernel_closure("gamma", CLOSURE_STATES - 1)


def test_cold_closure_build_stops_at_its_cap(monkeypatch):
    monkeypatch.setattr(kernel, "_CLOSURES", {})
    expanded = []
    successors = kernel._Stepper.successors

    def counted(self, states):
        expanded.append(len(states))
        return successors(self, states)

    monkeypatch.setattr(kernel._Stepper, "successors", counted)
    with pytest.raises(RuntimeError, match="cap of 100 states"):
        kernel_closure("gamma", 100)
    assert 0 < sum(expanded) <= 100
    assert kernel._CLOSURES == {}


# The state-by-state build over memoised part images peaked at 4.1 MB
# (tracemalloc, gamma) in a fresh process and at 3.2 MB with its imports
# warm; the level-at-a-time build peaks at about 2.1 MB warm, most of it
# the closure itself.  The budget sits under the old peak.
CLOSURE_PEAK_BUDGET = 3_000_000


@pytest.mark.parametrize("start", ["gamma", "delta"])
def test_cold_closure_build_peaks_under_budget(start):
    kernel._build_closure(start, kernel.DEFAULT_STATE_CAP)
    tracemalloc.start()
    try:
        kernel._build_closure(start, kernel.DEFAULT_STATE_CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < CLOSURE_PEAK_BUDGET


def test_closure_cap_enforced():
    with pytest.raises(RuntimeError):
        kernel_closure("gamma", cap=100)
    with pytest.raises(ValueError):
        kernel_closure("omega")


# The automata against the splitting recursion split_cell, not the
# engine's cells: the cells walk the minimal automata, which these
# tables rebuild.
def test_dfao_against_engine_window():
    dfao = build_dfao("gamma")
    assert dfao.outputs[dfao.start] == split_cell("G", 0, 0)
    for n in range(31):
        for p in range(31):
            assert dfao.evaluate(n, p) == split_cell("G", n, p)


def test_dfao_delta_start():
    dfao = build_dfao("delta")
    for n in range(16):
        for p in range(16):
            assert dfao.evaluate(n, p) == split_cell("D", n, p)


# SHA-256 of the table export, pinned so that any change to the splitting
# rules that alters a single transition or output shows here.
TABLE_DIGESTS = {
    "gamma": "a65014e9facabaa342b97fcaaaaec6efb8129fb2f927184fe8ef4452f157033d",
    "delta": "75477925921e14fc011b142982e22aee76487c72a081d9f5b595a1c1362a4314",
}


@pytest.mark.parametrize("start", ["gamma", "delta"])
def test_table_export_digest(start):
    table = export_dfao(build_dfao(start), "table")
    assert hashlib.sha256(table.encode()).hexdigest() == TABLE_DIGESTS[start]


MINIMAL_STATES = 60


@pytest.mark.parametrize("start", ["gamma", "delta"])
def test_minimise_cuts_the_closure_automaton_to_60_states(start):
    dfao = build_dfao(start)
    minimal = kernel.minimise(dfao)
    assert (dfao.n_states, minimal.n_states) == (CLOSURE_STATES, MINIMAL_STATES)
    assert kernel.minimise(minimal) == minimal
    n, p = np.meshgrid(np.arange(82), np.arange(82), indexing="ij")
    assert np.array_equal(minimal.evaluate(n, p), dfao.evaluate(n, p))


# States 1 and 2 have one output and step to each other, so they merge;
# state 3 is unreachable.  Renumbered breadth first from the start.
MERGEABLE_DFAO = kernel.Dfao2D(0, (0, 1, 1, 2), ((0, 1, 2, 0, 2, 1, 0, 1, 2),
                                                 (2,) * 9, (1,) * 9, (0,) * 9))
MERGED_DFAO = kernel.Dfao2D(0, (0, 1), ((0, 1, 1, 0, 1, 1, 0, 1, 1), (1,) * 9))


def test_minimise_merges_equivalent_states_by_hand():
    assert kernel.minimise(MERGEABLE_DFAO) == MERGED_DFAO
    # The same automaton with its states renamed 0 -> 3 -> 1 -> 2 -> 0,
    # so the start is 3: the same canonical table.
    renamed = kernel.Dfao2D(3, (1, 2, 1, 0), ((2,) * 9, (3,) * 9, (0,) * 9,
                                              (3, 2, 0, 3, 0, 2, 3, 2, 0)))
    assert kernel.minimise(renamed) == MERGED_DFAO
    # Outputs that differ keep states apart, however alike their rows.
    apart = kernel.Dfao2D(0, (0, 1, 2, 2), MERGEABLE_DFAO.transitions)
    assert kernel.minimise(apart).n_states == 3


def minimal_literal(kind: str, dfao: kernel.Dfao2D) -> str:
    """The entry of kind in cantor_hankel._minimal.AUTOMATA, as source
    text: the outputs 20 to a line, then the transitions one state to a
    line."""
    def wrapped(values, width):
        lines = [", ".join(map(str, values[k:k + width])) for k in range(0, len(values), width)]
        return "(" + ",\n         ".join(lines) + ")"

    transitions = [t for row in dfao.transitions for t in row]
    return (f'    "{kind}": (\n        {wrapped(dfao.outputs, 20)},\n'
            f'        {wrapped(transitions, 9)},\n    ),\n')


@pytest.mark.parametrize("start", ["gamma", "delta"])
def test_checked_in_minimal_automata_rebuild(start):
    # The data the cells walk, against the automaton minimised afresh.
    from cantor_hankel._minimal import AUTOMATA
    minimal = kernel.minimise(build_dfao(start))
    outputs, transitions = AUTOMATA[start]
    assert (outputs, transitions) == (minimal.outputs, sum(minimal.transitions, ())), \
        "paste into src/cantor_hankel/_minimal.py:\n" + minimal_literal(start, minimal)


def test_export_table_round_trip():
    dfao = build_dfao("gamma")
    assert parse_dfao_table(export_dfao(dfao, "table")) == dfao


# A 2-state automaton whose table has every transition target 0 and 1.
SMALL_DFAO = kernel.Dfao2D(0, (1, 2), ((0, 1, 0, 1, 0, 1, 0, 1, 1),
                                       (1, 1, 0, 0, 1, 0, 1, 1, 0)))


@pytest.mark.parametrize("edit, named", [
    (("trans 0 2 2 1", "trans 0 0 8 1"), "line 'trans 0 0 8 1'"),
    (("trans 1 2 2 0", "trans 1 2 2 0\ntrans -1 0 0 0"), "line 'trans -1 0 0 0'"),
    (("trans 0 1 1 0", "trans 0 1 1 0\ntrans 0 1 1 1"),
     "repeated transition in line 'trans 0 1 1 1'"),
    (("start 0", "start 7"), "line 'start 7'"),
    (("outputs 1 2", "outputs 1 5"), "line 'outputs 1 5'"),
    (("outputs 1 2\n", ""), "no outputs line"),
    (("trans 0 1 1 0", "trans 0 1 x 0"), "line 'trans 0 1 x 0'"),
    (("trans 1 0 0 1\n", ""), "transition table is incomplete"),
    (("states 2", "states 2\nstates 3"), "repeated line 'states 3'"),
], ids=["digit-8", "state-minus-1", "repeated-trans", "start-7", "output-5",
        "no-outputs", "non-integer", "missing-trans", "repeated-states"])
def test_parse_refuses_a_corrupt_table(edit, named):
    text = export_dfao(SMALL_DFAO, "table")
    assert parse_dfao_table(text) == SMALL_DFAO
    old, new = edit
    assert text.count(old) == 1
    with pytest.raises(ValueError, match=re.escape(named)):
        parse_dfao_table(text.replace(old, new))


def test_export_dot_shape():
    dfao = build_dfao("gamma")
    dot = export_dfao(dfao, "dot")
    assert dot.startswith("digraph")
    assert "doublecircle" in dot
    assert dot.rstrip().endswith("}")
    with pytest.raises(ValueError):
        export_dfao(dfao, "svg")


def test_projected_row_automaton():
    dfao = build_dfao("gamma")
    for n in (0, 1, 4, 9, 27):
        row = project_row(dfao, n)
        for p in range(41):
            assert row.evaluate(p) == split_cell("G", n, p)


@pytest.mark.parametrize("start, stream", [("gamma", "G"), ("delta", "D")],
                         ids=["gamma", "delta"])
def test_projected_row_from_parsed_export(start, stream):
    # A parsed export carries no symbolic states: the projection runs on
    # the automaton alone.
    parsed = parse_dfao_table(export_dfao(build_dfao(start), "table"))
    for n in (0, 1, 2, 5, 13, 40, 81, 100, 242):
        row = project_row(parsed, n)
        for p in range(41):
            assert row.evaluate(p) == split_cell(stream, n, p), (start, n, p)


def test_projected_row_digest():
    # Every field of each projection, so a renumbering of its pairs fails
    # here even where every value a row reads stays right.
    digest = hashlib.sha256()
    for start in ("gamma", "delta"):
        dfao = build_dfao(start)
        for n in (0, 1, 2, 5, 13, 40, 81, 100, 242, 3 ** 20 - 1):
            row = project_row(dfao, n)
            digest.update(repr((row.start, row.outputs, row.transitions)).encode())
    assert digest.hexdigest() == \
        "323cbb02e60ab6d2c68fc280684ac9cb79cd6355ae6d6ed667475e29461c9bb0"


class _RecordedRows(tuple):
    """A transition table that records each row read."""

    def __new__(cls, rows, reads):
        table = super().__new__(cls, rows)
        table.reads = reads
        return table

    def __getitem__(self, state):
        self.reads.append(state)
        return super().__getitem__(state)


def test_projected_row_caps_the_digits_of_n():
    dfao = build_dfao("gamma")
    n = 3 ** engine.MAX_INDEX_DIGITS - 1
    row = project_row(dfao, n)
    assert [row.evaluate(p) for p in range(4)] == [split_cell("G", n, p) for p in range(4)]
    reads = []
    recorded = dataclasses.replace(dfao, transitions=_RecordedRows(dfao.transitions, reads))
    assert project_row(recorded, 5) == project_row(dfao, 5) and reads
    reads.clear()
    with pytest.raises(ValueError, match="more than 200 base-3 digits"):
        project_row(recorded, 3 ** engine.MAX_INDEX_DIGITS)
    assert reads == []


# Points where the array walk meets its edge cases: the origin, ints past
# 2**64 in both arguments, and past int64 beside a small index.
WALK_POINTS = [(0, 0), (0, 1), (1, 0), (3 ** 45 + 7, 2 ** 70 + 5),
               (2 ** 64 + 1, 3 ** 41), (2 ** 63 + 5, 1), (2, 2 ** 64 - 1)]


@pytest.mark.parametrize("start", ["gamma", "delta"])
def test_array_walk_matches_the_cell_walk(start):
    dfao = build_dfao(start)
    rng = np.random.default_rng(26)
    for hi in (5, 3 ** 6, 3 ** 20, 2 ** 62):
        n, p = rng.integers(0, hi, (2, 7, 9), dtype=np.int64)
        want = [[walk_by_cells(dfao, a, b) for a, b in zip(*rows)]
                for rows in zip(n.tolist(), p.tolist())]
        assert dfao.evaluate(n, p).tolist() == want, (start, hi)
    for a, b in WALK_POINTS:
        got = dfao.evaluate(a, b)
        assert type(got) is int and got == walk_by_cells(dfao, a, b), (start, a, b)
    # Arrays of Python ints past int64 walk as object arrays, and uint64
    # arrays as they are.
    n, p = zip(*WALK_POINTS)
    want = [walk_by_cells(dfao, a, b) for a, b in WALK_POINTS]
    assert dfao.evaluate(np.array(n, dtype=object), np.array(p, dtype=object)).tolist() == want
    assert dfao.evaluate(np.array([2 ** 64 - 1, 4], np.uint64),
                         np.array([3, 2 ** 63], np.uint64)).tolist() == \
        [walk_by_cells(dfao, 2 ** 64 - 1, 3), walk_by_cells(dfao, 4, 2 ** 63)]
    empty = dfao.evaluate(np.zeros((0, 3), np.int64), np.zeros((0, 3), np.int64))
    assert empty.shape == (0, 3)


@pytest.mark.parametrize("n, p", [(-1, 0), (0, -1), (-2 ** 70, 5),
                                  (np.array([3, -1]), np.array([0, 0]))])
def test_array_walk_refuses_a_negative_index(n, p):
    with pytest.raises(ValueError, match="need n >= 0 and p >= 0"):
        build_dfao("delta").evaluate(n, p)


def test_array_walk_refuses_unequal_shapes_and_floats():
    dfao = build_dfao("gamma")
    with pytest.raises(ValueError, match="of one shape"):
        dfao.evaluate(np.arange(3), np.arange(4))
    with pytest.raises(ValueError, match="integer n and p"):
        dfao.evaluate(np.array([2.0 ** 70]), np.array([1.0]))


# Values the scalar walk gave, past int64 and past 2**64.
@pytest.mark.parametrize("start, n, p, value", [
    ("gamma", 656513934792560939660, 218837978263024718436, 2),
    ("delta", 72945992757828357212, 218837978263024718420, 2),
    ("gamma", 9223372036854775813, 0, 1),
    ("delta", 12157665459056928801, 1, 0),
])
def test_array_walk_past_int64(start, n, p, value):
    assert build_dfao(start).evaluate(n, p) == value


def test_swapped_delta_transition_fails_the_dfao_check(monkeypatch):
    # Digit pairs (0, 0) and (0, 1) of delta state 5 lead to states 46
    # and 47; swapped, the delta automaton is wrong at n = 1, p = 4.
    closure = kernel_closure("delta")
    rows = list(closure.transitions)
    assert rows[5][:2] == (46, 47)
    rows[5] = (rows[5][1], rows[5][0]) + rows[5][2:]
    monkeypatch.setitem(kernel._CLOSURES, "delta",
                        dataclasses.replace(closure, transitions=tuple(rows)))
    result = checks.dfao_grid()
    assert (result.ok, result.detail) == (False, "mismatch at n=1 p=4")
    # kernel_soundness reads the closure's states, not its transitions,
    # so a swapped transition still passes it: checking every transition
    # is the roadmap's open item 4(b).
    assert checks.kernel_soundness().ok
