import hashlib
import itertools
import logging
import re

import numpy as np
import pytest

from cantor_hankel import checks, engine, kernel
from cantor_hankel.kernel import (DELTA, GAMMA, KernelExpr, apply_t,
                                  build_dfao, evaluate_states, export_dfao,
                                  generator_expr, kernel_closure,
                                  parse_dfao_table, project_row)
from slow_paths import (closure_by_monomial_chains, evaluate_states_at_points,
                        generator_value, window_points)

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
    readers = {"G": checks._oracle_reads(True), "D": checks._oracle_reads(False)}
    for (i, j, sym), rule in engine.SPLIT_RULES.items():
        reads = readers[sym]
        for n in range(2, 5):
            for p in range(6):
                rhs = engine.split_value(rule, 3 * n + i, 3 * p + j, reads)
                assert reads[sym](3 * n + i, 3 * p + j) == (rhs if sym == "G" else rhs % 3), \
                    (i, j, sym, n, p)


DIGIT_PAIRS = list(itertools.product(range(3), range(3)))


def test_single_digit_steps_match_engine():
    for start, base in ((GAMMA, engine.gamma_mod3), (DELTA, engine.delta_mod3)):
        stepped = [apply_t(i, j, start) for i, j in DIGIT_PAIRS]
        want = [[base(3 * n + i, 3 * p + j) for n, p in window_points(5)]
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
    for start, base in ((GAMMA, engine.gamma_mod3), (DELTA, engine.delta_mod3)):
        chains = list(itertools.product(range(3), repeat=4))
        chained = [apply_t(i2, j2, apply_t(i1, j1, start)) for i1, j1, i2, j2 in chains]
        want = [[base(9 * n + 3 * i2 + i1, 9 * p + 3 * j2 + j1) for n, p in window_points(2)]
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


def test_closure_witnesses_sample():
    closure = kernel_closure("gamma")
    # Every 40th state; the acceptance sweep covers all of them.
    got = evaluate_states(closure.states[::40], 2).tolist()
    want = [[engine.gamma_mod3(3 ** m * n + r, 3 ** m * p + s) for n, p in window_points(2)]
            for m, r, s in closure.witnesses[::40]]
    assert got == want


def _reference_apply_t(i, j, expr):
    """apply_t by term-by-term expansion: split every generator, multiply
    the factors out with exponents capped, and collect like monomials."""

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
    states = kernel_closure(start).states
    for idx in range(0, CLOSURE_STATES, 40):
        for i, j in itertools.product(range(3), range(3)):
            assert apply_t(i, j, states[idx]).terms == \
                _reference_apply_t(i, j, states[idx]), (start, idx, i, j)


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


@pytest.mark.parametrize("window", [0, 8, 20])
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


# A state swapped with its successor, chosen so that the first mismatch
# lies off the row n = 0 and the column p = 0.
SWAPPED_STATE = {"gamma": 28, "delta": 19}


@pytest.mark.parametrize("start, base", [("gamma", engine.gamma_mod3),
                                         ("delta", engine.delta_mod3)],
                         ids=["gamma", "delta"])
def test_kernel_soundness_reports_first_mismatch(monkeypatch, start, base):
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
        if _reference_evaluate(state, n, p) != base(3 ** m * n + r, 3 ** m * p + s))
    expected = next(mismatches)
    result = checks.kernel_soundness(window)
    assert not result.ok
    assert result.line() == f"FAIL kernel-soundness: {expected}"


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
    kernel._closure_cached.__wrapped__("delta", 2000)
    records = [r for r in caplog.records if r.name == "cantor_hankel.kernel"]
    assert len(records) == 1
    record = records[0]
    assert record.levelno == logging.DEBUG
    start, states, memoised, seconds = record.args
    assert (start, states) == ("delta", CLOSURE_STATES)
    assert memoised > 0 and seconds >= 0
    assert "delta" in record.getMessage()
    assert capsys.readouterr().out == ""


def test_closure_cap_enforced():
    with pytest.raises(RuntimeError):
        kernel_closure("gamma", cap=100)
    with pytest.raises(ValueError):
        kernel_closure("omega")


def test_dfao_against_engine_window():
    dfao = build_dfao("gamma")
    assert dfao.outputs[dfao.start] == engine.gamma_mod3(0, 0)
    for n in range(31):
        for p in range(31):
            assert dfao.evaluate(n, p) == engine.gamma_mod3(n, p)


def test_dfao_delta_start():
    dfao = build_dfao("delta")
    for n in range(16):
        for p in range(16):
            assert dfao.evaluate(n, p) == engine.delta_mod3(n, p)


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
            assert row.evaluate(p) == engine.gamma_mod3(n, p)


@pytest.mark.parametrize("start, base", [("gamma", engine.gamma_mod3),
                                         ("delta", engine.delta_mod3)],
                         ids=["gamma", "delta"])
def test_projected_row_from_parsed_export(start, base):
    # A parsed export carries no symbolic states: the projection runs on
    # the automaton alone.
    parsed = parse_dfao_table(export_dfao(build_dfao(start), "table"))
    for n in (0, 1, 2, 5, 13, 40, 81, 100, 242):
        row = project_row(parsed, n)
        for p in range(41):
            assert row.evaluate(p) == base(n, p), (start, n, p)
