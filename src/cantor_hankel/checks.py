"""Verification sweeps shared by the command-line verify report and the
acceptance tests.

Each function runs one family of identities over an explicit window and
returns a CheckResult whose detail string is deterministic, so the
assembled report is byte-stable run over run.  The sweeps deliberately
avoid the recurrence engine wherever the engine itself is on trial:
exact and mod-3 determinants always come from the elimination oracles,
and engine values from engine.tables rectangles, never scalar cells.
The splitting replays read the rule table through the engine's reader,
engine.split_value, but feed it oracle values only, never an engine
cell, so the eliminated left side still catches a misread rule.  They
read every determinant from one exact table per stream, the leading
minors of hankel.minors_exact_stack, which the mod-3 replay reduces: so
it rests on another eliminator than the GF(3) oracle sweep.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from . import engine, kernel, series
from .hankel import (MAX_HANKEL_ORDER, hankel_stack, minors_exact_stack, minors_mod3_stack,
                     verify_structure)
from .pade import verify_functional_equation as _feq_report
from .pade import verify_pade_error


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        status = "ok  " if self.ok else "FAIL"
        return f"{status} {self.name}: {self.detail}"


# The budget of one stack the oracle sweep or a splitting replay
# eliminates at once, in matrix entries: each matrix also carries about
# STACK_OVERHEAD entries' worth of bookkeeping (its term, pivot rows and
# minors), which dominates at small orders.  In the sweep each entry is
# an int16 residue, and a step peaks at about 390 KiB at every order up
# to 362 on a 64-bit build; in a replay it is an int64, or a Python int
# while the minors outgrow int64.
STACK_ENTRIES = 1 << 17
STACK_OVERHEAD = 64


# The most elimination work, 2 * (p_max + 1) * n_max**3, of one oracle
# sweep: it eliminates the order-n_max matrix at each offset of both
# families.  Cold in process on a 2-core VM, the largest windows under
# it take 1.4 s at (500, 11), 2.1 s at (200, 186) and 2.3 s at (120, 867),
# and (277, 0) 0.05 s.  (40, 81), the largest window in use, is 1.0e7.
ORACLE_WORK_CAP = 3_000_000_000


def _stacks(kind: str, n_max: int, p_max: int) -> Iterator[np.ndarray]:
    """The order-n_max Hankel matrices of kind at offsets 0..p_max, in
    offset order, as stacks of at most STACK_ENTRIES entries' worth."""
    chunk = max(1, STACK_ENTRIES // (n_max * n_max + STACK_OVERHEAD))
    for p in range(0, p_max + 1, chunk):
        yield hankel_stack(kind, p, n_max, min(chunk, p_max + 1 - p))


def _need(window: str, bound: str, value: int, least: int) -> None:
    """Refuse an empty window: it would pass without comparing anything."""
    if value < least:
        raise ValueError(f"the {window} window needs {bound} >= {least}, got {value}")


def oracle_equivalence(n_max: int = 40, p_max: int = 81) -> CheckResult:
    """Engine values against eliminated determinants, both families.

    A window of more than ORACLE_WORK_CAP units of work,
    2 * (p_max + 1) * n_max**3, is refused first.  Every engine value then
    comes from one engine.tables rectangle, read before any elimination,
    so a window over its cell cap is refused before any cell or matrix.
    The order-n_max matrices at all offsets are eliminated as a few
    stacks within STACK_ENTRIES, whose leading minors give every order.
    The first mismatch is reported in the order n, then p, gamma before
    delta.
    """
    name = "oracle-equivalence"
    _need("oracle", "n_max", n_max, 1)
    _need("oracle", "p_max", p_max, 0)
    if n_max > MAX_HANKEL_ORDER:
        raise ValueError(
            f"the oracle window needs n_max <= {MAX_HANKEL_ORDER}, got {n_max}")
    work = 2 * (p_max + 1) * n_max ** 3
    if work > ORACLE_WORK_CAP:
        raise ValueError(
            f"the oracle window takes {work} units of elimination work, over the "
            f"cap of {ORACLE_WORK_CAP}")
    got = np.stack(engine.tables(1, n_max, 0, p_max), axis=-1)  # [n - 1, p, kind]
    # Column n - 1 of the minors: the order-n determinants at every offset.
    expected = np.stack([np.concatenate([
        minors_mod3_stack(stack) for stack in _stacks(kind, n_max, p_max)]).T
        for kind in engine.KINDS], axis=-1)
    wrong = np.argwhere(got != expected)
    if wrong.size:
        n, p, k = wrong[0]
        return CheckResult(
            name, False,
            f"first mismatch {engine.KINDS[k]} at n={n + 1} p={p}: engine "
            f"{got[n, p, k]}, determinant {expected[n, p, k]}")
    return CheckResult(name, True, f"1 <= n <= {n_max}, 0 <= p <= {p_max}, both families")


# The most verify_structure calls, n_max * (p_max + 1), of one structure
# sweep.  Each takes about 1.2 ms at n = 1, 2 ms at n = 4 and 23 ms at
# n = 80 on a 2-core VM, so (1, 1999) takes about 2.4 s and (4, 499)
# 2.9 s; (4, 4), the window in use, is 20 calls.
STRUCTURE_CALL_CAP = 2000


def structure_identities(n_max: int = 5, p_max: int = 5) -> CheckResult:
    name = "structure-identities"
    _need("structure", "n_max", n_max, 1)
    _need("structure", "p_max", p_max, 0)
    # verify_structure(p, n) builds H_{3n+2}; refused before any elimination.
    if 3 * n_max + 2 > MAX_HANKEL_ORDER:
        raise ValueError(f"the structure window reaches order 3 * n_max + 2 = "
                         f"{3 * n_max + 2}, over the cap of {MAX_HANKEL_ORDER}")
    calls = n_max * (p_max + 1)
    if calls > STRUCTURE_CALL_CAP:
        raise ValueError(f"the structure window takes {calls} verify_structure calls, "
                         f"over the cap of {STRUCTURE_CALL_CAP}")
    for n in range(1, n_max + 1):
        for p in range(p_max + 1):
            report = verify_structure(p, n)
            if not report.ok:
                return CheckResult(
                    name, False, f"{report.failed} fails at n={n} p={p}")
    return CheckResult(name, True, f"1 <= n <= {n_max}, 0 <= p <= {p_max}")


def _oracle_reads(exact: bool, windows: Mapping[str, tuple[int, int]]
                  ) -> dict[str, Callable[[int, int], int]]:
    """Eliminated determinants by (order, offset), keyed by stream as
    engine.split_value reads them, exact or mod 3: stream sym at orders
    0..n_max and offsets 0..p_max, (n_max, p_max) = windows[sym].

    Each stream's window is one table, the leading minors of its
    order-n_max matrices at every offset, so each determinant is
    eliminated once, for all the reads of every rule.  The matrices are
    eliminated in stacks within STACK_ENTRIES, so the elimination's
    memory stays bounded whatever p_max is.  The tables are built in the
    order of windows, and each refuses an order over the cap before it
    eliminates anything.
    """
    reads = {}
    for sym, (n_max, p_max) in windows.items():
        kind = engine.KINDS["GD".index(sym)]
        rows = [[1, *row] for stack in _stacks(kind, n_max, p_max)
                for row in minors_exact_stack(stack).tolist()]
        if not exact:
            rows = [[x % 3 for x in row] for row in rows]
        reads[sym] = lambda n, p, rows=rows: rows[p][n]
    return reads


def _splitting(stream: str, exact: bool, n_lo: int, n_hi: int,
               p_max: int) -> CheckResult:
    """The nine splitting identities of one stream against the oracle."""
    name = "splitting-identities-" + ("exact" if exact else "mod3")
    # Row n reads factors of order n + a with a >= -1.
    _need("splitting", "n_lo", n_lo, 1)
    _need("splitting", "n_hi", n_hi, n_lo)
    _need("splitting", "p_max", p_max, 0)
    # The left sides reach order 3 * n_hi + 2 at offset 3 * p_max + 2, the
    # factors order n_hi + 2 at offset p_max + 1.  The replayed stream's
    # table, the larger, is built first, so a window over the order cap is
    # refused before any elimination.
    other = "D" if stream == "G" else "G"
    reads = _oracle_reads(exact, {stream: (3 * n_hi + 2, 3 * p_max + 2),
                                  other: (n_hi + 2, p_max + 1)})
    rules = [(i, j, rule) for (i, j, sym), rule in sorted(engine.SPLIT_RULES.items())
             if sym == stream]
    for n in range(n_lo, n_hi + 1):
        for p in range(p_max + 1):
            for i, j, rule in rules:
                lhs = reads[stream](3 * n + i, 3 * p + j)
                rhs = engine.split_value(rule, 3 * n + i, 3 * p + j, reads)
                if not exact:
                    rhs %= 3
                if lhs != rhs:
                    return CheckResult(
                        name, False,
                        f"rule ({i},{j}) fails at n={n} p={p}: {lhs} != {rhs}")
    return CheckResult(
        name, True, f"9 identities, {n_lo} <= n <= {n_hi}, 0 <= p <= {p_max}")


def splitting_exact(n_lo: int = 2, n_hi: int = 8, p_max: int = 27) -> CheckResult:
    """The nine c-family splitting identities as integer equalities."""
    return _splitting("G", True, n_lo, n_hi, p_max)


def splitting_mod3(n_lo: int = 2, n_hi: int = 8, p_max: int = 27) -> CheckResult:
    """The nine d-family splitting identities mod 3."""
    return _splitting("D", False, n_lo, n_hi, p_max)


def closed_forms(n_max: int = 2000) -> CheckResult:
    """Columns p = 0 and 1 of one engine.tables rectangle against
    engine.PRINTED_COLUMNS; the first break is reported in n, column 0
    before column 1."""
    name = "closed-forms"
    _need("closed-form", "n_max", n_max, 1)
    got = np.stack(engine.tables(1, n_max, 0, 1), axis=-1)  # [n - 1, p, kind]
    printed = np.array([[engine.PRINTED_COLUMNS[kind, p] for kind in engine.KINDS]
                        for p in (0, 1)], np.int8)  # [p, kind, n % 4]
    expected = np.moveaxis(printed[:, :, np.arange(1, n_max + 1) % 4], -1, 0)
    wrong = np.argwhere(got != expected)
    if wrong.size:
        n, p = wrong[0, :2]
        return CheckResult(name, False, f"column {p} pattern breaks at n={n + 1}: "
                                        f"{tuple(got[n, p].tolist())}")
    return CheckResult(name, True, f"columns 0 and 1, n <= {n_max}")


def series_identities() -> CheckResult:
    """Printed fractions at p = 0, 1 and the column-2 reconstruction.

    A column that engine.column finds aperiodic fails the check by name,
    as in period_bounds.
    """
    name = "series-identities"
    try:
        for (kind, p), coeffs in sorted(engine.PRINTED_COLUMNS.items()):
            built = series.series_gamma(p) if kind == "gamma" else series.series_delta(p)
            if built.coeffs != coeffs:
                return CheckResult(
                    name, False, f"{kind} column {p} is {built.coeffs}, not {coeffs}")
        if series.assemble_gamma2() != series.series_gamma(2):
            return CheckResult(name, False, "gamma column 2 reconstruction mismatch")
        if series.assemble_delta2() != series.series_delta(2):
            return CheckResult(name, False, "delta column 2 reconstruction mismatch")
    except RuntimeError as exc:
        return CheckResult(name, False, str(exc))
    return CheckResult(name, True,
                       "columns 0, 1 match the fractions; column 2 reassembles")


def period_bounds(k_values: tuple[int, ...] = (0, 1, 2)) -> CheckResult:
    """Each column p of band k, 3**k < p <= 3**(k + 1), is 12 * 3**k-periodic.

    engine.column_period confirms that candidate period before it looks
    for the minimal one, so it returns only for a periodic column.
    """
    name = "period-bounds"
    _need("period", "len(k_values)", len(k_values), 1)
    for k in k_values:
        _need("period", "k", k, 0)
    for k in k_values:
        for p in range(3 ** k + 1, 3 ** (k + 1) + 1):
            try:
                engine.column_period(p)
            except RuntimeError as exc:
                return CheckResult(name, False, str(exc))
    bands = ", ".join(f"k={k}" for k in k_values)
    return CheckResult(name, True, f"offset bands {bands}")


def kernel_soundness(window: int = 8) -> CheckResult:
    """Closure elements against the engine subsequences they stand for.

    Every state is evaluated over the whole window at once, against the
    lattices engine.witness_lattices builds for the witnesses; the first
    mismatch in state order, then n, then p, is the one reported.
    """
    name = "kernel-soundness"
    _need("kernel", "window", window, 0)
    closures = {start: kernel.kernel_closure(start) for start in engine.KINDS}
    expected = engine.witness_lattices(
        {start: closure.witnesses for start, closure in closures.items()}, window)
    for start, closure in closures.items():
        got = kernel.evaluate_states(closure.states, window)
        wrong = np.flatnonzero(got != expected[start])
        if wrong.size:
            k, col = divmod(int(wrong[0]), got.shape[1])
            m, r, s = closure.witnesses[k]
            n, p = divmod(col, window + 1)
            return CheckResult(
                name, False,
                f"{start} state with witness ({m},{r},{s}) disagrees at n={n} p={p}")
    return CheckResult(
        name, True,
        f"closures gamma={len(closures['gamma'].states)} "
        f"delta={len(closures['delta'].states)} states, pointwise n,p <= {window}")


def dfao_grid(n_max: int = 96, p_max: int = 127) -> CheckResult:
    """Both emitted automata against the engine, gamma then delta.

    Each walks the display window against one engine table, in blocks
    of the table's cells in n-major order, and reports its first mismatch
    in n, then p.  A block holds engine._GATHER_BYTES // 8 cells, so each
    int64 array of the walk stays within _GATHER_BYTES however large the
    window.  A state the window never ends in would go unchecked there,
    so each output is also compared with the lattice engine at the
    state's witness point (r, s), never with a cell, which may one day
    walk an automaton.
    """
    name = "dfao-grid"
    _need("dfao", "n_max", n_max, 1)
    _need("dfao", "p_max", p_max, 0)
    tables = engine.tables(1, n_max, 0, p_max)
    witnesses = {start: kernel.kernel_closure(start).witnesses for start in engine.KINDS}
    at_witnesses = engine.witness_lattices(witnesses, 0)
    block = engine._GATHER_BYTES // 8
    for start, table in zip(engine.KINDS, tables):
        dfao = kernel.build_dfao(start)
        cells = table.ravel()
        for lo in range(0, cells.size, block):
            n, p = np.divmod(np.arange(lo, min(lo + block, cells.size)), p_max + 1)
            wrong = np.flatnonzero(dfao.evaluate(n + 1, p) != cells[lo:lo + block])
            if wrong.size:
                k = int(wrong[0])
                return CheckResult(name, False, f"mismatch at n={n[k] + 1} p={p[k]}")
        expected = at_witnesses[start][:, 0]
        wrong = np.flatnonzero(np.array(dfao.outputs) != expected)
        if wrong.size:
            k = int(wrong[0])
            m, r, s = witnesses[start][k]
            return CheckResult(name, False, f"state {k} with witness ({m},{r},{s}) outputs "
                               f"{dfao.outputs[k]}, engine {expected[k]}")
    return CheckResult(name, True, f"1 <= n <= {n_max}, 0 <= p <= {p_max}")


def pade_error_law(max_order: int = 12) -> CheckResult:
    name = "pade-error-law"
    _need("pade", "max_order", max_order, 1)
    for order in range(1, max_order + 1):
        try:
            report = verify_pade_error(order)
        except ArithmeticError as exc:
            return CheckResult(name, False, f"order {order}: {exc}")
        if not report.ok:
            return CheckResult(
                name, False,
                f"order {order}: first mismatch degree {report.first_mismatch}, "
                f"leading {report.leading} vs {report.expected_leading}")
    return CheckResult(name, True, f"orders 1..{max_order}")


def functional_equation(degree: int = 3000) -> CheckResult:
    name = "functional-equation"
    report = _feq_report(degree)
    if not report.ok:
        return CheckResult(
            name, False, f"first mismatch at degree {report.first_mismatch}")
    return CheckResult(name, True, f"through degree {degree}")


# The verify report: its groups in print order, each a list of checks
# named by function with the window they run over.
VERIFY_GROUPS: dict[str, tuple[tuple[str, tuple], ...]] = {
    "oracle": (("oracle_equivalence", (20, 27)),),
    "structure": (("structure_identities", (4, 4)),),
    "recurrences": (("splitting_exact", (2, 5, 8)),
                    ("splitting_mod3", (2, 5, 8))),
    "closed-forms": (("closed_forms", (2000,)),),
    "series": (("series_identities", ()),),
    "periods": (("period_bounds", ((0, 1, 2),)),),
    "kernel": (("kernel_soundness", (8,)),),
    "dfao": (("dfao_grid", (96, 127)),),
    "pade": (("pade_error_law", (8,)),),
    "feq": (("functional_equation", (600,)),),
}


def run_group(group: str, windows: dict[str, tuple] | None = None) -> Iterator[CheckResult]:
    """Run one verify group; windows replaces the window of a check by name.

    Checks are looked up in this module when they run, not when the
    table is built, and each runs only when its result is asked for, so
    a caller can time them one by one.
    """
    windows = windows or {}
    for check, window in VERIFY_GROUPS[group]:
        yield globals()[check](*windows.get(check, window))
