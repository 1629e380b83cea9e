"""Verification sweeps shared by the command-line verify report and the
acceptance tests.

Each function runs one family of identities over an explicit window and
returns a CheckResult whose detail string is deterministic, so the
assembled report is byte-stable run over run.  The sweeps deliberately
avoid the recurrence engine wherever the engine itself is on trial:
exact and mod-3 determinants always come from the elimination oracles.
The splitting replays read the rule table through the engine's reader,
engine.split_value, but feed it oracle values only, never an engine
cell, so the eliminated left side still catches a misread rule.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import engine, kernel, series
from .hankel import (MAX_HANKEL_ORDER, det_exact, det_mod3, det_mod3_stack,
                     hankel_matrix, hankel_stack, verify_structure)
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


# The budget of one stack the oracle sweep eliminates at once, in matrix
# entries: each entry is an int8 residue, and each matrix also carries
# about STACK_OVERHEAD entries' worth of bookkeeping (its term, pivot row
# and liveness), which dominates at small orders.  An elimination step
# peaks at a few times the budget, about 260 KiB at every order up to
# 362 on a 64-bit build.
STACK_ENTRIES = 1 << 17
STACK_OVERHEAD = 64


# The most engine reads, 2 * n_max * (p_max + 1), of one oracle sweep.
# Each leaves about one scalar memo entry; at the cap a sweep peaks near
# 62 MB RSS (33 MB before it), in 0.7 s at n_max = 2 and 6.9 s at n_max =
# 40 on a 2-core VM.  The largest window in use, (40, 81), makes 6,560.
ORACLE_READ_CAP = 250_000

# The most elimination work, the sum over n <= n_max of n**3 * 2 *
# (p_max + 1), of one oracle sweep.  A 2-core VM eliminates about
# 3.1-3.7 ns per unit at the largest orders, so windows near the cap
# take 9-11 s: (277, 0) 10.6 s, (233, 1) 10.9 s, (100, 57) 9.1 s.  The
# largest window in use, (40, 81), is 1.1e8.
ORACLE_WORK_CAP = 3_000_000_000


def _need(window: str, bound: str, value: int, least: int) -> None:
    """Refuse an empty window: it would pass without comparing anything."""
    if value < least:
        raise ValueError(f"the {window} window needs {bound} >= {least}, got {value}")


def oracle_equivalence(n_max: int = 40, p_max: int = 81) -> CheckResult:
    """Engine values against eliminated determinants, both families.

    For each order n the matrices at every offset are eliminated as a
    few stacks within the STACK_ENTRIES budget.  Every engine value is a
    scalar engine read, compared in the order n, then p, gamma before
    delta.  The reads stay in the engine's memo and elimination grows as
    n_max**4 * p_max, so a window of more than ORACLE_READ_CAP reads or
    ORACLE_WORK_CAP units of elimination work is refused before any read
    or elimination.
    """
    name = "oracle-equivalence"
    _need("oracle", "n_max", n_max, 1)
    _need("oracle", "p_max", p_max, 0)
    if n_max > MAX_HANKEL_ORDER:
        raise ValueError(
            f"the oracle window needs n_max <= {MAX_HANKEL_ORDER}, got {n_max}")
    reads = 2 * n_max * (p_max + 1)
    if reads > ORACLE_READ_CAP:
        raise ValueError(
            f"the oracle window makes {reads} engine reads, over the cap of "
            f"{ORACLE_READ_CAP}")
    # The sum of n**3 over n <= n_max is (n_max * (n_max + 1) / 2)**2.
    work = 2 * (p_max + 1) * (n_max * (n_max + 1) // 2) ** 2
    if work > ORACLE_WORK_CAP:
        raise ValueError(
            f"the oracle window takes {work} units of elimination work, over the "
            f"cap of {ORACLE_WORK_CAP}")
    engines = (engine.gamma_mod3, engine.delta_mod3)
    for n in range(1, n_max + 1):
        chunk = max(1, STACK_ENTRIES // (n * n + STACK_OVERHEAD))
        for p_lo in range(0, p_max + 1, chunk):
            count = min(chunk, p_max + 1 - p_lo)
            dets = [det_mod3_stack(hankel_stack(kind, p_lo, n, count)).tolist()
                    for kind in engine.KINDS]
            for p, expect in enumerate(zip(*dets), p_lo):
                for kind, value, expected in zip(engine.KINDS, engines, expect):
                    if value(n, p) != expected:
                        return CheckResult(
                            name, False,
                            f"first mismatch {kind} at n={n} p={p}: engine "
                            f"{value(n, p)}, determinant {expected}")
    return CheckResult(name, True, f"1 <= n <= {n_max}, 0 <= p <= {p_max}, both families")


def structure_identities(n_max: int = 5, p_max: int = 5) -> CheckResult:
    name = "structure-identities"
    _need("structure", "n_max", n_max, 1)
    _need("structure", "p_max", p_max, 0)
    for n in range(1, n_max + 1):
        for p in range(p_max + 1):
            report = verify_structure(p, n)
            if not report.ok:
                return CheckResult(
                    name, False, f"{report.failed} fails at n={n} p={p}")
    return CheckResult(name, True, f"1 <= n <= {n_max}, 0 <= p <= {p_max}")


def _oracle_reads(exact: bool) -> dict[str, Callable[[int, int], int]]:
    """Eliminated determinants by (order, offset), keyed by stream as
    engine.split_value reads them; each is eliminated once per reader."""
    det = det_exact if exact else det_mod3
    return {sym: cache(lambda n, p, kind=kind: det(hankel_matrix(kind, p, n)))
            for sym, kind in zip("GD", engine.KINDS)}


def _splitting(stream: str, exact: bool, n_lo: int, n_hi: int,
               p_max: int) -> CheckResult:
    """The nine splitting identities of one stream against the oracle."""
    name = "splitting-identities-" + ("exact" if exact else "mod3")
    # Row n reads factors of order n + a with a >= -1.
    _need("splitting", "n_lo", n_lo, 1)
    _need("splitting", "n_hi", n_hi, n_lo)
    _need("splitting", "p_max", p_max, 0)
    reads = _oracle_reads(exact)
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
    name = "closed-forms"
    _need("closed-form", "n_max", n_max, 1)
    for n in range(1, n_max + 1):
        expected = engine.closed_form_p0(n)
        got = (engine.gamma_mod3(n, 0), engine.delta_mod3(n, 0))
        if got != expected:
            return CheckResult(
                name, False, f"column 0 pattern breaks at n={n}: {got}")
        common = engine.closed_form_p1(n)
        got1 = (engine.gamma_mod3(n, 1), engine.delta_mod3(n, 1))
        if got1 != (common, common):
            return CheckResult(
                name, False, f"column 1 pattern breaks at n={n}: {got1}")
    return CheckResult(name, True, f"columns 0 and 1, n <= {n_max}")


def series_identities() -> CheckResult:
    """Printed fractions at p = 0, 1 and the column-2 reconstruction."""
    name = "series-identities"
    for (kind, p), coeffs in sorted(engine.PRINTED_COLUMNS.items()):
        built = series.series_gamma(p) if kind == "gamma" else series.series_delta(p)
        if built.coeffs != coeffs:
            return CheckResult(
                name, False, f"{kind} column {p} is {built.coeffs}, not {coeffs}")
    if series.assemble_gamma2() != series.series_gamma(2):
        return CheckResult(name, False, "gamma column 2 reconstruction mismatch")
    if series.assemble_delta2() != series.series_delta(2):
        return CheckResult(name, False, "delta column 2 reconstruction mismatch")
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
    """The emitted automaton against the engine, over the display window
    and at every state.

    The window is one engine table.  A state the window never ends in
    would go unchecked there, so each output is also compared with the
    engine at the state's witness point (r, s), which is what the
    state's polynomial at (0, 0) stands for.
    """
    name = "dfao-grid"
    _need("dfao", "n_max", n_max, 1)
    _need("dfao", "p_max", p_max, 0)
    dfao = kernel.build_dfao("gamma")
    for n, row in enumerate(engine.grid(1, n_max, 0, p_max), 1):
        for p, expected in enumerate(row):
            if dfao.evaluate(n, p) != expected:
                return CheckResult(name, False, f"mismatch at n={n} p={p}")
    witnesses = kernel.kernel_closure("gamma").witnesses
    expected = engine.witness_lattices({"gamma": witnesses}, 0)["gamma"][:, 0]
    wrong = np.flatnonzero(np.array(dfao.outputs) != expected)
    if wrong.size:
        k = int(wrong[0])
        m, r, s = witnesses[k]
        return CheckResult(
            name, False,
            f"state {k} with witness ({m},{r},{s}) outputs {dfao.outputs[k]}, "
            f"engine {expected[k]}")
    return CheckResult(name, True, f"1 <= n <= {n_max}, 0 <= p <= {p_max}")


def pade_error_law(max_order: int = 12) -> CheckResult:
    name = "pade-error-law"
    _need("pade", "max_order", max_order, 1)
    for order in range(1, max_order + 1):
        report = verify_pade_error(order)
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
