"""Seeded request lists for the three workloads, how to run each request,
and how to check its answer.

A request is a plain tuple.  Every list is a function of (workload,
seed, seconds) only: `seconds` fixes how many rounds of requests there
are, so two commits measured with the same settings do the same work.
Request sizes and kinds come from fixed ladders walked round by round,
and the seed picks indices, offsets and the order within a round, so
different seeds give different inputs with the same cost profile.

Note: `cantor_hankel.pade` is the *function* (the package `__init__`
rebinds the name), so Pade calls go through `ch.pade` and the module
itself is reached with `importlib.import_module("cantor_hankel.pade")`.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

import cantor_hankel as ch
from cantor_hankel import cli, engine, kernel, series
from cantor_hankel.hankel import det_exact, det_mod3, hankel_matrix, verify_structure
from cantor_hankel.sequences import cantor_via_automaton, sequence_slice, substitution_word

EXPECTED_REPORT = Path(__file__).with_name("expected_verify.txt")

# Cells the default verify report compares against an independent
# computation: the oracle window (2 families, n <= 20, p <= 27), the
# automaton window (96 x 128) and the closed forms (2 columns, 2
# families, n <= 2000).
CERTIFY_CELLS = 2 * 20 * 28 + 96 * 128 + 2 * 2 * 2000

# Largest Hankel order the answer checks eliminate; beyond it a value is
# left to the other checks.
ORDER_CAP = 48
EXACT_CHECK_ORDER_CAP = 64

# Sizes per round.  Cost on a 2-core box: a tables round takes about
# 0.35 s, an exact round about 0.5 s, plus the one-off requests.
TABLES_ROUNDS_PER_SECOND = 2
EXACT_ROUNDS_PER_SECOND = 1
KINDS = ("gamma", "delta")

# tables
CELLS_PER_ROUND = 40
CELL_DIGITS = 20
LOW_COLUMN_EVERY = 10  # every tenth cell sits in column 0 or 1
GRID_SIDES = (10, 30, 90, 120)
GRID_DIGITS = 13  # scattered blocks start at 3**12 <= n, p < 3**13
RENDER_SIDES = (50, 100, 200)
RENDER_FORMATS = ("ppm", "ascii", "csv")
# One warm 300 x 300 PPM render per round, the slowest class of round
# requests (about 0.15 s), so the tail percentile falls inside it.
FULL_RENDER = (300, "ppm")
COLUMN_BANDS = ((2, 27), (28, 81), (82, 243), (244, 400))
BIG_SIDE = 1000  # the `grid --n-max 1000 --p-max 999` table, once, last
REPEAT_EVERY = 3  # every third request of a shape is followed by a repeat

# exact
DET_MOD3_ORDERS = (5, 6, 8, 10, 13, 17, 22, 29, 38, 50, 65, 86, 113, 150)
DET_EXACT_ORDERS = (10, 20, 40, 60, 80, 100, 120, 150)
DET_EXACT_PER_ROUND = 3
SCATTERED_P_EVERY = 5  # every fifth determinant has an offset up to 3**8
ORACLE_WINDOWS = ((5, 10), (8, 27), (10, 27), (12, 20), (6, 81))
ACCEPTANCE_WINDOW = (40, 81)  # once, first
IRR_WIDEST = (2, 50)  # once, second
STRUCTURE_ORDERS = (2, 4, 6, 8)
PADE_ORDERS = (10, 20, 30, 40, 50)
PADE_ERROR_ORDERS = (8, 16, 24, 32, 40)
# One irrationality_estimates(b, 35) per round, 135 to 230 ms each: the
# slowest class of round requests, so the tail percentile falls inside it.
IRR_BASES = (2, 3, 4, 5, 6)
IRR_ORDER = 35
ETA_DEPTHS = (10, 50, 100, 150, 200)
FEQ_DEGREES = (100, 1000, 2000, 3500, 5000)
SEQ_COUNTS = (100, 500, 1000, 1500, 2000)
SUBST_ORDERS = (3, 5, 7, 9, 11)

PPM_VALUES = {rgb: v for v, rgb in cli.PPM_COLORS.items()}
ASCII_VALUES = {g: v for v, g in cli.ASCII_GLYPHS.items()}


class WrongAnswer(Exception):
    pass


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


def _spread(rng: random.Random, digits: int) -> int:
    """An index in [1, 3**digits), even over its number of base-3 digits."""
    return int(3 ** rng.uniform(0, digits))


def _with_digits(rng: random.Random, digits: int) -> int:
    """An index with exactly `digits` base-3 digits."""
    return rng.randrange(3 ** (digits - 1), 3 ** digits)


def make_requests(workload: str, seed: int, seconds: int) -> list[tuple]:
    rng = random.Random(f"{workload}-{seed}")
    if workload == "certify":
        return [("verify",)]
    if workload == "tables":
        return _tables_requests(rng, TABLES_ROUNDS_PER_SECOND * seconds)
    if workload == "exact":
        return _exact_requests(rng, EXACT_ROUNDS_PER_SECOND * seconds)
    raise ValueError(f"unknown workload {workload!r}")


def _shape(req: tuple) -> tuple:
    """What a request costs by: its operation and size, not its indices."""
    if req[0] == "grid":
        return ("grid", req[3] - req[2])
    if req[0] in ("period", "series"):
        return req[:1] + next(b for b in COLUMN_BANDS if b[0] <= req[2] <= b[1])
    if req[0] == "render":
        return req[2:]
    return req[:1]


def _tables_requests(rng: random.Random, rounds: int) -> list[tuple]:
    out: list[tuple] = []
    seen: dict[tuple, list[tuple]] = {}
    for r in range(rounds):
        fresh: list[tuple] = []
        for k in range(CELLS_PER_ROUND):
            n = _with_digits(rng, 1 + k % CELL_DIGITS)
            if k % LOW_COLUMN_EVERY == LOW_COLUMN_EVERY - 1:
                p = (k // LOW_COLUMN_EVERY) % 2
            else:
                p = _with_digits(rng, 1 + (7 * k + r) % CELL_DIGITS) - 1
            fresh.append(("cell", KINDS[(r + k) % 2], n, p))
        for i, side in enumerate(GRID_SIDES):
            n_lo = _with_digits(rng, GRID_DIGITS)
            p_lo = _with_digits(rng, GRID_DIGITS)
            fresh.append(("grid", KINDS[(r + i) % 2], n_lo, n_lo + side - 1, p_lo, p_lo + side - 1))
        for i in range(2):
            lo, hi = COLUMN_BANDS[(2 * r + i) % len(COLUMN_BANDS)]
            fresh.append(("period", KINDS[(r + i) % 2], rng.randint(lo, hi)))
            lo, hi = COLUMN_BANDS[(2 * r + i + 1) % len(COLUMN_BANDS)]
            fresh.append(("series", KINDS[(r + i + 1) % 2], rng.randint(lo, hi)))
        fresh.append(("render", KINDS[r % 2], RENDER_SIDES[r % len(RENDER_SIDES)],
                      RENDER_FORMATS[r // len(RENDER_SIDES) % len(RENDER_FORMATS)]))
        fresh.append(("render", KINDS[(r + 1) % 2]) + FULL_RENDER)
        rng.shuffle(fresh)
        for req in fresh:
            out.append(req)
            same = seen.setdefault(_shape(req), [])
            same.append(req)
            if len(same) % REPEAT_EVERY == 0:
                out.append(rng.choice(same))
    out.append(("grid", KINDS[rounds % 2], 1, BIG_SIDE, 0, BIG_SIDE - 1))
    return out


def _exact_requests(rng: random.Random, rounds: int) -> list[tuple]:
    out: list[tuple] = [("oracle",) + ACCEPTANCE_WINDOW, ("irr",) + IRR_WIDEST]
    for r in range(rounds):
        orders = DET_MOD3_ORDERS + tuple(DET_EXACT_ORDERS[(DET_EXACT_PER_ROUND * r + i)
                                                          % len(DET_EXACT_ORDERS)]
                                         for i in range(DET_EXACT_PER_ROUND))
        fresh: list[tuple] = []
        for k, n in enumerate(orders):
            op = "det_mod3" if k < len(DET_MOD3_ORDERS) else "det_exact"
            if k % SCATTERED_P_EVERY == SCATTERED_P_EVERY - 1:
                p = _spread(rng, 8) - 1
            else:
                p = rng.randrange(82)
            fresh.append((op, KINDS[(r + k) % 2], p, n))
        fresh.append(("oracle",) + ORACLE_WINDOWS[r % len(ORACLE_WINDOWS)])
        fresh.append(("structure", rng.randrange(21), STRUCTURE_ORDERS[r % len(STRUCTURE_ORDERS)]))
        fresh.append(("pade", PADE_ORDERS[r % len(PADE_ORDERS)]))
        fresh.append(("pade_error", PADE_ERROR_ORDERS[r % len(PADE_ERROR_ORDERS)]))
        fresh.append(("irr", IRR_BASES[r % len(IRR_BASES)], IRR_ORDER))
        fresh.append(("eta", rng.randint(2, 6), ETA_DEPTHS[r % len(ETA_DEPTHS)]))
        fresh.append(("feq", FEQ_DEGREES[r % len(FEQ_DEGREES)]))
        fresh.append(("seq", "cd"[r % 2], _spread(rng, CELL_DIGITS) - 1,
                      SEQ_COUNTS[r % len(SEQ_COUNTS)]))
        fresh.append(("subst", SUBST_ORDERS[r % len(SUBST_ORDERS)]))
        rng.shuffle(fresh)
        out += fresh
    return out


def repeat_share(requests: list[tuple]) -> float:
    """Share of requests equal to an earlier request in the same list."""
    return 1 - len(set(requests)) / len(requests)


class Runner:
    """Runs one workload's requests through `tracer.call` and checks answers.

    `execute` returns (answer, cells delivered); `check` raises
    WrongAnswer.  Checks never touch the engine memo, so they leave the
    counts and the cost of later requests alone.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.call = tracer.call
        self.cli_calls = 0
        self.bytes_out = 0

    def _cli(self, name: str, argv: list[str], work: int = 0) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.call(name, cli.main, argv, work=work)
        text = buf.getvalue()
        self.cli_calls += 1
        self.bytes_out += len(text.encode())
        return rc, text

    def execute(self, req: tuple):
        return getattr(self, "_run_" + req[0])(*req[1:])

    def check(self, req: tuple, answer) -> None:
        getattr(self, "_check_" + req[0])(*req[1:], answer)

    # certify -----------------------------------------------------------

    def _run_verify(self):
        if not self.tracer.enabled:
            return self._cli("cli.verify", ["verify"]), CERTIFY_CELLS
        # Traced: the closure and automaton first, then one CLI call per
        # verify group, so each group's time is its own span.
        self.call("kernel.closure_gamma", kernel.kernel_closure, "gamma")
        self.call("kernel.closure_delta", kernel.kernel_closure, "delta")
        self.call("kernel.build_dfao", kernel.build_dfao, "gamma")
        codes, parts = [], []
        for group in cli.VERIFY_ORDER:
            rc, text = self._cli(f"cli.verify.{group}", ["verify", f"--{group}"])
            codes.append(rc)
            parts.append(text)
        return (max(codes), "".join(parts)), CERTIFY_CELLS

    def _check_verify(self, answer) -> None:
        rc, text = answer
        _expect(rc == 0, f"verify exited {rc}")
        _expect(text == EXPECTED_REPORT.read_text(), "verify report differs from expected_verify.txt")

    # tables ------------------------------------------------------------

    def _run_cell(self, kind, n, p):
        fn = engine.gamma_mod3 if kind == "gamma" else engine.delta_mod3
        return self.call("engine.cell", fn, n, p), 1

    def _run_grid(self, kind, n_lo, n_hi, p_lo, p_hi):
        area = (n_hi - n_lo + 1) * (p_hi - p_lo + 1)
        return self.call("engine.grid", engine.grid, n_lo, n_hi, p_lo, p_hi, kind, work=area), area

    def _run_render(self, kind, side, fmt):
        # The engine fills the memo first, so the CLI span is formatting.
        area = side * side
        rows = self.call("engine.grid", engine.grid, 1, side, 0, side - 1, kind, work=area)
        rc, text = self._cli("cli.grid", ["grid", "--kind", kind, "--n-max", str(side),
                                          "--p-max", str(side - 1), "--format", fmt], work=area)
        return (rows, rc, text), area

    def _run_period(self, kind, p):
        return self.call("engine.column_period", engine.column_period, p, 0, kind), 0

    def _run_series(self, kind, p):
        fn = series.series_gamma if kind == "gamma" else series.series_delta
        built = self.call(f"series.series_{kind}", fn, p)
        return built, built.period

    def _check_cell(self, kind, n, p, value):
        _check_value(kind, n, p, value)
        if 1 <= n <= ORDER_CAP:
            _expect(value == _det(kind, n, p), f"{kind} cell ({n}, {p}) != elimination")

    def _check_grid(self, kind, n_lo, n_hi, p_lo, p_hi, rows):
        _expect(len(rows) == n_hi - n_lo + 1
                and all(len(row) == p_hi - p_lo + 1 for row in rows), "grid shape")
        for p in range(p_lo, min(p_hi, 1) + 1):
            for n in range(max(n_lo, 1), n_hi + 1):
                _check_value(kind, n, p, rows[n - n_lo][p - p_lo])
        rng = random.Random(repr((kind, n_lo, n_hi, p_lo, p_hi)))
        if n_lo <= ORDER_CAP:
            for _ in range(3):
                n = rng.randint(max(n_lo, 1), min(n_hi, ORDER_CAP))
                p = rng.randint(p_lo, p_hi)
                _expect(rows[n - n_lo][p - p_lo] == _det(kind, n, p),
                        f"{kind} grid cell ({n}, {p}) != elimination")

    def _check_render(self, kind, side, fmt, answer):
        rows, rc, text = answer
        _expect(rc == 0, f"grid exited {rc}")
        _expect(_parse_render(text, fmt, side) == rows, f"{fmt} render differs from engine.grid")
        self._check_grid(kind, 1, side, 0, side - 1, rows)

    def _check_period(self, kind, p, t):
        k = 0
        while p > 3 ** (k + 1):
            k += 1
        _expect(t >= 1 and 12 * 3 ** k % t == 0, f"period {t} of column {p} does not divide 12*3^{k}")
        for n in range(1, ORDER_CAP - t + 1, max(1, (ORDER_CAP - t) // 2)):
            _expect(_det(kind, n, p) == _det(kind, n + t, p),
                    f"column {p} is not {t}-periodic at n={n} by elimination")

    def _check_series(self, kind, p, built):
        rng = random.Random(repr((kind, p)))
        for n in rng.sample(range(1, ORDER_CAP + 1), 3):
            _expect(built.at(n) == _det(kind, n, p), f"{kind} series {p} at n={n} != elimination")

    # exact -------------------------------------------------------------

    def _run_det_mod3(self, kind, p, n):
        m = self.call("hankel.hankel_matrix", hankel_matrix, kind, p, n, work=n * n)
        return self.call("hankel.det_mod3", det_mod3, m, work=n ** 3), 1

    def _run_det_exact(self, kind, p, n):
        m = self.call("hankel.hankel_matrix", hankel_matrix, kind, p, n, work=n * n)
        return self.call("hankel.det_exact", det_exact, m, work=n ** 3), 1

    def _run_oracle(self, n_max, p_max):
        return (self._cli("cli.verify.sweep", ["verify", "--oracle", "--n-max", str(n_max),
                                                "--p-max", str(p_max)]),
                2 * n_max * (p_max + 1))

    def _run_structure(self, p, n):
        return self.call("hankel.verify_structure", verify_structure, p, n), 0

    def _run_pade(self, order):
        return self.call("pade.pade", ch.pade, order), 0

    def _run_pade_error(self, order):
        return self.call("pade.verify_pade_error", ch.verify_pade_error, order), 0

    def _run_irr(self, b, max_order):
        return self.call("pade.irrationality_estimates", ch.irrationality_estimates, b, max_order), 0

    def _run_eta(self, b, depth):
        return self.call("pade.eta_identity_check", ch.eta_identity_check, b, depth), 0

    def _run_feq(self, degree):
        return self.call("pade.verify_functional_equation", ch.verify_functional_equation, degree), 0

    def _run_seq(self, kind, start, count):
        return self.call("sequences.sequence_slice", sequence_slice, kind, start, count, work=count), 0

    def _run_subst(self, k):
        return self.call("sequences.substitution_word", substitution_word, k, work=3 ** k), 0

    def _check_det_mod3(self, kind, p, n, value):
        if n <= EXACT_CHECK_ORDER_CAP:
            _expect(det_exact(hankel_matrix(kind, p, n)) % 3 == value,
                    f"det_mod3 {kind} p={p} n={n} != det_exact mod 3")

    def _check_det_exact(self, kind, p, n, value):
        _expect(value % 3 == det_mod3(hankel_matrix(kind, p, n)),
                f"det_exact {kind} p={p} n={n} mod 3 != det_mod3")

    def _check_oracle(self, n_max, p_max, answer):
        rc, text = answer
        _expect(rc == 0 and text.startswith("ok ") and text.count("\n") == 1,
                f"verify --oracle {n_max} {p_max}: exit {rc}, {text.strip()!r}")

    def _check_structure(self, p, n, report):
        _expect(report.ok, f"structure p={p} n={n} fails {report.failed}")

    def _check_pade(self, order, approx):
        # f*Q - P vanishes below degree 2*order, in integer arithmetic.
        c = [cantor_via_automaton(k) for k in range(2 * order)]
        q, p = approx.denominator, approx.numerator
        for k in range(2 * order):
            acc = sum(q[j] * c[k - j] for j in range(min(k, len(q) - 1) + 1))
            _expect(acc == (p[k] if k < len(p) else 0), f"pade {order}: contact fails at degree {k}")

    def _check_pade_error(self, order, report):
        _expect(report.ok, f"pade error law fails at order {order}")

    def _check_irr(self, b, max_order, rows):
        _expect([r.order for r in rows] == list(range(1, max_order + 1)), "irr row orders")
        for r in rows:
            _expect(r.degenerate or (0 < r.exponent_lo <= r.exponent_hi),
                    f"irr b={b} order {r.order}: bad exponent window")

    def _check_eta(self, b, depth, report):
        _expect(report.ok, f"eta b={b} depth={depth} fails")

    def _check_feq(self, degree, report):
        _expect(report.ok, f"functional equation fails at {report.first_mismatch}")

    def _check_seq(self, kind, start, count, values):
        def term(n):
            if kind == "c":
                return cantor_via_automaton(n)
            return cantor_via_automaton(n) + cantor_via_automaton(n + 2)
        _expect(values == [term(start + i) for i in range(count)], f"seq {kind} {start} {count}")

    def _check_subst(self, k, word):
        _expect(len(word) == 3 ** k, f"substitution word {k} length")
        rng = random.Random(k)
        for i in rng.sample(range(3 ** k), min(50, 3 ** k)):
            _expect((word[i] == "a") == (cantor_via_automaton(i) == 1), f"substitution {k} letter {i}")


def _det(kind: str, n: int, p: int) -> int:
    return det_mod3(hankel_matrix(kind, p, n))


def _check_value(kind: str, n: int, p: int, value: int) -> None:
    """Columns 0 and 1 against the closed forms."""
    if n < 1 or p > 1:
        return
    if p == 0:
        expected = engine.closed_form_p0(n)[0 if kind == "gamma" else 1]
    else:
        expected = engine.closed_form_p1(n)
    _expect(value == expected, f"{kind} ({n}, {p}) = {value}, closed form {expected}")


def _parse_render(text: str, fmt: str, side: int) -> list[list[int]]:
    lines = text.splitlines()
    if fmt == "ascii":
        return [[ASCII_VALUES[g] for g in line] for line in lines]
    if fmt == "csv":
        return [[int(v) for v in line.split(",")] for line in lines]
    _expect(lines[:3] == ["P3", f"{side} {side}", "255"], "ppm header")
    rows = []
    for line in lines[3:]:
        nums = [int(v) for v in line.split()]
        rows.append([PPM_VALUES[tuple(nums[i:i + 3])] for i in range(0, len(nums), 3)])
    return rows
