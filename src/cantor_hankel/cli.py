"""Command-line front end.

Every subcommand is a thin adapter around one library call: parsing,
formatting, exit codes, and nothing else.  Exit status is 0 on success,
1 when a verification-style subcommand found a falsified identity, and
2 on usage errors.  All output is deterministic for fixed arguments.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from collections.abc import Iterator

import numpy as np

from . import checks, engine, kernel, series
from .hankel import det_exact, det_mod3, hankel_matrix
from .pade import (eta_identity_check, irrationality_estimates,
                   pade as pade_approximant, verify_functional_equation,
                   verify_pade_error)
from .sequences import sequence_run

# Color coding for the PPM grid renderer: blue, green, red for 0, 1, 2.
PPM_COLORS = {0: (0, 0, 255), 1: (0, 200, 0), 2: (255, 0, 0)}
ASCII_GLYPHS = {0: ".", 1: "#", 2: "x"}
# The cell separator and the text of the values 0, 1, 2 in each text
# format of `grid`.
GRID_CELLS = {
    "csv": (",", ("0", "1", "2")),
    "ascii": ("", tuple(ASCII_GLYPHS[v] for v in range(3))),
    "ppm": (" ", tuple(" ".join(map(str, PPM_COLORS[v])) for v in range(3))),
}
# `grid` and `seq` text is written in blocks of about this many bytes,
# of whole rows or of the cells of one wide row, so a table at the cell
# cap or a slice at the count cap is never held as text all at once.
GRID_BLOCK_BYTES = 1 << 18


def _cell_lut(sep: str, texts: tuple[str, ...]) -> np.ndarray:
    """The text of each value followed by sep, as one fixed-width byte
    array indexed by value.

    Every row is then one lookup per cell with its last separator turned
    into a newline, so every cell must have the same width and sep must
    be at most one byte; raises ValueError otherwise.
    """
    cells = [(text + sep).encode("ascii") for text in texts]
    if len(sep) > 1 or len(set(map(len, cells))) != 1:
        raise ValueError(f"grid cells {cells} differ in width or have a separator "
                         "longer than one byte")
    return np.frombuffer(b"".join(cells), dtype=f"V{len(cells[0])}")


_GRID_LUTS = {fmt: _cell_lut(sep, texts) for fmt, (sep, texts) in GRID_CELLS.items()}
# A `grid --format json` row is "[", then each value with ", ", the last
# ", " turned into "]"; rows are joined by ", ".
_JSON_LUT = _cell_lut("", ("0, ", "1, ", "2, "))
# A `seq --format raw` line is each term with " ", the last " " turned
# into a newline.
_SEQ_LUT = _cell_lut(" ", ("0", "1", "2"))

VERIFY_ORDER = tuple(checks.VERIFY_GROUPS)


def _seq_csv(start: int, values: np.ndarray) -> Iterator[str]:
    """The `seq --format csv` text of the terms values from index start,
    in blocks of about GRID_BLOCK_BYTES.

    An index is written as its high decimal digits, converted once for
    each run of indices that shares them, then its low digits, counted.
    The low part has one digit more than the count, so the high digits
    change at most once, and a start of thousands of digits costs the
    bytes of its lines rather than one conversion a line.
    """
    yield "n,value\n"
    width = len(str(len(values))) + 1
    high, low = divmod(start, 10 ** width)
    done = 0
    while done < len(values):
        # Indices done .. end - 1 share the high digits.
        end = min(len(values), done + 10 ** width - low)
        head, spec = (str(high), f"0{width}d") if high else ("", "d")
        lines = max(1, GRID_BLOCK_BYTES // (len(head) + width + 3))
        for first in range(done, end, lines):
            terms = values[first:min(end, first + lines)].tolist()
            yield "".join(f"{head}{k:{spec}},{v}\n"
                          for k, v in enumerate(terms, low + first - done))
        done, high, low = end, high + 1, 0


def _cmd_seq(args: argparse.Namespace) -> int:
    values = sequence_run(args.kind, args.start, args.count)
    if args.format == "json":
        blocks = [json.dumps({"kind": args.kind, "start": args.start,
                              "values": values.tolist()}, sort_keys=True) + "\n"]
    elif args.format == "csv":
        blocks = _seq_csv(args.start, values)
    elif len(values):
        blocks = _row_blocks(values[None], _SEQ_LUT, "", 1, "\n")
    else:
        blocks = ["\n"]
    for text in blocks:
        sys.stdout.write(text)
    return 0


def _cmd_det(args: argparse.Namespace) -> int:
    m = hankel_matrix(args.kind, args.p, args.n)
    print(det_mod3(m) if args.mod3 else det_exact(m))
    return 0


def _cmd_cell(args: argparse.Namespace) -> int:
    value = engine.gamma_mod3 if args.kind == "gamma" else engine.delta_mod3
    print(value(args.n, args.p))
    return 0


def _row_blocks(table: np.ndarray, lut: np.ndarray, head: str, cut: int,
                tail: str) -> Iterator[str]:
    """The rows of a table of values 0, 1, 2 as text: each row is head,
    then the lut cell of each value, the last cell's final cut bytes
    replaced by tail (at least cut bytes long).

    Blocks are of whole rows of about GRID_BLOCK_BYTES, or, where one row
    is wider than that, of the cells of one row.
    """
    rows, cols = table.shape
    span = max(1, min(cols, GRID_BLOCK_BYTES // lut.itemsize))
    line = len(head) + cols * lut.itemsize - cut + len(tail)
    step = max(1, GRID_BLOCK_BYTES // line) if span == cols else 1
    for lo in range(0, rows, step):
        for left in range(0, cols, span):
            cells = table[lo:lo + step, left:left + span]
            lead = head if left == 0 else ""
            end = tail if left + span >= cols else ""
            width = cells.shape[1] * lut.itemsize
            stop = len(lead) + width + (len(end) - cut if end else 0)
            out = np.empty((len(cells), stop), np.uint8)
            out[:, :len(lead)] = np.frombuffer(lead.encode(), np.uint8)
            # The values are 0, 1, 2, so "clip" never clips; it spares take
            # a bounds-checked copy.
            np.take(lut, cells, out=out[:, len(lead):len(lead) + width].view(lut.dtype),
                    mode="clip")
            out[:, stop - len(end):] = np.frombuffer(end.encode(), np.uint8)
            yield str(out, "ascii")


def _grid_text(table: np.ndarray, fmt: str) -> Iterator[str]:
    """The text of a table of values 0, 1, 2 in a GRID_CELLS format, in
    blocks of about GRID_BLOCK_BYTES; a ppm image gets its P3 header
    first."""
    if fmt == "ppm":
        yield f"P3\n{table.shape[1]} {table.shape[0]}\n255\n"
    yield from _row_blocks(table, _GRID_LUTS[fmt], "", len(GRID_CELLS[fmt][0]), "\n")


def _grid_json(table: np.ndarray, kind: str) -> Iterator[str]:
    """json.dumps of the `grid` object of a table of rows n = 1, 2, ...
    and columns p = 0, 1, ..., keys sorted, and a newline, in blocks of
    about GRID_BLOCK_BYTES."""
    # "rows" sorts last, so the object is this text around the rows.
    frame = json.dumps({"kind": kind, "n_max": table.shape[0],
                        "p_max": table.shape[1] - 1, "rows": []}, sort_keys=True)
    opening, closing = frame.rsplit("[]", 1)
    text = opening + "["
    for block in _row_blocks(table, _JSON_LUT, "[", 2, "], "):
        yield text
        text = block
    # The last row is not followed by ", ".
    yield text[:-2] + "]" + closing + "\n"


def _cmd_grid(args: argparse.Namespace) -> int:
    table = engine.tables(1, args.n_max, 0, args.p_max)[engine.KINDS.index(args.kind)]
    if args.format == "json":
        blocks = _grid_json(table, args.kind)
    else:
        blocks = _grid_text(table, args.format)
    for text in blocks:
        sys.stdout.write(text)
    return 0


def _cmd_period(args: argparse.Namespace) -> int:
    print(engine.column_period(args.p, kind=args.kind))
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    built = series.series_gamma(args.p) if args.kind == "gamma" else series.series_delta(args.p)
    if args.format == "rational":
        print(built.to_rational())
    else:
        print(",".join(str(c) for c in built.coeffs))
    return 0


def _cmd_kernel(args: argparse.Namespace) -> int:
    try:
        closure = kernel.kernel_closure(args.start, args.cap)
    except RuntimeError as exc:
        # A closure over the cap is a refused request (exit 2), not a
        # falsified identity (exit 1).
        raise ValueError(str(exc)) from exc
    print(f"start {args.start}")
    print(f"states {len(closure.states)}")
    return 0


def _cmd_dfao(args: argparse.Namespace) -> int:
    dfao = kernel.build_dfao(args.start)
    print(kernel.export_dfao(dfao, args.export))
    return 0


def _cmd_dfao_eval(args: argparse.Namespace) -> int:
    dfao = kernel.build_dfao(args.start)
    print(dfao.evaluate(args.n, args.p))
    return 0


def _no_approximant(exc: ArithmeticError) -> RuntimeError:
    # A missing approximant means a zero Hankel determinant of c, a
    # falsified identity (exit 1), not a refused request.
    return RuntimeError(f"no Pade approximant: {exc}")


def _cmd_pade(args: argparse.Namespace) -> int:
    try:
        approx = pade_approximant(args.n)
    except ArithmeticError as exc:
        raise _no_approximant(exc) from exc
    print(f"order {approx.order}")
    print("numerator " + ",".join(str(c) for c in approx.numerator))
    print("denominator " + ",".join(str(c) for c in approx.denominator))
    if not args.verify:
        return 0
    report = verify_pade_error(args.n)
    if report.ok:
        print(f"error-law ok: first nonzero coefficient {report.leading} "
              f"at degree {2 * args.n}")
        return 0
    print(f"error-law FAIL: first mismatch at degree {report.first_mismatch}, "
          f"leading {report.leading} expected {report.expected_leading}")
    return 1


def _cmd_feq(args: argparse.Namespace) -> int:
    report = verify_functional_equation(args.deg)
    if report.ok:
        print(f"ok functional equation through degree {args.deg}")
        return 0
    print(f"FAIL functional equation at degree {report.first_mismatch}")
    return 1


def _cmd_irr(args: argparse.Namespace) -> int:
    try:
        rows = irrationality_estimates(args.b, args.n_max)
    except ArithmeticError as exc:
        raise _no_approximant(exc) from exc
    if args.format == "json":
        payload = [{"order": r.order, "p": r.p, "q": r.q,
                    "mu_lo": r.exponent_lo, "mu_hi": r.exponent_hi,
                    "degenerate": r.degenerate, "note": r.note}
                   for r in rows]
        print(json.dumps(payload, sort_keys=True))
        return 0
    print("order p q mu_lo mu_hi note")
    for r in rows:
        lo = "-" if r.exponent_lo is None else f"{r.exponent_lo:.6f}"
        hi = "-" if r.exponent_hi is None else f"{r.exponent_hi:.6f}"
        note = r.note or "-"
        print(f"{r.order} {r.p} {r.q} {lo} {hi} {note}")
    return 0


def _cmd_eta(args: argparse.Namespace) -> int:
    report = eta_identity_check(args.b, args.depth)
    print(f"lhs [{float(report.lhs.lo):.12f}, {float(report.lhs.hi):.12f}]")
    print(f"rhs [{float(report.rhs.lo):.12f}, {float(report.rhs.hi):.12f}]")
    print("ok" if report.ok else "FAIL")
    return 0 if report.ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    selected = [name for name in VERIFY_ORDER if getattr(args, name.replace("-", "_"))]
    windows = {"oracle_equivalence": (args.n_max, args.p_max)}
    all_ok = True
    for name in selected or VERIFY_ORDER:
        began = time.perf_counter()
        for result in checks.run_group(name, windows):
            print(result.line())
            if args.timings:
                print(f"timing {result.name} {time.perf_counter() - began:.3f} s",
                      file=sys.stderr)
            all_ok = all_ok and result.ok
            began = time.perf_counter()
    return 0 if all_ok else 1


# Every option is a scalar or store_true and parse_args returns a fresh
# Namespace, so one parser serves every call in a process.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantor-hankel",
        description="Hankel determinants of the Cantor sequence: oracles, "
                    "recurrences, automata, and approximation bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="print a slice of the sequence c or d")
    p.add_argument("--kind", choices=("c", "d"), required=True)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json", "raw"), default="raw")
    p.set_defaults(func=_cmd_seq)

    p = sub.add_parser("det", help="one Hankel determinant by elimination")
    p.add_argument("--kind", choices=("gamma", "delta"), default="gamma")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--mod3", action="store_true")
    p.set_defaults(func=_cmd_det)

    p = sub.add_parser("cell", help="one mod-3 determinant from the minimal automaton")
    p.add_argument("--kind", choices=("gamma", "delta"), default="gamma")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-p", type=int, required=True)
    p.set_defaults(func=_cmd_cell)

    p = sub.add_parser("grid", help="mod-3 value table (rows n >= 1, columns p >= 0)")
    p.add_argument("--kind", choices=("gamma", "delta"), default="gamma")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--p-max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json", "ppm", "ascii"),
                   default="ascii")
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("period", help="minimal period of one column, n >= 1")
    p.add_argument("--kind", choices=("gamma", "delta"), default="gamma")
    p.add_argument("-p", type=int, required=True)
    p.set_defaults(func=_cmd_period)

    p = sub.add_parser("series", help="one column as a rational series over GF(3)")
    p.add_argument("--kind", choices=("gamma", "delta"), default="gamma")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("--format", choices=("rational", "coeffs"), default="rational")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("kernel", help="size of the digit-step closure")
    p.add_argument("--start", choices=("gamma", "delta"), default="gamma")
    p.add_argument("--cap", type=int, default=kernel.DEFAULT_STATE_CAP)
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("dfao", help="export the two-dimensional automaton")
    p.add_argument("--start", choices=("gamma", "delta"), default="gamma")
    p.add_argument("--export", choices=("dot", "table"), default="table")
    p.set_defaults(func=_cmd_dfao)

    p = sub.add_parser("dfao-eval", help="run the automaton on one (n, p) pair")
    p.add_argument("--start", choices=("gamma", "delta"), default="gamma")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-p", type=int, required=True)
    p.set_defaults(func=_cmd_dfao_eval)

    p = sub.add_parser("pade", help="the [n-1/n] approximant, optionally verified")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_pade)

    p = sub.add_parser("feq", help="check the cube functional equation")
    p.add_argument("--deg", type=int, required=True)
    p.set_defaults(func=_cmd_feq)

    p = sub.add_parser("irr", help="approximation exponents at 1/b")
    p.add_argument("-b", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_irr)

    p = sub.add_parser("eta", help="interval certificate for the eta relation")
    p.add_argument("-b", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func=_cmd_eta)

    p = sub.add_parser("verify", help="run the identity suite (all by default)")
    for name in VERIFY_ORDER:
        p.add_argument(f"--{name}", action="store_true",
                       help=f"include the {name} checks")
    _, (n_max, p_max) = checks.VERIFY_GROUPS["oracle"][0]
    p.add_argument("--n-max", type=int, default=n_max,
                   help=f"oracle sweep row bound (default {n_max})")
    p.add_argument("--p-max", type=int, default=p_max,
                   help=f"oracle sweep column bound (default {p_max})")
    p.add_argument("--timings", action="store_true",
                   help="print each check's wall time to stderr")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream closed the pipe (head, less); keep the interpreter
        # from tripping on the final stdout flush and call it a success.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
