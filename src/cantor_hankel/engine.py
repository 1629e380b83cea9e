"""Mod-3 Hankel determinant tables by index-splitting recurrences.

gamma_mod3(n, p) and delta_mod3(n, p) return the determinants of the
order-n, offset-p Hankel matrices of c and d reduced mod 3, computed
without any elimination.  Both n and p are split into base-3 quotient
and remainder, and the eighteen splitting identities of SPLIT_RULES
rewrite a cell in terms of cells with quotient indices.  Rows n in
{-1, 0, 1} anchor the recursion:

* gamma at n = 0 is 2 for p = 0 and 1 otherwise (the n = 0 value is a
  convention chosen to make the identities hold at the boundary, not
  the determinant of the empty matrix);
* delta at n = -1 is 1 for p = 0 and 0 otherwise, and delta at n = 0
  is 1 for every p;
* row n = 1 is the sequence itself: c_p, respectively d_p.

The table is therefore 3-automatic: kernel.build_dfao builds its
automaton from the identities, with 1632 states from each start, and
kernel.minimise cuts each to 60.  Those two minimal automata are
checked in as data (_minimal), and a cell walks the one of its kind
over the base-3 digits of n and p, least significant first: O(log n +
log p) steps, with no memo behind them.  Row -1 of delta is read from
_anchor.  One constant is built at import by the table levels
themselves: _CORNER, rows -1 .. 404 by columns 0 .. 134 of both
streams, where the levels of every table end.  The engine keeps no
other cell between calls.

tables() builds whole rectangles of both streams the same way, one
level at a time: a rectangle is rebuilt from the rectangle about a
third as wide and as tall one level down, and no cell is memoised.
Every level below the top needs both streams, since each identity
reads both; the top level fills only the streams its caller reads, so
grid() and column() split one.
SPLIT_RULES is compiled once, at import, into index arrays
(CompiledRules).  A level of more than _FLAT_CELLS quotient cells
gathers every factor of every identity over windows of the level below,
in blocks of bounded size, as witness_lattices() gathers them for the
lattices (3**m n + r, 3**m p + s) that kernel closure states stand for, a
whole level of them per block.  Both gather from one _factor_stack of the
level below and apply the rules by one _apply_rules.  A smaller level,
such as every level of a few-cell read far from the origin, is one
flat gather from its _factor_stack by a plan that depends only on the
level's shape (_flat_plan), a few numpy calls however small the level.
The plans are all that tables() keeps between calls: indices and
signs, never cells, in a cache of at most _FLAT_PLAN_ENTRIES = 64 plans
and _FLAT_PLAN_BYTES = 256 KiB.  Every build splits rows 0 and 1 like
any other, so rows -1, 0 and 1 have one definition, _anchor, read only
to seed the corner and fill row -1:
the engine reads c only through sequences.cantor_term, and the hankel
oracles' matrices, built from the vectorised runs of c, check it.
Tables read the identities only through _COMPILED_RULES.
tables() never reads the automata, so checks.dfao_grid can put it on
trial against kernel.build_dfao.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Mapping, Sequence
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .sequences import cantor_term, diff_term

# Cells per call to grid() or per column scan; guards against
# accidentally huge tables.
DEFAULT_GRID_CELL_CAP = 4_000_000

# Base-3 digits allowed in n and in p.  A cell walks one automaton step
# per digit and a table read splits one level per digit, both in loops,
# so the cap bounds the time of one read, not the stack: a one-cell
# table at 200 digits splits 200 levels in 2.9-4.0 ms on a 2-core VM.
MAX_INDEX_DIGITS = 200
_INDEX_BOUND = 3 ** MAX_INDEX_DIGITS

# The table kinds in the order tables() returns them.
KINDS = ("gamma", "delta")

# The factors one block of a tables() level gathers at once, one byte
# each: a block of quotient cells then peaks at under 1 MiB of
# temporaries, however large the rectangle.
_GATHER_BYTES = 1 << 19

# Levels of at most this many quotient cells are built by one flat
# gather through a cached plan (_flat_plan), a few numpy calls whatever
# the shape.  A plan holds 52 bytes per cell of its level's table (24 of
# index and 2 of sign per stream), and its time grows with its cells
# while a windowed build costs about 60 us for any small level: at 64
# quotient cells a level took 22-30 us flat against 58-75 us windowed
# (both streams, warm plan, 2-core VM), and the two met near 200-500
# cells, where one plan would fill the byte bound below.  At 64 cells a
# plan holds at most 39,936 bytes (1 x 64 quotient cells with row -1:
# 4 x 192 cells of two streams), so the cache keeps at least six.
_FLAT_CELLS = 64

# The flat plans by level shape, least recently used first, bounded in
# entries and in bytes, the nbytes of their arrays.  160 grid blocks of
# sides 10 to 120 at 13 digits and 80 column scans, as 40 rounds of the
# `tables` benchmark read them, use 48 plans of 281 KB in all, and 100
# 3 x 3 tables at 200 digits 52 of 284 KB; under these bounds they miss
# 45 times in 1,181 levels and 5 times in 19,571.
_FLAT_PLANS: OrderedDict[tuple[int | None, ...], tuple[np.ndarray, np.ndarray]] = OrderedDict()
_FLAT_PLAN_ENTRIES = 64
_FLAT_PLAN_BYTES = 1 << 18
_FLAT_PLAN_LOCK = threading.Lock()

# x mod 3 for every byte x, read at the flat build's sums, 0 .. 32.
_MOD3 = (np.arange(256) % 3).astype(np.int8)


Factor = tuple[str, int, int, int]
Rule = tuple[tuple[int, tuple[Factor, ...]], ...]

# The eighteen splitting identities, keyed by (i, j, stream) with stream
# "G" (gamma) or "D" (delta): the stream at (3m + i, 3q + j) is the sum
# over the terms (shift, factors) of (-1)**(m + shift) times the product
# of the factors (stream', a, b, e), each stream' read at (m + a, q + b)
# and raised to e.  The nine G rules hold over the integers, the nine D
# rules mod 3.
SPLIT_RULES: dict[tuple[int, int, str], Rule] = {
    (0, 0, "G"): ((0, (("G", 0, 0, 2), ("D", 0, 0, 1))),
                  (1, (("G", 0, 0, 1), ("G", 1, 0, 1), ("D", -1, 0, 1)))),
    (0, 1, "G"): ((0, (("G", 0, 0, 1), ("G", 0, 1, 1), ("D", 0, 0, 1))),
                  (1, (("G", 0, 1, 1), ("G", 1, 0, 1), ("D", -1, 0, 1)))),
    (0, 2, "G"): ((0, (("G", 0, 1, 2), ("D", 0, 0, 1))),),
    (1, 0, "G"): ((0, (("G", 0, 0, 1), ("G", 1, 0, 1), ("D", 0, 0, 1))),
                  (1, (("G", 1, 0, 2), ("D", -1, 0, 1)))),
    (1, 1, "G"): ((1, (("G", 1, 0, 2), ("D", -1, 1, 1))),),
    (1, 2, "G"): ((0, (("G", 0, 1, 1), ("G", 1, 0, 1), ("D", 0, 1, 1))),
                  (1, (("G", 1, 0, 1), ("G", 1, 1, 1), ("D", -1, 1, 1)))),
    (2, 0, "G"): ((0, (("G", 1, 0, 2), ("D", 0, 0, 1))),),
    (2, 1, "G"): ((1, (("G", 1, 0, 2), ("D", 0, 1, 1))),),
    (2, 2, "G"): ((1, (("G", 1, 1, 2), ("D", 0, 0, 1))),),
    (0, 0, "D"): ((0, (("G", 0, 0, 1), ("D", 0, 0, 2))),
                  (1, (("G", 1, 0, 1), ("D", -1, 0, 1), ("D", 0, 0, 1)))),
    (0, 1, "D"): ((0, (("G", 0, 1, 1), ("D", 0, 0, 2))),),
    (0, 2, "D"): ((0, (("G", 0, 1, 1), ("D", 0, 0, 1), ("D", 0, 1, 1))),
                  (1, (("G", 1, 1, 1), ("D", 0, 0, 1), ("D", -1, 1, 1)))),
    (1, 0, "D"): ((1, (("G", 1, 0, 1), ("D", 0, 0, 2))),),
    (1, 1, "D"): ((0, (("G", 1, 1, 1), ("D", 0, 0, 2))),),
    (1, 2, "D"): ((0, (("G", 1, 0, 1), ("D", 0, 1, 2))),),
    (2, 0, "D"): ((0, (("G", 2, 0, 1), ("D", 0, 0, 2))),
                  (1, (("G", 1, 0, 1), ("D", 0, 0, 1), ("D", 1, 0, 1)))),
    (2, 1, "D"): ((0, (("G", 2, 0, 1), ("D", 0, 0, 1), ("D", 0, 1, 1))),
                  (1, (("G", 1, 0, 1), ("D", 0, 1, 1), ("D", 1, 0, 1)))),
    (2, 2, "D"): ((0, (("G", 2, 0, 1), ("D", 0, 1, 2))),),
}


# The factor planes a compiled rule reads, keyed (stream, exponent), in
# the order _factor_stack stacks a table level's two streams; plane 4 is
# all ones and pads short terms.  So plane % 2 is the stream and plane // 2
# the block of any stack: values, squares (x != 0), ones.
_FACTOR_PLANES = {("G", 1): 0, ("D", 1): 1, ("G", 2): 2, ("D", 2): 3}
_ONES_PLANE = 4


class CompiledRules(NamedTuple):
    """The eighteen splitting identities as index arrays of shape
    (2 streams, 3 i, 3 j, 2 terms, 3 factors): rule (i, j, stream) sits
    at ["GD".index(stream), i, j].

    Factor f of term t reads plane plane[..., t, f] of a _factor_stack
    (of _FACTOR_PLANES, or the ones plane when the term has fewer
    factors) at row shift row[..., t, f] = a + 1 and column shift
    col[..., t, f] = b.  _apply_rules sums the terms: weight[..., t] is
    the term's sign (-1)**shift as 1 or 2 mod 3, and 0 for a missing
    term; its two trailing axes of length 1 broadcast over a block.
    """

    plane: np.ndarray
    row: np.ndarray
    col: np.ndarray
    weight: np.ndarray


def compile_rules(rules: Mapping[tuple[int, int, str], Rule]) -> CompiledRules:
    """rules, keyed as SPLIT_RULES, as the index arrays tables() gathers by."""
    shape = (2, 3, 3, 2, 3)
    plane = np.full(shape, _ONES_PLANE, np.intp)
    row, col = np.zeros(shape, np.intp), np.zeros(shape, np.intp)
    weight = np.zeros(shape[:4] + (1, 1), np.int8)
    for (i, j, stream), rule in rules.items():
        at = ("GD".index(stream), i, j)
        if len(rule) > 2 or any(len(factors) > 3 for _, factors in rule):
            raise ValueError(f"rule {(i, j, stream)} has more than 2 terms or 3 factors a term")
        for t, (shift, factors) in enumerate(rule):
            weight[at + (t,)] = 2 if shift % 2 else 1
            for f, (sym, a, b, e) in enumerate(factors):
                if (sym, e) not in _FACTOR_PLANES or not (-1 <= a <= 2 and 0 <= b <= 1):
                    raise ValueError(
                        f"rule {(i, j, stream)} reads {(sym, a, b, e)}, outside the windows")
                plane[at + (t, f)], row[at + (t, f)] = _FACTOR_PLANES[sym, e], a + 1
                col[at + (t, f)] = b
    return CompiledRules(plane, row, col, weight)


_COMPILED_RULES = compile_rules(SPLIT_RULES)


def _check_digits(n: int, p: int) -> None:
    if n >= _INDEX_BOUND or p >= _INDEX_BOUND:
        name = "n" if n >= _INDEX_BOUND else "p"
        raise ValueError(
            f"{name} has more than {MAX_INDEX_DIGITS} base-3 digits, over the cap")


def _check_cells(what: str, cells: int) -> None:
    if cells > DEFAULT_GRID_CELL_CAP:
        raise ValueError(f"{what} of {cells} cells exceeds the cap {DEFAULT_GRID_CELL_CAP}")


def _anchor(stream: str, n: int, p: int) -> int:
    """The stream at an anchor row n in {-1, 0, 1}.

    Gamma has no row -1; tables() keeps a 0 there, which no identity reads.
    """
    if n == 1:
        return cantor_term(p) if stream == "G" else diff_term(p) % 3
    if n == 0:
        return (2 if p == 0 else 1) if stream == "G" else 1
    return int(stream == "D" and p == 0)


def split_value(rule: Rule, n: int, p: int,
                reads: Mapping[str, Callable[[int, int], int]]) -> int:
    """The right side of the splitting identity rule at (n, p), an integer.

    reads maps "G" and "D" to the values each factor reads at
    (n // 3 + a, p // 3 + b).  A term is dropped at its first zero
    factor, so the cells behind its other factors are never read.  The
    splitting replays of checks feed it oracle values; tables() never
    calls it, and reads the identities through _COMPILED_RULES instead.
    """
    m, q = n // 3, p // 3
    total = 0
    for shift, factors in rule:
        term = -1 if (m + shift) % 2 else 1
        for sym, a, b, e in factors:
            value = reads[sym](m + a, q + b)
            if not value:
                break
            term *= value ** e
        else:
            total += term
    return total


# The minimal automata by kind, loaded by the first cell, so importing
# the engine does not read them.
_AUTOMATA: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {}


def _walk(kind: str, n: int, p: int) -> int:
    """The minimal automaton of kind at (n >= 0, p >= 0); see _minimal."""
    if not _AUTOMATA:
        from ._minimal import AUTOMATA
        _AUTOMATA.update(AUTOMATA)
    outputs, transitions = _AUTOMATA[kind]
    state = 0
    while n or p:
        state = transitions[9 * state + 3 * (n % 3) + p % 3]
        n //= 3
        p //= 3
    return outputs[state]


# The cells need no memo, but bench/run.py reads cache_info() of both,
# so each keeps an lru_cache until the benchmark stops reading it.  Its
# size is fixed, so memory stays bounded however many distinct cells a
# process reads, and stays above the 1,597 entries a seed-7 `tables`
# benchmark run leaves, so that run evicts nothing and its counts hold.
CELL_MEMO_SIZE = 4096


@lru_cache(maxsize=CELL_MEMO_SIZE)
def gamma_mod3(n: int, p: int) -> int:
    """Determinant mod 3 of the order-n Hankel matrix of c at offset p."""
    if n < 0 or p < 0:
        raise ValueError("need n >= 0 and p >= 0")
    _check_digits(n, p)
    return _walk("gamma", n, p)


@lru_cache(maxsize=CELL_MEMO_SIZE)
def delta_mod3(n: int, p: int) -> int:
    """Determinant mod 3 of the order-n Hankel matrix of d at offset p.

    Accepts n = -1, the boundary row the splitting identities evaluate.
    """
    if n < -1 or p < 0:
        raise ValueError("need n >= -1 and p >= 0")
    _check_digits(n, p)
    return _anchor("D", n, p) if n < 0 else _walk("delta", n, p)


# The printed columns: one period of each column stream at p = 0 and
# p = 1, read from n = 0.  As series they are numerator / (1 - x^4).
PRINTED_COLUMNS: dict[tuple[str, int], tuple[int, ...]] = {
    ("gamma", 0): (2, 1, 1, 2),
    ("gamma", 1): (1, 0, 2, 0),
    ("delta", 0): (1, 2, 2, 1),
    ("delta", 1): (1, 0, 2, 0),
}


def closed_form_p0(n: int) -> tuple[int, int]:
    """(gamma, delta) mod 3 in column p = 0: the printed columns at n mod 4."""
    if n < 1:
        raise ValueError("closed forms cover n >= 1")
    return (PRINTED_COLUMNS["gamma", 0][n % 4], PRINTED_COLUMNS["delta", 0][n % 4])


def closed_form_p1(n: int) -> int:
    """The common value of gamma and delta mod 3 in column p = 1, at n mod 4."""
    if n < 1:
        raise ValueError("closed forms cover n >= 1")
    return PRINTED_COLUMNS["gamma", 1][n % 4]


def _kind_index(kind: str) -> int:
    if kind not in KINDS:
        raise ValueError(f"unknown matrix kind {kind!r}")
    return KINDS.index(kind)


def _down(n_lo: int, n_hi: int, p_lo: int, p_hi: int) -> tuple[int, int, int, int]:
    """The rectangle one level down, which _split_level reads."""
    return max(n_lo, 0) // 3 - 1, n_hi // 3 + 2, p_lo // 3, p_hi // 3 + 1


def _level(n_lo: int, n_hi: int, p_lo: int, p_hi: int, streams: slice,
           corner: np.ndarray) -> tuple[np.ndarray, ...]:
    """The kinds KINDS[streams] over a rectangle, one int8 array each, its
    levels ending in corner (both kinds, indexed as _CORNER); see tables()."""
    # A level down is about a third as tall and as wide, and rows [-1, 3] x
    # columns [0, 1] map to themselves: the walk ends in any corner holding them.
    rectangles = []
    while n_hi + 1 >= corner.shape[1] or p_hi >= corner.shape[2]:
        rectangles.append((n_lo, n_hi, p_lo, p_hi))
        n_lo, n_hi, p_lo, p_hi = _down(n_lo, n_hi, p_lo, p_hi)
    below = corner[:, n_lo + 1:n_hi + 2, p_lo:p_hi + 1]
    for k in range(len(rectangles) - 1, -1, -1):
        planes = _factor_stack(below)
        # Dropped before the split, and the planes once split: one level
        # and one level's planes are held at most.
        del below
        below = _split_level(*rectangles[k], streams if k == 0 else slice(0, 2), planes)
        del planes
    return tuple(below if rectangles else below[streams].copy())


def _residues(lo: int, hi: int) -> slice:
    """The residues mod 3 of lo..hi as a slice of range(3): 0:3 for three
    or more, else one of 0:1, 1:2, 2:3, 0:2, 1:3 or 0:3:2."""
    if hi - lo >= 2:
        return slice(0, 3, 1)
    a, b = sorted((lo % 3, hi % 3))
    return slice(a, b + 1, max(b - a, 1))


def _factor_stack(values: Sequence[np.ndarray]) -> np.ndarray:
    """The k int8 arrays values, then their squares (x != 0), then one
    plane of ones, as one int8 stack: the planes the compiled rules
    gather from.  A table level's stack has k = 2, its two streams."""
    k = len(values)
    stack = np.empty((2 * k + 1,) + values[0].shape, np.int8)
    stack[:k] = values
    np.not_equal(stack[:k], 0, out=stack[k:-1].view(bool))
    stack[-1] = 1
    return stack


def _apply_rules(factors: np.ndarray, weight: np.ndarray, odd: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """The compiled rules applied, mod 3: factors has axes (..., term,
    factor, x, y) and weight (..., term, 1, 1), as in CompiledRules, and
    the rows x of parity odd take the sign -1 of an odd quotient row.
    Products of at most 8, weighted by the term signs as 1 or 2 (-1 mod
    3) and summed: at most 32, doubled on the flipped rows: at most 64.
    Reduced in place as x - 3 * (x // 3), several times faster than %."""
    terms = factors[..., 0, :, :] * factors[..., 1, :, :]
    terms *= factors[..., 2, :, :]
    terms *= weight
    total = np.add(terms[..., 0, :, :], terms[..., 1, :, :], out=out)
    total[..., odd::2, :] *= 2
    third = total // 3
    third *= 3
    total -= third
    return total


def _windows(planes: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The (4, 2) windows of planes, a (5, rows + 3, cols + 1) stack, at
    each quotient cell: axes (plane, m, q, row shift, column shift).  Built
    directly: sliding_window_view costs as much as a small level."""
    return np.ndarray((5, rows, cols, 4, 2), planes.dtype, planes,
                      strides=planes.strides + planes.strides[1:])


def _flat_plan(at: tuple[slice, slice, slice], rows: int, cols: int, odd: int,
               extra: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat build of a level of rows x cols quotient cells, the rows
    of parity odd among them (counted from 0) those of odd quotient m, and
    row n = -1 first if extra.  Over the table _split_level slices its
    output from, the int32 index of every factor into the flattened
    planes, axes (factor, term, stream, x, y), and the int8 sign of every
    term, axes (term, stream, x, y): the term weight times the -1 of odd
    quotient rows, and 0 on row -1.

    Kept in _FLAT_PLANS, which drops the least recently used plans past
    _FLAT_PLAN_ENTRIES of them or _FLAT_PLAN_BYTES in all; one lock
    serialises its reads and writes across threads."""
    streams, i, j = at
    key = (streams.start, streams.stop, i.start, i.stop, i.step, j.start, j.stop, j.step,
           rows, cols, odd, extra)
    with _FLAT_PLAN_LOCK:
        plan = _FLAT_PLANS.get(key)
        if plan is not None:
            _FLAT_PLANS.move_to_end(key)
            return plan
    plane, row, col, weight = (index[at] for index in _COMPILED_RULES)
    kinds, ka, kb = plane.shape[:3]
    height, width = extra + rows * ka, cols * kb
    cells = np.arange(5 * (rows + 3) * (cols + 1), dtype=np.int32).reshape(5, rows + 3, cols + 1)
    # Row n = -1, if asked for, reads plane 0 with sign 0; _split_level fills it.
    index = np.zeros((3, 2, kinds, height, width), np.int32)
    sign = np.zeros((2, kinds, height, width), np.int8)
    # The windowed gather of the cells' own flat indices, axes (stream,
    # residue i, residue j, term, factor, m, q), in the plan's layout.
    index[..., extra:, :] = _windows(cells, rows, cols)[plane, :, :, row, col].transpose(
        4, 3, 0, 5, 1, 6, 2).reshape(3, 2, kinds, rows * ka, width)
    # The sign (-1)**m, 1 or 2 mod 3, on the quotient rows m of parity odd.
    flip = np.ones(rows, np.int8)
    flip[odd::2] = 2
    terms = (weight[..., 0, 0, None] * flip % 3).transpose(3, 0, 4, 1, 2)[..., None, :]
    sign[..., extra:, :] = np.broadcast_to(
        terms, terms.shape[:4] + (cols, kb)).reshape(2, kinds, rows * ka, width)
    plan = index, sign
    with _FLAT_PLAN_LOCK:
        _FLAT_PLANS[key] = plan
        while (len(_FLAT_PLANS) > _FLAT_PLAN_ENTRIES
               or sum(a.nbytes + b.nbytes for a, b in _FLAT_PLANS.values()) > _FLAT_PLAN_BYTES):
            _FLAT_PLANS.popitem(last=False)
    return plan


def _split_level(n_lo: int, n_hi: int, p_lo: int, p_hi: int, streams: slice,
                 planes: np.ndarray) -> np.ndarray:
    """The kinds KINDS[streams] over a rectangle, one int8 array of axes
    (kind, n - n_lo, p - p_lo), split by _COMPILED_RULES from planes, the
    _factor_stack of both kinds over _down(n_lo, n_hi, p_lo, p_hi).  Rows
    0 and 1 are split too (see tables()); row -1, if asked for, is filled
    from _anchor.

    Cell (3m + i, 3q + j) reads rows m - 1 .. m + 2 and columns q .. q + 1
    of the level below: one (4, 2) window of the factor planes per
    quotient cell (m, q).  The cells (3m + i, 3q + j) of the i and j that
    occur in the rectangle are filled over each quotient cell.  A level
    of at most _FLAT_CELLS quotient cells is one short pipeline over the
    flattened planes: one take by the index of its _flat_plan, two
    products, one by the plan's sign, one sum of the two terms and one
    take through _MOD3, already in the table's layout.  The plans are
    cached between calls, at most _FLAT_PLAN_ENTRIES of them and
    _FLAT_PLAN_BYTES in all, the least recently used dropped first; a
    plan built on a miss costs about what a windowed level does.  A
    larger level gathers every factor of the rules of the streams asked
    for from the windows at once, in blocks of quotient cells of at most
    _GATHER_BYTES factors each, and applies them by _apply_rules.  The tables hold
    just those cells (and row n = -1 if asked for), so at most two rows
    and two columns past each side of the rectangle, a view of them.
    """
    m_lo, _, q_lo, _ = _down(n_lo, n_hi, p_lo, p_hi)
    at = (streams, _residues(max(n_lo, 0), n_hi), _residues(p_lo, p_hi))
    rows, cols = n_hi // 3 - m_lo, p_hi // 3 - q_lo + 1
    # Row n = -1, if asked for, precedes the quotient rows.
    extra = int(n_lo < 0)
    if rows * cols <= _FLAT_CELLS:
        index, sign = _flat_plan(at, rows, cols, m_lo % 2, extra)
        factors = planes.take(index)
        terms = np.multiply(factors[0], factors[1])
        np.multiply(terms, factors[2], out=terms)
        np.multiply(terms, sign, out=terms)
        full = _MOD3.take(np.add(terms[0], terms[1]))
    else:
        full = _windowed_level(at, rows, cols, m_lo % 2, extra, planes)
    # Row n_lo >= 0 and column p_lo are in the first quotient row and column.
    n0 = 0 if extra else (n_lo % 3 - at[1].start) // at[1].step
    p0 = (p_lo % 3 - at[2].start) // at[2].step
    out = full[:, n0:n0 + n_hi - n_lo + 1, p0:p0 + p_hi - p_lo + 1]
    if extra:
        # Row n = -1 is 0 past column p = 0.
        out[:, 0] = 0
        for table, stream in zip(out, "GD"[streams]):
            table[0, 0] = _anchor(stream, -1, p_lo)
    return out


def _windowed_level(at: tuple[slice, slice, slice], rows: int, cols: int, odd: int,
                    extra: int, planes: np.ndarray) -> np.ndarray:
    """The tables of _split_level for a level of rows x cols quotient cells,
    gathered from the windows of planes in blocks of at most _GATHER_BYTES
    factors; odd and extra are as for _flat_plan, and row -1 is left for
    _split_level to fill."""
    plane, row, col, weight = (index[at] for index in _COMPILED_RULES)
    ka, kb = plane.shape[1:3]
    full = np.empty((len(plane), extra + rows * ka, cols * kb), np.int8)
    # The quotient rows of each table, axes (m, residue i, q, residue j).
    quotients = tuple(table[extra:].reshape(rows, ka, cols, kb) for table in full)
    windows = _windows(planes, rows, cols)
    block_cols = min(cols, max(1, _GATHER_BYTES // plane.size))
    block_rows = max(1, _GATHER_BYTES // (plane.size * block_cols))
    for u in range(0, rows, block_rows):
        for v in range(0, cols, block_cols):
            block = windows[:, u:u + block_rows, v:v + block_cols]
            total = _apply_rules(block[plane, :, :, row, col], weight, (odd + u) % 2)
            # Axes (stream, residue i, residue j, m, q) of total to the quotients.
            for table, cells in zip(quotients, total):
                for k in range(kb):
                    table[u:u + block_rows, :, v:v + block_cols, k] = cells[:, k].swapaxes(0, 1)
    return full


# The corner where the levels of every table end: both streams over
# rows -1 .. 404 by columns 0 .. 134, 109,620 bytes, built in about 1 ms.
# `grid --n-max 300` ends in it after one level, a 1000 x 1000 grid after
# two, a column scan at p = 400 after three, checks.dfao_grid's 96 x 128
# window at none.  Three times as tall and as wide would take 985 KB and
# about 3 ms.  Its own levels end in a seed, rows -1 .. 3 by columns
# 0 .. 1, which one level maps onto itself: rows 2 and 3 read rows <= 2,
# so from _anchor's rows -1 .. 1 and zeros below, two passes reach the
# fixed point; a fixed count of three cannot loop on an edited rule.
def _seed() -> np.ndarray:
    """Both streams over rows -1 .. 3 by columns 0 .. 1, indexed as
    _CORNER: the fixed point of one level, split from _anchor."""
    seed = np.zeros((2, 5, 2), np.int8)
    seed[:, :3] = [[[_anchor(s, n, p) for p in (0, 1)] for n in (-1, 0, 1)] for s in "GD"]
    for _ in range(3):
        seed = _split_level(-1, 3, 0, 1, slice(0, 2), _factor_stack(seed))
    return seed.copy()


def _build_corner() -> np.ndarray:
    """Both streams over rows -1 .. 404 by columns 0 .. 134, indexed
    [stream, n + 1, p] and read-only: the levels ending in _seed()."""
    corner = np.stack(_level(-1, 404, 0, 134, slice(0, 2), _seed()))
    corner.flags.writeable = False
    return corner


_CORNER = _build_corner()


def tables(n_lo: int, n_hi: int, p_lo: int, p_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Gamma and delta mod 3 over rows n_lo..n_hi and columns p_lo..p_hi.

    Returns two int8 arrays indexed [n - n_lo, p - p_lo], in the order of
    KINDS; they share no memory, and each may be a view of a table with
    up to two more rows and columns on each side.  Rows n >= 0 are split
    from the rectangle one level down (see _split_level), and row -1 is
    filled from _anchor.  A rectangle inside _CORNER is a copy of its
    cells; every other rectangle is walked down, one level per loop
    step, until one lies in _CORNER, then split back up level by level:
    never cell by cell, never from the automata, and with no recursion.
    Gamma's row -1 holds 0.

    Rows 0 and 1 need no anchor fill: read at m = 0, the twelve
    identities with i in {0, 1} rebuild them at columns 3q .. 3q + 2
    from rows -1 .. 1 at columns q and q + 1, whatever c_q .. c_(q+3)
    are (tests/test_engine.py checks every pattern).  So by induction
    over the levels, from the seed of _CORNER up, rows -1 .. 1 of every
    level are those of _anchor.

    A rectangle of more than DEFAULT_GRID_CELL_CAP cells is refused
    before any cell is computed.
    """
    _check_rectangle(n_lo, n_hi, p_lo, p_hi)
    return _level(n_lo, n_hi, p_lo, p_hi, slice(0, 2), _CORNER)


def _check_rectangle(n_lo: int, n_hi: int, p_lo: int, p_hi: int) -> None:
    if n_hi < n_lo or p_hi < p_lo:
        raise ValueError("empty table range")
    _check_cells("table", (n_hi - n_lo + 1) * (p_hi - p_lo + 1))
    if n_lo < -1 or p_lo < 0:
        raise ValueError("need n >= -1 and p >= 0")
    _check_digits(n_hi, p_hi)


def _table(kind: str, n_lo: int, n_hi: int, p_lo: int, p_hi: int) -> np.ndarray:
    """tables()[KINDS.index(kind)], with only that kind split at the top
    level, refused as tables() refuses; gamma has no row -1."""
    index = _kind_index(kind)
    if kind == "gamma" and n_lo < 0:
        raise ValueError("need n >= 0 and p >= 0")
    _check_rectangle(n_lo, n_hi, p_lo, p_hi)
    return _level(n_lo, n_hi, p_lo, p_hi, slice(index, index + 1), _CORNER)[0]


def witness_lattices(witnesses: dict[str, Sequence[tuple[int, int, int]]],
                     window: int) -> dict[str, np.ndarray]:
    """Each stream kind on the lattice of each of its witnesses (m, r, s).

    witnesses maps kinds to witness lists.  For each kind the result is
    an int8 array with one row per witness and one column per point
    (n, p), n and p in 0..window, n-major: the stream at
    (3**m * n + r, 3**m * p + s).  A witness needs 0 <= r, s < 3**m.

    Every point of a lattice with m >= 1 has the residues (r mod 3,
    s mod 3), so one compiled splitting identity rewrites the whole
    lattice from the lattices (m - 1, r // 3 + a, s // 3 + b), and its
    sign (-1)**(3**(m - 1) * n + r // 3 + shift) is a parity in n.  Row
    n = 0 of a lattice with r <= 1 lies on rows 0 and 1, which the
    identities rebuild as tables() does.  A lattice read at level k has
    r in -1 .. 3**k + 2 and s in 0 .. 3**k + 1, so at level 0 every
    lattice is a slice of the one tables() rectangle over rows
    -1 .. window + 3 and columns 0 .. window + 3.

    Each level's lattices are integer codes (int64 while they fit),
    collected top down by one np.unique over its witnesses and the
    factors _COMPILED_RULES names one level up, whose inverse is their
    gather index.  Bottom up, the level above gathers in blocks of at
    most _GATHER_BYTES factors from the _factor_stack of the level
    below, dropped once read, and _apply_rules applies them, with
    (-1)**(r // 3) folded into the term weights and (-1)**n on the odd
    rows n.  An output of more than DEFAULT_GRID_CELL_CAP cells,
    witnesses times (window + 1)**2, is refused before any work.
    """
    if window < 0:
        raise ValueError(f"need window >= 0, got {window}")
    _check_cells("output", sum(map(len, witnesses.values())) * (window + 1) ** 2)
    streams = {kind: _kind_index(kind) for kind in witnesses}
    for triples in witnesses.values():
        for m, r, s in triples:
            if m < 0 or not (0 <= r < 3 ** m and 0 <= s < 3 ** m):
                raise ValueError(f"witness ({m},{r},{s}) needs 0 <= r, s < 3**m")
            _check_digits(3 ** m * window + r, 3 ** m * window + s)
    began = time.perf_counter()
    size = window + 1
    # Lattice (stream, r, s) of level m has the code
    # ((r + 1) * (3**m + 2) + s) * 2 + stream, stream 0 for G and 1 for D.
    wanted = [(kind, np.array([m for m, _, _ in triples], np.intp),
               np.array([((r + 1) * (3 ** m + 2) + s) * 2 + streams[kind] for m, r, s in triples],
                        object)) for kind, triples in witnesses.items()]
    top = max((m for triples in witnesses.values() for m, _, _ in triples), default=0)
    spans = [3 ** m + 2 for m in range(top + 1)]
    dtypes = [np.int64 if 2 * (span + 2) * span < 2 ** 63 else object for span in spans]
    # Top down, levels[m] collects what the build of level m reads, last
    # the gather index of its factors (plane, real) into the stack below.
    levels: list[tuple] = [()] * (top + 1)
    carried, built = np.zeros(0, np.int64), 0
    for m in range(top, -1, -1):
        parts = [codes[at == m].astype(dtypes[m]) for _, at, codes in wanted]
        keys, inverse = np.unique(np.concatenate(parts + [carried.astype(dtypes[m], copy=False)]),
                                  return_inverse=True)
        built += len(keys)
        ends = np.cumsum([0] + [len(part) for part in parts])
        if m < top:
            # Rows of the _factor_stack below: values, squares, then ones.
            index = np.full(plane.shape, 2 * len(keys), np.int32)
            index[real] = inverse[ends[-1]:] + len(keys) * (plane[real] // 2)
            levels[m + 1] += (index,)
        levels[m] = ([(kind, np.flatnonzero(at == m), inverse[lo:hi])
                      for (kind, at, _), lo, hi in zip(wanted, ends, ends[1:])],)
        stream = (keys % 2).astype(np.intp)
        row, s = keys // 2 // spans[m], keys // 2 % spans[m]
        if m == 0:
            break
        q = (row - 1) // 3
        rule = stream * 9 + ((row - 1) % 3 * 3 + s % 3).astype(np.intp)
        plane, shift, col, weight = (np.take(table.reshape((18,) + table.shape[3:]), rule, axis=0)
                                     for table in _COMPILED_RULES)
        real = plane != _ONES_PLANE
        carried = (((q[:, None, None] + shift) * spans[m - 1] + s[:, None, None] // 3 + col) * 2
                   + plane % 2)[real]
        # The sign (-1)**q, folded into the term weights: 1 and 2 swap.
        levels[m] += (weight * (1 + q % 2).astype(np.int8)[:, None, None, None] % 3,)

    out = {kind: np.empty((len(at), size * size), np.int8) for kind, at, _ in wanted}
    base = np.lib.stride_tricks.sliding_window_view(
        np.stack(tables(-1, window + 3, 0, window + 3)), (size, size), axis=(1, 2))
    values = base[stream, row, s]
    block = max(1, _GATHER_BYTES // (_COMPILED_RULES.plane[0, 0, 0].size * size * size))
    for m in range(top + 1):
        (picks, *rest), levels[m] = levels[m], ()
        if m:
            weight, index = rest
            values = np.empty((len(index), size, size), np.int8)
            for lo in range(0, len(index), block):
                # The sign (-1)**n falls on the odd rows n.
                _apply_rules(np.take(below, index[lo:lo + block], axis=0),
                             weight[lo:lo + block], 1, values[lo:lo + block])
            del below
        for kind, rows, at in picks:
            out[kind][rows] = values[at].reshape(len(at), size * size)
        below = _factor_stack(values)
        del values
    # Imported here, as in kernel: only a sweep writes a record.
    import logging
    logging.getLogger(__name__).debug(
        "witness lattices at window %d: %d built, %.3f s",
        window, built, time.perf_counter() - began)
    return out


def grid(n_lo: int, n_hi: int, p_lo: int, p_hi: int, kind: str = "gamma") -> list[list[int]]:
    """Rectangular table of mod-3 values, rows n_lo..n_hi, columns p_lo..p_hi.

    The rows of tables()[KINDS.index(kind)]; only that kind is split at
    the top level.
    """
    return _table(kind, n_lo, n_hi, p_lo, p_hi).tolist()


def minimal_period(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """The shortest prefix of coeffs whose repetition is coeffs.

    The repetitions of coeffs by divisors of n = len(coeffs) are those by
    the multiples of the shortest one, d: two of them, by t and u, make
    one by gcd(t, u), since t + u - gcd(t, u) <= n.  So from t = n, each
    prime q of n divides t while coeffs is still a repetition by t / q,
    and the exponent of q in t falls to its exponent in d.  While coeffs
    repeats coeffs[:t], it repeats its prefix of length s | t if and
    only if coeffs[:t] does, that is if coeffs[s:t] == coeffs[:t - s]:
    one compare of at most t entries per step, O(n) in all.
    """
    n = t = len(coeffs)
    rest, q = n, 2
    while rest > 1:
        if q * q > rest:
            q = rest
        if rest % q == 0:
            while rest % q == 0:
                rest //= q
            while t % q == 0 and coeffs[t // q:t] == coeffs[:t - t // q]:
                t //= q
        q += 1
    return coeffs[:t]


def column(kind: str, p: int, first: int, k_hint: int = 0) -> tuple[int, ...]:
    """One minimal period of column p of a table kind, read from n = first.

    The candidate period is 12 * 3**k, k the least exponent with
    p <= 3**(k+1), raised to k_hint if the caller asks for a wider
    window.  The column of tables(), with only that kind split at the
    top level, is read over three candidate periods; failure to repeat
    there would falsify the periodicity bound and raises.  A p of more
    than MAX_INDEX_DIGITS base-3 digits, a window of more than
    DEFAULT_GRID_CELL_CAP cells, or a k past the cap's bit length, is
    refused before any cell or larger power is computed, so without
    k_hint the largest p scanned is 3**11.
    """
    if p < 0:
        raise ValueError("need p >= 0")
    if k_hint < 0:
        raise ValueError(f"need k_hint >= 0, got {k_hint}")
    _kind_index(kind)
    _check_digits(0, p)
    k, k_max = k_hint, DEFAULT_GRID_CELL_CAP.bit_length()
    while k < k_max and p > 3 ** (k + 1):
        k += 1
    candidate = 12 * 3 ** min(k, k_max)
    if 3 * candidate > DEFAULT_GRID_CELL_CAP:
        raise ValueError(
            f"column p = {p} needs a scan of more than {DEFAULT_GRID_CELL_CAP} "
            "cells, over the cap")
    window = _table(kind, first, first + 3 * candidate - 1, p, p)[:, 0]
    if not np.array_equal(window[:2 * candidate], window[candidate:]):
        raise RuntimeError(
            f"column {p} is not {candidate}-periodic on the scanned window")
    return minimal_period(tuple(window[:candidate].tolist()))


def column_period(p: int, k_hint: int = 0, kind: str = "gamma") -> int:
    """Minimal period of the column sequence n -> value(n, p), n >= 1 (see column)."""
    return len(column(kind, p, 1, k_hint))
