"""Mod-3 Hankel determinant tables by index-splitting recurrences.

gamma_mod3(n, p) and delta_mod3(n, p) return the determinants of the
order-n, offset-p Hankel matrices of c and d reduced mod 3, computed
without any elimination: both n and p are split into base-3 quotient
and remainder and the eighteen splitting identities of SPLIT_RULES
rewrite the cell in terms of cells with quotient indices.  Rows n in
{-1, 0, 1} anchor the recursion:

* gamma at n = 0 is 2 for p = 0 and 1 otherwise (the n = 0 value is a
  convention chosen to make the identities hold at the boundary, not
  the determinant of the empty matrix);
* delta at n = -1 is 1 for p = 0 and 0 otherwise, and delta at n = 0
  is 1 for every p;
* row n = 1 is the sequence itself: c_p, respectively d_p.

Each recursive call reduces n except for finitely many small cells, so
evaluation costs O(log n + log p) new cells on top of the memo.

tables() builds whole rectangles of both streams the same way, one
level at a time: a rectangle is rebuilt from the rectangle about a
third as wide and as tall one level down, one array pass per
splitting identity, and no cell is memoised.  witness_lattices() does
the same for the lattices (3**m n + r, 3**m p + s) that kernel closure
states stand for: one splitting identity rebuilds a whole stack of
lattices from the stack one level down.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping, Sequence
from functools import lru_cache, reduce

import numpy as np

from .sequences import cantor_term, diff_term

# Cells per call to grid() or per column scan; guards against
# accidentally huge tables.
DEFAULT_GRID_CELL_CAP = 4_000_000

# Base-3 digits allowed in n and in p.  The scalar recursion spends three
# stack frames per digit (the memo wrapper, the cell and split_value): a
# cold cell at 200 digits needs a recursion limit of 606 to 609, and the
# recursion overflows Python's default limit of 1000 frames between 330
# and 340 digits, so 200 leaves room for the callers.
MAX_INDEX_DIGITS = 200
_INDEX_BOUND = 3 ** MAX_INDEX_DIGITS

# The table kinds in the order tables() returns them.
KINDS = ("gamma", "delta")

# Rectangles of at most this many cells are read cell by cell: below it
# the eighteen array passes of a level cost more than the cells.
_CELLWISE_AREA = 32


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


def _check_digits(n: int, p: int) -> None:
    if n >= _INDEX_BOUND or p >= _INDEX_BOUND:
        name = "n" if n >= _INDEX_BOUND else "p"
        raise ValueError(
            f"{name} has more than {MAX_INDEX_DIGITS} base-3 digits, over the cap")


def _anchor(stream: str, n: int, p: int) -> int:
    """The stream at an anchor row n in {-1, 0, 1}.

    Gamma has no row -1; tables() keeps a 0 there, which no identity reads.
    """
    if n == 1:
        return cantor_term(p) if stream == "G" else diff_term(p) % 3
    if n == 0:
        return (2 if p == 0 else 1) if stream == "G" else 1
    return int(stream == "D" and p == 0)


# c over one block of 3**5 indices: the product of the Cantor indicator
# [1, 0, 1] over each of five base-3 digits.
_CANTOR_BLOCK = reduce(np.kron, [np.array([True, False, True])] * 5)


def _cantor_run(q: int, count: int) -> np.ndarray:
    """c_p for p = q .. q + count - 1, any q >= 0, as a bool array.

    p = hi * B + lo with B = len(_CANTOR_BLOCK) splits the digits:
    c_p = c_hi * c_lo, c_lo read from _CANTOR_BLOCK and the c_hi a run
    about B times shorter, so p may have all MAX_INDEX_DIGITS digits.
    """
    if count <= 2:
        return np.array([cantor_term(q + k) for k in range(count)], dtype=bool)
    block = len(_CANTOR_BLOCK)
    hi, lo = divmod(q, block)
    high = _cantor_run(hi, (lo + count - 1) // block + 1)
    return (high[:, None] & _CANTOR_BLOCK).ravel()[lo:lo + count]


def _anchor_rows(p_lo: int, count: int, step: int = 1) -> dict[str, np.ndarray]:
    """Rows n = -1, 0, 1 of both streams at the columns p_lo + step * k,
    k < count, keyed "G" and "D": int8 arrays of shape (3, count).

    step must be a power of 3.  Then p_lo = step * q + u with u < step
    puts the digits of u below those of q + k, so c there is c_u times
    c_(q + k).  Row 1 of delta is d_p = c_p + c_(p + 2), and p + 2 splits
    the same way with a quotient at most 2 past q, so one run of c
    serves both.  Gamma has no row -1; it holds 0.
    """
    q, u = divmod(p_lo, step)
    q2, u2 = divmod(p_lo + 2, step)
    run = _cantor_run(q, count + q2 - q)
    rows = np.zeros((2, 3, count), dtype=np.int8)
    rows[:, 1] = 1
    if p_lo == 0:
        rows[0, 1, 0] = 2
        rows[1, 0, 0] = 1
    if cantor_term(u):
        rows[:, 2] = run[:count]
    if cantor_term(u2):
        rows[1, 2] += run[q2 - q:]
    return {"G": rows[0], "D": rows[1]}


def split_value(rule: Rule, n: int, p: int,
                reads: Mapping[str, Callable[[int, int], int]]) -> int:
    """The right side of the splitting identity rule at (n, p), an integer.

    reads maps "G" and "D" to the values each factor reads at
    (n // 3 + a, p // 3 + b).  A term is dropped at its first zero
    factor, so the cells behind its other factors are never read.
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


# lru_cache makes the memo; its locking is enough for concurrent use and
# the values are pure, so racing duplicate computations are harmless.
@lru_cache(maxsize=None)
def gamma_mod3(n: int, p: int) -> int:
    """Determinant mod 3 of the order-n Hankel matrix of c at offset p."""
    if n < 0 or p < 0:
        raise ValueError("need n >= 0 and p >= 0")
    _check_digits(n, p)
    return (_anchor("G", n, p) if n <= 1
            else split_value(SPLIT_RULES[n % 3, p % 3, "G"], n, p, _CELLS) % 3)


@lru_cache(maxsize=None)
def delta_mod3(n: int, p: int) -> int:
    """Determinant mod 3 of the order-n Hankel matrix of d at offset p.

    Accepts n = -1, the boundary row the splitting identities evaluate.
    """
    if n < -1 or p < 0:
        raise ValueError("need n >= -1 and p >= 0")
    _check_digits(n, p)
    return (_anchor("D", n, p) if n <= 1
            else split_value(SPLIT_RULES[n % 3, p % 3, "D"], n, p, _CELLS) % 3)


# The scalar engine's cells, keyed by stream as split_value reads them.
_CELLS = {"G": gamma_mod3, "D": delta_mod3}


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


def _rule_sum(rule: Rule, factor: Callable[[str, int, int, int], np.ndarray],
              odd_from: int) -> np.ndarray:
    """A splitting identity evaluated on arrays, reduced mod 3.

    factor(stream, a, b, e) is the array of that factor, already raised
    to e, with rows on its second-last axis.  The (-1)**m part of each
    term's sign, m the quotient row index, is applied by negating every
    other row from row odd_from.
    Every product lies in [-8, 8] and every sum in [-16, 16], inside
    int8.
    """
    total = 0
    for shift, factors in rule:
        term = -1 if shift % 2 else 1
        for sym, a, b, e in factors:
            term = term * factor(sym, a, b, e)
        total = total + term
    total[..., odd_from::2, :] *= -1
    return total % 3


def _level(n_lo: int, n_hi: int, p_lo: int, p_hi: int) -> dict[str, np.ndarray]:
    """Both streams over a rectangle, keyed "G" and "D"; see tables()."""
    width = p_hi - p_lo + 1
    out = {s: np.empty((n_hi - n_lo + 1, width), np.int8) for s in "GD"}
    if n_lo <= 1:
        for stream, anchors in _anchor_rows(p_lo, width).items():
            out[stream][:2 - n_lo] = anchors[n_lo + 1:n_hi + 2]
    r_lo = max(n_lo, 2)
    if r_lo > n_hi:
        return out
    if n_hi <= 3 or (n_hi - n_lo + 1) * width <= _CELLWISE_AREA:
        # Rows [-1, 3] x columns [0, 1] map to themselves one level
        # down, so the recursion ends here.
        for stream, value in _CELLS.items():
            out[stream][r_lo - n_lo:] = [[value(n, p) for p in range(p_lo, p_hi + 1)]
                                         for n in range(r_lo, n_hi + 1)]
        return out
    # Row n = 3m + i reads rows m - 1 .. m + 2 and column p = 3q + j
    # reads columns q .. q + 1 of the level below, each stream also
    # squared mod 3.
    m_lo, q_lo = r_lo // 3 - 1, p_lo // 3
    below = {}
    for stream, table in _level(m_lo, n_hi // 3 + 2, q_lo, p_hi // 3 + 1).items():
        below[stream, 1], below[stream, 2] = table, table * table % 3
    for (i, j, stream), rule in SPLIT_RULES.items():
        n0 = r_lo + (i - r_lo) % 3
        p0 = p_lo + (j - p_lo) % 3
        rows, cols = len(range(n0, n_hi + 1, 3)), len(range(p0, p_hi + 1, 3))
        if not rows or not cols:
            continue
        m0, q0 = n0 // 3 - m_lo, p0 // 3 - q_lo

        def factor(sym: str, a: int, b: int, e: int) -> np.ndarray:
            return below[sym, e][m0 + a:m0 + a + rows, q0 + b:q0 + b + cols]

        # Row k of this slice has m = n0 // 3 + k: negate the rows of odd m.
        out[stream][n0 - n_lo::3, p0 - p_lo::3] = _rule_sum(rule, factor, (n0 // 3 + 1) % 2)
    return out


def tables(n_lo: int, n_hi: int, p_lo: int, p_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Gamma and delta mod 3 over rows n_lo..n_hi and columns p_lo..p_hi.

    Returns two int8 arrays indexed [n - n_lo, p - p_lo], in the order of
    KINDS.  Rows n >= 2 come from the rectangle one level down, rows
    n_lo // 3 - 1 .. n_hi // 3 + 2 by columns p_lo // 3 .. p_hi // 3 + 1:
    each entry (i, j, stream) of SPLIT_RULES fills the rows n = i and the
    columns p = j mod 3 at once, every factor a contiguous slice of that
    rectangle.  Anchor rows come from one numpy pass over the columns;
    the other rows of rectangles with all rows at most 3 or with very
    few cells are read cell by cell.  Gamma has no row -1;
    its row there holds 0.  A rectangle of more than
    DEFAULT_GRID_CELL_CAP cells is refused before any cell is computed.
    """
    if n_hi < n_lo or p_hi < p_lo:
        raise ValueError("empty table range")
    cells = (n_hi - n_lo + 1) * (p_hi - p_lo + 1)
    if cells > DEFAULT_GRID_CELL_CAP:
        raise ValueError(f"table of {cells} cells exceeds the cap {DEFAULT_GRID_CELL_CAP}")
    if n_lo < -1 or p_lo < 0:
        raise ValueError("need n >= -1 and p >= 0")
    _check_digits(n_hi, p_hi)
    out = _level(n_lo, n_hi, p_lo, p_hi)
    return out["G"], out["D"]


def witness_lattices(witnesses: dict[str, Sequence[tuple[int, int, int]]],
                     window: int) -> dict[str, np.ndarray]:
    """Each stream kind on the lattice of each of its witnesses (m, r, s).

    witnesses maps kinds to witness lists.  For each kind the result is
    an int8 array with one row per witness and one column per point
    (n, p), n and p in 0..window, n-major: the stream at
    (3**m * n + r, 3**m * p + s).  A witness needs 0 <= r, s < 3**m.

    Every point of a lattice with m >= 1 has the residues (r mod 3,
    s mod 3), so one entry of SPLIT_RULES rewrites the whole lattice
    from the lattices (m - 1, r // 3 + a, s // 3 + b), and its sign
    (-1)**(3**(m - 1) * n + r // 3 + shift) is a parity in n.  Row
    n = 0 of a lattice with r <= 1 is an anchor row, read rather than
    split.  A lattice read at level k has r in -1 .. 3**k + 2 and s in
    0 .. 3**k + 1, so at level 0 every lattice is a slice of the one
    tables() rectangle over rows -1 .. window + 3 and columns
    0 .. window + 3.

    The lattices each level needs are collected top down, shared
    between the kinds, and each level is then built bottom up as one
    (lattices, window + 1, window + 1) stack: one _rule_sum per entry of
    SPLIT_RULES and parity of r // 3, its factors fancy-indexed out of
    the stack one level down.  The stacks live for this call only.
    """
    if window < 0:
        raise ValueError(f"need window >= 0, got {window}")
    streams = {kind: "GD"[_kind_index(kind)] for kind in witnesses}
    for triples in witnesses.values():
        for m, r, s in triples:
            if m < 0 or not (0 <= r < 3 ** m and 0 <= s < 3 ** m):
                raise ValueError(f"witness ({m},{r},{s}) needs 0 <= r, s < 3**m")
            _check_digits(3 ** m * window + r, 3 ** m * window + s)
    began = time.perf_counter()
    size = window + 1
    # The lattices (stream, r, s) each level m needs, collected top down:
    # level m - 1 holds the factors of the rules of level m.
    top = max((m for triples in witnesses.values() for m, _, _ in triples), default=0)
    levels: list[set[tuple[str, int, int]]] = [set() for _ in range(top + 1)]
    for kind, triples in witnesses.items():
        for m, r, s in triples:
            levels[m].add((streams[kind], r, s))
    for m in range(top, 0, -1):
        for sym, r, s in levels[m]:
            for _, factors in SPLIT_RULES[r % 3, s % 3, sym]:
                levels[m - 1].update((f_sym, r // 3 + a, s // 3 + b)
                                     for f_sym, a, b, _ in factors)
    # Built bottom up, each level one int8 stack (lattices, n, p) with an
    # index by key.
    base = dict(zip("GD", tables(-1, window + 3, 0, window + 3)))
    keys = sorted(levels[0])
    stack = np.array([base[sym][r + 1:r + 1 + size, s:s + size] for sym, r, s in keys],
                     dtype=np.int8).reshape(len(keys), size, size)
    built = [(dict(zip(keys, range(len(keys)))), stack)]
    for m in range(1, top + 1):
        index_below, below = built[-1]
        powers = {1: below, 2: below * below % 3}
        # Lattices of one rule whose r // 3 has one parity share every
        # sign, so each such group is one _rule_sum over a stack.
        groups: dict[tuple[int, int, str, int], list[tuple[str, int, int]]] = {}
        for key in sorted(levels[m]):
            sym, r, s = key
            groups.setdefault((r % 3, s % 3, sym, r // 3 % 2), []).append(key)
        index: dict[tuple[str, int, int], int] = {}
        stack = np.empty((len(levels[m]), size, size), dtype=np.int8)
        for (i, j, sym, odd), group in groups.items():

            def factor(f_sym: str, a: int, b: int, e: int) -> np.ndarray:
                return powers[e][[index_below[f_sym, r // 3 + a, s // 3 + b]
                                  for _, r, s in group]]

            # Row n has the sign of (-1)**(n + r // 3).
            lo = len(index)
            stack[lo:lo + len(group)] = _rule_sum(SPLIT_RULES[i, j, sym], factor, 1 - odd)
            index.update(zip(group, range(lo, lo + len(group))))
        # Row n = 0 of a lattice with r <= 1 is an anchor row.
        anchors: dict[int, dict[str, np.ndarray]] = {}
        for (sym, r, s), k in index.items():
            if r <= 1:
                if s not in anchors:
                    anchors[s] = _anchor_rows(s, size, 3 ** m)
                stack[k, 0] = anchors[s][sym][r + 1]
        built.append((index, stack))

    out = {kind: np.array([built[m][1][built[m][0][streams[kind], r, s]] for m, r, s in triples],
                          dtype=np.int8).reshape(len(triples), size * size)
           for kind, triples in witnesses.items()}
    # Imported here, as in kernel: only a sweep writes a record.
    import logging
    logging.getLogger(__name__).debug(
        "witness lattices at window %d: %d built, %.3f s",
        window, sum(map(len, levels)), time.perf_counter() - began)
    return out


def grid(n_lo: int, n_hi: int, p_lo: int, p_hi: int, kind: str = "gamma") -> list[list[int]]:
    """Rectangular table of mod-3 values, rows n_lo..n_hi, columns p_lo..p_hi."""
    index = _kind_index(kind)
    if kind == "gamma" and n_lo < 0:
        raise ValueError("need n >= 0 and p >= 0")
    return tables(n_lo, n_hi, p_lo, p_hi)[index].tolist()


def minimal_period(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """The shortest prefix of coeffs whose repetition is coeffs."""
    n = len(coeffs)
    for t in range(1, n + 1):
        if n % t == 0 and coeffs == coeffs[:t] * (n // t):
            return coeffs[:t]
    raise AssertionError("unreachable: the full tuple is its own period")


def column_window(kind: str, p: int, first: int, k_hint: int = 0) -> tuple[list[int], int]:
    """Column p of a table kind read over three candidate periods from n = first.

    The candidate period is 12 * 3**k, k the least exponent with
    p <= 3**(k+1), raised to k_hint if the caller asks for a wider
    window.  Returns the window and the candidate once the window
    repeats with it; failure there would falsify the periodicity bound
    and raises.  A window of more than DEFAULT_GRID_CELL_CAP cells is
    refused before any cell is computed, so without k_hint the largest
    p scanned is 3**11.
    """
    index = _kind_index(kind)
    k = k_hint
    while p > 3 ** (k + 1):
        k += 1
    candidate = 12 * 3 ** k
    if 3 * candidate > DEFAULT_GRID_CELL_CAP:
        raise ValueError(
            f"column p = {p} needs a scan of {3 * candidate} cells, over the "
            f"cap {DEFAULT_GRID_CELL_CAP}")
    window = tables(first, first + 3 * candidate - 1, p, p)[index][:, 0]
    if not np.array_equal(window[:2 * candidate], window[candidate:]):
        raise RuntimeError(
            f"column {p} is not {candidate}-periodic on the scanned window")
    return window.tolist(), candidate


def column_period(p: int, k_hint: int = 0, kind: str = "gamma") -> int:
    """Minimal period of the column sequence n -> value(n, p), n >= 1.

    The candidate period from column_window is confirmed on three full
    periods first; the returned minimal period always divides it.
    """
    if p < 0:
        raise ValueError("need p >= 0")
    if k_hint < 0:
        raise ValueError(f"need k_hint >= 0, got {k_hint}")
    window, candidate = column_window(kind, p, 1, k_hint)
    return len(minimal_period(tuple(window[:candidate])))


def clear_caches() -> None:
    """Drop both memo tables (mainly for benchmarks and leak hunting)."""
    gamma_mod3.cache_clear()
    delta_mod3.cache_clear()
