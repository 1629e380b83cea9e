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
"""

from __future__ import annotations

from functools import lru_cache

from .sequences import cantor_term, diff_term

# Cells per call to grid() or per column scan; guards against
# accidentally huge tables.
DEFAULT_GRID_CELL_CAP = 4_000_000


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


def _split(stream: str, n: int, p: int) -> int:
    """The stream at (n, p), n >= 2, by its splitting identity mod 3.

    A term is dropped at its first zero factor, so the cells behind
    its remaining factors are never computed.
    """
    m, i = divmod(n, 3)
    q, j = divmod(p, 3)
    total = 0
    for shift, factors in SPLIT_RULES[i, j, stream]:
        term = 1 if (m + shift) % 2 == 0 else 2
        for sym, a, b, e in factors:
            value = (gamma_mod3 if sym == "G" else delta_mod3)(m + a, q + b)
            if not value:
                break
            term *= value ** e
        else:
            total += term
    return total % 3


# lru_cache makes the memo; its locking is enough for concurrent use and
# the values are pure, so racing duplicate computations are harmless.
@lru_cache(maxsize=None)
def gamma_mod3(n: int, p: int) -> int:
    """Determinant mod 3 of the order-n Hankel matrix of c at offset p."""
    if n < 0 or p < 0:
        raise ValueError("need n >= 0 and p >= 0")
    if n == 0:
        return 2 if p == 0 else 1
    if n == 1:
        return cantor_term(p)
    return _split("G", n, p)


@lru_cache(maxsize=None)
def delta_mod3(n: int, p: int) -> int:
    """Determinant mod 3 of the order-n Hankel matrix of d at offset p.

    Accepts n = -1, the boundary row the splitting identities evaluate.
    """
    if n < -1 or p < 0:
        raise ValueError("need n >= -1 and p >= 0")
    if n == -1:
        return 1 if p == 0 else 0
    if n == 0:
        return 1
    if n == 1:
        return diff_term(p) % 3
    return _split("D", n, p)


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


def _table(kind: str):
    if kind not in ("gamma", "delta"):
        raise ValueError(f"unknown matrix kind {kind!r}")
    return gamma_mod3 if kind == "gamma" else delta_mod3


def grid(n_lo: int, n_hi: int, p_lo: int, p_hi: int,
         kind: str = "gamma", max_cells: int = DEFAULT_GRID_CELL_CAP) -> list[list[int]]:
    """Rectangular table of mod-3 values, rows n_lo..n_hi, columns p_lo..p_hi."""
    if n_hi < n_lo or p_hi < p_lo:
        raise ValueError("empty grid range")
    cells = (n_hi - n_lo + 1) * (p_hi - p_lo + 1)
    if cells > max_cells:
        raise ValueError(f"grid of {cells} cells exceeds the cap {max_cells}")
    value = _table(kind)
    return [[value(n, p) for p in range(p_lo, p_hi + 1)]
            for n in range(n_lo, n_hi + 1)]


def minimal_period(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """The shortest prefix of coeffs whose repetition is coeffs."""
    n = len(coeffs)
    for t in range(1, n + 1):
        if n % t == 0 and coeffs == coeffs[:t] * (n // t):
            return coeffs[:t]
    raise AssertionError("unreachable: the full tuple is its own period")


def column_window(value, p: int, first: int, k_hint: int = 0) -> tuple[list[int], int]:
    """Column p of a table read over three candidate periods from n = first.

    The candidate period is 12 * 3**k, k the least exponent with
    p <= 3**(k+1), raised to k_hint if the caller asks for a wider
    window.  Returns the window and the candidate once the window
    repeats with it; failure there would falsify the periodicity bound
    and raises.  A window of more than DEFAULT_GRID_CELL_CAP cells is
    refused before any cell is computed, so without k_hint the largest
    p scanned is 3**11.
    """
    k = k_hint
    while p > 3 ** (k + 1):
        k += 1
    candidate = 12 * 3 ** k
    if 3 * candidate > DEFAULT_GRID_CELL_CAP:
        raise ValueError(
            f"column p = {p} needs a scan of {3 * candidate} cells, over the "
            f"cap {DEFAULT_GRID_CELL_CAP}")
    window = [value(n, p) for n in range(first, first + 3 * candidate)]
    if any(window[i] != window[i + candidate] for i in range(2 * candidate)):
        raise RuntimeError(
            f"column {p} is not {candidate}-periodic on the scanned window")
    return window, candidate


def column_period(p: int, k_hint: int = 0, kind: str = "gamma") -> int:
    """Minimal period of the column sequence n -> value(n, p), n >= 1.

    The candidate period from column_window is confirmed on three full
    periods first; the returned minimal period always divides it.
    """
    if p < 0 or k_hint < 0:
        raise ValueError("need p >= 0 and k_hint >= 0")
    window, candidate = column_window(_table(kind), p, 1, k_hint)
    return len(minimal_period(tuple(window[:candidate])))


def clear_caches() -> None:
    """Drop both memo tables (mainly for benchmarks and leak hunting)."""
    gamma_mod3.cache_clear()
    delta_mod3.cache_clear()
