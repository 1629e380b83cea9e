"""Exact Hankel matrices of c and d, and brute-force determinant oracles.

Everything here is computed directly from matrix entries: fraction-free
elimination over the integers for exact determinants, whose one step
runs on int64 with exact division modulo 2**64 while a bound proves the
quotients fit and on Python ints otherwise, and Gaussian elimination
over GF(3) for the fast residue path.  Each comes one matrix at a time
(det_exact, det_mod3) or as every leading minor of a whole stack at
once (minors_exact_stack, minors_mod3_stack).  No recurrence from the
rest of the package is used, which is what makes these functions usable
as oracles against those recurrences.

Terms come from sequences.cantor_run and diff_run, while the engine
reads c only through sequences.cantor_term, so the oracle sweep
cross-checks the two generators of c as well as the recurrences.

Matrices are 2-D int64 numpy arrays; the determinants accept any square
array-like of integers, however large, up to order MAX_HANKEL_ORDER,
and leave it unchanged.  The GF(3) oracles reduce every entry mod 3 exactly
before they narrow it to int16.  det_mod3 then packs each row into two
Python ints, one bit per entry, and eliminates on them; minors_mod3_stack
eliminates on int16 with lazy reduction, each step reducing only its
pivot column and row.  Every oracle refuses a non-integer entry, and an
order over the cap before any work; the stack oracles also refuse a
stack of more than MAX_STACK_ENTRIES entries.

Matrix families, with u one of c, d and all indices starting at 1:

* hankel_matrix(kind, p, n): the n x n matrix (u_{p+i+j-2}), kind
  "gamma" for u = c and "delta" for u = d.
* hankel_stack(kind, p, n, count): the count matrices hankel_matrix(kind,
  p + o, n), 0 <= o < count, as one read-only (count, n, n) view of
  their terms, the input the two stack oracles eliminate in one pass.

verify_structure also reads the stride-3 matrices (u_{q+3(i+j-2)}), the
blocks of the mod-3 block form it checks, from runs of c and d that
start at its offset p and of c near p // 3, so its memory is bounded in
n alone, whatever p is.
"""

from __future__ import annotations

import functools
import numbers
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .sequences import MAX_RUN_COUNT, cantor_run, diff_run

# Largest order of any matrix built or eliminated here, a bound on the
# cubic elimination.  At order 500 on a 2-core VM (Python 3.11, numpy
# 2.4), at offsets up to 27, det_mod3 takes 0.02-0.03 s on Hankel
# matrices (0.04-0.05 s on dense residues) and det_exact 1.1-2.2 s, most
# of the latter on Python ints: the minors themselves outgrow int64, and
# 303 to 372 of the 499 steps run there.  The package's own callers
# reach it: verify --oracle admits orders up to this cap, and
# verify_pade_error(200) eliminates order 201.
#
# It also bounds minors_mod3_stack's int16 blocks.  They start from
# residues 0..2 and reduce only the pivot column and row at each step,
# so a step moves an entry of the trailing block by at most a product of
# three residues, 2 * 2 * 2 = 8.  An order-n matrix takes n - 1 such
# steps, and 2 + 8 * 499 < 2**15.
MAX_HANKEL_ORDER = 500

# Most entries, s * n * n, of one stack minors_mod3_stack or
# minors_exact_stack eliminates; a larger one is refused before any entry
# is read.  The package's own stacks stay far below it: checks eliminates
# stacks of at most max(checks.STACK_ENTRIES, 500**2) = 250,000 entries,
# and kernel.evaluate_states (w + 3) * (w + 2)**2 at window w, 127,500 at
# w = 48, the largest window the cell cap admits for one closure.  The
# largest stack the tests eliminate, 6 x 500 x 500 = 1,500,000 entries,
# fits with a third to spare.  At the cap, 8 x 500 x 500 on a 2-core VM,
# the GF(3) pass takes about 0.3 s, 6 MB traced, and the exact pass 26.5 s
# at 82 MB peak RSS, on Python ints; a (10**5, 100, 100) stack took 5.5 s
# and 3.0 GB over GF(3) before this cap.
MAX_STACK_ENTRIES = 2_000_000

_RUNS = {"gamma": cantor_run, "delta": diff_run}


def _hankel(kind: str, first: int, step: int, n: int, count: int = 1,
            runs: Mapping[str, np.ndarray] | None = None) -> np.ndarray:
    """The count n x n matrices (u_{first+step(o+i+j)}), 0 <= o < count.

    Consecutive matrices share all but two of their terms, so the
    count + 2n - 2 distinct terms are read once, every step-th term of
    one run, and the result is a read-only (count, n, n) view of them:
    entry (o, i, j) reads term o + i + j.  runs, if given, maps each kind
    to an int64 run of its terms that reaches every term read, and the
    view is then one of that run, with first counted from its start.
    More than sequences.MAX_RUN_COUNT terms are refused before any is read.
    """
    if kind not in _RUNS:
        raise ValueError(f"unknown matrix kind {kind!r}")
    if first < 0 or n < 0 or count < 0:
        raise ValueError("offset, order and count must be nonnegative")
    _check_order(n)
    size = max(count + 2 * n - 2, 0)
    if size > MAX_RUN_COUNT:
        raise ValueError(f"count + 2n - 2 = {size} terms is over the cap of {MAX_RUN_COUNT}")
    if runs is None:
        terms = _RUNS[kind](first, step * size)[::step].astype(np.int64)
        first, step = 0, 1  # terms holds just the terms read, in order
    else:
        terms = runs[kind]
    # Built directly: as_strided costs several times as much a call.
    view = np.ndarray((count, n, n), terms.dtype, terms, offset=first * terms.itemsize,
                      strides=(step * terms.itemsize,) * 3)
    view.flags.writeable = False
    return view


def hankel_matrix(kind: str, p: int, n: int) -> np.ndarray:
    """Order-n Hankel matrix of c (kind "gamma") or d ("delta") at offset p.

    n = 0 yields the empty matrix, whose determinant is 1.
    """
    return _hankel(kind, p, 1, n)[0].copy()


def hankel_stack(kind: str, p: int, n: int, count: int) -> np.ndarray:
    """The order-n Hankel matrices at offsets p, p + 1, ..., p + count - 1.

    A read-only (count, n, n) int64 view of their count + 2n - 2 terms,
    so it costs no more memory than those terms; minors_exact_stack and
    minors_mod3_stack eliminate it in one pass.
    """
    return _hankel(kind, p, 1, n, count)


def _check_order(n: int) -> None:
    if n > MAX_HANKEL_ORDER:
        raise ValueError(f"order n = {n} is over the cap of {MAX_HANKEL_ORDER}")


def _square(m, ndim: int = 2) -> np.ndarray:
    """m as an array of ndim axes, the last two equal, with integer
    entries, of order at most MAX_HANKEL_ORDER."""
    a = np.asarray(m)
    if a.ndim != ndim or a.shape[-1] != a.shape[-2]:
        what = "square matrix" if ndim == 2 else "stack of square matrices"
        raise ValueError(f"expected a {what}, got shape {a.shape}")
    _check_order(a.shape[-1])
    # One matrix within the order cap has at most 500**2 entries, under it.
    if a.size > MAX_STACK_ENTRIES:
        raise ValueError(f"a stack of {a.size} entries is over the cap of {MAX_STACK_ENTRIES}")
    if a.dtype == object:
        # Python ints too large for int64, or anything.  Each integer
        # becomes a Python int, so no numpy scalar among them can wrap.
        if not all(isinstance(x, numbers.Integral) for x in a.flat):
            raise ValueError("expected integer entries, got a non-integer object")
        return np.array([int(x) for x in a.flat], dtype=object).reshape(a.shape)
    if a.size and a.dtype.kind not in "biu":
        raise ValueError(f"expected integer entries, got {a.dtype} entries")
    return a


def _residues(m, ndim: int) -> np.ndarray:
    """A fresh int16 copy of m reduced mod 3 (see MAX_HANKEL_ORDER).

    The remainder is taken in m's own integer type (Python ints for an
    object array), and only the residues 0, 1, 2 are narrowed: 200
    narrowed to int8 first would wrap to -56, which has another residue.
    """
    a = _square(m, ndim)
    return np.remainder(a, 3, out=np.empty(a.shape, np.int16), casting="unsafe")


def _peak(block: np.ndarray) -> int:
    """The largest |entry| of an int64 or object block, as a Python int.

    Exact at -2**63 too, whose negation does not fit int64.
    """
    return max(int(block.max()), -int(block.min()))


@functools.cache
def _logger():
    # Imported here, as in engine, kernel and pade: logging adds to
    # importing the package.  Cached, as getLogger takes a lock and
    # would cost about 1 us of a 30 us order-5 elimination.
    import logging
    return logging.getLogger(__name__)


def _two_adic(prev: int) -> tuple[int, int, int]:
    """(odd, e, inverse) with prev = 2**e * odd, odd odd, and inverse the
    int64 that is odd's inverse modulo 2**64.

    An int64 step whose products wrap leaves q * prev modulo 2**64 for
    the quotient q.  Times inverse that is q * 2**e modulo 2**64, which is
    q * 2**e itself while |q| * 2**e < 2**63, and a shift right by e
    leaves q (Jebelean's exact division).  For e >= 63 only q = 0 passes.
    """
    e = (prev & -prev).bit_length() - 1
    odd = prev >> e
    inverse = pow(odd, -1, 1 << 64) if odd != 1 else 1
    return odd, e, inverse - (inverse >> 63 << 64)


def _admit(block: np.ndarray, peak: int, top: int, least_odd: int, narrow: bool,
           wide: bool) -> tuple[np.ndarray, int, bool]:
    """(block, bound, wide) for the next Bareiss step: wide if it runs on
    Python ints, and block cast to match.

    With peak a bound on |entry| and top on |pivot|, each quotient times
    its previous pivot is at most bound = peak * (top + peak), and the
    int64 step is taken while bound < least_odd * 2**63, least_odd the
    least |odd| of _two_adic over the previous pivots.  Only when that
    fails, or the block holds Python ints, is peak measured afresh, as a
    reduction at every step would cost more than the step itself at small
    orders; the block returns to int64 once the measured peak passes, as
    the minors may shrink again.  A block that may not fit int64 (not
    narrow) stays on Python ints.  After a step peak is bound // the
    least |prev|.
    """
    limit = least_odd << 63
    bound = peak * (top + peak)
    if wide or bound >= limit:
        if narrow:  # peak >= top: at 2 * top**2 >= limit no peak passes
            peak = _peak(block) if 2 * top * top < limit else top
            bound = peak * (top + peak)
        if wide == (narrow and peak < 1 << 63 and bound < limit):
            wide = not wide
            block = block.astype(object if wide else np.int64)
    return block, bound, wide


def det_exact(m) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination.

    Each step replaces the trailing block by the next, one row and one
    column smaller: new = block[1:, 1:] * pivot - block[1:, 0] (x)
    block[0, 1:], divided exactly by the previous pivot prev.  Every
    entry of every block is a minor of the input, so the divisions are
    exact and sizes stay polynomially bounded.

    A step runs on int64 by _two_adic's exact division while _admit
    admits it, and on Python ints otherwise; object and uint64 input run
    on Python ints throughout.  For the order-150 Hankel matrices of c
    and d at offsets below 243, at most 48 of the 149 steps run on
    Python ints.  One DEBUG record per call counts each kind of step.
    """
    a = _square(m)
    if len(a) == 0:
        return 1
    narrow = np.can_cast(a.dtype, np.int64)  # its blocks may be int64
    wide = not narrow  # the block holds Python ints
    block = a.astype(object if wide else np.int64)
    peak = _peak(block) if narrow else 0
    python_steps = 0
    sign = 1
    prev = 1
    while len(block) > 1:
        if block[0, 0] == 0:
            below = np.flatnonzero(block[:, 0])
            if below.size == 0:
                sign = 0  # a zero column: the determinant is 0
                break
            i = int(below[0])
            block[[0, i]] = block[[i, 0]]
            sign = -sign
        pivot = int(block[0, 0])
        odd, e, inverse = _two_adic(prev)
        block, bound, wide = _admit(block, peak, abs(pivot), abs(odd), narrow, wide)
        out = block[1:, 1:] * pivot
        out -= block[1:, :1] * block[:1, 1:]
        if wide:
            python_steps += 1
            out //= prev
        else:
            if odd != 1:
                out *= inverse
            if e:
                out >>= e
        block = out
        peak = bound // abs(prev)
        prev = pivot
    steps = len(a) - len(block)
    _logger().debug("det_exact order %d: %d int64, %d Python-int steps",
                    len(a), steps - python_steps, python_steps)
    return sign * int(block[0, 0])


def det_mod3(m) -> int:
    """Determinant mod 3 by Gaussian elimination over GF(3) on bit-sliced
    rows (Boothby and Bradshaw).

    Each row of residues (see _residues) is held as two Python ints, its
    slices: bit j of the first is set where entry j is 1, and of the
    second where it is 2.  At step k the first row at or below k with
    bit k set is the pivot row, swapped up with a sign flip.  A pivot of
    2 is folded into the sign by swapping the pivot row's slices, which
    negates the row.  Every later row with bit k set then takes away the
    pivot row (an entry of 1) or adds it (an entry of 2, as -2 is 1 mod
    3), one GF(3) sum of seven bitwise operations over the whole row.
    """
    a = _residues(m, 2)
    n = len(a)
    packed = np.packbits(np.concatenate([a == 1, a == 2]), axis=1, bitorder="little")
    flat, width = packed.tobytes(), packed.shape[1]
    rows = [int.from_bytes(flat[i * width:(i + 1) * width], "little") for i in range(2 * n)]
    ones, twos = rows[:n], rows[n:]
    det = 1
    for k in range(n):
        bit = 1 << k
        for i in range(k, n):
            if (ones[i] | twos[i]) & bit:
                break
        else:
            return 0  # a zero column
        pu, pv = ones[i], twos[i]
        if i != k:
            # Row k moves to row i; rows k + 1 .. i, it among them, have
            # no bit k, so the sums start after row i.
            ones[i], twos[i], det = ones[k], twos[k], -det
        if pv & bit:
            pu, pv, det = pv, pu, -det
        for j in range(i + 1, n):
            u, v = ones[j], twos[j]
            if u & bit:  # row j minus the pivot row
                t = (u | pu) ^ (v | pv)
                ones[j], twos[j] = (v | pu) ^ t, (u | pv) ^ t
            elif v & bit:  # row j plus the pivot row
                t = (u | pv) ^ (v | pu)
                ones[j], twos[j] = (v | pv) ^ t, (u | pu) ^ t
    return det % 3


def minors_mod3_stack(a) -> np.ndarray:
    """Leading minors mod 3 of an (s, n, n) stack, as an (s, n) int8 array.

    Entry (t, k - 1) is det(a[t][:k, :k]) mod 3, from one lazily reduced
    pass over GF(3).  In each column, a matrix's topmost unused row with
    a nonzero residue is its pivot and clears the later rows (a unit
    lower-triangular L); adding the earlier pivot columns, one nonzero
    entry each, zeroes the used rows (a unit upper-triangular U).  So
    L a U is a scaled partial permutation with a's leading minors: that
    of order k is nonzero exactly when columns 0..k-1 have pivots in
    rows 0..k-1, and then (-1) ** (inversions + pivots equal to 2).
    """
    a = _residues(a, 3)
    s, n = a.shape[:2]
    out = np.zeros((s, n), np.int8)
    live = np.arange(s)  # the input matrix held in each row of a
    pivots = np.zeros((s, n), np.intp)  # the pivot row of each column so far
    det = np.ones(s, np.int16)  # the sign times the product of the pivots
    for k in range(n):
        col = a[:, :, 0] % 3  # a keeps only columns k and on
        top = (col != 0).argmax(axis=1)
        pivot = col[np.arange(len(top)), top]
        keep = np.flatnonzero(pivot)
        if keep.size == 0:
            return out
        if keep.size < len(pivot):  # every later minor of these is 0
            a, live, pivots, det = a[keep], live[keep], pivots[keep], det[keep]
            col, top, pivot = col[keep], top[keep], pivot[keep]
        pivots[:, k] = top
        # Earlier pivot rows below this one are inversions; -1 is 2 mod 3.
        inversions = (pivots[:, :k] > top[:, None]).sum(axis=1)
        det = det * pivot * (1 + inversions % 2) % 3
        out[live, k] = np.where(pivots[:, :k + 1].max(axis=1) <= k, det, 0)
        # Rows above the highest pivot have no residue in column k.  The
        # pivot row's factor, pivot * pivot = 1 mod 3, leaves it zero (U).
        # At most 2 * 2 * 2 = 8 off each entry, in int8: MAX_HANKEL_ORDER.
        lo = top.min()
        row = (a[np.arange(len(top)), top, 1:] % 3).astype(np.int8)
        factor = (col[:, lo:] * pivot[:, None]).astype(np.int8)
        a = a[:, :, 1:]
        a[:, lo:] -= factor[:, :, None] * row[:, None]
    return out


def minors_exact_stack(a) -> np.ndarray:
    """Exact leading minors of an (s, n, n) stack, as an (s, n) array of
    Python ints.

    Entry (t, k - 1) is det(a[t][:k, :k]), from one fraction-free
    (Bareiss) pass over the stack.  In each column, a matrix's topmost
    unused row with a nonzero entry is its pivot, and every row takes the
    step (row * pivot - entry * pivot row) // previous pivot, which
    leaves the pivot row and the rows used before it zero.  With the rows
    taken in pivot order each entry stays a minor of the input, so by
    Sylvester's identity every division is exact, and the pivot of column
    k is the minor on the pivot rows of columns 0..k.  The leading minor
    of order k + 1 is nonzero exactly when those rows are 0..k, and then
    it is (-1) ** inversions times the pivot.  A matrix with no pivot in
    a column has every later minor 0 and leaves the pass.

    Each step is det_exact's, admitted by one _admit bound over the whole
    stack (the largest |pivot|, the least odd part of a previous pivot),
    and one DEBUG record per call counts each kind of step.
    """
    a = _square(a, 3)
    s, n = a.shape[:2]
    out = np.zeros((s, n), object)
    if a.size == 0:
        return out
    narrow = np.can_cast(a.dtype, np.int64)  # its stacks may be int64
    wide = not narrow  # the stack holds Python ints
    a = a.astype(object if wide else np.int64)
    peak = _peak(a) if narrow else 0
    python_steps = 0
    live = np.arange(s)  # the input matrix held in each row of a
    pivots = np.zeros((s, n), np.intp)  # the pivot row of each column so far
    flip = np.zeros(s, bool)  # the parity of the pivot rows' inversions
    prev = np.ones(s, object)
    for k in range(n):
        col = a[:, :, 0]  # a keeps only columns k and on
        top = (col != 0).argmax(axis=1)
        pivot = col[np.arange(len(top)), top]
        keep = np.flatnonzero(pivot)
        if keep.size == 0:
            break
        if keep.size < len(pivot):  # every later minor of these is 0
            a, live, pivots, flip, prev = a[keep], live[keep], pivots[keep], flip[keep], prev[keep]
            top, pivot = top[keep], pivot[keep]
        pivots[:, k] = top
        flip ^= (pivots[:, :k] > top[:, None]).sum(axis=1) % 2 == 1
        leading = pivots[:, :k + 1].max(axis=1) <= k
        out[live, k] = np.where(leading, np.where(flip, -pivot, pivot), 0)
        if k + 1 == n:
            break
        odd, e, inverse = zip(*map(_two_adic, prev.tolist()))
        a, bound, wide = _admit(a, peak, _peak(pivot), min(map(abs, odd)), narrow, wide)
        col, row = a[:, :, 0], a[np.arange(len(top)), top]  # row[:, 0] is pivot
        a = a[:, :, 1:]
        a *= row[:, :1, None]
        a -= col[:, :, None] * row[:, None, 1:]
        if wide:
            python_steps += 1
            a //= prev[:, None, None]
        else:
            a *= np.array(inverse)[:, None, None]
            a >>= np.array(e)[:, None, None]
        peak = bound // np.abs(prev).min()
        prev = row[:, 0].astype(object)
    _logger().debug("minors_exact_stack order %d: %d int64, %d Python-int steps",
                    n, k - python_steps, python_steps)
    return out


@dataclass(frozen=True)
class StructureReport:
    """Outcome of verify_structure: which identities held at (p, n)."""

    p: int
    n: int
    ok: bool
    checked: tuple[str, ...]
    failed: str | None = None


def _expected_stride3(kind: str, q: int, n: int) -> np.ndarray:
    """What the stride-3 block must equal, given how c and d split mod 3."""
    base, residue = divmod(q, 3)
    if residue == 1:
        # c_(3m+1) = 0 and d_(3m+1) = c_(m+1).
        return _hankel("gamma", base + 1, 1, n)[0] * (kind == "delta")
    # c_3m = c_(3m+2) = d_(3m+2) = c_m and d_3m = 2 c_m.
    return _hankel("gamma", base, 1, n)[0] * (2 if kind == "delta" and residue == 0 else 1)


def verify_structure(p: int, n: int) -> StructureReport:
    """Check the structural identities behind the index-splitting step.

    At the given (p, n) this verifies, exactly over the integers:

    * the entrywise split d-Hankel = c-Hankel at p plus c-Hankel at p+2;
    * the block form of H = H_{3n+r}^p (r = 0, 1, 2, both families):
      with P the permutation that sorts rows and columns by their 0-based
      index mod 3, block (I, J) of P^t H P is H[I::3, J::3], which must
      be the stride-3 matrix at offset p + I + J cut to n + [I < r] rows
      and n + [J < r] columns;
    * that each stride-3 block collapses to a plain Hankel matrix (or a
      scalar multiple, or zero) as dictated by the splitting of c and d;
    * for n >= 2, the two-by-two block determinant identity
      det [[G, G'], [G', -G]] = (-1)^n |G_n||D_n| - (-1)^n |G_{n+1}||D_{n-1}|
      with G = c-Hankel at p, G' = c-Hankel at p+1, D = d-Hankel at p.

    Every matrix at offset p or after is a view of one run of c and one
    of d from offset p, 6n + 5 terms each, and the collapsed blocks read
    c from near offset p // 3, so the memory taken does not grow with p.
    Checks run in a fixed order; the first failure is named and stops
    the run.
    """
    if p < 0 or n < 1:
        raise ValueError("need p >= 0 and n >= 1")
    # The farthest term read is u_(p + 6n + 4), in the stride-3 blocks at
    # offset p + 4 and order n + 1.
    runs = {kind: run(p, 6 * n + 5).astype(np.int64) for kind, run in _RUNS.items()}
    checked: list[str] = []

    def view(kind: str, q: int, order: int, step: int = 1) -> np.ndarray:
        return _hankel(kind, q - p, step, order, runs=runs)[0]

    def fail(name: str) -> StructureReport:
        return StructureReport(p, n, False, tuple(checked), name)

    name = "difference-split"
    g0 = view("gamma", p, n)
    if not np.array_equal(view("delta", p, n), g0 + view("gamma", p + 2, n)):
        return fail(name)
    checked.append(name)

    for kind in ("gamma", "delta"):
        for r in range(3):
            name = f"block-form-{kind}-r{r}"
            h = view(kind, p, 3 * n + r)
            if not all(np.array_equal(h[I::3, J::3],
                                      view(kind, p + I + J, n + 1, 3)[:n + (I < r), :n + (J < r)])
                       for I in range(3) for J in range(3)):
                return fail(name)
            checked.append(name)
        for q in range(p, p + 5):
            for order in (n, n + 1):
                name = f"stride3-collapse-{kind}-q{q}-n{order}"
                if not np.array_equal(view(kind, q, order, 3),
                                      _expected_stride3(kind, q, order)):
                    return fail(name)
                checked.append(name)

    if n >= 2:
        name = "paired-determinant-split"
        g1 = view("gamma", p + 1, n)
        paired = np.block([[g0, g1], [g1, -g0]])
        sign = (-1) ** n
        rhs = (sign * det_exact(g0) * det_exact(view("delta", p, n))
               - sign * det_exact(view("gamma", p, n + 1))
               * det_exact(view("delta", p, n - 1)))
        if det_exact(paired) != rhs:
            return fail(name)
        checked.append(name)

    return StructureReport(p, n, True, tuple(checked))
