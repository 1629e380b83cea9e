"""Slow paths that the tests hold production code to.

Each function here is an earlier, simpler derivation of something
src/ now computes faster or differently; no production path calls
them.  Import them from a test module as ``from slow_paths import ...``
(pytest puts this directory on sys.path).
"""

from __future__ import annotations

import importlib
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from math import lcm

import numpy as np

from cantor_hankel import cli, engine, hankel, kernel, sequences
from cantor_hankel.hankel import MAX_HANKEL_ORDER, _square, det_exact
from cantor_hankel.kernel import (_DIGIT_PAIRS, _G_BITS, _GENERATORS, _LOW, _ONE, _WIDTH,
                                  Packed, _mono_product, _reduce, _split_generator)
from cantor_hankel.pade import ApproximationExponent, PadeApproximant, PadeErrorReport
from cantor_hankel.sequences import cantor_term, diff_term

# The module itself: the package rebinds the name pade to the function.
pade_module = importlib.import_module("cantor_hankel.pade")


@cache
def split_cell(stream: str, n: int, p: int) -> int:
    """The stream "G" (gamma) or "D" (delta) mod 3 at (n, p) by the
    splitting identities alone: rows n <= 1 from engine._anchor, the
    others through engine.split_value over SPLIT_RULES, memoised for the
    whole test process.  It never walks the minimal automata that the
    cells walk, so the tests can hold those to it."""
    if n <= 1:
        return engine._anchor(stream, n, p)
    return engine.split_value(engine.SPLIT_RULES[n % 3, p % 3, stream], n, p, _SPLIT_READS) % 3


_SPLIT_READS = {stream: partial(split_cell, stream) for stream in "GD"}


def split_value_calls(monkeypatch) -> list[tuple]:
    """The list of engine.split_value calls made from here on, one entry
    each: the cells that tables() computes one by one, each stored once
    in the memo of its call."""
    calls, real = [], engine.split_value
    monkeypatch.setattr(engine, "split_value", lambda *args: calls.append(args) or real(*args))
    return calls


def generator_value(gen: kernel.Generator, n: int, p: int) -> int:
    """One generator S[a,b]J at (n, p), read through split_cell."""
    sym, a, b = gen
    if sym == "F":
        return 1 if (n + a) % 2 == 0 else 2
    if sym == "G" and n + a < 0:
        # The recursion's anchor holds a placeholder 0 there.
        raise ValueError("need n >= 0 and p >= 0: gamma has no row -1")
    return split_cell(sym, n + a, p + b)


def _parity(x: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each 32-bit entry, by xor folding."""
    for shift in (16, 8, 4, 2, 1):
        x = x ^ (x >> shift)
    return x & 1


def evaluate_states_at_points(states: Sequence[kernel.KernelExpr],
                              points: Sequence[tuple[int, int]]) -> np.ndarray:
    """Values mod 3 of every state at every point (n, p), as an int8
    array with one row per state and one column per point.

    The per-point evaluator that kernel.evaluate_states replaced: each
    generator that occurs in some state is read through split_cell once
    per point, then every monomial is evaluated on the packed masks, 0
    where one of its generators is 0, else its coefficient times 2 to
    the parity of its first powers equal to 2.
    """
    owner = np.repeat(np.arange(len(states)), [len(s.poly) for s in states])
    keys = [key for s in states for key, _ in s.poly]
    coeffs = np.array([c for s in states for _, c in s.poly], dtype=np.int8)
    low = np.array([key & kernel._LOW for key in keys], dtype=np.uint32)
    present = low | np.array([key >> kernel._WIDTH for key in keys], dtype=np.uint32)
    occurring = int(np.bitwise_or.reduce(present))
    used = [(1 << k, gen) for k, gen in enumerate(kernel._GENERATORS) if occurring >> k & 1]
    out = np.empty((len(states), len(points)), dtype=np.int8)
    for col, (n, p) in enumerate(points):
        zero = neg = 0
        for bit, gen in used:
            value = generator_value(gen, n, p)
            if value == 0:
                zero |= bit
            elif value == 2:
                neg |= bit
        terms = np.where(present & zero, 0, coeffs * (1 + _parity(low & neg)))
        out[:, col] = np.bincount(owner, weights=terms, minlength=len(states)) % 3
    return out


def _poly_mul(p: Packed, q: Packed) -> Packed:
    counter: dict[int, int] = {}
    for x, c in p:
        for y, d in q:
            m = _mono_product(x, y)
            counter[m] = counter.get(m, 0) + c * d
    return _reduce(counter)


class _DigitStep:
    """The nine digit steps on packed polynomials, taken together.

    A digit step is a ring homomorphism, so the image of a monomial is
    the product of the images of its generators.  _images(key) gives the
    nine images of a monomial at once, as the products of the images of
    its G part and of its D/F part.  A part's images are those of the
    part without its lowest bit times those of that bit: a generator's,
    read off _split_generator, or their squares.  Parts and monomials are
    memoised as long as this object.
    """

    def __init__(self) -> None:
        self._parts: dict[int, tuple[Packed, ...]] = {0: (_ONE,) * len(_DIGIT_PAIRS)}
        self._monomials: dict[int, tuple[Packed, ...]] = {}

    def _part(self, key: int) -> tuple[Packed, ...]:
        images = self._parts.get(key)
        if images is None:
            bit = key & -key
            if bit != key:
                images = tuple(map(_poly_mul, self._part(key ^ bit), self._part(bit)))
            elif bit <= _LOW:
                gen = _GENERATORS[bit.bit_length() - 1]
                images = tuple(_split_generator(i, j, gen) for i, j in _DIGIT_PAIRS)
            else:
                images = tuple(_poly_mul(x, x) for x in self._part(bit >> _WIDTH))
            self._parts[key] = images
        return images

    def _images(self, key: int) -> tuple[Packed, ...]:
        images = self._monomials.get(key)
        if images is None:
            images = tuple(map(_poly_mul, self._part(key & _G_BITS),
                               self._part(key & ~_G_BITS)))
            self._monomials[key] = images
        return images

    def successors(self, poly: Packed) -> list[Packed]:
        """The nine digit steps of poly, in the order of _DIGIT_PAIRS."""
        counters: list[dict[int, int]] = [{} for _ in _DIGIT_PAIRS]
        for key, coeff in poly:
            for counter, image in zip(counters, self._images(key)):
                for m, c in image:
                    counter[m] = counter.get(m, 0) + coeff * c
        return [_reduce(counter) for counter in counters]


def _closure_state_by_state(start: str,
                            successors: Callable[[Packed], list[Packed]]) -> kernel.Closure:
    """The closure from "gamma" or "delta", breadth first, one state at a
    time: successors(state) gives its nine images in the order of
    _DIGIT_PAIRS, and each witness is recorded as its state appears."""
    root = {"gamma": kernel.GAMMA, "delta": kernel.DELTA}[start].poly
    index = {root: 0}
    states, witnesses, rows = [root], [(0, 0, 0)], []
    # The loop also visits the states appended while it runs.
    for state, (m, r, s) in zip(states, witnesses):
        row = []
        for (i, j), nxt in zip(_DIGIT_PAIRS, successors(state)):
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
                witnesses.append((m + 1, r + 3 ** m * i, s + 3 ** m * j))
            row.append(index[nxt])
        rows.append(tuple(row))
    return kernel.Closure(kernel.KernelExpr(root), tuple(map(kernel.KernelExpr, states)),
                          tuple(witnesses), tuple(rows))


def closure_by_part_memo(start: str) -> kernel.Closure:
    """The closure from "gamma" or "delta" as _DigitStep builds it, one
    state at a time."""
    return _closure_state_by_state(start, _DigitStep().successors)


class MonomialChainStep:
    """The per-digit stepper _DigitStep replaced.

    Each digit pair has its own two memos: the images of one generator
    or its square, and the images of whole monomials, each built as a
    chain of products of its generators' images, one bit at a time.
    """

    def __init__(self) -> None:
        self._factors: list[dict[int, kernel.Packed]] = [{} for _ in kernel._DIGIT_PAIRS]
        self._monomials: list[dict[int, kernel.Packed]] = [{} for _ in kernel._DIGIT_PAIRS]

    def _factor(self, d: int, bit: int) -> kernel.Packed:
        image = self._factors[d].get(bit)
        if image is None:
            if bit <= kernel._LOW:
                i, j = kernel._DIGIT_PAIRS[d]
                image = kernel._split_generator(i, j, kernel._GENERATORS[bit.bit_length() - 1])
            else:
                root = self._factor(d, bit >> kernel._WIDTH)
                image = _poly_mul(root, root)
            self._factors[d][bit] = image
        return image

    def _image(self, d: int, key: int) -> kernel.Packed:
        memo = self._monomials[d]
        image = memo.get(key)
        if image is None:
            image = kernel._ONE
            rest = key
            while rest:
                bit = rest & -rest
                rest ^= bit
                image = _poly_mul(image, self._factor(d, bit))
            memo[key] = image
        return image

    def successors(self, poly: kernel.Packed) -> list[kernel.Packed]:
        """The nine digit steps of poly, one pair at a time, in the order
        of kernel._DIGIT_PAIRS."""
        images = []
        for d in range(len(kernel._DIGIT_PAIRS)):
            counter: dict[int, int] = {}
            for key, coeff in poly:
                for m, c in self._image(d, key):
                    counter[m] = counter.get(m, 0) + coeff * c
            images.append(kernel._reduce(counter))
        return images


def closure_by_monomial_chains(start: str) -> kernel.Closure:
    """The closure from "gamma" or "delta" as MonomialChainStep builds it,
    one state at a time."""
    return _closure_state_by_state(start, MonomialChainStep().successors)


def anchor_rows(p_lo: int, count: int, step: int = 1) -> dict[str, np.ndarray]:
    """Rows n = -1, 0, 1 of both streams at the columns p_lo + step * k,
    k < count, keyed "G" and "D": int8 arrays of shape (3, count).  The
    one numpy pass over the columns that filled these rows of every
    engine.tables level and of the lattices with r <= 1, before both
    split them by the identities.

    step must be a power of 3.  Then p_lo = step * q + u with u < step
    puts the digits of u below those of q + k, so c there is c_u times
    c_(q + k).  Row 1 of delta is d_p = c_p + c_(p + 2), and p + 2 splits
    the same way with a quotient at most 2 past q, so one run of c
    serves both.  Gamma has no row -1; it holds 0.
    """
    q, u = divmod(p_lo, step)
    q2, u2 = divmod(p_lo + 2, step)
    run = sequences.cantor_run(q, count + q2 - q)
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


def rule_sum(rule: engine.Rule, factor: Callable[[str, int, int, int], np.ndarray],
             odd_from: int) -> np.ndarray:
    """A splitting identity evaluated on arrays, reduced mod 3: what
    engine.tables and engine.witness_lattices evaluated each identity
    with before they gathered by engine._COMPILED_RULES.

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


def lattices_by_rule_groups(witnesses: dict[str, Sequence[tuple[int, int, int]]],
                            window: int) -> dict[str, np.ndarray]:
    """engine.witness_lattices as it built each level before the
    compiled-rule gather: the lattices each level needs collected top
    down as sets of (stream, r, s), then each level built bottom up as
    one int8 stack, one rule_sum per entry of SPLIT_RULES and parity of
    r // 3, its factors fancy-indexed out of the stack one level down.
    Row n = 0 of a lattice with r <= 1 is read from anchor_rows.
    """
    if window < 0:
        raise ValueError(f"need window >= 0, got {window}")
    streams = {kind: "GD"[engine._kind_index(kind)] for kind in witnesses}
    for triples in witnesses.values():
        for m, r, s in triples:
            if m < 0 or not (0 <= r < 3 ** m and 0 <= s < 3 ** m):
                raise ValueError(f"witness ({m},{r},{s}) needs 0 <= r, s < 3**m")
            engine._check_digits(3 ** m * window + r, 3 ** m * window + s)
    size = window + 1
    # The lattices (stream, r, s) each level m needs, collected top down:
    # level m - 1 holds the factors of the rules of level m.
    top = max((m for triples in witnesses.values() for m, _, _ in triples), default=0)
    levels: list[set[tuple[str, int, int]]] = [set() for _ in range(top + 1)]
    for kind, triples in witnesses.items():
        for m, r, s in triples:
            levels[m].add((streams[kind], r, s))
    factors_of = {key: {(f_sym, a, b) for _, factors in rule for f_sym, a, b, _ in factors}
                  for key, rule in engine.SPLIT_RULES.items()}
    for m in range(top, 0, -1):
        for sym, r, s in levels[m]:
            levels[m - 1].update((f_sym, r // 3 + a, s // 3 + b)
                                 for f_sym, a, b in factors_of[r % 3, s % 3, sym])
    # Built bottom up, each level one int8 stack (lattices, n, p) with an
    # index by key.
    base = dict(zip("GD", engine.tables(-1, window + 3, 0, window + 3)))
    keys = sorted(levels[0])
    stack = np.array([base[sym][r + 1:r + 1 + size, s:s + size] for sym, r, s in keys],
                     dtype=np.int8).reshape(len(keys), size, size)
    built = [(dict(zip(keys, range(len(keys)))), stack)]
    for m in range(1, top + 1):
        index_below, below = built[-1]
        powers = {1: below, 2: below * below % 3}
        # Lattices of one rule whose r // 3 has one parity share every
        # sign, so each such group is one rule_sum over a stack.
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
            stack[lo:lo + len(group)] = rule_sum(engine.SPLIT_RULES[i, j, sym], factor, 1 - odd)
            index.update(zip(group, range(lo, lo + len(group))))
        # Row n = 0 of a lattice with r <= 1 is an anchor row.
        anchors = cache(lambda s: anchor_rows(s, size, 3 ** m))
        for (sym, r, s), k in index.items():
            if r <= 1:
                stack[k, 0] = anchors(s)[sym][r + 1]
        built.append((index, stack))

    return {kind: np.array([built[m][1][built[m][0][streams[kind], r, s]]
                            for m, r, s in triples],
                           dtype=np.int8).reshape(len(triples), size * size)
            for kind, triples in witnesses.items()}


def lattices_by_memo(witnesses: dict[str, Sequence[tuple[int, int, int]]],
                     window: int) -> dict[str, np.ndarray]:
    """engine.witness_lattices as the per-lattice recursion it replaced.

    Each lattice (stream, m, r, s) is memoised for the call and built by
    one rule_sum over the lattices one level down that its
    SPLIT_RULES entry reads, its row n = 0 replaced by an anchor row
    when r <= 1; at m = 0 it is a slice of one engine.tables rectangle.
    """
    size = window + 1
    base = dict(zip("GD", engine.tables(-1, window + 3, 0, window + 3)))
    memo: dict[tuple[str, int, int, int], np.ndarray] = {}

    def lattice(sym: str, m: int, r: int, s: int) -> np.ndarray:
        key = (sym, m, r, s)
        got = memo.get(key)
        if got is not None:
            return got
        if m == 0:
            got = base[sym][r + 1:r + 1 + size, s:s + size]
        else:
            q, i = divmod(r, 3)
            t, j = divmod(s, 3)

            def factor(f_sym: str, a: int, b: int, e: int) -> np.ndarray:
                value = lattice(f_sym, m - 1, q + a, t + b)
                return value if e == 1 else value * value % 3

            # Row n has the sign of (-1)**(n + r // 3).
            got = rule_sum(engine.SPLIT_RULES[i, j, sym], factor, (q + 1) % 2)
            if r <= 1:
                got[0] = anchor_rows(s, size, 3 ** m)[sym][r + 1]
        memo[key] = got
        return got

    return {kind: np.array([lattice("GD"[engine.KINDS.index(kind)], *w).ravel()
                            for w in triples], dtype=np.int8).reshape(len(triples), size * size)
            for kind, triples in witnesses.items()}


def tables_by_rule_passes(n_lo: int, n_hi: int, p_lo: int,
                          p_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """engine.tables as it built each level: one rule_sum per
    entry of SPLIT_RULES, filling the rows n = i and the columns p = j
    mod 3 at once, every factor a contiguous slice of the rectangle one
    level down.  Rows n <= 1 are anchor_rows, and rows n >= 2 of
    rectangles of at most 32 cells are read cell by cell through
    split_cell, as the engine once read them.  Its levels end there, not
    in engine._CORNER, so it shares no seed or corner with the engine."""
    cellwise_area = 32

    def level(n_lo: int, n_hi: int, p_lo: int, p_hi: int) -> dict[str, np.ndarray]:
        width = p_hi - p_lo + 1
        out = {s: np.empty((n_hi - n_lo + 1, width), np.int8) for s in "GD"}
        if n_lo <= 1:
            for stream, anchors in anchor_rows(p_lo, width).items():
                out[stream][:2 - n_lo] = anchors[n_lo + 1:n_hi + 2]
        r_lo = max(n_lo, 2)
        if r_lo > n_hi:
            return out
        if (n_hi - n_lo + 1) * width <= cellwise_area:
            for stream, rows in out.items():
                rows[r_lo - n_lo:] = [[split_cell(stream, n, p) for p in range(p_lo, p_hi + 1)]
                                      for n in range(r_lo, n_hi + 1)]
            return out
        m_lo, q_lo = r_lo // 3 - 1, p_lo // 3
        below = {}
        for stream, table in level(m_lo, n_hi // 3 + 2, q_lo, p_hi // 3 + 1).items():
            below[stream, 1], below[stream, 2] = table, table * table % 3
        for (i, j, stream), rule in engine.SPLIT_RULES.items():
            n0 = r_lo + (i - r_lo) % 3
            p0 = p_lo + (j - p_lo) % 3
            rows, cols = len(range(n0, n_hi + 1, 3)), len(range(p0, p_hi + 1, 3))
            if not rows or not cols:
                continue
            m0, q0 = n0 // 3 - m_lo, p0 // 3 - q_lo

            def factor(sym: str, a: int, b: int, e: int) -> np.ndarray:
                return below[sym, e][m0 + a:m0 + a + rows, q0 + b:q0 + b + cols]

            # Row k of this slice has m = n0 // 3 + k: negate the rows of odd m.
            out[stream][n0 - n_lo::3, p0 - p_lo::3] = rule_sum(
                rule, factor, (n0 // 3 + 1) % 2)
        return out

    out = level(n_lo, n_hi, p_lo, p_hi)
    return out["G"], out["D"]


def minimal_period_by_divisors(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """engine.minimal_period as it searched before the prime steps: each
    divisor t of len(coeffs) in increasing order, the first whose
    t-prefix repeated is coeffs."""
    n = len(coeffs)
    for t in range(1, n + 1):
        if n % t == 0 and coeffs == coeffs[:t] * (n // t):
            return coeffs[:t]
    raise AssertionError("unreachable: the full tuple is its own period")


def substitution_word_by_joins(k: int) -> str:
    """The k-th iterate of the substitution on "a", one string join of
    letter images per iteration: what sequences.substitution_word's
    table gather replaced."""
    word = "a"
    for _ in range(k):
        word = "".join(sequences._SUBSTITUTION[letter] for letter in word)
    return word


def grid_text_by_cells(rows: Sequence[Sequence[int]], fmt: str) -> str:
    """The `grid` text of rows of values 0, 1, 2 in a cli.GRID_CELLS
    format, as cli._grid_text replaced it: one lookup per cell, the
    cells of a row joined by the separator, a ppm image with its P3
    header first, and the whole table one string."""
    sep, lut = cli.GRID_CELLS[fmt]
    lines = [sep.join(map(lut.__getitem__, row)) for row in rows]
    if fmt == "ppm":
        lines[:0] = ["P3", f"{len(rows[0])} {len(rows)}", "255"]
    return "\n".join(lines) + "\n"


def walk_by_cells(dfao: kernel.Dfao2D, n: int, p: int) -> int:
    """The output of dfao at (n, p), one Python step per digit pair: the
    scalar walk that Dfao2D.evaluate's array walk replaced."""
    if n < 0 or p < 0:
        raise ValueError("need n >= 0 and p >= 0")
    state = dfao.start
    while n or p:
        n, dn = divmod(n, 3)
        p, dp = divmod(p, 3)
        state = dfao.transitions[state][3 * dn + dp]
    return dfao.outputs[state]


def window_points(window: int) -> list[tuple[int, int]]:
    """The points (n, p), n and p in 0..window, n-major."""
    return [(n, p) for n in range(window + 1) for p in range(window + 1)]


def pade_by_elimination(order: int) -> PadeApproximant:
    """The [order-1 / order] approximant by Gaussian elimination over Q.

    The oracle for pade.pade_diagonal.  With Q(0) = 1 the unknowns
    q_1..q_order make coefficients order..2*order-1 of f*Q vanish, and
    the numerator is the truncation of f*Q below degree order.  A
    singular system raises ArithmeticError.  The coefficients are read
    through the pade module, so a test that patches
    pade.cantor_coefficients patches both sides."""
    c = pade_module.cantor_coefficients(2 * order)
    # Row i, augmented: sum over j of c_(order+i-j-1) q_(j+1) = -c_(order+i).
    a = [[Fraction(c[order + i - j - 1]) for j in range(order)] + [Fraction(-c[order + i])]
         for i in range(order)]
    for k in range(order):
        pivot_row = next((i for i in range(k, order) if a[i][k] != 0), None)
        if pivot_row is None:
            raise ArithmeticError("singular linear system")
        a[k], a[pivot_row] = a[pivot_row], a[k]
        for i in range(k + 1, order):
            factor = a[i][k] / a[k][k]
            if factor:
                for j in range(k, order + 1):
                    a[i][j] -= factor * a[k][j]
    tail = [Fraction(0)] * order
    for k in range(order - 1, -1, -1):
        acc = a[k][order] - sum((a[k][j] * tail[j] for j in range(k + 1, order)), Fraction(0))
        tail[k] = acc / a[k][k]
    q = [Fraction(1)] + tail
    p = [sum((q[j] * c[k - j] for j in range(min(k, order) + 1)), Fraction(0))
         for k in range(order)]
    # Scaled by the lcm of every denominator to the integers _normalised takes.
    scale = lcm(*(x.denominator for x in p + q))
    return pade_module._normalised(order, [int(x * scale) for x in p],
                                   [int(x * scale) for x in q])


def pade_value_by_fraction_horner(approximant: PadeApproximant, x: Fraction) -> Fraction:
    """PadeApproximant.value_at as Horner's rule in Fractions, a gcd at
    every step, which the integer Horner of value_at replaced."""
    def poly_eval(coeffs: tuple[int, ...]) -> Fraction:
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    return poly_eval(approximant.numerator) / poly_eval(approximant.denominator)


def _residues(m, ndim: int) -> np.ndarray:
    """A fresh int8 copy of m reduced mod 3.

    The remainder is taken in m's own integer type (Python ints for an
    object array), and only the residues 0, 1, 2 are narrowed to int8:
    200 narrowed first would wrap to -56, which has another residue.
    """
    a = _square(m, ndim)
    return np.remainder(a, 3, out=np.empty(a.shape, np.int8), casting="unsafe")


def det_mod3_by_full_reduction(m) -> int:
    """hankel.det_mod3 as it reduced the whole trailing block mod 3 at
    every step, on int8 residues."""
    a = _residues(m, 2)
    n = len(a)
    det = 1
    for k in range(n):
        nonzero = np.flatnonzero(a[k:, k])
        if nonzero.size == 0:
            return 0
        i = k + int(nonzero[0])
        if i != k:
            a[[k, i]] = a[[i, k]]
            det = -det
        pivot = int(a[k, k])
        det = det * pivot % 3
        if k + 1 < n:
            # pivot times the column clears it below the pivot.
            below = a[k + 1:]
            below -= (a[k + 1:, k] * pivot)[:, None] * a[k]
            below %= 3
    return det % 3


def det_mod3_stack_by_full_reduction(a) -> np.ndarray:
    """The determinants mod 3 of a stack, hankel.minors_mod3_stack(a)[:, -1],
    from a stacked elimination that reduces the whole trailing blocks
    mod 3 at every step, on int8 residues."""
    a = _residues(a, 3)
    s, n = a.shape[:2]
    out = np.zeros(s, np.int8)
    live = np.arange(s)  # the input matrix held in each row of a
    det = np.ones(s, np.int8)
    for k in range(n):
        rows = k + np.argmax(a[:, k:, k] != 0, axis=1)
        pivot = a[np.arange(len(rows)), rows, k]
        if not pivot.all():
            keep = np.flatnonzero(pivot)
            if keep.size == 0:
                return out
            a, live, det = a[keep], live[keep], det[keep]
            rows, pivot = rows[keep], pivot[keep]
        swap = np.flatnonzero(rows != k)
        if swap.size:
            a[swap, k], a[swap, rows[swap]] = a[swap, rows[swap]], a[swap, k]
            det[swap] = 3 - det[swap]  # a row swap negates the determinant
        det = det * pivot % 3
        if k + 1 < n:
            below = a[:, k + 1:]
            below -= (a[:, k + 1:, k] * pivot[:, None])[:, :, None] * a[:, k, None]
            below %= 3
    out[live] = det
    return out


def det_mod3_stack_by_row_swaps(a) -> np.ndarray:
    """The determinants mod 3 of a stack, hankel.minors_mod3_stack(a)[:, -1],
    from a stacked elimination of that one order, with row swaps and lazy
    reduction.

    At step k each matrix takes its own pivot row, the first row at or
    below k whose entry in column k is a largest residue, and a matrix
    with no nonzero residue left there is singular, 0.  Each step
    reduces only the pivot columns and rows (hankel._residues, int16 at
    every order up to hankel.MAX_HANKEL_ORDER).
    """
    a = hankel._residues(a, 3)
    s, n = a.shape[:2]
    out = np.zeros(s, np.int8)
    live = np.arange(s)  # the input matrix held in each row of a
    det = np.ones(s, np.int8)
    for k in range(n):
        col = a[:, k:, k] % 3
        rows = col.argmax(axis=1)
        pivot = col.max(axis=1)
        if not pivot.all():
            keep = np.flatnonzero(pivot)
            if keep.size == 0:
                return out
            a, live, det = a[keep], live[keep], det[keep]
            col, rows, pivot = col[keep], rows[keep], pivot[keep]
        det = det * pivot % 3
        if k + 1 < n:
            row = a[np.arange(len(rows)), k + rows, k + 1:] % 3
            swap = np.flatnonzero(rows)
            if swap.size:
                a[swap, k + rows[swap], k + 1:] = a[swap, k, k + 1:]
                col[swap, rows[swap]] = col[swap, 0]
                det[swap] = 3 - det[swap]  # a row swap negates the determinant
            a[:, k + 1:, k + 1:] -= (col[:, 1:] * pivot[:, None])[:, :, None] * row[:, None]
    out[live] = det
    return out


def hankel_by_terms(kind: str, first: int, step: int, n: int, count: int = 1) -> np.ndarray:
    """hankel._hankel as it read each term through cantor_term or
    diff_term, one index recurrence per term, with the same checks in
    the same order."""
    terms = {"gamma": cantor_term, "delta": diff_term}
    if kind not in terms:
        raise ValueError(f"unknown matrix kind {kind!r}")
    if first < 0 or n < 0 or count < 0:
        raise ValueError("offset, order and count must be nonnegative")
    if n > MAX_HANKEL_ORDER:
        raise ValueError(f"order n = {n} is over the cap of {MAX_HANKEL_ORDER}")
    term = terms[kind]
    size = max(count + 2 * n - 2, 0)
    values = np.fromiter((term(first + step * k) for k in range(size)), np.int64, size)
    stride = values.strides[0]
    return np.lib.stride_tricks.as_strided(values, (count, n, n), (stride,) * 3,
                                           writeable=False)


def oracle_reads_by_matrix(exact: bool) -> dict[str, Callable[[int, int], int]]:
    """checks._oracle_reads as it eliminated each determinant on its own,
    once per reader, with det_exact or det_mod3: by (order, offset),
    keyed by stream as engine.split_value reads them, at any window."""
    det = det_exact if exact else hankel.det_mod3
    return {sym: cache(lambda n, p, kind=kind: det(hankel.hankel_matrix(kind, p, n)))
            for sym, kind in zip("GD", engine.KINDS)}


def permutation_matrix(n: int) -> np.ndarray:
    """The n x n 0/1 matrix P that sorts the 1-based indices 1..n by
    residue mod 3, 1 before 2 before 0, each class in increasing order:
    column j of P is the basis vector of the j-th index in that order."""
    targets = sorted(range(1, n + 1), key=lambda t: ((t - 1) % 3, t))
    p = np.zeros((n, n), np.int64)
    for j, t in enumerate(targets):
        p[t - 1, j] = 1
    return p


def verify_structure_by_matrix(p: int, n: int) -> hankel.StructureReport:
    """hankel.verify_structure as it built every matrix from its own run
    through hankel_matrix, with the same checks in the same order.  The
    block form is checked as the paper states it: P^t H P, by matrix
    products with P = permutation_matrix(3n + r), equals the nine
    stride-3 blocks laid out as one matrix."""
    hankel_matrix = hankel.hankel_matrix
    if p < 0 or n < 1:
        raise ValueError("need p >= 0 and n >= 1")
    checked: list[str] = []

    def fail(name: str) -> hankel.StructureReport:
        return hankel.StructureReport(p, n, False, tuple(checked), name)

    def stride3_matrix(kind: str, q: int, order: int) -> np.ndarray:
        # Every third row and column of the order 3 * order - 2 matrix.
        return hankel_matrix(kind, q, 3 * order - 2)[::3, ::3]

    def expected_stride3(kind: str, q: int, order: int) -> np.ndarray:
        base, residue = divmod(q, 3)
        if residue == 1:
            return hankel_matrix("gamma", base + 1, order) * (kind == "delta")
        return hankel_matrix("gamma", base, order) * (
            2 if kind == "delta" and residue == 0 else 1)

    def block_layout(kind: str, r: int) -> np.ndarray:
        def block(I: int, J: int) -> np.ndarray:
            rows, cols = n + (I < r), n + (J < r)
            return stride3_matrix(kind, p + I + J, max(rows, cols))[:rows, :cols]

        return np.block([[block(I, J) for J in range(3)] for I in range(3)])

    name = "difference-split"
    g0 = hankel_matrix("gamma", p, n)
    g2 = hankel_matrix("gamma", p + 2, n)
    if not np.array_equal(hankel_matrix("delta", p, n), g0 + g2):
        return fail(name)
    checked.append(name)

    for kind in ("gamma", "delta"):
        for r in range(3):
            name = f"block-form-{kind}-r{r}"
            h = hankel_matrix(kind, p, 3 * n + r)
            perm = permutation_matrix(3 * n + r)
            if not np.array_equal(perm.T @ h @ perm, block_layout(kind, r)):
                return fail(name)
            checked.append(name)
        for q in range(p, p + 5):
            for order in (n, n + 1):
                name = f"stride3-collapse-{kind}-q{q}-n{order}"
                if not np.array_equal(stride3_matrix(kind, q, order),
                                      expected_stride3(kind, q, order)):
                    return fail(name)
                checked.append(name)

    if n >= 2:
        name = "paired-determinant-split"
        g1 = hankel_matrix("gamma", p + 1, n)
        paired = np.block([[g0, g1], [g1, -g0]])
        sign = (-1) ** n
        rhs = (sign * det_exact(g0) * det_exact(hankel_matrix("delta", p, n))
               - sign * det_exact(hankel_matrix("gamma", p, n + 1))
               * det_exact(hankel_matrix("delta", p, n - 1)))
        if det_exact(paired) != rhs:
            return fail(name)
        checked.append(name)

    return hankel.StructureReport(p, n, True, tuple(checked))


def verify_pade_error_by_fractions(order: int) -> PadeErrorReport:
    """pade.verify_pade_error as it divided f*Q - P by Q one Fraction at
    a time.  pade and cantor_coefficients are read through the pade
    module, so a test that patches either patches both sides."""
    approx = pade_module.pade(order)
    depth = 2 * order + 1
    c = pade_module.cantor_coefficients(depth)
    q = approx.denominator
    p = approx.numerator
    fq_minus_p = [sum(q[j] * c[k - j] for j in range(min(k, len(q) - 1) + 1))
                  - (p[k] if k < len(p) else 0)
                  for k in range(depth)]
    error = []
    for k in range(depth):
        acc = Fraction(fq_minus_p[k])
        for j in range(1, min(k, len(q) - 1) + 1):
            acc -= q[j] * error[k - j]
        error.append(acc / q[0])
    first_mismatch = next((k for k in range(2 * order) if error[k] != 0), None)
    expected = Fraction(det_exact(hankel_by_terms("gamma", 0, 1, order + 1)[0]),
                        det_exact(hankel_by_terms("gamma", 0, 1, order)[0]))
    ok = first_mismatch is None and error[2 * order] == expected
    return PadeErrorReport(order, ok, first_mismatch, error[2 * order], expected)


@dataclass(frozen=True)
class RationalInterval:
    """Closed interval with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("empty interval")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def overlaps(self, other: "RationalInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi


def cantor_number_by_fractions(b: int, terms: int) -> RationalInterval:
    """The enclosure of xi = sum of c_k b^-k that pade._XiEnclosures reads
    at depth terms, as a Fraction partial sum, term by term through
    cantor_term, plus the geometric tail b/(b-1) * b**-terms."""
    partial = sum((Fraction(cantor_term(k), b ** k) for k in range(terms)), Fraction(0))
    return RationalInterval(partial, partial + Fraction(b, b - 1) / Fraction(b) ** terms)


def eta_sum_by_horner(b: int, depth: int,
                      run: Callable[[int, int], np.ndarray] = sequences.diff_run
                      ) -> RationalInterval:
    """The lhs of pade.eta_identity_check as its own Horner sum of the
    first depth + 3 terms of run (diff_run by default), one term at a
    time, as a Fraction, plus twice the geometric tail
    b/(b-1) * b**-(depth + 3)."""
    cut = depth + 3
    numerator = 0
    for term in run(0, cut).tolist():
        numerator = numerator * b + term
    partial = Fraction(numerator, b ** (cut - 1))
    return RationalInterval(partial, partial + 2 * Fraction(b, b - 1) / Fraction(b) ** cut)


def exponent_interval_by_iv(d_lo: Fraction, d_hi: Fraction, q: int) -> tuple[float, float]:
    """pade._exponent_interval through mpmath's iv context, the low end
    rounded down to a float and the high end up."""
    from mpmath import iv
    from mpmath.libmp import round_ceiling, round_floor, to_float

    def log_of(x: Fraction):
        return iv.log(iv.mpf(x.numerator) / iv.mpf(x.denominator))

    prec = 64
    while True:
        old = iv.prec
        try:
            iv.prec = prec
            log_q = log_of(Fraction(q))
            lo_iv = -log_of(d_hi) / log_q
            hi_iv = -log_of(d_lo) / log_q
            lo = to_float(lo_iv.a._mpi_[0], rnd=round_floor)
            hi = to_float(hi_iv.b._mpi_[1], rnd=round_ceiling)
        finally:
            iv.prec = old
        if hi - lo < 0.01:
            return lo, hi
        if prec > 1 << 16:
            raise RuntimeError("exponent interval failed to narrow")
        prec *= 2


def irrationality_estimates_by_fractions(b: int, max_order: int) -> list[ApproximationExponent]:
    """pade.irrationality_estimates as it rebuilt xi's enclosure as
    Fractions at every depth it tried, compared Fractions, and took the
    logs through mpmath's iv context."""
    out: list[ApproximationExponent] = []
    seen: dict[Fraction, int] = {}
    x = Fraction(1, b)
    for approx in pade_module.pade_diagonal(max_order):
        order = approx.order
        value = approx.value_at(x)
        previous = seen.get(value)
        seen.setdefault(value, order)
        q, p = value.denominator, value.numerator
        if previous is not None:
            out.append(ApproximationExponent(order, p, q, None, None, True,
                                             f"value repeats order {previous}"))
            continue
        if q == 1:
            out.append(ApproximationExponent(order, p, q, None, None, True, "integer value"))
            continue
        depth = 2 * order + 8
        while True:
            xi = cantor_number_by_fractions(b, depth)
            if value < xi.lo:
                d_lo, d_hi = xi.lo - value, xi.hi - value
            elif value > xi.hi:
                d_lo, d_hi = value - xi.hi, value - xi.lo
            else:
                d_lo = Fraction(0)
                d_hi = max(xi.hi - value, value - xi.lo)
            if d_lo > 0 and (d_hi - d_lo) * 1000 < d_lo:
                break
            depth *= 2
            if depth > pade_module.MAX_TAIL_DEPTH:
                raise RuntimeError(f"distance enclosure failed to separate at order {order}")
        lo, hi = exponent_interval_by_iv(d_lo, d_hi, q)
        out.append(ApproximationExponent(order, p, q, lo, hi, False, ""))
    return out
