"""Slow paths that the tests hold production code to.

Each function here is an earlier, simpler derivation of something
src/ now computes faster or differently; no production path calls
them.  Import them from a test module as ``from slow_paths import ...``
(pytest puts this directory on sys.path).
"""

from __future__ import annotations

import importlib
from collections.abc import Sequence
from fractions import Fraction

import numpy as np

from cantor_hankel import engine, kernel
from cantor_hankel.pade import PadeApproximant

# The module itself: the package rebinds the name pade to the function.
pade_module = importlib.import_module("cantor_hankel.pade")


def generator_value(gen: kernel.Generator, n: int, p: int) -> int:
    """One generator S[a,b]J at (n, p), read through the scalar engine."""
    sym, a, b = gen
    if sym == "F":
        return 1 if (n + a) % 2 == 0 else 2
    return engine._CELLS[sym](n + a, p + b)


def evaluate_states_at_points(states: Sequence[kernel.KernelExpr],
                              points: Sequence[tuple[int, int]]) -> np.ndarray:
    """Values mod 3 of every state at every point (n, p), as an int8
    array with one row per state and one column per point.

    The per-point evaluator that kernel.evaluate_states replaced: each
    generator that occurs in some state is read through the scalar
    engine once per point, then every monomial is evaluated on the
    packed masks as kernel.evaluate_states does.
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
        terms = np.where(present & zero, 0, coeffs * (1 + kernel._parity(low & neg)))
        out[:, col] = np.bincount(owner, weights=terms, minlength=len(states)) % 3
    return out


class MonomialChainStep:
    """The per-digit stepper kernel._DigitStep replaced.

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
                image = kernel._poly_mul(root, root)
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
                image = kernel._poly_mul(image, self._factor(d, bit))
            memo[key] = image
        return image

    def step(self, d: int, poly: kernel.Packed) -> kernel.Packed:
        """apply_t with the d-th digit pair of kernel._DIGIT_PAIRS."""
        counter: dict[int, int] = {}
        for key, coeff in poly:
            for m, c in self._image(d, key):
                counter[m] = counter.get(m, 0) + coeff * c
        return kernel._reduce(counter)


def closure_by_monomial_chains(start: str) -> kernel.Closure:
    """The closure from "gamma" or "delta" as MonomialChainStep builds it:
    breadth first, digit pairs in order, each witness recorded as its
    state appears."""
    root = {"gamma": kernel.GAMMA, "delta": kernel.DELTA}[start].poly
    stepper = MonomialChainStep()
    index = {root: 0}
    states, witnesses, rows = [root], [(0, 0, 0)], []
    # The loop also visits the states appended while it runs.
    for state, (m, r, s) in zip(states, witnesses):
        row = []
        for d, (i, j) in enumerate(kernel._DIGIT_PAIRS):
            nxt = stepper.step(d, state)
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
                witnesses.append((m + 1, r + 3 ** m * i, s + 3 ** m * j))
            row.append(index[nxt])
        rows.append(tuple(row))
    return kernel.Closure(kernel.KernelExpr(root), tuple(map(kernel.KernelExpr, states)),
                          tuple(witnesses), tuple(rows))


def lattices_by_memo(witnesses: dict[str, Sequence[tuple[int, int, int]]],
                     window: int) -> dict[str, np.ndarray]:
    """engine.witness_lattices as the per-lattice recursion it replaced.

    Each lattice (stream, m, r, s) is memoised for the call and built by
    one engine._rule_sum over the lattices one level down that its
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
            got = engine._rule_sum(engine.SPLIT_RULES[i, j, sym], factor, (q + 1) % 2)
            if r <= 1:
                got[0] = engine._anchor_rows(s, size, 3 ** m)[sym][r + 1]
        memo[key] = got
        return got

    return {kind: np.array([lattice("GD"[engine.KINDS.index(kind)], *w).ravel()
                            for w in triples], dtype=np.int8).reshape(len(triples), size * size)
            for kind, triples in witnesses.items()}


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
    return pade_module._normalised(order, p, q)
