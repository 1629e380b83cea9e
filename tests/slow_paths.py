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
    return (engine.gamma_mod3 if sym == "G" else engine.delta_mod3)(n + a, p + b)


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
