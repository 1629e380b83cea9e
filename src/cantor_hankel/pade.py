"""Exact Pade approximants of the Cantor power series and interval
certificates for how well their values approximate the Cantor numbers.

Every approximant comes from one J-fraction pass, pade_diagonal.
Everything rational is exact, a fractions.Fraction or an integer
polynomial standing for a rational multiple of itself; the only floating
point in the module is the final log-quotient enclosure, which goes
through mpmath's interval context so rounding is outward and the
reported exponent windows are genuine enclosures.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from mpmath import iv

from .hankel import det_exact, hankel_matrix
from .sequences import cantor_term, diff_term

# Fallback ceiling for the adaptive tail-depth search.
MAX_TAIL_DEPTH = 1 << 20

# Resource guards, checked before any work.  Times on a 2-core VM:
# pade(200) 0.02 s, verify_pade_error(200) 0.2 s (0.1 s of it its two
# order-200 det_exact calls), verify_functional_equation(10**6) 0.3 s,
# and at b = 2**32 irrationality_estimates(b, 100) 0.13 s and
# eta_identity_check(b, 10**4) 1.2 s; both grow with the digits of b, eta
# past a minute at 10**100.
MAX_PADE_ORDER = 200
MAX_IRR_ORDER = 100
MAX_FEQ_DEGREE = 10 ** 6
MAX_ETA_DEPTH = 10 ** 4
MAX_BASE = 2 ** 32


def cantor_coefficients(count: int) -> list[int]:
    """The first count coefficients of f(x) = sum of c_n x^n."""
    return [cantor_term(k) for k in range(count)]


@dataclass(frozen=True)
class PadeApproximant:
    """The [order-1 / order] approximant of the Cantor series.

    numerator and denominator are integer polynomials (ascending
    coefficients, trailing zeros trimmed) with content 1 and a positive
    leading denominator coefficient.  The denominator never vanishes at
    0.  Its degree can fall below order when the tail of the solved
    coefficient vector is zero; order records the requested contact.
    """

    order: int
    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.denominator[0] == 0:
            raise ValueError("denominator vanishes at 0")

    def value_at(self, x: Fraction) -> Fraction:
        return _poly_eval(self.numerator, x) / _poly_eval(self.denominator, x)


def _poly_eval(coeffs: tuple[int, ...], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _normalised(order: int, p: list, q: list) -> PadeApproximant:
    """The approximant P/Q as integer polynomials of content 1 with a
    positive leading denominator coefficient.

    p and q are the coefficients of r*P and r*Q for one rational r != 0,
    as Fractions or ints.
    """
    scale = lcm(*(x.denominator for x in p + q))
    p_int = [int(x * scale) for x in p]
    q_int = [int(x * scale) for x in q]
    content = gcd(*p_int, *q_int)
    p_int = [x // content for x in p_int]
    q_int = [x // content for x in q_int]
    q_trimmed = _trim(q_int)
    if q_trimmed[-1] < 0:
        p_int = [-x for x in p_int]
        q_trimmed = tuple(-x for x in q_trimmed)
    return PadeApproximant(order, _trim(p_int), q_trimmed)


def pade(order: int) -> PadeApproximant:
    """The [order-1 / order] approximant: the last of one pade_diagonal pass.

    Raises ArithmeticError where it does not exist, that is where a
    column-0 Hankel determinant of c, which the paper proves nonzero,
    vanishes."""
    if order < 1:
        raise ValueError("order must be at least 1")
    if order > MAX_PADE_ORDER:
        raise ValueError(f"order n = {order} is over the cap of {MAX_PADE_ORDER}")
    return pade_diagonal(order)[-1]


def _j_fraction(max_order: int) -> Iterator[tuple[list[int], list[int], list[int]]]:
    """Yield (P_n, Q_n, e_n) for n = 1, 2, ..., max_order.

    P_n/Q_n is the [n-1 / n] approximant, scaled to integer
    coefficients, and e_n = f*Q_n - P_n is its error series listed from
    degree 2n through degree 2*max_order + 1.  So e_n[0] / Q_n[0] is
    the leading error coefficient eps_n of the approximant with
    Q_n(0) = 1, and e_n[1] / Q_n[0] the next one, eps'_n.

    The approximants are the convergents of the J-fraction of f:

        Q_(n+1) = (1 - a_n x) Q_n - b_n x**2 Q_(n-1), the same for P, e,
        b_n = eps_n / eps_(n-1),  a_n = (eps'_n - b_n eps'_(n-1)) / eps_n,

    which cancels e_(n+1) at degrees 2n and 2n + 1.  Multiplied through
    by eps_(n-1) eps_n it runs on the scaled integer triples, which are
    divided by the content of P and Q after each step.  It needs
    eps_n != 0, that is H_(n+1) != 0 for the column-0 Hankel
    determinants of c; a zero would falsify the paper's theorem, so it
    raises.
    """
    c = cantor_coefficients(2 * max_order + 2)
    if c[0] == 0:
        raise ArithmeticError("eps_0 = c_0 = 0 at order 1")
    # (P_0, Q_0, e_0) = (0, 1, f), and (P_1, Q_1, e_1) with P_1 = c_0 and
    # Q_1 = 1 - (c_1 / c_0) x, times c_0.
    prev = ([], [1], c)
    cur = ([c[0]], [c[0], -c[1]],
           [c[0] * c[k] - c[1] * c[k - 1] for k in range(2, len(c))])
    for n in range(1, max_order + 1):
        yield cur
        if n == max_order:
            return
        (p0, q0, e0), (p1, q1, e1) = prev, cur
        if e1[0] == 0:
            raise ArithmeticError(f"eps_{n} = 0 (H_{n + 1} = 0) at order {n + 1}")
        # The multipliers of triple n, of x times it and of x**2 times
        # triple n - 1.
        s0 = e0[0] * e1[0]
        s1 = e1[1] * e0[0] - e1[0] * e0[1]
        s2 = e1[0] * e1[0]

        def step(y, xy, xxy):
            return [s0 * u - s1 * v - s2 * w for u, v, w in zip(y, xy, xxy)]

        p = step(p1 + [0], [0] + p1, [0, 0] + p0)
        q = step(q1 + [0], [0] + q1, [0, 0] + q0)
        e = step(e1[2:], e1[1:], e0[2:])
        # f is an integer series, so the content of P and Q divides e too.
        content = gcd(*p, *q)
        prev, cur = cur, ([x // content for x in p], [x // content for x in q],
                          [x // content for x in e])


def pade_diagonal(max_order: int) -> list[PadeApproximant]:
    """The approximants of orders 1..max_order from one J-fraction pass.

    Entry n - 1 is the [n-1 / n] approximant that Gaussian elimination
    over Q gives field for field (the tests hold the two together); all
    orders together cost O(max_order**2) integer operations where the
    elimination costs O(order**3) rational ones per order.  Raises
    ArithmeticError, without returning a shorter list, where an
    approximant does not exist.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be at least 1, got {max_order}")
    if max_order > MAX_PADE_ORDER:
        raise ValueError(f"max_order {max_order} is over the cap of {MAX_PADE_ORDER}")
    began = time.perf_counter()
    out = [_normalised(n, p, q)
           for n, (p, q, _) in enumerate(_j_fraction(max_order), 1)]
    # Imported here, as in engine and kernel: only a pass writes a record.
    import logging
    logging.getLogger(__name__).debug(
        "pade diagonal through order %d: %.3f s",
        max_order, time.perf_counter() - began)
    return out


@dataclass(frozen=True)
class PadeErrorReport:
    """Contact verification for one approximant.

    ok means: every error coefficient below degree 2*order vanished and
    the coefficient at exactly 2*order equals expected_leading, which is
    the ratio of the exact order+1 and order Hankel determinants of c
    in column 0."""

    order: int
    ok: bool
    first_mismatch: int | None
    leading: Fraction
    expected_leading: Fraction


def verify_pade_error(order: int) -> PadeErrorReport:
    """Expand f - P/Q, P/Q = pade(order), as an exact rational series
    through degree 2*order."""
    approx = pade(order)
    depth = 2 * order + 1
    c = cantor_coefficients(depth)
    q = approx.denominator
    p = approx.numerator
    # P, Q and c are integer, so f*Q - P is too; only the division by Q
    # below leaves the integers.
    fq_minus_p = [sum(q[j] * c[k - j] for j in range(min(k, len(q) - 1) + 1))
                  - (p[k] if k < len(p) else 0)
                  for k in range(depth)]
    # divide by Q as a power series; Q(0) != 0 by construction
    error = []
    q0 = q[0]
    for k in range(depth):
        acc = Fraction(fq_minus_p[k])
        for j in range(1, min(k, len(q) - 1) + 1):
            acc -= q[j] * error[k - j]
        error.append(acc / q0)
    first_mismatch = next((k for k in range(2 * order) if error[k] != 0), None)
    expected = Fraction(det_exact(hankel_matrix("gamma", 0, order + 1)),
                        det_exact(hankel_matrix("gamma", 0, order)))
    ok = first_mismatch is None and error[2 * order] == expected
    return PadeErrorReport(order, ok, first_mismatch, error[2 * order], expected)


@dataclass(frozen=True)
class FunctionalEquationReport:
    degree: int
    ok: bool
    first_mismatch: int | None


def verify_functional_equation(degree: int) -> FunctionalEquationReport:
    """Check f(x) = (1 + x^2) f(x^3) coefficientwise through degree."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree > MAX_FEQ_DEGREE:
        raise ValueError(f"degree {degree} is over the cap of {MAX_FEQ_DEGREE}")
    c = cantor_coefficients(degree + 1)
    cube = [c[k // 3] if k % 3 == 0 else 0 for k in range(degree + 1)]
    rhs = [cube[k] + (cube[k - 2] if k >= 2 else 0) for k in range(degree + 1)]
    first = next((k for k in range(degree + 1) if c[k] != rhs[k]), None)
    return FunctionalEquationReport(degree, first is None, first)


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


def _check_base(b: int) -> None:
    if b < 2:
        raise ValueError("base must be at least 2")
    if b > MAX_BASE:
        raise ValueError(f"base b = {b} is over the cap of {MAX_BASE}")


def _geometric_tail(b: int, start: int) -> Fraction:
    # sum over k >= start of b**-k
    return Fraction(b, b - 1) / Fraction(b) ** start


def cantor_number(b: int, terms: int) -> RationalInterval:
    """Enclosure of xi = sum of c_k b^-k from the first terms terms.

    The lower end is the exact partial sum; the upper end adds the full
    geometric tail bound, so enclosures at growing depth are nested.
    """
    if b < 2:
        raise ValueError("base must be at least 2")
    if terms < 1:
        raise ValueError("need at least one term")
    numerator = 0
    for k in range(terms):
        numerator = numerator * b + cantor_term(k)
    partial = Fraction(numerator, b ** (terms - 1))
    return RationalInterval(partial, partial + _geometric_tail(b, terms))


def _log_fraction(x: Fraction):
    return iv.log(iv.mpf(x.numerator) / iv.mpf(x.denominator))


def _exponent_interval(d_lo: Fraction, d_hi: Fraction, q: int) -> tuple[float, float]:
    """Enclosure of -log(distance)/log(q) over the distance interval.

    Outward-rounded interval logs at doubling precision until the
    window is narrower than 0.01."""
    prec = 64
    while True:
        old = iv.prec
        try:
            iv.prec = prec
            log_q = _log_fraction(Fraction(q))
            lo_iv = -_log_fraction(d_hi) / log_q
            hi_iv = -_log_fraction(d_lo) / log_q
            lo = float(iv.mpf(lo_iv.a).a)
            hi = float(iv.mpf(hi_iv.b).b)
        finally:
            iv.prec = old
        if hi - lo < 0.01:
            return lo, hi
        if prec > 1 << 16:
            raise RuntimeError("exponent interval failed to narrow")
        prec *= 2


@dataclass(frozen=True)
class ApproximationExponent:
    """How strongly the order-n approximant value p/q approaches xi.

    exponent_lo/hi enclose -log|xi - p/q| / log q.  degenerate entries
    (q = 1, or a value repeating an earlier row) carry no exponent."""

    order: int
    p: int
    q: int
    exponent_lo: float | None
    exponent_hi: float | None
    degenerate: bool
    note: str


def irrationality_estimates(b: int, max_order: int) -> list[ApproximationExponent]:
    """Evaluate each approximant at 1/b against the Cantor number.

    The approximants of orders 1..max_order come from one pade_diagonal
    pass.  The distance |xi - p/q| is enclosed with exact rational
    arithmetic at a tail depth that adapts until the enclosure is
    positive and narrower than a thousandth of itself; only the final
    log quotient leaves exact arithmetic, through outward-rounded
    interval logs.
    """
    _check_base(b)
    # No order at all would be an empty, vacuous report.
    if max_order < 1:
        raise ValueError(f"max_order must be at least 1, got {max_order}")
    if max_order > MAX_IRR_ORDER:
        raise ValueError(f"max_order {max_order} is over the cap of {MAX_IRR_ORDER}")
    out: list[ApproximationExponent] = []
    seen: dict[Fraction, int] = {}
    x = Fraction(1, b)
    for approx in pade_diagonal(max_order):
        order = approx.order
        value = approx.value_at(x)
        previous = seen.get(value)
        seen.setdefault(value, order)
        q = value.denominator
        p = value.numerator
        if previous is not None:
            out.append(ApproximationExponent(
                order, p, q, None, None, True,
                f"value repeats order {previous}"))
            continue
        if q == 1:
            out.append(ApproximationExponent(
                order, p, q, None, None, True, "integer value"))
            continue
        depth = 2 * order + 8
        while True:
            xi = cantor_number(b, depth)
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
            if depth > MAX_TAIL_DEPTH:
                raise RuntimeError(
                    f"distance enclosure failed to separate at order {order}")
        lo, hi = _exponent_interval(d_lo, d_hi, q)
        out.append(ApproximationExponent(order, p, q, lo, hi, False, ""))
    return out


@dataclass(frozen=True)
class EtaReport:
    """Interval check of the linear relation between the two numbers.

    Splitting the sum over residues of n mod 3 and using the splitting
    of d into copies of c gives

        eta = 2 xi + (1/b) * b**3 * (xi - 1) + (1/b**2) * xi
            = (2 + b**2 + 1/b**2) xi - b**2,    xi = xi_{c, b**3},

    the b**3 factor coming from reindexing sum c_{n+1} (b**3)**-n.
    lhs encloses eta from its truncated sum, rhs the right-hand side
    from a truncated xi.  ok requires the enclosures to overlap and
    their combined width to stay below b**(2 - depth)."""

    b: int
    depth: int
    lhs: RationalInterval
    rhs: RationalInterval
    ok: bool


def eta_identity_check(b: int, depth: int) -> EtaReport:
    _check_base(b)
    if depth < 3:
        raise ValueError("depth must be at least 3")
    if depth > MAX_ETA_DEPTH:
        raise ValueError(f"depth {depth} is over the cap of {MAX_ETA_DEPTH}")
    # A few terms beyond depth keep the combined width strictly below
    # the b**(2 - depth) budget; at exactly depth terms the d-side tail
    # bound alone already equals the budget when b = 2.
    cut = depth + 3
    numerator = 0
    for k in range(cut):
        numerator = numerator * b + diff_term(k)
    partial = Fraction(numerator, b ** (cut - 1))
    lhs = RationalInterval(partial, partial + 2 * _geometric_tail(b, cut))
    xi = cantor_number(b ** 3, depth // 3 + 3)
    factor = 2 + Fraction(b) ** 2 + Fraction(1, b) ** 2
    shift = Fraction(b) ** 2
    rhs = RationalInterval(factor * xi.lo - shift, factor * xi.hi - shift)
    tolerance = Fraction(1, b) ** (depth - 2)
    ok = lhs.overlaps(rhs) and lhs.width + rhs.width < tolerance
    return EtaReport(b, depth, lhs, rhs, ok)
