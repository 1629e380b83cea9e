"""Exact Pade approximants of the Cantor power series and interval
certificates for how well their values approximate the Cantor numbers.

Every approximant comes from one J-fraction pass, _j_fraction.
Everything rational is exact, a fractions.Fraction or an integer
polynomial standing for a rational multiple of itself; the distances
behind the irrationality windows and both sides of the eta check are
integers over common denominators, and the sums of digit runs behind
them are taken by binary splitting.  The only floating point in the
module is the final log-quotient enclosure: the mpmath.libmp steps
behind its two reported endpoints, each rounded outward as mpmath's
interval arithmetic rounds it, the reported floats included, so the
exponent windows are genuine enclosures.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .hankel import det_exact, hankel_matrix
from .sequences import cantor_run, diff_run

# Fallback ceiling for the adaptive tail-depth search.
MAX_TAIL_DEPTH = 1 << 20

# Resource guards, checked before any work.  First calls in a fresh
# process on a 2-core VM, five runs each: pade(200) 0.014-0.021 s,
# verify_pade_error(200) 0.08-0.13 s (0.07-0.10 s of it its order-200
# and order-201 det_exact calls), verify_functional_equation(10**6)
# 0.24-0.29 s, and at b = 2**32 irrationality_estimates(b, 100)
# 0.06-0.08 s (importing mpmath included) and eta_identity_check(b,
# 10**4) 0.014-0.026 s.  Both grow with the digits of b: at 10**100
# (three runs each, the base cap lifted) irr took 0.85-1.03 s and eta
# 5.7-8.4 s.
MAX_PADE_ORDER = 200
MAX_IRR_ORDER = 100
MAX_FEQ_DEGREE = 10 ** 6
MAX_ETA_DEPTH = 10 ** 4
MAX_BASE = 2 ** 32


def cantor_coefficients(count: int) -> list[int]:
    """The first count coefficients of f(x) = sum of c_n x^n."""
    return cantor_run(0, count).tolist()


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
        """P(x) / Q(x), exactly; ZeroDivisionError where Q(x) = 0.

        With x = u/v in lowest terms both values are scaled by v**(d-1),
        d the longer coefficient count, so each is an integer and only
        the one Fraction at the end takes a gcd.
        """
        u, v = x.numerator, x.denominator
        d = max(len(self.numerator), len(self.denominator))
        return Fraction(_homogeneous(self.numerator, u, v, d),
                        _homogeneous(self.denominator, u, v, d))


def _homogeneous(coeffs: tuple[int, ...], u: int, v: int, d: int) -> int:
    """The sum of coeffs[k] * u**k * v**(d-1-k), by Horner's rule."""
    acc, scale = 0, v ** (d - len(coeffs))
    for c in reversed(coeffs):
        acc = acc * u + c * scale
        scale *= v
    return acc


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _normalised(order: int, p: list[int], q: list[int]) -> PadeApproximant:
    """The approximant P/Q as integer polynomials of content 1 with a
    positive leading denominator coefficient.

    p and q are the integer coefficients of r*P and r*Q for one r != 0.
    """
    content = gcd(*p, *q)
    p_int = [x // content for x in p]
    q_trimmed = _trim([x // content for x in q])
    if q_trimmed[-1] < 0:
        p_int = [-x for x in p_int]
        q_trimmed = tuple(-x for x in q_trimmed)
    return PadeApproximant(order, _trim(p_int), q_trimmed)


def pade(order: int) -> PadeApproximant:
    """The [order-1 / order] approximant: the last of one J-fraction pass.

    Raises ArithmeticError where it does not exist, that is where a
    column-0 Hankel determinant of c, which the paper proves nonzero,
    vanishes."""
    if order < 1:
        raise ValueError("order must be at least 1")
    if order > MAX_PADE_ORDER:
        raise ValueError(f"order n = {order} is over the cap of {MAX_PADE_ORDER}")
    for p, q, _ in _j_fraction(order):
        pass
    return _normalised(order, p, q)


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
    through degree 2*order, on the integers: e_k q0**(k+1) = E_k =
    r_k q0**k - sum over j >= 1 of q_j E_(k-j) q0**(j-1), r = f*Q - P."""
    approx = pade(order)
    depth = 2 * order + 1
    c = cantor_coefficients(depth)
    q = approx.denominator
    p = approx.numerator
    q0 = q[0]
    # The nonzero q_j, most of Q's being 0, and those past q0 times q0**(j-1).
    terms = [(j, qj) for j, qj in enumerate(q) if qj]
    scaled = [(j, qj * q0 ** (j - 1)) for j, qj in terms[1:]]
    error: list[int] = []
    for k in range(depth):
        r = sum(qj * c[k - j] for j, qj in terms if j <= k) - (p[k] if k < len(p) else 0)
        error.append(r * q0 ** k - sum(s * error[k - j] for j, s in scaled if j <= k))
    first_mismatch = next((k for k in range(2 * order) if error[k] != 0), None)
    expected = Fraction(det_exact(hankel_matrix("gamma", 0, order + 1)),
                        det_exact(hankel_matrix("gamma", 0, order)))
    leading = Fraction(error[2 * order], q0 ** depth)
    ok = first_mismatch is None and leading == expected
    return PadeErrorReport(order, ok, first_mismatch, leading, expected)


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


def _check_base(b: int) -> None:
    if b < 2:
        raise ValueError("base must be at least 2")
    if b > MAX_BASE:
        raise ValueError(f"base b = {b} is over the cap of {MAX_BASE}")


def _split_sum(terms: list[int], b: int) -> int:
    """The sum of terms[k] * b**(len(terms) - 1 - k), by binary splitting.

    Each level joins neighbouring chunks of equal width w as
    high * b**w + low, with one power per level; an odd count takes a
    zero chunk in front, which adds nothing.  So each level costs about
    one multiplication of the full size, where Horner's rule multiplies
    the whole sum so far by b once per term, quadratic in the count.
    """
    sums, power = terms, b
    while len(sums) > 1:
        if len(sums) % 2:
            sums = [0, *sums]
        sums = [high * power + low for high, low in zip(sums[::2], sums[1::2])]
        if len(sums) > 1:
            power *= power
    return sums[0]


class _XiEnclosures:
    """Integer enclosures of sum of u_k b^-k from one growing run of u:
    c (xi) by default, read through cantor_run when called, or the terms
    of run, diff_run for d (eta).

    Called at depth D it returns (lo, m) with the sum in
    [lo/m, (lo + top)/m], top the largest term (1 for c, 2 for d):
    m = (b-1) b**(D-1) and lo = (b-1) N_D, N_D = sum over k < D of
    u_k b**(D-1-k), so the lower end is the partial sum and the upper
    end adds top times the whole geometric tail b**(1-D) / (b-1).
    Enclosures at growing depth are nested.  N grows with the deepest
    depth read: the new terms' split sum is added to N shifted past
    them.  A shallower N_D is its leading base-b digits only while
    every term is below b, which d_k = 2 breaks at b = 2: eta reads d
    at one depth only.
    """

    def __init__(self, b: int, run: Callable | None = None) -> None:
        self.b = b
        self._run = run
        self._depth = 0
        self._numerator = 0

    def __call__(self, depth: int) -> tuple[int, int]:
        b = self.b
        if depth > self._depth:
            count = depth - self._depth
            terms = (self._run or cantor_run)(self._depth, count).tolist()
            self._numerator = self._numerator * b ** count + _split_sum(terms, b)
            self._depth = depth
        numerator = self._numerator
        if depth < self._depth:
            numerator //= b ** (self._depth - depth)
        return (b - 1) * numerator, (b - 1) * b ** (depth - 1)


@functools.cache
def _libmp() -> tuple:
    """The mpmath.libmp names _exponent_interval reads, in the order it
    unpacks them."""
    # Imported here: mpmath adds tens of milliseconds to importing the
    # package, and only irr reads it.  Cached, as an import statement
    # reruns the import machinery at every call.
    from mpmath.libmp import (from_int, mpf_div, mpf_log, mpf_neg, mpf_sign, round_ceiling,
                              round_floor, to_float)
    return from_int, mpf_div, mpf_log, mpf_neg, mpf_sign, round_ceiling, round_floor, to_float


def _exponent_interval(d_lo: Fraction, d_hi: Fraction, q: int) -> tuple[float, float]:
    """Enclosure of -log(distance)/log(q) over the distance interval.

    Outward-rounded interval logs at doubling precision until the
    window is narrower than 0.01.  Only the two reported endpoints are
    computed: the low end from the upper log of d_hi, the high end from
    the lower log of d_lo, each divided by the end of log q that
    mpmath's interval division picks by its sign.  Each step is the
    libmp primitive and rounding mode that mpi_div, mpi_log and mpi_neg
    apply to that endpoint at the same precision, so the endpoints carry
    the bits of mpmath's iv context; the low end is rounded down to a
    float and the high end up.
    """
    (from_int, mpf_div, mpf_log, mpf_neg, mpf_sign, round_ceiling, round_floor,
     to_float) = _libmp()

    def log_of(x: Fraction, prec: int, rnd: str):
        # u/v rounded the way of rnd from its ends rounded the way of rnd
        # (u) and against it (v), as mpi_div rounds a positive quotient.
        against = round_ceiling if rnd == round_floor else round_floor
        ratio = mpf_div(from_int(x.numerator, prec, rnd),
                        from_int(x.denominator, prec, against), prec, rnd)
        return mpf_log(ratio, prec, rnd)

    prec = 64
    while True:
        # log q down and up: q/1 at prec bits is exact.
        log_q = (mpf_log(from_int(q, prec, round_floor), prec, round_floor),
                 mpf_log(from_int(q, prec, round_ceiling), prec, round_ceiling))
        top = mpf_neg(log_of(d_hi, prec, round_ceiling), prec, round_floor)
        bottom = mpf_neg(log_of(d_lo, prec, round_floor), prec, round_ceiling)
        # A nonnegative low end over the larger log q, a positive high
        # end over the smaller one: mpi_div's three numerator-sign cases.
        lo = to_float(mpf_div(top, log_q[mpf_sign(top) >= 0], prec, round_floor),
                      rnd=round_floor)
        hi = to_float(mpf_div(bottom, log_q[mpf_sign(bottom) <= 0], prec, round_ceiling),
                      rnd=round_ceiling)
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
    pass.  The distance |xi - p/q| is enclosed exactly, in integers over
    a common denominator, at a tail depth that adapts until the
    enclosure is positive and narrower than a thousandth of itself; only
    the final log quotient leaves exact arithmetic, through
    outward-rounded interval logs.
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
    xi = _XiEnclosures(b)
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
        # Over the common denominator m*q, xi lies in [xi_lo*q, xi_lo*q + q]
        # and p/q is p*m.  gap is the distance from p/q to the nearer end
        # (not positive when p/q lies inside), and the enclosure is kept
        # once gap is over 1000 of its widths q.
        depth = 2 * order + 8
        while True:
            xi_lo, m = xi(depth)
            below = xi_lo * q - p * m
            gap = below if below > 0 else -below - q
            if gap > 1000 * q:
                break
            depth *= 2
            if depth > MAX_TAIL_DEPTH:
                raise RuntimeError(
                    f"distance enclosure failed to separate at order {order}")
        d_lo, d_hi = Fraction(gap, m * q), Fraction(gap + q, m * q)
        lo, hi = _exponent_interval(d_lo, d_hi, q)
        out.append(ApproximationExponent(order, p, q, lo, hi, False, ""))
    return out


@dataclass(frozen=True)
class EtaReport:
    """Interval check of the linear relation between the two numbers.

    Splitting the sum over residues of n mod 3 and using the splitting
    of d into copies of c gives

        eta = 2 xi + (1/b) * b**3 * (xi - 1) + (1/b**2) * xi
            = ((b**2 + 1)**2 xi - b**4) / b**2,    xi = xi_{c, b**3},

    the b**3 factor coming from reindexing sum c_{n+1} (b**3)**-n.
    lhs encloses eta from its truncated sum, rhs the right-hand side
    from a truncated xi.  Each is (lo, hi, den), the closed interval
    [lo/den, hi/den] of integers over one positive denominator, not
    reduced.  ok requires the enclosures to overlap and their combined
    width to stay below b**(2 - depth)."""

    b: int
    depth: int
    lhs: tuple[int, int, int]
    rhs: tuple[int, int, int]
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
    eta, xi = _XiEnclosures(b, diff_run), _XiEnclosures(b ** 3)
    lo, m = eta(depth + 3)
    xi_lo, xi_m = xi(depth // 3 + 3)
    factor, square = (b * b + 1) ** 2, b * b
    shift, den = square * square * xi_m, square * xi_m
    rhs_lo, rhs_hi = factor * xi_lo - shift, factor * (xi_lo + 1) - shift
    # Both tests cross-multiplied over m * den; the widths are 2/m and
    # factor/den.  m = (b - 1) b**e_m and den = (b**3 - 1) b**e_den, the
    # powers read from the depths the enclosures were taken at, share
    # b**k, so each test runs on the cofactors m_k and den_k: at these
    # depths both are small, and no two full-size integers are multiplied.
    e_m, e_den = eta._depth - 1, 3 * xi._depth - 1
    k = min(e_m, e_den)
    m_k, den_k = (b - 1) * b ** (e_m - k), (b ** 3 - 1) * b ** (e_den - k)
    overlap = lo * den_k <= rhs_hi * m_k and rhs_lo * m_k <= (lo + 2) * den_k
    # The width test (2 den + factor m) b**(depth - 2) < m den over b**(k + j).
    j = min(k, depth - 2)
    narrow = ((2 * den_k + factor * m_k) * b ** (depth - 2 - j)
              < m_k * den_k * b ** (k - j))
    return EtaReport(b, depth, (lo, lo + 2, m), (rhs_lo, rhs_hi, den), overlap and narrow)
