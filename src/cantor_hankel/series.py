"""Purely periodic power series over GF(3).

A PeriodicSeries holds one minimal period of a coefficient stream
(a_n) with a_n in {0, 1, 2} and a_{n+t} = a_n for every n >= 0; as a
power series it is P(x) / (1 - x^t) with P the first-period polynomial.
The columns of the mod-3 Hankel determinant tables are streams of this
shape, and the operations here are exactly the ones needed to rebuild
a column of the table from columns with smaller offset: coefficientwise
(Hadamard) product, the two reindexing shifts, and base-3 interleaving.

The type never represents a preperiodic stream.  Any operation that
would create one (prepending a value that disagrees with the periodic
extension) fails loudly instead of widening the representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from . import engine


@dataclass(frozen=True)
class PeriodicSeries:
    """One minimal period of a purely periodic GF(3) coefficient stream."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a periodic stream needs at least one coefficient")
        try:
            residues = set(self.coeffs) <= {0, 1, 2}
        except TypeError:  # an unhashable coefficient is no residue either
            residues = False
        if not residues:
            raise ValueError("coefficients must be mod-3 residues")
        object.__setattr__(self, "coeffs", engine.minimal_period(tuple(self.coeffs)))

    @property
    def period(self) -> int:
        return len(self.coeffs)

    def at(self, n: int) -> int:
        """Coefficient a_n; negative n reads the periodic extension."""
        return self.coeffs[n % self.period]

    def prefix(self, count: int) -> list[int]:
        return [self.at(i) for i in range(count)]

    def __add__(self, other: "PeriodicSeries") -> "PeriodicSeries":
        t = lcm(self.period, other.period)
        return PeriodicSeries(tuple((self.at(i) + other.at(i)) % 3 for i in range(t)))

    def hadamard(self, other: "PeriodicSeries") -> "PeriodicSeries":
        """Coefficientwise product; the bilinear glue of the column algebra."""
        t = lcm(self.period, other.period)
        return PeriodicSeries(tuple(self.at(i) * other.at(i) % 3 for i in range(t)))

    def shift_hat(self, k: int = 1) -> "PeriodicSeries":
        """Drop the first k coefficients (left shift by k)."""
        if k < 0:
            raise ValueError("shift distance must be nonnegative")
        k %= self.period
        return PeriodicSeries(self.coeffs[k:] + self.coeffs[:k])

    def shift_bar(self, prepend: int) -> "PeriodicSeries":
        """Prepend a coefficient (right shift), keeping pure periodicity.

        The prepended value must match what the periodic extension
        already has at index -1; anything else would create a
        preperiodic stream, which this type refuses to represent.
        """
        if prepend != self.coeffs[-1]:
            raise ValueError(
                f"prepending {prepend} to a stream whose extension has "
                f"{self.coeffs[-1]} at index -1 would break pure periodicity")
        return PeriodicSeries((prepend,) + self.coeffs[:-1])

    def to_rational(self) -> "RationalForm":
        return RationalForm(self.coeffs, self.period)


@dataclass(frozen=True)
class RationalForm:
    """A periodic stream written as numerator / (1 - x^period)."""

    numerator: tuple[int, ...]
    period: int

    def __str__(self) -> str:
        return f"({_poly_str(self.numerator)})/(1 - x^{self.period})"


def _poly_str(coeffs: tuple[int, ...]) -> str:
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            x = "x" if i == 1 else f"x^{i}"
            parts.append(x if c == 1 else f"{c}{x}")
    return " + ".join(parts) if parts else "0"


def interleave3(a: PeriodicSeries, b: PeriodicSeries, c: PeriodicSeries) -> PeriodicSeries:
    """The series a(x^3) + x b(x^3) + x^2 c(x^3).

    Residue class r mod 3 of the output index reads operand r, so the
    output at 3n + r is operand r at n.
    """
    t = lcm(a.period, b.period, c.period)
    return PeriodicSeries(tuple(s.at(i) for i in range(t) for s in (a, b, c)))


# Alternating sign streams: (-1)^n and (-1)^(n+1) as mod-3 residues.
SIGNS_EVEN = PeriodicSeries((1, 2))
SIGNS_ODD = PeriodicSeries((2, 1))
ZERO = PeriodicSeries((0,))


def series_gamma(p: int) -> PeriodicSeries:
    """The stream n -> gamma_mod3(n, p), n >= 0, as a periodic series.

    engine.column confirms the period bound 12 * 3**k on a window of
    three full candidate periods before it trusts it, and returns the
    minimal period.
    """
    return PeriodicSeries(engine.column("gamma", p, 0))


def series_delta(p: int) -> PeriodicSeries:
    """The stream n -> delta_mod3(n, p), n >= 0, as a periodic series."""
    return PeriodicSeries(engine.column("delta", p, 0))


def _reassemble(stream: str, p: int) -> PeriodicSeries:
    """Column p of stream "G" or "D" rebuilt by its splitting identities.

    With p = 3q + j, branch i is the column read at n = 3m + i as a
    series in m.  Each term of SPLIT_RULES[i, j, stream] contributes its
    sign stream times the Hadamard product of its factors: column q + b
    read from row m + a (a = -1 prepends the boundary row of delta) and
    raised to its exponent.  The three branches are interleaved.
    """
    q, j = divmod(p, 3)
    branches = []
    for i in range(3):
        branch = ZERO
        for shift, factors in engine.SPLIT_RULES[i, j, stream]:
            term = SIGNS_ODD if shift % 2 else SIGNS_EVEN
            for sym, a, b, e in factors:
                column = (series_gamma if sym == "G" else series_delta)(q + b)
                if a < 0:
                    column = column.shift_bar(engine._anchor("D", -1, q + b))
                else:
                    column = column.shift_hat(a)
                for _ in range(e):
                    term = term.hadamard(column)
            branch = branch + term
        branches.append(branch)
    return interleave3(*branches)


def assemble_gamma2() -> PeriodicSeries:
    """Rebuild the gamma column at p = 2 from columns at p = 0 and 1.

    Equality with series_gamma(2) is what the verification suite checks.
    """
    return _reassemble("G", 2)


def assemble_delta2() -> PeriodicSeries:
    """Rebuild the delta column at p = 2 from columns at p = 0 and 1."""
    return _reassemble("D", 2)
