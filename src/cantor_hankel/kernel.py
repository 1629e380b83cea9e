"""Closure of the mod-3 determinant table under base-3 index splitting.

The object manipulated here is a symbolic polynomial over GF(3) whose
variables are shifted copies of three two-parameter streams:

* G: (n, p) -> gamma_mod3(n, p),
* D: (n, p) -> delta_mod3(n, p),
* F: (n, p) -> (-1)**n as a mod-3 residue.

A generator is S[a,b]J, the stream J read at (n + a, p + b); a stays in
{-1, 0, 1, 2} and b in {0, 1, 2}, which is closed under everything the
splitting produces.  F only depends on the parity of a, so its shifts
normalize to a in {0, 1}.

apply_t(i, j, e) rewrites "evaluate e at (3n + i, 3p + j)" as another
polynomial in shifted streams, using the eighteen splitting identities
for G and D; a shifted generator splits by one of them read at an
offset.  Monomial exponents are capped with
x**3 = x, which every GF(3)-valued stream satisfies pointwise.  Every
polynomial, closure states included, is held packed: each monomial is
two bitmasks over the generators.  The closure takes all nine digit
steps of a state in one pass, reading the nine images of each monomial
as the products of the memoised images of its G part and its D/F part.

Iterating apply_t from a single stream and collecting distinct normal
forms gives a finite closure: the states of a deterministic automaton
with output that reads the base-3 digits of n and p in parallel, least
significant first, and lands on a state whose value at (0, 0) is the
table entry.  build_dfao packages that automaton; export/parse give it
a stable on-disk form.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Hashable, Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import TypeVar

import numpy as np

from . import engine

Generator = tuple[str, int, int]
Monomial = tuple[tuple[Generator, int], ...]

# Largest closure the breadth-first search will accept before giving up.
DEFAULT_STATE_CAP = 1_000_000


def _norm_generator(sym: str, a: int, b: int) -> Generator:
    if sym == "F":
        return ("F", a % 2, 0)
    if sym not in ("G", "D"):
        raise ValueError(f"unknown stream symbol {sym!r}")
    if not (-1 <= a <= 2 and 0 <= b <= 2):
        raise ValueError(f"shift ({a}, {b}) leaves the closed generator family")
    return (sym, a, b)


# Packed polynomials.  The 26 generators, in sorted order, number the
# bits of a packed monomial, an int holding two masks: bit k says that
# generator k has exponent 1, bit k + 26 that it has exponent 2.  A packed
# polynomial is the sorted tuple of its (monomial, coefficient) pairs, with
# coefficients nonzero mod 3, so equal polynomials are equal tuples.
_GENERATORS: tuple[Generator, ...] = tuple(sorted(
    [(sym, a, b) for sym in ("G", "D") for a in range(-1, 3) for b in range(3)]
    + [("F", 0, 0), ("F", 1, 0)]))
_WIDTH = len(_GENERATORS)
_LOW = (1 << _WIDTH) - 1
_BIT = {g: k for k, g in enumerate(_GENERATORS)}

Packed = tuple[tuple[int, int], ...]
_ONE: Packed = ((0, 1),)


def _mono_product(x: int, y: int) -> int:
    # With x**3 = x an exponent sum is 1 exactly when it is odd, and any
    # other nonzero sum folds to 2.
    odd = (x ^ y) & _LOW
    present = (x | y | ((x | y) >> _WIDTH)) & _LOW
    return odd | ((present & ~odd) << _WIDTH)


def _reduce(counter: dict[int, int]) -> Packed:
    return tuple(sorted((m, c % 3) for m, c in counter.items() if c % 3))


def _poly_mul(p: Packed, q: Packed) -> Packed:
    counter: dict[int, int] = {}
    for x, c in p:
        for y, d in q:
            m = _mono_product(x, y)
            counter[m] = counter.get(m, 0) + c * d
    return _reduce(counter)


@dataclass(frozen=True)
class KernelExpr:
    """Canonical polynomial over shifted streams, held packed; hashable,
    so usable as an automaton state."""

    poly: Packed

    @property
    def terms(self) -> tuple[tuple[Monomial, int], ...]:
        """The polynomial as sorted ((generator, exponent), ...) monomials
        with their coefficients."""
        return tuple(sorted(
            (tuple((g, 1 if key >> k & 1 else 2) for k, g in enumerate(_GENERATORS)
                   if key >> k & 1 or key >> (k + _WIDTH) & 1), coeff)
            for key, coeff in self.poly))

    def __str__(self) -> str:
        def gen_str(g: Generator, e: int) -> str:
            sym, a, b = g
            core = sym if (a, b) == (0, 0) else f"S[{a},{b}]{sym}"
            return core if e == 1 else f"{core}^{e}"

        parts = []
        for mono, coeff in self.terms:
            body = "*".join(gen_str(g, e) for g, e in mono) or "1"
            parts.append(body if coeff == 1 else f"{coeff}*{body}")
        return " + ".join(parts) or "0"


def generator_expr(sym: str, a: int = 0, b: int = 0) -> KernelExpr:
    return KernelExpr(((1 << _BIT[_norm_generator(sym, a, b)], 1),))


GAMMA = generator_expr("G")
DELTA = generator_expr("D")


def _rule_poly(rule: engine.Rule, da: int = 0, db: int = 0) -> Packed:
    """A splitting identity read at (n + da, p + db), packed.

    Signs ride along as F factors, so every monomial has coefficient 1
    before like monomials are collected.
    """
    counter: dict[int, int] = {}
    for shift, factors in rule:
        key = 1 << _BIT[_norm_generator("F", shift + da, 0)]
        for sym, a, b, e in factors:
            bit = 1 << _BIT[_norm_generator(sym, a + da, b + db)]
            for _ in range(e):
                key = _mono_product(key, bit)
        counter[key] = counter.get(key, 0) + 1
    return _reduce(counter)


def _split_generator(i: int, j: int, gen: Generator) -> Packed:
    """Rewrite one generator read at (3n + i, 3p + j) over (n, p).

    S[a,b]J there is J at (3(n + da) + di, 3(p + db) + dj), where
    (da, di) = divmod(i + a, 3) and (db, dj) = divmod(j + b, 3): the
    splitting identity (di, dj, J) read at (n + da, p + db).  F keeps
    only the parity of its row, n + da + di.
    """
    sym, a, b = gen
    da, di = divmod(i + a, 3)
    db, dj = divmod(j + b, 3)
    if sym == "F":
        return generator_expr("F", da + di, 0).poly
    return _rule_poly(engine.SPLIT_RULES[di, dj, sym], da, db)


_DIGIT_PAIRS = [(i, j) for i in range(3) for j in range(3)]


# The bits of the G generators in both masks.  A monomial splits into its
# G part and its D/F part, and monomials share parts: the 756 monomials
# of the gamma closure have 70 G parts and 175 D/F parts.
_G_BITS = sum(1 << _BIT[g] for g in _GENERATORS if g[0] == "G") * (1 | 1 << _WIDTH)


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

    @property
    def memoised(self) -> int:
        """Monomial images memoised, one per monomial and digit pair."""
        return len(_DIGIT_PAIRS) * len(self._monomials)

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
        """apply_t with each digit pair, in the order of _DIGIT_PAIRS."""
        counters: list[dict[int, int]] = [{} for _ in _DIGIT_PAIRS]
        for key, coeff in poly:
            for counter, image in zip(counters, self._images(key)):
                for m, c in image:
                    counter[m] = counter.get(m, 0) + coeff * c
        return [_reduce(counter) for counter in counters]


def apply_t(i: int, j: int, expr: KernelExpr) -> KernelExpr:
    """The digit step: rewrite expr read at (3n + i, 3p + j) over (n, p)."""
    if not (0 <= i <= 2 and 0 <= j <= 2):
        raise ValueError("digits must lie in {0, 1, 2}")
    return KernelExpr(_DigitStep().successors(expr.poly)[3 * i + j])


def _parity(x: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each 32-bit entry, by xor folding."""
    for shift in (16, 8, 4, 2, 1):
        x = x ^ (x >> shift)
    return x & 1


def evaluate_states(states: Sequence[KernelExpr], window: int) -> np.ndarray:
    """Values mod 3 of every state at every point (n, p), n and p in
    0..window, as an int8 array with one row per state and one column
    per point, n-major: the layout of engine.witness_lattices.

    Each G or D generator that occurs in some state is a slice of one
    engine.tables rectangle over rows -1 .. window + 2 and columns
    0 .. window + 2, and F is read off the parity of n.  A monomial
    vanishes where one of its generators is 0; elsewhere a square is 1
    and a first power is 1 or 2 = -1, so the monomial is its
    coefficient times 2 to the parity of its first powers equal to 2.
    Gamma has no row -1, so a state that reads S[-1,b]G is refused.
    """
    if window < 0:
        raise ValueError(f"need window >= 0, got {window}")
    owner = np.repeat(np.arange(len(states)), [len(s.poly) for s in states])
    keys = [key for s in states for key, _ in s.poly]
    coeffs = np.array([c for s in states for _, c in s.poly], dtype=np.int8)
    low = np.array([key & _LOW for key in keys], dtype=np.uint32)
    present = low | np.array([key >> _WIDTH for key in keys], dtype=np.uint32)
    occurring = int(np.bitwise_or.reduce(present))
    size = window + 1
    base = dict(zip("GD", engine.tables(-1, window + 2, 0, window + 2)))
    zero = np.zeros((size, size), dtype=np.uint32)
    neg = np.zeros((size, size), dtype=np.uint32)
    for k, (sym, a, b) in enumerate(_GENERATORS):
        if not occurring >> k & 1:
            continue
        if sym == "F":
            values = 1 + (np.arange(size)[:, None] + a) % 2
        elif sym == "G" and a < 0:
            raise ValueError(f"S[{a},{b}]G reads gamma at row -1, which does not exist")
        else:
            values = base[sym][a + 1:a + 1 + size, b:b + size]
        zero |= (values == 0).astype(np.uint32) << k
        neg |= (values == 2).astype(np.uint32) << k
    out = np.empty((len(states), size * size), dtype=np.int8)
    for col, (z, g) in enumerate(zip(zero.ravel().tolist(), neg.ravel().tolist())):
        terms = np.where(present & z, 0, coeffs * (1 + _parity(low & g)))
        out[:, col] = np.bincount(owner, weights=terms, minlength=len(states)) % 3
    return out


@dataclass(frozen=True)
class Closure:
    """All normal forms reachable from a start stream under digit steps.

    states are in discovery order (breadth first, digit pairs in
    lexicographic order), so the layout is deterministic.  witnesses[k]
    is a triple (m, r, s) certifying how state k was first reached:
    digits of r and s (least significant first, m of them) applied to
    the start stream, so state k evaluated at (n, p) equals the start
    stream at (3**m * n + r, 3**m * p + s).
    """

    start: KernelExpr
    states: tuple[KernelExpr, ...]
    witnesses: tuple[tuple[int, int, int], ...]
    transitions: tuple[tuple[int, ...], ...]


_State = TypeVar("_State", bound=Hashable)


def _explore(root: _State, successors: Callable[[_State], Iterable[_State]],
             cap: int) -> tuple[list[_State], list[tuple[int, ...]]]:
    """Breadth-first search from root.

    Returns the states in discovery order and, for each, the indices of
    its successors in the order successors(state) yields them.  Raises
    once more than cap states appear.
    """
    index = {root: 0}
    states = [root]
    rows: list[tuple[int, ...]] = []
    # The loop also visits the states appended while it runs.
    for state in states:
        row = []
        for nxt in successors(state):
            k = index.get(nxt)
            if k is None:
                k = len(states)
                if k >= cap:
                    raise RuntimeError(f"closure exceeded the cap of {cap} states")
                index[nxt] = k
                states.append(nxt)
            row.append(k)
        rows.append(tuple(row))
    return states, rows


def kernel_closure(start: str = "gamma", cap: int = DEFAULT_STATE_CAP) -> Closure:
    """Breadth-first closure from "gamma" or "delta" under all nine digit
    steps; raises if more than cap states appear."""
    if cap < 1:
        raise ValueError(f"the state cap must be a positive integer, got {cap}")
    return _closure_cached(start, cap)


# Closures are immutable and take a while to build, so cache per process.
# The search runs on packed polynomials; its memos go when it returns.
@lru_cache(maxsize=8)
def _closure_cached(start: str, cap: int) -> Closure:
    root = {"gamma": GAMMA, "delta": DELTA}.get(start)
    if root is None:
        raise ValueError(f"unknown start stream {start!r}")
    began = time.perf_counter()
    digit_step = _DigitStep()
    states, rows = _explore(root.poly, digit_step.successors, cap)
    # A state is first reached from the first row that names it, by the
    # digit pair at its first place there.
    witnesses = [(0, 0, 0)]
    for parent, row in enumerate(rows):
        m, r, s = witnesses[parent]
        for (i, j), k in zip(_DIGIT_PAIRS, row):
            if k == len(witnesses):
                witnesses.append((m + 1, r + 3 ** m * i, s + 3 ** m * j))
    closure = Closure(root, tuple(KernelExpr(state) for state in states),
                      tuple(witnesses), tuple(rows))
    # Imported here: logging adds about 5 ms to importing the package,
    # and only a build writes a record.
    import logging
    logging.getLogger(__name__).debug(
        "closure from %s: %d states, %d monomial images memoised, %.3f s",
        start, len(states), digit_step.memoised, time.perf_counter() - began)
    return closure


@dataclass(frozen=True)
class Dfao2D:
    """Deterministic automaton with output over paired base-3 digits.

    evaluate(n, p) feeds the digits of n and p least significant first
    (the shorter number padded with zeros) and returns the output of
    the final state.  A parsed export compares equal to its source.
    """

    start: int
    outputs: tuple[int, ...]
    transitions: tuple[tuple[int, ...], ...]

    @property
    def n_states(self) -> int:
        return len(self.outputs)

    def step(self, state: int, digit_n: int, digit_p: int) -> int:
        return self.transitions[state][3 * digit_n + digit_p]

    def evaluate(self, n: int, p: int) -> int:
        if n < 0 or p < 0:
            raise ValueError("need n >= 0 and p >= 0")
        state = self.start
        while n or p:
            n, dn = divmod(n, 3)
            p, dp = divmod(p, 3)
            state = self.step(state, dn, dp)
        return self.outputs[state]


def build_dfao(start: str = "gamma") -> Dfao2D:
    """Automaton whose state set is the digit-step closure and whose
    outputs are the state polynomials evaluated at (0, 0)."""
    closure = kernel_closure(start)
    outputs = tuple(evaluate_states(closure.states, 0)[:, 0].tolist())
    return Dfao2D(0, outputs, closure.transitions)


def export_dfao(dfao: Dfao2D, fmt: str = "table") -> str:
    if fmt == "table":
        lines = ["dfao2d base3 lsd-first",
                 f"states {dfao.n_states}",
                 f"start {dfao.start}",
                 "outputs " + " ".join(str(o) for o in dfao.outputs)]
        for state, row in enumerate(dfao.transitions):
            for (i, j), target in zip(_DIGIT_PAIRS, row):
                lines.append(f"trans {state} {i} {j} {target}")
        return "\n".join(lines) + "\n"
    if fmt == "dot":
        lines = ["digraph dfao2d {", "  rankdir=LR;"]
        for state, out in enumerate(dfao.outputs):
            shape = "doublecircle" if state == dfao.start else "circle"
            lines.append(f'  s{state} [label="s{state}/{out}", shape={shape}];')
        for state, row in enumerate(dfao.transitions):
            by_target: dict[int, list[str]] = {}
            for (i, j), target in zip(_DIGIT_PAIRS, row):
                by_target.setdefault(target, []).append(f"{i}{j}")
            for target in sorted(by_target):
                label = ",".join(by_target[target])
                lines.append(f'  s{state} -> s{target} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown export format {fmt!r}")


def parse_dfao_table(text: str) -> Dfao2D:
    """Inverse of export_dfao(..., "table").

    Raises ValueError, naming the line, on an entry that is not an
    integer, out of range or repeated, and on a missing line.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split() != ["dfao2d", "base3", "lsd-first"]:
        raise ValueError("not a dfao2d table export")
    header: dict[str, tuple[str, list[int] | None]] = {}
    body = []
    for ln in lines[1:]:
        key, *tokens = ln.split()
        numeric = all(t.removeprefix("-").isdecimal() for t in tokens)
        entry = (ln, [int(t) for t in tokens] if numeric else None)
        if key == "trans":
            body.append(entry)
        elif key in ("states", "start", "outputs") and key not in header:
            header[key] = entry
        else:
            raise ValueError(f"unexpected or repeated line {ln!r}")

    def field(key: str, valid: Callable[[list[int]], bool]) -> list[int]:
        if key not in header:
            raise ValueError(f"no {key} line")
        ln, values = header[key]
        if values is None or not valid(values):
            raise ValueError(f"malformed or out-of-range line {ln!r}")
        return values

    (n_states,) = field("states", lambda v: len(v) == 1 and v[0] >= 1)
    (start,) = field("start", lambda v: len(v) == 1 and 0 <= v[0] < n_states)
    outputs = field("outputs", lambda v: len(v) == n_states and all(0 <= o < 3 for o in v))
    bounds = (n_states, 3, 3, n_states)
    grid = [[-1] * 9 for _ in range(n_states)]
    for ln, v in body:
        if v is None or len(v) != 4 or not all(0 <= x < b for x, b in zip(v, bounds)):
            raise ValueError(f"malformed or out-of-range line {ln!r}")
        state, i, j, target = v
        if grid[state][3 * i + j] >= 0:
            raise ValueError(f"repeated transition in line {ln!r}")
        grid[state][3 * i + j] = target
    if any(-1 in row for row in grid):
        raise ValueError("transition table is incomplete")
    return Dfao2D(start, tuple(outputs), tuple(tuple(row) for row in grid))


@dataclass(frozen=True)
class Dfao1D:
    """One-dimensional projection: digits of p only, n frozen."""

    start: int
    outputs: tuple[int, ...]
    transitions: tuple[tuple[int, int, int], ...]

    def evaluate(self, p: int) -> int:
        if p < 0:
            raise ValueError("need p >= 0")
        state = self.start
        while p:
            p, d = divmod(p, 3)
            state = self.transitions[state][d]
        return self.outputs[state]


def project_row(dfao: Dfao2D, n: int) -> Dfao1D:
    """Specialize the paired automaton to a fixed n.

    States are pairs (2-D state, digits of n consumed so far); once the
    digits of n are exhausted the n-track pads with zeros, so the
    second component saturates.  The output of a pair is the state's
    value at (n // 3**consumed, 0): the automaton run from the state over
    the unconsumed digits of n, each paired with 0.  Only the automaton
    is read, so a parsed export projects too.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    digits = []
    rest = n
    while rest:
        rest, d = divmod(rest, 3)
        digits.append(d)
    depth = len(digits)

    def successors(pair: tuple[int, int]) -> list[tuple[int, int]]:
        state, consumed = pair
        dn = digits[consumed] if consumed < depth else 0
        nxt_consumed = min(consumed + 1, depth)
        return [(dfao.step(state, dn, dp), nxt_consumed) for dp in range(3)]

    # There are at most n_states * (depth + 1) pairs, so the cap never bites.
    pairs, rows = _explore((dfao.start, 0), successors, dfao.n_states * (depth + 1))
    outputs = []
    for state, consumed in pairs:
        for dn in digits[consumed:]:
            state = dfao.step(state, dn, 0)
        outputs.append(dfao.outputs[state])
    return Dfao1D(0, tuple(outputs), tuple(rows))
