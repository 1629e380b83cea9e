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

The digit step (i, j) rewrites "evaluate e at (3n + i, 3p + j)" as
another polynomial in shifted streams, using the eighteen splitting
identities for G and D; a shifted generator splits by one of them read
at an offset.  Monomial exponents are capped with
x**3 = x, which every GF(3)-valued stream satisfies pointwise.  Every
polynomial, closure states included, is held packed: each monomial is
two bitmasks over the generators.

The nine digit steps together are one sparse linear map over GF(3) on
monomials, and the closure applies it to a whole breadth-first level at
a time with numpy: a polynomial is a row of its ascending terms, each
monomial * 4 + coefficient in one int64, the nine images of each
monomial are rows of one store of part images, a monomial being the
product of its G part and its D/F part, and the successors of a chunk
of states are one gather of image rows reduced by one sort.
evaluate_states reads states over a window of points through two int8
matrix products of the distinct monomials' bits with the generators'
zero and -1 masks: both closures at window 8 take about 7-10 ms on a
2-core VM.

Iterating the digit steps from a single stream and collecting distinct
normal forms gives a finite closure: the states of a deterministic
automaton with output that reads the base-3 digits of n and p in
parallel, least significant first, and lands on a state whose value at
(0, 0) is the table entry.  build_dfao packages that automaton; export/parse give it
a stable on-disk form.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property

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

# Frontier states expanded together hold about this many monomials, so
# the arrays of one batch of successors stay a few hundred kilobytes.
_CHUNK_TERMS = 256


def _nine(slots: np.ndarray) -> np.ndarray:
    """Rows 9 * slot + d of a store, d over the nine digit pairs."""
    return (9 * slots[:, None] + np.arange(9)).ravel()


def _ragged(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Indices of the slices [starts[k], starts[k] + lens[k]), concatenated."""
    ends = np.cumsum(lens)
    return np.repeat(starts - ends + lens, lens) + np.arange(ends[-1] if len(ends) else 0)


@dataclass(frozen=True)
class _Rows:
    """Packed polynomials, one per row, stored CSR: row k has the terms
    terms[indptr[k]:indptr[k + 1]], each monomial * 4 + coefficient with
    coefficient 1 or 2, ascending, so in monomial order."""

    indptr: np.ndarray
    terms: np.ndarray

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def take(self, rows: np.ndarray | list[int]) -> _Rows:
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        lens = self.indptr[rows + 1] - starts
        return _Rows(np.concatenate(([0], np.cumsum(lens))), self.terms[_ragged(starts, lens)])

    def forms(self) -> list[bytes]:
        """Each row as the bytes of its terms: equal rows, and only they,
        give equal bytes."""
        packed = self.terms.tobytes()
        bounds = (self.indptr * 8).tolist()
        return list(map(packed.__getitem__, map(slice, bounds, bounds[1:])))

    @staticmethod
    def concat(blocks: Sequence[_Rows]) -> _Rows:
        ends = np.cumsum([len(b.terms) for b in blocks])
        return _Rows(np.concatenate([[0]] + [b.indptr[1:] + end - len(b.terms)
                                             for b, end in zip(blocks, ends)]),
                     np.concatenate([b.terms for b in blocks]))


_NO_ROWS = _Rows(np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64))


def _collect(rows: np.ndarray, keys: np.ndarray, coeffs: np.ndarray, n_rows: int) -> _Rows:
    """Sum the terms (row, packed monomial, coefficient) of n_rows
    polynomials mod 3: the batch's monomials are ranked, and one sort of
    (row, rank) * 4 + coefficient brings like terms together."""
    unique, rank = np.unique(keys, return_inverse=True)
    size = len(unique)
    order = np.sort((rows.astype(np.int64) * size + rank) * 4 + coeffs)
    first = np.flatnonzero(np.diff(order >> 2, prepend=-1))
    sums = np.add.reduceat(order & 3, first) % 3 if len(order) else order
    cells = (order[first] >> 2)[sums != 0]
    return _Rows(np.searchsorted(cells // size, np.arange(n_rows + 1)),
                 unique[cells % size] * 4 + sums[sums != 0])


def _to_rows(polys: Sequence[Packed]) -> _Rows:
    """Packed polynomials as rows, like monomials summed mod 3."""
    keys = np.array([key for poly in polys for key, _ in poly], dtype=np.int64)
    coeffs = np.array([c for poly in polys for _, c in poly], dtype=np.int64)
    owner = np.repeat(np.arange(len(polys)), [len(poly) for poly in polys])
    return _collect(owner, keys, coeffs, len(polys))


def _to_packed(polys: _Rows) -> list[Packed]:
    """Rows as packed polynomials."""
    terms = list(zip((polys.terms >> 2).tolist(), (polys.terms & 3).tolist()))
    bounds = polys.indptr.tolist()
    return [tuple(terms[a:b]) for a, b in zip(bounds, bounds[1:])]


class _Stepper:
    """The nine digit steps, taken together, as a sparse linear map over
    GF(3) on monomials.

    A digit step is a ring homomorphism, so the image of a product is
    the product of the images.  One store holds the nine images of every
    part, rows 9 * slot + d, for as long as this object, and a monomial
    is a part: one with G bits and D/F bits is its G part times its D/F
    part, and any other is the part without its lowest bit times that
    bit, a generator, read off _split_generator, or a square.  Every
    batch of products is one ragged cartesian product over the terms,
    reduced by _collect.  A packed monomial uses 52 bits, so a term is
    one int64, and no array mixes signed and unsigned integers.
    """

    def __init__(self) -> None:
        self._part_slot: dict[int, int] = {}
        self._parts = _NO_ROWS
        self._add_parts([0], _to_rows([_ONE] * len(_DIGIT_PAIRS)))

    @property
    def memoised(self) -> int:
        """Part images memoised, nine per part, monomials included."""
        return len(self._parts)

    def _products(self, lrows: np.ndarray, rrows: np.ndarray) -> _Rows:
        """Row k is row lrows[k] of the part store times its row rrows[k]."""
        parts = self._parts
        lstart, rstart = parts.indptr[lrows], parts.indptr[rrows]
        rlen = parts.indptr[rrows + 1] - rstart
        sizes = (parts.indptr[lrows + 1] - lstart) * rlen
        owner = np.repeat(np.arange(len(sizes)), sizes)
        at = _ragged(np.zeros_like(sizes), sizes)
        width = rlen[owner]
        x = parts.terms[lstart[owner] + at // width]
        y = parts.terms[rstart[owner] + at % width]
        return _collect(owner, _mono_product(x >> 2, y >> 2), (x & 3) * (y & 3) % 3, len(sizes))

    def _add_parts(self, parts: list[int], images: _Rows) -> None:
        for part in parts:
            self._part_slot[part] = len(self._part_slot)
        self._parts = _Rows.concat([self._parts, images])

    def _part_rows(self, parts: list[int]) -> np.ndarray:
        """The store rows of the nine images of each part.

        Missing parts are built a popcount at a time: a part with G bits
        and D/F bits as its G part times its D/F part, any other as the
        part without its lowest bit times that bit; a generator's images
        are read off _split_generator, and a square's are theirs squared.
        """
        factors: dict[int, tuple[int, int] | None] = {}
        todo = list(parts)
        while todo:
            part = todo.pop()
            if part in self._part_slot or part in factors:
                continue
            bit = part & -part
            if part & _G_BITS and part & ~_G_BITS:
                factors[part] = (part & _G_BITS, part & ~_G_BITS)
            elif bit != part:
                factors[part] = (part ^ bit, bit)
            elif bit > _LOW:
                factors[part] = (bit >> _WIDTH, bit >> _WIDTH)
            else:
                factors[part] = None
            todo.extend(factors[part] or ())
        gens = [part for part, pair in factors.items() if pair is None]
        if gens:
            self._add_parts(gens, _to_rows([
                _split_generator(i, j, _GENERATORS[part.bit_length() - 1])
                for part in gens for i, j in _DIGIT_PAIRS]))
        for count in sorted({part.bit_count() for part, pair in factors.items() if pair}):
            batch = [part for part, pair in factors.items() if pair and part.bit_count() == count]
            lefts = self._slot_rows([factors[part][0] for part in batch])
            rights = self._slot_rows([factors[part][1] for part in batch])
            self._add_parts(batch, self._products(lefts, rights))
        return self._slot_rows(parts)

    def _slot_rows(self, parts: list[int]) -> np.ndarray:
        return _nine(np.array([self._part_slot[part] for part in parts], dtype=np.int64))

    def image_rows(self, states: _Rows) -> np.ndarray:
        """The store rows of the nine images of each monomial of states,
        a monomial being a part, building those missing in one batch."""
        return self._part_rows((states.terms >> 2).tolist())

    def successors(self, states: _Rows) -> _Rows:
        """The nine digit steps of each state: row 9 * k + d is state k
        read at (3n + i, 3p + j), (i, j) the d-th pair of _DIGIT_PAIRS."""
        rows = self.image_rows(states)
        starts = self._parts.indptr[rows]
        lens = self._parts.indptr[rows + 1] - starts
        images = self._parts.terms[_ragged(starts, lens)]
        owner = np.repeat(np.arange(len(states)), np.diff(states.indptr))
        targets = np.repeat(_nine(owner), lens)
        coeffs = np.repeat(np.repeat(states.terms & 3, 9), lens) * (images & 3) % 3
        return _collect(targets, images >> 2, coeffs, 9 * len(states))


def evaluate_states(states: Sequence[KernelExpr], window: int) -> np.ndarray:
    """Values mod 3 of every state at every point (n, p), n and p in
    0..window, as an int8 array with one row per state and one column
    per point, n-major: the layout of engine.witness_lattices.

    Each G or D generator that occurs in some state is a slice of one
    engine.tables rectangle over rows -1 .. window + 2 and columns
    0 .. window + 2, and F is read off the parity of n.  A monomial
    vanishes where one of its generators is 0; elsewhere a square is 1
    and a first power is 1 or 2 = -1, so the monomial is 2 to the
    parity of its first powers equal to 2.  Both counts are int8 matrix
    products of the distinct monomials' key bits with the generators'
    masks, exact since they are at most 26.  A state sums its terms one
    position at a time.  Gamma has no row -1, so a state that reads
    S[-1,b]G is refused.  So is an output of more than
    engine.DEFAULT_GRID_CELL_CAP cells, states times (window + 1)**2,
    before any work.
    """
    if window < 0:
        raise ValueError(f"need window >= 0, got {window}")
    engine._check_cells("output", len(states) * (window + 1) ** 2)
    lens = np.array([len(s.poly) for s in states], dtype=np.int64)
    keys = np.array([key for s in states for key, _ in s.poly], dtype="<i8")
    coeffs = np.array([c for s in states for _, c in s.poly], dtype=np.int64)
    unique, inverse = np.unique(keys, return_inverse=True)
    bits = np.unpackbits(unique.view(np.uint8).reshape(-1, 8), axis=1, count=2 * _WIDTH,
                         bitorder="little").view(np.int8)
    first = bits[:, :_WIDTH]
    present = first | bits[:, _WIDTH:]
    size = window + 1
    base = dict(zip("GD", engine.tables(-1, window + 2, 0, window + 2)))
    # Each generator's values at the points, n-major; 1 where none occurs.
    values = np.ones((_WIDTH, size * size), dtype=np.int8)
    for k in np.flatnonzero(present.any(axis=0)).tolist():
        sym, a, b = _GENERATORS[k]
        if sym == "F":
            values[k] = np.repeat(1 + (np.arange(size) + a) % 2, size)
        elif sym == "G" and a < 0:
            raise ValueError(f"S[{a},{b}]G reads gamma at row -1, which does not exist")
        else:
            values[k] = base[sym][a + 1:a + 1 + size, b:b + size].ravel()
    # np.einsum, unlike BLAS float products, allocates no work buffers.
    zeros = np.einsum("uk,kp->up", present, (values == 0).view(np.int8))
    twos = np.einsum("uk,kp->up", first, (values == 2).view(np.int8))
    monomials = np.where(zeros == 0, 1 << (twos & 1), 0).astype(np.int8)
    # Rows of the monomials times 1 and times 2, then a zero row, and each
    # state's terms as row numbers, padded with the zero row.
    table = np.concatenate((monomials, 2 * monomials, np.zeros((1, size * size), np.int8)))
    terms = np.full((len(states), lens.max(initial=0)), len(table) - 1)
    terms[np.arange(terms.shape[1]) < lens[:, None]] = inverse + len(unique) * (coeffs - 1)
    out = np.zeros((len(states), size * size), dtype=np.int32)
    for rows in terms.T:
        out += table[rows]
    return (out % 3).astype(np.int8)


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


_CLOSURES: dict[str, Closure] = {}


def kernel_closure(start: str = "gamma", cap: int = DEFAULT_STATE_CAP) -> Closure:
    """Breadth-first closure from "gamma" or "delta" under all nine digit
    steps; raises if more than cap states appear.

    Closures are immutable and take a while to build, so each start's
    closure is built once per process: a later cap reads it if it holds
    every state.  A build stops at its cap, so the cap bounds the work.
    """
    if cap < 1:
        raise ValueError(f"the state cap must be a positive integer, got {cap}")
    closure = _CLOSURES.get(start)
    if closure is None:
        # Racing builds of one start yield equal closures.
        closure = _CLOSURES[start] = _build_closure(start, cap)
    elif len(closure.states) > cap:
        raise RuntimeError(f"closure exceeded the cap of {cap} states")
    return closure


def _build_closure(start: str, cap: int) -> Closure:
    """The breadth-first closure, one level at a time.

    Each chunk of a level is stepped in one batch, and its successors
    are numbered in (parent, digit pair) order, so states, transitions
    and witnesses come out as a state-by-state search makes them.  A
    state is known by the bytes of its terms, and becomes a packed tuple
    only at the end.
    """
    root = {"gamma": GAMMA, "delta": DELTA}.get(start)
    if root is None:
        raise ValueError(f"unknown start stream {start!r}")
    began = time.perf_counter()
    stepper = _Stepper()
    frontier = _to_rows([root.poly])
    levels = [frontier]
    index = {frontier.forms()[0]: 0}
    witnesses = [(0, 0, 0)]
    rows: list[tuple[int, ...]] = []

    def number(nexts: _Rows) -> _Rows:
        """Number the successors of the next parents; return the new states."""
        forms = nexts.forms()
        targets = np.array(list(map(index.get, forms, itertools.repeat(-1))))
        fresh = []
        for at in np.flatnonzero(targets < 0).tolist():
            target = targets[at] = index.setdefault(forms[at], len(index))
            if target == len(witnesses):
                if target >= cap:
                    raise RuntimeError(f"closure exceeded the cap of {cap} states")
                m, r, s = witnesses[len(rows) + at // 9]
                i, j = _DIGIT_PAIRS[at % 9]
                witnesses.append((m + 1, r + 3 ** m * i, s + 3 ** m * j))
                fresh.append(at)
        rows.extend(zip(*[iter(targets.tolist())] * 9))
        return nexts.take(fresh)

    while len(frontier):
        # The images of the level's monomials, built in one batch.
        stepper.image_rows(frontier)
        # Each chunk holds about _CHUNK_TERMS monomials, each of which
        # gathers nine image rows.
        ends = np.searchsorted(frontier.indptr, np.arange(
            _CHUNK_TERMS, frontier.indptr[-1], _CHUNK_TERMS))
        chunks = [chunk for chunk in np.split(np.arange(len(frontier)), ends) if len(chunk)]
        frontier = _Rows.concat([number(stepper.successors(frontier.take(chunk)))
                                 for chunk in chunks])
        levels.append(frontier)
    states = _to_packed(_Rows.concat(levels))
    closure = Closure(root, tuple(map(KernelExpr, states)), tuple(witnesses), tuple(rows))
    # Imported here: logging adds about 5 ms to importing the package,
    # and only a build writes a record.
    import logging
    logging.getLogger(__name__).debug(
        "closure from %s: %d states, %d part images memoised, %.3f s",
        start, len(states), stepper.memoised, time.perf_counter() - began)
    return closure


@dataclass(frozen=True)
class Dfao2D:
    """Deterministic automaton with output over paired base-3 digits.

    evaluate(n, p) feeds the digits of n and p least significant first
    (the shorter number padded with zeros) and returns the final state's
    output, elementwise on arrays.  A parsed export equals its source.
    """

    start: int
    outputs: tuple[int, ...]
    transitions: tuple[tuple[int, ...], ...]

    @property
    def n_states(self) -> int:
        return len(self.outputs)

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self.transitions, np.intp), np.array(self.outputs)

    def evaluate(self, n, p):
        shape, p_shape = np.shape(n), np.shape(p)
        # 1-d: numpy turns 0-d object arithmetic (past int64) into ints.
        n, p = np.array(n, ndmin=1).ravel(), np.array(p, ndmin=1).ravel()
        if shape != p_shape or not {n.dtype.kind, p.dtype.kind} <= set("iuO"):
            raise ValueError("need integer n and p of one shape")
        if (n < 0).any() or (p < 0).any():
            raise ValueError("need n >= 0 and p >= 0")
        table, outputs = self._arrays
        state, live = np.full(n.size, self.start, np.intp), np.arange(n.size)
        # One gather per digit level over the entries with digits left.
        while live.size:
            more = (n != 0) | (p != 0)
            live, n, p = live[more], n[more], p[more]
            state[live] = table[state[live], (3 * (n % 3) + p % 3).astype(np.intp)]
            n, p = n // 3, p // 3
        return outputs[state].reshape(shape) if shape else int(outputs[state[0]])


def build_dfao(start: str = "gamma") -> Dfao2D:
    """Automaton whose state set is the digit-step closure and whose
    outputs are the state polynomials evaluated at (0, 0)."""
    closure = kernel_closure(start)
    outputs = tuple(evaluate_states(closure.states, 0)[:, 0].tolist())
    return Dfao2D(0, outputs, closure.transitions)


def minimise(dfao: Dfao2D) -> Dfao2D:
    """The minimal automaton of dfao, by Moore partition refinement.

    States start in one class per output; each round splits a class by
    the classes its nine successors lie in, until a round splits none.
    The classes reachable from the start are then numbered breadth first
    over _DIGIT_PAIRS, the start 0, so equal automata minimise to equal
    tables.  Each 1632-state closure automaton minimises to 60 states.
    """
    classes = list(dfao.outputs)
    count = len(set(classes))
    while True:
        index: dict[tuple[int, ...], int] = {}
        classes = [index.setdefault((c,) + tuple(classes[t] for t in row), len(index))
                   for c, row in zip(classes, dfao.transitions)]
        if len(index) == count:
            break
        count = len(index)
    member = {c: state for state, c in enumerate(classes)}
    number = {classes[dfao.start]: 0}
    order = [classes[dfao.start]]
    # The loop also visits the classes appended while it runs.
    for c in order:
        for target in dfao.transitions[member[c]]:
            if classes[target] not in number:
                number[classes[target]] = len(order)
                order.append(classes[target])
    return Dfao2D(0, tuple(dfao.outputs[member[c]] for c in order),
                  tuple(tuple(number[classes[t]] for t in dfao.transitions[member[c]])
                        for c in order))


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
    is read, so a parsed export projects too.  That walk makes the work
    grow with the square of the digits of n, so n may have at most
    engine.MAX_INDEX_DIGITS of them, as for a cell.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    engine._check_digits(n, 0)
    digits = [int(d) for d in reversed(np.base_repr(n, 3))] if n else []
    depth = len(digits)
    index = {(dfao.start, 0): 0}
    pairs = [(dfao.start, 0)]
    rows: list[tuple[int, ...]] = []
    # The loop also visits the pairs appended while it runs.
    for state, consumed in pairs:
        dn = digits[consumed] if consumed < depth else 0
        row = []
        for dp in range(3):
            nxt = (dfao.transitions[state][3 * dn + dp], min(consumed + 1, depth))
            if nxt not in index:
                index[nxt] = len(pairs)
                pairs.append(nxt)
            row.append(index[nxt])
        rows.append(tuple(row))
    outputs = []
    for state, consumed in pairs:
        for dn in digits[consumed:]:
            state = dfao.transitions[state][3 * dn]
        outputs.append(dfao.outputs[state])
    return Dfao1D(0, tuple(outputs), tuple(rows))
