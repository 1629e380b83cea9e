"""The Cantor sequence and its difference sequence.

The Cantor sequence c marks which indices survive in the ternary Cantor
construction: c_n = 1 exactly when the base-3 expansion of n avoids the
digit 1.  Three independent generators are provided (index recurrence,
base-3 automaton read most significant digit first, substitution fixed
point) so that each can be cross-checked against the others.

The difference sequence d is d_n = c_n + c_{n+2}; its Hankel matrices
show up as companions of those of c throughout the package, which reads
both as int8 runs of consecutive terms, cantor_run and diff_run.
"""

from __future__ import annotations

import numpy as np

# sigma: a -> aba, b -> bbb.  The fixed point starting from "a" spells c
# with a = 1 and b = 0.
_SUBSTITUTION = {"a": "aba", "b": "bbb"}

# The image of each letter under sigma, by its byte code: row ord(x) of
# this table spells _SUBSTITUTION[x].
_IMAGES = np.zeros((256, 3), dtype=np.uint8)
_IMAGES[list(map(ord, _SUBSTITUTION))] = [list(image.encode()) for image in _SUBSTITUTION.values()]

# Two-state output automaton over base-3 digits, most significant digit
# first.  State "a" outputs 1, state "b" outputs 0; digit 1 is an
# absorbing jump to "b".
_STEP = {
    ("a", 0): "a", ("a", 1): "b", ("a", 2): "a",
    ("b", 0): "b", ("b", 1): "b", ("b", 2): "b",
}

# Resource guard for substitution_word; 3**16 letters is ~43 MB.
DEFAULT_WORD_CAP = 3 ** 16

# Resource guard for sequence_slice: a million terms is a list of about
# 8 MB (9 MB at peak) built in about 0.01 s on a 2-core VM.
MAX_SLICE_COUNT = 10 ** 6


def cantor_term(n: int) -> int:
    """c_n via the index recurrence c_3n = c_n, c_3n+1 = 0, c_3n+2 = c_n.

    Peeling base-3 digits from the low end unrolls the recurrence; any
    digit equal to 1 forces the value 0, and c_0 = 1 closes it.
    """
    if n < 0:
        raise ValueError("sequence index must be nonnegative")
    while n:
        n, digit = divmod(n, 3)
        if digit == 1:
            return 0
    return 1


def cantor_via_automaton(n: int) -> int:
    """c_n by running the two-state automaton over the digits of n."""
    if n < 0:
        raise ValueError("sequence index must be nonnegative")
    state = "a"
    for digit in _digits_msd_first(n):
        state = _STEP[state, digit]
    return 1 if state == "a" else 0


def substitution_word(k: int) -> str:
    """The k-th iterate of the substitution on "a", a word of 3**k letters.

    Rejects k whose word would exceed DEFAULT_WORD_CAP; the iterates are
    prefixes of each other, so a capped call never loses information
    that a smaller k would have produced.  A k of at least the cap's bit
    length is refused before 3**k is computed, since 3**k > 2**k then
    passes the cap.
    """
    if k < 0:
        raise ValueError("iteration count must be nonnegative")
    if k >= DEFAULT_WORD_CAP.bit_length() or 3 ** k > DEFAULT_WORD_CAP:
        raise ValueError(f"word of length 3**{k} exceeds the cap {DEFAULT_WORD_CAP}")
    # Each iteration is one gather of the images of the word's byte codes.
    word = np.frombuffer(b"a", dtype=np.uint8)
    for _ in range(k):
        word = np.take(_IMAGES, word, axis=0).ravel()
    return word.tobytes().decode()


def diff_term(n: int) -> int:
    """d_n = c_n + c_{n+2}, taking values in {0, 1, 2}."""
    return cantor_term(n) + cantor_term(n + 2)


# c over one block of 3**5 indices, which cantor_run reads five digits at a time.
_CANTOR_BLOCK = np.array([cantor_term(k) for k in range(3 ** 5)], dtype=np.int8)


def cantor_run(start: int, count: int) -> np.ndarray:
    """c_p for p = start .. start + count - 1, any start >= 0, as int8.

    p = hi * B + lo with B = len(_CANTOR_BLOCK) splits the digits:
    c_p = c_hi * c_lo, c_lo read from _CANTOR_BLOCK and the c_hi a run
    about B times shorter.  A loop takes such levels until at most two
    terms are left, read by cantor_term, and expands them back, so start
    may have any number of digits.
    """
    block = len(_CANTOR_BLOCK)
    levels = []
    while count > 2:
        start, lo = divmod(start, block)
        levels.append((lo, count))
        count = (lo + count - 1) // block + 1
    run = np.array([cantor_term(start + k) for k in range(count)], dtype=np.int8)
    for lo, count in reversed(levels):
        run = (run[:, None] & _CANTOR_BLOCK).ravel()[lo:lo + count]
    return run


def diff_run(start: int, count: int) -> np.ndarray:
    """d_p = c_p + c_(p+2) for p = start .. start + count - 1, as int8."""
    run = cantor_run(start, count + 2)
    return run[:-2] + run[2:]


def sequence_run(kind: str, start: int, count: int) -> np.ndarray:
    """count consecutive terms of c or d beginning at index start, as int8."""
    if kind == "c":
        run = cantor_run
    elif kind == "d":
        run = diff_run
    else:
        raise ValueError(f"unknown sequence kind {kind!r}")
    if start < 0 or count < 0:
        raise ValueError("start and count must be nonnegative")
    if count > MAX_SLICE_COUNT:
        raise ValueError(f"count {count} is over the cap of {MAX_SLICE_COUNT}")
    return run(start, count)


def sequence_slice(kind: str, start: int, count: int) -> list[int]:
    """count consecutive terms of c or d beginning at index start."""
    return sequence_run(kind, start, count).tolist()


def _digits_msd_first(n: int) -> list[int]:
    if n == 0:
        return []
    digits = []
    while n:
        n, d = divmod(n, 3)
        digits.append(d)
    digits.reverse()
    return digits
