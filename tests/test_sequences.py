import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantor_hankel import sequences
from cantor_hankel.sequences import (DEFAULT_WORD_CAP, cantor_run, cantor_term,
                                     cantor_via_automaton, diff_run, diff_term,
                                     sequence_slice, substitution_word)
from slow_paths import substitution_word_by_joins

# First 27 terms straight from the digit criterion.
CANTOR_PREFIX = (1, 0, 1, 0, 0, 0, 1, 0, 1,
                 0, 0, 0, 0, 0, 0, 0, 0, 0,
                 1, 0, 1, 0, 0, 0, 1, 0, 1)

DIFF_PREFIX = (2, 0, 1, 0, 1, 0, 2, 0, 1)

# A start of 4,000 decimal digits, base-3 digits 2 and 0 alternating, so
# c is 1 there and a run from it holds ones as well as zeros.
HUGE_START = 6 * (9 ** 4191 - 1) // 8


def test_cantor_prefix():
    assert tuple(cantor_term(n) for n in range(27)) == CANTOR_PREFIX


def test_diff_prefix():
    assert tuple(diff_term(n) for n in range(9)) == DIFF_PREFIX


def test_diff_is_sum_of_shifted_terms():
    for n in range(200):
        assert diff_term(n) == cantor_term(n) + cantor_term(n + 2)


@given(st.integers(min_value=0, max_value=3 ** 12))
def test_automaton_route_agrees_with_digit_route(n):
    assert cantor_via_automaton(n) == cantor_term(n)


@given(st.integers(min_value=0, max_value=10 ** 9))
@settings(max_examples=60)
def test_cantor_three_way_recurrence(n):
    assert cantor_term(3 * n) == cantor_term(n)
    assert cantor_term(3 * n + 1) == 0
    assert cantor_term(3 * n + 2) == cantor_term(n)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=60)
def test_diff_three_way_recurrence(n):
    assert diff_term(3 * n) == 2 * cantor_term(n)
    assert diff_term(3 * n + 1) == cantor_term(n + 1)
    assert diff_term(3 * n + 2) == cantor_term(n)


def test_substitution_word_prefixes():
    assert substitution_word(0) == "a"
    assert substitution_word(1) == "aba"
    assert substitution_word(2) == "ababbbaba"
    for k in range(6):
        assert substitution_word(k + 1).startswith(substitution_word(k))


def test_substitution_word_spells_the_sequence():
    word = substitution_word(7)
    for n, letter in enumerate(word):
        assert cantor_term(n) == (1 if letter == "a" else 0)


def test_substitution_word_matches_the_string_joins():
    for k in range(13):
        assert substitution_word(k) == substitution_word_by_joins(k), k


def test_substitution_word_cap(monkeypatch):
    with pytest.raises(ValueError, match=f"exceeds the cap {DEFAULT_WORD_CAP}"):
        substitution_word(17)
    monkeypatch.setattr(sequences, "DEFAULT_WORD_CAP", 3 ** 4)
    assert len(substitution_word(4)) == 81
    with pytest.raises(ValueError, match="word of length 3\\*\\*5 exceeds the cap 81"):
        substitution_word(5)


class _Exponent(int):
    """An iteration count that fails the test when 3 is raised to it."""

    def __rpow__(self, base, mod=None):
        raise AssertionError(f"{base} ** {int(self)} was computed")


# SHA-256 of substitution_word(16), the longest word under DEFAULT_WORD_CAP,
# taken when the cap was checked by computing 3 ** k for every k.
CAP_WORD_DIGEST = "afab05aab59e158edde8df11c8c04aea30842dbcf4810f94d07ddc34f078bc56"


def test_substitution_word_refuses_a_huge_k_before_the_power(monkeypatch):
    # 3 ** (10 ** 12) ran past 60 s before the refusal.
    for k in (10 ** 12, 10 ** 100, DEFAULT_WORD_CAP.bit_length()):
        with pytest.raises(ValueError) as refused:
            substitution_word(_Exponent(k))
        assert str(refused.value) == f"word of length 3**{k} exceeds the cap {DEFAULT_WORD_CAP}"
    monkeypatch.setattr(sequences, "DEFAULT_WORD_CAP", 3 ** 4)
    for k in range(5, 12):
        with pytest.raises(ValueError, match=f"^word of length 3\\*\\*{k} exceeds the cap 81$"):
            substitution_word(k)


def test_every_admitted_word_is_the_same():
    word = substitution_word(16)
    assert 3 ** 16 <= DEFAULT_WORD_CAP < 3 ** 17
    assert hashlib.sha256(word.encode()).hexdigest() == CAP_WORD_DIGEST
    for k in range(16):
        prefix = substitution_word(k)
        assert len(prefix) == 3 ** k and word.startswith(prefix), k


def test_sequence_slice():
    assert sequence_slice("c", 0, 9) == list(CANTOR_PREFIX[:9])
    assert sequence_slice("d", 2, 4) == list(DIFF_PREFIX[2:6])
    with pytest.raises(ValueError):
        sequence_slice("e", 0, 3)
    with pytest.raises(ValueError):
        sequence_slice("c", -1, 3)


def _assert_runs_match_terms(start, count, every_generator=True):
    """cantor_run and diff_run against cantor_term, and, if
    every_generator, against cantor_via_automaton and diff_term too."""
    run, diff = cantor_run(start, count), diff_run(start, count)
    assert run.dtype == diff.dtype == np.int8
    terms = [cantor_term(start + k) for k in range(count + 2)]
    assert run.tolist() == terms[:count], (start, count)
    assert diff.tolist() == [a + b for a, b in zip(terms, terms[2:])], (start, count)
    if every_generator:
        assert terms == [cantor_via_automaton(start + k) for k in range(count + 2)]
        assert diff.tolist() == [diff_term(start + k) for k in range(count)]


@given(start=st.one_of(st.integers(0, 3 ** 200), st.integers(0, 3 ** 12)),
       count=st.integers(0, 800))
@example(start=0, count=800)
@example(start=3 ** 200 - 2, count=3)
@example(start=3 ** 5 - 1, count=2)
@settings(max_examples=60, deadline=None)
def test_runs_match_the_term_generators(start, count):
    _assert_runs_match_terms(start, count)


@pytest.mark.parametrize("count", [0, 1, 2, 3, 800])
@pytest.mark.parametrize("shift", [0, 3 ** 6 - 4])
def test_runs_match_the_term_generators_at_a_4000_digit_start(count, shift):
    # Each term that is 1 costs cantor_term and the automaton a pass over
    # all 8,384 digits, so the two slower generators read short runs only.
    assert len(str(HUGE_START)) == 4000
    _assert_runs_match_terms(HUGE_START + shift, count, every_generator=count <= 3)


def test_runs_refuse_a_negative_start():
    for run in (cantor_run, diff_run):
        with pytest.raises(ValueError, match="nonnegative"):
            run(-1, 3)


def test_slice_far_from_0():
    start = 2 * 3 ** 60 + 5
    assert sequence_slice("c", start, 300) == [cantor_term(start + k) for k in range(300)]
    assert sequence_slice("d", start, 300) == [diff_term(start + k) for k in range(300)]
    assert any(sequence_slice("c", start, 300))
