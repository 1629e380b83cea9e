import hashlib
import inspect
import logging
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantor_hankel import hankel
from cantor_hankel.hankel import (det_exact, det_mod3, hankel_matrix, hankel_stack,
                                  minors_exact_stack, minors_mod3_stack, verify_structure)
from cantor_hankel.sequences import cantor_term, diff_term
from slow_paths import (det_mod3_by_full_reduction, det_mod3_stack_by_full_reduction,
                        det_mod3_stack_by_row_swaps, hankel_by_terms, permutation_matrix,
                        verify_structure_by_matrix)

st_small_matrix = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
        min_size=n, max_size=n))

# Stacks of s n x n integer matrices, s from 0 and n from 1; entries run
# past 0..2 on both sides, so the oracles must reduce them.
st_stack = st.tuples(st.integers(min_value=0, max_value=4),
                     st.integers(min_value=1, max_value=6)).flatmap(
    lambda sn: st.lists(st.integers(min_value=-9, max_value=9),
                        min_size=sn[0] * sn[1] ** 2, max_size=sn[0] * sn[1] ** 2).map(
        lambda flat: np.array(flat, dtype=np.int64).reshape(sn[0], sn[1], sn[1])))


def test_hankel_entries():
    m = hankel_matrix("gamma", 2, 4)
    for i in range(4):
        for j in range(4):
            assert m[i, j] == cantor_term(2 + i + j)
    d = hankel_matrix("delta", 1, 3)
    for i in range(3):
        for j in range(3):
            assert d[i, j] == diff_term(1 + i + j)
    with pytest.raises(ValueError):
        hankel_matrix("gamma", -1, 2)
    with pytest.raises(ValueError):
        hankel_matrix("theta", 0, 2)
    with pytest.raises(ValueError, match="unknown matrix kind"):
        hankel_matrix("theta", 0, 0)


@pytest.mark.parametrize("kind, term", [("gamma", cantor_term), ("delta", diff_term)])
@pytest.mark.parametrize("p", [0, 7, 3 ** 8])
@pytest.mark.parametrize("n", [0, 1, 150])
def test_builders_match_entrywise_definition(kind, term, p, n):
    # Step 3 is the stride-3 view verify_structure reads.
    for step, m in ((1, hankel_matrix(kind, p, n)), (3, hankel._hankel(kind, p, 3, n)[0])):
        assert m.shape == (n, n) and m.dtype == np.int64
        expected = [[term(p + step * (i + j)) for j in range(n)] for i in range(n)]
        assert m.tolist() == expected, (step, kind, p, n)
    stack = hankel_stack(kind, p, n, 3)
    assert stack.shape == (3, n, n) and not stack.flags.writeable
    for o in range(3):
        assert stack[o].tolist() == hankel_matrix(kind, p + o, n).tolist(), (kind, p, n, o)


def _assert_same_array(got, expected, what):
    assert got.shape == expected.shape and got.dtype == expected.dtype, what
    assert got.flags.writeable == expected.flags.writeable, what
    assert np.array_equal(got, expected), what


@pytest.mark.parametrize("kind", ["gamma", "delta"])
@pytest.mark.parametrize("p", [0, 1, 5, 27, 6560, 2 * 3 ** 40 + 7, 6 * (9 ** 100 - 1) // 8 - 3],
                         ids=["0", "1", "5", "27", "6560", "2*3^40+7", "near-3^200"])
def test_builders_match_the_per_term_build(kind, p):
    # The runs against one index recurrence per term, at every order to
    # 60 and every stack of up to five matrices.  The two largest offsets
    # have base-3 digits 2 and 0 above the run, so its terms are not all 0.
    for n in range(61):
        _assert_same_array(hankel_matrix(kind, p, n), hankel_by_terms(kind, p, 1, n)[0].copy(),
                           ("hankel_matrix", kind, p, n))
        _assert_same_array(hankel._hankel(kind, p, 3, n), hankel_by_terms(kind, p, 3, n),
                           ("stride-3 view", kind, p, n))
        for count in range(6):
            _assert_same_array(hankel_stack(kind, p, n, count),
                               hankel_by_terms(kind, p, 1, n, count),
                               ("hankel_stack", kind, p, n, count))


@pytest.mark.parametrize("kind, first, step, n, count", [
    ("gamma", 0, 1, 0, 0), ("delta", 5, 1, 0, 3), ("gamma", 7, 1, 4, 0),
    ("delta", 2, 3, 5, 1), ("gamma", 3 ** 40 + 1, 3, 6, 4), ("delta", 0, 1, 1, 1)])
def test_hankel_views_read_one_term_run(kind, first, step, n, count):
    view = hankel._hankel(kind, first, step, n, count)
    assert view.shape == (count, n, n) and view.dtype == np.int64
    assert not view.flags.writeable
    run = view.base
    assert run.shape == (max(count + 2 * n - 2, 0),)
    term = cantor_term if kind == "gamma" else diff_term
    assert run.tolist() == [term(first + step * k) for k in range(len(run))]
    o, i, j = np.indices(view.shape)
    assert np.array_equal(view, run[o + i + j])
    if view.size:
        assert np.shares_memory(view, run)
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0, 0] = 1


@pytest.mark.parametrize("args", [("theta", -1, 1, 2, -1), ("gamma", -1, 1, 501, 1),
                                  ("delta", 0, 3, -1, 1), ("gamma", 0, 1, 501, -1),
                                  ("delta", 0, 1, 501, 1)])
def test_builders_refuse_as_the_per_term_build_did(args):
    with pytest.raises(ValueError) as slow:
        hankel_by_terms(*args)
    with pytest.raises(ValueError, match=f"^{re.escape(str(slow.value))}$"):
        hankel._hankel(*args)


def test_stack_builder_refuses_what_the_matrix_builder_refuses():
    assert hankel_stack("delta", 4, 3, 0).shape == (0, 3, 3)
    with pytest.raises(ValueError, match="unknown matrix kind"):
        hankel_stack("theta", 0, 2, 2)
    with pytest.raises(ValueError, match="must be nonnegative"):
        hankel_stack("gamma", 0, 2, -1)
    with pytest.raises(ValueError, match="order n = 501"):
        hankel_stack("gamma", 0, 501, 1)


def test_stacks_at_the_run_cap_answer_and_past_it_are_refused(monkeypatch):
    # count + 2n - 2 terms: the largest admitted stack at order 500 reads
    # MAX_RUN_COUNT of them, and one more is refused before any is read.
    cap, n = hankel.MAX_RUN_COUNT, hankel.MAX_HANKEL_ORDER
    stack = hankel_stack("delta", 3, n, cap - 2 * n + 2)
    assert stack.shape == (cap - 2 * n + 2, n, n)
    assert stack[-1, -1, -1] == diff_term(3 + cap - 1)

    def no_term(*args):
        raise AssertionError("a term was read")
    for kind in hankel._RUNS:
        monkeypatch.setitem(hankel._RUNS, kind, no_term)
    for kind, n, count in (("delta", n, cap - 2 * n + 3), ("gamma", 1, cap + 1),
                           ("gamma", 3, 10 ** 12)):
        with pytest.raises(ValueError) as refused:
            hankel_stack(kind, 0, n, count)
        size = count + 2 * n - 2
        assert str(refused.value) == f"count + 2n - 2 = {size} terms is over the cap of {cap}"


@pytest.mark.parametrize("m", [hankel_matrix("gamma", 1, 7),
                               5 * hankel_matrix("delta", 1, 7) - 4],
                         ids=["hankel", "residues-off-0-1-2"])
def test_oracles_leave_their_input_unchanged(m):
    # Row 0 of both starts with a zero pivot, so elimination swaps rows.
    before = m.copy()
    det_mod3(m)
    det_exact(m)
    assert np.array_equal(m, before)
    stack = np.stack([m, m.T, 3 * m, np.eye(len(m), dtype=np.int64)])
    stack_before = stack.copy()
    minors_mod3_stack(stack)
    minors_exact_stack(stack)
    assert np.array_equal(stack, stack_before)


@given(st_stack)
@settings(max_examples=150)
def test_stack_matches_one_matrix_oracles(a):
    # Column 0 times 3 makes each member singular mod 3 but not, as a
    # rule, over the integers.
    singular = a.copy()
    singular[:, :, :1] *= 3
    stack = np.concatenate([a, singular])
    got = minors_mod3_stack(stack)[:, -1]
    assert got.dtype == np.int8 and got.shape == (len(stack),)
    assert got.tolist() == [det_mod3(m) for m in stack]
    assert got.tolist() == [det_exact(m) % 3 for m in stack]
    assert not got[len(a):].any()


def test_stack_edge_shapes():
    assert minors_mod3_stack(np.zeros((0, 4, 4), dtype=np.int64))[:, -1].tolist() == []
    # Every member singular: the elimination stops early, all zeros.
    assert minors_mod3_stack(np.full((5, 6, 6), 3))[:, -1].tolist() == [0] * 5
    assert minors_mod3_stack([[[2]], [[4]], [[-1]]])[:, -1].tolist() == [2, 1, 2]
    with pytest.raises(ValueError, match="stack of square matrices"):
        minors_mod3_stack(np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(ValueError, match="stack of square matrices"):
        minors_mod3_stack(np.zeros((2, 3, 4), dtype=np.int64))


def test_oracles_reduce_integers_of_any_size_exactly():
    big = [[2 ** 70, 1], [1, 1]]
    assert det_exact(big) == 2 ** 70 - 1
    assert det_mod3(big) == 0
    assert minors_mod3_stack([big, [[-2 ** 80, 1], [0, 1]]])[:, -1].tolist() == [0, 2]
    # numpy scalars among Python ints must not wrap at 2**63 either.
    wide = np.array([[np.int64(2 ** 62), 1], [1, np.int64(2 ** 62)]], dtype=object)
    assert det_exact(wide) == 2 ** 124 - 1
    assert det_mod3(wide) == minors_mod3_stack([wide])[0, -1] == (2 ** 124 - 1) % 3
    # 200 narrowed to int8 first would be -56, which is 1 mod 3, not 2.
    for dtype in (np.int64, np.uint8, object):
        assert det_mod3(np.array([[200]], dtype=dtype)) == 2
        assert minors_mod3_stack(np.array([[[200]]], dtype=dtype)).tolist() == [[2]]


ORACLES = [det_exact, det_mod3, lambda m: minors_mod3_stack([m]), lambda m: minors_exact_stack([m])]
ORACLE_IDS = ["det_exact", "det_mod3", "minors_mod3_stack", "minors_exact_stack"]


@pytest.mark.parametrize("oracle", ORACLES, ids=ORACLE_IDS)
@pytest.mark.parametrize("m", [[[1.5, 1], [1, 1]], [[2.0, 1], [1, 1]],
                               [[Fraction(1, 2), 1], [1, 1]], [[2 ** 70, 0.5], [1, 1]]],
                         ids=["float", "integral-float", "fraction", "big-int-and-float"])
def test_oracles_refuse_non_integer_entries(oracle, m):
    with pytest.raises(ValueError, match="expected integer entries"):
        oracle(m)


# SHA-256 of the lines "kind p n det" for both kinds, p in DIGEST_OFFSETS
# and 0 <= n <= 60, computed when matrices were tuples of Python ints, so
# the int64 arrays must reproduce every determinant.
DIGEST_OFFSETS = (0, 1, 5, 27)
DET_DIGEST = "e56769a450958d398f1dec8ad90249802226b3ac387c5df2a47c32f7fbbad1b9"


def test_exact_determinants_digest():
    h = hashlib.sha256()
    for kind in ("gamma", "delta"):
        for p in DIGEST_OFFSETS:
            for n in range(61):
                h.update(f"{kind} {p} {n} {det_exact(hankel_matrix(kind, p, n))}\n".encode())
    assert h.hexdigest() == DET_DIGEST


# The same lines for p in HIGH_DIGEST_OFFSETS and 61 <= n <= 150, where
# the products outgrow int64 part way, at step 48 to 131 (counting from
# 0) at order 150 for these offsets, and 13 to 34 of its 149 steps run
# on Python ints (every determinant at p = 6560 is 0, found on int64).
# Computed with the row-by-row Python-int elimination that the block
# elimination replaced.
HIGH_DIGEST_OFFSETS = (0, 1, 5, 27, 6560)
HIGH_DET_DIGEST = "345e7a4660f77102b56cefa93cac300ce6dc685350ae9a713dc5f9037181a699"


def test_exact_determinants_digest_past_int64():
    h = hashlib.sha256()
    for kind in ("gamma", "delta"):
        for p in HIGH_DIGEST_OFFSETS:
            for n in range(61, 151):
                h.update(f"{kind} {p} {n} {det_exact(hankel_matrix(kind, p, n))}\n".encode())
    assert h.hexdigest() == HIGH_DET_DIGEST


@pytest.mark.parametrize("kind", ["gamma", "delta"])
@pytest.mark.parametrize("p", [0, 5, 27])
def test_int64_blocks_match_python_int_elimination(kind, p):
    # Object input is eliminated on Python ints from the first step: one
    # minors_exact_stack pass gives orders 1-149, and det_exact itself
    # order 150, so both of its paths still meet.
    m = hankel_matrix(kind, p, 150)
    expected = [*minors_exact_stack(m[None].astype(object))[0, :149].tolist(),
                det_exact(m.astype(object))]
    for n in range(1, 151):
        assert det_exact(m[:n, :n]) == expected[n - 1], (kind, p, n)


def test_empty_matrix_determinant():
    assert det_exact(hankel_matrix("gamma", 0, 0)) == 1
    assert det_mod3(hankel_matrix("delta", 5, 0)) == 1


GAMMA_COL0 = {1: 1, 2: 1, 3: -1, 4: -1, 5: -2, 6: 4}


def _cofactor_det(entries):
    if not entries:
        return 1
    if len(entries) == 1:
        return entries[0][0]
    total = 0
    for j, head in enumerate(entries[0]):
        if head == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in entries[1:]]
        total += (-1) ** j * head * _cofactor_det(minor)
    return total


def test_exact_determinants_column0():
    for n, value in GAMMA_COL0.items():
        m = hankel_matrix("gamma", 0, n)
        assert det_exact(m) == value
        assert _cofactor_det(m.tolist()) == value


def test_bareiss_matches_cofactor_on_hankel_families():
    for kind in ("gamma", "delta"):
        for n in range(7):
            for p in range(7):
                m = hankel_matrix(kind, p, n)
                assert det_exact(m) == _cofactor_det(m.tolist())


@given(st_small_matrix)
@settings(max_examples=120)
def test_bareiss_matches_float_determinant(rows):
    m = np.array(rows)
    expected = round(float(np.linalg.det(np.array(rows, dtype=float))))
    assert det_exact(m) == expected


# Entries that put the int64 bound on trial: small ones, ones whose
# products fit for a step or two, ones whose squares straddle 2**63
# (isqrt(2**63) = 3037000499), ones near +-2**62, and the int64 ends.
_ENTRY = st.one_of(st.integers(-9, 9),
                   st.integers(-2 ** 32, 2 ** 32),
                   st.integers(3037000499 - 2 ** 10, 3037000499 + 2 ** 10),
                   st.integers(2 ** 62 - 2 ** 10, 2 ** 62 + 2 ** 10),
                   st.integers(-2 ** 62 - 2 ** 10, -2 ** 62 + 2 ** 10),
                   st.sampled_from([-2 ** 63, 2 ** 63 - 1]))
_MATRIX = {
    np.int64: _ENTRY,
    np.uint64: st.one_of(st.integers(0, 9), st.integers(2 ** 63, 2 ** 64 - 1)),
    np.bool_: st.booleans(),
}


@given(st.sampled_from(list(_MATRIX)).flatmap(
    lambda dtype: st.integers(1, 6).flatmap(
        lambda n: st.lists(_MATRIX[dtype], min_size=n * n, max_size=n * n).map(
            lambda flat: np.array(flat, dtype=dtype).reshape(n, n)))))
@example(np.array([[1, 3037000500], [3037000500, 0]]))  # -x**2 < -2**63
@settings(max_examples=300, deadline=None)
def test_bareiss_at_the_int64_edges(m):
    entries = [[int(x) for x in row] for row in m.tolist()]
    expected = _cofactor_det(entries)
    assert det_exact(m) == expected
    assert det_exact(m.astype(object)) == expected


@st.composite
def st_two_adic(draw):
    """Matrices [[P, 0], [c, C]], or their transposes, whose elimination
    takes wrapping int64 steps: from the first step on, each block is P
    times the block one step earlier in the elimination of C, so with |P|
    large enough the products pass 2**63 while each quotient, P times
    one of C's, times the 2**k in P stays under it.

    P is +-2**k times an odd number, of bits bits in all: either near,
    with k <= 20 and 20 <= bits <= 50 - k, where with |C| <= 9 the
    products pass 2**63 at some step and the quotients times 2**k mostly
    fit 63 bits, or with any k up to 62 and any size.  Or P is one of
    +-2**62 and -2**63.  c, which no block after the first reads, takes
    any int64 entry.
    """
    n = draw(st.integers(2, 6))
    form = draw(st.sampled_from(["near", "any", "edge"]))
    if form == "edge":
        pivot = draw(st.sampled_from([2 ** 62, -2 ** 62, -2 ** 63]))
    else:
        k = draw(st.integers(0, 20 if form == "near" else 62))
        bits = draw(st.integers(max(k + 1, 20), 50 - k) if form == "near"
                    else st.integers(k + 1, 63))
        odd = 2 * draw(st.integers(2 ** (bits - k - 1) // 2, (2 ** (bits - k) - 1) // 2)) + 1
        pivot = draw(st.sampled_from([1, -1])) * odd << k
    m = np.zeros((n, n), np.int64)
    m[0, 0] = pivot
    m[1:, 0] = draw(st.lists(_ENTRY, min_size=n - 1, max_size=n - 1))
    small = draw(st.lists(st.integers(-9, 9), min_size=(n - 1) ** 2, max_size=(n - 1) ** 2))
    m[1:, 1:] = np.array(small, np.int64).reshape(n - 1, n - 1)
    return m.T.copy() if draw(st.booleans()) else m


# Matrices whose int64 steps sit at the edges of the check bound <
# |odd| * 2**63, with prev = 2**e * odd the previous pivot.  The last
# step of the first three follows a Python-int pivot on a block that fits
# int64 again: 2**64 + 1 (odd past int64), -2**63 (e = 63) and 2**65
# (e = 65, a shift past 63 bits); their quotients are 0.  _WRAPPING takes
# a wrapping step at e = 6.  _TOP_BIT's last quotient is 2**62 + 2, at
# e = 0: the bound, 2 * P**2 with P = 2**61 + 1, is under P * 2**63.
# _BOUND_AT_THE_LIMIT has both bounds at exactly 2**63 with prev = 1 and
# then 2**31, and its last quotient times 2**31 is 2**63, which wraps.
# _WIDE_ENTRIES's last block has an entry 2**64 + 1 whose quotients fit:
# its previous pivot is 2**124 + 1, so the bound passes while the block
# cannot narrow.
_PAST_INT64_PIVOT = np.array([[1, 2 ** 62, 0, 0], [-4, 1, 1, 1], [0, 1, 0, 0], [0, 1, 0, 0]])
_INT64_END_PIVOT = np.array([[1, 0, 0, 0], [0, -2 ** 63, 1, 1], [0, 1, 0, 0], [0, 1, 0, 0]])
_SHIFT_PAST_63 = np.array([[1, 2 ** 62, 0, 0], [-8, 0, 1, 1], [0, 1, 0, 0], [0, 1, 0, 0]])
_WRAPPING = np.array([[-(2 ** 31 + 1) << 6, 0, 0], [-2 ** 63, 3, -5], [7, 2, 9]])
_TOP_BIT = np.array([[2 ** 61 + 1, 0, 0], [5, 1, 1], [-7, -1, 1]])
_BOUND_AT_THE_LIMIT = np.array([[2 ** 31, 0, 0], [0, 1, 1], [0, -1, 1]])
_WIDE_ENTRIES = np.array([[1, 2 ** 62, 0, 0], [-2 ** 62, 1, 2 ** 62 - 4, 1],
                          [0, 2 ** 62, 1, 0], [0, 1, 0, 0]])


@given(st_two_adic())
@example(_PAST_INT64_PIVOT)
@example(_INT64_END_PIVOT)
@example(_SHIFT_PAST_63)
@example(_WRAPPING)
@example(_TOP_BIT)
@example(_BOUND_AT_THE_LIMIT)
@example(_WIDE_ENTRIES)
@settings(max_examples=300, deadline=None)
def test_wrapping_steps_match_python_ints_and_cofactors(m):
    expected = det_exact(m.astype(object))
    assert det_exact(m) == expected
    assert _cofactor_det([[int(x) for x in row] for row in m.tolist()]) == expected
    # Stacked, two matrices take each step together, with a shift and an
    # inverse each: _SHIFT_PAST_63 and its transpose shift by 65 at their
    # last step.  Beside its transpose, _WIDE_ENTRIES's last bound passes
    # and only its peak keeps the stack on Python ints.
    n = len(m)
    for other in (m.T, np.arange(n * n).reshape(n, n) % 5 - 2):
        stack = np.stack([m, other])
        assert minors_exact_stack(stack).tolist() == [
            [det_exact(x[:k, :k]) for k in range(1, n + 1)] for x in stack]


def _step_counts(caplog, m, oracle=det_exact) -> tuple[int, int]:
    """An exact oracle's count of int64 and of Python-int steps."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="cantor_hankel.hankel"):
        oracle(m)
    [record] = [r for r in caplog.records if r.name == "cantor_hankel.hankel"]
    return record.args[1:]


def test_wrapping_examples_take_the_steps_they_are_for(caplog):
    assert _step_counts(caplog, _PAST_INT64_PIVOT) == (1, 2)
    assert _step_counts(caplog, _INT64_END_PIVOT) == (1, 2)
    assert _step_counts(caplog, _SHIFT_PAST_63) == (1, 2)
    assert _step_counts(caplog, _WRAPPING) == (1, 1)
    assert _step_counts(caplog, _WRAPPING.astype(object)) == (0, 2)
    assert _step_counts(caplog, _TOP_BIT) == (1, 1)
    assert _step_counts(caplog, _BOUND_AT_THE_LIMIT) == (0, 2)
    assert _step_counts(caplog, _WIDE_ENTRIES) == (0, 3)


def test_python_int_steps_stay_few(caplog):
    # The minors of delta p = 0 fit int64 far longer than their products:
    # 34 of the 149 steps run on Python ints, against 101 when the first
    # step past the product bound left int64 for good.
    int64, python = _step_counts(caplog, hankel_matrix("delta", 0, 150))
    assert int64 + python == 149
    assert python <= 50


def test_stack_python_int_steps_stay_few(caplog):
    # The stack takes det_exact's step, admitted over all 20 matrices:
    # 68 of the 149 steps run on Python ints, against 106 when the first
    # step past the product bound left int64 for good.
    int64, python = _step_counts(caplog, hankel_stack("delta", 0, 150, 20), minors_exact_stack)
    assert int64 + python == 149
    assert python <= 75


@given(st_small_matrix)
@settings(max_examples=120)
def test_mod3_matches_exact(rows):
    m = np.array(rows)
    assert det_mod3(m) == det_exact(m) % 3


def test_mod3_matches_exact_on_hankel_families():
    for kind in ("gamma", "delta"):
        minors = minors_mod3_stack(hankel_stack(kind, 0, 10, 13))
        for n in range(1, 11):
            for p in range(13):
                m = hankel_matrix(kind, p, n)
                assert det_mod3(m) == det_exact(m) % 3 == minors[p, n - 1], (kind, n, p)


# Offsets of the oracle window (p <= 81) where the leading minors of the
# order-40 stack, as the oracle sweep reads them, are held to the
# one-matrix oracles at every order n <= 40; det_exact, about 2 ms at
# order 40, is held to them for n <= 24.
ORACLE_WINDOW_SAMPLE = (0, 1, 2, 13, 40, 80, 81)


def test_stack_matches_one_matrix_oracles_over_the_oracle_window():
    for kind in ("gamma", "delta"):
        minors = minors_mod3_stack(hankel_stack(kind, 0, 40, 82))
        for n in range(1, 41):
            for p in ORACLE_WINDOW_SAMPLE:
                m = hankel_matrix(kind, p, n)
                assert minors[p, n - 1] == det_mod3(m), (kind, n, p)
                if n <= 24:
                    assert minors[p, n - 1] == det_exact(m) % 3, (kind, n, p)


# Stacks of s n x n matrices of one dtype, n from 1: small entries of both signs,
# entries past 2**63 (object only), and the ends of uint8.  The last row
# of the second half repeats the first, so those members are singular
# over the integers, found only at the last step.
_LAZY_ENTRY = {
    np.int64: st.one_of(st.integers(-9, 9), st.integers(-2 ** 63, 2 ** 63 - 1)),
    np.uint8: st.one_of(st.integers(0, 9), st.integers(200, 255)),
    object: st.one_of(st.integers(-9, 9), st.integers(-2 ** 80, -2 ** 63),
                      st.integers(2 ** 63, 2 ** 80)),
}


@st.composite
def st_lazy_stack(draw):
    dtype = draw(st.sampled_from(list(_LAZY_ENTRY)))
    s, n = draw(st.integers(0, 4)), draw(st.integers(1, 7))
    flat = draw(st.lists(_LAZY_ENTRY[dtype], min_size=s * n * n, max_size=s * n * n))
    a = np.array(flat, dtype=dtype).reshape(s, n, n)
    singular = a.copy()
    if n >= 2:
        singular[:, -1] = singular[:, 0]
    return np.concatenate([a, singular])


@given(st_lazy_stack())
@settings(max_examples=150, deadline=None)
def test_lazy_reduction_matches_full_reduction(stack):
    expected = det_mod3_stack_by_full_reduction(stack).tolist()
    got = minors_mod3_stack(stack)[:, -1]
    assert got.dtype == np.int8 and got.tolist() == expected
    assert det_mod3_stack_by_row_swaps(stack).tolist() == expected
    assert [det_mod3(m) for m in stack] == expected
    assert [det_mod3_by_full_reduction(m) for m in stack] == expected
    if stack.shape[1] >= 2:
        assert not got[len(stack) // 2:].any()


@pytest.mark.parametrize("n", [150, 300, 500])
@pytest.mark.parametrize("kind", ["gamma", "delta"])
def test_lazy_reduction_matches_full_reduction_at_high_orders(kind, n):
    # Order 500 is MAX_HANKEL_ORDER, the widest matrix built here.
    stacked = minors_mod3_stack(hankel_stack(kind, 0, n, 6))[:, -1].tolist()
    for p in (0, 1, 2, 5):
        m = hankel_matrix(kind, p, n)
        assert stacked[p] == det_mod3(m) == det_mod3_by_full_reduction(m), (kind, n, p)


def test_int16_holds_every_lazy_step_up_to_the_order_cap():
    # The bound of the comment at MAX_HANKEL_ORDER, which minors_mod3_stack's
    # blocks rely on.
    assert 2 + 8 * (hankel.MAX_HANKEL_ORDER - 1) <= np.iinfo(np.int16).max
    assert hankel._residues(hankel_stack("delta", 2, 8, 2), 3).dtype == np.int16


def _seeded_kinds(rng, n):
    """Seeded order-n matrices of every dtype _square admits: bool, int8
    with -128, int64 over its whole range, uint64 up to 2**64 - 1, and
    Python ints of both signs past 2**64."""
    small = rng.integers(-9, 10, (n, n))
    int8 = rng.integers(-128, 128, (n, n), dtype=np.int8)
    int8.flat[::3] = -128
    uint64 = rng.integers(0, 2 ** 64, (n, n), dtype=np.uint64, endpoint=False)
    uint64.flat[::4] = 2 ** 64 - 1
    wide = small.astype(object) * (2 ** 66 + 5) - rng.integers(0, 3, (n, n)).astype(object)
    return [rng.integers(0, 2, (n, n)).astype(bool), int8,
            rng.integers(-2 ** 63, 2 ** 63, (n, n), dtype=np.int64), uint64, wide]


def _det_mod3_cases() -> list[np.ndarray]:
    """Matrices that det_mod3 is held to the full reduction on.

    Seeded dense ones at every order 0..70, across the byte boundaries of
    its row packing at 8, 16, ... and 64, one with random residues and
    one with no zero residue each; every input dtype at orders 1..9 and
    65; pivots of 2 (twice a unit matrix, and a dense matrix with 2 at
    its corner); a row swap after a zero pivot (the reversed unit matrix,
    and a dense matrix with 0 at its corner); and a dense matrix with its
    column c zeroed, for each c of orders 9 and 65.
    """
    rng = np.random.default_rng(53)
    cases = []
    for n in range(71):
        cases += [rng.integers(0, 3, (n, n)) - 3 * rng.integers(0, 4, (n, n)),
                  rng.integers(1, 3, (n, n)) + 3 * rng.integers(0, 4, (n, n))]
    for n in (*range(1, 10), 65):
        cases += _seeded_kinds(rng, n)
    for n in (1, 2, 9, 65):
        corner = [rng.integers(1, 3, (n, n)) for _ in range(2)]
        corner[0][0, 0], corner[1][0, 0] = 2, 0
        cases += [2 * np.eye(n, dtype=np.int64), np.eye(n, dtype=np.int64)[::-1], *corner]
    for n in (9, 65):
        for c in range(n):
            m = rng.integers(1, 3, (n, n))
            m[:, c] = 3 * c
            cases.append(m)
    return cases


def _hold_to_full_reduction(det):
    for m in _det_mod3_cases():
        assert det(m) == det_mod3_by_full_reduction(m), (m.dtype, m.tolist())


def test_bit_sliced_elimination_matches_full_reduction():
    _hold_to_full_reduction(det_mod3)


def test_bit_sliced_elimination_reduces_every_dtype_exactly():
    rng = np.random.default_rng(7)
    for n in range(1, 8):
        for m in _seeded_kinds(rng, n):
            assert det_mod3(m) == det_exact(m) % 3, (m.dtype, m.tolist())


def test_bit_sliced_sum_on_every_residue_pair():
    # After a pivot p at (0, 0), entry (1, 1) becomes x - (r / p) * y: the
    # sum of residue x and pivot-row residue y, taken away for r / p = 1
    # and added for r / p = 2, at each of the nine pairs (x, y).
    for p, r, x, y in np.ndindex(3, 3, 3, 3):
        if p:
            assert det_mod3([[p, y], [r, x]]) == (p * x - r * y) % 3, (p, r, x, y)


# Edits of det_mod3's source, each breaking one part of the bit-sliced
# step; each must fail _hold_to_full_reduction.
DET_MOD3_MUTANTS = {
    "swap-sign-dropped": ("ones[k], twos[k], -det", "ones[k], twos[k], det"),
    "pivot-2-sign-dropped": ("pv, pu, -det", "pv, pu, det"),
    "sum-slices-exchanged": ("(v | pu) ^ t, (u | pv) ^ t", "(u | pv) ^ t, (v | pu) ^ t"),
}


@pytest.mark.parametrize("mutant", DET_MOD3_MUTANTS)
def test_bit_sliced_mutants_fail(mutant):
    old, new = DET_MOD3_MUTANTS[mutant]
    source = inspect.getsource(hankel.det_mod3)
    assert source.count(old) == 1
    namespace = dict(vars(hankel))
    exec(source.replace(old, new), namespace)
    with pytest.raises(AssertionError):
        _hold_to_full_reduction(namespace["det_mod3"])


@pytest.mark.parametrize("n", [150, 300, 500])
def test_bit_sliced_elimination_matches_the_stack_on_dense_matrices(n):
    # Dense input is det_mod3's slowest: every row takes a sum at every
    # step.  The second matrix has no zero residue.
    rng = np.random.default_rng(n)
    stack = np.stack([rng.integers(0, 3, (n, n)), rng.integers(1, 3, (n, n))])
    stack += 3 * rng.integers(-4, 4, stack.shape)
    assert [det_mod3(m) for m in stack] == minors_mod3_stack(stack)[:, -1].tolist()


class _Untouchable(int):
    """An integer entry that fails the test when it is converted or
    reduced: the first work any oracle does on an object matrix."""

    def _touched(self, *args):
        raise AssertionError("an entry was read")

    __int__ = __index__ = __mod__ = __rmod__ = __mul__ = __rmul__ = _touched


@pytest.mark.parametrize("oracle", ORACLES, ids=ORACLE_IDS)
def test_oracles_refuse_an_order_over_the_cap_before_any_work(oracle):
    # An order-1500 det_exact ran past 15 s before this refusal.
    for n in (hankel.MAX_HANKEL_ORDER + 1, 1500):
        message = f"order n = {n} is over the cap of {hankel.MAX_HANKEL_ORDER}"
        untouchable = np.empty((n, n), object)
        untouchable.fill(_Untouchable(1))
        for m in (untouchable, np.eye(n, dtype=np.int64)):
            with pytest.raises(ValueError) as refused:
                oracle(m)
            assert str(refused.value) == message


@pytest.mark.parametrize("oracle", [minors_mod3_stack, minors_exact_stack], ids=ORACLE_IDS[2:])
def test_stack_oracles_refuse_a_stack_over_the_cap_before_any_work(oracle):
    # A (10**5, 100, 100) stack took 5.5 s and 3.0 GB before this refusal.
    cap = hankel.MAX_STACK_ENTRIES
    for shape in ((cap + 1, 1, 1), (9, 500, 500), (10 ** 5, 100, 100)):
        message = f"a stack of {np.prod(shape)} entries is over the cap of {cap}"
        untouchable = np.broadcast_to(np.array(_Untouchable(1), object), shape)
        for stack in (untouchable, np.broadcast_to(np.int8(1), shape)):
            with pytest.raises(ValueError) as refused:
                oracle(stack)
            assert str(refused.value) == message


def test_stack_oracles_answer_at_the_cap():
    # 8 x 500 x 500 entries, the cap itself: about 0.3 s over GF(3).
    assert 8 * 500 ** 2 == hankel.MAX_STACK_ENTRIES
    minors = minors_mod3_stack(hankel_stack("delta", 0, 500, 8))
    assert [minors[p, -1] for p in (0, 7)] == [det_mod3(hankel_matrix("delta", p, 500))
                                               for p in (0, 7)]
    # The exact pass over that stack runs on Python ints for about 26 s;
    # 800 identities of order 50 stay on int64.
    identities = np.broadcast_to(np.eye(50, dtype=np.int64), (800, 50, 50))
    assert minors_exact_stack(identities).tolist() == [[1] * 50] * 800


# Stacks of s n x n matrices of one dtype, followed by members whose
# leading minors vanish in other ways: each matrix made upper
# unitriangular with its rows in one drawn order, invertible but with a
# singular leading block until rows 0..k-1 are all in place; each with
# one drawn column zeroed, so every minor from that order on is 0; and
# the zero matrix.
@st.composite
def st_minor_stack(draw, entries=_LAZY_ENTRY):
    dtype = draw(st.sampled_from(list(entries)))
    s, n = draw(st.integers(0, 3)), draw(st.integers(0, 7))
    flat = draw(st.lists(entries[dtype], min_size=s * n * n, max_size=s * n * n))
    a = np.array(flat, dtype=dtype).reshape(s, n, n)
    order = draw(st.permutations(range(n)))
    unitriangular = (np.triu(a, 1) + np.eye(n, dtype=dtype))[:, order]
    zero_column = a.copy()
    if n:
        zero_column[:, :, draw(st.integers(0, n - 1))] = 0
    return np.concatenate([a, unitriangular, zero_column, np.zeros((1, n, n), dtype)])


@given(st_minor_stack())
@settings(max_examples=150, deadline=None)
def test_minors_match_one_matrix_oracle_at_every_order(stack):
    got = minors_mod3_stack(stack)
    assert got.dtype == np.int8 and got.shape == stack.shape[:2]
    for m, minors in zip(stack, got.tolist()):
        assert minors == [det_mod3(m[:k, :k]) for k in range(1, len(m) + 1)], m.tolist()


def test_minors_edge_cases():
    # Each leading block singular but the matrix not: det = -1.
    assert minors_mod3_stack([[[0, 1], [1, 0]]]).tolist() == [[0, 2]]
    # Three inversions, so det = -1 again, and 2**3 * -1 is 1 mod 3; six
    # inversions at order 4, so det = 1.
    reverse = np.eye(3, dtype=np.int64)[::-1]
    assert minors_mod3_stack([reverse, 2 * reverse]).tolist() == [[0, 0, 2], [0, 0, 1]]
    assert minors_mod3_stack([np.eye(4, dtype=np.int64)[::-1]]).tolist() == [[0, 0, 0, 1]]
    assert minors_mod3_stack([[[1, 0, 2], [2, 0, 1], [1, 0, 1]]]).tolist() == [[1, 0, 0]]
    assert minors_mod3_stack(np.zeros((2, 3, 3), dtype=np.int64)).tolist() == [[0] * 3] * 2
    assert minors_mod3_stack(np.zeros((2, 0, 0), dtype=np.int64)).shape == (2, 0)
    assert minors_mod3_stack(np.zeros((0, 3, 3), dtype=np.int64)).shape == (0, 3)
    with pytest.raises(ValueError, match="stack of square matrices"):
        minors_mod3_stack(np.zeros((2, 3, 4), dtype=np.int64))


# Entries for the exact minors: int64 ones at the edges of det_exact's
# bound, uint64 ones past int64, and Python ints past it on both sides.
_EXACT_ENTRY = {np.int64: _ENTRY, np.uint64: _MATRIX[np.uint64], object: _LAZY_ENTRY[object]}


@given(st_minor_stack(_EXACT_ENTRY))
@settings(max_examples=150, deadline=None)
def test_exact_minors_match_one_matrix_oracle_at_every_order(stack):
    got = minors_exact_stack(stack)
    assert got.dtype == object and got.shape == stack.shape[:2]
    for m, minors in zip(stack, got.tolist()):
        assert minors == [det_exact(m[:k, :k]) for k in range(1, len(m) + 1)], m.tolist()
        assert all(type(x) is int for x in minors)


def test_exact_minors_edge_cases():
    # The leading minors of test_minors_edge_cases over the integers.
    assert minors_exact_stack([[[0, 1], [1, 0]]]).tolist() == [[0, -1]]
    reverse = np.eye(3, dtype=np.int64)[::-1]
    assert minors_exact_stack([reverse, 2 * reverse]).tolist() == [[0, 0, -1], [0, 0, -8]]
    assert minors_exact_stack([np.eye(4, dtype=np.int64)[::-1]]).tolist() == [[0, 0, 0, 1]]
    assert minors_exact_stack([[[1, 0, 2], [2, 0, 1], [1, 0, 1]]]).tolist() == [[1, 0, 0]]
    assert minors_exact_stack(np.zeros((2, 3, 3), dtype=np.int64)).tolist() == [[0] * 3] * 2
    assert minors_exact_stack(np.zeros((2, 0, 0), dtype=np.int64)).shape == (2, 0)
    assert minors_exact_stack(np.zeros((0, 3, 3), dtype=np.int64)).shape == (0, 3)
    with pytest.raises(ValueError, match="stack of square matrices"):
        minors_exact_stack(np.zeros((2, 3, 4), dtype=np.int64))


@pytest.mark.parametrize("kind", ["gamma", "delta"])
@pytest.mark.parametrize("p, n, count", [(0, 20, 30), (100, 25, 10), (3 ** 8 - 5, 12, 10)])
def test_exact_minors_match_det_exact_on_hankel_stacks(kind, p, n, count):
    # At p = 1 the order-1 minor of both kinds is 0 and the order-2 one
    # is -1: its first pivot comes from below the diagonal, and only the
    # inversion's sign tells -1 from 1.
    minors = minors_exact_stack(hankel_stack(kind, p, n, count)).tolist()
    for t in range(count):
        m = hankel_matrix(kind, p + t, n)
        assert minors[t] == [det_exact(m[:k, :k]) for k in range(1, n + 1)], (kind, p + t)


def test_exact_minors_reproduce_the_determinant_digests():
    # One pass per kind gives every order the digests pin one matrix at a
    # time.  Past order 60 the minors outgrow int64, so the high pass runs
    # 43 (gamma) and 66 (delta) of its 149 steps on Python ints.
    low, high = hashlib.sha256(), hashlib.sha256()
    for kind in ("gamma", "delta"):
        stack = minors_exact_stack(hankel_stack(kind, 0, 60, max(DIGEST_OFFSETS) + 1))
        for p in DIGEST_OFFSETS:
            for n, det in enumerate([1, *stack[p].tolist()]):
                low.update(f"{kind} {p} {n} {det}\n".encode())
        stack = minors_exact_stack(np.stack([hankel_matrix(kind, p, 150)
                                             for p in HIGH_DIGEST_OFFSETS]))
        assert max(abs(x) for x in stack[:, :149].flat) >= 2 ** 64
        for p, minors in zip(HIGH_DIGEST_OFFSETS, stack.tolist()):
            for n in range(61, 151):
                high.update(f"{kind} {p} {n} {minors[n - 1]}\n".encode())
    assert low.hexdigest() == DET_DIGEST
    assert high.hexdigest() == HIGH_DET_DIGEST


@pytest.mark.parametrize("n", [40, 150, 300])
@pytest.mark.parametrize("kind", ["gamma", "delta"])
def test_minors_match_the_stack_order_by_order(kind, n):
    # Every order up to 40, then a sample, at offsets 0..count-1.
    count = {40: 82, 150: 6, 300: 3}[n]
    minors = minors_mod3_stack(hankel_stack(kind, 0, n, count))
    for k in [*range(1, min(n, 40) + 1), *range(41, n, 13), n]:
        expected = det_mod3_stack_by_row_swaps(hankel_stack(kind, 0, k, count))
        assert minors[:, k - 1].tolist() == expected.tolist(), (kind, n, k)


def test_sorting_permutation():
    # 1-based indices of the columns' basis vectors: residue 1 block
    # first, then 2, then 0.
    p = permutation_matrix(7)
    assert [int(p[:, j].argmax()) + 1 for j in range(7)] == [1, 4, 7, 2, 5, 3, 6]
    for n in range(12):
        p = permutation_matrix(n)
        assert np.array_equal(p.T @ p, np.eye(n, dtype=int))


def test_conjugation_by_index_reordering_matches_matmul():
    # The lemma verify_structure checks its block form by: block (I, J)
    # of P^t H P is H[I::3, J::3].
    for kind in ("gamma", "delta"):
        for n in range(13):
            p = permutation_matrix(n)
            edges = np.cumsum([0, (n + 2) // 3, (n + 1) // 3, n // 3])
            for offset in range(4):
                m = hankel_matrix(kind, offset, n)
                conjugated = p.T @ m @ p
                for I in range(3):
                    for J in range(3):
                        block = conjugated[edges[I]:edges[I + 1], edges[J]:edges[J + 1]]
                        assert np.array_equal(block, m[I::3, J::3]), (kind, n, offset, I, J)


def test_structure_report_small():
    report = verify_structure(0, 2)
    assert report.ok
    assert report.failed is None
    assert len(report.checked) == 28


def test_structure_sweep():
    for n in range(1, 4):
        for p in range(4):
            report = verify_structure(p, n)
            assert report.ok, (n, p, report.failed)


def _flip_term(run, index):
    """run with term index of its output flipped between 0 and 1."""
    def flipped(start, count):
        terms = run(start, count).copy()
        if start <= index < start + count:
            terms[index - start] ^= 1
        return terms
    return flipped


@pytest.mark.parametrize("flip", [None, 7, 20])
def test_structure_reports_match_the_per_matrix_build(monkeypatch, flip):
    # With c_7 or c_20 flipped, c no longer splits, and both builds name
    # the same first failure wherever the flipped term is read.
    if flip is not None:
        monkeypatch.setitem(hankel._RUNS, "gamma", _flip_term(hankel._RUNS["gamma"], flip))
    reports = [(verify_structure(p, n), verify_structure_by_matrix(p, n))
               for n in (2, 4, 6, 8) for p in range(21)]
    assert all(got == expected for got, expected in reports)
    assert all(got.ok for got, _ in reports) == (flip is None)


@pytest.mark.parametrize("p", [2 * 3 ** 40 + 7, 2 * 3 ** 199 + 5])
def test_structure_at_huge_offsets_takes_memory_bounded_in_n(p):
    # The runs start at p and near p // 3: one from index 0 would not fit.
    tracemalloc.start()
    try:
        report = verify_structure(p, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == verify_structure_by_matrix(p, 8)
    assert report.ok
    assert peak < 1 << 20, peak


def test_structure_names_a_misread_block_form(monkeypatch):
    # Stride-3 views read one term late: only the block form sets them
    # against slices of a matrix read at stride 1, so it fails first.
    hankel_view = hankel._hankel

    def late(kind, first, step, n, count=1, runs=None):
        return hankel_view(kind, first + (step == 3), step, n, count, runs)

    monkeypatch.setattr(hankel, "_hankel", late)
    report = verify_structure(0, 2)
    assert not report.ok
    assert report.failed == "block-form-gamma-r0"
    assert report.checked == ("difference-split",)
    assert verify_structure_by_matrix(0, 2).ok
