import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantor_hankel.hankel import (conjugate_by_permutation, det_exact,
                                  det_mod3, hankel_matrix,
                                  permutation_matrix, permutation_p,
                                  stride3_matrix, verify_structure)
from cantor_hankel.sequences import cantor_term, diff_term

st_small_matrix = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
        min_size=n, max_size=n))


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
        stride3_matrix("theta", 0, 0)


def test_stride3_entries():
    m = stride3_matrix("gamma", 2, 3)
    for i in range(3):
        for j in range(3):
            assert m[i, j] == cantor_term(2 + 3 * (i + j))
    with pytest.raises(ValueError, match="order n = 501"):
        stride3_matrix("gamma", 0, 501)


@pytest.mark.parametrize("kind, term", [("gamma", cantor_term), ("delta", diff_term)])
@pytest.mark.parametrize("p", [0, 7, 3 ** 8])
@pytest.mark.parametrize("n", [0, 1, 150])
def test_builders_match_entrywise_definition(kind, term, p, n):
    for build, step in ((hankel_matrix, 1), (stride3_matrix, 3)):
        m = build(kind, p, n)
        assert m.shape == (n, n) and m.dtype == np.int64
        expected = [[term(p + step * (i + j)) for j in range(n)] for i in range(n)]
        assert m.tolist() == expected, (build.__name__, kind, p, n)


@pytest.mark.parametrize("m", [hankel_matrix("gamma", 1, 7),
                               5 * hankel_matrix("delta", 1, 7) - 4],
                         ids=["hankel", "residues-off-0-1-2"])
def test_oracles_leave_their_input_unchanged(m):
    # Row 0 of both starts with a zero pivot, so elimination swaps rows.
    before = m.copy()
    det_mod3(m)
    det_exact(m)
    conjugated = conjugate_by_permutation(m)
    assert np.array_equal(m, before)
    assert not np.shares_memory(conjugated, m)


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


@given(st_small_matrix)
@settings(max_examples=120)
def test_mod3_matches_exact(rows):
    m = np.array(rows)
    assert det_mod3(m) == det_exact(m) % 3


def test_mod3_matches_exact_on_hankel_families():
    for kind in ("gamma", "delta"):
        for n in range(1, 11):
            for p in range(13):
                m = hankel_matrix(kind, p, n)
                assert det_mod3(m) == det_exact(m) % 3


def test_sorting_permutation():
    # 1-based column indices, residue 1 block first, then 2, then 0.
    assert permutation_p(7) == [1, 4, 7, 2, 5, 3, 6]
    for n in range(1, 12):
        assert sorted(permutation_p(n)) == list(range(1, n + 1))
        p = permutation_matrix(n)
        assert np.array_equal(p.T @ p, np.eye(n, dtype=int))


def test_conjugation_by_index_reordering_matches_matmul():
    for kind in ("gamma", "delta"):
        for n in range(13):
            p = permutation_matrix(n)
            for offset in range(4):
                m = hankel_matrix(kind, offset, n)
                assert np.array_equal(conjugate_by_permutation(m), p.T @ m @ p), \
                    (kind, n, offset)


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
