import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantor_hankel.hankel import (IntMatrix, block_matrix,
                                  conjugate_by_permutation, det_exact,
                                  det_mod3, hankel_matrix,
                                  permutation_matrix, permutation_p,
                                  stride3_matrix, verify_structure)
from cantor_hankel.sequences import cantor_term, diff_term

st_small_matrix = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
        min_size=n, max_size=n))


def test_matrix_basics():
    m = IntMatrix(((1, 2, 3), (4, 5, 6)))
    assert (m.rows, m.cols) == (2, 3)
    assert m.transpose().entries == ((1, 4), (2, 5), (3, 6))
    assert m.delete_row(1).entries == ((4, 5, 6),)
    assert m.delete_col(2).entries == ((1, 3), (4, 6))
    with pytest.raises(IndexError):
        m.delete_row(3)
    with pytest.raises(ValueError):
        IntMatrix(((1, 2), (3,)))


def test_matrix_arithmetic():
    a = IntMatrix(((1, 2), (3, 4)))
    b = IntMatrix(((0, 1), (1, 0)))
    assert (a + b).entries == ((1, 3), (4, 4))
    assert a.scaled(-2).entries == ((-2, -4), (-6, -8))
    assert (a @ b).entries == ((2, 1), (4, 3))
    with pytest.raises(ValueError):
        a @ IntMatrix(((1, 2, 3),))


def test_block_matrix():
    a = IntMatrix(((1,),))
    b = IntMatrix(((2, 3),))
    c = IntMatrix(((4,), (5,)))
    d = IntMatrix(((6, 7), (8, 9)))
    assembled = block_matrix([[a, b], [c, d]])
    assert assembled.entries == ((1, 2, 3), (4, 6, 7), (5, 8, 9))
    with pytest.raises(ValueError):
        block_matrix([[a, c]])


def test_hankel_entries():
    m = hankel_matrix("gamma", 2, 4)
    for i in range(4):
        for j in range(4):
            assert m.entries[i][j] == cantor_term(2 + i + j)
    d = hankel_matrix("delta", 1, 3)
    for i in range(3):
        for j in range(3):
            assert d.entries[i][j] == diff_term(1 + i + j)
    with pytest.raises(ValueError):
        hankel_matrix("gamma", -1, 2)
    with pytest.raises(ValueError):
        hankel_matrix("theta", 0, 2)


def test_stride3_entries():
    m = stride3_matrix("gamma", 2, 3)
    for i in range(3):
        for j in range(3):
            assert m.entries[i][j] == cantor_term(2 + 3 * (i + j))


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
        assert _cofactor_det([list(r) for r in m.entries]) == value


def test_bareiss_matches_cofactor_on_hankel_families():
    for kind in ("gamma", "delta"):
        for n in range(7):
            for p in range(7):
                m = hankel_matrix(kind, p, n)
                entries = [list(r) for r in m.entries]
                assert det_exact(m) == _cofactor_det(entries)


@given(st_small_matrix)
@settings(max_examples=120)
def test_bareiss_matches_float_determinant(rows):
    m = IntMatrix(tuple(tuple(r) for r in rows))
    expected = round(float(np.linalg.det(np.array(rows, dtype=float))))
    assert det_exact(m) == expected


@given(st_small_matrix)
@settings(max_examples=120)
def test_mod3_matches_exact(rows):
    m = IntMatrix(tuple(tuple(r) for r in rows))
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
        identity = IntMatrix.from_fn(n, n, lambda i, j: int(i == j))
        assert (p.transpose() @ p).entries == identity.entries


def test_conjugation_by_index_reordering_matches_matmul():
    for kind in ("gamma", "delta"):
        for n in range(13):
            p = permutation_matrix(n)
            for offset in range(4):
                m = hankel_matrix(kind, offset, n)
                assert conjugate_by_permutation(m) == p.transpose() @ m @ p, \
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
