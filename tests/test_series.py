import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantor_hankel import engine
from cantor_hankel.hankel import det_mod3, hankel_matrix
from cantor_hankel.series import (PeriodicSeries, _reassemble,
                                  assemble_delta2, assemble_gamma2, interleave3,
                                  series_delta, series_gamma)

st_series = st.lists(st.integers(min_value=0, max_value=2),
                     min_size=1, max_size=9).map(
    lambda coeffs: PeriodicSeries(tuple(coeffs)))


def test_construction_canonicalizes_to_minimal_period():
    assert PeriodicSeries((1, 0, 1, 0)).coeffs == (1, 0)
    assert PeriodicSeries((2, 2, 2)).coeffs == (2,)
    assert PeriodicSeries((1, 2, 1)).period == 3


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        PeriodicSeries(())
    with pytest.raises(ValueError):
        PeriodicSeries((0, 3))
    with pytest.raises(ValueError):
        PeriodicSeries((0, -1))


def test_construction_refuses_and_accepts_coefficients_as_a_residue_test():
    # An unhashable coefficient is refused with the same ValueError.
    for bad in (3, -1, 1.5, "1", [1]):
        with pytest.raises(ValueError, match="^coefficients must be mod-3 residues$"):
            PeriodicSeries((0, bad, 2))
    for good in (True, np.int8(1)):
        built = PeriodicSeries((good, 0, 2, good, 0, 2))
        assert built.coeffs == (1, 0, 2) and built.coeffs[0] is good


def test_indexing_and_prefix():
    s = PeriodicSeries((1, 0, 2))
    assert [s.at(i) for i in range(7)] == [1, 0, 2, 1, 0, 2, 1]
    assert s.prefix(5) == [1, 0, 2, 1, 0]


@given(st_series, st_series)
@settings(max_examples=80)
def test_sum_and_hadamard_are_pointwise(a, b):
    total = a + b
    prod = a.hadamard(b)
    for i in range(2 * total.period):
        assert total.at(i) == (a.at(i) + b.at(i)) % 3
        assert prod.at(i) == (a.at(i) * b.at(i)) % 3


@given(st_series, st.integers(min_value=0, max_value=5))
@settings(max_examples=60)
def test_shift_hat_drops_leading_terms(s, k):
    shifted = s.shift_hat(k)
    for i in range(3 * s.period):
        assert shifted.at(i) == s.at(i + k)


def test_shift_bar_prepends_one_term():
    s = PeriodicSeries((1, 0, 2))
    back = s.shift_bar(2)
    assert [back.at(i) for i in range(7)] == [2, 1, 0, 2, 1, 0, 2]
    # Prepending anything but the last coefficient of a period would
    # break pure periodicity.
    with pytest.raises(ValueError):
        s.shift_bar(0)


@given(st_series, st_series, st_series)
@settings(max_examples=40)
def test_interleave_reads_residue_classes(a, b, c):
    braided = interleave3(a, b, c)
    for i in range(2 * braided.period):
        operand = (a, b, c)[i % 3]
        assert braided.at(i) == operand.at(i // 3)


def test_rational_form_strings():
    assert str(series_gamma(0).to_rational()) == "(2 + x + x^2 + 2x^3)/(1 - x^4)"
    assert str(series_gamma(1).to_rational()) == "(1 + 2x^2)/(1 - x^4)"


# The four low-column streams, one minimal period each.
LOW_COLUMNS = {
    ("gamma", 0): (2, 1, 1, 2),
    ("gamma", 1): (1, 0, 2, 0),
    ("delta", 0): (1, 2, 2, 1),
    ("delta", 1): (1, 0, 2, 0),
}


def test_low_columns():
    for (kind, p), coeffs in LOW_COLUMNS.items():
        built = series_gamma(p) if kind == "gamma" else series_delta(p)
        assert built.coeffs == coeffs


def test_column_series_match_engine_streams():
    for p in range(4):
        f, g = series_gamma(p), series_delta(p)
        for n in range(60):
            assert f.at(n) == engine.gamma_mod3(n, p)
            assert g.at(n) == engine.delta_mod3(n, p)


def test_column2_streams():
    assert series_gamma(2).coeffs == (1, 1, 0, 0, 2, 2, 2, 2, 0, 0, 1, 1)
    assert series_delta(2).coeffs == (1, 1, 1, 1, 0, 0, 2, 2, 2, 2, 0, 0)


def test_column2_delta_certificates():
    """Two cells of the delta column at p = 2 pin its stream against any
    shorter-numerator variant: both are nonzero by direct elimination."""
    assert det_mod3(hankel_matrix("delta", 2, 3)) == 1
    assert det_mod3(hankel_matrix("delta", 2, 9)) == 2
    assert series_delta(2).at(3) == 1
    assert series_delta(2).at(9) == 2


def test_column2_reassembly():
    assert assemble_gamma2() == series_gamma(2)
    assert assemble_delta2() == series_delta(2)


@pytest.mark.parametrize("stream,kind,scan", [("G", "gamma", series_gamma),
                                              ("D", "delta", series_delta)])
def test_table_driven_reassembly_beyond_column2(stream, kind, scan):
    """Every column p <= 40 rebuilt from SPLIT_RULES equals its scan, and
    the scan's period (n >= 0) is the engine's minimal period (n >= 1)."""
    for p in range(41):
        built = scan(p)
        assert _reassemble(stream, p) == built, p
        assert engine.column_period(p, kind=kind) == built.period, p
