import importlib
import logging
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantor_hankel import cli
from cantor_hankel.hankel import det_exact, hankel_matrix
from cantor_hankel.pade import (MAX_BASE, MAX_PADE_ORDER, PadeApproximant,
                                RationalInterval, _j_fraction,
                                cantor_coefficients, cantor_number,
                                eta_identity_check, irrationality_estimates,
                                pade, pade_diagonal,
                                verify_functional_equation, verify_pade_error)
from slow_paths import pade_by_elimination

# The module itself: the package rebinds the name pade to the function.
pade_module = importlib.import_module("cantor_hankel.pade")

# Low-order approximants, solved by hand from the 2n coefficient
# equations (the order-2 system is 1 + 0*q1 + q2 = 0, 0 + q1 + 0 = 0).
KNOWN_APPROXIMANTS = {
    1: ((1,), (1,)),
    2: ((-1,), (-1, 0, 1)),
    3: ((1, 0, 1), (1,)),
    4: ((-1, 0, -2), (-1, 0, -1, 0, 1)),
}


def test_low_order_approximants():
    for order, (num, den) in KNOWN_APPROXIMANTS.items():
        for approx in (pade(order), pade_by_elimination(order)):
            assert approx.order == order
            assert (approx.numerator, approx.denominator) == (num, den)


def test_order_validation():
    with pytest.raises(ValueError):
        pade(0)
    with pytest.raises(ValueError):
        PadeApproximant(2, (1,), (0, 1))


def test_diagonal_pass_equals_elimination():
    diagonal = pade_diagonal(60)
    assert len(diagonal) == 60
    for order in range(1, 61):
        assert diagonal[order - 1] == pade_by_elimination(order), order


def _catalan(count):
    out = [1]
    for k in range(1, count):
        out.append(out[-1] * 2 * (2 * k - 1) // (k + 1))
    return out


def test_diagonal_pass_equals_elimination_on_a_series_not_even(monkeypatch):
    # c is even in x, so every eps'_n and a_n of its J-fraction is 0.  The
    # Catalan numbers have every Hankel determinant 1 and a_n = 2 for n >= 1.
    monkeypatch.setattr(pade_module, "cantor_coefficients", _catalan)
    assert [e[1] for _, _, e in _j_fraction(5)] != [0] * 5
    diagonal = pade_diagonal(12)
    for order in range(1, 13):
        assert diagonal[order - 1] == pade_by_elimination(order), order


def test_j_fraction_leading_error_is_determinant_ratio():
    # eps_n, read with Q_n(0) = 1, is the expected_leading of
    # verify_pade_error: H_(n+1) / H_n in column 0 of gamma.
    for n, (_, q, e) in enumerate(_j_fraction(40), 1):
        top = det_exact(hankel_matrix("gamma", 0, n + 1))
        bottom = det_exact(hankel_matrix("gamma", 0, n))
        assert Fraction(e[0], q[0]) == Fraction(top, bottom), n


@pytest.mark.parametrize("max_order, named", [
    (0, "max_order must be at least 1, got 0"),
    (-1, "max_order must be at least 1, got -1"),
    (MAX_PADE_ORDER + 1, f"max_order {MAX_PADE_ORDER + 1} is over the cap"),
])
def test_diagonal_pass_refuses_before_any_work(monkeypatch, max_order, named):
    def no_work(count):
        raise AssertionError("coefficients read before the bounds check")

    monkeypatch.setattr(pade_module, "cantor_coefficients", no_work)
    with pytest.raises(ValueError, match=named):
        pade_diagonal(max_order)


def _series_one(count):
    # f = 1: eps_1 = 0, and the order-2 system is singular.
    return [1] + [0] * (count - 1)


def test_zero_leading_error_raises_and_never_skips(monkeypatch):
    monkeypatch.setattr(pade_module, "cantor_coefficients", _series_one)
    assert pade_diagonal(1) == [pade(1)] == [pade_by_elimination(1)] \
        == [PadeApproximant(1, (1,), (1,))]
    for max_order in (2, 5):
        with pytest.raises(ArithmeticError, match="eps_1 = 0"):
            pade_diagonal(max_order)
    with pytest.raises(ArithmeticError, match="eps_1 = 0"):
        pade(2)
    with pytest.raises(ArithmeticError, match="singular"):
        pade_by_elimination(2)


def test_zero_constant_term_raises(monkeypatch):
    # c_0 = 0 is eps_0 = H_1 = 0: not even the order-1 approximant exists.
    monkeypatch.setattr(pade_module, "cantor_coefficients",
                        lambda count: [0, 1] + [0] * (count - 2))
    with pytest.raises(ArithmeticError, match="eps_0"):
        pade_diagonal(3)
    with pytest.raises(ArithmeticError, match="eps_0"):
        pade(1)
    with pytest.raises(ArithmeticError, match="singular"):
        pade_by_elimination(1)


def test_diagonal_pass_logs_one_debug_record(caplog, capsys):
    caplog.set_level(logging.DEBUG, logger="cantor_hankel.pade")
    pade_diagonal(12)
    records = [r for r in caplog.records if r.name == "cantor_hankel.pade"]
    assert len(records) == 1
    record = records[0]
    assert record.levelno == logging.DEBUG
    max_order, seconds = record.args
    assert max_order == 12 and seconds >= 0
    assert capsys.readouterr().out == ""


def test_coefficients_prefix():
    assert cantor_coefficients(9) == [1, 0, 1, 0, 0, 0, 1, 0, 1]


def test_contact_order():
    # P/Q agrees with the series through degree 2*order - 1 and misses at
    # 2*order by exactly the ratio of consecutive column-0 determinants.
    for order in range(1, 9):
        report = verify_pade_error(order)
        assert report.ok, report
        top = det_exact(hankel_matrix("gamma", 0, order + 1))
        bottom = det_exact(hankel_matrix("gamma", 0, order))
        assert report.expected_leading == Fraction(top, bottom)


def test_verify_on_a_failing_series(monkeypatch):
    # The Catalan series has every Hankel determinant 1, so its leading
    # error 1 misses the Cantor determinant ratio wherever that is not 1.
    monkeypatch.setattr(pade_module, "cantor_coefficients", _catalan)
    reports = [verify_pade_error(order) for order in range(1, 7)]
    assert [r.ok for r in reports] == [True, False, True, False, False, False]
    assert all(r.first_mismatch is None and r.leading == 1 for r in reports)
    assert (reports[3].leading, reports[3].expected_leading) == (1, 2)


def test_pade_verify_output_on_a_failing_series(capsys, monkeypatch):
    # Pinned from the command when it solved the system by elimination.
    monkeypatch.setattr(pade_module, "cantor_coefficients", _catalan)
    assert cli.main(["pade", "-n", "4", "--verify"]) == 1
    assert capsys.readouterr().out == (
        "order 4\nnumerator 1,-6,10,-4\ndenominator 1,-7,15,-10,1\n"
        "error-law FAIL: first mismatch at degree None, leading 1 expected 2\n")


def test_verify_names_the_first_degree_an_approximant_misses(monkeypatch):
    approx = pade(6)
    for degree in range(len(approx.numerator)):
        numerator = list(approx.numerator)
        numerator[degree] += 1
        bent = PadeApproximant(6, tuple(numerator), approx.denominator)
        monkeypatch.setattr(pade_module, "pade", lambda order, bent=bent: bent)
        report = verify_pade_error(6)
        assert not report.ok
        assert report.first_mismatch == degree


def test_error_leading_literals():
    assert verify_pade_error(1).leading == 1
    assert verify_pade_error(2).leading == -1
    assert verify_pade_error(4).leading == 2


def test_value_at():
    assert pade(3).value_at(Fraction(1, 2)) == Fraction(5, 4)
    assert pade(2).value_at(Fraction(1, 2)) == Fraction(4, 3)


def test_functional_equation():
    report = verify_functional_equation(1000)
    assert report.ok
    assert report.first_mismatch is None
    with pytest.raises(ValueError):
        verify_functional_equation(-1)


def test_interval_helpers():
    a = RationalInterval(Fraction(1), Fraction(2))
    b = RationalInterval(Fraction(3, 2), Fraction(7, 4))
    assert a.width == 1
    assert a.lo <= Fraction(3, 2) <= a.hi
    assert a.overlaps(b)
    with pytest.raises(ValueError):
        RationalInterval(Fraction(2), Fraction(1))


def test_cantor_number_literals():
    enc = cantor_number(2, 3)
    assert (enc.lo, enc.hi) == (Fraction(5, 4), Fraction(3, 2))
    assert cantor_number(2, 1).lo == 1
    assert cantor_number(2, 1).hi == 2
    assert cantor_number(10, 9).lo == Fraction(101000101, 10 ** 8)


@given(st.integers(min_value=2, max_value=12),
       st.integers(min_value=1, max_value=40))
@settings(max_examples=60)
def test_cantor_number_enclosures_are_nested(b, terms):
    outer = cantor_number(b, terms)
    inner = cantor_number(b, terms + 1)
    assert outer.lo <= inner.lo and inner.hi <= outer.hi


def test_cantor_number_validation():
    with pytest.raises(ValueError):
        cantor_number(1, 5)
    with pytest.raises(ValueError):
        cantor_number(2, 0)


def test_irrationality_estimates_base2():
    rows = irrationality_estimates(2, 5)
    assert [r.order for r in rows] == [1, 2, 3, 4, 5]
    first = rows[0]
    assert first.degenerate and first.q == 1 and first.note == "integer value"
    assert (rows[1].p, rows[1].q) == (4, 3)
    assert (rows[2].p, rows[2].q) == (5, 4)
    assert (rows[3].p, rows[3].q) == (24, 19)
    for row in rows[1:]:
        assert not row.degenerate
        assert row.exponent_lo <= row.exponent_hi
        assert row.exponent_hi - row.exponent_lo < 0.01


@pytest.mark.parametrize("max_order", [0, -1])
def test_irrationality_estimates_rejects_empty_window(max_order):
    # No order would make an empty report, not a passing one.
    with pytest.raises(ValueError, match=f"max_order must be at least 1, got {max_order}"):
        irrationality_estimates(2, max_order)


def test_irrationality_known_windows():
    rows = irrationality_estimates(2, 3)
    assert rows[1].exponent_lo <= 2.50502 <= rows[1].exponent_hi
    assert rows[2].exponent_lo <= 2.838857 <= rows[2].exponent_hi


def test_irrationality_envelope():
    for b in (2, 3):
        for row in irrationality_estimates(b, 10):
            if row.degenerate:
                continue
            assert 1.5 <= row.exponent_lo <= row.exponent_hi <= 3.5


def test_eta_identity_intervals():
    for b in (2, 3):
        report = eta_identity_check(b, 30)
        assert report.ok
        assert report.lhs.overlaps(report.rhs)
        combined = report.lhs.width + report.rhs.width
        assert combined < Fraction(1, b) ** 28


def test_eta_value_base2():
    # 2.347680464395 sits strictly inside both depth-30 enclosures.
    pinned = Fraction(2347680464395, 10 ** 12)
    report = eta_identity_check(2, 30)
    assert report.lhs.lo <= pinned <= report.lhs.hi
    assert report.rhs.lo <= pinned <= report.rhs.hi


def test_eta_validation():
    with pytest.raises(ValueError):
        eta_identity_check(1, 30)
    with pytest.raises(ValueError):
        eta_identity_check(2, 2)


def test_base_cap_refuses_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("work started before the base check")

    monkeypatch.setattr(pade_module, "pade_diagonal", no_work)
    monkeypatch.setattr(pade_module, "cantor_number", no_work)
    named = f"base b = {MAX_BASE + 1} is over the cap of {MAX_BASE}"
    with pytest.raises(ValueError, match=named):
        irrationality_estimates(MAX_BASE + 1, 3)
    with pytest.raises(ValueError, match=named):
        eta_identity_check(MAX_BASE + 1, 30)


def test_base_at_the_cap_is_accepted():
    assert eta_identity_check(MAX_BASE, 30).ok
    rows = irrationality_estimates(MAX_BASE, 3)
    assert [r.order for r in rows] == [1, 2, 3]
