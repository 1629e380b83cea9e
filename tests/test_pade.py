import importlib
import logging
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantor_hankel import cli
from cantor_hankel.hankel import det_exact, hankel_matrix
from cantor_hankel.pade import (MAX_BASE, MAX_ETA_DEPTH, MAX_PADE_ORDER,
                                PadeApproximant, _j_fraction,
                                cantor_coefficients,
                                eta_identity_check, irrationality_estimates,
                                pade, pade_diagonal,
                                verify_functional_equation, verify_pade_error)
from cantor_hankel.sequences import diff_run
from slow_paths import (RationalInterval, cantor_number_by_fractions, eta_sum_by_horner,
                        exponent_interval_by_iv, irrationality_estimates_by_fractions,
                        pade_by_elimination,
                        pade_value_by_fraction_horner, verify_pade_error_by_fractions)

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


def test_pade_normalises_the_last_triple_of_the_pass():
    diagonal = pade_diagonal(60)
    for order in range(1, 61):
        assert pade(order) == diagonal[order - 1], order
    assert pade(MAX_PADE_ORDER) == pade_diagonal(MAX_PADE_ORDER)[-1]


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


def _report_or_error(verify, order):
    try:
        return verify(order)
    except ArithmeticError as exc:
        return type(exc), str(exc)


def test_error_law_on_integers_equals_fraction_division():
    for order in range(1, 61):
        assert verify_pade_error(order) == verify_pade_error_by_fractions(order), order


@pytest.mark.parametrize("series", [_catalan, _series_one])
def test_error_law_on_integers_equals_fraction_division_on_patched_series(monkeypatch,
                                                                          series):
    monkeypatch.setattr(pade_module, "cantor_coefficients", series)
    for order in range(1, 9):
        assert _report_or_error(verify_pade_error, order) \
            == _report_or_error(verify_pade_error_by_fractions, order), order


def _bent_order6():
    """The order-6 approximant with one coefficient moved: each numerator
    coefficient up by 1, then each denominator coefficient one further
    from 0, so a q0 of -1 becomes -2."""
    approx = pade(6)
    for degree in range(len(approx.numerator)):
        numerator = list(approx.numerator)
        numerator[degree] += 1
        yield PadeApproximant(6, tuple(numerator), approx.denominator)
    for degree, coeff in enumerate(approx.denominator):
        denominator = list(approx.denominator)
        denominator[degree] += 1 if coeff >= 0 else -1
        yield PadeApproximant(6, approx.numerator, tuple(denominator))


def test_error_law_on_integers_equals_fraction_division_when_bent(monkeypatch):
    reports = []
    for bent in _bent_order6():
        monkeypatch.setattr(pade_module, "pade", lambda order, bent=bent: bent)
        report = verify_pade_error(6)
        assert report == verify_pade_error_by_fractions(6), bent
        reports.append(report)
    assert not any(r.ok for r in reports)
    # A q0 of -2 leaves the leading error a proper fraction.
    assert any(r.leading.denominator > 1 for r in reports)


def test_error_leading_literals():
    assert verify_pade_error(1).leading == 1
    assert verify_pade_error(2).leading == -1
    assert verify_pade_error(4).leading == 2


def test_value_at():
    assert pade(3).value_at(Fraction(1, 2)) == Fraction(5, 4)
    assert pade(2).value_at(Fraction(1, 2)) == Fraction(4, 3)


def test_value_at_matches_fraction_horner():
    points = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction(-3, 5),
              Fraction(1, 2 ** 32), Fraction(5), Fraction(0)]
    for approx in pade_diagonal(80):
        for x in points:
            assert approx.value_at(x) == pade_value_by_fraction_horner(approx, x), \
                (approx.order, x)


def test_value_at_a_root_of_the_denominator():
    # Q(x) = (1 - 2x)(1 + x**2) vanishes at 1/2, and the common scale
    # has to reach the denominator's degree, past the numerator's.
    approx = PadeApproximant(3, (1, 1), (1, -2, 1, -2))
    for value_at in (approx.value_at, lambda x: pade_value_by_fraction_horner(approx, x)):
        with pytest.raises(ZeroDivisionError):
            value_at(Fraction(1, 2))
    assert approx.value_at(Fraction(-1, 3)) == Fraction(2, 3) / Fraction(50, 27)


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


def _xi_enclosure(b, depth, growing=None):
    """The enclosure of xi that _XiEnclosures reads at depth, fresh or
    from growing, as a RationalInterval."""
    lo, m = (growing or pade_module._XiEnclosures(b))(depth)
    return RationalInterval(Fraction(lo, m), Fraction(lo + 1, m))


def test_cantor_number_literals():
    assert _xi_enclosure(2, 3) == RationalInterval(Fraction(5, 4), Fraction(3, 2))
    assert _xi_enclosure(2, 1) == RationalInterval(Fraction(1), Fraction(2))
    assert _xi_enclosure(10, 9).lo == Fraction(101000101, 10 ** 8)


@given(st.integers(min_value=2, max_value=12),
       st.integers(min_value=1, max_value=40))
@settings(max_examples=60)
def test_cantor_number_enclosures_are_nested(b, terms):
    growing = pade_module._XiEnclosures(b)
    outer, inner = _xi_enclosure(b, terms, growing), _xi_enclosure(b, terms + 1, growing)
    assert outer.lo <= inner.lo and inner.hi <= outer.hi
    assert (outer, inner) == (_xi_enclosure(b, terms), _xi_enclosure(b, terms + 1))


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


@pytest.mark.parametrize("b, max_order",
                         [(b, 60) for b in [*range(2, 13), 97, 2 ** 31 - 1, 2 ** 32]]
                         + [(2, 100), (3, 100), (2 ** 32, 100)])
def test_irrationality_estimates_match_the_fraction_path(b, max_order):
    assert (irrationality_estimates(b, max_order)
            == irrationality_estimates_by_fractions(b, max_order))


@pytest.mark.parametrize("b", [2, 3, 10, 2 ** 32])
def test_xi_enclosures_read_by_irr_equal_cantor_number(monkeypatch, b):
    read = []
    enclose = pade_module._XiEnclosures.__call__

    def recording(self, depth):
        lo, m = enclose(self, depth)
        read.append((depth, lo, m))
        return lo, m

    monkeypatch.setattr(pade_module._XiEnclosures, "__call__", recording)
    irrationality_estimates(b, 60)
    assert len({depth for depth, _, _ in read}) > 50
    for depth, lo, m in read:
        enclosure = RationalInterval(Fraction(lo, m), Fraction(lo + 1, m))
        assert enclosure == cantor_number_by_fractions(b, depth)


@pytest.mark.parametrize("b, max_order", [(2, 100), (3, 60), (2 ** 32, 100)])
def test_exponent_windows_enclose_the_log_quotient(monkeypatch, b, max_order):
    # Every window must hold -log(d)/log(q) for every distance d in
    # [d_lo, d_hi]; checked at its ends at 256 bits, far past the ulp by
    # which a float endpoint rounded inward would miss.
    import mpmath

    windows = []
    exponent_interval = pade_module._exponent_interval

    def recording(d_lo, d_hi, q):
        lo, hi = exponent_interval(d_lo, d_hi, q)
        windows.append((d_lo, d_hi, q, lo, hi))
        return lo, hi

    monkeypatch.setattr(pade_module, "_exponent_interval", recording)
    irrationality_estimates(b, max_order)
    assert len(windows) > max_order // 2
    mp = mpmath.mp
    with mp.workprec(256):
        def exponent(d, q):
            return -mp.log(mp.mpf(d.numerator) / d.denominator) / mp.log(q)

        for d_lo, d_hi, q, lo, hi in windows:
            assert mp.mpf(lo) <= exponent(d_hi, q)
            assert exponent(d_lo, q) <= mp.mpf(hi)


def _interval(ends):
    """An EtaReport side, (lo, hi, den), as a RationalInterval."""
    lo, hi, den = ends
    return RationalInterval(Fraction(lo, den), Fraction(hi, den))


@given(st.integers(min_value=2, max_value=2 ** 40),
       st.lists(st.integers(min_value=0, max_value=2 ** 40), max_size=300),
       st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_split_sums_equal_the_horner_sum(b, drawn, depths):
    # Runs of base-b digits, except at b = 2, where terms of 2 are drawn
    # too, as d has them, padded with the top term past every depth;
    # each depth read fresh and all of them in ascending order from one
    # growing run.
    top = 2 if b == 2 else b - 1
    terms = np.array([t % (top + 1) for t in drawn] + [top] * 300, dtype=object)

    def run(start, count):
        return terms[start:start + count]

    depths = sorted(depths)
    growing = pade_module._XiEnclosures(b, run)
    for depth in depths:
        reference = eta_sum_by_horner(b, depth - 3, run)
        for lo, m in (pade_module._XiEnclosures(b, run)(depth), growing(depth)):
            assert RationalInterval(Fraction(lo, m), Fraction(lo + 2, m)) == reference


@st.composite
def _distance_windows(draw):
    """(d_lo, d_hi, q) with d_hi / d_lo at most 1 + 10**-3, as irr admits,
    d below 1, around 1 or above it, and q of 1 to 70 bits."""
    scale = draw(st.integers(min_value=10 ** 6, max_value=2 ** 200))
    around = draw(st.sampled_from(["below", "around", "above"]))
    if around == "below":
        d_lo = Fraction(draw(st.integers(min_value=1, max_value=scale)), scale ** 2)
    elif around == "around":
        d_lo = Fraction(scale - draw(st.integers(min_value=0, max_value=scale // 2000)), scale)
    else:
        d_lo = Fraction(draw(st.integers(min_value=scale, max_value=scale ** 2)), scale)
    widen = Fraction(draw(st.integers(min_value=0, max_value=1000)),
                     draw(st.sampled_from([10 ** 6, 10 ** 9, 10 ** 30])))
    bits = draw(st.integers(min_value=2, max_value=70))
    q = draw(st.integers(min_value=2 ** (bits - 1), max_value=2 ** bits))
    return d_lo, d_lo * (1 + widen), q


def _window(numerator, denominator, widen, q):
    d_lo = Fraction(numerator, denominator)
    return d_lo, d_lo * (1 + Fraction(widen, 10 ** 6)), q


@given(_distance_windows())
# Where the low or the high end, of either sign, rounds to another float
# when divided by the other end of log q: drawn windows reach such a
# float boundary about once in two thousand.
@example(_window(3338743, 8580467, 967, 93552141))
@example(_window(31807494, 157637, 675, 15482))
@example(_window(1598177, 2873097, 528, 10879020617960524))
@example(_window(1698871302, 2079497, 804, 571356500237158797))
@settings(max_examples=300, deadline=None)
def test_exponent_interval_equals_the_iv_context(window):
    # Both endpoints float for float, in all three numerator-sign cases
    # of mpi_div: -log(d) positive, straddling 0 and negative.
    d_lo, d_hi, q = window
    assert pade_module._exponent_interval(d_lo, d_hi, q) == exponent_interval_by_iv(d_lo, d_hi, q)


def test_eta_identity_intervals():
    for b in (2, 3):
        report = eta_identity_check(b, 30)
        assert report.ok
        lhs, rhs = _interval(report.lhs), _interval(report.rhs)
        assert lhs.overlaps(rhs)
        combined = lhs.width + rhs.width
        assert combined < Fraction(1, b) ** 28


def test_eta_value_base2():
    # 2.347680464395 sits strictly inside both depth-30 enclosures.
    pinned = Fraction(2347680464395, 10 ** 12)
    report = eta_identity_check(2, 30)
    for side in (report.lhs, report.rhs):
        assert _interval(side).lo <= pinned <= _interval(side).hi


def _fraction_eta_check(b, depth, run=diff_run):
    """eta_identity_check's sides and verdict in Fractions.  The lhs is
    the Horner sum of run; the rhs is built from the enclosure of xi at
    b**3 that _XiEnclosures reads."""
    lo, m = pade_module._XiEnclosures(b ** 3)(depth // 3 + 3)
    xi = RationalInterval(Fraction(lo, m), Fraction(lo + 1, m))
    factor = 2 + Fraction(b) ** 2 + Fraction(1, b) ** 2
    rhs = RationalInterval(factor * xi.lo - b ** 2, factor * xi.hi - b ** 2)
    lhs = eta_sum_by_horner(b, depth, run)
    ok = lhs.overlaps(rhs) and lhs.width + rhs.width < Fraction(1, b) ** (depth - 2)
    return lhs, rhs, ok


def _assert_report_equals(report, lhs, rhs, ok):
    # Cross-multiplied, so neither side of the report is reduced.
    for (lo, hi, den), fractions in ((report.lhs, lhs), (report.rhs, rhs)):
        for end, fraction in ((lo, fractions.lo), (hi, fractions.hi)):
            assert end * fraction.denominator == fraction.numerator * den
    assert report.ok == ok


@pytest.mark.parametrize("b", [2, 3, 10, 2 ** 32])
@pytest.mark.parametrize("depth", [3, 4, 30, 60, 200, MAX_ETA_DEPTH])
def test_eta_sum_equals_its_own_horner_sum(b, depth):
    # The lhs split-summed through _XiEnclosures over d, (lo + 2)/m at
    # the top; the rhs and the verdict on integers over their own
    # denominators.
    _assert_report_equals(eta_identity_check(b, depth), *_fraction_eta_check(b, depth))


@pytest.mark.parametrize("b, depth", [(2, 3), (2, 30), (3, 31), (10, 12), (2 ** 32, 200)])
def test_eta_verdict_equals_the_fraction_verdict_on_bent_runs(monkeypatch, b, depth):
    # One d term moved by 1: at term 0 (d_0 = 2) the lhs moves a whole
    # unit above or below the rhs, near the cut it may or may not stay
    # on it.
    verdicts = []
    for index, shift in ((0, 1), (0, -1), (depth // 2, 1), (depth + 2, 1)):
        def bent(start, count, index=index, shift=shift):
            terms = diff_run(start, count).copy()
            if start <= index < start + count:
                terms[index - start] += shift
            return terms

        monkeypatch.setattr(pade_module, "diff_run", bent)
        report = eta_identity_check(b, depth)
        _assert_report_equals(report, *_fraction_eta_check(b, depth, bent))
        verdicts.append(report.ok)
    assert verdicts[:2] == [False, False]


@pytest.mark.parametrize("b, depth", [(2, 30), (3, 31), (2 ** 32, 200)])
def test_eta_verdict_fails_on_a_wide_enclosure(monkeypatch, b, depth):
    # The d sum cut at half the depth still encloses eta, so only the
    # width test can fail it.
    enclose = pade_module._XiEnclosures.__call__
    monkeypatch.setattr(pade_module._XiEnclosures, "__call__",
                        lambda self, d: enclose(self, d // 2 if self._run else d))
    report = eta_identity_check(b, depth)
    assert _interval(report.lhs).overlaps(_interval(report.rhs))
    assert not report.ok


def test_eta_validation():
    with pytest.raises(ValueError):
        eta_identity_check(1, 30)
    with pytest.raises(ValueError):
        eta_identity_check(2, 2)


def test_base_cap_refuses_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("work started before the base check")

    # Everything irr and eta read: the approximants, the two runs and
    # the enclosures of xi and eta.
    for name in ("pade_diagonal", "cantor_run", "diff_run", "_XiEnclosures"):
        monkeypatch.setattr(pade_module, name, no_work)
    named = f"base b = {MAX_BASE + 1} is over the cap of {MAX_BASE}"
    with pytest.raises(ValueError, match=named):
        irrationality_estimates(MAX_BASE + 1, 3)
    with pytest.raises(ValueError, match=named):
        eta_identity_check(MAX_BASE + 1, 30)


def test_base_at_the_cap_is_accepted():
    assert eta_identity_check(MAX_BASE, 30).ok
    rows = irrationality_estimates(MAX_BASE, 3)
    assert [r.order for r in rows] == [1, 2, 3]
