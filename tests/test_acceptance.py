"""Acceptance sweep: every criterion at its full stated window.

Each test prints the underlying report line (visible with -s or -rA);
pytest -v gives the one pass/fail line per criterion.  Windows here are
the wide ones, so this file dominates the suite's runtime; the module
tests cover the same ground on smaller windows.
"""

import math
from pathlib import Path

from cantor_hankel import checks, cli, series
from cantor_hankel.hankel import det_mod3, hankel_matrix
from cantor_hankel.kernel import kernel_closure
from cantor_hankel.pade import eta_identity_check, irrationality_estimates


def _passes(result):
    print(result.line())
    assert result.ok, result.detail
    return result


def test_criterion_01_oracle_equivalence():
    _passes(checks.oracle_equivalence(n_max=40, p_max=81))


def test_criterion_02_exact_recurrences():
    _passes(checks.splitting_exact(n_lo=2, n_hi=8, p_max=27))
    _passes(checks.splitting_mod3(n_lo=2, n_hi=8, p_max=27))


def test_criterion_03_closed_forms():
    _passes(checks.closed_forms(n_max=2000))


def test_criterion_04a_series_low_columns_and_gamma2():
    assert series.series_gamma(0).coeffs == (2, 1, 1, 2)
    assert series.series_delta(0).coeffs == (1, 2, 2, 1)
    assert series.series_gamma(1).coeffs == (1, 0, 2, 0)
    assert series.series_delta(1).coeffs == (1, 0, 2, 0)
    assembled = series.assemble_gamma2()
    assert assembled == series.series_gamma(2)
    assert assembled.coeffs == (1, 1, 0, 0, 2, 2, 2, 2, 0, 0, 1, 1)
    print("ok   series gamma columns 0-2 and delta columns 0-1")


def test_criterion_04b_series_delta_column2_short_numerator():
    """The delta column at p = 2 is the period-12 stream with the
    eight-term numerator 1 + x + x^2 + x^3 + 2x^6 + 2x^7 + 2x^8 + 2x^9
    over 1 - x^12, i.e. coefficients (1,1,1,1,0,0,2,2,2,2,0,0).

    By hand: d_2..d_6 = 1, 0, 1, 0, 2, so Delta_3^2 is the determinant
    of [[1,0,1],[0,1,0],[1,0,2]], which is 2 - 1 = 1.  Exact elimination
    gives Delta_9^2 = -7, which is 2 mod 3.  Both cells refute the older
    six-term numerator 1 + x + x^2 + 2x^6 + 2x^7 + 2x^8, which predicts 0
    at n = 3 and n = 9.  The "short_numerator" name is kept so the test
    stays traceable to that earlier claim.

    The expected stream is checked against GF(3) elimination over three
    full periods, so it rests on the oracle rather than on the engine;
    the column from the engine and its reassembly from columns 0 and 1
    must both equal it."""
    claimed = (1, 1, 1, 1, 0, 0, 2, 2, 2, 2, 0, 0)
    assembled = series.assemble_delta2()
    cert3 = det_mod3(hankel_matrix("delta", 2, 3))
    cert9 = det_mod3(hankel_matrix("delta", 2, 9))
    assert cert3 == 1, f"Delta_3^2 mod 3 is {cert3}; by hand it is 1"
    assert cert9 == 2, f"Delta_9^2 mod 3 is {cert9}; -7 is 2 mod 3"
    assert assembled == series.series_delta(2)
    assert assembled.coeffs == claimed, (
        f"assembled delta column 2 is {assembled.coeffs}; the eight-term "
        f"numerator gives {claimed}")
    oracle = [det_mod3(hankel_matrix("delta", 2, n)) for n in range(36)]
    assert assembled.prefix(36) == oracle, (
        f"elimination gives {oracle} for delta column 2, n < 36; the "
        f"eight-term numerator predicts {claimed} repeated")
    print("ok   series delta column 2 = eight-term numerator over 1 - x^12")


def test_criterion_05_periodicity():
    _passes(checks.period_bounds(k_values=(0, 1, 2)))


def test_criterion_06_kernel_and_automaton():
    for start in ("gamma", "delta"):
        closure = kernel_closure(start)
        assert len(closure.states) == 1632
    _passes(checks.kernel_soundness(window=20))
    _passes(checks.dfao_grid(n_max=96, p_max=127))


def test_criterion_07_pade_contact():
    _passes(checks.pade_error_law(max_order=12))


def test_criterion_08_functional_equation():
    _passes(checks.functional_equation(degree=3000))


def test_criterion_09_irrationality_and_eta():
    for b in (2, 3, 10):
        rows = irrationality_estimates(b, 12)
        assert len(rows) == 12
        for row in rows:
            if row.degenerate:
                continue
            assert math.isfinite(row.exponent_lo)
            assert math.isfinite(row.exponent_hi)
            assert row.exponent_lo <= row.exponent_hi
        for row in rows[-3:]:
            assert not row.degenerate, (b, row.order, row.note)
            assert 1.8 <= row.exponent_lo <= row.exponent_hi <= 2.4, (b, row)
        print(f"ok   exponent intervals b={b}: final three inside [1.8, 2.4]")
    for b in (2, 3):
        report = eta_identity_check(b, 60)
        assert report.ok, (b, report.lhs[0] / report.lhs[2], report.rhs[0] / report.rhs[2])
        print(f"ok   eta enclosures overlap at depth 60 for b={b}")


def test_criterion_10_verify_determinism(capsys):
    first_code = cli.main(["verify"])
    first = capsys.readouterr().out
    second_code = cli.main(["verify"])
    second = capsys.readouterr().out
    assert first_code == 0 and second_code == 0
    assert first == second
    assert len(first.splitlines()) == 11
    expected = Path(__file__).resolve().parent.parent / "bench" / "expected_verify.txt"
    assert first == expected.read_text()
    print("ok   two verify runs byte-identical and equal to the expected report")
