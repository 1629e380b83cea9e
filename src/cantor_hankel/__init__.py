"""Exact Hankel determinants of the Cantor sequence.

The package splits into layers that deliberately do not trust each
other: `sequences` defines the digit-avoiding sequence and its
difference companion, `hankel` computes determinants by elimination
alone, `engine` computes the same values mod 3 through splitting
recurrences, `series` and `kernel` package the columns as rational
series and a base-3 automaton, `pade` turns the nonvanishing column
into approximation bounds, and `checks` replays every identity with
the oracle on one side.
"""

from .engine import (closed_form_p0, closed_form_p1, column_period,
                     delta_mod3, gamma_mod3, grid)
from .hankel import (StructureReport, det_exact, det_mod3, hankel_matrix,
                     hankel_stack, minors_exact_stack, minors_mod3_stack,
                     verify_structure)
from .kernel import (Closure, Dfao1D, Dfao2D, KernelExpr, build_dfao,
                     export_dfao, kernel_closure, parse_dfao_table,
                     project_row)
from .pade import (ApproximationExponent, EtaReport, PadeApproximant,
                   PadeErrorReport, eta_identity_check,
                   irrationality_estimates, pade, pade_diagonal,
                   verify_functional_equation, verify_pade_error)
from .sequences import (cantor_run, cantor_term, cantor_via_automaton,
                        diff_run, diff_term, sequence_slice, substitution_word)
from .series import (PeriodicSeries, RationalForm, assemble_delta2,
                     assemble_gamma2, interleave3, series_delta,
                     series_gamma)

__version__ = "0.1.0"

__all__ = [
    "ApproximationExponent", "Closure", "Dfao1D", "Dfao2D", "EtaReport",
    "KernelExpr", "PadeApproximant", "PadeErrorReport", "PeriodicSeries",
    "RationalForm", "StructureReport", "assemble_delta2", "assemble_gamma2",
    "build_dfao", "cantor_run", "cantor_term", "cantor_via_automaton",
    "closed_form_p0", "closed_form_p1", "column_period", "delta_mod3",
    "det_exact", "det_mod3", "diff_run", "diff_term", "eta_identity_check",
    "export_dfao", "gamma_mod3", "grid", "hankel_matrix", "hankel_stack",
    "interleave3", "irrationality_estimates", "kernel_closure",
    "minors_exact_stack", "minors_mod3_stack", "pade", "pade_diagonal",
    "parse_dfao_table", "project_row", "sequence_slice", "series_delta",
    "series_gamma", "substitution_word", "verify_functional_equation",
    "verify_pade_error", "verify_structure",
    "__version__",
]
