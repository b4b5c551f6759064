"""Exact arithmetic for Hurwitz class numbers and their restricted sums.

The package computes H(n) by reduced-form enumeration, manipulates
q-expansions exactly (integer numerators over one denominator) with the
U/V/sieve/twist operator calculus, verifies the weight-2 identities that
evaluate the congruence-restricted sums H_{m,6}(p) and H_{m,8}(p) in closed
form, and cross-checks everything against brute force and an independent
elliptic-curve counting oracle.
"""
from .eccount import trace_distribution, verify_curve_counts
from .forms import d_series, e2_series, psi_series, theta_mM
from .formulas import FormulaResult, cross_check, h_formula
from .hurwitz import build_table, hurwitz_series, moment_sum
from .numtheory import (
    CHI_MINUS3,
    CHI_MINUS4,
    DirichletCharacter,
    PrimeRepresentation,
    is_prime,
    kronecker_symbol,
    represent,
)
from .qseries import QSeries
from .reporting import CheckReport
from .sums import (
    g_series,
    lambda_series,
    lambda_u4_twist,
    mu_coeff,
    t_series,
)
from .verify import (
    GroupSpec,
    group_index,
    sturm_bound,
    verify_classical,
    verify_lemmas,
    verify_mod6,
    verify_mod8,
)

__version__ = "0.1.0"

__all__ = [
    "CHI_MINUS3",
    "CHI_MINUS4",
    "CheckReport",
    "DirichletCharacter",
    "FormulaResult",
    "GroupSpec",
    "PrimeRepresentation",
    "QSeries",
    "build_table",
    "cross_check",
    "d_series",
    "e2_series",
    "g_series",
    "group_index",
    "h_formula",
    "hurwitz_series",
    "is_prime",
    "kronecker_symbol",
    "lambda_series",
    "lambda_u4_twist",
    "moment_sum",
    "mu_coeff",
    "psi_series",
    "represent",
    "sturm_bound",
    "t_series",
    "theta_mM",
    "trace_distribution",
    "verify_classical",
    "verify_curve_counts",
    "verify_lemmas",
    "verify_mod6",
    "verify_mod8",
]
