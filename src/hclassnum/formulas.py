"""Closed-form evaluation of H_{m,6}(p) and H_{m,8}(p) at primes.

Each modulus has one row table, CASE_ROWS[M]: seven rows for M = 6 and
eleven for M = 8.  A row holds its printed label, the folded residues m it
serves, the prime classes it serves (p mod 3 for M = 6, p mod 8 for M = 8),
a linear part (a*p + b)/c, the coefficient of the square-root-size term
chi(x)*x, and the form n of the representation p = x^2 + n*y^2 that supplies
x (None when the row reads no representation).  At import the rows are laid
out per prime class r: _ROWS[M, r][m] is the one row serving residue m mod M
at primes of class r, with H_{m,M} = H_{-m,M} folded in.  _cells(M, p)
evaluates the rows of p's class for every m at once, calling represent once
for each form they read; h_formula returns its cell m mod M.  CaseRow and
h_formula's FormulaResult are immutable typing.NamedTuple records, so they
also compare equal to plain tuples of their fields.

Values are exact rationals; thirds and halves are legitimate because class
numbers carry them.  cross_check checks every (prime, residue) pair against
the brute-force t-scan and reports which table rows fired.  It works one
prime at a time and in integers: the primes come from the sieve, so
primality is not tested again; one _cells call per prime gives all M
closed-form values; one gather gives all M brute-force sums as the integers
12*H_{m,M}(p); and a row's value is an integer numerator over its
denominator c*d, so a cell holds when 12 * numerator = 12*H_{m,M}(p) * c*d.
Fractions are built only for a mismatch and for the first prime where each
row fires, where that cell is also computed by the scalar paths h_formula
and moment_sum, which must agree with the batched ones.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .forms import CM_CHARACTER
from .hurwitz import _residue_sums12, moment_sum, table_at_least
from .numtheory import PrimeRepresentation, is_prime, primes_up_to, represent
from .reporting import CheckReport

__all__ = [
    "CaseRow",
    "CASE_ROWS",
    "FormulaResult",
    "h_formula",
    "cross_check",
    "MOD6_BRANCHES",
    "MOD8_BRANCHES",
    "FIRST_PRIME",
]


class FormulaResult(NamedTuple):
    """One closed-form evaluation, with the table row that produced it."""

    value: Fraction
    branch: str
    representation: PrimeRepresentation | None = None


class CaseRow(NamedTuple):
    """One printed row: H_{m,M}(p) = (a*p + b)/c + chi_coeff*chi(x)*x."""

    label: str
    residues: tuple[int, ...]
    prime_classes: tuple[int, ...]
    linear: tuple[int, int, int]
    chi_coeff: Fraction
    form: int | None


_ZERO = Fraction(0)

CASE_ROWS: dict[int, tuple[CaseRow, ...]] = {
    6: (
        CaseRow("m=0 (6), p=1 (3)", (0,), (1,), (1, 1, 3), Fraction(1, 3), 3),
        CaseRow("m=0 (6), p=2 (3)", (0,), (2,), (2, -4, 3), _ZERO, None),
        CaseRow("m=1,5 (6), p=1 (3)", (1,), (1,), (1, 1, 4), Fraction(1, 6), 3),
        CaseRow("m=1,5 (6), p=2 (3)", (1,), (2,), (1, 1, 6), _ZERO, None),
        CaseRow("m=2,4 (6), p=1 (3)", (2,), (1,), (1, -1, 2), Fraction(-1, 6), 3),
        CaseRow("m=2,3,4 (6), p=2 (3)", (2, 3), (2,), (1, 1, 3), _ZERO, None),
        CaseRow("m=3 (6), p=1 (3)", (3,), (1,), (1, 1, 6), Fraction(-1, 3), 3),
    ),
    8: (
        CaseRow("m=0 (8), p=1 (4)", (0,), (1, 5), (1, 1, 4), Fraction(1, 2), 4),
        CaseRow("m=0 (8), p=3 (8)", (0,), (3,), (1, 1, 3), _ZERO, None),
        CaseRow("m=0 (8), p=7 (8)", (0,), (7,), (1, -3, 2), _ZERO, None),
        CaseRow("m=2,6 (8), p=1 (4)", (2,), (1, 5), (5, -7, 12), _ZERO, 4),
        CaseRow("m=2,6 (8), p=3 (4)", (2,), (3, 7), (1, 1, 4), _ZERO, None),
        CaseRow("m=4 (8), p=1 (4)", (4,), (1, 5), (1, 1, 4), Fraction(-1, 2), 4),
        CaseRow("m=4 (8), p=3 (8)", (4,), (3,), (1, -3, 2), _ZERO, None),
        CaseRow("m=4 (8), p=7 (8)", (4,), (7,), (1, 1, 3), _ZERO, None),
        CaseRow("m=1,7 (8), p=1,3 (8)", (1,), (1, 3), (1, 1, 6), Fraction(1, 3), 2),
        CaseRow("m odd (8), p=5,7 (8)", (1, 3), (5, 7), (1, 1, 6), _ZERO, None),
        CaseRow("m=3,5 (8), p=1,3 (8)", (3,), (1, 3), (1, 1, 6), Fraction(-1, 3), 2),
    ),
}

MOD6_BRANCHES = tuple(row.label for row in CASE_ROWS[6])
MOD8_BRANCHES = tuple(row.label for row in CASE_ROWS[8])

# smallest prime each table applies to: p must not divide M
FIRST_PRIME = {6: 5, 8: 3}
# the prime classes of a row are residues of p modulo this
_PRIME_CLASS_MODULUS = {6: 3, 8: 8}

# _ROWS[M, r][m]: the row serving residue m mod M at primes of class r,
# folded through H_{m,M} = H_{-m,M}
_ROWS: dict[tuple[int, int], tuple[CaseRow, ...]] = {
    (M, r): tuple(next(row for row in rows
                       if min(m, M - m) in row.residues and r in row.prime_classes)
                  for m in range(M))
    for M, rows in CASE_ROWS.items()
    for r in sorted({r for row in rows for r in row.prime_classes})
}


def h_formula(M: int, p: int, m: int) -> FormulaResult:
    """H_{m,M}(p) for M = 6 (primes p >= 5) or M = 8 (primes p >= 3).

    The character chi of the form x^2 + n*y^2 is forms.CM_CHARACTER[n],
    the one paired with the CM form psi_n; chi(x)*x does not depend on the
    sign of x because every character there is odd.
    """
    if M not in CASE_ROWS:
        raise ValueError("closed forms exist for moduli 6 and 8 only")
    if p < FIRST_PRIME[M] or not is_prime(p):
        raise ValueError(f"H_(m,{M})(p) needs a prime p >= {FIRST_PRIME[M]}")
    row, rep, num, den = _cells(M, p)[m % M]
    return FormulaResult(value=Fraction(num, den), branch=row.label,
                         representation=rep)


def _cells(M: int, p: int) -> list[tuple[CaseRow, PrimeRepresentation | None, int, int]]:
    """For each m in range(M): the row serving (m, p), its representation,
    and H_{m,M}(p) as an integer numerator over the row's denominator c*d.

    p must already be known to be a prime that h_formula accepts.  represent
    runs once for each form that the rows of p's class read.
    """
    rows = _ROWS[M, p % _PRIME_CLASS_MODULUS[M]]
    reps: dict[int, tuple[PrimeRepresentation, int]] = {}
    for n in {row.form for row in rows if row.form is not None}:
        found = represent(p, n)
        reps[n] = found, CM_CHARACTER[n](found.x) * found.x
    cells = []
    for row in rows:
        rep, chi_x = reps.get(row.form, (None, 0))
        # (a*p + b)/c + (k/d)*chi(x)*x over the common denominator c*d
        a, b, c = row.linear
        k, d = row.chi_coeff.numerator, row.chi_coeff.denominator
        cells.append((row, rep, (a * p + b) * d + c * k * chi_x, c * d))
    return cells


def cross_check(M: int, p_max: int) -> CheckReport:
    """Formula values against brute-force moment sums, all residues.

    Runs every prime in range (from 5 for M = 6, from 3 for M = 8) and
    every residue m mod M; details record which table rows were hit.
    """
    if M not in CASE_ROWS:
        raise ValueError("closed forms exist for moduli 6 and 8 only")
    p_min = FIRST_PRIME[M]
    table = table_at_least(4 * p_max + 1)
    mismatches: list[tuple] = []
    branches: set[str] = set()
    checked = 0
    for p in primes_up_to(p_max):
        if p < p_min:
            continue
        cells = zip(_cells(M, p), _residue_sums12(M, p, table))
        for m, ((row, rep, num, den), brute12) in enumerate(cells):
            checked += 1
            if 12 * num != brute12 * den:
                mismatches.append((p, m, Fraction(num, den), Fraction(brute12, 12),
                                   row.label))
            if row.label not in branches:
                branches.add(row.label)
                # the row's first cell, again by the scalar paths
                scalar = h_formula(M, p, m)
                scalar_brute = moment_sum(0, m, M, p)
                if ((scalar.value, scalar.branch, scalar.representation)
                        != (Fraction(num, den), row.label, rep)
                        or scalar_brute != Fraction(brute12, 12)):
                    mismatches.append((p, m, scalar.value, scalar_brute, scalar.branch))
    expected = [row.label for row in CASE_ROWS[M]]
    return CheckReport(
        name=f"closed form vs brute force (mod {M})",
        checked=checked,
        mismatches=mismatches,
        details={
            "p_max": p_max,
            "branches_hit": sorted(branches),
            "branches_expected": expected,
            "branch_coverage_complete": branches == set(expected),
        },
    )
