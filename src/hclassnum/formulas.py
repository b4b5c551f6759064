"""Closed-form evaluation of H_{m,6}(p) and H_{m,8}(p) at primes.

Each value is the coefficient of q^p in one weight-2 identity of verify
(MOD6_IDENTITIES, MOD8_IDENTITIES).  verify's Sturm check proves each
identity for all n, given that both sides are modular on the recorded group,
which is the paper's theorem (Sturm, On the congruence of modular forms,
LNM 1240, 1987); the closed forms follow from it.

CASE_ROWS[M] holds the printed rows, seven for M = 6 and eleven for M = 8:
a row's label (the branch h_formula and cross_check report), the folded
residues m and the prime classes (p mod 3 for M = 6, p mod 8 for M = 8) it
serves, and the form k of p = x^2 + k*y^2 whose CM series psi_k it reads
(None when it reads none).  At import _ROWS[M, r] lays out the rows of
prime class r: the forms they read and, for each m, the row serving m mod M
(H_{m,M} = H_{-m,M} folded in) with its value (A*p + B + C*psi_k(p)) / D as
integers, which _class_layout reads off the identity, so that C/D is the
identity's own cm coefficient.  h_formula evaluates the one row serving
(m, p), with psi_k(p) = 2*chi(x)*x from represent (Cornacchia's algorithm),
since a single p runs far past any series.  CaseRow and FormulaResult are
typing.NamedTuple records, so they also compare equal to plain tuples of
their fields.

Values are exact rationals; thirds and halves are legitimate because class
numbers carry them.  cross_check checks every (prime, residue) pair against
the brute-force t-scan, one prime at a time and in integers: psi_k(p) comes
off each CM series psi_k the rows read, built once up to p_max, so no
sieved prime is tested or represented again, and hurwitz._residue_sums12
gives all M sums 12*H_{m,M}(p) from one C-level gather.  Fractions are
built only for a mismatch and for the first cell of each row, which the
scalar paths h_formula (Cornacchia) and moment_sum (a t-scan) recompute
independently and must agree with.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, lcm
from typing import NamedTuple

from .forms import CM_CHARACTER, psi_series
from .hurwitz import _residue_sums12, moment_sum
from .numtheory import PrimeRepresentation, is_prime, primes_up_to, represent
from .reporting import CheckReport
from .sums import lambda_u4_twist
from .verify import MOD6_IDENTITIES, MOD8_IDENTITIES

__all__ = [
    "CaseRow",
    "CASE_ROWS",
    "FormulaResult",
    "h_formula",
    "cross_check",
    "FIRST_PRIME",
]


class FormulaResult(NamedTuple):
    """One closed-form evaluation, with the table row that produced it."""

    value: Fraction
    branch: str
    representation: PrimeRepresentation | None = None


class CaseRow(NamedTuple):
    """One printed row: what it serves, and the form n whose x it reads."""

    label: str
    residues: tuple[int, ...]
    prime_classes: tuple[int, ...]
    form: int | None


CASE_ROWS: dict[int, tuple[CaseRow, ...]] = {
    6: (
        CaseRow("m=0 (6), p=1 (3)", (0,), (1,), 3),
        CaseRow("m=0 (6), p=2 (3)", (0,), (2,), None),
        CaseRow("m=1,5 (6), p=1 (3)", (1,), (1,), 3),
        CaseRow("m=1,5 (6), p=2 (3)", (1,), (2,), None),
        CaseRow("m=2,4 (6), p=1 (3)", (2,), (1,), 3),
        CaseRow("m=2,3,4 (6), p=2 (3)", (2, 3), (2,), None),
        CaseRow("m=3 (6), p=1 (3)", (3,), (1,), 3),
    ),
    8: (
        CaseRow("m=0 (8), p=1 (4)", (0,), (1, 5), 4),
        CaseRow("m=0 (8), p=3 (8)", (0,), (3,), None),
        CaseRow("m=0 (8), p=7 (8)", (0,), (7,), None),
        CaseRow("m=2,6 (8), p=1 (4)", (2,), (1, 5), 4),
        CaseRow("m=2,6 (8), p=3 (4)", (2,), (3, 7), None),
        CaseRow("m=4 (8), p=1 (4)", (4,), (1, 5), 4),
        CaseRow("m=4 (8), p=3 (8)", (4,), (3,), None),
        CaseRow("m=4 (8), p=7 (8)", (4,), (7,), None),
        CaseRow("m=1,7 (8), p=1,3 (8)", (1,), (1, 3), 2),
        CaseRow("m odd (8), p=5,7 (8)", (1, 3), (5, 7), None),
        CaseRow("m=3,5 (8), p=1,3 (8)", (3,), (1, 3), 2),
    ),
}

# smallest prime each table applies to: p must not divide M
FIRST_PRIME = {6: 5, 8: 3}
# the prime classes of a row are residues of p modulo this
_PRIME_CLASS_MODULUS = {6: 3, 8: 8}
# the identities each table is read off
_IDENTITIES = {6: MOD6_IDENTITIES, 8: MOD8_IDENTITIES}
# the least prime of each prime class, which stands for it in _class_layout
_CLASS_PRIME = {(M, r): next(p for p in count(FIRST_PRIME[M]) if p % q == r and is_prime(p))
                for M, q in _PRIME_CLASS_MODULUS.items() for r in range(q) if gcd(r, q) == 1}
# Lambda_{1,m,M} | U_4 of each identity, past every such prime (zero for odd m)
_LAMBDA = {(M, spec.m): lambda_u4_twist(1, spec.m, M, max(_CLASS_PRIME.values()) + 1)
           for M, specs in _IDENTITIES.items() for spec in specs}


def _class_layout(M: int, r: int) -> tuple[tuple[int, ...], tuple[tuple, ...]]:
    """The rows of CASE_ROWS[M] at primes of class r:
    the forms k of x^2 + k*y^2 they read, and per m the serving row with
    the integers (A, B, C, D) of its value (A*p + B + C*psi_k(p)) / D.

    At a prime p not dividing M, the identity for min(m, M - m) with
    cm = (c, k) reads H_{m,M}(p) + Lambda(p)/2 = alpha*(p + 1) + c*psi_k(p):
    alpha sums the coeff of each d_term with p = residue (mod modulus), and
    psi_k(p) vanishes unless the row reads x^2 + k*y^2.  So A/D = alpha,
    B/D = alpha - Lambda(p)/2 and C/D = c, or 0 when the row reads no form.
    The class's least prime stands for all of it: each d_terms sieve and
    Lambda's read p only mod 6 (M = 6, p odd) or mod 8 (M = 8); at a prime,
    d = 1 is the only divisor below sqrt(p), and T vanishes off the squares.
    """
    p = _CLASS_PRIME[M, r]
    derived = {}
    for spec in _IDENTITIES[M]:
        row = next(row for row in CASE_ROWS[M]
                   if spec.m in row.residues and r in row.prime_classes)
        alpha = sum((coeff for coeff, modulus, residue in spec.d_terms
                     if (p - residue) % modulus == 0), Fraction(0))
        cm = spec.cm[0] if spec.cm and row.form else Fraction(0)
        coeffs = (alpha, alpha - _LAMBDA[M, spec.m][p] / 2, cm)
        d = lcm(*(x.denominator for x in coeffs))
        derived[spec.m] = (row, *(x.numerator * d // x.denominator for x in coeffs), d)
    layout = [derived[min(m, M - m)] for m in range(M)]
    forms = {row.form for row, *_ in layout if row.form is not None}
    return tuple(sorted(forms)), tuple(layout)


_ROWS = {key: _class_layout(*key) for key in _CLASS_PRIME}


def h_formula(M: int, p: int, m: int) -> FormulaResult:
    """H_{m,M}(p) for M = 6 (primes p >= 5) or M = 8 (primes p >= 3).

    Evaluates the one row serving (m, p).  When the row reads a form
    x^2 + k*y^2, represent solves p = x^2 + k*y^2 by Cornacchia's algorithm
    and psi_k(p) = 2*chi(x)*x, with chi from forms.CM_CHARACTER[k], the
    character paired with the CM form psi_k; chi(x)*x does not depend on the
    sign of x because every character there is odd.
    """
    if M not in CASE_ROWS:
        raise ValueError("closed forms exist for moduli 6 and 8 only")
    if p < FIRST_PRIME[M] or not is_prime(p):
        raise ValueError(f"H_(m,{M})(p) needs a prime p >= {FIRST_PRIME[M]}")
    row, a, b, c, d = _ROWS[M, p % _PRIME_CLASS_MODULUS[M]][1][m % M]
    rep = represent(p, row.form) if row.form else None
    psi = 2 * CM_CHARACTER[row.form](rep.x) * rep.x if row.form else 0
    return FormulaResult(value=Fraction(a * p + b + c * psi, d), branch=row.label,
                         representation=rep)


def cross_check(M: int, p_max: int) -> CheckReport:
    """Formula values against brute-force moment sums, all residues.

    Runs every prime in range (from 5 for M = 6, from 3 for M = 8) and
    every residue m mod M; details record which table rows were hit.
    """
    if M not in CASE_ROWS:
        raise ValueError("closed forms exist for moduli 6 and 8 only")
    primes = [p for p in primes_up_to(p_max) if p >= FIRST_PRIME[M]]
    q = _PRIME_CLASS_MODULUS[M]
    # psi_k(p) at every p <= p_max, off the CM series the identities read;
    # each is an integer, so its numerator is its value
    psi = {k: psi_series(k, CM_CHARACTER[k], max(p_max, 0) + 1)
           for k in {row.form for row in CASE_ROWS[M]} - {None}}
    mismatches: list[tuple] = []
    branches: set[str] = set()
    checked = 0
    for p, sums12 in zip(primes, _residue_sums12(M, primes)):
        forms, layout = _ROWS[M, p % q]
        psi_p = {k: psi[k][p].numerator for k in forms}
        for m, ((row, a, b, c, d), brute12) in enumerate(zip(layout, sums12)):
            checked += 1
            num = a * p + b + c * psi_p.get(row.form, 0)
            if 12 * num != d * brute12:
                mismatches.append((p, m, Fraction(num, d), Fraction(brute12, 12),
                                   row.label))
            if row.label not in branches:
                branches.add(row.label)
                # the row's first cell, again by the scalar paths: Cornacchia
                # against the psi lattice sum, one t-scan against the gather
                scalar = h_formula(M, p, m)
                scalar_brute = moment_sum(0, m, M, p)
                if ((scalar.value, scalar.branch) != (Fraction(num, d), row.label)
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
