"""Closed-form evaluation of H_{m,6}(p) and H_{m,8}(p) at primes.

The case tables are spelled out row by row: seven rows for modulus 6 and
eight plus three rows for modulus 8 (even and odd residues read different
tables, with different x^2 + n*y^2 representations supplying the
square-root-size term chi(x)*x).  The residue m is reduced mod M and folded
through H_{m,M} = H_{-m,M} before dispatch.

Values are exact rationals; thirds and halves are legitimate because class
numbers carry them.  cross_check replays every (prime, residue) pair against
the brute-force moment_sum and reports which table rows fired.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .hurwitz import moment_sum, table_at_least
from .numtheory import (
    CHI_MINUS3,
    CHI_MINUS4,
    PrimeRepresentation,
    is_prime,
    primes_up_to,
    represent,
)
from .reporting import CheckReport

__all__ = [
    "FormulaResult",
    "h_mod6",
    "h_mod8",
    "h_formula",
    "cross_check",
    "MOD6_BRANCHES",
    "MOD8_BRANCHES",
    "FIRST_PRIME",
]


@dataclass(frozen=True)
class FormulaResult:
    """One closed-form evaluation, with the table row that produced it."""

    p: int
    m: int
    M: int
    value: Fraction
    branch: str
    representation: PrimeRepresentation | None = None


MOD6_BRANCHES = (
    "m=0 (6), p=1 (3)",
    "m=0 (6), p=2 (3)",
    "m=1,5 (6), p=1 (3)",
    "m=1,5 (6), p=2 (3)",
    "m=2,4 (6), p=1 (3)",
    "m=2,3,4 (6), p=2 (3)",
    "m=3 (6), p=1 (3)",
)

MOD8_BRANCHES = (
    "m=0 (8), p=1 (4)",
    "m=0 (8), p=3 (8)",
    "m=0 (8), p=7 (8)",
    "m=2,6 (8), p=1 (4)",
    "m=2,6 (8), p=3 (4)",
    "m=4 (8), p=1 (4)",
    "m=4 (8), p=3 (8)",
    "m=4 (8), p=7 (8)",
    "m=1,7 (8), p=1,3 (8)",
    "m odd (8), p=5,7 (8)",
    "m=3,5 (8), p=1,3 (8)",
)

# smallest prime each table applies to: p must not divide M
FIRST_PRIME = {6: 5, 8: 3}


def _fold(m: int, M: int) -> int:
    """Reduce mod M and fold through m <-> M - m (H_{m,M} = H_{-m,M})."""
    r = m % M
    return min(r, M - r) if r else 0


def h_mod6(p: int, m: int) -> FormulaResult:
    """H_{m,6}(p) for primes p >= 5, via the seven-row case table.

    For p = 1 (mod 3) the table consumes the representation p = x^2 + 3y^2;
    chi_{-3}(x)*x does not depend on the sign choice of x because the
    character is odd.
    """
    if p < 5 or not is_prime(p):
        raise ValueError("h_mod6 needs a prime p >= 5")
    folded = _fold(m, 6)
    value: Fraction
    rep = None
    if p % 3 == 1:
        rep = represent(p, 3)
        term = CHI_MINUS3(rep.x) * rep.x
        if folded == 0:
            value = Fraction(p + 1, 3) + term / 3
            branch = MOD6_BRANCHES[0]
        elif folded == 1:
            value = Fraction(p + 1, 4) + term / 6
            branch = MOD6_BRANCHES[2]
        elif folded == 2:
            value = Fraction(p - 1, 2) - term / 6
            branch = MOD6_BRANCHES[4]
        else:
            value = Fraction(p + 1, 6) - term / 3
            branch = MOD6_BRANCHES[6]
    else:
        if folded == 0:
            value = Fraction(2 * p - 4, 3)
            branch = MOD6_BRANCHES[1]
        elif folded == 1:
            value = Fraction(p + 1, 6)
            branch = MOD6_BRANCHES[3]
        else:  # folded 2 and 3 share a printed row
            value = Fraction(p + 1, 3)
            branch = MOD6_BRANCHES[5]
    return FormulaResult(p=p, m=m, M=6, value=value, branch=branch,
                         representation=rep)


def h_mod8(p: int, m: int) -> FormulaResult:
    """H_{m,8}(p) for primes p >= 3, via the even-m and odd-m case tables.

    Even residues read p = x^2 + 4y^2 (available for p = 1 mod 4); odd
    residues read p = x^2 + 2y^2 (available for p = 1, 3 mod 8).
    """
    if p < 3 or not is_prime(p):
        raise ValueError("h_mod8 needs a prime p >= 3")
    folded = _fold(m, 8)
    rep = None
    if folded % 2 == 0:
        if p % 4 == 1:
            rep = represent(p, 4)
            term = CHI_MINUS4(rep.x) * rep.x
            if folded == 0:
                value = Fraction(p + 1, 4) + term / 2
                branch = MOD8_BRANCHES[0]
            elif folded == 2:
                value = Fraction(5 * p - 7, 12)
                branch = MOD8_BRANCHES[3]
            else:
                value = Fraction(p + 1, 4) - term / 2
                branch = MOD8_BRANCHES[5]
        elif folded == 2:
            value = Fraction(p + 1, 4)
            branch = MOD8_BRANCHES[4]
        elif p % 8 == 3:
            value = Fraction(p + 1, 3) if folded == 0 else Fraction(p - 3, 2)
            branch = MOD8_BRANCHES[1] if folded == 0 else MOD8_BRANCHES[6]
        else:  # p = 7 (mod 8)
            value = Fraction(p - 3, 2) if folded == 0 else Fraction(p + 1, 3)
            branch = MOD8_BRANCHES[2] if folded == 0 else MOD8_BRANCHES[7]
    else:
        if p % 8 in (1, 3):
            rep = represent(p, 2)
            term = CHI_MINUS4(rep.x) * rep.x
            if folded == 1:
                value = Fraction(p + 1, 6) + term / 3
                branch = MOD8_BRANCHES[8]
            else:
                value = Fraction(p + 1, 6) - term / 3
                branch = MOD8_BRANCHES[10]
        else:
            value = Fraction(p + 1, 6)
            branch = MOD8_BRANCHES[9]
    return FormulaResult(p=p, m=m, M=8, value=value, branch=branch,
                         representation=rep)


def h_formula(M: int, p: int, m: int) -> FormulaResult:
    """Dispatch to the modulus-6 or modulus-8 table."""
    if M == 6:
        return h_mod6(p, m)
    if M == 8:
        return h_mod8(p, m)
    raise ValueError("closed forms exist for moduli 6 and 8 only")


def cross_check(M: int, p_max: int) -> CheckReport:
    """Formula values against brute-force moment sums, all residues.

    Runs every prime in range (from 5 for M = 6, from 3 for M = 8) and
    every residue m mod M; details record which table rows were hit.
    """
    if M not in (6, 8):
        raise ValueError("closed forms exist for moduli 6 and 8 only")
    p_min = FIRST_PRIME[M]
    table_at_least(4 * p_max + 1)
    mismatches: list[tuple] = []
    branches: set[str] = set()
    checked = 0
    for p in primes_up_to(p_max):
        if p < p_min:
            continue
        for m in range(M):
            checked += 1
            result = h_formula(M, p, m)
            branches.add(result.branch)
            brute = moment_sum(0, m, M, p)
            if result.value != brute:
                mismatches.append((p, m, result.value, brute, result.branch))
    expected = MOD6_BRANCHES if M == 6 else MOD8_BRANCHES
    return CheckReport(
        name=f"closed form vs brute force (mod {M})",
        checked=checked,
        mismatches=mismatches,
        details={
            "p_max": p_max,
            "branches_hit": sorted(branches),
            "branches_expected": list(expected),
            "branch_coverage_complete": branches == set(expected),
        },
    )
