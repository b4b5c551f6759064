"""Sturm-bound verification of the restricted class-number-sum identities.

Each identity compares two weight-2 q-expansions coefficient by coefficient:

  LHS = twist by the principal character mod M of (H * theta_{m,M}) | U_4,
        plus a correction equal to 1/2 of the closed form of
        Lambda_{1,m,M} | U_4 twisted the same way (a combination of sieved
        divisor-sum series G and the square-supported series T);
  RHS = sieved copies of one D = sum sigma(n) q^n, coeff * D | S_{modulus,
        residue} for each of the identity's d_terms, plus at most one CM
        series coeff * psi_k, with psi_k = psi_series(k, CM_CHARACTER[k])
        for k = 3, 4 or 2 (none for m = 2 mod 8).

Each side has one construction here: the LHS through the operator pipeline,
the CM series by lattice enumeration.  The independent rebuilds, the LHS
from brute-force t-scans (an oracle in tests/oracles.py) and each psi as
a theta product, live in the tests.

Both sides are modular of weight 2 on the recorded group, so agreement of
the first floor(2 * index / 12) + 1 coefficients forces equality (Sturm, On
the congruence of modular forms, LNM 1240, 1987).  So a passing check
proves the identity for all n, given that both sides are modular on the
recorded group, which is the paper's theorem; formulas reads the closed
forms of H_{m,M}(p) off the same specs, so they follow from it too.  The
suites check a multiple of that bound (overshoot) to also catch precision
bookkeeping bugs.  Groups are Gamma_0(N1) intersect Gamma_1(N2) with index

    N1 * prod_{p | N1} (1 + 1/p) * phi(N2).

For the cases where the sieved theta forces Gamma_1 level (m = 1, 2, 3 for
M = 6; m = 1, 3 for M = 8) the bound is recomputed from that larger index
rather than reusing the Gamma_0 bound; conservative costs nothing here.

verify_lemmas exercises the lattice-sum layer itself: the literal mu and
Lambda sums against their divisor-sum closed forms.  One walk of the lattice
points of t^2 - s^2 = 4n per (M, ell) gives both literal sides: a row of
2 * Lambda(4n) over n for every residue m, and a row of all M^2 residue
pairs of mu per n.  Each closed side is built apart from that walk, Lambda
by lambda_u4_twist and mu by its own divisor sweep; lambda_series, mu_coeff
and mu_closed are the tests' oracles for the rows.  verify_classical covers
the two classical regressions (the full class-number sum equal to 2p, and
the 3-case evaluation of H_{0,5}(p)).
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .forms import CM_CHARACTER, d_series, psi_series, theta_mM
from .hurwitz import _residue_sums12, hurwitz_series
from .numtheory import (
    DirichletCharacter,
    _ValidatedRecord,
    euler_phi,
    prime_factors,
    primes_up_to,
)
from .qseries import QSeries
from .reporting import CheckReport, jsonable
from .sums import _literal_rows, _mu_closed_rows, lambda_u4_twist

__all__ = [
    "GroupSpec",
    "group_index",
    "sturm_bound",
    "IdentityReport",
    "IdentitySpec",
    "MOD6_IDENTITIES",
    "MOD8_IDENTITIES",
    "identity_lhs",
    "identity_rhs",
    "verify_identity",
    "verify_mod6",
    "verify_mod8",
    "verify_lemmas",
    "verify_classical",
]


class _GroupFields(NamedTuple):
    n1: int
    n2: int = 1


class GroupSpec(_ValidatedRecord, _GroupFields):
    """Gamma_0(n1) intersect Gamma_1(n2), with n2 | n1."""

    __slots__ = ()

    def __new__(cls, n1: int, n2: int = 1) -> GroupSpec:
        if n1 < 1 or n2 < 1:
            raise ValueError("levels must be positive")
        if n1 % n2:
            raise ValueError("n2 must divide n1")
        return super().__new__(cls, n1, n2)


def group_index(group: GroupSpec) -> int:
    """Index of the group in SL2(Z)."""
    idx = group.n1
    for p in prime_factors(group.n1):
        idx = idx // p * (p + 1)
    return idx * euler_phi(group.n2)


def sturm_bound(weight: int, group: GroupSpec) -> int:
    """Agreement of coefficients 0..bound forces equality at this weight."""
    if weight < 2:
        raise ValueError("Sturm bound needs weight >= 2")
    return weight * group_index(group) // 12


class IdentityReport:
    """Result of one coefficientwise identity check."""

    __slots__ = ("name", "group", "weight", "bound", "checked", "mismatches")

    def __init__(self, name: str, group: GroupSpec, weight: int, bound: int,
                 checked: int, mismatches: list[tuple[int, Fraction, Fraction]]) -> None:
        self.name = name
        self.group = group
        self.weight = weight
        self.bound = bound
        self.checked = checked
        self.mismatches = mismatches

    @property
    def verdict(self) -> bool:
        return not self.mismatches and self.checked >= self.bound + 1

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "group": {"n1": self.group.n1, "n2": self.group.n2},
            "weight": self.weight,
            "index": group_index(self.group),
            "bound": self.bound,
            "checked": self.checked,
            "mismatch_count": len(self.mismatches),
            "mismatches": jsonable(self.mismatches),
            "verdict": self.verdict,
        }


class IdentitySpec(NamedTuple):
    """One identity: (m, modulus) fix the left side (see identity_lhs), and
    the right side is

        sum of coeff * D | S_{modulus,residue} over d_terms
        + coeff * psi_k for cm = (coeff, k), no CM term when cm is None.

    verify_identity's Sturm check proves the identity for all n, given that
    both sides are modular on group (the paper's theorem).  formulas derives
    its closed forms from these fields: at a prime p, H_{m,M}(p) is the
    coefficient of q^p.
    """

    m: int
    modulus: int
    group: GroupSpec
    d_terms: tuple[tuple[Fraction, int, int], ...]
    cm: tuple[Fraction, int] | None

    @property
    def name(self) -> str:
        return f"m={self.m} mod {self.modulus}"


_G144 = GroupSpec(144)
_G144_G1 = GroupSpec(144, 6)
_G256 = GroupSpec(256)
_G256_G1 = GroupSpec(256, 8)

MOD6_IDENTITIES: tuple[IdentitySpec, ...] = (
    IdentitySpec(0, 6, _G144, ((Fraction(1, 3), 6, 1), (Fraction(2, 3), 6, 5)),
                 (Fraction(1, 6), 3)),
    IdentitySpec(1, 6, _G144_G1, ((Fraction(1, 4), 6, 1), (Fraction(1, 6), 6, 5)),
                 (Fraction(1, 12), 3)),
    IdentitySpec(2, 6, _G144_G1, ((Fraction(1, 2), 6, 1), (Fraction(1, 3), 6, 5)),
                 (Fraction(-1, 12), 3)),
    IdentitySpec(3, 6, _G144_G1, ((Fraction(1, 6), 6, 1), (Fraction(1, 3), 6, 5)),
                 (Fraction(-1, 6), 3)),
)

# D twisted by the principal character mod 8 (odd m) is D | S_{2,1}
MOD8_IDENTITIES: tuple[IdentitySpec, ...] = (
    IdentitySpec(0, 8, _G256, ((Fraction(1, 4), 4, 1), (Fraction(1, 3), 8, 3),
                               (Fraction(1, 2), 8, 7)), (Fraction(1, 4), 4)),
    IdentitySpec(1, 8, _G256_G1, ((Fraction(1, 6), 2, 1),), (Fraction(1, 6), 2)),
    IdentitySpec(2, 8, _G256, ((Fraction(5, 12), 4, 1), (Fraction(1, 4), 4, 3)), None),
    IdentitySpec(3, 8, _G256_G1, ((Fraction(1, 6), 2, 1),), (Fraction(-1, 6), 2)),
    IdentitySpec(4, 8, _G256, ((Fraction(1, 4), 4, 1), (Fraction(1, 2), 8, 3),
                               (Fraction(1, 3), 8, 7)), (Fraction(-1, 4), 4)),
)


def identity_lhs(spec: IdentitySpec, precision: int) -> QSeries:
    """Left side of an identity, to the requested precision.

    Multiplies the class-number series by the sieved theta and applies U_4,
    in one strided product that forms only the coefficients U_4 keeps.
    The tests rebuild the same side from brute-force t-scans of every
    H_{m,M}(n), with an oracle in tests/oracles.py, and compare the two.
    """
    m, M = spec.m, spec.modulus
    inner = 4 * precision - 3  # U_4 output then has exactly `precision`
    base = hurwitz_series(inner).mul_u(theta_mM(m, M, inner), 4)
    chi0 = DirichletCharacter.principal(M)
    correction = Fraction(1, 2) * lambda_u4_twist(1, m, M, precision)
    return base.twist(chi0) + correction


def identity_rhs(spec: IdentitySpec, precision: int) -> QSeries:
    """Right side of an identity, to the requested precision."""
    d = d_series(precision)
    total = QSeries.zero(precision)
    for coeff, modulus, residue in spec.d_terms:
        total = total + coeff * d.sieve(modulus, residue)
    if spec.cm is not None:
        coeff, k = spec.cm
        total = total + coeff * psi_series(k, CM_CHARACTER[k], precision)
    return total


def verify_identity(spec: IdentitySpec, overshoot: int = 4) -> IdentityReport:
    """Check one identity to overshoot times its Sturm bound."""
    if overshoot < 1:
        raise ValueError("overshoot must be >= 1")
    bound = sturm_bound(2, spec.group)
    precision = overshoot * bound + 1
    lhs = identity_lhs(spec, precision)
    rhs = identity_rhs(spec, precision)
    mismatches = [] if lhs == rhs else [
        (n, lhs[n], rhs[n]) for n in range(precision) if lhs[n] != rhs[n]
    ]
    return IdentityReport(
        name=spec.name,
        group=spec.group,
        weight=2,
        bound=bound,
        checked=precision,
        mismatches=mismatches,
    )


def verify_mod6(overshoot: int = 4) -> list[IdentityReport]:
    """The four identities for modulus 6 (m = 0, 1, 2, 3)."""
    return [verify_identity(spec, overshoot) for spec in MOD6_IDENTITIES]


def verify_mod8(overshoot: int = 4) -> list[IdentityReport]:
    """The five identities for modulus 8 (m = 0, ..., 4)."""
    return [verify_identity(spec, overshoot) for spec in MOD8_IDENTITIES]


def verify_lemmas(n_max: int = 600) -> CheckReport:
    """Literal lattice sums against their closed forms, for M = 6 and 8.

    Two families, for ell in {0, 1, 3}: the twisted U_4 image of
    Lambda_{ell,m,M} for every residue m, compared coefficientwise to n_max;
    and mu_{ell,a,b,M}(n) for every residue pair (a, b) against its
    divisor-sum evaluation, for every n <= n_max coprime to M.  One walk of
    the lattice points per (M, ell) gives the literal side of both families,
    all M residues of Lambda and all M^2 pairs of mu for every n.  The closed
    sides are built apart from it: lambda_u4_twist per residue, and one
    divisor sweep binning the mu pairs of every n into one row.  Each
    (a, b, n) of mu counts as one check.  Each (M, ell) checks Lambda and
    then mu.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    mismatches: list[tuple] = []
    checked = 0
    for M in (6, 8):
        for ell in (0, 1, 3):
            lam_rows, mu_rows = _literal_rows(ell, M, n_max)
            for m, row in enumerate(lam_rows):
                literal = QSeries._from_numerators(row, 2)
                closed = lambda_u4_twist(ell, m, M, n_max)
                checked += n_max
                if literal != closed:
                    mismatches.extend(
                        ("lambda", M, ell, m, n, literal[n], closed[n])
                        for n in range(n_max)
                        if literal[n] != closed[n]
                    )
            closed_rows = _mu_closed_rows(ell, M, n_max)
            for n in range(1, n_max + 1):
                if gcd(n, M) != 1:
                    continue
                checked += M * M
                literal, closed = mu_rows[n], closed_rows[n]
                if literal != closed:
                    mismatches.extend(
                        ("mu", M, ell, i // M, i % M, n, lit, clo)
                        for i, (lit, clo) in enumerate(zip(literal, closed))
                        if lit != clo
                    )
            del lam_rows, mu_rows, closed_rows  # one (M, ell) alive at a time
    return CheckReport(
        name="lattice-sum lemmas (M=6,8)",
        checked=checked,
        mismatches=mismatches,
        details={"n_max": n_max, "ells": [0, 1, 3]},
    )


def _h05_expected12(p: int) -> int:
    """12 times the 3-case evaluation of H_{0,5}(p), for primes p with 5 not
    dividing p: (p + 1)/2, (p + 1)/3 or (p - 3)/2 as p = 1, 2 or 3, 4 (mod 5)."""
    r = p % 5
    if r == 1:
        return 6 * (p + 1)
    if r in (2, 3):
        return 4 * (p + 1)
    return 6 * (p - 3)


def verify_classical(p_max: int = 2000) -> CheckReport:
    """Classical regressions: sum_t H(4p - t^2) = 2p, and H_{0,5}(p).

    The full class-number sum is checked for every prime p <= p_max; the
    modulus-5 evaluation for primes 7 <= p <= p_max (it has no case for
    p = 5 itself).  Both compare the integers 12*H.
    """
    primes = primes_up_to(p_max)
    mismatches: list[tuple] = []
    checked = 0
    # one gather per prime: the five classes mod 5 together are the full sum
    for p, sums12 in zip(primes, _residue_sums12(5, primes)):
        checked += 1
        total12 = sum(sums12)
        if total12 != 24 * p:
            mismatches.append(("eichler", p, Fraction(total12, 12), 2 * p))
        if p >= 7:
            checked += 1
            want12 = _h05_expected12(p)
            if sums12[0] != want12:
                mismatches.append(("h05", p, Fraction(sums12[0], 12), Fraction(want12, 12)))
    return CheckReport(
        name="classical sums",
        checked=checked,
        mismatches=mismatches,
        details={"p_max": p_max},
    )
