"""Congruence-restricted lattice sums and their closed-form evaluations.

The series here parametrize solutions of t^2 - s^2 = n (or 4n) with both
entries pinned to residue classes:

  lambda_{l,m,M}(n) = sum_{+-} sum*_{t>s>=0, t^2-s^2=n, t=+-m (M)} (t-s)^l
      where the * means terms with s = 0 carry weight 1/2;
  mu_{l,a,b,M}(n)   = sum_{t>s>=1, t^2-s^2=4n, t=a (M), s=b (M)} (t-s)^l;
  g_{l,m,M}(n)      = sum_{+-} sum_{d|n, d<sqrt(n), d=+-m (M)} d^l;
  T_{l,m,M}         = sum_{+-} sum_{n=+-m (M), n>=1} n^l q^{n^2}.

The two +- branches are always both summed, even when they pick out the
same residue class (so m = 0 mod M counts everything twice); the factor
2^(l+1) in the m = 0 rows of the closed forms below forces that reading,
and the dual-pipeline equivalence tests lock it in.

Closed form: for even M = 2^e * M1 (M1 odd) and with f = 0 when e = 1 and
f = e otherwise, the twisted image of Lambda under U_4,

    Lambda_{l,m,M} | U_4 (x) chi_{M,0},

vanishes for odd m and otherwise, writing m = 2*m1, equals

    2^l * sum over b1 mod 2^(e-1)M1 with gcd(m1^2-b1^2, 2^(e-1)M1) = 1 of
          G_{l,m1-b1,2^(e-1)M1} | S_{2^f M1, m1^2-b1^2} | S_{2,1}
    + 2^(l-1) * T_{l,m1,2^(e-1)M1} (x) chi_{M,0}.

The sieve modulus 2^f * M1 is M when 4 | M and M/2 otherwise;
_sieve_modulus decides it for lambda_u4_twist, mu_closed and _mu_closed_rows.

lambda_u4_twist assembles exactly this sum for every even M, and
verify_lemmas checks it against the literal side for every m at once:
_lambda_literal_rows bins one factorization sweep of n = d1*e1 (4n =
(2*d1)(2*e1)) by t = d1 + e1 mod M.  lambda_series | U_4 (x) chi_{M,0} is
the tests' oracle for those rows.  For the paper's moduli it specialises
to these case rows
(m read mod M; odd m gives zero):

    M = 6, m = 0:     2^(l+1) * G_{l,1,3} | S_{6,5}
    M = 6, m = 2, 4:  2^l * G_{l,1,3} | S_{6,1} + 2^(l-1) * T_{l,1,6}
    M = 8, m = 0:     2^(l+1) * G_{l,1,4} | S_{8,7}
    M = 8, m = 4:     2^(l+1) * G_{l,1,4} | S_{8,3}
    M = 8, m = 2, 6:  2^l * G_{l,1,4} | S_{4,1} + 2^(l-1) * T_{l,1,4}

For mu, verify_lemmas compares all M^2 residue pairs (a, b) at once, one
row per n from each of two private sweeps: _mu_literal_rows bins one
factorization sweep of 4n = d*e by (t, s) mod M, and _mu_closed_rows bins
one divisor sweep by d mod M/2 and applies mu_closed's rule to each row.
The scalar mu_coeff and mu_closed are the tests' oracle for those rows.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .numtheory import DirichletCharacter, divisors
from .qseries import QSeries

__all__ = [
    "mu_coeff",
    "mu_closed",
    "lambda_series",
    "mu_series",
    "g_series",
    "t_series",
    "lambda_u4_twist",
]


def _check(ell: int, M: int, precision: int = 1) -> None:
    """Reject ell < 0, then M < 1, then precision < 1."""
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    if M < 1:
        raise ValueError("modulus must be positive")
    if precision < 1:
        raise ValueError("precision must be >= 1")


def _sieve_modulus(M: int) -> int:
    """2^f * M1 for even M = 2^e * M1: M when 4 | M, M // 2 otherwise."""
    return M if M % 4 == 0 else M // 2


def _branch_weight(t: int, m: int, M: int) -> int:
    """Number of sign branches (t = +m or t = -m mod M) that match t."""
    return ((t - m) % M == 0) + ((t + m) % M == 0)


def mu_coeff(ell: int, a: int, b: int, M: int, n: int) -> int:
    """mu_{ell,a,b,M}(n): literal scan over t > s >= 1 with t^2 - s^2 = 4n.
    Public as the tests' oracle for _mu_literal_rows; perfbench hooks it."""
    _check(ell, M)
    if n < 1:
        raise ValueError("n must be >= 1")
    four_n = 4 * n
    total = 0
    for d in range(1, isqrt(four_n - 1) + 1):  # d = t - s < sqrt(4n)
        if four_n % d:
            continue
        e = four_n // d
        if (e - d) % 2:
            continue
        s = (e - d) // 2
        if s < 1:
            continue
        t = (e + d) // 2
        if (t - a) % M == 0 and (s - b) % M == 0:
            total += d**ell
    return total


def mu_closed(ell: int, a: int, b: int, M: int, n: int) -> int:
    """Divisor-sum evaluation of mu_{ell,a,b,M}(n).

    Valid for even M and gcd(n, M) = 1: zero when a or b is odd; for
    a = 2*a1, b = 2*b1 it is 2^ell times the sum of d^ell over divisors
    d | n with d < sqrt(n) and d = a1 - b1 (mod 2^(e-1) M1), provided
    n = a1^2 - b1^2 (mod 2^f M1), and zero otherwise.  Public as the
    tests' oracle for _mu_closed_rows; perfbench hooks it by name.
    """
    _check(ell, M)
    if M % 2:
        raise ValueError("closed form requires even modulus")
    if gcd(n, M) != 1:
        raise ValueError("closed form requires gcd(n, M) = 1")
    if a % 2 or b % 2:
        return 0
    half = M // 2  # 2^(e-1) * M1
    a1, b1 = a // 2, b // 2
    if (n - (a1 * a1 - b1 * b1)) % _sieve_modulus(M):
        return 0
    target = (a1 - b1) % half
    return 2**ell * sum(
        d**ell for d in divisors(n) if d * d < n and d % half == target
    )


def _mu_literal_rows(ell: int, M: int, n_max: int) -> list[list[int]]:
    """mu_coeff for every (a, b) and n <= n_max, from one factorization sweep.

    rows[n][a*M + b] = mu_{ell,a,b,M}(n); rows[0] is zero.  4n = d*e with
    d < e of the same parity forces both even, so the sweep runs over
    n = d1*e1 with d1 < e1, where d = 2*d1, s = e1 - d1 and t = e1 + d1.
    """
    rows = [[0] * (M * M) for _ in range(n_max + 1)]
    d1 = 1
    while d1 * (d1 + 1) <= n_max:
        dl = (2 * d1) ** ell
        for e1 in range(d1 + 1, n_max // d1 + 1):
            rows[d1 * e1][(e1 + d1) % M * M + (e1 - d1) % M] += dl
        d1 += 1
    return rows


def _mu_closed_rows(ell: int, M: int, n_max: int) -> list[list[int]]:
    """mu_closed for every (a, b) and n <= n_max, from one divisor sweep.

    Same layout as _mu_literal_rows, for even M.  Each divisor d | n with
    d < sqrt(n) adds d^ell into the bin (n, d mod M/2); row (a, b) of n is
    then mu_closed's rule applied to the bin of (a1 - b1) mod M/2.  The rows
    equal mu_closed only where it is defined, at n coprime to M.
    """
    half = M // 2  # 2^(e-1) * M1
    residue_mod = _sieve_modulus(M)
    bins = [[0] * half for _ in range(n_max + 1)]
    d = 1
    while d * (d + 1) <= n_max:
        dl = d**ell
        r = d % half
        for n in range(d * (d + 1), n_max + 1, d):
            bins[n][r] += dl
        d += 1
    # the (row index, bin) pairs live for each class of n mod 2^f * M1
    live: list[list[tuple[int, int]]] = [[] for _ in range(residue_mod)]
    for a1 in range(half):
        for b1 in range(half):
            cell = (2 * a1 * M + 2 * b1, (a1 - b1) % half)
            live[(a1 * a1 - b1 * b1) % residue_mod].append(cell)
    two_l = 2**ell
    rows = []
    for n in range(n_max + 1):
        row = [0] * (M * M)
        bin_n = bins[n]
        for index, r in live[n % residue_mod]:
            row[index] = two_l * bin_n[r]
        rows.append(row)
    return rows


def _lambda_literal_rows(ell: int, M: int, n_max: int) -> list[list[int]]:
    """2 * lambda_{ell,m,M}(4n) at n < n_max coprime to M, for every m mod M.

    rows[m] holds the numerators over 2 of lambda_series(ell, m, M, 4*n_max)
    | U_4 (x) chi_{M,0}, zero at every n not coprime to M.  4n = d*e with
    d <= e of the same parity forces both even, so the sweep runs over
    n = d1*e1 with d1 <= e1, where d = 2*d1 and t = d1 + e1.  It bins
    (2*d1)^ell by t mod M, doubled when d1 < e1 (the half weight of s = 0
    is the single count at d1 = e1), and row m sums the bins with the
    weight of each sign branch.
    """
    bins = [[0] * n_max for _ in range(M)]
    d1 = 1
    while d1 * d1 < n_max:
        dl = (2 * d1) ** ell
        bins[2 * d1 % M][d1 * d1] += dl
        for e1 in range(d1 + 1, (n_max - 1) // d1 + 1):
            bins[(d1 + e1) % M][d1 * e1] += 2 * dl
        d1 += 1
    for r in range(M):
        if gcd(r, M) != 1:
            for column in bins:
                column[r::M] = [0] * len(column[r::M])
    rows = []
    for m in range(M):
        row = [0] * n_max
        for r, column in enumerate(bins):
            w = _branch_weight(r, m, M)
            if w:
                row = [x + w * y for x, y in zip(row, column)]
        rows.append(row)
    return rows


def lambda_series(ell: int, m: int, M: int, precision: int) -> QSeries:
    """sum_n lambda_{ell,m,M}(n) q^n, by sweeping factorizations n = d*e."""
    _check(ell, M, precision)
    num2 = [0] * precision  # accumulate 2*lambda to stay integral
    d = 1
    while d * d < precision:
        for e in range(d, (precision - 1) // d + 1, 2):
            t = (e + d) // 2
            w = _branch_weight(t, m, M)
            if w:
                num2[d * e] += d**ell * w * (1 if e == d else 2)
        d += 1
    return QSeries._from_numerators(num2, 2)


def mu_series(ell: int, a: int, b: int, M: int, precision: int) -> QSeries:
    """sum_n mu_{ell,a,b,M}(n) q^n, over n = d1*e1 as in _mu_literal_rows.

    t - s = 2*d1 pins d1 to one class mod M, and t = e1 + d1 then pins e1.
    """
    _check(ell, M, precision)
    coeffs = [0] * precision
    d1 = 1
    while d1 * (d1 + 1) < precision:
        if (2 * d1 - (a - b)) % M == 0:  # t - s = 2*d1 = a - b (mod M)
            # the least e1 > d1 with t = e1 + d1 = a (mod M), then every M-th
            e1 = d1 + 1 + (a - 2 * d1 - 1) % M
            dl = (2 * d1) ** ell
            for n in range(d1 * e1, precision, d1 * M):
                coeffs[n] += dl
        d1 += 1
    return QSeries._from_numerators(coeffs)


def g_series(ell: int, m: int, M: int, precision: int) -> QSeries:
    """sum_n g_{ell,m,M}(n) q^n with the strict-divisor constraint d < sqrt(n)."""
    _check(ell, M, precision)
    coeffs = [0] * precision
    d = 1
    while d * (d + 1) < precision:
        w = _branch_weight(d, m, M)
        if w:
            dl = d**ell * w
            for n in range(d * (d + 1), precision, d):
                coeffs[n] += dl
        d += 1
    return QSeries._from_numerators(coeffs)


def t_series(ell: int, m: int, M: int, precision: int) -> QSeries:
    """Theta-like moment series: n^ell at exponent n^2 for n = +-m (mod M)."""
    _check(ell, M, precision)
    coeffs = [0] * precision
    for n in range(1, isqrt(precision - 1) + 1):
        w = _branch_weight(n, m, M)
        if w:
            coeffs[n * n] += n**ell * w
    return QSeries._from_numerators(coeffs)


def lambda_u4_twist(ell: int, m: int, M: int, precision: int) -> QSeries:
    """Closed form of Lambda_{ell,m,M} | U_4 twisted by the principal character.

    The 2^e * M1 decomposition of the module docstring, summed term by term:
    zero for odd m, otherwise sieved G series plus one twisted T series.
    Odd M is rejected.
    """
    _check(ell, M, precision)
    if M % 2:
        raise ValueError("modulus must be even")
    if m % 2:
        return QSeries.zero(precision)
    half = M // 2  # 2^(e-1) * M1
    m1 = (m % M) // 2
    total = QSeries.zero(precision)
    two_l = Fraction(2) ** ell
    # G_{ell,r,half} depends only on the class {r, -r} mod half, and
    # different b1 often land in the same class
    g_by_class: dict[int, QSeries] = {}
    for b1 in range(half):
        residue = m1 * m1 - b1 * b1
        if gcd(residue, half) != 1:
            continue
        r = min((m1 - b1) % half, (b1 - m1) % half)
        if r not in g_by_class:
            g_by_class[r] = g_series(ell, r, half, precision)
        part = g_by_class[r].sieve(_sieve_modulus(M), residue).sieve(2, 1)
        total = total + two_l * part
    tpart = t_series(ell, m1, half, precision).twist(
        DirichletCharacter.principal(M)
    )
    return total + (two_l / 2) * tpart
