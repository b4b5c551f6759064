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

lambda_u4_twist assembles exactly this sum for every even M, and
verify_lemmas checks it against the literal pipeline lambda_series | U_4
(x) chi_{M,0}.  For the paper's moduli it specialises to these case rows
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


def _ell_modulus_error(ell: int) -> ValueError:
    """The error for ell < 0 or M < 1, ell checked first."""
    return ValueError("ell must be nonnegative" if ell < 0 else "modulus must be positive")


def _branch_weight(t: int, m: int, M: int) -> int:
    """Number of sign branches (t = +m or t = -m mod M) that match t."""
    return ((t - m) % M == 0) + ((t + m) % M == 0)


def mu_coeff(ell: int, a: int, b: int, M: int, n: int) -> int:
    """mu_{ell,a,b,M}(n): literal scan over t > s >= 1 with t^2 - s^2 = 4n."""
    if ell < 0 or M < 1:
        raise _ell_modulus_error(ell)
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
    n = a1^2 - b1^2 (mod 2^f M1), and zero otherwise.
    """
    if ell < 0 or M < 1:
        raise _ell_modulus_error(ell)
    if M % 2:
        raise ValueError("closed form requires even modulus")
    if gcd(n, M) != 1:
        raise ValueError("closed form requires gcd(n, M) = 1")
    if a % 2 or b % 2:
        return 0
    e = (M & -M).bit_length() - 1
    m1_mod = M >> e  # the odd part M1
    f = 0 if e == 1 else e
    half = M // 2  # 2^(e-1) * M1
    a1, b1 = a // 2, b // 2
    if (n - (a1 * a1 - b1 * b1)) % (2**f * m1_mod):
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
    residue_mod = half if M % 4 else M  # 2^f * M1
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


def lambda_series(ell: int, m: int, M: int, precision: int) -> QSeries:
    """sum_n lambda_{ell,m,M}(n) q^n, by sweeping factorizations n = d*e."""
    if ell < 0 or M < 1:
        raise _ell_modulus_error(ell)
    if precision < 1:
        raise ValueError("precision must be >= 1")
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
    """sum_n mu_{ell,a,b,M}(n) q^n."""
    if ell < 0 or M < 1:
        raise _ell_modulus_error(ell)
    if precision < 1:
        raise ValueError("precision must be >= 1")
    coeffs = [0] * precision
    d = 1
    while d * (d + 2) < 4 * precision:
        for e in range(d + 2, (4 * precision - 1) // d + 1, 2):
            de = d * e
            if de % 4:
                continue  # d, e both odd: t, s not integral
            n = de // 4
            if n >= precision:
                break
            t = (e + d) // 2
            s = (e - d) // 2
            if (t - a) % M == 0 and (s - b) % M == 0:
                coeffs[n] += d**ell
        d += 1
    return QSeries._from_numerators(coeffs)


def g_series(ell: int, m: int, M: int, precision: int) -> QSeries:
    """sum_n g_{ell,m,M}(n) q^n with the strict-divisor constraint d < sqrt(n)."""
    if ell < 0 or M < 1:
        raise _ell_modulus_error(ell)
    if precision < 1:
        raise ValueError("precision must be >= 1")
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
    if ell < 0 or M < 1:
        raise _ell_modulus_error(ell)
    if precision < 1:
        raise ValueError("precision must be >= 1")
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
    if ell < 0 or M < 1:
        raise _ell_modulus_error(ell)
    if M % 2:
        raise ValueError("modulus must be even")
    if m % 2:
        return QSeries.zero(precision)
    e = (M & -M).bit_length() - 1
    m1_part = M >> e
    f = 0 if e == 1 else e
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
        part = g_by_class[r].sieve(2**f * m1_part, residue).sieve(2, 1)
        total = total + two_l * part
    tpart = t_series(ell, m1, half, precision).twist(
        DirichletCharacter.principal(M)
    )
    return total + (two_l / 2) * tpart
