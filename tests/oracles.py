"""Independent reference implementations used only by the tests.

These deliberately avoid the production code paths: class numbers come from
a box scan plus canonical reduction instead of direct reduced enumeration,
the H-table from one strided walk per reduced-form tail, at every n,
instead of merged columns and the class-number relation at l = 2, products
from literal double sums over Fractions instead of the integer operator
pipeline, restricted-sum series one t-scan per coefficient instead of
(H * theta_{m,M}) | U_4, lambda coefficients one n at a time from its
divisors instead of one sweep over all factorizations, curve counts from
every raw Weierstrass pair instead of one curve per j-invariant, primality
from trial division, representations p = x^2 + n*y^2 from a scan over y
instead of Cornacchia, and the CM forms psi_k from a theta product instead
of lattice enumeration.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import mul


def trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def represent_scan(p: int, n: int) -> tuple[int, int] | None:
    """(x, y) with p = x^2 + n*y^2, x, y >= 0 and y smallest; None if none.

    Exhaustive scan over 0 <= y <= sqrt(p/n).
    """
    for y in range(isqrt(p // n) + 1):
        rest = p - n * y * y
        x = isqrt(rest)
        if x * x == rest:
            return x, y
    return None


def reduce_form(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Gauss reduction to the canonical representative of the class."""
    while True:
        if b > a or b <= -a:
            shift = (a - b) // (2 * a)
            c = a * shift * shift + b * shift + c
            b = b + 2 * a * shift
        if a > c:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        return a, b, c


def hurwitz_naive(n: int) -> Fraction:
    """Class-number oracle: scan a generous box of forms of discriminant -n,
    canonicalize each, deduplicate, then weight the special shapes."""
    if n == 0:
        return Fraction(-1, 12)
    if n < 0 or n % 4 in (1, 2):
        return Fraction(0)
    classes = set()
    for a in range(1, isqrt(n) + 2):
        for b in range(-2 * a, 2 * a + 1):
            if (b * b + n) % (4 * a):
                continue
            c = (b * b + n) // (4 * a)
            if c < 1:
                continue
            classes.add(reduce_form(a, b, c))
    total = Fraction(0)
    for a, b, c in classes:
        if a == b == c:
            total += Fraction(1, 3)
        elif b == 0 and a == c:
            total += Fraction(1, 2)
        else:
            total += 1
    return total


def build_table_strides(limit: int) -> list[int]:
    """12*H(n) for n < limit, one element update per reduced form.

    Each (a, b) walks its own c > a tail n = 4ac - b^2 with stride 4a.  Every
    n is counted, none derived from a relation between class numbers.
    """
    v = [0] * limit
    v[0] = -1
    amax = isqrt((limit - 1) // 3) if limit > 1 else 0
    for a in range(1, amax + 1):
        step = 4 * a
        for b in range(a + 1):
            bb = b * b
            n = step * a - bb  # the c = a form
            if n < limit:
                if b == a:
                    v[n] += 4  # a(x^2+xy+y^2), weight 1/3
                elif b == 0:
                    v[n] += 6  # a(x^2+y^2), weight 1/2
                else:
                    v[n] += 12
            # for c > a the forms (a, b, c) and (a, -b, c) are distinct
            # classes unless b = 0 or b = a
            w = 12 if (b == 0 or b == a) else 24
            for n in range(step * (a + 1) - bb, limit, step):
                v[n] += w
    return v


def restricted_series(m: int, M: int, precision: int):
    """sum_n H_{m,M}(n) q^n, one moment_sum t-scan per coefficient.

    The brute-force reference for the operator pipeline that builds the same
    series as (hurwitz_series * theta_{m,M}) | U_4.
    """
    # imported here: perfbench/references.py loads this file for
    # hurwitz_naive alone, without the package on the path
    from hclassnum.hurwitz import moment_sum, table_at_least
    from hclassnum.qseries import QSeries

    table_at_least(4 * (precision - 1) + 1)  # one build instead of many
    return QSeries(moment_sum(0, m, M, n) for n in range(precision))


def cauchy_naive(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Truncated product of two coefficient lists, one Fraction at a time."""
    p = min(len(a), len(b))
    out = [Fraction(0)] * p
    for i in range(p):
        if not a[i]:
            continue
        for j in range(p - i):
            if b[j]:
                out[i + j] += a[i] * b[j]
    return out


def theta_weighted(chi, precision: int) -> list[Fraction]:
    """(1/2) sum over x in Z of chi(x) x q^(x^2), the first `precision` terms.

    The weight-3/2 theta of an odd character chi; times theta | V_k it is
    psi_k, the product construction that forms.psi_series is tested against.
    """
    num2 = [0] * precision  # twice the coefficients, to stay integral
    xmax = isqrt(precision - 1)
    for x in range(-xmax, xmax + 1):
        num2[x * x] += chi(x) * x
    return [Fraction(c, 2) for c in num2]


def r2_lattice(n: int) -> int:
    """Number of integer pairs with a^2 + b^2 = n, by brute scan."""
    count = 0
    for a in range(-isqrt(n), isqrt(n) + 1):
        rest = n - a * a
        r = isqrt(rest)
        if r * r == rest:
            count += 1 if r == 0 else 2
    return count


def lambda_naive(ell: int, m: int, M: int, n: int) -> Fraction:
    """lambda coefficient by raw (t, s) double loop, no divisor tricks.

    t^2 - s^2 = n with t > s >= 0 forces 2t - 1 <= n, so t <= (n+1)/2.
    """
    total = Fraction(0)
    for t in range(1, (n + 1) // 2 + 1):
        for s in range(t):
            if t * t - s * s == n:
                w = Fraction(1, 2) if s == 0 else Fraction(1)
                for sign in (1, -1):
                    if (t - sign * m) % M == 0:
                        total += w * (t - s) ** ell
    return total


def lambda_coeff(ell: int, m: int, M: int, n: int) -> Fraction:
    """lambda_{ell,m,M}(n) by a scan over the divisors d = t - s <= sqrt(n).

    Both sign branches t = +-m (mod M) count, and s = 0 terms carry weight
    1/2; the reference for sums.lambda_series.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = Fraction(0)
    for d in range(1, isqrt(n) + 1):
        if n % d:
            continue
        e = n // d
        if (e - d) % 2:
            continue
        t = (e + d) // 2
        s = (e - d) // 2
        w = ((t - m) % M == 0) + ((t + m) % M == 0)
        if w:
            term = Fraction(d**ell * w)
            total += term / 2 if s == 0 else term
    return total


def trace_distribution_pairs(p: int):
    """Curve oracle over every raw pair (a, b) with 4a^3 + 27b^2 != 0.

    Each nonsingular pair counts 1 at its trace, so t maps to
    (p - 1) * N_A(p; t) as in eccount.trace_distribution; O(p^3) time and a
    p x p table, so keep p small.
    """
    if p <= 3 or not trial_division_prime(p):
        raise ValueError("trace counts need a prime p > 3")
    chi = [-1] * p
    chi[0] = 0
    for x in range(1, p):
        chi[x * x % p] = 1
    # shift[b][v] = chi(v + b), so the dot product of counts with shift[b]
    # sums chi over x
    shift = [chi[b:] + chi[:b] for b in range(p)]
    x3 = [x * x * x % p for x in range(p)]
    b27 = [27 * b * b for b in range(p)]
    tmax = isqrt(4 * p)
    hist = [0] * (2 * tmax + 1)  # index t + tmax
    for a in range(p):
        counts = [0] * p
        for x, c in enumerate(x3):
            counts[(c + a * x) % p] += 1
        a4 = 4 * a**3
        for b, row in enumerate(shift):
            t = -sum(map(mul, counts, row))
            if abs(t) > tmax:
                raise AssertionError("trace outside the Hasse range")
            if (a4 + b27[b]) % p:  # nonsingular
                hist[t + tmax] += 1
    return {t: c for t, c in enumerate(hist, -tmax) if c}
