"""Independent reference implementations used only by the tests.

These deliberately avoid the production code paths: class numbers come from
a box scan plus canonical reduction instead of direct reduced enumeration,
brackets and products from literal double sums over Fractions instead of
the integer operator pipeline, and primality from trial division.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt


def trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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


def binom_frac(alpha: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= alpha - i
    for i in range(2, k + 1):
        out /= i
    return out


def bracket_naive(a: list[Fraction], k1: Fraction, b: list[Fraction],
                  k2: Fraction, k: int) -> list[Fraction]:
    """Rankin-Cohen bracket straight from its double-sum definition."""
    p = min(len(a), len(b))
    out = [Fraction(0)] * p
    for j in range(k + 1):
        c = binom_frac(Fraction(k1) + k - 1, k - j) * binom_frac(
            Fraction(k2) + k - 1, j
        )
        if j % 2:
            c = -c
        for i in range(p):
            if not a[i]:
                continue
            for l in range(p - i):
                if b[l]:
                    out[i + l] += c * a[i] * b[l] * i**j * l ** (k - j)
    return out


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
