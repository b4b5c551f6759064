"""Reference computations for checking cli answers, written apart from hclassnum.

Each series is built by sweeping its defining lattice points directly,
not through the package's divisor sweeps or operator calculus.
"""
from __future__ import annotations

import importlib.util
from fractions import Fraction
from math import isqrt
from pathlib import Path

_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes; exact below 3.3 * 10^24."""
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def load_hurwitz_naive(root: Path):
    """The class-number oracle of the package's own test suite."""
    spec = importlib.util.spec_from_file_location(
        "hclassnum_test_oracles", root / "tests" / "oracles.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.hurwitz_naive


def chi_minus3(x: int) -> int:
    return (0, 1, -1)[x % 3]


def chi_minus4(x: int) -> int:
    return (0, 1, 0, -1)[x % 4]


def _branches(t: int, m: int, big_m: int) -> int:
    """How many of t = +m and t = -m (mod M) hold."""
    return ((t - m) % big_m == 0) + ((t + m) % big_m == 0)


def psi_coeffs(k: int, chi, terms: int) -> list[Fraction]:
    """(1/2) sum over x^2 + k*y^2 = n of chi(x)*x; chi odd, so x and -x agree."""
    acc = [0] * terms
    ymax = isqrt((terms - 1) // k)
    for y in range(-ymax, ymax + 1):
        base = k * y * y
        for x in range(1, isqrt(terms - 1 - base) + 1):
            acc[base + x * x] += chi(x) * x
    return [Fraction(a) for a in acc]


def theta_coeffs(m: int, big_m: int, terms: int) -> list[Fraction]:
    """Number of n = m (mod M) with n^2 equal to each exponent."""
    acc = [0] * terms
    for k in range(terms):
        r = isqrt(k)
        if r * r == k:
            acc[k] = sum((n - m) % big_m == 0 for n in {r, -r})
    return [Fraction(a) for a in acc]


def lambda_coeffs(ell: int, m: int, big_m: int, terms: int) -> list[Fraction]:
    """Pairs t > s >= 0 with t^2 - s^2 = n, t = +-m (M); s = 0 at weight 1/2."""
    acc = [Fraction(0)] * terms
    s = 0
    while 2 * s + 1 < terms:
        t = s + 1
        while t * t - s * s < terms:
            w = _branches(t, m, big_m)
            if w:
                acc[t * t - s * s] += Fraction(w * (t - s) ** ell, 2 if s == 0 else 1)
            t += 1
        s += 1
    return acc


def mu_coeffs(ell: int, a: int, b: int, big_m: int, terms: int) -> list[Fraction]:
    """Pairs t > s >= 1 with t^2 - s^2 = 4n, t = a and s = b (mod M)."""
    acc = [0] * terms
    limit = 4 * terms
    s = 1
    while 2 * s + 1 < limit:
        t = s + 1
        while t * t - s * s < limit:
            diff = t * t - s * s
            if diff % 4 == 0 and (t - a) % big_m == 0 and (s - b) % big_m == 0:
                acc[diff // 4] += (t - s) ** ell
            t += 1
        s += 1
    return [Fraction(c) for c in acc]


def g_coeffs(ell: int, m: int, big_m: int, terms: int) -> list[Fraction]:
    """Divisors d of n with d^2 < n and d = +-m (M), weighted d^ell."""
    acc = [0] * terms
    for n in range(2, terms):
        for d in range(1, isqrt(n - 1) + 1):
            if n % d == 0:
                acc[n] += _branches(d, m, big_m) * d**ell
    return [Fraction(c) for c in acc]


def t_coeffs(ell: int, m: int, big_m: int, terms: int) -> list[Fraction]:
    """n^ell at exponent n^2 for n >= 1 with n = +-m (M)."""
    acc = [0] * terms
    for n in range(1, isqrt(terms - 1) + 1):
        acc[n * n] += _branches(n, m, big_m) * n**ell
    return [Fraction(c) for c in acc]
