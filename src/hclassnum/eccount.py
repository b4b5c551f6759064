"""Automorphism-weighted counts of elliptic curves over F_p by trace.

For p > 3 the weighted count N_A(p; t) = sum over classes with trace t of
1 / #Aut equals the number of nonsingular pairs (a, b), y^2 = x^3 + a*x + b,
with trace t = -sum_x chi_p(x^3 + a*x + b), divided by p - 1: the class of
(a, b) is its orbit under (a, b) -> (u^4 a, u^6 b), of size (p - 1) / #Aut.

The sweep runs over j-invariants (Schoof, JCTA 1987), counting in units of
1 / (p - 1).  Each j != 0, 1728 has two classes with #Aut = 2, a curve and
its quadratic twist, of traces t and -t: y^2 = x^3 + 3k*x + 2k with
k = j / (1728 - j), k in F_p minus {0, -1}, adds (p - 1) / 2 at t and at -t.
The j = 0 locus (a = 0, b != 0) and the j = 1728 locus (a != 0, b = 0)
count 1 per pair.

Each of the three families of traces is one cyclic correlation over Z/p of
a small integer weight vector w with chi = chi_p, t_k = -c - sum_u w[u]
chi(u + k):

* generic j: with d = 3x + 2, chi(x^3 + k*d) = chi(d) chi(x^3 / d + k) for
  d != 0, so w[u] = sum of chi(d) over the x with d != 0 and x^3 / d = u,
  and c = chi(x0^3) at the root x0 = -2/3 of d;
* j = 0: w[u] = #{x : x^3 = u} and c = 0;
* j = 1728: x^3 + a*x = x (x^2 + a), so w[u] = sum of chi(x) over the
  x != 0 with x^2 = u, and c = 0.

With chi = e - 1, e in {0, 1, 2}, and w shifted to be nonnegative, every
term of a correlation is nonnegative, so all p sums of a family are the
slots of one product of two packed integers (_correlation).  A prime costs
O(p) integer work, O(p) memory and three big-integer products, with the
standard library alone (no numpy); nothing is rounded.

trace_distribution(p) returns these counts as integers over the explicit
denominator p - 1: the dict t -> (p - 1) * N_A(p; t), which sums to
p * (p - 1).  They are the independent oracle for the class-number identity
2 * N_A(p; t) = H(4p - t^2) when p does not divide t, which
verify_curve_counts checks in integers.
"""
from __future__ import annotations

import sys
from array import array
from collections import Counter
from fractions import Fraction
from math import isqrt

from .hurwitz import table_at_least
from .numtheory import is_prime, primes_up_to
from .reporting import CheckReport

__all__ = ["trace_distribution", "verify_curve_counts"]


def _slot_code(bound: int) -> str:
    """The narrowest array typecode whose unsigned slots hold 0..bound."""
    for code in "BHIQ":
        if bound < 1 << 8 * array(code).itemsize:
            return code
    raise OverflowError("correlation sums too large to pack")


def _pack(values: list[int], code: str) -> int:
    """sum_i values[i] * X^i at X = 2^(8 * slot size)."""
    slots = array(code, values)
    if sys.byteorder == "big":
        slots.byteswap()
    return int.from_bytes(slots, "little")


def _correlation(w: list[int], e: list[int]) -> list[int]:
    """[sum_u w[u] * (e[(u + k) % p] - 1) for k in range(p)], p = len(e).

    Entries of e lie in {0, 1, 2}.  Reversed and shifted by its minimum, w
    is nonnegative; times e repeated to length 2p - 1, slot p - 1 + k of
    the product is sum_u (w[u] - low) e[u + k].  No slot of the product
    exceeds 2 * sum(w - low), which fixes the slot width.
    """
    p = len(e)
    low = min(w)
    shifted = [v - low for v in reversed(w)]
    code = _slot_code(2 * sum(shifted))
    size = array(code).itemsize
    product = _pack(shifted, code) * _pack(e + e[:-1], code)
    packed = product.to_bytes(3 * p * size, "little")
    slots = array(code)
    slots.frombytes(packed[(p - 1) * size:(2 * p - 1) * size])
    if sys.byteorder == "big":
        slots.byteswap()
    offset = low * sum(e) - sum(w)
    return [s + offset for s in slots]


def trace_distribution(p: int) -> dict[int, int]:
    """t -> (p - 1) * N_A(p; t) for every trace t over F_p, p > 3 prime.

    Only traces with a nonzero count are keys, in increasing order.
    """
    if p <= 3 or not is_prime(p):
        raise ValueError("trace counts need a prime p > 3")
    e = [0] * p  # chi + 1
    e[0] = 1
    for x in range(1, (p + 1) // 2):
        e[x * x % p] = 2
    cubes = [x * x % p * x % p for x in range(p)]
    inverse = [0, 1]
    for d in range(2, p):
        inverse.append(-(p // d) * inverse[p % d] % p)
    # generic j, k = 1 .. p - 2: x = (d - 2) / 3 as d runs over F_p^*
    third = pow(3, -1, p)
    w = [0] * p
    for d in range(1, p):
        w[cubes[(d - 2) * third % p] * inverse[d] % p] += e[d] - 1
    root = e[cubes[-2 * third % p]] - 1
    generic = [-root - s for s in _correlation(w, e)[1:-1]]
    # y^2 = x^3 + b, b != 0, and y^2 = x^3 + a*x, a != 0
    w = [0] * p
    for u in cubes:
        w[u] += 1
    loci = [-s for s in _correlation(w, e)[1:]]
    w = [0] * p
    for x in range(1, p):
        w[x * x % p] += e[x] - 1
    loci += [-s for s in _correlation(w, e)[1:]]
    tmax = isqrt(4 * p)
    if max(map(abs, generic + loci)) > tmax:
        raise AssertionError("trace outside the Hasse range")
    hist = [0] * (2 * tmax + 1)  # index t + tmax, counts in units of 1 / (p - 1)
    half = (p - 1) // 2
    for t, n in Counter(generic).items():
        hist[tmax + t] += half * n
        hist[tmax - t] += half * n
    for t, n in Counter(loci).items():
        hist[tmax + t] += n
    return {t - tmax: c for t, c in enumerate(hist) if c}


def verify_curve_counts(p_max: int) -> CheckReport:
    """2 * N_A(p; t) = H(4p - t^2) for p not dividing t, plus the mass law.

    For every prime 5 <= p <= p_max the identity is checked at every t in
    the Hasse range with p not dividing t (for these p that means t != 0),
    and the total mass sum_t N_A(p; t) is compared against p.
    """
    table = table_at_least(4 * p_max + 1)
    mismatches: list[tuple] = []
    checked = 0
    for p in primes_up_to(p_max):
        if p <= 3:
            continue
        # N_A(p; t) = counts[t] / (p - 1), so the checks run in integers:
        # 2 * N_A(p; t) = H(4p - t^2) times 12 (p - 1)
        counts = trace_distribution(p)
        mass = sum(counts.values())
        if mass != p * (p - 1):
            mismatches.append(("mass", p, Fraction(mass, p - 1), p))
        tmax = isqrt(4 * p)
        for t in range(-tmax, tmax + 1):
            if t % p == 0:
                continue
            checked += 1
            h12 = table[4 * p - t * t]
            count = counts.get(t, 0)
            if 24 * count != h12 * (p - 1):
                mismatches.append(("trace", p, t, Fraction(2 * count, p - 1),
                                   Fraction(h12, 12)))
    return CheckReport(
        name="curve counts vs class numbers",
        checked=checked,
        mismatches=mismatches,
        details={"p_max": p_max},
    )
