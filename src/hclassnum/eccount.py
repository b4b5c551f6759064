"""Automorphism-weighted counts of elliptic curves over F_p by trace.

For p > 3 the weighted count N_A(p; t) = sum over classes with trace t of
1 / #Aut equals the number of nonsingular pairs (a, b), y^2 = x^3 + a*x + b,
with trace t = -sum_x chi_p(x^3 + a*x + b), divided by p - 1: the class of
(a, b) is its orbit under (a, b) -> (u^4 a, u^6 b), of size (p - 1) / #Aut.

The sweep runs over j-invariants (Schoof, JCTA 1987), counting in units of
1 / (p - 1).  Each j != 0, 1728 has two classes with #Aut = 2, a curve and
its quadratic twist, of traces t and -t: y^2 = x^3 + 3k*x + 2k with
k = j / (1728 - j), k in F_p minus {0, -1}, adds (p - 1) / 2 at t and at -t.
The j = 0 locus (a = 0, b != 0) and the j = 1728 locus (a != 0, b = 0) are
swept pair by pair, 1 per pair.  Each trace is one O(p) numpy row in exact
int64, taken a fixed block of rows at a time: O(p^2) time, O(p) memory.
These distributions are the independent oracle for the class-number
identity 2 * N_A(p; t) = H(4p - t^2) when p does not divide t.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .hurwitz import hurwitz, table_at_least
from .numtheory import is_prime, primes_up_to
from .reporting import CheckReport

__all__ = ["TraceDistribution", "trace_distribution", "verify_curve_counts"]

# rows per numpy block in _traces, so that memory stays O(p)
_ROWS = 64


@dataclass(frozen=True)
class TraceDistribution:
    """Map t -> N_A(p; t) as exact rationals; absent traces are zero."""

    p: int
    weights: dict[int, Fraction]

    def weight(self, t: int) -> Fraction:
        return self.weights.get(t, Fraction(0))

    def mass(self) -> Fraction:
        return sum(self.weights.values(), Fraction(0))


def _traces(coeffs, g, x3, chi) -> np.ndarray:
    """t = -sum_x chi(x^3 + c*g(x)) for each c in coeffs, _ROWS rows at a time."""
    p = len(chi)
    out = np.empty(len(coeffs), dtype=np.int64)
    for start in range(0, len(coeffs), _ROWS):
        c = coeffs[start:start + _ROWS, None]
        out[start:start + _ROWS] = -chi[(x3 + c * g) % p].sum(axis=1)
    return out


def trace_distribution(p: int) -> TraceDistribution:
    """Weighted curve counts for every trace over F_p, p > 3 prime."""
    if p <= 3 or not is_prime(p):
        raise ValueError("trace counts need a prime p > 3")
    xs = np.arange(p, dtype=np.int64)
    chi = np.full(p, -1, dtype=np.int8)
    chi[0] = 0
    chi[xs[1:] * xs[1:] % p] = 1
    x3 = xs * xs % p * xs % p
    units = xs[1:]
    # k = 1 .. p - 2: one curve per j != 0, 1728; its twist has trace -t
    generic = _traces(units[:-1], (3 * xs + 2) % p, x3, chi)
    # the j = 0 and j = 1728 loci, pair by pair: y^2 = x^3 + b, y^2 = x^3 + a*x
    raw = np.concatenate((_traces(units, np.ones(p, dtype=np.int64), x3, chi),
                          _traces(units, xs, x3, chi)))
    tmax = isqrt(4 * p)
    if max(np.abs(generic).max(), np.abs(raw).max()) > tmax:
        raise AssertionError("trace outside the Hasse range")
    size = 2 * tmax + 1  # index t + tmax, counts in units of 1 / (p - 1)
    hist = ((p - 1) // 2 * (np.bincount(tmax + generic, minlength=size)
                            + np.bincount(tmax - generic, minlength=size))
            + np.bincount(tmax + raw, minlength=size))
    weights = {
        int(t - tmax): Fraction(int(c), p - 1)
        for t, c in enumerate(hist)
        if c
    }
    return TraceDistribution(p=p, weights=weights)


def verify_curve_counts(p_max: int) -> CheckReport:
    """2 * N_A(p; t) = H(4p - t^2) for p not dividing t, plus the mass law.

    For every prime 5 <= p <= p_max the identity is checked at every t in
    the Hasse range with p not dividing t (for these p that means t != 0),
    and the total mass sum_t N_A(p; t) is compared against p.
    """
    table_at_least(4 * p_max + 1)
    mismatches: list[tuple] = []
    checked = 0
    for p in primes_up_to(p_max):
        if p <= 3:
            continue
        dist = trace_distribution(p)
        if dist.mass() != p:
            mismatches.append(("mass", p, dist.mass(), p))
        tmax = isqrt(4 * p)
        for t in range(-tmax, tmax + 1):
            if t % p == 0:
                continue
            checked += 1
            lhs = 2 * dist.weight(t)
            rhs = hurwitz(4 * p - t * t)
            if lhs != rhs:
                mismatches.append(("trace", p, t, lhs, rhs))
    return CheckReport(
        name="curve counts vs class numbers",
        checked=checked,
        mismatches=mismatches,
        details={"p_max": p_max},
    )
