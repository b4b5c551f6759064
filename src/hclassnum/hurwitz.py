"""Hurwitz class numbers and congruence-restricted sums over them.

H(n) is the weighted count of SL2(Z)-classes of positive definite integral
binary quadratic forms of discriminant -n: classes equivalent to a multiple
of x^2 + y^2 count 1/2, classes equivalent to a multiple of x^2 + xy + y^2
count 1/3, every other class counts 1.  By convention H(0) = -1/12, and
H(n) = 0 unless n = 0 or n = 0, 3 (mod 4).

The table builder counts each reduced form (a, b, c), meaning
-a < b <= a <= c with b >= 0 when a = c, exactly once.  That enumeration
hits imprimitive forms too, so no class-number formula fix-ups are needed,
and 12*H(n) is an integer so the table stores the scaled values.  For fixed
a and b the forms with c > a sit at n = 4ac - b^2, one tail of stride 4a
starting at 4a(a + 1) - b^2.  Tails whose b^2 agree mod 4a share a column
n = -b^2 (mod 4a); the builder merges them, so each column is walked once,
in runs between consecutive tail starts, each run one slice of the table
rebuilt with the weight of the tails begun so far.  At limit 2*10^5 that is
5.7M element updates, all inside list comprehensions, against 8.0M
single-element statements for one walk per tail.  A single
H(n) that the shared table does not cover walks only the reduced forms of
discriminant -n (Cohen, GTM 138, Algorithm 5.3.5): O(n) time, and the table
is left as it is.

The restricted sums are

    H_{kappa,m,M}(n) = sum over t = m (mod M), t^2 <= 4n of H(4n - t^2) t^kappa,

with H_{m,M} = H_{0,m,M}.  moment_sum computes one of them by a direct
t-scan over the table.  The sweeps over primes need every m at once: they
gather the values 12*H(4n - t^2) once and read all M sums off that gather
as the integers 12*H_{m,M}(n).  The q-expansion sum_n H_{m,M}(n) q^n is
built once, by the operator pipeline (hurwitz_series * theta_{m,M}) | U_4
in verify.identity_lhs; a test oracle in tests/oracles.py rebuilds it term
by term from moment_sum, and the tests compare the two.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .qseries import QSeries

__all__ = [
    "HurwitzTable",
    "build_table",
    "table_at_least",
    "hurwitz",
    "hurwitz_series",
    "moment_sum",
]


@dataclass(frozen=True)
class HurwitzTable:
    """Immutable table of 12*H(n) for 0 <= n < limit."""

    limit: int
    values12: tuple[int, ...]

    def value(self, n: int) -> Fraction:
        if not 0 <= n < self.limit:
            raise IndexError(f"H({n}) not tabulated (limit {self.limit})")
        return Fraction(self.values12[n], 12)


def build_table(limit: int) -> HurwitzTable:
    """Tabulate 12*H(n) for all n < limit in one reduced-form sweep."""
    if limit < 1:
        raise ValueError("table limit must be >= 1")
    v = [0] * limit
    v[0] = -1
    amax = isqrt((limit - 1) // 3) if limit > 1 else 0
    for a in range(1, amax + 1):
        step = 4 * a
        # column n mod 4a -> [(start, weight)] of its c > a tails; b runs
        # down, so each column lists its starts in increasing order
        columns: dict[int, list[tuple[int, int]]] = {}
        for b in range(a, -1, -1):
            n = step * a - b * b  # the c = a form
            if n < limit:
                if b == a:
                    v[n] += 4  # a(x^2+xy+y^2), weight 1/3
                elif b == 0:
                    v[n] += 6  # a(x^2+y^2), weight 1/2
                else:
                    v[n] += 12
            # for c > a the forms (a, b, c) and (a, -b, c) are distinct
            # classes unless b = 0 or b = a
            if n + step < limit:
                w = 12 if (b == 0 or b == a) else 24
                columns.setdefault(n % step, []).append((n + step, w))
        for tails in columns.values():
            ends = [start for start, _ in tails[1:]]
            ends.append(limit)
            weight = 0
            for (start, w), end in zip(tails, ends):
                weight += w
                v[start:end:step] = [x + weight for x in v[start:end:step]]
    return HurwitzTable(limit=limit, values12=tuple(v))


_table = build_table(1)


def table_at_least(limit: int) -> HurwitzTable:
    """Shared table covering at least [0, limit); grown on demand."""
    global _table
    if _table.limit < limit:
        _table = build_table(max(limit, 2 * _table.limit, 1024))
    return _table


def _forms12(n: int) -> int:
    """12*H(n) for n > 0, n = 0 or 3 (mod 4), from the reduced forms of -n.

    Each reduced (a, b, c) with b >= 0 has b = n (mod 2), 3b^2 <= n and
    a | (b^2 + n)/4 with b <= a <= c; for b > 0, a < c and a > b it stands
    for the two classes (a, +-b, c).  O(n) time, O(1) memory.
    """
    total = 0
    for b in range(n % 2, isqrt(n // 3) + 1, 2):
        ac = (b * b + n) // 4
        for a in range(max(b, 1), isqrt(ac) + 1):
            if ac % a:
                continue
            if a == b == ac // a:
                total += 4  # a(x^2+xy+y^2), weight 1/3
            elif b == 0 and a * a == ac:
                total += 6  # a(x^2+y^2), weight 1/2
            elif b == 0 or a == b or a * a == ac:
                total += 12
            else:
                total += 24
    return total


def hurwitz(n: int) -> Fraction:
    """The Hurwitz class number H(n).

    Read from the shared table when it already covers n; otherwise counted
    from the reduced forms of discriminant -n, leaving the table as it is.
    """
    if n < 0 or n % 4 in (1, 2):
        return Fraction(0)
    table = _table
    if n < table.limit:
        return table.value(n)
    return Fraction(_forms12(n), 12)


def hurwitz_series(precision: int) -> QSeries:
    """Generating series sum H(n) q^n to the requested precision."""
    if precision < 1:
        raise ValueError("precision must be >= 1")
    table = table_at_least(precision)
    return QSeries._from_numerators(table.values12[:precision], 12)


def moment_sum(kappa: int, m: int, M: int, n: int) -> Fraction:
    """H_{kappa,m,M}(n), by direct scan over t = m (mod M), t^2 <= 4n."""
    if kappa < 0:
        raise ValueError("moment order must be nonnegative")
    if M < 1:
        raise ValueError("modulus must be positive")
    if n < 0:
        raise ValueError("argument must be nonnegative")
    four_n = 4 * n
    tmax = isqrt(four_n)
    table = table_at_least(four_n + 1)
    v = table.values12
    total = 0
    start = -tmax + ((m + tmax) % M)
    for t in range(start, tmax + 1, M):
        total += v[four_n - t * t] * t**kappa
    return Fraction(total, 12)


def _residue_sums12(M: int, n: int, values12) -> list[int]:
    """[12*H_{m,M}(n) for m in range(M)], from one gather of values12.

    The values 12*H(4n - t^2) for 0 <= t <= sqrt(4n) are read once; class
    r of t >= 0 is one slice of them, and -t falls in class -r, so every
    residue costs one slice sum.  values12 must cover 0..4n.
    """
    four_n = 4 * n
    vals = [values12[four_n - t * t] for t in range(isqrt(four_n) + 1)]
    half = [sum(vals[r::M]) for r in range(M)]
    # t = 0 is its own negative, so class 0 must not count it twice
    sums = [half[m] + half[-m % M] for m in range(M)]
    sums[0] -= vals[0]
    return sums

