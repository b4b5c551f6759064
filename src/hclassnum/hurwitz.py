"""Hurwitz class numbers and congruence-restricted sums over them.

H(n) is the weighted count of SL2(Z)-classes of positive definite integral
binary quadratic forms of discriminant -n: classes equivalent to a multiple
of x^2 + y^2 count 1/2, classes equivalent to a multiple of x^2 + xy + y^2
count 1/3, every other class counts 1.  By convention H(0) = -1/12, and
H(n) = 0 unless n = 0 or n = 0, 3 (mod 4).

The table builder counts reduced forms (a, b, c), meaning -a < b <= a <= c
with b >= 0 when a = c, each once, at n = 3 (mod 4) and n = 4, 8 (mod 16).
That enumeration hits imprimitive forms too, so no class-number formula
fix-ups are needed.  The other half of n = 0 (mod 4) comes from the
class-number relation, for n > 0 with n = 0, 3 (mod 4) and every prime l,

    H(l^2 n) = (l + 1 - (-n/l)) H(n) - l H(n/l^2),

(-n/l) the Kronecker symbol and H(n/l^2) = 0 unless l^2 | n (Cox, Primes of
the form x^2 + ny^2, Thm 7.24, summed over the conductors).  At l = 2 it
reads H(4k) = 4 H(k) for k = 3 (mod 8), 2 H(k) for k = 7 (mod 8) and
3 H(k) - 2 H(k/4) for 4 | k, so one pass in increasing n fills n = 0, 12
(mod 16) from entries below n.  12*H(n) is an integer, so the table is a
read-only memoryview of the C ints 12*H(n) for n < len(table): array raises
OverflowError rather than wrap, so it is exact, and every reader indexes or
slices it in place.

For fixed a and b the forms with c > a sit at n = 4ac - b^2, a tail of
stride 4a starting at 4a(a + 1) - b^2.  A tail with odd b lies in n = 3
(mod 4) and is kept whole.  A tail with even b lies in n = 0 (mod 4), and
n/4 = ac - b^2/4 runs through the residues mod 4 with period 4/gcd(a, 4) in
c, so only some classes are kept: none for 4 | a, one of stride 8a for
a = 2 (mod 4), two of stride 16a for odd a.  Kept tails of one stride and
residue share a column; the builder merges them, so each column is walked
once, in runs between consecutive tail starts, each run one slice of the
table rebuilt with the weight of the tails begun so far.  At limit 2*10^5
that is 4.0M element updates in 30,888 runs, all inside list
comprehensions.  A single H(n) that the shared table does not cover walks
only the reduced forms of discriminant -n (Cohen, GTM 138, Algorithm 5.3.5):
O(n) time, and the table is left as it is.

The restricted sums are

    H_{kappa,m,M}(n) = sum over t = m (mod M), t^2 <= 4n of H(4n - t^2) t^kappa,

with H_{m,M} = H_{0,m,M}.  moment_sum computes one of them by a direct
t-scan over the table.  The sweeps over primes need every m at once:
_residue_sums12 yields, for each n of an increasing list, all M sums as the
integers 12*H_{m,M}(n).  For each n one operator.itemgetter of the squares
t^2 applied to the reversed view table[4n::-1] returns every value
12*H(4n - t^2) as one tuple, built in C with no interpreter step per t.
The q-expansion sum_n H_{m,M}(n) q^n is built once, by the operator
pipeline (hurwitz_series * theta_{m,M}) | U_4 in verify.identity_lhs; a test
oracle in tests/oracles.py rebuilds it term by term from moment_sum, and the
tests compare the two.
"""
from __future__ import annotations

from array import array
from fractions import Fraction
from math import isqrt
from operator import itemgetter
from typing import Iterator, Sequence

from .qseries import QSeries

__all__ = [
    "build_table",
    "table_at_least",
    "hurwitz",
    "hurwitz_series",
    "moment_sum",
]


def build_table(limit: int) -> memoryview:
    """12*H(n) for all n < limit, as a read-only memoryview of C ints.

    Reduced forms are counted only at n = 3 (mod 4) and n = 4, 8 (mod 16);
    one pass in increasing n fills n = 0, 12 (mod 16) from the relation at
    l = 2 (see the module docstring).
    """
    if limit < 1:
        raise ValueError("table limit must be >= 1")
    v = [0] * limit
    v[0] = -1
    amax = isqrt((limit - 1) // 3) if limit > 1 else 0
    for a in range(1, amax + 1):
        step = 4 * a
        # an even-b tail keeps the c = a + j with n/4 = ac - b^2/4 = 1, 2
        # (mod 4), a pattern of period 4/gcd(a, 4) in j; keep[r] lists the
        # offsets 4aj of one period for n/4 = r (mod 4) at c = a
        period = (1, 4, 2, 4)[a % 4]
        even_stride = step * period
        keep = [[step * j for j in range(1, period + 1) if (r + a * j) % 4 in (1, 2)]
                for r in range(4)]
        # column n mod stride -> [(start, weight)] of its c > a tails, the
        # stride 4a for odd n and even_stride for even n; b runs down, so
        # each column lists its starts in increasing order
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
            w = 12 if (b == 0 or b == a) else 24
            if b & 1:
                start = n + step
                if start < limit:
                    columns.setdefault(start % step, []).append((start, w))
            else:
                for offset in keep[(n >> 2) & 3]:
                    start = n + offset
                    if start < limit:
                        columns.setdefault(start % even_stride, []).append((start, w))
        for r, tails in columns.items():
            stride = step if r & 1 else even_stride
            ends = [start for start, _ in tails[1:]]
            ends.append(limit)
            weight = 0
            for (start, w), end in zip(tails, ends):
                weight += w
                v[start:end:stride] = [x + weight for x in v[start:end:stride]]
    # n = 4k with k = 3 (mod 4): H(4k) = 4 H(k) for k = 3 (mod 8) and
    # 2 H(k) for k = 7 (mod 8), that is for bit 4 of n clear or set
    v[12::16] = [(2 if n & 16 else 4) * v[n >> 2] for n in range(12, limit, 16)]
    # n = 16j: H(16j) = 3 H(4j) - 2 H(j), both read below n
    for n in range(16, limit, 16):
        v[n] = 3 * v[n >> 2] - 2 * v[n >> 4]
    return memoryview(array("i", v)).toreadonly()


_table = build_table(1)


def table_at_least(limit: int) -> memoryview:
    """Shared table of 12*H(n) covering at least [0, limit); grown on demand."""
    global _table
    if len(_table) < limit:
        _table = build_table(max(limit, 2 * len(_table), 1024))
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
    return Fraction(table[n] if n < len(table) else _forms12(n), 12)


def hurwitz_series(precision: int) -> QSeries:
    """Generating series sum H(n) q^n to the requested precision."""
    if precision < 1:
        raise ValueError("precision must be >= 1")
    return QSeries._from_numerators(table_at_least(precision)[:precision], 12)


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
    v = table_at_least(four_n + 1)
    total = 0
    start = -tmax + ((m + tmax) % M)
    for t in range(start, tmax + 1, M):
        total += v[four_n - t * t] * t**kappa
    return Fraction(total, 12)


def _residue_sums12(M: int, ns: Sequence[int]) -> Iterator[list[int]]:
    """[12*H_{m,M}(n) for m in range(M)] for each n of the increasing ns.

    table[4n::-1] is a view with w[j] = 12*H(4n - j).  One itemgetter of
    the squares t^2, 0 <= t <= sqrt(4n), reads all the values
    12*H(4n - t^2) of an n as one tuple, built in C; the getter is rebuilt
    only when sqrt(4n) passes a new integer.  Class r of t >= 0 is one
    slice of the values, and -t falls in class -r, so every residue costs
    one slice sum.
    """
    if not ns:
        return
    table = table_at_least(4 * ns[-1] + 1)
    k = 0
    for n in ns:
        four_n = 4 * n
        if isqrt(four_n) + 1 != k:
            k = isqrt(four_n) + 1
            # itemgetter of one index returns a scalar; at n = 0 the
            # reversed view holds just 12*H(0)
            gather = itemgetter(*[t * t for t in range(k)]) if k > 1 else tuple
        vals = gather(table[four_n::-1])
        half = [sum(vals[r::M]) for r in range(M)]
        # t = 0 is its own negative, so class 0 must not count it twice
        sums = [half[m] + half[-m % M] for m in range(M)]
        sums[0] -= vals[0]
        yield sums
