"""Constructors for the named generating series.

  * theta_mM(m, M): sum of q^(n^2) over all integers n = m (mod M), read
    off the lattice sum T_{0,m,M} of sums.t_series plus the constant term
    1 when M | m;
  * theta0: the full theta series (theta_mM with M = 1);
  * theta_weighted(chi): (1/2) sum chi(x) x q^(x^2), the weight-3/2 theta
    attached to an odd character;
  * psi_series(k, chi): (1/2) sum_n (sum_{x^2+ky^2=n} chi(x) x) q^n, the
    CM cusp form expansions; psi_series(3, chi_{-3}) is the newform
    36.2.a.a, psi_series(4, chi_{-4}) is 64.2.a.a, and psi_series(2,
    chi_{-4}) is the real combination of the pair 64.2.b.a (LMFDB labels,
    recorded here as documentation; nothing is fetched);
  * CM_CHARACTER: the character paired with each CM form psi_k, for k = 2,
    3, 4; the package reads chi from this map wherever it builds psi_k or
    reads chi(x)*x for the form x^2 + k*y^2;
  * d_series: sum sigma(n) q^n;  e2_series: E2 = 1 - 24 D, built from
    d_series.

psi_series is computed by direct lattice-point enumeration alone.  The
same series is the product theta_weighted(chi) * (theta0 | V_k); the tests
build that product and compare it with the enumeration.
"""
from __future__ import annotations

from math import isqrt

from .numtheory import CHI_MINUS3, CHI_MINUS4, DirichletCharacter
from .qseries import QSeries
from .sums import t_series

__all__ = [
    "theta_mM",
    "theta0",
    "theta_weighted",
    "psi_series",
    "CM_CHARACTER",
    "d_series",
    "e2_series",
]


def theta_mM(m: int, M: int, precision: int) -> QSeries:
    """Theta series restricted to the arithmetic progression m mod M.

    For n >= 1 the coefficient at n^2 counts x = +-n with x = m (mod M),
    which is T_{0,m,M}; the constant term is 1 exactly when M | m.
    """
    series = t_series(0, m, M, precision)
    return series if m % M else series + QSeries.monomial(0, precision)


def theta0(precision: int) -> QSeries:
    """The unrestricted theta series: constant 1, coefficient 2 at squares."""
    return theta_mM(0, 1, precision)


def theta_weighted(chi: DirichletCharacter, precision: int) -> QSeries:
    """(1/2) sum over x in Z of chi(x) x q^(x^2)."""
    if precision < 1:
        raise ValueError("precision must be >= 1")
    num2 = [0] * precision  # accumulate twice the coefficients to stay integral
    for x in range(-isqrt(precision - 1), isqrt(precision - 1) + 1):
        num2[x * x] += chi(x) * x
    return QSeries._from_numerators(num2, 2)


def psi_series(k: int, chi: DirichletCharacter, precision: int) -> QSeries:
    """(1/2) sum_n psi_k(chi, n) q^n with psi_k(chi,n) = sum_{x^2+ky^2=n} chi(x) x.

    The sum runs over all integer pairs (x, y); chi must be odd so the two
    signs of x reinforce instead of cancel, and the leading coefficient
    (at q) is 1.  Computed by enumerating the lattice points (x, y).
    """
    if k < 2:
        raise ValueError("form coefficient k must be >= 2")
    if not chi.is_odd():
        raise ValueError("psi_series needs an odd character")
    if precision < 1:
        raise ValueError("precision must be >= 1")
    num2 = [0] * precision  # accumulate twice the coefficients to stay integral
    xmax = isqrt(precision - 1)
    for x in range(-xmax, xmax + 1):
        cx = chi(x) * x
        if not cx:
            continue
        xx = x * x
        ymax = isqrt((precision - 1 - xx) // k)
        for y in range(-ymax, ymax + 1):
            num2[xx + k * y * y] += cx
    return QSeries._from_numerators(num2, 2)


# the odd character of each CM form psi_k = psi_series(k, CM_CHARACTER[k])
CM_CHARACTER: dict[int, DirichletCharacter] = {
    2: CHI_MINUS4,
    3: CHI_MINUS3,
    4: CHI_MINUS4,
}


def d_series(precision: int) -> QSeries:
    """Divisor-sum series sum_{n>=1} sigma(n) q^n."""
    if precision < 1:
        raise ValueError("precision must be >= 1")
    sig = [0] * precision
    for d in range(1, precision):
        for n in range(d, precision, d):
            sig[n] += d
    return QSeries._from_numerators(sig)


def e2_series(precision: int) -> QSeries:
    """Weight-2 Eisenstein series E2 = 1 - 24 D."""
    return -24 * d_series(precision) + QSeries.monomial(0, precision)
