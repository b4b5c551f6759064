from fractions import Fraction
from math import isqrt

import pytest

from hclassnum.forms import d_series, e2_series, psi_series, theta_mM
from hclassnum.numtheory import (
    CHI_MINUS3,
    CHI_MINUS4,
    DirichletCharacter,
    divisors,
    is_prime,
    primes_up_to,
    represent,
)
from hclassnum.qseries import QSeries
from oracles import theta_weighted


def test_theta_pinned_values():
    t = theta_mM(0, 1, 30)
    assert t[0] == 1
    for n in range(1, 30):
        assert t[n] == (2 if isqrt(n) ** 2 == n else 0)
    t = theta_mM(1, 2, 10)
    assert [int(c) for c in t.coeffs] == [0, 2, 0, 0, 0, 0, 0, 0, 0, 2]
    t = theta_mM(0, 6, 40)
    assert t[0] == 1 and t[36] == 2
    assert sum(t.coeffs) == 3
    # against a direct count of #{x : x = m (mod M), x^2 = n}, constant term
    # and negative m included
    for M in range(1, 10):
        for m in range(-M - 1, 2 * M + 1):
            for precision in (1, 2, 50):
                xmax = isqrt(precision - 1)
                count = [0] * precision
                for x in range(-xmax, xmax + 1):
                    if (x - m) % M == 0:
                        count[x * x] += 1
                assert list(theta_mM(m, M, precision)) == count, (m, M, precision)


def test_theta_weighted_small():
    tw = theta_weighted(CHI_MINUS4, 26)
    # (1/2) chi(x) x q^(x^2) summed over both signs: coefficient chi(x) x at x^2
    assert tw[1] == 1
    assert tw[9] == -3
    assert tw[25] == 5
    assert tw[4] == 0 and tw[16] == 0  # even x killed by the character


def test_psi_goldens():
    psi3 = psi_series(3, CHI_MINUS3, 20)
    assert [(n, c) for n, c in enumerate(psi3.coeffs) if c] == [
        (1, 1), (7, -4), (13, 2), (19, 8)]
    psi4 = psi_series(4, CHI_MINUS4, 16)
    assert [(n, c) for n, c in enumerate(psi4.coeffs) if c] == [
        (1, 1), (5, 2), (9, -3), (13, -6)]
    psi2 = psi_series(2, CHI_MINUS4, 16)
    assert [(n, c) for n, c in enumerate(psi2.coeffs) if c] == [
        (1, 1), (3, 2), (9, -1), (11, -6)]


def test_psi_leading_coefficient_is_one():
    for k, chi in ((3, CHI_MINUS3), (4, CHI_MINUS4), (2, CHI_MINUS4)):
        assert psi_series(k, chi, 4)[1] == 1


# 1025 terms is the largest psi of `verify --suite all` at the default
# overshoot; 4097 the largest of the identities at overshoot 16
@pytest.mark.parametrize("prec", [400, 1025, 4097])
def test_psi_enumeration_equals_theta_product(prec):
    for k, chi in ((3, CHI_MINUS3), (4, CHI_MINUS4), (2, CHI_MINUS4)):
        enum = psi_series(k, chi, prec)
        theta_k = theta_mM(0, 1, prec).v_operator(k)
        assert enum == QSeries(theta_weighted(chi, prec)) * theta_k


def test_psi_at_primes_is_the_hecke_character():
    """psi_k(chi)[p] = 2 chi(x) x when p = x^2 + k y^2, else 0.

    At a prime p the lattice points of norm p are the four (+-x, +-y), each
    adding chi(x) x.  This is Hecke's description of a CM form at primes:
    the coefficient sums a Groessencharacter over the elements x +- y
    sqrt(-k) of norm p, and it is the link from psi to the chi(x) x term of
    the closed forms for H_{m,6}(p) and H_{m,8}(p).  As a theorem it holds
    for every prime, which no finite computation proves, so it is tested
    here at every prime below 10^4 and not claimed beyond.
    """
    prec = 10**4
    for k, chi in ((3, CHI_MINUS3), (4, CHI_MINUS4), (2, CHI_MINUS4)):
        psi = psi_series(k, chi, prec)
        for p in primes_up_to(prec - 1):
            rep = represent(p, k)
            want = 0 if rep is None else 2 * chi(rep.x) * rep.x
            assert psi[p] == want, (k, p)


def test_psi3_vanishes_at_inert_primes():
    psi3 = psi_series(3, CHI_MINUS3, 2001)
    for n in range(2, 2001):
        if is_prime(n) and n % 3 == 2:
            assert psi3[n] == 0, n


def test_psi_rejects_bad_arguments():
    with pytest.raises(ValueError):
        psi_series(1, CHI_MINUS4, 10)
    with pytest.raises(ValueError):
        psi_series(4, DirichletCharacter.principal(4), 10)  # even character


def test_d_and_e2():
    d = d_series(300)
    assert d[0] == 0 and d[1] == 1 and d[6] == 12
    for n in range(1, 300):
        assert d[n] == sum(divisors(n))
    e2 = e2_series(300)
    assert e2[0] == 1
    # D = 1/24 - E2/24
    rhs = QSeries.monomial(0, 300, Fraction(1, 24)) + Fraction(-1, 24) * e2
    assert d == rhs


def test_precision_validation():
    with pytest.raises(ValueError, match="precision must be >= 1"):
        theta_mM(0, 1, 0)
    with pytest.raises(ValueError, match="modulus must be positive"):
        theta_mM(0, 0, 10)
    with pytest.raises(ValueError, match="modulus must be positive"):
        theta_mM(0, 0, 0)
    with pytest.raises(ValueError, match="precision must be >= 1"):
        d_series(0)
    with pytest.raises(ValueError, match="precision must be >= 1"):
        e2_series(0)
