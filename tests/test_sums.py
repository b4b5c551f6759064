from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from hclassnum.numtheory import DirichletCharacter
from hclassnum.qseries import QSeries
from hclassnum.sums import (
    _lambda_literal_rows,
    _mu_closed_rows,
    _mu_literal_rows,
    g_series,
    lambda_series,
    lambda_u4_twist,
    mu_closed,
    mu_coeff,
    mu_series,
    t_series,
)
from oracles import lambda_coeff, lambda_naive


def test_mu_pinned_values():
    # t = 6, s = 4 solves t^2 - s^2 = 20 but 6 is 0 mod 6, not 2
    assert mu_coeff(1, 2, 2, 6, 5) == 0
    # only factorization of 4 forces s = 0, excluded
    assert mu_coeff(0, 2, 0, 6, 1) == 0
    # t^2 - s^2 = 4*2: (t, s) = (3, 1), so a = 3, b = 1 picks it up
    assert mu_coeff(1, 3, 1, 6, 2) == 2
    assert mu_coeff(3, 3, 1, 6, 2) == 8


def test_mu_vanishes_for_odd_residues_when_n_coprime():
    for M in (6, 8):
        for n in range(1, 2001):
            if gcd(n, M) != 1:
                continue
            for a in range(M):
                for b in range(M):
                    if a % 2 == 0 and b % 2 == 0:
                        continue
                    assert mu_coeff(1, a, b, M, n) == 0, (M, a, b, n)


def test_mu_closed_form_matches_literal():
    for M in (6, 8):
        for ell in (0, 1, 3):
            for n in range(1, 2001):
                if gcd(n, M) != 1:
                    continue
                for a in range(0, M, 2):
                    for b in range(0, M, 2):
                        assert mu_coeff(ell, a, b, M, n) == mu_closed(
                            ell, a, b, M, n
                        ), (M, ell, a, b, n)


@pytest.mark.parametrize("M", (6, 8))
@pytest.mark.parametrize("ell", (0, 1, 3))
def test_mu_rows_match_the_scalar_sums(ell, M):
    # the scalar functions are the oracle for the binned sweeps of verify_lemmas
    literal = _mu_literal_rows(ell, M, 200)
    closed = _mu_closed_rows(ell, M, 200)
    assert len(literal) == len(closed) == 201
    for n in range(1, 201):
        assert len(literal[n]) == len(closed[n]) == M * M
        for a in range(M):
            for b in range(M):
                assert literal[n][a * M + b] == mu_coeff(ell, a, b, M, n), (a, b, n)
                if gcd(n, M) == 1:
                    assert closed[n][a * M + b] == mu_closed(ell, a, b, M, n), (a, b, n)


@pytest.mark.parametrize("M", (6, 8))
@pytest.mark.parametrize("ell", (0, 1, 3))
def test_lambda_rows_match_the_literal_pipeline(ell, M):
    # lambda_series is the oracle for the binned sweep of verify_lemmas
    chi0 = DirichletCharacter.principal(M)
    for n_max in (1, 2, 3, 150):
        rows = _lambda_literal_rows(ell, M, n_max)
        assert len(rows) == M
        for m, row in enumerate(rows):
            want = lambda_series(ell, m, M, 4 * n_max).u_operator(4).twist(chi0)
            assert row == [2 * c for c in want], (n_max, m)


def test_mu_closed_rejects_bad_arguments():
    with pytest.raises(ValueError):
        mu_closed(1, 2, 2, 5, 2)
    with pytest.raises(ValueError):
        mu_closed(1, 2, 2, 6, 3)


def test_lambda_pinned_values():
    # only (t, s) = (6, 0) matches, weight 1/2 on each sign branch
    assert lambda_coeff(1, 0, 6, 36) == 6
    for n in range(2, 200, 4):
        assert lambda_coeff(1, 1, 4, n) == 0  # n = 2 mod 4 is never t^2 - s^2


@given(st.integers(0, 3), st.integers(-4, 8), st.integers(1, 8),
       st.integers(1, 60))
def test_lambda_matches_naive_double_loop(ell, m, M, n):
    assert lambda_coeff(ell, m, M, n) == lambda_naive(ell, m, M, n)


def test_lambda_series_matches_coefficients():
    for (ell, m, M) in [(0, 0, 6), (1, 2, 6), (1, 1, 2), (3, 4, 8)]:
        s = lambda_series(ell, m, M, 300)
        for n in range(1, 300):
            assert s[n] == lambda_coeff(ell, m, M, n), (ell, m, M, n)
        assert s[0] == 0


def test_mu_series_matches_coefficients():
    # every residue pair, including representatives outside [0, M)
    for M in (1, 2, 3, 5, 6, 8, 12):
        for ell in (0, 1, 3):
            for a in range(-1, M + 1):
                for b in range(-1, M + 1):
                    s = mu_series(ell, a, b, M, 120)
                    assert s[0] == 0
                    for n in range(1, 120):
                        assert s[n] == mu_coeff(ell, a, b, M, n), (M, ell, a, b, n)


def test_g_series_values():
    g = g_series(1, 1, 3, 50)
    assert g[7] == 1   # d = 1 matches the +1 branch only
    assert g[4] == 1   # d = 1 is the only divisor below sqrt(4)
    assert g[8] == 3   # d = 1 (one branch) and d = 2 (the -1 branch)
    # at primes the only divisor below the square root is 1, so the sum is
    # empty whenever 1 is not +-m mod M
    g2 = g_series(2, 2, 5, 100)
    for p in (7, 11, 19, 29, 31, 41, 59, 61, 71, 79, 89):
        assert g2[p] == 0


def test_t_series_values():
    t = t_series(1, 1, 4, 100)
    assert t[9] == 3  # n = 3 is -1 mod 4, single branch
    assert t[1] == 1
    assert t[81] == 9
    assert t[4] == 0  # n = 2 is neither 1 nor -1 mod 4
    t2 = t_series(0, 0, 1, 30)
    assert t2[25] == 2  # both branches coincide and still both count


def test_closed_form_odd_m_is_zero():
    for M in (6, 8):
        for m in range(1, M, 2):
            for ell in (0, 1, 3):
                assert lambda_u4_twist(ell, m, M, 50) == QSeries.zero(50)


def test_closed_form_pinned_shapes():
    # the paper's case rows for M = 6 and 8, residue by residue; residues
    # without a row (the odd ones) have a zero image
    prec = 200
    for ell in (0, 1, 2, 3):
        two_l = Fraction(2) ** ell
        g3 = g_series(ell, 1, 3, prec)
        g4 = g_series(ell, 1, 4, prec)
        # the doubling at m = 0 comes from the two coinciding branches; the
        # T part enters at half the weight of the G part
        mod6_2 = two_l * g3.sieve(6, 1) + two_l / 2 * t_series(ell, 1, 6, prec)
        mod8_2 = two_l * g4.sieve(4, 1) + two_l / 2 * t_series(ell, 1, 4, prec)
        rows = {
            6: {0: 2 * two_l * g3.sieve(6, 5), 2: mod6_2, 4: mod6_2},
            8: {0: 2 * two_l * g4.sieve(8, 7), 4: 2 * two_l * g4.sieve(8, 3),
                2: mod8_2, 6: mod8_2},
        }
        for M, row in rows.items():
            for m in range(M):
                want = row.get(m, QSeries.zero(prec))
                assert lambda_u4_twist(ell, m, M, prec) == want, (M, ell, m)


@pytest.mark.parametrize("M", [6, 8])
@pytest.mark.parametrize("ell", [0, 1, 3])
def test_closed_form_equals_literal_pipeline(M, ell):
    prec = 120
    chi0 = DirichletCharacter.principal(M)
    for m in range(M):
        literal = lambda_series(ell, m, M, 4 * prec).u_operator(4).twist(chi0)
        closed = lambda_u4_twist(ell, m, M, prec)
        assert literal == closed, (M, ell, m)


def test_general_decomposition_covers_other_even_moduli():
    # the same closed form at moduli the paper does not tabulate, against the
    # literal pipeline: e = 1, 2, 3, 4 and odd parts 1, 3, 5, 7
    prec = 150
    for M in (4, 10, 12, 14, 16, 24):
        chi0 = DirichletCharacter.principal(M)
        for ell in (0, 1, 3):
            for m in range(M):
                literal = lambda_series(ell, m, M, 4 * prec).u_operator(4).twist(chi0)
                closed = lambda_u4_twist(ell, m, M, prec)
                assert literal == closed, (M, ell, m)


def test_odd_modulus_rejected():
    with pytest.raises(ValueError):
        lambda_u4_twist(1, 0, 5, 10)


# every public lattice sum, with the ell and modulus of the call left open,
# and the precision too for the series
_LATTICE_SUMS = {
    "lambda_series": lambda ell, M, prec=10: lambda_series(ell, 1, M, prec),
    "g_series": lambda ell, M, prec=10: g_series(ell, 1, M, prec),
    "t_series": lambda ell, M, prec=10: t_series(ell, 1, M, prec),
    "mu_series": lambda ell, M, prec=10: mu_series(ell, 0, 4, M, prec),
    "lambda_u4_twist": lambda ell, M, prec=10: lambda_u4_twist(ell, 1, M, prec),
    "mu_coeff": lambda ell, M: mu_coeff(ell, 0, 4, M, 5),
    "mu_closed": lambda ell, M: mu_closed(ell, 0, 4, M, 5),
}
_SERIES = ("lambda_series", "g_series", "t_series", "mu_series", "lambda_u4_twist")


@pytest.mark.parametrize("name", _LATTICE_SUMS)
def test_lattice_sums_validate_ell_and_modulus(name):
    # these messages are also the CLI's usage errors: ell checked first, then
    # the modulus, then the precision
    call = _LATTICE_SUMS[name]
    for ell, M in ((-1, 6), (-1, 0)):
        with pytest.raises(ValueError, match="^ell must be nonnegative$"):
            call(ell, M)
    for M in (0, -2):
        with pytest.raises(ValueError, match="^modulus must be positive$"):
            call(1, M)
    if name in _SERIES:
        for ell, M, prec in ((1, 6, 0), (0, 6, -2)):
            with pytest.raises(ValueError, match="^precision must be >= 1$"):
                call(ell, M, prec)
        with pytest.raises(ValueError, match="^modulus must be positive$"):
            call(1, 0, 0)
    call(0, 6)
