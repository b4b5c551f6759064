from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from hclassnum import qseries
from hclassnum.forms import theta0
from hclassnum.numtheory import CHI_MINUS3, CHI_MINUS4, DirichletCharacter
from hclassnum.qseries import QSeries
from oracles import cauchy_naive, r2_lattice

CHI_KRON8 = DirichletCharacter.from_kronecker(8)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=8)
series = st.builds(QSeries, st.lists(rationals, min_size=1, max_size=25))
moduli = st.integers(1, 9)


def q(exp, prec, c=1):
    return QSeries.monomial(exp, prec, c)


# -- construction and access -------------------------------------------------

def test_needs_at_least_one_coefficient():
    with pytest.raises(ValueError):
        QSeries([])


def test_rejects_floats():
    with pytest.raises(TypeError):
        QSeries([0.5])
    with pytest.raises(TypeError):
        QSeries([1]) * 0.5


def test_out_of_range_access_is_an_error():
    f = QSeries([1, 2, 3])
    assert f[2] == 3
    with pytest.raises(IndexError):
        f[3]
    with pytest.raises(IndexError):
        f[-1]


def test_truncate_never_extends():
    f = QSeries([1, 2, 3])
    assert f.truncate(2).coeffs == (1, 2)
    with pytest.raises(ValueError):
        f.truncate(4)


# -- ring operations ----------------------------------------------------------

@given(series)
def test_add_zero_and_scale(f):
    zero = QSeries.zero(f.precision)
    assert f + zero == f
    assert (0 * f).is_zero()
    assert 2 * q(1, 3) + 2 * q(2, 3) == QSeries([0, 2, 2])


def test_mul_examples():
    one = QSeries.monomial(0, 4)
    f = QSeries([1, 2, 3, 4])
    assert f * one == f
    assert q(1, 4) * q(1, 4) == q(2, 4)


def test_theta_square_counts_lattice_points():
    t = theta0(60)
    square = t * t
    for n in range(60):
        assert square[n] == r2_lattice(n), n
    assert square[5] == 8


@given(series, series)
def test_mul_commutes_and_precision(f, g):
    assert f * g == g * f
    assert (f * g).precision == min(f.precision, g.precision)


@given(series, series, series)
def test_mul_associates_and_distributes(f, g, h):
    p = min(f.precision, g.precision, h.precision)
    f, g, h = f.truncate(p), g.truncate(p), h.truncate(p)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


# -- the operator calculus ----------------------------------------------------

def test_u_operator_examples():
    f = QSeries([0, 1, 2, 3, 4, 5, 6, 7, 8])
    assert f.u_operator(1) == f
    g = QSeries([0] * 9)
    g = q(4, 9) + 3 * q(8, 9)
    assert g.u_operator(4) == QSeries([0, 1, 3])


def test_v_operator_examples():
    f = QSeries([5, 7])
    assert f.v_operator(1) == f
    assert q(1, 2).v_operator(3) == QSeries([0, 0, 0, 1])


@given(series, moduli)
def test_u_after_v_is_identity(f, m):
    assert f.v_operator(m).u_operator(m) == f


@given(series, moduli)
def test_uv_precision_rules(f, m):
    assert f.u_operator(m).precision == -(-f.precision // m)
    assert f.v_operator(m).precision == m * (f.precision - 1) + 1


def test_sieve_examples():
    f = QSeries([0, 1, 1, 1])
    assert f.sieve(1, 0) == f
    assert f.sieve(2, 1) == QSeries([0, 1, 0, 1])


@given(series, moduli)
def test_sieve_partitions(f, m):
    total = QSeries.zero(f.precision)
    for r in range(m):
        total = total + f.sieve(m, r)
    assert total == f


@given(series, moduli, st.integers(-10, 10), st.integers(-10, 10))
def test_sieve_idempotent_orthogonal(f, m, r1, r2):
    s = f.sieve(m, r1)
    assert s.sieve(m, r1) == s
    assert s.precision == f.precision
    if (r1 - r2) % m:
        assert s.sieve(m, r2).is_zero()


@given(series, moduli)
def test_twist_by_principal_is_coprime_sieve_sum(f, m):
    chi0 = DirichletCharacter.principal(m)
    total = QSeries.zero(f.precision)
    for r in range(m):
        if gcd(r, m) == 1:
            total = total + f.sieve(m, r)
    assert f.twist(chi0) == total


def test_twist_examples():
    f = QSeries([0, 1, 1, 1])
    assert f.twist(CHI_MINUS4) == QSeries([0, 1, 0, -1])
    assert f.twist(DirichletCharacter.principal(1)) == f


@given(series, st.sampled_from([CHI_MINUS3, CHI_MINUS4, CHI_KRON8]))
def test_double_twist_is_principal_twist(f, chi):
    chi0 = DirichletCharacter.principal(chi.modulus)
    assert f.twist(chi).twist(chi) == f.twist(chi0)


# -- against per-coefficient Fraction references --------------------------------

wide_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60)
wide_series = st.builds(QSeries, st.lists(wide_rationals, min_size=1, max_size=25))
characters = st.sampled_from([
    CHI_MINUS3, CHI_MINUS4, CHI_KRON8,
    DirichletCharacter.principal(6), DirichletCharacter.from_kronecker(5),
    DirichletCharacter.from_kronecker(-3, modulus=6),
])


def fracs(f):
    return list(f.coeffs)


@given(wide_series, wide_series)
def test_mul_matches_fraction_double_loop(f, g):
    assert fracs(f * g) == cauchy_naive(fracs(f), fracs(g))


@given(wide_series, wide_series)
def test_add_and_sub_match_fraction_reference(f, g):
    p = min(f.precision, g.precision)
    assert fracs(f + g) == [a + b for a, b in zip(fracs(f)[:p], fracs(g)[:p])]
    assert fracs(f - g) == [a - b for a, b in zip(fracs(f)[:p], fracs(g)[:p])]
    assert fracs(-f) == [-a for a in fracs(f)]


@given(wide_series, wide_rationals)
def test_scalar_mul_matches_fraction_reference(f, c):
    assert fracs(c * f) == [c * a for a in fracs(f)]
    assert fracs(f * c) == [c * a for a in fracs(f)]


@given(wide_series, characters)
def test_twist_matches_fraction_reference(f, chi):
    assert fracs(f.twist(chi)) == [chi(n) * a for n, a in enumerate(fracs(f))]


@given(wide_series, moduli, st.integers(-10, 10))
def test_sieve_matches_fraction_reference(f, m, r):
    want = [a if (n - r) % m == 0 else 0 for n, a in enumerate(fracs(f))]
    assert fracs(f.sieve(m, r)) == want


@given(wide_series, moduli)
def test_u_and_v_match_fraction_reference(f, m):
    a = fracs(f)
    assert fracs(f.u_operator(m)) == [a[m * n] for n in range(-(-len(a) // m))]
    want = [a[n // m] if n % m == 0 else 0 for n in range(m * (len(a) - 1) + 1)]
    assert fracs(f.v_operator(m)) == want


@given(wide_series, wide_series, st.integers(1, 6))
def test_mul_u_matches_product_then_u(f, g, m):
    # unequal precisions and mixed denominators; P < m when both are short
    product = f.mul_u(g, m)
    assert product == (f * g).u_operator(m) == g.mul_u(f, m)
    assert fracs(product) == cauchy_naive(fracs(f), fracs(g))[::m]


def test_mul_u_edge_cases():
    f = QSeries([Fraction(1, 2), 3, Fraction(-2, 3), 5])
    g = QSeries([Fraction(1, 5), 7])
    # P = 2 < m = 3: only a(0) * b(0) is left, and nothing past it is known
    short = f.mul_u(g, 3)
    assert short == QSeries([Fraction(1, 10)])
    with pytest.raises(IndexError):
        short[1]
    for m in range(1, 7):
        assert f.mul_u(QSeries.zero(9), m) == QSeries.zero(-(-4 // m))
        assert QSeries.zero(3).mul_u(f, m) == QSeries.zero(-(-3 // m))
    with pytest.raises(ValueError):
        f.mul_u(g, 0)
    with pytest.raises(TypeError):
        f.mul_u(2, 1)


def test_representation_is_canonical():
    f = QSeries([Fraction(2, 4), 3])
    g = QSeries([Fraction(1, 2), 3])
    assert f == g and hash(f) == hash(g)
    assert f._den == 2 and f._nums == (1, 6)
    # results are reduced too: the halves cancel here
    assert (f + f)._den == 1 and (f + f) == QSeries([1, 6])
    assert hash(f + f) == hash(QSeries([1, 6]))
    zero = f - g
    assert zero.is_zero() and zero._den == 1
    assert zero == QSeries.zero(2) and hash(zero) == hash(QSeries.zero(2))
    assert (0 * QSeries([Fraction(1, 3)]))._den == 1


def test_repr_shows_the_first_six_coefficients(monkeypatch):
    assert repr(QSeries([1, Fraction(-1, 2), 0])) == "QSeries([1, -1/2, 0], precision=3)"
    assert repr(QSeries(range(6))) == "QSeries([0, 1, 2, 3, 4, 5], precision=6)"
    long = QSeries._from_numerators(range(100_000), 6)
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(qseries, "Fraction", counted)
    assert repr(long) == (
        "QSeries([0, 1/6, 1/3, 1/2, 2/3, 5/6, ...], precision=100000)")
    assert len(built) == 6  # the head only, not one per coefficient


# -- serialization -----------------------------------------------------------------

def test_strings_round_trip_canonical():
    f = QSeries([Fraction(-1, 12), 0, 7])
    assert f.to_strings() == ["-1/12", "0", "7"]


@given(series)
def test_serialization_round_trips(f):
    assert QSeries(Fraction(s) for s in f.to_strings()) == f
