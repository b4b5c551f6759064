from math import gcd

import pytest
from hypothesis import given, strategies as st

from hclassnum import numtheory
from hclassnum.numtheory import (
    CHI_MINUS3,
    CHI_MINUS4,
    DirichletCharacter,
    PrimeRepresentation,
    divisors,
    euler_phi,
    is_prime,
    kronecker_symbol,
    prime_factors,
    primes_up_to,
    represent,
)
from oracles import represent_scan, trial_division_prime

CHI_KRON8 = DirichletCharacter.from_kronecker(8)

# residue tables for the two odd quadratic characters
_CHI3_TABLE = {0: 0, 1: 1, 2: -1}
_CHI4_TABLE = {0: 0, 1: 1, 2: 0, 3: -1}


def test_kronecker_pinned_values():
    assert kronecker_symbol(-3, 7) == 1  # 7 = 1 mod 3
    assert kronecker_symbol(-4, 3) == -1
    for a in (-17, -1, 0, 2, 9, 35):
        assert kronecker_symbol(a, 1) == 1


def test_kronecker_rejects_double_zero():
    with pytest.raises(ValueError):
        kronecker_symbol(0, 0)


def test_kronecker_at_two_follows_mod8_rule():
    for a in range(-40, 41):
        expected = 0 if a % 2 == 0 else (1 if a % 8 in (1, 7) else -1)
        assert kronecker_symbol(a, 2) == expected


@given(st.integers(-200, 200), st.integers(-200, 200),
       st.integers(0, 100))
def test_kronecker_multiplicative_in_top(a, a2, bodd):
    b = 2 * bodd + 1
    assert kronecker_symbol(a * a2, b) == kronecker_symbol(a, b) * kronecker_symbol(a2, b)


@given(st.integers(-200, 200), st.integers(0, 60), st.integers(0, 60))
def test_kronecker_multiplicative_in_bottom(a, b1, b2):
    m, n = 2 * b1 + 1, 2 * b2 + 1
    assert kronecker_symbol(a, m * n) == kronecker_symbol(a, m) * kronecker_symbol(a, n)


def test_characters_match_kronecker_and_tables():
    for n in range(1, 10**4 + 1):
        v3 = CHI_MINUS3(n)
        assert type(v3) is int
        assert v3 == kronecker_symbol(-3, n)
        assert v3 == _CHI3_TABLE[n % 3]
        v4 = CHI_MINUS4(n)
        assert v4 == kronecker_symbol(-4, n)
        assert v4 == _CHI4_TABLE[n % 4]


def test_kron8_character():
    for n in range(-50, 50):
        expected = 0 if n % 2 == 0 else (1 if n % 8 in (1, 7) else -1)
        assert CHI_KRON8(n) == expected
    assert not CHI_KRON8.is_odd()
    assert CHI_MINUS3.is_odd() and CHI_MINUS4.is_odd()


@given(st.sampled_from([CHI_MINUS3, CHI_MINUS4, CHI_KRON8]),
       st.integers(-500, 500))
def test_character_periodicity(chi, n):
    assert chi(n) == chi(n + chi.modulus)


@given(st.sampled_from([CHI_MINUS3, CHI_MINUS4, CHI_KRON8]),
       st.integers(-60, 60), st.integers(-60, 60))
def test_character_complete_multiplicativity(chi, a, b):
    assert chi(a * b) == chi(a) * chi(b)


def test_principal_character():
    chi6 = DirichletCharacter.principal(6)
    assert chi6(35) == 1
    assert chi6(4) == 0
    assert CHI_MINUS4(2) == 0
    assert CHI_MINUS3(-1) == -1
    for n in range(-30, 30):
        assert chi6(n) == (1 if gcd(n, 6) == 1 else 0)


def test_kronecker5_character_matches_residue_table():
    chi5 = DirichletCharacter.from_kronecker(5)
    assert chi5.residue_values() == (0, 1, -1, -1, 1)
    for n in range(-100, 100):
        assert chi5(n) == kronecker_symbol(5, n)
        assert chi5(n) == chi5.residue_values()[n % chi5.period]


def test_kronecker5_character_vanishes_off_units_of_its_modulus():
    chi = DirichletCharacter.from_kronecker(5, modulus=10)
    assert chi.period == 10
    for n in range(-30, 30):
        want = 0 if gcd(n, 10) != 1 else kronecker_symbol(5, n)
        assert chi(n) == want
        assert chi(n) == chi.residue_values()[n % 10]
    with pytest.raises(ValueError):
        DirichletCharacter.from_kronecker(0, modulus=5)


def test_kronecker_kind_needs_good_discriminant():
    with pytest.raises(ValueError):
        DirichletCharacter.from_kronecker(3)


def test_character_validates_and_prints_its_fields():
    with pytest.raises(ValueError):
        DirichletCharacter(0)
    with pytest.raises(ValueError):
        DirichletCharacter(5, 2)
    with pytest.raises(ValueError):
        CHI_MINUS4._replace(disc=2)  # _replace builds through the same checks
    assert repr(CHI_MINUS4) == "DirichletCharacter(modulus=4, disc=-4)"
    assert DirichletCharacter(6) == DirichletCharacter.principal(6)
    assert hash(DirichletCharacter(6)) == hash(DirichletCharacter.principal(6))


@pytest.mark.parametrize("record, field", [
    (CHI_MINUS4, "modulus"),
    (CHI_MINUS4, "disc"),
    (PrimeRepresentation(x=2, y=1, n=3, p=7), "x"),
    (PrimeRepresentation(x=2, y=1, n=3, p=7), "p"),
])
def test_records_are_frozen(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 1)
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict either


def test_divisors_and_factors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert prime_factors(360) == [2, 3, 5]
    assert euler_phi(6) == 2 and euler_phi(8) == 4 and euler_phi(1) == 1


def test_is_prime_vs_trial_division():
    for n in range(10**4):
        assert is_prime(n) == trial_division_prime(n), n
    assert is_prime(9973)
    assert not is_prime(561)  # Carmichael
    assert is_prime(2**61 - 1)
    assert not is_prime(2**64 - 1)


def test_is_prime_refuses_past_its_proven_range():
    # psi_12 is composite but a strong pseudoprime to all twelve witnesses
    psi12 = 399165290221 * 798330580441
    assert psi12 == 318665857834031151167461
    with pytest.raises(ValueError):
        is_prime(psi12)
    with pytest.raises(ValueError):
        is_prime(psi12 + 2)
    assert not is_prime(psi12 - 1)


# psi_k for k = 1..11, the least strong pseudoprime to the first k primes
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051,
       3825123056546413051, 3825123056546413051)


def _strong_probable_prime(n, a):
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, r))


def test_is_prime_rejects_every_psi_k():
    # psi_k is composite and fools the first k witnesses, so rejecting it
    # needs more of them
    for k, psi in enumerate(PSI, start=1):
        assert all(_strong_probable_prime(psi, a) for a in numtheory._MR_WITNESSES[:k]), k
        assert not is_prime(psi), k


def test_is_prime_agrees_with_the_sieve_past_psi_2():
    limit = 1_400_000
    assert limit > PSI[1]
    sieve = bytearray(limit)
    for p in primes_up_to(limit - 1):
        sieve[p] = 1
    assert [n for n in range(limit) if is_prime(n) != sieve[n]] == []


def test_primes_up_to():
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_up_to(1) == []


def test_represent_examples():
    r = represent(13, 3)
    assert (r.x, r.y) == (1, 2)
    r = represent(5, 4)
    assert (r.x, r.y) == (1, 1)
    assert represent(11, 4) is None
    # p dividing n, and n past p
    assert (represent(3, 3).x, represent(3, 3).y) == (0, 1)
    assert (represent(2, 2).x, represent(2, 2).y) == (0, 1)
    assert (represent(2, 1).x, represent(2, 1).y) == (1, 1)
    assert represent(3, 6) is None and represent(5, 7) is None


def _pair(rep):
    return None if rep is None else (rep.x, rep.y)


def test_represent_matches_scan():
    # Cornacchia against the exhaustive scan, which for n = 1 also fixes
    # the order of the pair (smallest y first)
    for p in primes_up_to(10**5):
        for n in (1, 2, 3, 4):
            assert _pair(represent(p, n)) == represent_scan(p, n), (p, n)
    for p in primes_up_to(10**4):
        for n in range(5, 13):
            assert _pair(represent(p, n)) == represent_scan(p, n), (p, n)


def test_represent_at_large_primes():
    # far past any scan: 10^18 + 3 = 1 (mod 3) and 3 (mod 8); 10^18 + 9
    # = 1 (mod 8) takes the full Tonelli-Shanks loop
    for p, forms in ((10**18 + 3, (2, 3)), (10**18 + 9, (1, 2, 3, 4))):
        for n in forms:
            r = represent(p, n)
            assert r.x * r.x + n * r.y * r.y == p
    assert represent(10**18 + 3, 1) is None and represent(10**18 + 3, 4) is None


def test_represent_rejects_bad_input():
    with pytest.raises(ValueError):
        represent(10, 3)
    with pytest.raises(ValueError):
        represent(7, 0)


def test_representation_validates():
    with pytest.raises(ValueError):
        PrimeRepresentation(x=1, y=1, n=3, p=5)
    with pytest.raises(ValueError):
        PrimeRepresentation(x=-1, y=2, n=3, p=13)
    with pytest.raises(ValueError):
        PrimeRepresentation(1, 1, 3, 6)  # 1 + 3 = 4, not 6
    with pytest.raises(ValueError):
        represent(7, 3)._replace(y=2)


def test_represent_criteria_over_primes():
    # representability criteria for n = 1, 2, 3, 4 at every prime below 10^4
    for p in primes_up_to(10**4):
        if p == 2:
            assert represent(p, 1) is not None
            assert represent(p, 2) is not None
            continue
        assert (represent(p, 1) is not None) == (p % 4 == 1)
        assert (represent(p, 2) is not None) == (p % 8 in (1, 3))
        assert (represent(p, 3) is not None) == (p == 3 or p % 3 == 1)
        assert (represent(p, 4) is not None) == (p % 4 == 1)


def test_odd_character_term_is_sign_invariant():
    # chi(x) * x is what the closed forms consume; for odd chi it cannot
    # depend on the sign of x
    for chi in (CHI_MINUS3, CHI_MINUS4):
        for x in range(1, 200):
            assert chi(x) * x == chi(-x) * (-x)
