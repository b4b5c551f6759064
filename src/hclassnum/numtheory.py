"""Elementary number theory shared by the rest of the package.

Primality, divisors, the extended Kronecker symbol, real Dirichlet
characters, and representations of primes by the forms x^2 + n*y^2
(Cornacchia's algorithm over a Tonelli-Shanks square root).
Everything is exact integer or rational arithmetic; no floats anywhere.

DirichletCharacter and PrimeRepresentation are immutable records: each is a
typing.NamedTuple of its fields, subclassed with a __new__ that rejects
invalid fields (also through _make and _replace).  Like any NamedTuple they
compare equal to plain tuples of the same fields.
"""
from __future__ import annotations

from math import gcd, isqrt, lcm
from typing import NamedTuple

__all__ = [
    "is_prime",
    "primes_up_to",
    "divisors",
    "prime_factors",
    "euler_phi",
    "kronecker_symbol",
    "DirichletCharacter",
    "CHI_MINUS3",
    "CHI_MINUS4",
    "PrimeRepresentation",
    "represent",
]

# Deterministic Miller-Rabin witness set: the first 12 primes are proven for
# every n below psi_12 = 399165290221 * 798330580441, about 3.2 * 10^23
# (Sorenson and Webster, Math. Comp. 2017), comfortably past 2^64.  psi_12 is
# a strong pseudoprime to all twelve, so is_prime refuses it and beyond.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PROVEN_BELOW = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < psi_12 (about 3.2 * 10^23).

    Raises ValueError for larger n, where the witness set is not proven.
    Trial division by the twelve witnesses comes first; Miller-Rabin then
    runs with all twelve of them.
    """
    if n >= _MR_PROVEN_BELOW:
        raise ValueError(f"is_prime is proven only below {_MR_PROVEN_BELOW}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(limit: int) -> list[int]:
    """All primes p <= limit, by Eratosthenes sieve."""
    if limit < 2:
        return []
    sieve = bytearray(b"\x01") * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i in range(limit + 1) if sieve[i]]


def divisors(n: int) -> list[int]:
    """Positive divisors of n >= 1 in increasing order."""
    if n < 1:
        raise ValueError("divisors requires n >= 1")
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
    return small + large[::-1]


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1 in increasing order."""
    if n < 1:
        raise ValueError("prime_factors requires n >= 1")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out.append(m)
    return out


def euler_phi(n: int) -> int:
    """Euler totient."""
    phi = n
    for p in prime_factors(n):
        phi = phi // p * (p - 1)
    return phi


def kronecker_symbol(a: int, b: int) -> int:
    """Extended Kronecker symbol (a/b), defined for all integers.

    Completely multiplicative in each argument; (a/2) is 0, 1, -1 according
    to a = 0; +-1; +-3 (mod 8).  The pair (0, 0) is rejected.
    """
    if a == 0 and b == 0:
        raise ValueError("kronecker_symbol(0, 0) is undefined")
    if b == 0:
        return 1 if abs(a) == 1 else 0
    result = 1
    if b < 0:
        b = -b
        if a < 0:
            result = -result
    # strip the even part of b
    twos = (b & -b).bit_length() - 1
    b >>= twos
    if twos:
        if a % 2 == 0:
            return 0
        if twos % 2 and a % 8 in (3, 5):
            result = -result
    # Jacobi symbol for odd positive b, by quadratic reciprocity
    a %= b
    while a:
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                result = -result
        a, b = b, a
        if a % 4 == 3 and b % 4 == 3:
            result = -result
        a %= b
    return result if b == 1 else 0


class _ValidatedRecord:
    """Mixin for a NamedTuple subclass whose __new__ validates the fields:
    _make, and so _replace, builds through __new__ as well."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _CharacterFields(NamedTuple):
    modulus: int
    disc: int = 1


class DirichletCharacter(_ValidatedRecord, _CharacterFields):
    """A real Dirichlet character with values in {-1, 0, 1}.

    n -> kronecker_symbol(disc, n) on residues coprime to the modulus and 0
    elsewhere, for disc = 0, 1 (mod 4), disc != 0, so that the symbol is
    periodic with period |disc| (e.g. -3, -4, 8).  disc = 1 is the
    principal character, since kronecker_symbol(1, n) = 1 for n != 0.

    Calling the character returns its value as an int; residue_values gives
    the values over one period.
    """

    __slots__ = ()

    def __new__(cls, modulus: int, disc: int = 1) -> DirichletCharacter:
        if modulus < 1:
            raise ValueError("modulus must be positive")
        if not disc:
            raise ValueError("a character needs a nonzero discriminant")
        if disc % 4 not in (0, 1):
            raise ValueError("kronecker discriminant must be 0 or 1 mod 4")
        return super().__new__(cls, modulus, disc)

    @classmethod
    def principal(cls, modulus: int) -> "DirichletCharacter":
        return cls(modulus=modulus)

    @classmethod
    def from_kronecker(cls, disc: int, modulus: int | None = None) -> "DirichletCharacter":
        return cls(modulus=abs(disc) if modulus is None else modulus, disc=disc)

    @property
    def period(self) -> int:
        """A period of n -> chi(n) on the integers."""
        return lcm(self.modulus, abs(self.disc))

    def __call__(self, n: int) -> int:
        if gcd(n, self.modulus) != 1:
            return 0
        return kronecker_symbol(self.disc, n)

    def residue_values(self) -> tuple[int, ...]:
        """chi(0), chi(1), ..., chi(period - 1)."""
        return tuple(self(r) for r in range(self.period))

    def is_odd(self) -> bool:
        """True when chi(-1) = -1."""
        return self(-1) == -1


#: non-principal character mod 3 (odd)
CHI_MINUS3 = DirichletCharacter.from_kronecker(-3)
#: non-principal character mod 4 (odd)
CHI_MINUS4 = DirichletCharacter.from_kronecker(-4)


class _RepresentationFields(NamedTuple):
    x: int
    y: int
    n: int
    p: int


class PrimeRepresentation(_ValidatedRecord, _RepresentationFields):
    """The nonnegative solution of p = x^2 + n*y^2 (unique when n >= 2)."""

    __slots__ = ()

    def __new__(cls, x: int, y: int, n: int, p: int) -> PrimeRepresentation:
        if x < 0 or y < 0:
            raise ValueError("representation must use nonnegative x, y")
        if x * x + n * y * y != p:
            raise ValueError("not a representation: x^2 + n*y^2 != p")
        return super().__new__(cls, x, y, n, p)


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of a modulo the prime p, for a a square mod p.

    Tonelli-Shanks (Cohen, GTM 138, Algorithm 1.5.1).
    """
    a %= p
    if a < 2:
        return a
    # p - 1 = q * 2^e with q odd; z is any nonresidue
    e = ((p - 1) & -(p - 1)).bit_length() - 1
    q = (p - 1) >> e
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    y, x, b = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while b != 1:
        # order of b is 2^k with k < e
        k, b2 = 1, b * b % p
        while b2 != 1:
            k, b2 = k + 1, b2 * b2 % p
        t = pow(y, 1 << (e - k - 1), p)
        y = t * t % p
        e, x, b = k, x * t % p, b * y % p
    return x


def represent(p: int, n: int) -> PrimeRepresentation | None:
    """Solve p = x^2 + n*y^2 with x, y >= 0; None when no solution exists.

    Cornacchia's algorithm (Cohen, GTM 138, Algorithm 1.5.2): a square root
    of -n modulo p, then the Euclidean algorithm on (p, root) stopped at the
    first remainder below sqrt(p), so the cost is polynomial in log p.  For
    n >= 2 the pair is unique; for n = 1 that remainder is the larger of the
    two squares' roots, so the pair comes with y <= x.
    """
    if n < 1:
        raise ValueError("form coefficient n must be positive")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n >= p:
        # only y = 0 (never, p is not a square) or y = 1 with n = p
        return PrimeRepresentation(x=0, y=1, n=n, p=p) if n == p else None
    if p > 2 and pow(-n % p, (p - 1) // 2, p) != 1:
        return None
    r = _sqrt_mod(-n, p)
    a, b, bound = p, max(r, p - r), isqrt(p)
    while b > bound:
        a, b = b, a % b
    yy, rest = divmod(p - b * b, n)
    y = isqrt(yy)
    if rest or y * y != yy:
        return None
    return PrimeRepresentation(x=b, y=y, n=n, p=p)
