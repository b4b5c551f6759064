"""Truncated q-expansions with exact rational coefficients, plus the operator calculus.

A QSeries holds the coefficients a(0), ..., a(P-1) of sum a(n) q^n exactly
and claims nothing past its precision P.  Every operation produces the
strongest precision its inputs support and never more, and coefficient
access outside the known range raises instead of padding with zeros.
Silent zeros are the classic way a coefficient comparison quietly stops
comparing anything, so they are banned.

Internally a series is a tuple of Python-int numerators over one positive
common denominator, reduced so that the denominator and the numerators
share no factor.  That form is canonical: equal series have equal
numerators and denominators, so equality and hashing compare them
directly.  All arithmetic runs on the integers; `fractions.Fraction`
appears only at the API edge (construction from rationals, `s[n]`,
iteration, `coeffs`), and floats are rejected outright.

Operators:
  * u_operator(m): b(n) = a(m*n), the index-extraction operator U_m;
  * mul_u(other, m): (a * other) | U_m, one strided pass per nonzero
    coefficient of the sparser factor; `*` is its m = 1 case;
  * v_operator(m): dilation q -> q^m, the section of U_m;
  * sieve(M, r): keep exactly the coefficients with n = r (mod M);
  * twist(chi): b(n) = chi(n) * a(n) for a Dirichlet character chi.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, Iterator, Sequence, Union

from .numtheory import DirichletCharacter

__all__ = ["QSeries", "Rational"]

Rational = Union[int, Fraction]


def _as_fraction(value: Rational) -> Fraction:
    if isinstance(value, float):
        raise TypeError("float coefficients are not exact; pass int or Fraction")
    return Fraction(value)


class QSeries:
    """sum_{0 <= n < P} a(n) q^n with exact rational a(n) and precision P.

    Stored as integer numerators over one positive denominator in lowest
    terms; a(n) = numerators[n] / den.  Instances are immutable; all
    operations allocate fresh series.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs: Iterable[Rational]):
        cs = [_as_fraction(c) for c in coeffs]
        if not cs:
            raise ValueError("a series needs at least one known coefficient")
        # every c is in lowest terms, so nothing divides the lcm of the
        # denominators and all the scaled numerators at once
        den = lcm(*(c.denominator for c in cs))
        self._nums = tuple(c.numerator * (den // c.denominator) for c in cs)
        self._den = den

    @classmethod
    def _from_numerators(cls, nums: Sequence[int], den: int = 1) -> "QSeries":
        """The series nums[n] / den, brought to lowest terms; den must be > 0."""
        if not nums:
            raise ValueError("a series needs at least one known coefficient")
        g = gcd(den, *nums)
        if g > 1:
            nums = [c // g for c in nums]
            den //= g
        self = cls.__new__(cls)
        self._nums = tuple(nums)
        self._den = den
        return self

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, precision: int) -> "QSeries":
        return cls._from_numerators([0] * precision)

    @classmethod
    def monomial(cls, exponent: int, precision: int, coeff: Rational = 1) -> "QSeries":
        if not 0 <= exponent < precision:
            raise ValueError("monomial exponent outside requested precision")
        c = _as_fraction(coeff)
        nums = [0] * precision
        nums[exponent] = c.numerator
        return cls._from_numerators(nums, c.denominator)

    # -- basic protocol --------------------------------------------------------

    @property
    def precision(self) -> int:
        return len(self._nums)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return len(self._nums)

    def __iter__(self) -> Iterator[Fraction]:
        """The coefficients as Fractions, made one at a time."""
        return map(Fraction, self._nums, repeat(self._den))

    def __getitem__(self, n: int) -> Fraction:
        if not isinstance(n, int):
            raise TypeError("coefficient index must be an integer")
        if n < 0 or n >= len(self._nums):
            raise IndexError(
                f"coefficient {n} outside known range [0, {len(self._nums)})"
            )
        return Fraction(self._nums[n], self._den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._nums, self._den))

    def __repr__(self) -> str:
        head = ", ".join(str(Fraction(c, self._den)) for c in self._nums[:6])
        tail = ", ..." if len(self._nums) > 6 else ""
        return f"QSeries([{head}{tail}], precision={len(self._nums)})"

    # -- linear structure -------------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        p = min(len(self._nums), len(other._nums))
        den = lcm(self._den, other._den)
        a, b = self._nums[:p], other._nums[:p]
        if den != self._den:
            a = map(mul, repeat(den // self._den), a)
        if den != other._den:
            b = map(mul, repeat(den // other._den), b)
        return QSeries._from_numerators(list(map(add, a, b)), den)

    def __sub__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "QSeries":
        return QSeries._from_numerators([-c for c in self._nums], self._den)

    def __mul__(self, other: Union["QSeries", Rational]) -> "QSeries":
        if isinstance(other, QSeries):
            return self.mul_u(other, 1)
        return self._scale(other)

    def __rmul__(self, other: Rational) -> "QSeries":
        return self._scale(other)

    def _scale(self, c: Rational) -> "QSeries":
        c = _as_fraction(c)
        num = c.numerator
        return QSeries._from_numerators(
            [num * a for a in self._nums],
            c.denominator * self._den,
        )

    def mul_u(self, other: "QSeries", m: int) -> "QSeries":
        """(self * other) | U_m, forming only the product's coefficients
        that U_m keeps.

        Precision ceil(P/m) for P the smaller of the two precisions, as for
        (self * other).u_operator(m); m = 1 is the Cauchy product.
        """
        if not isinstance(other, QSeries):
            raise TypeError("mul_u multiplies two series")
        if m < 1:
            raise ValueError("U-operator index must be >= 1")
        p = min(len(self._nums), len(other._nums))
        a, b = self._nums[:p], other._nums[:p]
        # run the sparser factor on the outside; the big products here are
        # theta-like series with O(sqrt(P)) support
        if a.count(0) < b.count(0):
            a, b = b, a
        out = [0] * -(-p // m)
        for j, cj in enumerate(a):
            if cj:
                # a_j b_i lands on m*n = i + j for n >= ceil(j/m), and the
                # slice of b has exactly one entry per n left in out
                n = -(-j // m)
                strided = b[m * n - j : p - j : m]
                out[n:] = map(add, out[n:], map(mul, repeat(cj), strided))
        return QSeries._from_numerators(out, self._den * other._den)

    # -- the operator calculus ---------------------------------------------------

    def u_operator(self, m: int) -> "QSeries":
        """Index extraction: b(n) = a(m*n).  Precision ceil(P/m).  Public as
        the tests' oracle for mul_u; perfbench hooks it by name."""
        if m < 1:
            raise ValueError("U-operator index must be >= 1")
        return QSeries._from_numerators(self._nums[::m], self._den)

    def v_operator(self, m: int) -> "QSeries":
        """Dilation q -> q^m: b(m*n) = a(n), 0 between.  Precision m*(P-1)+1.
        Public for the tests: U_m V_m = id, and psi_k = theta_chi * theta|V_k."""
        if m < 1:
            raise ValueError("V-operator index must be >= 1")
        out = [0] * (m * (len(self._nums) - 1) + 1)
        out[::m] = self._nums
        return QSeries._from_numerators(out, self._den)

    def sieve(self, modulus: int, residue: int) -> "QSeries":
        """Keep exactly the coefficients with n = residue (mod modulus)."""
        if modulus < 1:
            raise ValueError("sieve modulus must be >= 1")
        r = residue % modulus
        out = [0] * len(self._nums)
        out[r::modulus] = self._nums[r::modulus]
        return QSeries._from_numerators(out, self._den)

    def twist(self, chi: DirichletCharacter) -> "QSeries":
        """Coefficientwise twist: b(n) = chi(n) * a(n)."""
        period = chi.period
        out = [0] * len(self._nums)
        for r, v in enumerate(chi.residue_values()):
            if v == 1:
                out[r::period] = self._nums[r::period]
            elif v == -1:
                out[r::period] = [-c for c in self._nums[r::period]]
        return QSeries._from_numerators(out, self._den)
