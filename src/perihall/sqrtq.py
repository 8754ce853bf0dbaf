"""Exact arithmetic in Q(sqrt q).

Structure constants of the periodic Hall algebra are sums a + b*sqrt(q)
with rational a, b. This module keeps them exact: no floats, and
division by conjugation.

A value is stored as four ints ``(n, m, d, q)``, meaning
(n + m*sqrt(q)) / d, with d > 0 and gcd(n, m, d) = 1. That normal form
is unique, so equality compares ints, and every result is normalized
by one three-argument ``math.gcd``. The rational and irrational parts
``a = n/d`` and ``b = m/d`` are read-only properties that build
``Fraction`` values on demand; nothing on the arithmetic path does.

When q happens to be a perfect square the value is normalized so that
m = 0; for prime q that branch is dead, but it keeps the type honest
for composite prime powers fed in by tests. Whether q is a perfect
square is decided once per q. Sums, differences, products and
quotients of normalized values keep m = 0 for square q, so only the
two constructors that take an irrational part, ``HallValue(a, b, q)``
and :meth:`HallValue.monomial`, fold it.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Optional, Tuple, Union

__all__ = ["HallValue"]

Rat = Union[int, Fraction]

_gcd = math.gcd


@functools.lru_cache(maxsize=None)
def _root_of(q: int) -> Optional[int]:
    """The integer square root of q when q is a perfect square, else
    None; validates q and is computed once per q."""
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    r = math.isqrt(q)
    return r if r * r == q else None


class HallValue:
    """An element (n + m*sqrt(q)) / d of Q(sqrt q), exact, with d > 0
    and gcd(n, m, d) = 1."""

    __slots__ = ("n", "m", "d", "q")

    def __init__(self, a: Rat, b: Rat, q: int):
        root = _root_of(q)
        if not isinstance(a, (int, Fraction)):
            a = Fraction(a)
        if not isinstance(b, (int, Fraction)):
            b = Fraction(b)
        n, m, d = a.numerator * b.denominator, b.numerator * a.denominator, a.denominator * b.denominator
        if root is not None and m:
            # q is a perfect square, fold the irrational part away
            n += m * root
            m = 0
        g = _gcd(n, m, d)
        self.n = n // g
        self.m = m // g
        self.d = d // g
        self.q = q

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, q: int) -> "HallValue":
        _root_of(q)
        return _new(0, 0, 1, q)

    @classmethod
    def one(cls, q: int) -> "HallValue":
        _root_of(q)
        return _new(1, 0, 1, q)

    @classmethod
    def of(cls, x: Rat, q: int) -> "HallValue":
        return cls(x, 0, q)

    @classmethod
    def monomial(cls, num: int, den: int, k: int, q: int) -> "HallValue":
        """(num / den) * q**(k/2) for ints num, den != 0 and k of either
        parity and sign, folded when q is a perfect square."""
        root = _root_of(q)
        if not den:
            raise ZeroDivisionError("monomial with denominator 0")
        half, odd = divmod(k, 2)  # floor division, odd in {0, 1}
        if half >= 0:
            num *= q**half
        else:
            den *= q**-half
        if den < 0:
            num, den = -num, -den
        if not odd:
            return _new(num, 0, den, q)
        if root is not None:
            return _new(num * root, 0, den, q)
        return _new(0, num, den, q)

    @classmethod
    def sqrt_q_power(cls, k: int, q: int) -> "HallValue":
        """q**(k/2) for an integer k of either parity and sign."""
        return cls.monomial(1, 1, k, q)

    # -- structure ----------------------------------------------------

    @property
    def a(self) -> Fraction:
        """The rational part n/d."""
        return Fraction(self.n, self.d)

    @property
    def b(self) -> Fraction:
        """The coefficient m/d of sqrt(q)."""
        return Fraction(self.m, self.d)

    def is_zero(self) -> bool:
        return not self.n and not self.m

    def as_pair(self) -> Tuple[Fraction, Fraction]:
        return (self.a, self.b)

    def _coerce(self, other: Union["HallValue", Rat]) -> "HallValue":
        if isinstance(other, HallValue):
            if other.q != self.q:
                raise ValueError(f"mixed base fields q={self.q} and q={other.q}")
            return other
        if isinstance(other, (int, Fraction)):
            return _new(other.numerator, 0, other.denominator, self.q)
        raise TypeError(f"cannot combine HallValue with {type(other).__name__}")

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: Union["HallValue", Rat]) -> "HallValue":
        if type(other) is not HallValue or other.q != self.q:
            other = self._coerce(other)
        d, e = self.d, other.d
        if d == e:
            return _new(self.n + other.n, self.m + other.m, d, self.q)
        return _new(self.n * e + other.n * d, self.m * e + other.m * d, d * e, self.q)

    __radd__ = __add__

    def __sub__(self, other: Union["HallValue", Rat]) -> "HallValue":
        if type(other) is not HallValue or other.q != self.q:
            other = self._coerce(other)
        d, e = self.d, other.d
        if d == e:
            return _new(self.n - other.n, self.m - other.m, d, self.q)
        return _new(self.n * e - other.n * d, self.m * e - other.m * d, d * e, self.q)

    def __rsub__(self, other: Union["HallValue", Rat]) -> "HallValue":
        return self._coerce(other).__sub__(self)

    def __neg__(self) -> "HallValue":
        return _new(-self.n, -self.m, self.d, self.q)

    def __mul__(self, other: Union["HallValue", Rat]) -> "HallValue":
        if type(other) is not HallValue or other.q != self.q:
            other = self._coerce(other)
        n1, m1, n2, m2 = self.n, self.m, other.n, other.m
        if not m1 and not m2:
            return _new(n1 * n2, 0, self.d * other.d, self.q)
        return _new(n1 * n2 + m1 * m2 * self.q, n1 * m2 + m1 * n2, self.d * other.d, self.q)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["HallValue", Rat]) -> "HallValue":
        if type(other) is not HallValue or other.q != self.q:
            other = self._coerce(other)
        n1, m1, n2, m2, q = self.n, self.m, other.n, other.m, self.q
        # (n1 + m1 r)/d1 / ((n2 + m2 r)/d2)
        #   = d2 (n1 + m1 r)(n2 - m2 r) / (d1 (n2^2 - q m2^2))
        norm = n2 * n2 - m2 * m2 * q
        if not norm:
            if other.is_zero():
                raise ZeroDivisionError("division by zero HallValue")
            # n^2 == q m^2 with q not a perfect square is impossible for
            # nonzero ints, so reaching here means q is square and
            # normalization failed, which is a bug
            raise ArithmeticError("degenerate conjugate norm")
        d2 = other.d
        n = (n1 * n2 - m1 * m2 * q) * d2
        m = (m1 * n2 - n1 * m2) * d2
        d = self.d * norm
        if d < 0:
            n, m, d = -n, -m, -d
        return _new(n, m, d, q)

    def __rtruediv__(self, other: Union["HallValue", Rat]) -> "HallValue":
        return self._coerce(other).__truediv__(self)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, HallValue):
            return self.q == other.q and self.n == other.n and self.m == other.m and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return not self.m and self.n == other.numerator and self.d == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        if not self.m:
            # equal to a rational, so hash like it
            return hash(Fraction(self.n, self.d))
        return hash((self.q, self.n, self.m, self.d))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"HallValue({self.a!s}, {self.b!s}, q={self.q})"

    def __str__(self) -> str:
        if not self.m:
            return str(self.a)
        b = self.b
        bpart = f"sqrt({self.q})" if b == 1 else f"{b}*sqrt({self.q})"
        if not self.n:
            return bpart
        sign = "+" if b > 0 else "-"
        mag = abs(b)
        bpart = f"sqrt({self.q})" if mag == 1 else f"{mag}*sqrt({self.q})"
        return f"{self.a} {sign} {bpart}"


_alloc = object.__new__


def _new(n: int, m: int, d: int, q: int) -> HallValue:
    """(n + m*sqrt(q)) / d in normal form, for d > 0, parts folded for
    a square q and a q already validated."""
    g = _gcd(n, m, d)
    if g != 1:
        n //= g
        m //= g
        d //= g
    v = _alloc(HallValue)
    v.n = n
    v.m = m
    v.d = d
    v.q = q
    return v
