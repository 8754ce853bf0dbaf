"""Exact arithmetic in Q(sqrt q).

Structure constants of the periodic Hall algebra are sums a + b*sqrt(q)
with rational a, b. This module keeps them exact: no floats, division by
conjugation, and square roots only of quantities that are literal powers
of q (anything else is a hard error, since the theory promises the
radicands are such powers and a violation means a bug upstream).

When q happens to be a perfect square the value is normalized so that
the irrational part is 0; for prime q that branch is dead, but it keeps
the type honest for composite prime powers fed in by tests. Whether q
is a perfect square is decided once per q. Sums, differences and
products of normalized values are normalized again (for square q every
irrational part is 0), so arithmetic builds its results without
re-checking, and ``__mul__`` skips the zero terms of the product
formula when an operand is rational or both are pure multiples of
sqrt(q).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Optional, Tuple, Union

__all__ = ["HallValue", "q_power_exponent", "sqrt_of_q_power"]

Rat = Union[int, Fraction]

_ZERO = Fraction(0)


@functools.lru_cache(maxsize=None)
def _root_of(q: int) -> Optional[int]:
    """The integer square root of q when q is a perfect square, else
    None; validates q and is computed once per q."""
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    r = math.isqrt(q)
    return r if r * r == q else None


def q_power_exponent(x: Fraction, q: int) -> Optional[int]:
    """The integer e with x == q**e, or None if x is not such a power."""
    if x <= 0:
        return None
    num, den = x.numerator, x.denominator
    if den == 1:
        e = 0
        while num > 1:
            if num % q:
                return None
            num //= q
            e += 1
        return e if num == 1 else None
    if num != 1:
        return None
    e = 0
    while den > 1:
        if den % q:
            return None
        den //= q
        e += 1
    return -e


class HallValue:
    """An element a + b*sqrt(q) of Q(sqrt q), exact."""

    __slots__ = ("a", "b", "q")

    def __init__(self, a: Rat, b: Rat, q: int):
        root = _root_of(q)
        if type(a) is not Fraction:
            a = Fraction(a)
        if type(b) is not Fraction:
            b = Fraction(b)
        if root is not None and b:
            # q is a perfect square, fold the irrational part away
            a += b * root
            b = _ZERO
        self.a = a
        self.b = b
        self.q = q

    @classmethod
    def _new(cls, a: Fraction, b: Fraction, q: int) -> "HallValue":
        """Wrap parts that are Fractions already and normalized for q."""
        v = object.__new__(cls)
        v.a = a
        v.b = b
        v.q = q
        return v

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, q: int) -> "HallValue":
        return cls(0, 0, q)

    @classmethod
    def one(cls, q: int) -> "HallValue":
        return cls(1, 0, q)

    @classmethod
    def of(cls, x: Rat, q: int) -> "HallValue":
        return cls(x, 0, q)

    @classmethod
    def sqrt_q_power(cls, k: int, q: int) -> "HallValue":
        """q**(k/2) for an integer k of either parity and sign."""
        half, odd = divmod(k, 2)  # floor division, odd in {0, 1}
        base = Fraction(q) ** half
        if not odd:
            return cls(base, _ZERO, q)
        return cls(_ZERO, base, q)

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def as_pair(self) -> Tuple[Fraction, Fraction]:
        return (self.a, self.b)

    def monomial_exponent(self) -> Optional[Tuple[Fraction, int]]:
        """If the value is r * q**(k/2), return (r, k); else None.

        "Monomial" means exactly one of the two parts is nonzero. The
        rational factor r is returned as-is; k records only the parity
        contribution (0 for rational values, 1 for pure sqrt multiples).
        """
        if self.a and self.b:
            return None
        if self.b:
            return (self.b, 1)
        return (self.a, 0)

    def _coerce(self, other: Union["HallValue", Rat]) -> "HallValue":
        if isinstance(other, HallValue):
            if other.q != self.q:
                raise ValueError(f"mixed base fields q={self.q} and q={other.q}")
            return other
        if isinstance(other, (int, Fraction)):
            return HallValue(other, 0, self.q)
        raise TypeError(f"cannot combine HallValue with {type(other).__name__}")

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: Union["HallValue", Rat]) -> "HallValue":
        o = self._coerce(other)
        return HallValue._new(self.a + o.a, self.b + o.b, self.q)

    __radd__ = __add__

    def __sub__(self, other: Union["HallValue", Rat]) -> "HallValue":
        o = self._coerce(other)
        return HallValue._new(self.a - o.a, self.b - o.b, self.q)

    def __rsub__(self, other: Union["HallValue", Rat]) -> "HallValue":
        return self._coerce(other).__sub__(self)

    def __neg__(self) -> "HallValue":
        return HallValue._new(-self.a, -self.b, self.q)

    def __mul__(self, other: Union["HallValue", Rat]) -> "HallValue":
        o = self._coerce(other)
        a, b, c, d, q = self.a, self.b, o.a, o.b, self.q
        if not b and not d:
            return HallValue._new(a * c, _ZERO, q)
        if not a and not c:
            return HallValue._new(b * d * q, _ZERO, q)
        if not d:
            return HallValue._new(a * c, b * c, q)
        if not b:
            return HallValue._new(a * c, a * d, q)
        return HallValue._new(a * c + b * d * q, a * d + b * c, q)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["HallValue", Rat]) -> "HallValue":
        o = self._coerce(other)
        norm = o.a * o.a - o.b * o.b * self.q
        if not norm:
            if o.is_zero():
                raise ZeroDivisionError("division by zero HallValue")
            # a^2 == q b^2 with q not a perfect square is impossible for
            # nonzero rationals, so reaching here means q is square and
            # normalization failed, which is a bug
            raise ArithmeticError("degenerate conjugate norm")
        conj = HallValue._new(o.a, -o.b, self.q)
        num = self * conj
        return HallValue._new(num.a / norm, num.b / norm, self.q)

    def __rtruediv__(self, other: Union["HallValue", Rat]) -> "HallValue":
        return self._coerce(other).__truediv__(self)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, HallValue):
            return self.q == other.q and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.q, self.a, self.b))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"HallValue({self.a!s}, {self.b!s}, q={self.q})"

    def __str__(self) -> str:
        if not self.b:
            return str(self.a)
        bpart = f"sqrt({self.q})" if self.b == 1 else f"{self.b}*sqrt({self.q})"
        if not self.a:
            return bpart
        sign = "+" if self.b > 0 else "-"
        mag = abs(self.b)
        bpart = f"sqrt({self.q})" if mag == 1 else f"{mag}*sqrt({self.q})"
        return f"{self.a} {sign} {bpart}"


def sqrt_of_q_power(x: Fraction, q: int) -> "HallValue":
    """Exact square root of x, which must be a literal power of q.

    The bracket ratios that feed the structure constants are guaranteed
    to be powers of q; feeding anything else in is an upstream bug, so
    this raises instead of approximating.
    """
    e = q_power_exponent(Fraction(x), q)
    if e is None:
        raise ArithmeticError(f"radicand {x} is not a power of {q}")
    return HallValue.sqrt_q_power(e, q)
