"""A semisimple periodic category for any odd period.

One simple object, no extensions: objects are t-tuples of
multiplicities, morphisms are tuples of linear maps between the layers,
and the cone of a map is read off from ranks. Everything the Hall
engine asks an oracle is a closed-form count here, which makes this
both the fastest backend and an independent check against the
quiver-based one: the point quiver, whose period is
:attr:`perihall.category.PeriodicContext.t`, must agree with it
constant for constant, and the tests compare the two at t = 3, 5 and 7.
The field size q must be a prime power.
"""

from __future__ import annotations

import itertools
from math import isqrt
from typing import Dict, Iterator, List, Sequence, Tuple

from .category import _brace_table
from .gfp import gl_order

__all__ = ["rank_count", "SemisimplePeriodic"]

SsKey = Tuple[int, ...]


def gauss_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def rank_count(a: int, b: int, r: int, q: int) -> int:
    """Number of a-by-b matrices over F_q of rank r."""
    if r < 0 or r > min(a, b):
        return 0
    out = gauss_binomial(a, r, q)
    for i in range(r):
        out *= q**b - q**i
    return out


def _is_prime_power(q: int) -> bool:
    """Whether q = p^k for a prime p and k >= 1: q > 1 and q is a power
    of its least factor above 1, which is prime."""
    if q < 2:
        return False
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    while q % p == 0:
        q //= p
    return q == 1


class SemisimplePeriodic:
    """Category oracle with one simple object and period t."""

    def __init__(self, t: int, q: int):
        if not isinstance(t, int) or t < 3 or t % 2 == 0:
            raise ValueError(f"the period must be an odd number at least 3, got t = {t}")
        if not _is_prime_power(q):
            raise ValueError(f"q must be a prime power, got {q}")
        self.t = t
        self._q = q

    @property
    def q(self) -> int:
        return self._q

    @property
    def zero_key(self) -> SsKey:
        return (0,) * self.t

    def object(self, mults: Sequence[int]) -> SsKey:
        key = tuple(int(m) for m in mults)
        if len(key) != self.t or any(m < 0 for m in key):
            raise ValueError("need one multiplicity per shift")
        return key

    def shift_key(self, key: SsKey, n: int = 1) -> SsKey:
        return tuple(key[(s - n) % self.t] for s in range(self.t))

    def direct_sum_key(self, *keys: SsKey) -> SsKey:
        return tuple(sum(k[s] for k in keys) for s in range(self.t))

    def components(self, key: SsKey) -> Tuple[SsKey, ...]:
        out = []
        for s in range(self.t):
            layer = [0] * self.t
            layer[0] = key[s]
            out.append(tuple(layer))
        return tuple(out)

    def total_dim(self, key: SsKey) -> int:
        return sum(key)

    def hom_dim(self, x: SsKey, y: SsKey) -> int:
        return sum(a * b for a, b in zip(x, y))

    def brace_exponent(self, x: SsKey, y: SsKey) -> int:
        """{x,y}: e with q**e equal to the alternating product of
        |Hom(x[i], y)| over i from 1 to t, signs starting at -1. The
        simple has Hom = 1 and Ext^1 = 0 to itself, so the layer s of x
        and the layer s + d of y weigh x_s y_{s+d} with the Hom
        coefficient of beta_t(d) (:func:`perihall.category._brace_table`)."""
        t = self.t
        beta = _brace_table(t)
        return sum(beta[d][0] * x[s] * y[(s + d) % t] for d in range(t) for s in range(t))

    def aut_order(self, key: SsKey) -> int:
        out = 1
        for m in key:
            out *= gl_order(m, self._q)
        return out

    def fiber_counts(self, x: SsKey, m: SsKey) -> Dict[SsKey, int]:
        """Morphism counts x -> m by cone class, from rank profiles,
        sorted by key.

        A morphism is a tuple of matrices; its cone keeps the cokernel
        of each layer in place and pushes the kernel up one shift.
        """
        out: Dict[SsKey, int] = {}
        for profile in self._rank_profiles(x, m):
            count = 1
            for s in range(self.t):
                count *= rank_count(x[s], m[s], profile[s], self._q)
            cone = tuple(
                (m[s] - profile[s]) + (x[(s - 1) % self.t] - profile[(s - 1) % self.t])
                for s in range(self.t)
            )
            out[cone] = out.get(cone, 0) + count
        return dict(sorted(out.items()))

    def product_terms(
        self, x: SsKey, y: SsKey
    ) -> Tuple[int, int, Tuple[int, int], Tuple[int, int], List[Tuple[SsKey, int, int, int]]]:
        """hom(y, x), {y, x}, (|Aut x|, {x, x}), (|Aut y|, {y, y}) and,
        per cone l of the morphisms y[-1] -> x in the order of
        :meth:`fiber_counts`, (l, count, |Aut l|, {l, l}): the scalars of
        u_x * u_y, each from its closed form."""
        brace, aut = self.brace_exponent, self.aut_order
        cones = [(l, count, aut(l), brace(l, l)) for l, count in self.fiber_counts(self.shift_key(y, -1), x).items()]
        return self.hom_dim(y, x), brace(y, x), (aut(x), brace(x, x)), (aut(y), brace(y, y)), cones

    def _rank_profiles(self, x: SsKey, m: SsKey) -> Iterator[SsKey]:
        return itertools.product(*(range(min(x[s], m[s]) + 1) for s in range(self.t)))

    def objects(self, bound: int) -> Iterator[SsKey]:
        """All objects with each multiplicity at most bound, yielded
        lazily by total multiplicity, then key: the objects of total D
        are generated in lexicographic order, one degree at a time."""
        for total in range(bound * self.t + 1):
            yield from _tuples_of_sum(total, self.t, bound)

    def enumerate_objects(self, bound: int) -> List[SsKey]:
        """Every object of :meth:`objects`, in its order, as a list."""
        return list(self.objects(bound))


def _tuples_of_sum(total: int, length: int, bound: int) -> Iterator[SsKey]:
    """The tuples of the given length with entries in range(bound + 1)
    summing to total, in lexicographic order."""
    if length == 0:
        if total == 0:
            yield ()
        return
    for first in range(max(0, total - bound * (length - 1)), min(bound, total) + 1):
        for rest in _tuples_of_sum(total - first, length - 1, bound):
            yield (first,) + rest
