"""Hall algebra of a periodic triangulated category, exactly.

Structure constants live in Q adjoined a square root of q. The product
u_x * u_y is read off one enumeration: the morphisms y[-1] -> x grouped
by the class l of their cone. This is the Riedtmann-type form of the
derived Hall number (Toen, math/0501343; Xiao-Xu, "Hall algebras
associated to triangulated categories", math/0608144):

    F_xy^l = |Hom(y[-1], x)_l| * |Aut l| / (|Aut x| |Aut y|) * q^(k/2),
    k = {l,l} - {x,x} - {y,y} - {y,x} - 2 hom(y, x),

where hom is the oracle's hom dimension and {a,b} is the oracle's
``brace_exponent``: the e with q^e equal to the alternating product of
the hom sizes |Hom(a[i], b)|, i from 1 to the period, signs starting
at -1. Each oracle answers it from its own tables;
:func:`perihall.checks.brace_exponent_by_shifts` takes the alternating
sum literally. Only {l,l}, |Aut l| and the fiber count depend on the
cone l, so a product computes the rest of k and |Aut x| |Aut y| once
and builds each constant as the monomial ratio * q^floor(k/2), times
sqrt(q) when k is odd. The dual counts, which fiber Hom(x, l) or
Hom(l, y) instead, live in :mod:`perihall.checks` and are compared
there.

The engine is generic over the category: anything exposing the oracle
surface (period, field size, object keys, shifts, direct sums, hom
dimensions, automorphism orders, and morphism counts fibered by cone
class) can be multiplied. The 3-periodic quiver category is the main
instance; tests also run a 5-periodic semisimple one. Its morphism
counts, and so its products, are served only for quivers of type A
(disjoint unions of paths); on any other quiver
:func:`perihall.checks.fiber_counts_literal` counts the fibers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, List, Optional, Protocol, Sequence, Tuple

from .sqrtq import HallValue

__all__ = ["CategoryOracle", "HallVector", "PBWExpression", "HallEngine"]

Key = Hashable


class CategoryOracle(Protocol):
    """What a category must answer to have a Hall algebra computed."""

    t: int

    @property
    def q(self) -> int: ...

    @property
    def zero_key(self) -> Key: ...

    def shift_key(self, key: Key, n: int = 1) -> Key: ...

    def direct_sum_key(self, *keys: Key) -> Key: ...

    def components(self, key: Key) -> Sequence[Key]:
        """Per-shift module layers, each as a key concentrated at shift 0."""
        ...

    def hom_dim(self, x: Key, y: Key) -> int: ...

    def brace_exponent(self, x: Key, y: Key) -> int:
        """e with q**e equal to the alternating product of the hom sizes
        |Hom(x[i], y)| for i from 1 to the period, signs starting at -1."""
        ...

    def aut_order(self, key: Key) -> int: ...

    def fiber_counts(self, x: Key, m: Key, cap: Optional[int] = None) -> Dict[Key, int]:
        """Morphism counts x -> m grouped by the class of the cone."""
        ...


class HallVector:
    """A finite linear combination of object classes."""

    __slots__ = ("q", "coeffs")

    def __init__(self, q: int, coeffs: Optional[Dict[Key, HallValue]] = None):
        self.q = q
        self.coeffs: Dict[Key, HallValue] = {}
        if coeffs:
            for k, v in coeffs.items():
                if not v.is_zero():
                    self.coeffs[k] = v

    def coeff(self, key: Key) -> HallValue:
        return self.coeffs.get(key, HallValue.zero(self.q))

    @property
    def support(self) -> Tuple[Key, ...]:
        return tuple(sorted(self.coeffs.keys()))

    def items(self) -> List[Tuple[Key, HallValue]]:
        return sorted(self.coeffs.items(), key=lambda kv: kv[0])

    def add(self, other: "HallVector") -> "HallVector":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            w = out.get(k)
            out[k] = v if w is None else w + v
        return HallVector(self.q, out)

    def scale(self, c: HallValue) -> "HallVector":
        return HallVector(self.q, {k: v * c for k, v in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HallVector) and other.coeffs == self.coeffs

    def __hash__(self):
        raise TypeError("HallVector is mutable by construction, do not hash")

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"({v})*u[{k}]" for k, v in self.items())


class PBWExpression:
    """A combination of ordered products of pure-shift generators.

    Each term is a coefficient and a tuple of module-layer keys, highest
    shift first, ending with the shift-0 layer; evaluating a term
    multiplies the corresponding shifted generators in that order.
    """

    __slots__ = ("q", "terms")

    def __init__(self, q: int, terms: Optional[Dict[Tuple[Key, ...], HallValue]] = None):
        self.q = q
        self.terms: Dict[Tuple[Key, ...], HallValue] = {}
        if terms:
            for k, v in terms.items():
                if not v.is_zero():
                    self.terms[k] = v

    def add_term(self, factors: Tuple[Key, ...], coeff: HallValue) -> None:
        w = self.terms.get(factors)
        total = coeff if w is None else w + coeff
        if total.is_zero():
            self.terms.pop(factors, None)
        else:
            self.terms[factors] = total

    def combine(self, other: "PBWExpression", scalar: HallValue) -> None:
        for factors, coeff in other.terms.items():
            self.add_term(factors, coeff * scalar)

    def items(self) -> List[Tuple[Tuple[Key, ...], HallValue]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def evaluate(self, engine: "HallEngine") -> HallVector:
        total = HallVector(self.q)
        for factors, coeff in self.items():
            acc = engine.unit()
            for s, layer in zip(range(engine.t - 1, -1, -1), factors):
                acc = engine.multiply_vectors(acc, engine.vector(engine.oracle.shift_key(layer, s)))
            total = total.add(acc.scale(coeff))
        return total

    def __repr__(self) -> str:
        return " + ".join(f"({v})*{list(k)}" for k, v in self.items()) or "0"


class HallEngine:
    """Exact structure constants and products over a category oracle.

    Over :class:`perihall.category.PeriodicContext` the fibers, and so
    the products, exist only for quivers of type A; other quivers raise
    ``NotImplementedError``, and
    :func:`perihall.checks.fiber_counts_literal` counts their fibers."""

    def __init__(self, oracle: CategoryOracle):
        self.oracle = oracle
        self.t = oracle.t
        self.q = oracle.q
        if self.t % 2 == 0 or self.t < 3:
            raise ValueError("the period must be an odd number at least 3")
        self._mult_cache: Dict[Tuple[Key, Key], HallVector] = {}
        self._pbw_cache: Dict[Key, PBWExpression] = {}
        self._pbw_active: set = set()

    def hall_number(self, x: Key, y: Key, l: Key) -> HallValue:
        """The structure constant of u_l in u_x * u_y."""
        return self.multiply(x, y).coeff(l)

    # -- products -----------------------------------------------------

    def vector(self, key: Key) -> HallVector:
        return HallVector(self.q, {key: HallValue.one(self.q)})

    def unit(self) -> HallVector:
        return self.vector(self.oracle.zero_key)

    def multiply(self, x: Key, y: Key) -> HallVector:
        """u_x * u_y as a combination of classes.

        The support is exactly the set of cones of morphisms from y
        shifted back once into x; the zero morphism contributes the
        direct sum, so the product of nonzero classes is never zero.
        Every coefficient is read off the same fiber counts, with the
        part of the exponent and the denominator that do not depend on
        the cone computed once.
        """
        k = (x, y)
        hit = self._mult_cache.get(k)
        if hit is None:
            o = self.oracle
            q = self.q
            brace = o.brace_exponent
            base = -brace(x, x) - brace(y, y) - brace(y, x) - 2 * o.hom_dim(y, x)
            den = o.aut_order(x) * o.aut_order(y)
            coeffs: Dict[Key, HallValue] = {}
            for l, count in o.fiber_counts(o.shift_key(y, -1), x).items():
                half, odd = divmod(base + brace(l, l), 2)  # floor division
                num = count * o.aut_order(l)
                ratio = Fraction(num * q**half, den) if half >= 0 else Fraction(num, den * q**-half)
                value = HallValue(0, ratio, q) if odd else HallValue(ratio, 0, q)
                if value.monomial_exponent() is None:
                    raise AssertionError(f"structure constant {value} is not a monomial in sqrt(q)")
                coeffs[l] = value
            self._mult_cache[k] = hit = HallVector(q, coeffs)
        return hit

    def multiply_vectors(self, a: HallVector, b: HallVector) -> HallVector:
        """a * b, every term added into one dict; a pair whose scalar
        is 1 adds its product's coefficients unscaled."""
        out: Dict[Key, HallValue] = {}
        for kx, vx in a.items():
            for ky, vy in b.items():
                c = vx if _is_one(vy) else vy if _is_one(vx) else vx * vy
                terms = self.multiply(kx, ky).coeffs.items()
                if not _is_one(c):
                    terms = [(l, v * c) for l, v in terms]
                for l, v in terms:
                    w = out.get(l)
                    out[l] = v if w is None else w + v
        return HallVector(self.q, out)

    # -- straightening into ordered products --------------------------

    def pbw_expand(self, key: Key) -> PBWExpression:
        """Write u_key as a combination of ordered products of
        pure-shift layer generators, highest shift first.

        Products of the shifted layers reproduce u_key up to correction
        terms supported on strictly smaller objects (kernel and
        cokernel of a module map eat into the shift-0 and top layers),
        so the expansion recurses and terminates.
        """
        hit = self._pbw_cache.get(key)
        if hit is not None:
            return hit
        if key in self._pbw_active:
            raise RuntimeError(f"straightening cycled on {key!r}")
        self._pbw_active.add(key)
        try:
            comps = self.oracle.components(key)
            factors = tuple(comps[s] for s in range(self.t - 1, -1, -1))
            prod = self.unit()
            for s in range(self.t - 1, -1, -1):
                prod = self.multiply_vectors(prod, self.vector(self.oracle.shift_key(comps[s], s)))
            lead = prod.coeff(key)
            if lead.is_zero():
                raise RuntimeError(f"straightening lost its leading term on {key!r}")
            inv = HallValue.one(self.q) / lead
            expr = PBWExpression(self.q)
            expr.add_term(factors, inv)
            for other, coeff in prod.items():
                if other == key:
                    continue
                expr.combine(self.pbw_expand(other), -(coeff * inv))
            self._pbw_cache[key] = expr
            return expr
        finally:
            self._pbw_active.discard(key)


def _is_one(v: HallValue) -> bool:
    return v.a == 1 and not v.b
