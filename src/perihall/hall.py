"""Hall algebra of a periodic triangulated category, exactly.

Structure constants live in Q adjoined a square root of q. The product
u_x * u_y is read off one enumeration: the morphisms y[-1] -> x grouped
by the class l of their cone. This is the Riedtmann-type form of the
derived Hall number (Toen, math/0501343; Xiao-Xu, "Hall algebras
associated to triangulated categories", math/0608144):

    F_xy^l = |Hom(y[-1], x)_l| * |Aut l| / (|Aut x| |Aut y|) * q^(k/2),
    k = {l,l} - {x,x} - {y,y} - {y,x} - 2 hom(y, x),

where hom is a hom dimension and {a,b} the brace exponent: the e with
q^e equal to the alternating product of the hom sizes |Hom(a[i], b)|,
i from 1 to the period, signs starting at -1.

The formula lives here, in :meth:`HallEngine.multiply`; the scalars it
reads come from the oracle in one call per product,
``product_terms(x, y)``: hom(y, x), {y, x}, |Aut| and {.,.} of each
operand, and per cone l its fiber count, |Aut l| and {l,l}, the cones
sorted by key. Each oracle answers from its own tables, in one walk
over the two keys (:meth:`perihall.category.PeriodicContext.product_terms`)
or from closed forms (:class:`perihall.semisimple.SemisimplePeriodic`).
The product computes the cone-free part of k and |Aut x| |Aut y| once
and builds each constant from ints with
:meth:`perihall.sqrtq.HallValue.monomial`, which folds sqrt(q) when q
is a perfect square. :func:`perihall.checks.multiply_by_scalars`
composes the same product from the oracle's one-at-a-time scalars
(``hom_dim``, ``brace_exponent``, ``aut_order``, ``fiber_counts``), and
:func:`perihall.checks.brace_exponent_by_shifts` takes the alternating
sum literally. The dual counts, which fiber Hom(x, l) or Hom(l, y)
instead, live in :mod:`perihall.checks` and are compared there.

Sums of products work on coefficient dicts: ``multiply_vectors``,
``HallEngine.layer_product`` and ``PBWExpression.evaluate`` add every
scaled term into one dict, in the operands' insertion order, and build
one vector at the end. Vector equality compares dicts and every printer
sorts, so the order changes no value. ``layer_product`` folds a PBW
term's generator keys from the left, one ``multiply`` per accumulated
term and next generator, with no vector in between; it is computed
once per factor tuple, and ``pbw_expand`` and ``evaluate`` share it.
``pbw_expand`` reads the product's dict once: an object with one
nonzero layer is its own generator, a product of one term with
coefficient 1, so it divides nothing and recurses nowhere.

The engine is generic over the category: anything exposing the oracle
surface (:class:`CategoryOracle`) can be multiplied; the period is the
oracle's odd ``t``. The quiver category, at
:attr:`perihall.category.PeriodicContext.t`, is the main instance;
tests run it and a semisimple one at t = 3, 5 and 7. Its morphism
counts, and so its products, are served only for quivers of type A
(disjoint unions of paths); on any other quiver
:func:`perihall.checks.fiber_counts_literal` counts the fibers.
"""

from __future__ import annotations

import functools
from typing import Dict, Hashable, List, Optional, Protocol, Sequence, Tuple

from .sqrtq import HallValue

__all__ = ["CategoryOracle", "HallVector", "PBWExpression", "HallEngine"]

Key = Hashable


class CategoryOracle(Protocol):
    """What the engine asks a category for to compute its Hall algebra:
    the period, the field size, object keys with their zero and shifts,
    the per-shift layers that PBW straightening splits a key into, and
    per product the scalars of one ``product_terms`` call.
    The Riedtmann formula that combines those scalars lives in
    :meth:`HallEngine.multiply`, not in the oracle. The harnesses read
    further methods of the oracles (``hom_dim``, ``brace_exponent``,
    ``aut_order``, ``fiber_counts``); the engine does not."""

    t: int

    @property
    def q(self) -> int: ...

    @property
    def zero_key(self) -> Key: ...

    def shift_key(self, key: Key, n: int = 1) -> Key: ...

    def components(self, key: Key) -> Tuple[Key, ...]:
        """The t per-shift module layers, layer s at index s, each as a
        key concentrated at shift 0."""
        ...

    def product_terms(
        self, x: Key, y: Key
    ) -> Tuple[int, int, Tuple[int, int], Tuple[int, int], Sequence[Tuple[Key, int, int, int]]]:
        """hom(y, x), {y, x}, (|Aut x|, {x, x}), (|Aut y|, {y, y}), and
        per cone l of the morphisms y[-1] -> x, sorted by key,
        (l, number of morphisms, |Aut l|, {l, l}): each cone once, with
        a positive count."""
        ...


class HallVector:
    """A finite linear combination of object classes."""

    __slots__ = ("q", "coeffs")

    def __init__(self, q: int, coeffs: Optional[Dict[Key, HallValue]] = None):
        self.q = q
        self.coeffs: Dict[Key, HallValue] = {}
        if coeffs:
            for k, v in coeffs.items():
                if v.n or v.m:
                    self.coeffs[k] = v

    def coeff(self, key: Key) -> HallValue:
        v = self.coeffs.get(key)
        return _zero(self.q) if v is None else v

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
        """The combination in the Hall algebra: each term's cached
        :meth:`HallEngine.layer_product`, scaled and added into one
        dict."""
        out: Dict[Key, HallValue] = {}
        for factors, coeff in self.terms.items():
            _add_scaled(out, engine.layer_product(factors).coeffs, coeff)
        return HallVector(self.q, out)

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
        self.q = oracle.q
        if not isinstance(oracle.t, int) or oracle.t % 2 == 0 or oracle.t < 3:
            raise ValueError(f"the period must be an odd number at least 3, got t = {oracle.t}")
        self._one = HallValue.one(self.q)
        self._mult_cache: Dict[Tuple[Key, Key], HallVector] = {}
        self._layer_cache: Dict[Tuple[Key, ...], HallVector] = {}
        self._pbw_cache: Dict[Key, PBWExpression] = {}
        self._pbw_active: set = set()

    @property
    def t(self) -> int:
        """The period, read off the oracle; the engine keeps no copy."""
        return self.oracle.t

    def hall_number(self, x: Key, y: Key, l: Key) -> HallValue:
        """The structure constant of u_l in u_x * u_y."""
        return self.multiply(x, y).coeff(l)

    # -- products -----------------------------------------------------

    def vector(self, key: Key) -> HallVector:
        return HallVector(self.q, {key: self._one})

    def unit(self) -> HallVector:
        return self.vector(self.oracle.zero_key)

    def multiply(self, x: Key, y: Key) -> HallVector:
        """u_x * u_y as a combination of classes.

        The support is exactly the set of cones of morphisms from y
        shifted back once into x; the zero morphism contributes the
        direct sum, so the product of nonzero classes is never zero.
        Every scalar comes from one ``product_terms`` call on a cold
        product; the part of the exponent and the denominator that do
        not depend on the cone are computed once. Each coefficient is a
        nonzero monomial, count * |Aut l| / (|Aut x| |Aut y|) times a
        power of sqrt(q) (:meth:`perihall.sqrtq.HallValue.monomial`
        returns one on every path), and the cones are distinct, so
        the vector takes the dict as built, with no zero to filter
        (:func:`_vector`). Memoized per pair.
        """
        k = (x, y)
        hit = self._mult_cache.get(k)
        if hit is None:
            q = self.q
            hom, brace, (aut_x, brace_x), (aut_y, brace_y), cones = self.oracle.product_terms(x, y)
            base = -brace_x - brace_y - brace - 2 * hom
            den = aut_x * aut_y
            coeffs: Dict[Key, HallValue] = {}
            for l, count, aut, brace_l in cones:
                coeffs[l] = HallValue.monomial(count * aut, den, base + brace_l, q)
            self._mult_cache[k] = hit = _vector(q, coeffs)
        return hit

    def multiply_vectors(self, a: HallVector, b: HallVector) -> HallVector:
        """a * b, every term added into one dict; a pair whose scalar
        is 1 adds its product's coefficients unscaled."""
        out: Dict[Key, HallValue] = {}
        for kx, vx in a.coeffs.items():
            for ky, vy in b.coeffs.items():
                c = vx if _is_one(vy) else vy if _is_one(vx) else vx * vy
                _add_scaled(out, self.multiply(kx, ky).coeffs, c)
        return HallVector(self.q, out)

    # -- straightening into ordered products --------------------------

    def layer_product(self, factors: Tuple[Key, ...]) -> HallVector:
        """The ordered product of the shifted layer generators of a PBW
        term, ``factors[i]`` at shift t - 1 - i, highest shift first.

        The generator keys are folded from the left into one coefficient
        dict: it starts at {g_0: 1}, and each next generator g replaces
        it by the sum of c * (u_k * u_g) over its terms (k, c), one
        ``multiply`` per term, so no vector is built until the end. Zero
        layers are skipped, since u_0 is exactly the unit (u_0 * u_y and
        u_y * u_0 have k = 0 and the fiber {y: 1}), and a term with no
        generator left is the unit. Every structure constant is a
        positive monomial, so no term of the fold cancels. On the quiver
        categories the top layers of a PBW term multiply to one object
        and only the shift-0 generator spreads the sum, so a term costs
        one ``multiply`` per generator after the first. Cached per
        factor tuple, so ``pbw_expand`` and ``PBWExpression.evaluate``
        share each product."""
        hit = self._layer_cache.get(factors)
        if hit is None:
            o = self.oracle
            zero = o.zero_key
            gens = [o.shift_key(layer, s) for s, layer in zip(range(self.t - 1, -1, -1), factors) if layer != zero]
            acc = {gens[0] if gens else zero: self._one}
            for g in gens[1:]:
                out: Dict[Key, HallValue] = {}
                for k, c in acc.items():
                    _add_scaled(out, self.multiply(k, g).coeffs, c)
                acc = out
            self._layer_cache[factors] = hit = HallVector(self.q, acc)
        return hit

    def pbw_expand(self, key: Key) -> PBWExpression:
        """Write u_key as a combination of ordered products of
        pure-shift layer generators, highest shift first.

        Products of the shifted layers reproduce u_key up to correction
        terms supported on strictly smaller objects (kernel and
        cokernel of a module map eat into the shift-0 and top layers),
        so the expansion recurses, in key order, and terminates. A
        product with one term, such as the single generator of an
        object with one nonzero layer, is u_key itself and needs no
        correction; only a key being corrected is marked, to catch a
        cycle.
        """
        hit = self._pbw_cache.get(key)
        if hit is None:
            factors = self.oracle.components(key)[::-1]
            coeffs = self.layer_product(factors).coeffs
            lead = coeffs.get(key)
            if lead is None:
                raise RuntimeError(f"straightening lost its leading term on {key!r}")
            one = self._one
            inv = one if _is_one(lead) else one / lead
            hit = PBWExpression(self.q, {factors: inv})
            if len(coeffs) > 1:
                active = self._pbw_active
                if key in active:
                    raise RuntimeError(f"straightening cycled on {key!r}")
                active.add(key)
                try:
                    for other in sorted(coeffs):
                        if other != key:
                            hit.combine(self.pbw_expand(other), -(coeffs[other] * inv))
                finally:
                    active.discard(key)
            self._pbw_cache[key] = hit
        return hit


_alloc = object.__new__


def _vector(q: int, coeffs: Dict[Key, HallValue]) -> HallVector:
    """The vector with these coefficients, every one nonzero, taken as
    they are: :class:`HallVector` itself drops zeros."""
    v = _alloc(HallVector)
    v.q = q
    v.coeffs = coeffs
    return v


def _is_one(v: HallValue) -> bool:
    return v.n == 1 and v.d == 1 and not v.m


def _add_scaled(out: Dict[Key, HallValue], coeffs: Dict[Key, HallValue], c: HallValue) -> None:
    """Add c times each coefficient into ``out``, skipping the scaling
    when c is 1."""
    terms = coeffs.items()
    if not _is_one(c):
        terms = [(l, v * c) for l, v in terms]
    for l, v in terms:
        w = out.get(l)
        out[l] = v if w is None else w + v


@functools.lru_cache(maxsize=None)
def _zero(q: int) -> HallValue:
    """The zero of Q(sqrt q) that every vector hands out; values are
    never mutated, so one per q is shared."""
    return HallValue.zero(q)
