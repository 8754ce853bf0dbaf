"""The t-periodic category of a quiver, computed from module data. The
period is :attr:`PeriodicContext.t`, a constructor argument checked to
be odd and at least 3, ``PERIOD`` = 3 by default. It is the one period
of everything built over the context: the engine, the chain-level model
of :mod:`perihall.periodic` and every harness read it (the tests run
t = 3, 5 and 7).

Objects here are finite multisets of (indecomposable class, shift)
pairs; every t-periodic complex of projectives is isomorphic to the sum
of its shifted homology, so it normalizes to one. By Krull-Schmidt a
module placed at one shift is its Krull-Schmidt type, the multiset of
its summand class ids, each tagged with the shift
(:func:`perihall.checks.module_key` decomposes a module to find it).
``objects`` reads the type of each module of the bound once, off
:meth:`perihall.reps.RepContext.module_types`, and joins one tagged type
per shift, yielding the objects lazily by total dimension: only one
dimension's objects are built and sorted at a time, so a graded prefix
of a scope with (module types)^t objects costs what its dimensions hold.
``enumerate_objects`` is the whole list. Those types are generated from
the interval modules of a quiver of type A, with no module enumerated or
decomposed; any other quiver is refused.

Morphisms are module data. By the covering formula,
Hom((a, s_a), (b, s_b)) is Hom(a, b), Ext^1(a, b) or 0 at the shift
residue r = (s_b - s_a) mod t of 0, 1 or any other
(``_covering_table``), and Hom between two objects is the sum of these
blocks over their pairs of parts. Bases and compositions come from
Ringel's exact sequence for the two classes
(:class:`perihall.reps.HomExt`, one record per module pair, cached by the
:class:`perihall.reps.RepContext` and shared by the contexts of every
period over it): Hom is ker delta and Ext^1 coker delta, maps compose,
a map acts on an Ext^1 class from either side arrow by arrow, and Ext^1
after Ext^1 lands in Ext^2 = 0. The context counts
morphisms by the class of their cone, and counts automorphisms as the
units of the finite algebra End(x), the same Krull-Schmidt unit count
:func:`perihall.checks.module_aut_order` applies to modules. No cycle
complex is built here: :mod:`perihall.periodic` realizes objects as
complexes of wrapped resolutions, and the harnesses recount against it,
:func:`perihall.checks.aut_order_by_enumeration` for instance. The
module helpers only that model needs (summand maps, projectives) live
in :mod:`perihall.periodic` too, its homology is one
:meth:`perihall.reps.RepContext.subquotient` per slot, and the
harness-only ones (module automorphism counts, matrix inverses) in
:mod:`perihall.checks`; ``hom_space`` stays here while the benchmark
traces it.

The scalars ``hom_dim``, ``brace_exponent`` and ``aut_order`` never
build a module. They read one cached entry per pair of distinct parts
(class id, shift): the pair's hom dimension and its brace share
beta(r), both linear in the (dim Hom, dim Ext^1) of the two classes,
the lengths of their Ringel bases, with coefficients from two
per-residue tables. The runs of equal parts of each key are cached too
and weigh the entries by multiplicity. One walk over the part pairs of
two keys gives both (hom, brace), cached per key pair, so a product's
base exponent, End's dimension in ``aut_order`` and each cone's {l,l}
share one record. ``aut_order`` also reads each class's residue
degree, cached per class id: 1 for a brick (End one-dimensional, so
End = F_q), which every indecomposable of a quiver of type A is, and
only otherwise counted by enumerating End.
:func:`perihall.checks.aut_order_by_layers` builds the layers.

The brace exponent {x,y} = -hom(x[1], y) + hom(x[2], y) - ... - hom(x[t], y),
the alternating sum over one period, is bilinear, so it is a sum
over pairs of parts (a, s_a) of x and (b, s_b) of y. The covering
formula gives hom((a, s_a), (b, s_b)) as hom_r with r = (s_b - s_a)
mod t, where hom_0 = Hom(a, b), hom_1 = Ext^1(a, b) and every other
hom_r = 0 (``_covering_table``). Shifting a by i moves the residue to
r - i, so one pair contributes

    beta_t(r) = sum over i from 1 to t of (-1)^i hom_{(r - i) mod t},

built once per t as one (Hom coefficient, Ext^1 coefficient) pair per
residue (``_brace_table``). At t = 3 that is Ext^1 - Hom at r = 0,
-(Hom + Ext^1) at r = 1 and Hom - Ext^1 at r = 2.
:func:`perihall.checks.brace_exponent_by_shifts` takes the alternating
sum of ``hom_dim`` literally.

Cones are classified without being built. The test objects T are the
pairs (indecomposable class, shift). For a morphism f: x -> m with cone
C, the long exact Hom sequence of x -> m -> C -> x[1] gives

    dim Hom(T, C) = hom(T, m) - rk Hom(T, f) + hom(T[-1], x) - rk Hom(T[-1], f),

and by Auslander's theorem this hom vector fixes C: it is H times the
multiplicity vector of C, where H[T][U] = hom_dim(T, U) is invertible
(:class:`HomVectors`). H is inverted once per context, in integers:
fraction-free elimination gives the adjugate and the determinant, and
H^-1 is adjugate over determinant reduced to its least common
denominator (2 on type A from A2 on). The ``Fraction`` Gauss-Jordan
recipe stays in :mod:`perihall.checks`, pinned against this one.

The period must be odd for this. By the covering formula H is
Hom + Ext^1 (x) P, with P the cyclic shift of the t residues, so det H
is the product of det(Hom + z Ext^1) over the t-th roots of unity z.
At an even t the root z = -1 gives Hom - Ext^1, the Euler form on the
indecomposables, which factors through dimension vectors and is
singular once there are more indecomposables than vertices (A2 on); an
odd t has no root -1.

The ranks come from the composition tensor
Hom(T, a) x Hom(a, b) -> Hom(T, b), built from module bases, whose
nonzero entries are cached once per triple of classes and pair of
residues; :func:`perihall.checks.composition_by_chains` builds it from
chain maps modulo homotopy. Listing every
indecomposable needs a quiver of type A (a disjoint union of paths),
where they are the interval modules
(:meth:`perihall.reps.RepContext.indecomposable_ids`); any other quiver
is refused. Morphisms are counted one orbit of the
scalar action at a time: the zero morphism x -> m has cone x[1] + m,
read off the keys, and cone(c f) is isomorphic to cone(f) for c in
F_q^*, so one rank profile is computed per line of Hom(x, m) and
counted with weight q - 1. A part of x or m with no nonzero Hom block
to the other side adds only zero rows and columns to every Hom(T, f):
with x' and m' the active sub-keys, the parts that have such a block,
and x'' and m'' the rest, a morphism is f' + 0 with f': x' -> m', and
the cone of a direct sum of morphisms is the sum of their cones, so
cone(f) = cone(f') + x''[1] + m''. One walk over the lines of
Hom(x', m') counts its profiles, each decoded once into cone(f'); these
cones are stored per (x', m') and every call adds its inactive parts to
them. The translation functor is a triangle autoequivalence, so
cone(f[k]) = cone(f)[k]: active sub-keys whose least shift s0 is not 0
read the cones of their translate by -s0, shifted back by s0. That
translate wraps no shift, so the order of the parts, of the Hom blocks
and of the lines is kept. A one-dimensional Hom has one active part on
each side.
:func:`perihall.checks.cone_key_literal` builds and reduces a cone, and
:func:`perihall.checks.fiber_counts_literal` classifies every morphism
that way.

Keys are plain sorted tuples, one (class_id, shift) entry per
indecomposable summand, so they hash and compare cheaply and the empty
tuple is the zero object.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from .gfp import rank_rows, unit_group_order
from .reps import BudgetExceeded, HomExt, RepContext

if TYPE_CHECKING:
    from .periodic import HomSpace

__all__ = ["PERIOD", "ObjKey", "PeriodicContext", "HomVectors"]

PERIOD = 3

ObjKey = Tuple[Tuple[int, int], ...]
Part = Tuple[int, int]


class HomVectors:
    """The test objects, their hom matrix, and the decode of cones.

    The test objects are the pairs (indecomposable class, shift), in
    sorted order. The hom vector of an object x, dim Hom(T, x) for each
    test object T, is H times the multiplicity vector of x, where
    H[T][U] = hom_dim(T, U), read off the cached part-pair table.
    Auslander's theorem makes H invertible at an odd period (module
    docstring); H^-1 = inverse / denominator, with ``inverse`` an
    integer matrix and ``denominator`` the least common denominator of
    H^-1, both found in integers (:func:`_integer_inverse`).
    """

    def __init__(self, pctx: "PeriodicContext", ids: Sequence[int]):
        self.parts: Tuple[Part, ...] = tuple((cid, s) for cid in sorted(ids) for s in range(pctx.t))
        self.index: Dict[Part, int] = {part: t for t, part in enumerate(self.parts)}
        n = len(self.parts)
        self.matrix = [[pctx._part_pair(t, u)[0] for u in self.parts] for t in self.parts]
        self.inverse, self.denominator = _integer_inverse(self.matrix)
        # the test objects T with Hom(T, U) != 0, per U
        self.sees = [frozenset(t for t in range(n) if self.matrix[t][u]) for u in range(n)]
        # the numerators of the multiplicities lost when the hom vector
        # drops by one at T and at T[1]
        nxt = [self.index[(cid, (s + 1) % pctx.t)] for cid, s in self.parts]
        self._drops = []
        for t in range(n):
            col = [self.inverse[u][t] + self.inverse[u][nxt[t]] for u in range(n)]
            self._drops.append([(u, w) for u, w in enumerate(col) if w])

    def cone_key(self, zero: ObjKey, ranks: Sequence[Tuple[int, int]]) -> ObjKey:
        """The key of the cone C of a morphism f: x -> m, from the key
        x[1] + m of the zero morphism's cone and the nonzero ranks r_T of
        Hom(T, f), as (index of T, r_T) pairs: dim Hom(T, C) is
        dim Hom(T, x[1] + m) - r_T - r_{T[-1]}. Every multiplicity must
        come out a nonnegative integer. The engine calls it once per rank
        profile of each active pair it builds
        (:meth:`PeriodicContext._active_cones`), never per fiber call."""
        d = self.denominator
        num: Dict[int, int] = {}
        for part in zero:
            u = self.index[part]
            num[u] = num.get(u, 0) + d
        for t, r in ranks:
            for u, w in self._drops[t]:
                num[u] = num.get(u, 0) - r * w
        key: List[Part] = []
        for u in sorted(num):
            mult, rest = divmod(num[u], d)
            if rest or mult < 0:
                raise AssertionError(
                    f"cone of rank profile {list(ranks)} has multiplicity {num[u]}/{d} of {self.parts[u]}"
                )
            key.extend([self.parts[u]] * mult)
        return tuple(key)


class PeriodicContext:
    """Object, morphism, and counting services for one quiver and prime,
    at the odd period ``t``."""

    def __init__(self, ctx: RepContext, t: int = PERIOD):
        if not isinstance(t, int) or t % 2 == 0 or t < 3:
            raise ValueError(f"the period must be an odd number at least 3, got t = {t}")
        self.ctx = ctx
        self.t = t
        self._aut_cache: Dict[ObjKey, int] = {}
        self._brace_cache: Dict[Tuple[ObjKey, ObjKey], Tuple[int, int]] = {}
        self._part_pairs: Dict[Tuple[Part, Part], Tuple[int, int]] = {}
        self._cones: Dict[Tuple[ObjKey, ObjKey], Dict[ObjKey, int]] = {}
        self._runs_cache: Dict[ObjKey, List[Tuple[Part, int]]] = {}
        self._residue_cache: Dict[int, int] = {}
        self._compose_cache: Dict[Tuple[int, int, int, int, int], Tuple[Tuple[int, int, int, int], ...]] = {}
        self._hom_vectors: Optional[HomVectors] = None

    @property
    def q(self) -> int:
        return self.ctx.field.p

    @property
    def zero_key(self) -> ObjKey:
        return ()

    # -- object keys --------------------------------------------------

    def shift_key(self, key: ObjKey, n: int = 1) -> ObjKey:
        t = self.t
        return tuple(sorted([(cid, (s + n) % t) for cid, s in key]))

    def direct_sum_key(self, *keys: ObjKey) -> ObjKey:
        merged: List[Tuple[int, int]] = []
        for k in keys:
            merged.extend(k)
        return tuple(sorted(merged))

    def components(self, key: ObjKey) -> Tuple[ObjKey, ...]:
        """Split an object into its t pure-shift module layers, each
        returned as an object key concentrated at shift 0."""
        layers: List[List[Part]] = [[] for _ in range(self.t)]
        for cid, s in key:
            layers[s].append((cid, 0))
        return tuple(map(tuple, layers))

    def total_dim(self, key: ObjKey) -> int:
        return sum(self.ctx.class_rep(cid).total_dim for cid, _ in key)

    def format_key(self, key: ObjKey) -> str:
        if not key:
            return "0"
        names = []
        for cid, s in key:
            dims = ",".join(str(d) for d in self.ctx.class_rep(cid).dims)
            name = f"c{cid}({dims})"
            if s:
                name += f"[{s}]"
            names.append(name)
        return " + ".join(names)

    def objects(self, bound: Sequence[int]) -> Iterator[ObjKey]:
        """All objects whose shift-s layer has dimension vector at most
        ``bound`` for each s, yielded lazily by total dimension, then key.

        Each module of the bound is read once, as its total dimension and
        Krull-Schmidt type (:meth:`perihall.reps.RepContext.module_types`,
        generated from the interval modules of a quiver of type A; any
        other quiver raises ``NotImplementedError``); an object is one type
        per shift, tagged with the shift, and distinct modules have
        distinct types. The objects of total dimension D join a type of
        dimension d at shift s to the parts of dimension D - d at the
        shifts above s, kept per shift and dimension only as far as D;
        only the objects of one dimension are sorted at a time, so a
        graded prefix costs what its dimensions hold.
        :func:`perihall.checks.enumerate_objects_by_product` builds and
        sorts every object at once."""
        t = self.t
        grouped: List[List[Tuple[int, ...]]] = []
        for d, ids in self.ctx.module_types(bound):
            while len(grouped) <= d:
                grouped.append([])
            grouped[d].append(ids)
        top = len(grouped) - 1
        # layers[s][d]: the types of total dimension d, tagged with shift s
        layers: List[List[List[ObjKey]]] = []
        for s in range(t):
            shift, layer = itertools.repeat(s), []
            for types in grouped:
                tagged = []
                for ids in types:
                    tagged.append(tuple(zip(ids, shift)))
                layer.append(tagged)
            layers.append(layer)
        # rows[s][D]: the parts at shifts s..t-1 of total dimension D,
        # unsorted. Dimension 0 holds the zero object alone, the top
        # shift's rows are its layer, and the rows of shift 0 are yielded
        # and dropped
        rows: List[List[List[ObjKey]]] = [[[()]] for _ in range(t - 1)]
        rows.append(layers[-1])
        yield ()
        downward = range(t - 2, -1, -1)
        for D in range(1, top * t + 1):
            hi = (D if D < top else top) + 1
            for s in downward:
                below, layer, row = rows[s + 1], layers[s], []
                # the shifts above s hold at most top each
                lo = D - top * (t - 1 - s)
                for d in range(lo if lo > 0 else 0, hi):
                    rest = below[D - d]
                    for a in layer[d]:
                        for b in rest:
                            row.append(a + b)
                if s:
                    rows[s].append(row)
            yield from sorted(map(tuple, map(sorted, row)))

    def enumerate_objects(self, bound: Sequence[int]) -> List[ObjKey]:
        """Every object of :meth:`objects`, in its order, as a list."""
        return list(self.objects(bound))

    # -- morphisms ----------------------------------------------------

    def hom_space(self, x: ObjKey, y: ObjKey) -> HomSpace:
        """Hom(x, y) recounted at chain level: the
        :class:`perihall.periodic.HomSpace` of chain maps modulo homotopy
        between the objects realized as t-periodic complexes, at this
        context's t, built afresh per call. The engine never calls it;
        ``hom_dim`` gives the same dimension."""
        # imported here, off the engine's import graph, for the perfbench End-dimension check
        from .periodic import ChainModel

        return ChainModel(self).hom_space(x, y)

    def _class_pair(self, a: int, b: int) -> Tuple[int, int]:
        """(dim Hom, dim Ext^1) from the class with id a to the class
        with id b: the lengths of the bases of :meth:`_hom_ext`, so the
        rank forms and the composition tensors read one record."""
        he = self._hom_ext(a, b)
        return len(he.hom), he.ext_dim

    def _part_pair(self, a: Part, b: Part) -> Tuple[int, int]:
        """(dim Hom(a, b), beta(r)) for two parts, at their shift residue
        r = (s_b - s_a) mod t: the covering table picks Hom, Ext^1 or 0
        for the first and the brace table weighs them for the second
        (module docstring). Cached per part pair."""
        k = (a, b)
        hit = self._part_pairs.get(k)
        if hit is None:
            hom, ext = self._class_pair(a[0], b[0])
            r = (b[1] - a[1]) % self.t
            (h0, e0), (h1, e1) = _covering_table(self.t)[r], _brace_table(self.t)[r]
            self._part_pairs[k] = hit = (h0 * hom + e0 * ext, h1 * hom + e1 * ext)
        return hit

    def _runs(self, key: ObjKey) -> List[Tuple[Part, int]]:
        """Each distinct part of a sorted key with the number of times it
        occurs, cached per key."""
        hit = self._runs_cache.get(key)
        if hit is None:
            self._runs_cache[key] = hit = [(part, len(list(run))) for part, run in itertools.groupby(key)]
        return hit

    def _hom_brace(self, x: ObjKey, y: ObjKey) -> Tuple[int, int]:
        """(hom_dim(x, y), brace_exponent(x, y)) in one walk over the
        pairs of distinct parts, each weighing its part-pair entry by
        the multiplicities. Cached per key pair."""
        pairs = self._part_pairs
        ys = self._runs(y)
        hom = brace = 0
        for a, ma in self._runs(x):
            for b, mb in ys:
                h, e = pairs.get((a, b)) or self._part_pair(a, b)
                hom += ma * mb * h
                brace += ma * mb * e
        self._brace_cache[(x, y)] = hit = (hom, brace)
        return hit

    def hom_dim(self, x: ObjKey, y: ObjKey) -> int:
        """Covering formula: summand pairs contribute their module hom,
        their extension space, or nothing, by shift residue; read off the
        key pair's cached (hom, brace) record."""
        return (self._brace_cache.get((x, y)) or self._hom_brace(x, y))[0]

    def brace_exponent(self, x: ObjKey, y: ObjKey) -> int:
        """{x,y}: e with q**e equal to the alternating product of
        |Hom(x[i], y)| over i from 1 to t, signs starting at -1, summed
        over part pairs of beta(r) from the brace table (module
        docstring); read off the key pair's cached (hom, brace) record."""
        return (self._brace_cache.get((x, y)) or self._hom_brace(x, y))[1]

    def check_budget(self, x: ObjKey, y: ObjKey, dim: int) -> None:
        """Refuse to walk the q**dim morphism classes x -> y beyond the
        context's ``enum_cap``, naming both objects."""
        limit = self.ctx.enum_cap
        if self.q**dim > limit:
            raise BudgetExceeded(
                f"{self.q**dim} morphism classes {self.format_key(x)} -> {self.format_key(y)} exceed cap {limit}"
            )

    def hom_vectors(self) -> HomVectors:
        """The test objects and the decode of hom vectors, built once.

        The test objects are read off
        :meth:`perihall.reps.RepContext.indecomposable_ids`, the interval
        modules of a quiver of type A, registered once per context; any
        other quiver raises ``NotImplementedError``."""
        if self._hom_vectors is None:
            self._hom_vectors = HomVectors(self, self.ctx.indecomposable_ids())
        return self._hom_vectors

    def _hom_ext(self, a: int, b: int) -> HomExt:
        """Hom and Ext^1 from the class with id a to the class with id b:
        :meth:`perihall.reps.RepContext.hom_ext` of their representatives,
        one record per module pair, shared by every context over ``ctx``."""
        return self.ctx.hom_ext(self.ctx.class_rep(a), self.ctx.class_rep(b))

    def _composition(self, t: Part, a: Part, b: Part) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
        """The composition Hom(t, a) x Hom(a, b) -> Hom(t, b) in module
        coordinates: entry [u][k] is the coordinate vector of basis map u
        of Hom(t, a) followed by basis map k of Hom(a, b).

        By the covering formula a Hom space between parts is the module
        Hom at shift residue 0, Ext^1 at residue 1 and 0 at any residue
        other than 0 and 1, with the bases of
        :class:`perihall.reps.HomExt`. The residues (r_ta, r_ab) pick the
        composition: Hom after Hom composes the maps, a map followed by
        an Ext^1 class pulls the class back along it, an Ext^1 class
        followed by a map pushes it forward, and Ext^1 after Ext^1 lands
        in Ext^2 = 0. Built afresh per call; the engine reads its
        nonzero entries off :meth:`_composition_terms`."""
        (ct, st), (ca, sa), (cb, sb) = t, a, b
        r_ta, r_ab = (sa - st) % self.t, (sb - sa) % self.t
        ta, ab, tb = self._hom_ext(ct, ca), self._hom_ext(ca, cb), self._hom_ext(ct, cb)
        if (r_ta, r_ab) == (0, 0):
            return tuple(tuple(tb.hom_coords(f.then(g)) for g in ab.hom) for f in ta.hom)
        if (r_ta, r_ab) == (0, 1):
            return tuple(tuple(tb.ext_coords(ab.pullback(f, k)) for k in range(ab.ext_dim)) for f in ta.hom)
        if (r_ta, r_ab) == (1, 0):
            return tuple(tuple(tb.ext_coords(ta.pushforward(u, g)) for g in ab.hom) for u in range(ta.ext_dim))
        # Ext^1 after Ext^1 lands in Ext^2 = 0, and a space at any other
        # residue is 0: every entry is the empty vector
        return (((),) * self._part_pair(a, b)[0],) * self._part_pair(t, a)[0]

    def _composition_terms(self, t: Part, a: Part, b: Part) -> Tuple[Tuple[int, int, int, int], ...]:
        """The nonzero entries (u, k, v, value) of :meth:`_composition`:
        coordinate v of basis map u of Hom(t, a) followed by basis map k
        of Hom(a, b). Cached once per triple of classes and residues."""
        (ct, st), (ca, sa), (cb, sb) = t, a, b
        k5 = (ct, ca, cb, (sa - st) % self.t, (sb - sa) % self.t)
        hit = self._compose_cache.get(k5)
        if hit is None:
            self._compose_cache[k5] = hit = tuple(
                (u, k, v, w)
                for u, row in enumerate(self._composition(t, a, b))
                for k, vec in enumerate(row)
                for v, w in enumerate(vec)
                if w
            )
        return hit

    def _profile_counts(self, x: ObjKey, m: ObjKey, hv: HomVectors) -> Dict[Tuple[Tuple[int, int], ...], int]:
        """The rank profiles of the morphisms x -> m, each mapped to its
        number of morphisms, in order of first appearance over the lines
        of :func:`_lines`. A profile is the (index of T, rk Hom(T, f))
        pairs with nonzero rank, one per test object T; a line counts
        q - 1 times. Every part of x and m must have a nonzero Hom block
        to the other side (:meth:`fiber_counts`). Nothing is stored:
        :meth:`_active_cones` decodes and stores the cones.

        Each Hom(T, f) is linear in the coordinates of f: its matrix is
        built per line from the terms (row, column, coordinate of f,
        coefficient) read off the cached nonzero entries of the
        composition tensors. Rows run over a basis of Hom(T, x), columns
        over one of Hom(T, m), both block by block; a T that sees no
        nonzero block of both sides has no terms and is skipped."""
        hm = hv.matrix
        xi = [hv.index[a] for a in x]
        mi = [hv.index[b] for b in m]
        offsets: List[Tuple[int, int, int]] = []
        seen = set()
        dim = 0
        for i, a in enumerate(xi):
            for j, b in enumerate(mi):
                if hm[a][b]:
                    offsets.append((i, j, dim))
                    dim += hm[a][b]
                    seen |= hv.sees[a] & hv.sees[b]
        forms = []
        for t in sorted(seen):
            trow, part = hm[t], hv.parts[t]
            row_at = list(itertools.accumulate([trow[a] for a in xi], initial=0))
            col_at = list(itertools.accumulate([trow[b] for b in mi], initial=0))
            terms = []
            for i, j, off in offsets:
                if trow[xi[i]] and trow[mi[j]]:
                    r0, c0 = row_at[i], col_at[j]
                    for u, k, v, w in self._composition_terms(part, x[i], m[j]):
                        terms.append((r0 + u, c0 + v, off + k, w))
            if terms:
                forms.append((t, row_at[-1], col_at[-1], terms))
        p = self.q
        counts: Dict[Tuple[Tuple[int, int], ...], int] = {}
        for coords in _lines(p, dim):
            profile = []
            for t, rows, cols, terms in forms:
                matrix = [[0] * cols for _ in range(rows)]
                for r, c, k, w in terms:
                    if coords[k]:
                        matrix[r][c] = (matrix[r][c] + w * coords[k]) % p
                rank = rank_rows(matrix, cols, p)
                if rank:
                    profile.append((t, rank))
            ranks = tuple(profile)
            counts[ranks] = counts.get(ranks, 0) + p - 1
        return counts

    def _active_cones(self, x: ObjKey, m: ObjKey) -> Dict[ObjKey, int]:
        """The cones of the nonzero morphisms x -> m, each mapped to its
        number of morphisms, in order of first appearance over the lines
        of :func:`_lines`. Every part of x and m must have a nonzero Hom
        block to the other side, and the least shift of their parts must
        be 0 (:meth:`fiber_counts`). Each rank profile of
        :meth:`_profile_counts` is decoded once, against the zero cone
        x[1] + m. Stored per key pair."""
        hit = self._cones.get((x, m))
        if hit is None:
            hv = self.hom_vectors()
            zero = self.direct_sum_key(self.shift_key(x, 1), m)
            hit = {}
            for ranks, count in self._profile_counts(x, m, hv).items():
                ck = hv.cone_key(zero, ranks)
                hit[ck] = hit.get(ck, 0) + count
            self._cones[(x, m)] = hit
        return hit

    def fiber_counts(self, x: ObjKey, m: ObjKey) -> Dict[ObjKey, int]:
        """How many morphisms x -> m have each cone class.

        The returned dict maps the object key of the cone to the number
        of morphisms producing it; values sum to q**hom_dim(x, m).
        The zero morphism's cone x[1] + m is read off the keys. For c in
        F_q^*, (id_x[1], c id_m) is a chain isomorphism cone(f) ->
        cone(c f), so one morphism per line, first nonzero coordinate 1,
        is classified and counts q - 1 times. The context's ``enum_cap``
        bounds q**hom_dim(x, m).

        A line f is classified by its rank profile, never built: the
        ranks of Hom(T, f) for every test object T. Its cone C has the
        hom vector

            dim Hom(T, C) = hom(T, m) - rk Hom(T, f) + hom(T[-1], x) - rk Hom(T[-1], f),

        which fixes C by Auslander's theorem; :meth:`HomVectors.cone_key`
        decodes it. The active sub-keys x' and m' are the parts of x and
        m with a nonzero Hom block to the other side, in key order; the
        inactive rest x'' and m'' only adds zero rows and columns to
        every Hom(T, f). So f = f' + 0 with f': x' -> m', and
        cone(f) = cone(f') + x''[1] + m'': each call adds its inactive
        parts to the cones of Hom(x', m'). Those cones are read off
        :meth:`_active_cones`, decoded once per active pair. The
        translation functor is a triangle autoequivalence, so
        cone(f'[s]) = cone(f')[s]: a pair whose least shift s0 is not 0
        reads the cones of its translate by -s0, shifted by s0. No part
        shift wraps on that translate, so it keeps the order of the
        parts, of the Hom blocks and of the lines; pairs related only by
        a translate that wraps keep their own entries. Only quivers of
        type A are served (see :meth:`hom_vectors`);
        :func:`perihall.checks.cone_key_literal` builds and reduces the
        cone instead.

        The dict is built afresh per call and not stored: the engine
        asks once per product, which it memoizes, and a repeated call
        only merges the cached active cones again, walking no line.
        """
        t = self.t
        zero = self.direct_sum_key(self.shift_key(x, 1), m)
        out = {zero: 1}
        dim = self.hom_dim(x, m)
        if dim:
            self.check_budget(x, m, dim)
            pairs = self._part_pairs
            ms = self._runs(m)
            on_x, on_m = set(), set()
            for a, _ in self._runs(x):
                for b, _ in ms:
                    if (pairs.get((a, b)) or self._part_pair(a, b))[0]:
                        on_x.add(a)
                        on_m.add(b)
            xa = [a for a in x if a in on_x]
            ma = [b for b in m if b in on_m]
            rest = [(cid, (s + 1) % t) for cid, s in x if (cid, s) not in on_x] + [b for b in m if b not in on_m]
            s0 = min(s for _, s in xa + ma)
            cones = self._active_cones(tuple((cid, s - s0) for cid, s in xa), tuple((cid, s - s0) for cid, s in ma))
            for cone, count in cones.items():
                ck = tuple(sorted([(cid, (s + s0) % t) for cid, s in cone] + rest))
                out[ck] = out.get(ck, 0) + count
        return out

    # -- automorphisms ------------------------------------------------

    def _residue_degree(self, cid: int) -> int:
        """dim over F_q of End(I)/rad for the indecomposable class cid,
        cached per class id. A brick, one whose End is one-dimensional
        (``_hom_ext(cid, cid)`` has one Hom basis map), has degree 1: a
        one-dimensional unital F_q-algebra is F_q itself. Only another
        class has its End enumerated, by
        :meth:`perihall.reps.RepContext.residue_field_degree`."""
        hit = self._residue_cache.get(cid)
        if hit is None:
            if len(self._hom_ext(cid, cid).hom) == 1:
                hit = 1
            else:
                hit = self.ctx.residue_field_degree(self.ctx.class_rep(cid))
            self._residue_cache[cid] = hit
        return hit

    def aut_order(self, key: ObjKey) -> int:
        """|Aut| as the unit count of the finite algebra End(key)
        (:func:`perihall.gfp.unit_group_order`): dim End is
        ``hom_dim(key, key)``, read off the key pair's (hom, brace)
        record, and by Krull-Schmidt its semisimple quotient has one
        block GL_m over the residue field of each distinct (class, shift)
        part of multiplicity m. Each residue degree is 1 for a brick,
        every indecomposable of a quiver of type A, and enumerated
        otherwise (:meth:`_residue_degree`). Cached per key;
        :func:`perihall.checks.aut_order_by_layers` builds the layers."""
        hit = self._aut_cache.get(key)
        if hit is None:
            blocks = [(m, self._residue_degree(cid)) for (cid, _), m in self._runs(key)]
            self._aut_cache[key] = hit = unit_group_order(self.q, self.hom_dim(key, key), blocks)
        return hit


@functools.lru_cache(maxsize=None)
def _covering_table(t: int) -> Tuple[Tuple[int, int], ...]:
    """The covering formula per shift residue r = (s_b - s_a) mod t:
    hom((a, s_a), (b, s_b)) = hom_r with hom_0 = Hom(a, b),
    hom_1 = Ext^1(a, b) and every other hom_r = 0, as one (Hom
    coefficient, Ext^1 coefficient) pair per r."""
    return tuple((int(r == 0), int(r == 1)) for r in range(t))


@functools.lru_cache(maxsize=None)
def _brace_table(t: int) -> Tuple[Tuple[int, int], ...]:
    """beta_t(r) = sum over i from 1 to t of (-1)^i hom_{(r - i) mod t},
    one part pair's share of the brace exponent, as one (Hom
    coefficient, Ext^1 coefficient) pair per residue r, read off
    :func:`_covering_table`."""
    cover = _covering_table(t)
    rows = []
    for r in range(t):
        hom = ext = 0
        for i in range(1, t + 1):
            h, e = cover[(r - i) % t]
            hom += (-1) ** i * h
            ext += (-1) ** i * e
        rows.append((hom, ext))
    return tuple(rows)


def _lines(q: int, dim: int) -> Iterator[Tuple[int, ...]]:
    """One nonzero vector of F_q^dim per line through the origin: the
    vectors whose first nonzero entry is 1, in lexicographic order."""
    for lead in range(dim - 1, -1, -1):
        head = (0,) * lead + (1,)
        for tail in itertools.product(range(q), repeat=dim - 1 - lead):
            yield head + tail


def _integer_inverse(matrix: Sequence[Sequence[int]]) -> Tuple[List[List[int]], int]:
    """(inverse, denominator) with matrix^-1 = inverse / denominator and
    the denominator least, all in ints; raises when the matrix is
    singular.

    Fraction-free Gauss-Jordan (Bareiss) cross-multiplies by each pivot
    and divides exactly by the previous one, so every entry stays a
    minor of the augmented matrix; it ends with d * I on the left and
    R = d * matrix^-1 on the right, d = +-det, so R is the adjugate up
    to sign. Dividing d and R by the gcd g of d and every entry of R
    leaves the least denominator |d| / g."""
    n = len(matrix)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    prev = 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if aug[r][c]), None)
        if pivot is None:
            raise AssertionError("the hom matrix of the test objects is singular; Auslander decode impossible")
        aug[c], aug[pivot] = aug[pivot], aug[c]
        prow = aug[c]
        p = prow[c]
        for r in range(n):
            if r == c:
                continue
            row = aug[r]
            f = row[c]
            if f:
                aug[r] = [(p * v - f * w) // prev for v, w in zip(row, prow)]
            elif p != prev:
                aug[r] = [p * v // prev for v in row]
        prev = p
    g = functools.reduce(math.gcd, (v for row in aug for v in row[n:]), prev)
    if prev < 0:
        g = -g
    return [[v // g for v in row[n:]] for row in aug], prev // g

