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

The scalars never build a module. Between a part of class a and a part
of class b at shift residue r, the hom dimension and the brace share
beta(r) are both linear in the (dim Hom, dim Ext^1) of the two classes,
the lengths of their Ringel bases, with coefficients from two
per-residue tables. One row per ordered pair of classes holds, at
every residue, both of them, the hom dimension one residue up and both
of the reverse pair; it is built from ``_class_pair`` both ways and
cached, so a quiver with c indecomposable classes has at most c^2 rows
of t five-entry tuples. The decode of cones (:class:`HomVectors`) reads
the same rows. The runs of equal parts of each key are cached too and
weigh the rows by multiplicity.

The engine asks for a product's scalars in one call,
:meth:`PeriodicContext.product_terms`: one walk over the part pairs of
the two operands reads one row entry per pair, which holds hom and
brace of the pair, hom one residue up and hom and brace of the reverse
pair, and each operand and cone reads one record per key, (|Aut|, hom,
brace) of the key with itself; nothing is cached per pair of keys. The
harness surface ``hom_dim``, ``brace_exponent``, ``aut_order`` and
``fiber_counts`` answers one scalar at a time from the same rows, walk
and records. |Aut| is the unit count of End, read off its dimension
and each class's residue degree, cached per class id: 1 for a brick
(End one-dimensional, so End = F_q), which every indecomposable of a
quiver of type A is, and only otherwise counted by enumerating End.
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
read the cones of their translate by -s0, shifted back by s0. A
one-dimensional Hom has one active part on each side. Fibers and
products list their cones sorted by key, so no walk order shows.
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

from .gfp import gl_order, rank_rows, unit_group_order
from .reps import HomExt, RepContext

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
    H[T][U] = hom_dim(T, U), read off the cached class-pair rows.
    Auslander's theorem makes H invertible at an odd period (module
    docstring); H^-1 = inverse / denominator, with ``inverse`` an
    integer matrix and ``denominator`` the least common denominator of
    H^-1, both found in integers (:func:`_integer_inverse`).
    """

    def __init__(self, pctx: "PeriodicContext", ids: Sequence[int]):
        self.parts: Tuple[Part, ...] = tuple((cid, s) for cid in sorted(ids) for s in range(pctx.t))
        self.index: Dict[Part, int] = {part: t for t, part in enumerate(self.parts)}
        n = len(self.parts)
        self.matrix = [[pctx._part_hom(t, u) for u in self.parts] for t in self.parts]
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
        self._records: Dict[ObjKey, Tuple[int, int, int]] = {}
        self._class_pairs: Dict[Tuple[int, int], Tuple[Tuple[int, int, int, int, int], ...]] = {}
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

    def _class_row(self, a: int, b: int) -> Tuple[Tuple[int, int, int, int, int], ...]:
        """Per shift residue r = (s_b - s_a) mod t between a part of the
        class with id a and a part of the class with id b, the entry
        (hom(r), beta(r), hom(r + 1), hom'(-r), beta'(-r)): dim Hom and
        the brace share of the pair at r, dim Hom at r + 1, which is the
        pair's block of Hom(y[-1], x) when a is a part of y and b one of
        x, and dim Hom and the brace share of the reverse pair, from b to
        a, at its residue -r. The covering table picks Hom, Ext^1 or 0
        and the brace table weighs them (module docstring), from what
        :meth:`_class_pair` returns both ways. So :meth:`_pair_walk`
        reads one entry per pair of parts. Cached per class pair: at most
        c^2 rows for c classes."""
        t = self.t
        tables = tuple(zip(_covering_table(t), _brace_table(t)))

        def scalars(hom: int, ext: int) -> List[Tuple[int, int]]:
            return [(h0 * hom + e0 * ext, h1 * hom + e1 * ext) for (h0, e0), (h1, e1) in tables]

        fwd, rev = scalars(*self._class_pair(a, b)), scalars(*self._class_pair(b, a))
        self._class_pairs[(a, b)] = row = tuple(
            (h, e, fwd[(r + 1) % t][0]) + rev[-r] for r, (h, e) in enumerate(fwd)
        )
        return row

    def _part_hom(self, a: Part, b: Part) -> int:
        """dim Hom(a, b) between two parts, entry 0 of the class-pair row."""
        row = self._class_pairs.get((a[0], b[0])) or self._class_row(a[0], b[0])
        return row[(b[1] - a[1]) % self.t][0]

    def _runs(self, key: ObjKey) -> List[Tuple[Part, int]]:
        """Each distinct part of a sorted key with the number of times it
        occurs, cached per key."""
        hit = self._runs_cache.get(key)
        if hit is None:
            self._runs_cache[key] = hit = [(part, len(list(run))) for part, run in itertools.groupby(key)]
        return hit

    def hom_dim(self, x: ObjKey, y: ObjKey) -> int:
        """Covering formula: summand pairs contribute their module hom,
        their extension space, or nothing, by shift residue; one walk
        over the part pairs (:meth:`_pair_walk`), not cached."""
        return self._pair_walk(x, y)[0]

    def brace_exponent(self, x: ObjKey, y: ObjKey) -> int:
        """{x,y}: e with q**e equal to the alternating product of
        |Hom(x[i], y)| over i from 1 to t, signs starting at -1, summed
        over part pairs of beta(r) from the brace table (module
        docstring); one walk over the part pairs (:meth:`_pair_walk`),
        not cached."""
        return self._pair_walk(x, y)[1]

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
        return (((),) * self._part_hom(a, b),) * self._part_hom(t, a)

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
        """The rank profiles of the nonzero morphisms x -> m, each mapped
        to its number of morphisms. A profile is the (index of T,
        rk Hom(T, f)) pairs with nonzero rank, one per test object T; a
        line of :func:`_lines` counts q - 1 times. Every part of x and m
        must have a nonzero Hom block to the other side
        (:meth:`fiber_counts`). Nothing is stored: :meth:`_active_cones`
        decodes and stores the cones.

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
        number of morphisms. Every part of x and m must have a nonzero Hom
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

    def _pair_walk(self, y: ObjKey, x: ObjKey) -> Tuple[int, int, int, int, int, set, set]:
        """One walk over the pairs of distinct parts b of y and a of x,
        reading one entry of the class-pair row (:meth:`_class_row`) per
        pair, at its residue r = (s_a - s_b) mod t: hom(y, x) and {y, x},
        Hom(y[-1], x), and hom(x, y) and {x, y} from the reverse pair.
        Returns those four, dim Hom(y[-1], x), and the parts of y and of
        x that have a nonzero block of Hom(y[-1], x), the active parts of
        :meth:`_fiber`. Not cached. A product, a fiber, a key's own
        record and each of ``hom_dim`` and ``brace_exponent`` is one
        call."""
        rows, t = self._class_pairs, self.t
        xs = self._runs(x)
        hom_yx = brace_yx = hom_xy = brace_xy = dim = 0
        on_y, on_x = set(), set()
        for b, mb in self._runs(y):
            cb, sb = b
            for a, ma in xs:
                ca, sa = a
                m = ma * mb
                h, e, d, h_xy, e_xy = (rows.get((cb, ca)) or self._class_row(cb, ca))[(sa - sb) % t]
                hom_yx += m * h
                brace_yx += m * e
                hom_xy += m * h_xy
                brace_xy += m * e_xy
                if d:
                    dim += m * d
                    on_y.add(b)
                    on_x.add(a)
        return hom_yx, brace_yx, hom_xy, brace_xy, dim, on_y, on_x

    def _fiber(self, zero: ObjKey, y: ObjKey, x: ObjKey, dim: int, on_y: set, on_x: set) -> List[Tuple[ObjKey, int]]:
        """The cones of the morphisms y[-1] -> x, each with its number of
        morphisms, sorted by key: the zero morphism's cone ``zero``, the
        key y + x, and the cones of the nonzero ones. ``dim``, ``on_y``
        and ``on_x`` are dim Hom(y[-1], x) and the active parts of y and
        x, from :meth:`_pair_walk`. q**dim is refused beyond the
        context's ``enum_cap`` by one
        :meth:`perihall.reps.RepContext.check_budget` call, whose message
        names both objects and is built only on refusal.
        :meth:`fiber_counts` and :meth:`product_terms`
        both read this list, so their order is set here alone.

        The active sub-keys x' of y[-1] and m' of x are the parts with a
        nonzero Hom block to the other side, in key order; the inactive
        rest x'' and m'' only adds zero rows and columns to every
        Hom(T, f). One pass over the parts of y and one over those of x
        sorts them into the two. So f = f' + 0 with f': x' -> m', and
        cone(f) = cone(f') + x''[1] + m'': the cones of Hom(x', m') are
        read off :meth:`_active_cones`, decoded once per active pair, and
        the inactive parts are added to them. The translation functor is
        a triangle autoequivalence, so cone(f'[s]) = cone(f')[s]: a pair
        whose least shift s0 is not 0 reads the cones of its translate
        by -s0, shifted by s0. Pairs related only by a translate that
        wraps a shift keep their own entries. The sub-keys are translated
        only when s0 is not 0; when s0 is 0 and no part is inactive, the
        stored cones are the fiber's keys as they are, and no key is
        rebuilt."""
        if not dim:
            return [(zero, 1)]
        t = self.t
        self.ctx.check_budget(
            self.q**dim, "morphism classes", lambda: f"{self.format_key(self.shift_key(y, -1))} -> {self.format_key(x)}"
        )
        xa: List[Part] = []
        ma: List[Part] = []
        rest: List[Part] = []
        for part in y:
            if part in on_y:
                xa.append((part[0], (part[1] - 1) % t))
            else:
                rest.append(part)
        for part in x:
            (ma if part in on_x else rest).append(part)
        xa.sort()
        s0 = min(s for _, s in xa + ma)
        if s0:
            xa = [(cid, s - s0) for cid, s in xa]
            ma = [(cid, s - s0) for cid, s in ma]
        cones = self._active_cones(tuple(xa), tuple(ma))
        # a nonzero morphism has a nonzero rank at some part of x', so no
        # cone is the zero cone, and translating and adding the rest is
        # injective on keys: the fiber's keys are distinct
        if s0 or rest:
            out = [(tuple(sorted([(cid, (s + s0) % t) for cid, s in cone] + rest)), count) for cone, count in cones.items()]
        else:
            out = list(cones.items())
        out.append((zero, 1))
        out.sort()
        return out

    def fiber_counts(self, x: ObjKey, m: ObjKey) -> Dict[ObjKey, int]:
        """How many morphisms x -> m have each cone class.

        The returned dict maps the object key of the cone to the number
        of morphisms producing it, sorted by key; values sum to
        q**hom_dim(x, m). The zero morphism's cone x[1] + m is read off
        the keys. For c in F_q^*, (id_x[1], c id_m) is a chain
        isomorphism cone(f) -> cone(c f), so one morphism per line, first
        nonzero coordinate 1, is classified and counts q - 1 times. The
        context's ``enum_cap`` bounds q**hom_dim(x, m)
        (:meth:`perihall.reps.RepContext.check_budget`).

        A line f is classified by its rank profile, never built: the
        ranks of Hom(T, f) for every test object T. Its cone C has the
        hom vector

            dim Hom(T, C) = hom(T, m) - rk Hom(T, f) + hom(T[-1], x) - rk Hom(T[-1], f),

        which fixes C by Auslander's theorem; :meth:`HomVectors.cone_key`
        decodes it. With y = x[1], this is the walk of
        :meth:`product_terms` over the part pairs of y and m
        (:meth:`_pair_walk`) and the fiber built from the cones of its
        active parts (:meth:`_fiber`). Only quivers of type A are served
        (see :meth:`hom_vectors`); :func:`perihall.checks.cone_key_literal`
        builds and reduces the cone instead.

        The engine never calls it: :meth:`product_terms` reads the same
        fiber. The harnesses, the exactness digest and the benchmark's
        checks do. The dict is built afresh per call and not stored; a
        repeated call only merges the cached active cones again, walking
        no line.
        """
        y = self.shift_key(x, 1)
        *_, dim, on_y, on_m = self._pair_walk(y, m)
        return dict(self._fiber(self.direct_sum_key(y, m), y, m, dim, on_y, on_m))

    def product_terms(
        self, x: ObjKey, y: ObjKey
    ) -> Tuple[int, int, Tuple[int, int], Tuple[int, int], List[Tuple[ObjKey, int, int, int]]]:
        """Every scalar the structure constants of u_x * u_y read, from
        one walk over the part pairs of y and x (:meth:`_pair_walk`):
        hom(y, x), {y, x}, (|Aut x|, {x, x}), (|Aut y|, {y, y}), and per
        cone l of the morphisms y[-1] -> x, sorted by key as
        ``fiber_counts(y[-1], x)`` is (:meth:`_fiber`), the tuple
        (l, count, |Aut l|, {l, l}).

        The operands and the cones read their (|Aut|, hom, brace) record
        per key (:meth:`_record`), one ``dict.get`` when it is stored.
        The zero morphism's cone y + x gets its record without a walk of
        its own: hom and brace are bilinear, so they are the sums of the
        operands' own and the walk's cross terms. When x and y share no
        part, End(y + x) is End(x) + End(y) plus the radical
        Hom(x, y) + Hom(y, x), so |Aut(y + x)| is
        |Aut x| |Aut y| q^(hom(x, y) + hom(y, x)); :meth:`_merge_units`
        corrects that for the parts they share. A product with
        Hom(y[-1], x) = 0 has the zero cone alone, with that record, and
        makes no :meth:`_fiber` call. Nothing per key pair is cached;
        :meth:`perihall.hall.HallEngine.multiply` memoizes the
        product."""
        hom_yx, brace_yx, hom_xy, brace_xy, dim, on_y, on_x = self._pair_walk(y, x)
        records = self._records
        aut_x, hom_x, brace_x = records.get(x) or self._record(x)
        aut_y, hom_y, brace_y = records.get(y) or self._record(y)
        zero = tuple(sorted(y + x))
        record = records.get(zero)
        if record is None:
            aut = aut_x * aut_y * self.q ** (hom_xy + hom_yx)
            if not set(x).isdisjoint(y):
                aut = self._merge_units(x, y, aut)
            records[zero] = record = (aut, hom_x + hom_y + hom_xy + hom_yx, brace_x + brace_y + brace_xy + brace_yx)
        if not dim:
            # the fiber is the zero cone alone (:meth:`_fiber`)
            terms = [(zero, 1, record[0], record[2])]
        else:
            terms = []
            for l, count in self._fiber(zero, y, x, dim, on_y, on_x):
                aut, _, brace = records.get(l) or self._record(l)
                terms.append((l, count, aut, brace))
        return hom_yx, brace_yx, (aut_x, brace_x), (aut_y, brace_y), terms

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

    def _units(self, key: ObjKey, dim: int) -> int:
        """|Aut key| as the unit count of the finite algebra End(key) of
        dimension ``dim`` (:func:`perihall.gfp.unit_group_order`): by
        Krull-Schmidt its semisimple quotient has one block GL_m over the
        residue field of each distinct (class, shift) part of
        multiplicity m. Each residue degree is 1 for a brick, every
        indecomposable of a quiver of type A, and enumerated otherwise
        (:meth:`_residue_degree`)."""
        blocks = [(len(list(run)), self._residue_degree(cid)) for (cid, _), run in itertools.groupby(key)]
        return unit_group_order(self.q, dim, blocks)

    def _merge_units(self, x: ObjKey, y: ObjKey, disjoint: int) -> int:
        """|Aut(x + y)| from ``disjoint``, the count
        |Aut x| |Aut y| q^(hom(x, y) + hom(y, x)) that holds when x and
        y share no part (:meth:`product_terms`). A part of multiplicity
        a in x and b in y, with residue field F_Q, has one block
        GL_(a+b)(F_Q) in place of GL_a and GL_b, and the 2ab
        Q-dimensions of Hom between its copies that ``disjoint`` counts
        as radical lie in that block instead (:meth:`_units`); the
        quotient is exact."""
        q, mult = self.q, dict(self._runs(x))
        num, den = disjoint, 1
        for part, b in self._runs(y):
            a = mult.get(part)
            if a:
                big = q ** self._residue_degree(part[0])
                num *= gl_order(a + b, big)
                den *= gl_order(a, big) * gl_order(b, big) * big ** (2 * a * b)
        return num // den

    def _record(self, key: ObjKey) -> Tuple[int, int, int]:
        """(|Aut key|, hom_dim(key, key), brace_exponent(key, key)), from
        one walk over the part pairs of the key with itself
        (:meth:`_pair_walk`) and :meth:`_units`. Cached per key: the one
        record a product reads per operand and per cone;
        :meth:`product_terms` stores the record of a zero morphism's
        cone itself."""
        hit = self._records.get(key)
        if hit is None:
            hom, brace, *_ = self._pair_walk(key, key)
            self._records[key] = hit = (self._units(key, hom), hom, brace)
        return hit

    def aut_order(self, key: ObjKey) -> int:
        """|Aut| as the unit count of the finite algebra End(key), read
        off the key's cached record (:meth:`_record`): dim End is
        hom_dim(key, key), and :meth:`_units` counts the units.
        :func:`perihall.checks.aut_order_by_layers` builds the layers."""
        return self._record(key)[0]


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

