"""The 3-periodic category built on cycle complexes.

Objects here are finite multisets of (indecomposable class, shift)
pairs; every cycle complex normalizes to one. By Krull-Schmidt a module
placed at one shift is the multiset of its summand class ids,
:meth:`perihall.reps.RepContext.summand_ids`, so ``module_key`` tags
those ids with the shift, ``normalize`` joins the module keys of the
three normal-form pieces, and ``enumerate_objects`` keys each module of
the bound once and joins one module key per shift.

The context realizes objects as direct sums of wrapped module
resolutions, computes morphism spaces blockwise between the wrapped
summands, counts morphisms by the class of their cone, and computes
automorphism group orders by a layered closed formula;
:func:`perihall.checks.aut_order_by_enumeration` recounts them by
enumeration.

The scalars ``hom_dim`` and ``aut_order`` never build a module: they
read a table of (dim Hom, dim Ext^1) per pair of class ids, filled once
per pair, and weight it by the multiplicities in the keys;
``aut_order`` also reads each class's residue degree, cached per class
id. :func:`perihall.checks.aut_order_by_layers` builds the layers.

Morphisms are counted one orbit of the scalar action at a time: the
zero morphism x -> m has cone x[1] + m, read off the keys, and
cone(c f) is isomorphic to cone(f) for c in F_q^*, so one cone is
classified per line of Hom(x, m) and counted with weight q - 1;
:func:`perihall.checks.fiber_counts_literal` classifies every morphism.

Keys are plain sorted tuples, one (class_id, shift) entry per
indecomposable summand, so they hash and compare cheaply and the empty
tuple is the zero object.
"""

from __future__ import annotations

import itertools
import operator
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .periodic import (
    PERIOD,
    ChainMap,
    CycleComplex,
    HomSpace,
    chain_hom_space,
    direct_sum_complexes,
    mapping_cone,
    normal_pieces,
    wrap_module,
)
from .gfp import MatrixFp, gl_order
from .reps import BudgetExceeded, Rep, RepContext, RepMap

__all__ = ["ObjKey", "PeriodicContext", "RealizedObject", "BlockHomSpace"]

ObjKey = Tuple[Tuple[int, int], ...]


class RealizedObject:
    """An object key together with its concrete complex and the chain
    maps onto and out of each wrapped summand."""

    __slots__ = ("key", "total", "injections", "projections")

    def __init__(self, key: ObjKey, total: CycleComplex, injections: Sequence[ChainMap], projections: Sequence[ChainMap]):
        self.key = key
        self.total = total
        self.injections = tuple(injections)
        self.projections = tuple(projections)


class BlockHomSpace:
    """Hom between two realized objects, assembled summand by summand.

    Morphism classes are indexed by the concatenation of the class
    coordinates of all (source part, target part) blocks; reading a
    morphism off against the blocks and reassembling it round-trips
    exactly, not just up to homotopy.

    The representative of a class is linear in its coordinates, so the
    ``dim`` basis chain maps on the realized totals are assembled once
    (projection, block representative, injection) and kept as flat
    entry lists per (slot, vertex) component; :meth:`rep_map` is then
    one linear combination mod q.
    :func:`perihall.checks.rep_map_blockwise` assembles every
    representative block by block.
    """

    def __init__(self, pctx: "PeriodicContext", source: RealizedObject, target: RealizedObject):
        self.pctx = pctx
        self.source = source
        self.target = target
        self.blocks: List[Tuple[int, int, HomSpace]] = []
        for i, pa in enumerate(source.key):
            for j, pb in enumerate(target.key):
                self.blocks.append((i, j, pctx.block_space(pa, pb)))
        self._block_dims = [b[2].dim for b in self.blocks]
        self.dim = sum(self._block_dims)
        # per slot, per vertex: (nrows, ncols, entry columns), where
        # entry column e holds entry e of each basis map; None marks a
        # component that vanishes on every basis map
        self._basis: Optional[List[list]] = None

    def class_of(self, f: ChainMap) -> Tuple[int, ...]:
        out: List[int] = []
        for i, j, space in self.blocks:
            comp = self.source.injections[i].then(f).then(self.target.projections[j])
            out.extend(space.class_coords(comp))
        return tuple(out)

    def _build_basis(self) -> None:
        """The basis chain maps, one per unit coordinate vector, stored
        entry-major per (slot, vertex) component."""
        maps = []
        for (i, j, space), d in zip(self.blocks, self._block_dims):
            for k in range(d):
                unit = [0] * d
                unit[k] = 1
                block = space.rep_map(unit)
                maps.append(self.source.projections[i].then(block).then(self.target.injections[j]))
        basis = []
        for s in range(PERIOD):
            slot = []
            for v, (nr, nc) in enumerate(zip(self.source.total.slots[s].dims, self.target.total.slots[s].dims)):
                flats = [m.comps[s].comps[v].flat() for m in maps]
                cols = list(zip(*flats)) if flats else []
                slot.append((nr, nc, cols if any(any(col) for col in cols) else None))
            basis.append(slot)
        self._basis = basis

    def rep_map(self, coords: Sequence[int]) -> ChainMap:
        """The chain map representing the class with these coordinates."""
        if self._basis is None:
            self._build_basis()
        p = self.pctx.q
        field = self.pctx.ctx.field
        source, target = self.source.total, self.target.total
        comps = []
        for s in range(PERIOD):
            mats = []
            for nr, nc, cols in self._basis[s]:
                if cols is None:
                    rows = [[0] * nc for _ in range(nr)]
                else:
                    flat = [sum(map(operator.mul, coords, col)) % p for col in cols]
                    rows = [flat[r * nc : (r + 1) * nc] for r in range(nr)]
                mats.append(MatrixFp._trusted(field, rows, nc))
            comps.append(RepMap(source.slots[s], target.slots[s], mats, check=False))
        return ChainMap(source, target, comps, check=False)

    def _check_budget(self, cap: Optional[int]) -> None:
        p = self.pctx.q
        limit = cap if cap is not None else self.pctx.ctx.enum_cap
        if p**self.dim > limit:
            fmt = self.pctx.format_key
            raise BudgetExceeded(
                f"{p**self.dim} morphism classes {fmt(self.source.key)} -> {fmt(self.target.key)}"
                f" exceed cap {limit}"
            )

    def enumerate_classes(self, cap: Optional[int] = None) -> Iterator[Tuple[int, ...]]:
        self._check_budget(cap)
        yield from itertools.product(range(self.pctx.q), repeat=self.dim)

    def enumerate_lines(self, cap: Optional[int] = None) -> Iterator[Tuple[int, ...]]:
        """One nonzero class per line through the origin: the coordinates
        whose first nonzero entry is 1, in lexicographic order. The cap
        applies to the whole space, as in :meth:`enumerate_classes`."""
        self._check_budget(cap)
        for lead in range(self.dim - 1, -1, -1):
            head = (0,) * lead + (1,)
            for tail in itertools.product(range(self.pctx.q), repeat=self.dim - 1 - lead):
                yield head + tail


class PeriodicContext:
    """Object, morphism, and counting services for one quiver and prime."""

    def __init__(self, ctx: RepContext):
        self.ctx = ctx
        self.t = PERIOD
        self._wrap_cache: Dict[Tuple[int, int], CycleComplex] = {}
        self._block_cache: Dict[Tuple[Tuple[int, int], Tuple[int, int]], HomSpace] = {}
        self._realize_cache: Dict[ObjKey, RealizedObject] = {}
        self._hom_cache: Dict[Tuple[ObjKey, ObjKey], BlockHomSpace] = {}
        self._fiber_cache: Dict[Tuple[ObjKey, ObjKey], Dict[ObjKey, int]] = {}
        self._aut_cache: Dict[ObjKey, int] = {}
        self._pair_cache: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._residue_cache: Dict[int, int] = {}

    @property
    def q(self) -> int:
        return self.ctx.field.p

    @property
    def zero_key(self) -> ObjKey:
        return ()

    # -- object keys --------------------------------------------------

    def module_key(self, rep: Rep, shift: int = 0) -> ObjKey:
        """The object key of a module placed at the given shift: its
        summand class ids, each tagged with the shift."""
        shift %= PERIOD
        return tuple((cid, shift) for cid in self.ctx.summand_ids(rep))

    def shift_key(self, key: ObjKey, n: int = 1) -> ObjKey:
        return tuple(sorted((cid, (s + n) % PERIOD) for cid, s in key))

    def direct_sum_key(self, *keys: ObjKey) -> ObjKey:
        merged: List[Tuple[int, int]] = []
        for k in keys:
            merged.extend(k)
        return tuple(sorted(merged))

    def part_rep(self, key: ObjKey, shift: int) -> Rep:
        """The module sitting at one shift of an object."""
        reps = [self.ctx.class_rep(cid) for cid, s in key if s == shift]
        if not reps:
            return self.ctx.zero_rep()
        return self.ctx.direct_sum(reps)[0]

    def components(self, key: ObjKey) -> Tuple[ObjKey, ObjKey, ObjKey]:
        """Split an object into its three pure-shift module layers, each
        returned as an object key concentrated at shift 0."""
        out = []
        for s in range(PERIOD):
            out.append(tuple(sorted((cid, 0) for cid, sh in key if sh == s)))
        return tuple(out)

    def total_dim(self, key: ObjKey) -> int:
        return sum(self.ctx.class_rep(cid).total_dim for cid, _ in key)

    def dvec_mod2(self, key: ObjKey) -> Tuple[int, ...]:
        nv = len(self.ctx.quiver.vertices)
        acc = [0] * nv
        for cid, _ in key:
            for i, d in enumerate(self.ctx.class_rep(cid).dims):
                acc[i] = (acc[i] + d) % 2
        return tuple(acc)

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

    def enumerate_objects(self, bound: Sequence[int]) -> List[ObjKey]:
        """All objects whose shift-s layer has dimension vector at most
        ``bound`` for each s, ordered by total dimension then key.

        Each module of the bound is keyed once; an object is one module
        key per shift, and distinct modules have distinct keys."""
        modules = [self.module_key(r) for r in self.ctx.enumerate_reps(bound)]
        layers = [[self.shift_key(k, s) for k in modules] for s in range(PERIOD)]
        keys = [self.direct_sum_key(*triple) for triple in itertools.product(*layers)]
        return sorted(keys, key=lambda k: (self.total_dim(k), k))

    # -- realization and normalization --------------------------------

    def wrap_part(self, part: Tuple[int, int]) -> CycleComplex:
        hit = self._wrap_cache.get(part)
        if hit is None:
            cid, s = part
            hit = wrap_module(self.ctx, self.ctx.class_rep(cid), s)
            self._wrap_cache[part] = hit
        return hit

    def realize(self, key: ObjKey) -> RealizedObject:
        hit = self._realize_cache.get(key)
        if hit is None:
            complexes = [self.wrap_part(part) for part in key]
            total, injs, projs = direct_sum_complexes(self.ctx, complexes)
            hit = RealizedObject(key, total, injs, projs)
            self._realize_cache[key] = hit
        return hit

    def normalize(self, c: CycleComplex) -> ObjKey:
        pieces = normal_pieces(self.ctx, c)
        return self.direct_sum_key(*(self.module_key(piece, s) for s, piece in enumerate(pieces)))

    # -- morphisms ----------------------------------------------------

    def block_space(self, part_a: Tuple[int, int], part_b: Tuple[int, int]) -> HomSpace:
        k = (part_a, part_b)
        hit = self._block_cache.get(k)
        if hit is None:
            hit = chain_hom_space(self.ctx, self.wrap_part(part_a), self.wrap_part(part_b))
            self._block_cache[k] = hit
        return hit

    def hom_space(self, x: ObjKey, y: ObjKey) -> BlockHomSpace:
        k = (x, y)
        hit = self._hom_cache.get(k)
        if hit is None:
            hit = BlockHomSpace(self, self.realize(x), self.realize(y))
            self._hom_cache[k] = hit
        return hit

    def _class_pair(self, a: int, b: int) -> Tuple[int, int]:
        """(dim Hom, dim Ext^1) from the class with id a to the class
        with id b, computed once per pair."""
        k = (a, b)
        hit = self._pair_cache.get(k)
        if hit is None:
            ra, rb = self.ctx.class_rep(a), self.ctx.class_rep(b)
            self._pair_cache[k] = hit = (self.ctx.hom_dim(ra, rb), self.ctx.ext1_dim(ra, rb))
        return hit

    def hom_dim(self, x: ObjKey, y: ObjKey) -> int:
        """Covering formula: summand pairs contribute their module hom,
        their extension space, or nothing, by shift residue."""
        total = 0
        ys = _multiplicities(y)
        for (cid_a, sa), ma in _multiplicities(x):
            for (cid_b, sb), mb in ys:
                r = (sb - sa) % PERIOD
                if r < 2:
                    total += ma * mb * self._class_pair(cid_a, cid_b)[r]
        return total

    def cone_key(self, f: ChainMap) -> ObjKey:
        cone, _, _ = mapping_cone(self.ctx, f)
        return self.normalize(cone)

    def fiber_counts(self, x: ObjKey, m: ObjKey, cap: Optional[int] = None) -> Dict[ObjKey, int]:
        """How many morphisms x -> m have each cone class.

        The returned dict maps the object key of the cone to the number
        of morphisms producing it; values sum to q**hom_dim(x, m).
        The zero morphism's cone x[1] + m is read off the keys. For c in
        F_q^*, (id_x[1], c id_m) is a chain isomorphism cone(f) ->
        cone(c f), so one morphism per line, first nonzero coordinate 1,
        is classified and counts q - 1 times. The cap bounds
        q**hom_dim(x, m).
        """
        k = (x, m)
        hit = self._fiber_cache.get(k)
        if hit is None:
            hit = {self.direct_sum_key(self.shift_key(x, 1), m): 1}
            if self.hom_dim(x, m):
                space = self.hom_space(x, m)
                for coords in space.enumerate_lines(cap):
                    ck = self.cone_key(space.rep_map(coords))
                    hit[ck] = hit.get(ck, 0) + self.q - 1
            self._fiber_cache[k] = hit
        return hit

    # -- automorphisms ------------------------------------------------

    def _residue_degree(self, cid: int) -> int:
        """dim over F_q of End(I)/rad for the indecomposable class cid."""
        hit = self._residue_cache.get(cid)
        if hit is None:
            self._residue_cache[cid] = hit = self.ctx.residue_field_degree(self.ctx.class_rep(cid))
        return hit

    def aut_order(self, key: ObjKey) -> int:
        """|Aut| through the layered formula: shift layers contribute
        their module automorphisms, and the strictly lower triangle of
        maps between consecutive shifts is a square-zero ideal, so it
        contributes a free factor of q per extension dimension.

        A layer with m_k copies of the class k has the Krull-Schmidt
        unit count: GL_{m_k} over the residue field of each class,
        times q to the dimension of the radical of its endomorphism
        ring. Every dimension is read off the class-pair table;
        :func:`perihall.checks.aut_order_by_layers` builds the layers."""
        hit = self._aut_cache.get(key)
        if hit is None:
            q = self.q
            counted = _multiplicities(key)
            layers = [[(cid, m) for (cid, s), m in counted if s == sh] for sh in range(PERIOD)]
            order = 1
            for s in range(PERIOD):
                layer, above = layers[s], layers[(s + 1) % PERIOD]
                end_dim = diag = ext_dim = 0
                for cid_a, ma in layer:
                    d = self._residue_degree(cid_a)
                    diag += ma * ma * d
                    order *= gl_order(ma, q**d)
                    end_dim += sum(ma * mb * self._class_pair(cid_a, cid_b)[0] for cid_b, mb in layer)
                    ext_dim += sum(ma * mb * self._class_pair(cid_a, cid_b)[1] for cid_b, mb in above)
                if end_dim < diag:
                    raise AssertionError("radical dimension negative; class-pair table bug")
                order *= q ** (end_dim - diag + ext_dim)
            self._aut_cache[key] = hit = order
        return hit


def _multiplicities(key: ObjKey) -> List[Tuple[Tuple[int, int], int]]:
    """Each distinct (class_id, shift) entry of a sorted key with the
    number of times it occurs."""
    return [(part, len(list(run))) for part, run in itertools.groupby(key)]
