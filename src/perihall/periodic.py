"""The chain-level reference model: cycle complexes of quiver
representations, of period ``PERIOD`` = 3 only.

Production never calls this module: :mod:`perihall.category` reads
every Hom space and composition off module data (Ringel's sequence,
:class:`perihall.reps.HomExt`). The harnesses in :mod:`perihall.checks`
and the tests recount the engine's numbers here, literally, and
:meth:`perihall.category.PeriodicContext.hom_space` keeps one
chain-level count for the benchmark's End-dimension check.

A cycle complex has ``PERIOD`` slots of representations arranged in a
cycle, with a differential from each slot to the next and consecutive
composites vanishing. Slot i carries stalk shift -i mod ``PERIOD``: a
module sitting alone in slot 0 is "the module", in the last slot it is
the module shifted once. Shifting a complex by n rotates the slots by n
mod ``PERIOD`` and negates every differential when that residue is odd.

A module is wrapped as its minimal projective resolution
(:func:`proj_resolution`): the cover P0 in slot 0, the syzygy P1 in the
last slot, and the resolution map P1 -> P0 as the differential closing
the cycle. The path algebra is hereditary, so a periodic complex of
projectives is the sum of its shifted homology: its normal form carries,
at shift s, the homology ker d_i / im d_{i-1} at slot i = -s mod
``PERIOD``. :class:`ChainModel` realizes object keys as direct sums of
wrapped parts and computes Hom between them block by block.

Morphisms are slotwise representation maps commuting with the
differentials; two are identified when they differ by a boundary
s d + d s built from slotwise maps one step back. Everything here is a
literal linear-algebra computation over F_p; no formulas stand in for
the chain-level objects.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from .category import PERIOD, ObjKey, Part
from .gfp import MatrixFp, Subspace
from .reps import BudgetExceeded, Rep, RepContext, RepMap

if TYPE_CHECKING:
    from .category import PeriodicContext

__all__ = [
    "CycleComplex",
    "ChainMap",
    "Homotopy",
    "HomSpace",
    "Resolution",
    "RealizedObject",
    "BlockHomSpace",
    "ChainModel",
    "chain_hom_space",
    "direct_sum_complexes",
    "mapping_cone",
    "normal_pieces",
    "proj_resolution",
    "wrap_module",
    "find_homotopy_iso",
]


class CycleComplex:
    """Three representation slots with a cyclic differential."""

    __slots__ = ("ctx", "slots", "diffs", "_key")

    def __init__(self, ctx: RepContext, slots: Sequence[Rep], diffs: Sequence[RepMap], check: bool = True):
        if len(slots) != PERIOD or len(diffs) != PERIOD:
            raise ValueError("need exactly three slots and differentials")
        self.ctx = ctx
        self.slots = tuple(slots)
        self.diffs = tuple(diffs)
        self._key = None
        if check:
            for i in range(PERIOD):
                d = self.diffs[i]
                if d.source != self.slots[i] or d.target != self.slots[(i + 1) % PERIOD]:
                    raise ValueError(f"differential {i} connects the wrong slots")
                if not d.then(self.diffs[(i + 1) % PERIOD]).is_zero():
                    raise ValueError(f"composite of differentials {i}, {i + 1} is nonzero")

    @classmethod
    def stalk(cls, ctx: RepContext, rep: Rep, slot: int) -> "CycleComplex":
        slots = [ctx.zero_rep()] * PERIOD
        slots[slot % PERIOD] = rep
        diffs = [RepMap.zero_map(slots[i], slots[(i + 1) % PERIOD]) for i in range(PERIOD)]
        return cls(ctx, slots, diffs, check=False)

    def shift(self, n: int = 1) -> "CycleComplex":
        """Rotate the slots by n mod ``PERIOD``; the differentials rotate
        with them and are negated when that residue is odd."""
        n %= PERIOD
        diffs = self.diffs[n:] + self.diffs[:n]
        if n % 2:
            diffs = tuple(d.neg() for d in diffs)
        return CycleComplex(self.ctx, self.slots[n:] + self.slots[:n], diffs, check=False)

    def key(self) -> Tuple:
        if self._key is None:
            self._key = (
                tuple(s.key() for s in self.slots),
                tuple(d.key() for d in self.diffs),
            )
        return self._key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CycleComplex) and other.key() == self.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"CycleComplex(dims={[s.dims for s in self.slots]})"


def direct_sum_complexes(ctx: RepContext, parts: Sequence[CycleComplex]) -> Tuple[CycleComplex, List["ChainMap"], List["ChainMap"]]:
    """Slotwise direct sum with chain-level injections and projections."""
    slot_data = [ctx.direct_sum([p.slots[i] for p in parts]) for i in range(PERIOD)]
    slots = [sd[0] for sd in slot_data]
    diffs = []
    for i in range(PERIOD):
        j = (i + 1) % PERIOD
        comps = []
        for v in range(len(ctx.quiver.vertices)):
            acc = None
            for k in range(len(parts)):
                c = slot_data[i][2][k].comps[v].mul(parts[k].diffs[i].comps[v]).mul(slot_data[j][1][k].comps[v])
                acc = c if acc is None else acc.add(c)
            if acc is None:
                acc = MatrixFp.zeros(ctx.field, slots[i].dims[v], slots[j].dims[v])
            comps.append(acc)
        diffs.append(RepMap(slots[i], slots[j], comps, check=False))
    total = CycleComplex(ctx, slots, diffs, check=False)
    injections = []
    projections = []
    for k, part in enumerate(parts):
        injections.append(ChainMap(part, total, [slot_data[i][1][k] for i in range(PERIOD)], check=False))
        projections.append(ChainMap(total, part, [slot_data[i][2][k] for i in range(PERIOD)], check=False))
    return total, injections, projections


class ChainMap:
    """A slotwise morphism of 3-cycle complexes."""

    __slots__ = ("source", "target", "comps")

    def __init__(self, source: CycleComplex, target: CycleComplex, comps: Sequence[RepMap], check: bool = True):
        self.source = source
        self.target = target
        self.comps = tuple(comps)
        if len(self.comps) != PERIOD:
            raise ValueError("need three slot components")
        if check:
            for i in range(PERIOD):
                j = (i + 1) % PERIOD
                lhs = source.diffs[i].then(self.comps[j])
                rhs = self.comps[i].then(target.diffs[i])
                if lhs.key() != rhs.key():
                    raise ValueError(f"chain square {i} does not commute")

    @classmethod
    def zero(cls, source: CycleComplex, target: CycleComplex) -> "ChainMap":
        return cls(source, target, [RepMap.zero_map(source.slots[i], target.slots[i]) for i in range(PERIOD)], check=False)

    @classmethod
    def identity(cls, c: CycleComplex) -> "ChainMap":
        return cls(c, c, [RepMap.identity(c.slots[i]) for i in range(PERIOD)], check=False)

    def then(self, other: "ChainMap") -> "ChainMap":
        return ChainMap(self.source, other.target, [a.then(b) for a, b in zip(self.comps, other.comps)], check=False)

    def add(self, other: "ChainMap") -> "ChainMap":
        return ChainMap(self.source, self.target, [a.add(b) for a, b in zip(self.comps, other.comps)], check=False)

    def sub(self, other: "ChainMap") -> "ChainMap":
        return ChainMap(self.source, self.target, [a.sub(b) for a, b in zip(self.comps, other.comps)], check=False)

    def neg(self) -> "ChainMap":
        return ChainMap(self.source, self.target, [c.neg() for c in self.comps], check=False)

    def scale(self, c: int) -> "ChainMap":
        return ChainMap(self.source, self.target, [m.scale(c) for m in self.comps], check=False)

    def shift(self, n: int = 1) -> "ChainMap":
        """The same map between the shifted complexes, its components
        rotated with their slots."""
        n %= PERIOD
        return ChainMap(self.source.shift(n), self.target.shift(n), self.comps[n:] + self.comps[:n], check=False)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def flat(self) -> List[int]:
        out: List[int] = []
        for c in self.comps:
            out.extend(c.flat())
        return out

    def key(self) -> Tuple:
        return tuple(c.key() for c in self.comps)

    def __repr__(self) -> str:
        return f"ChainMap({[s.dims for s in self.source.slots]} -> {[s.dims for s in self.target.slots]})"


class Homotopy:
    """Slotwise maps one step back: s_i goes from X_i to Y_{i-1}."""

    __slots__ = ("source", "target", "comps")

    def __init__(self, source: CycleComplex, target: CycleComplex, comps: Sequence[RepMap]):
        self.source = source
        self.target = target
        self.comps = tuple(comps)
        if len(self.comps) != PERIOD:
            raise ValueError("need three homotopy components")
        for i in range(PERIOD):
            s = self.comps[i]
            if s.source != source.slots[i] or s.target != target.slots[(i - 1) % PERIOD]:
                raise ValueError(f"homotopy component {i} connects the wrong slots")

    def boundary(self) -> ChainMap:
        """The null-homotopic chain map s d + d s."""
        comps = []
        for i in range(PERIOD):
            a = self.comps[i].then(self.target.diffs[(i - 1) % PERIOD])
            b = self.source.diffs[i].then(self.comps[(i + 1) % PERIOD])
            comps.append(a.add(b))
        return ChainMap(self.source, self.target, comps, check=False)


class HomSpace:
    """Hom between two 3-cycle complexes, before and after homotopy.

    Chain maps are parametrized by coefficient vectors over the slotwise
    hom bases; the boundary subspace is expressed in the same
    coordinates, and morphism classes get canonical coordinates on the
    quotient. Representatives returned by :meth:`rep_map` are canonical
    lifts of those coordinates.
    """

    def __init__(self, ctx: RepContext, source: CycleComplex, target: CycleComplex):
        self.ctx = ctx
        self.source = source
        self.target = target
        self._slot_bases = [ctx.hom_basis(source.slots[i], target.slots[i]) for i in range(PERIOD)]
        self._slot_dims = [len(b) for b in self._slot_bases]
        self._offsets = [sum(self._slot_dims[:i]) for i in range(PERIOD)]
        self._flat_bases: List[Optional[MatrixFp]] = [
            MatrixFp(ctx.field, [b.flat() for b in basis], ncols=len(basis[0].flat())) if basis else None
            for basis in self._slot_bases
        ]
        nunk = sum(self._slot_dims)
        # chain condition: for each slot, d^X_i f_{i+1} - f_i d^Y_i == 0,
        # expanded over the slotwise bases
        p = ctx.field.p
        eq_cols = 0
        col_chunks: List[int] = []
        for i in range(PERIOD):
            j = (i + 1) % PERIOD
            probe = RepMap.zero_map(source.slots[i], target.slots[j])
            width = len(probe.flat())
            col_chunks.append(width)
            eq_cols += width
        rows = [[0] * eq_cols for _ in range(nunk)]
        base = 0
        for i in range(PERIOD):
            j = (i + 1) % PERIOD
            width = col_chunks[i]
            for k, b in enumerate(self._slot_bases[j]):
                vec = self.source.diffs[i].then(b).flat()
                row = rows[self._offsets[j] + k]
                for c, x in enumerate(vec):
                    if x:
                        row[base + c] = (row[base + c] + x) % p
            for k, b in enumerate(self._slot_bases[i]):
                vec = b.then(self.target.diffs[i]).flat()
                row = rows[self._offsets[i] + k]
                for c, x in enumerate(vec):
                    if x:
                        row[base + c] = (row[base + c] - x) % p
            base += width
        if nunk:
            m = MatrixFp(ctx.field, rows, ncols=eq_cols)
            self._chain_coeff_basis = m.kernel_basis()  # rows: chain maps in slot-basis coords
        else:
            self._chain_coeff_basis = MatrixFp(ctx.field, [], ncols=0)
        # homotopy parameter space and its boundary image, in the same coords
        self._htp_bases = [ctx.hom_basis(source.slots[i], target.slots[(i - 1) % PERIOD]) for i in range(PERIOD)]
        boundary_rows = []
        for i in range(PERIOD):
            for s in self._htp_bases[i]:
                comps = [RepMap.zero_map(source.slots[k], target.slots[(k - 1) % PERIOD]) for k in range(PERIOD)]
                comps[i] = s
                h = Homotopy(source, target, comps)
                boundary_rows.append(self._coeffs_of_chain(h.boundary()))
        cdim = self._chain_coeff_basis.nrows
        # boundary rows are coordinates w.r.t. the chain coefficient basis
        self._boundary_sub = Subspace(ctx.field, cdim, boundary_rows)

    # -- coordinates --------------------------------------------------

    def _coeffs_of_slotwise(self, f: ChainMap) -> List[int]:
        """Coefficients of f over the slotwise hom bases."""
        out = [0] * sum(self._slot_dims)
        for i in range(PERIOD):
            flat_basis = self._flat_bases[i]
            if flat_basis is None:
                if not f.comps[i].is_zero():
                    raise ValueError("map has a component outside the hom space")
                continue
            sol = flat_basis.solve(f.comps[i].flat())
            if sol is None:
                raise ValueError("component is not in the slot hom space")
            for k, x in enumerate(sol):
                out[self._offsets[i] + k] = x
        return out

    def _coeffs_of_chain(self, f: ChainMap) -> List[int]:
        """Coordinates of a chain map w.r.t. the chain coefficient basis."""
        slot_coeffs = self._coeffs_of_slotwise(f)
        if self._chain_coeff_basis.nrows == 0:
            if any(slot_coeffs):
                raise ValueError("nonzero map in zero chain space")
            return []
        sol = self._chain_coeff_basis.solve(slot_coeffs)
        if sol is None:
            raise ValueError("map does not satisfy the chain condition")
        return sol

    @property
    def chain_dim(self) -> int:
        """Dimension of the space of chain maps (before homotopy)."""
        return self._chain_coeff_basis.nrows

    @property
    def dim(self) -> int:
        """Dimension of Hom modulo homotopy."""
        return self.chain_dim - self._boundary_sub.dim

    def class_coords(self, f: ChainMap) -> Tuple[int, ...]:
        return self._boundary_sub.quotient_coords(self._coeffs_of_chain(f))

    def rep_map(self, coords: Sequence[int]) -> ChainMap:
        """Canonical chain-level representative of class coordinates."""
        chain_coords = self._boundary_sub.lift_quotient_coords(list(coords))
        return self._from_chain_coords(chain_coords)

    def _from_chain_coords(self, chain_coords: Sequence[int]) -> ChainMap:
        slot_coeffs = [0] * sum(self._slot_dims)
        p = self.ctx.field.p
        for r, c in zip(self._chain_coeff_basis.rows, chain_coords):
            if c % p:
                for k, x in enumerate(r):
                    if x:
                        slot_coeffs[k] = (slot_coeffs[k] + c * x) % p
        comps = []
        for i in range(PERIOD):
            basis = self._slot_bases[i]
            acc = RepMap.zero_map(self.source.slots[i], self.target.slots[i])
            for k, b in enumerate(basis):
                coeff = slot_coeffs[self._offsets[i] + k]
                if coeff:
                    acc = acc.add(b.scale(coeff))
            comps.append(acc)
        return ChainMap(self.source, self.target, comps, check=False)

    def enumerate_classes(self, cap: Optional[int] = None) -> Iterator[Tuple[int, ...]]:
        limit = cap if cap is not None else self.ctx.enum_cap
        total = self.ctx.field.p**self.dim
        if total > limit:
            raise BudgetExceeded(
                f"class enumeration of size {total} exceeds cap {limit}: slot dimension vectors"
                f" {[s.dims for s in self.source.slots]} -> {[s.dims for s in self.target.slots]}"
            )
        yield from itertools.product(range(self.ctx.field.p), repeat=self.dim)

    def is_null_homotopic(self, f: ChainMap) -> bool:
        return not any(self.class_coords(f))

    def random_boundary(self, coeffs: Sequence[int]) -> ChainMap:
        """The boundary of the homotopy with the given parameter vector.

        Used by invariance tests to perturb representatives within a
        homotopy class.
        """
        idx = 0
        comps = []
        for i in range(PERIOD):
            acc = RepMap.zero_map(self.source.slots[i], self.target.slots[(i - 1) % PERIOD])
            for b in self._htp_bases[i]:
                c = coeffs[idx % len(coeffs)] if coeffs else 0
                idx += 1
                if c % self.ctx.field.p:
                    acc = acc.add(b.scale(c))
            comps.append(acc)
        return Homotopy(self.source, self.target, comps).boundary()


def chain_hom_space(ctx: RepContext, source: CycleComplex, target: CycleComplex) -> HomSpace:
    """Morphisms source -> target modulo homotopy, computed literally."""
    return HomSpace(ctx, source, target)


def mapping_cone(ctx: RepContext, u: ChainMap) -> Tuple[CycleComplex, ChainMap, ChainMap]:
    """The cone of u: X -> Y with its triangle maps.

    Returns (cone, incl, proj) where incl: Y -> cone and
    proj: cone -> X[1] complete u to a standard triangle
    X -u-> Y -incl-> cone -proj-> X[1].
    """
    x, y = u.source, u.target
    slot_data = []
    for i in range(PERIOD):
        slot_data.append(ctx.direct_sum([x.slots[(i + 1) % PERIOD], y.slots[i]]))
    slots = [sd[0] for sd in slot_data]
    diffs = []
    for i in range(PERIOD):
        j = (i + 1) % PERIOD
        comps = []
        for v in range(len(ctx.quiver.vertices)):
            yi = y.slots[i].dims[v]
            xi2 = x.slots[(i + 2) % PERIOD].dims[v]
            blk = MatrixFp.block(
                ctx.field,
                [
                    [x.diffs[(i + 1) % PERIOD].comps[v].neg(), u.comps[(i + 1) % PERIOD].comps[v]],
                    [MatrixFp.zeros(ctx.field, yi, xi2), y.diffs[i].comps[v]],
                ],
            )
            comps.append(blk)
        diffs.append(RepMap(slots[i], slots[j], comps, check=False))
    cone = CycleComplex(ctx, slots, diffs, check=False)
    incl = ChainMap(y, cone, [slot_data[i][1][1] for i in range(PERIOD)], check=False)
    proj_comps = [slot_data[i][2][0] for i in range(PERIOD)]
    proj = ChainMap(cone, x.shift(1), proj_comps, check=False)
    return cone, incl, proj


def normal_pieces(ctx: RepContext, c: CycleComplex) -> Tuple[Rep, ...]:
    """Module pieces of the normal form of c, indexed by shift.

    Over a hereditary algebra a periodic complex of projectives is the
    sum of its shifted homology, so the piece at shift s is the homology
    ker d_i / im d_{i-1} at slot i = -s mod ``PERIOD``.
    """
    pieces = []
    for s in range(PERIOD):
        i = -s % PERIOD
        _, incl = ctx.kernel(c.diffs[i])
        homology, _ = ctx.cokernel(ctx.corestrict(c.diffs[i - 1], incl))
        pieces.append(homology)
    return tuple(pieces)


@dataclass
class Resolution:
    """A minimal projective resolution 0 -> P1 -> P0 -> X -> 0."""

    x: Rep
    p1: Rep
    p0: Rep
    d: RepMap  # P1 -> P0, injective
    eps: RepMap  # P0 -> X, projective cover


def _radicals(ctx: RepContext, x: Rep) -> List[Subspace]:
    """The radical of x at each vertex: the span of the arrow images
    landing there."""
    q = ctx.quiver
    rads = []
    for i, v in enumerate(q.vertices):
        rows: List[List[int]] = []
        for a in q.arrows_into(v):
            rows.extend(x.mats[a.name].rows)
        rads.append(Subspace(ctx.field, x.dims[i], rows))
    return rads


def _cover_map(ctx: RepContext, x: Rep) -> Tuple[Rep, RepMap]:
    """Projective cover P -> x via top representatives."""
    q = ctx.quiver
    rads = _radicals(ctx, x)
    gens: List[Tuple[str, List[int]]] = []  # (vertex, representative in X_v)
    for i, v in enumerate(q.vertices):
        for c in rads[i].free_columns:
            unit = [0] * x.dims[i]
            unit[c] = 1
            gens.append((v, unit))
    pieces = [ctx.projective(v) for v, _ in gens]
    p0, _, _ = ctx.direct_sum(pieces)
    # map each projective piece into x: generator path e_v |-> rep,
    # longer path p*a |-> (image so far) @ X_a
    piece_maps = []
    for (v, repvec), piece in zip(gens, pieces):
        comps = []
        paths = q.paths_from(v)
        by_end: Dict[str, List[Tuple]] = {w: [] for w in q.vertices}
        for pth in paths:
            end = pth[-1].target if pth else v
            by_end[end].append(pth)
        vec_of: Dict[Tuple, List[int]] = {(): repvec}
        for pth in paths:
            if pth:
                prefix = pth[:-1]
                a = pth[-1]
                prev = vec_of[prefix]
                vec_of[pth] = MatrixFp(ctx.field, [prev]).mul(x.mats[a.name]).rows[0]
        for i, w in enumerate(q.vertices):
            rows = [vec_of[pth] for pth in by_end[w]]
            comps.append(MatrixFp(ctx.field, rows, ncols=x.dims[i]) if rows else MatrixFp.zeros(ctx.field, 0, x.dims[i]))
        piece_maps.append(RepMap(piece, x, comps, check=False))
    comps = []
    for i in range(len(q.vertices)):
        acc = None
        for pm in piece_maps:
            c = pm.comps[i]
            acc = c if acc is None else acc.vstack(c)
        if acc is None:
            acc = MatrixFp.zeros(ctx.field, 0, x.dims[i])
        comps.append(acc)
    eps = RepMap(p0, x, comps, check=False)
    # surjectivity: the cover hits a complement of the radical at
    # every vertex, so by graded Nakayama it hits everything
    for i in range(len(q.vertices)):
        if comps[i].rank() != x.dims[i]:
            raise AssertionError("projective cover failed to surject")
    return p0, eps


def proj_resolution(ctx: RepContext, x: Rep) -> Resolution:
    """Minimal projective resolution 0 -> P1 -> P0 -> x -> 0."""
    p0, eps = _cover_map(ctx, x)
    ker, kincl = ctx.kernel(eps)
    p1, cover = _cover_map(ctx, ker)
    if p1.total_dim != ker.total_dim:
        # over a hereditary algebra the kernel is projective, so its
        # cover must be an isomorphism
        raise AssertionError("first syzygy is not projective; quiver not hereditary?")
    d = cover.then(kincl)
    return Resolution(x, p1, p0, d, eps)


def wrap_module(ctx: RepContext, rep: Rep, shift: int = 0) -> CycleComplex:
    """The standard complex carrying a module at the given shift.

    A projective module becomes a stalk in slot 0; anything else sits as
    its minimal resolution, cover in slot 0 and syzygy in the last slot
    with the resolution map connecting them. Shifting then rotates the
    result into place.
    """
    res = proj_resolution(ctx, rep)
    if res.p1.is_zero():
        base = CycleComplex.stalk(ctx, res.p0, 0)
    else:
        slots = [res.p0] + [ctx.zero_rep()] * (PERIOD - 2) + [res.p1]
        diffs = [RepMap.zero_map(slots[i], slots[i + 1]) for i in range(PERIOD - 1)] + [res.d]
        base = CycleComplex(ctx, slots, diffs, check=False)
    return base.shift(shift)


def find_homotopy_iso(ctx: RepContext, a: CycleComplex, b: CycleComplex, cap: int = 1 << 12) -> Optional[ChainMap]:
    """Search for an isomorphism a -> b in the homotopy category.

    Enumerates morphism classes (within the cap) and tests two-sided
    invertibility modulo homotopy. Intended for small verification
    scopes, not the hot path.
    """
    fwd = chain_hom_space(ctx, a, b)
    bwd = chain_hom_space(ctx, b, a)
    ends_a = chain_hom_space(ctx, a, a)
    ends_b = chain_hom_space(ctx, b, b)
    id_a = ends_a.class_coords(ChainMap.identity(a))
    id_b = ends_b.class_coords(ChainMap.identity(b))
    for fc in fwd.enumerate_classes(cap):
        f = fwd.rep_map(fc)
        for gc in bwd.enumerate_classes(cap):
            g = bwd.rep_map(gc)
            if ends_a.class_coords(f.then(g)) == id_a and ends_b.class_coords(g.then(f)) == id_b:
                return f
    return None


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

    There is one block per (source part, target part), in that order;
    the coordinates of a morphism are the concatenation of its class
    coordinates in each block's space. :func:`perihall.checks.block_morphisms`
    builds the representative of every class.
    """

    def __init__(self, model: "ChainModel", source: RealizedObject, target: RealizedObject):
        self.pctx = model.pctx
        self.source = source
        self.target = target
        self.blocks: List[Tuple[int, int, HomSpace]] = []
        for i, pa in enumerate(source.key):
            for j, pb in enumerate(target.key):
                self.blocks.append((i, j, model.block_space(pa, pb)))
        self.dim = sum(b[2].dim for b in self.blocks)


class ChainModel:
    """The objects of a :class:`perihall.category.PeriodicContext` as
    cycle complexes: each (class, shift) part wrapped as the minimal
    resolution of its class representative, an object key realized as
    the direct sum of its parts, and Hom between two keys one block per
    pair of parts. Wrapped parts, block spaces and realized keys are
    cached for the life of the model. A context at another period is refused."""

    def __init__(self, pctx: "PeriodicContext"):
        if pctx.t != PERIOD:
            raise ValueError(f"the chain model is {PERIOD}-periodic, but the context has period {pctx.t}")
        self.pctx = pctx
        self.ctx = pctx.ctx
        self._wrap_cache: Dict[Part, CycleComplex] = {}
        self._block_cache: Dict[Tuple[Part, Part], HomSpace] = {}
        self._realize_cache: Dict[ObjKey, RealizedObject] = {}

    def wrap_part(self, part: Part) -> CycleComplex:
        hit = self._wrap_cache.get(part)
        if hit is None:
            cid, s = part
            self._wrap_cache[part] = hit = wrap_module(self.ctx, self.ctx.class_rep(cid), s)
        return hit

    def realize(self, key: ObjKey) -> RealizedObject:
        hit = self._realize_cache.get(key)
        if hit is None:
            total, injs, projs = direct_sum_complexes(self.ctx, [self.wrap_part(part) for part in key])
            self._realize_cache[key] = hit = RealizedObject(key, total, injs, projs)
        return hit

    def block_space(self, part_a: Part, part_b: Part) -> HomSpace:
        k = (part_a, part_b)
        hit = self._block_cache.get(k)
        if hit is None:
            self._block_cache[k] = hit = chain_hom_space(self.ctx, self.wrap_part(part_a), self.wrap_part(part_b))
        return hit

    def hom_space(self, x: ObjKey, y: ObjKey) -> BlockHomSpace:
        return BlockHomSpace(self, self.realize(x), self.realize(y))
