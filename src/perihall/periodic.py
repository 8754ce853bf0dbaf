"""The chain-level reference model: cycle complexes of quiver
representations, at any period t.

Production never calls this module: :mod:`perihall.category` reads
every Hom space and composition off module data (Ringel's sequence,
:class:`perihall.reps.HomExt`). The harnesses in :mod:`perihall.checks`
and the tests recount the engine's numbers here, literally, and
:meth:`perihall.category.PeriodicContext.hom_space` keeps one
chain-level count for the benchmark's End-dimension check.

A cycle complex has t slots of representations in a cycle, t its
period, with a differential from each slot to the next and consecutive
composites vanishing. Slot i carries stalk shift -i mod t: a module
alone in slot 0 is "the module", in the last slot the module shifted
once. Shifting by n rotates the slots by n mod t and negates every
differential when that residue is odd. Constructions read t off the
complexes they are given; :meth:`CycleComplex.stalk`,
:func:`wrap_module` and :func:`direct_sum_complexes` (whose empty sum
is the zero complex) take it as an argument.

A module is wrapped as its minimal projective resolution
(:func:`proj_resolution`): the cover P0 in slot 0, the syzygy P1 in the
last slot, and the resolution map P1 -> P0 as the differential closing
the cycle. The path algebra is hereditary, so a periodic complex of
projectives is the sum of its shifted homology: its normal form carries,
at shift s, the homology ker d_i / im d_{i-1} at slot i = -s mod t.
:class:`ChainModel` realizes object keys at their context's period as
direct sums of wrapped parts, and Hom between two keys is the
:class:`HomSpace` between their complexes; :meth:`HomSpace.morphisms`
is the one walk over its classes.

Morphisms are slotwise representation maps commuting with the
differentials; two are identified when they differ by a boundary
s d + d s built from slotwise maps one step back. Everything here is a
literal linear-algebra computation over F_p; no formulas stand in for
the chain-level objects. Every basis a :class:`HomSpace` holds is an
rref span (:class:`perihall.gfp.Subspace`) as elimination made it, so it
reads a map's coordinates off the pivot columns, and it writes the
boundary of each homotopy basis map directly, as its two slot
components.

The module helpers only this model needs live here, not in the engine
modules: paths out of a vertex (:func:`paths_from`) and the projective
modules they span (:func:`projective`) and corestriction to a
submodule (:func:`corestrict`). A direct sum is its block sum: the slots
of :func:`direct_sum_complexes` and :func:`mapping_cone` are
:meth:`perihall.reps.RepContext.block_sum` of the parts' slots. Callers
that compose with injections or projections ask :func:`summand_maps`.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .category import ObjKey, Part
from .gfp import MatrixFp, Subspace
from .quiver import Arrow, Quiver
from .reps import BudgetExceeded, Rep, RepContext, RepMap

if TYPE_CHECKING:
    from .category import PeriodicContext

__all__ = [
    "CycleComplex",
    "ChainMap",
    "HomSpace",
    "Resolution",
    "ChainModel",
    "chain_hom_space",
    "corestrict",
    "direct_sum_complexes",
    "mapping_cone",
    "normal_pieces",
    "paths_from",
    "proj_resolution",
    "projective",
    "summand_maps",
    "wrap_module",
    "find_homotopy_iso",
]

Path = Tuple[Arrow, ...]


# ----------------------------------------------------------------------
# module helpers of the chain-level model
# ----------------------------------------------------------------------


def paths_from(quiver: Quiver, v: str) -> List[Path]:
    """All directed paths starting at v, including the empty path.

    These index a basis of the projective cover of the simple at v.
    Deterministic order: by length, then arrow declaration order.
    """
    out: List[Path] = [()]
    frontier: List[Path] = [()]
    while frontier:
        nxt: List[Path] = []
        for path in frontier:
            end = path[-1].target if path else v
            nxt.extend(path + (a,) for a in quiver.arrows if a.source == end)
        out.extend(nxt)
        frontier = nxt
    return out


def _projective_basis(ctx: RepContext, vertex: str) -> Tuple[Rep, List[Path], Dict[str, List[Path]]]:
    """The projective cover of the simple at ``vertex`` with its basis:
    the paths out of the vertex in :func:`paths_from` order, and the same
    paths grouped by end vertex, one basis of each vertex space."""
    q = ctx.quiver
    paths = paths_from(q, vertex)
    by_end: Dict[str, List[Path]] = {w: [] for w in q.vertices}
    for pth in paths:
        by_end[pth[-1].target if pth else vertex].append(pth)
    mats = {}
    for a in q.arrows:
        tgt_index = {pth: i for i, pth in enumerate(by_end[a.target])}
        m = MatrixFp.zeros(ctx.field, len(by_end[a.source]), len(by_end[a.target]))
        for i, pth in enumerate(by_end[a.source]):
            m.rows[i][tgt_index[pth + (a,)]] = 1
        mats[a.name] = m
    return Rep(ctx.field, q, [len(by_end[w]) for w in q.vertices], mats), paths, by_end


def projective(ctx: RepContext, vertex: str) -> Rep:
    """The projective cover of the simple at ``vertex``; basis given
    by paths out of the vertex."""
    return _projective_basis(ctx, vertex)[0]


def corestrict(f: RepMap, incl: RepMap) -> RepMap:
    """Factor f: X -> Y through a subobject incl: S -> Y."""
    comps = []
    for fc, ic in zip(f.comps, incl.comps):
        g = ic.solve_matrix(fc)
        if g is None:
            raise ValueError("map does not land in the subobject")
        comps.append(g)
    return RepMap(f.source, incl.source, comps, check=False)


# ----------------------------------------------------------------------
# cycle complexes
# ----------------------------------------------------------------------


class CycleComplex:
    """Representation slots with a cyclic differential, one from each
    slot to the next; the period ``t`` is the number of slots."""

    __slots__ = ("ctx", "slots", "diffs", "_key")

    def __init__(self, ctx: RepContext, slots: Sequence[Rep], diffs: Sequence[RepMap], check: bool = True):
        if len(diffs) != len(slots):
            raise ValueError("need one differential per slot")
        self.ctx = ctx
        self.slots = tuple(slots)
        self.diffs = tuple(diffs)
        self._key = None
        if check:
            t = self.t
            for i, d in enumerate(self.diffs):
                if d.source != self.slots[i] or d.target != self.slots[(i + 1) % t]:
                    raise ValueError(f"differential {i} connects the wrong slots")
                if not d.then(self.diffs[(i + 1) % t]).is_zero():
                    raise ValueError(f"composite of differentials {i}, {i + 1} is nonzero")

    @property
    def t(self) -> int:
        return len(self.slots)

    @property
    def dims(self) -> List[Tuple[int, ...]]:
        """The dimension vector of each slot."""
        return [s.dims for s in self.slots]

    @classmethod
    def stalk(cls, ctx: RepContext, rep: Rep, slot: int, *, t: int) -> "CycleComplex":
        """The t-periodic complex carrying ``rep`` alone in one slot."""
        slots = [ctx.zero_rep()] * t
        slots[slot % t] = rep
        return cls(ctx, slots, [RepMap.zero_map(a, b) for a, b in zip(slots, slots[1:] + slots[:1])], check=False)

    def shift(self, n: int = 1) -> "CycleComplex":
        """Rotate the slots by n mod t; the differentials rotate with
        them and are negated when that residue is odd."""
        n %= self.t
        diffs = self.diffs[n:] + self.diffs[:n]
        if n % 2:
            diffs = tuple(d.scale(-1) for d in diffs)
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
        return f"CycleComplex(dims={self.dims})"


def direct_sum_complexes(ctx: RepContext, parts: Sequence[CycleComplex], *, t: int) -> CycleComplex:
    """Slotwise block sum of t-periodic complexes, differentials block
    diagonal; the empty sum is the zero complex. Its injections and
    projections are :func:`summand_maps`."""
    if any(part.t != t for part in parts):
        raise ValueError(f"every summand must be {t}-periodic")
    slots = [ctx.block_sum([p.slots[i] for p in parts]) for i in range(t)]
    diffs = [
        RepMap(
            slots[i],
            slots[(i + 1) % t],
            [MatrixFp.block_diagonal(ctx.field, [part.diffs[i].comps[v] for part in parts]) for v in range(len(ctx.quiver.vertices))],
            check=False,
        )
        for i in range(t)
    ]
    return CycleComplex(ctx, slots, diffs, check=False)


def summand_maps(total: CycleComplex, parts: Sequence[CycleComplex]) -> Tuple[List["ChainMap"], List["ChainMap"]]:
    """The injections and projections of a complex whose slots are the
    block sums of the parts' slots, in the order given: an identity block
    at each part's offset, slot by slot and vertex by vertex. Raises
    ValueError when the parts' slot dimension vectors do not add up to
    the total's."""
    field, t, nv = total.ctx.field, total.t, len(total.ctx.quiver.vertices)
    if any(part.t != t for part in parts):
        raise ValueError(f"every summand must be {t}-periodic")
    summed = [tuple(sum(part.slots[i].dims[v] for part in parts) for v in range(nv)) for i in range(t)]
    if summed != total.dims:
        raise ValueError(f"the summands' slot dimension vectors add up to {summed}, not to the total's {total.dims}")
    offsets = [[0] * nv for _ in range(t)]
    injections, projections = [], []
    for part in parts:
        injs, projs = [], []
        for piece, whole, offset in zip(part.slots, total.slots, offsets):
            inj, proj = [], []
            for v, (r, n) in enumerate(zip(piece.dims, whole.dims)):
                inj.append(MatrixFp._trusted(field, [[int(c == offset[v] + j) for c in range(n)] for j in range(r)], n))
                proj.append(MatrixFp._trusted(field, [[int(c == offset[v] + j) for j in range(r)] for c in range(n)], r))
                offset[v] += r
            injs.append(RepMap(piece, whole, inj, check=False))
            projs.append(RepMap(whole, piece, proj, check=False))
        injections.append(ChainMap(part, total, injs, check=False))
        projections.append(ChainMap(total, part, projs, check=False))
    return injections, projections


class ChainMap:
    """A slotwise morphism of cycle complexes of one period."""

    __slots__ = ("source", "target", "comps")

    def __init__(self, source: CycleComplex, target: CycleComplex, comps: Sequence[RepMap], check: bool = True):
        self.source = source
        self.target = target
        self.comps = tuple(comps)
        if not len(self.comps) == source.t == target.t:
            raise ValueError("need one component per slot, between complexes of one period")
        if check:
            for i in range(source.t):
                j = (i + 1) % source.t
                lhs = source.diffs[i].then(self.comps[j])
                rhs = self.comps[i].then(target.diffs[i])
                if lhs.key() != rhs.key():
                    raise ValueError(f"chain square {i} does not commute")

    @classmethod
    def zero(cls, source: CycleComplex, target: CycleComplex) -> "ChainMap":
        return cls(source, target, [RepMap.zero_map(a, b) for a, b in zip(source.slots, target.slots)], check=False)

    @classmethod
    def identity(cls, c: CycleComplex) -> "ChainMap":
        return cls(c, c, [RepMap.identity(s) for s in c.slots], check=False)

    def then(self, other: "ChainMap") -> "ChainMap":
        return ChainMap(self.source, other.target, [a.then(b) for a, b in zip(self.comps, other.comps)], check=False)

    def add(self, other: "ChainMap") -> "ChainMap":
        return ChainMap(self.source, self.target, [a.add(b) for a, b in zip(self.comps, other.comps)], check=False)

    def scale(self, c: int) -> "ChainMap":
        return ChainMap(self.source, self.target, [m.scale(c) for m in self.comps], check=False)

    def shift(self, n: int = 1) -> "ChainMap":
        """The same map between the shifted complexes, its components
        rotated with their slots."""
        n %= self.source.t
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
        return f"ChainMap({self.source.dims} -> {self.target.dims})"


def _entry_columns(flats: Sequence[Sequence[int]], width: int) -> List[Tuple[int, ...]]:
    """Flat vectors of length ``width`` read as columns: column e holds
    entry e of each."""
    return list(zip(*flats)) or [()] * width


def _rref_coords(sub: Subspace, v: Sequence[int], outside: str) -> List[int]:
    """The coordinates of v over the rref basis of sub: its entries at
    the pivot columns. Raises ValueError(outside) when v is not in sub."""
    if any(sub.reduce(v)):
        raise ValueError(outside)
    return [v[c] for c in sub.pivots]


class HomSpace:
    """Hom between two cycle complexes of one period, before and after
    homotopy.

    A chain map is a vector of coefficients over the slotwise hom bases
    (the spans ``HomExt.span`` of :meth:`RepContext.hom_ext`, rref in flat
    entries, whose rows ``HomExt.hom`` unflattens in order), and the
    chain maps are the kernel span of the chain condition in those
    coefficients (:meth:`MatrixFp.kernel_and_image`). Every basis here is
    rref as elimination made it, so coordinates are read off at its pivot
    columns, after a membership check. The boundary of the
    homotopy s: X_i -> Y_{i-1} is s d^Y_{i-1} at slot i plus
    d^X_{i-1} s at slot i - 1; one such row per homotopy basis map spans
    the boundary subspace, in chain-basis coordinates. A class has
    coordinates on the quotient, at the free columns of the boundary
    subspace; :attr:`unit_maps` are the chain-basis maps at those
    columns, and :meth:`rep_map` combines them linearly mod p.
    """

    def __init__(self, ctx: RepContext, source: CycleComplex, target: CycleComplex):
        if source.t != target.t:
            raise ValueError(f"no chain maps from period {source.t} to period {target.t}")
        self.ctx = ctx
        self.source = source
        self.target = target
        field, t = ctx.field, source.t
        hom_exts = [ctx.hom_ext(a, b) for a, b in zip(source.slots, target.slots)]
        bases = [he.hom for he in hom_exts]
        self._bases = [he.span for he in hom_exts]
        self._offsets = [sum(len(b) for b in bases[:i]) for i in range(t)]
        nunk = sum(len(b) for b in bases)
        # chain condition: for each slot, d^X_i f_{i+1} - f_i d^Y_i == 0,
        # expanded over the slotwise bases, one block of columns per slot
        p = field.p
        widths = [sum(map(operator.mul, source.slots[i].dims, target.slots[(i + 1) % t].dims)) for i in range(t)]
        rows = [[0] * sum(widths) for _ in range(nunk)]
        for i in range(t):
            j, base = (i + 1) % t, sum(widths[:i])
            terms = [(self._offsets[j] + k, 1, source.diffs[i].then(b)) for k, b in enumerate(bases[j])]
            terms += [(self._offsets[i] + k, -1, b.then(target.diffs[i])) for k, b in enumerate(bases[i])]
            for r, sign, f in terms:
                for c, x in enumerate(f.flat()):
                    if x:
                        rows[r][base + c] = (rows[r][base + c] + sign * x) % p
        self._chain = MatrixFp._trusted(field, rows, sum(widths)).kernel_and_image()[0]
        # homotopy basis maps X_i -> Y_{i-1}, and their boundaries
        self._htp = [(i, s) for i in range(t) for s in ctx.hom_ext(source.slots[i], target.slots[i - 1]).hom]
        self._boundary = Subspace(field, self.chain_dim, [self._chain_coords(self._boundary_parts(i, s)) for i, s in self._htp])

    def _boundary_parts(self, i: int, s: RepMap) -> List[Tuple[int, RepMap]]:
        """The boundary of the homotopy s: X_i -> Y_{i-1} as its two
        (slot, component) pieces."""
        return [(i, s.then(self.target.diffs[i - 1])), ((i - 1) % self.source.t, self.source.diffs[i - 1].then(s))]

    def _chain_coords(self, pieces: Iterable[Tuple[int, RepMap]]) -> List[int]:
        """Coordinates over the chain-map basis of the sum of the given
        (slot, component) pieces."""
        p = self.ctx.field.p
        coeffs = [0] * self._chain.ambient
        for s, m in pieces:
            for k, x in enumerate(_rref_coords(self._bases[s], m.flat(), "component is not in the slot hom space"), self._offsets[s]):
                coeffs[k] = (coeffs[k] + x) % p
        return _rref_coords(self._chain, coeffs, "map does not satisfy the chain condition")

    @property
    def chain_dim(self) -> int:
        """Dimension of the space of chain maps (before homotopy)."""
        return self._chain.dim

    @property
    def dim(self) -> int:
        """Dimension of Hom modulo homotopy."""
        return self._boundary.codim

    def class_coords(self, f: ChainMap) -> Tuple[int, ...]:
        return self._boundary.quotient_coords(self._chain_coords(enumerate(f.comps)))

    def _assemble(self, columns: Sequence[Sequence[Sequence[int]]], coeffs: Sequence[Sequence[int]]) -> ChainMap:
        """The chain map whose slot s has flat entry e the combination
        coeffs[s] . columns[s][e] mod p."""
        field, p = self.ctx.field, self.ctx.field.p
        comps = []
        for source_slot, target_slot, cols, cs in zip(self.source.slots, self.target.slots, columns, coeffs):
            flat = [sum(map(operator.mul, cs, col)) % p for col in cols]
            mats, pos = [], 0
            for nr, nc in zip(source_slot.dims, target_slot.dims):
                mats.append(MatrixFp._trusted(field, [flat[pos + r * nc : pos + (r + 1) * nc] for r in range(nr)], nc))
                pos += nr * nc
            comps.append(RepMap(source_slot, target_slot, mats, check=False))
        return ChainMap(self.source, self.target, comps, check=False)

    @functools.cached_property
    def unit_maps(self) -> List[ChainMap]:
        """The representatives of the unit classes, in coordinate order:
        the chain-basis maps at the free columns of the boundary space."""
        columns = [_entry_columns(sub.basis.rows, sub.ambient) for sub in self._bases]
        return [
            self._assemble(columns, [row[o : o + sub.dim] for o, sub in zip(self._offsets, self._bases)])
            for row in (self._chain.basis.rows[c] for c in self._boundary.free_columns)
        ]

    @functools.cached_property
    def _unit_columns(self) -> List[List[Tuple[int, ...]]]:
        """Per slot, the flat entries of the unit maps as columns."""
        return [_entry_columns([u.comps[s].flat() for u in self.unit_maps], sub.ambient) for s, sub in enumerate(self._bases)]

    def rep_map(self, coords: Sequence[int]) -> ChainMap:
        """The representative of class coordinates: the combination of
        :attr:`unit_maps` by them, mod p."""
        if len(coords) != self.dim:
            raise ValueError(f"{len(coords)} class coordinates for a Hom space of dimension {self.dim}")
        return self._assemble(self._unit_columns, [coords] * self.source.t)

    def morphisms(self) -> Iterator[Tuple[Tuple[int, ...], ChainMap]]:
        """Every morphism class, coordinates in lexicographic order, with
        its representative :meth:`rep_map`. The context's ``enum_cap``
        bounds the number of classes."""
        p, limit = self.ctx.field.p, self.ctx.enum_cap
        if p**self.dim > limit:
            raise BudgetExceeded(
                f"class enumeration of size {p**self.dim} exceeds cap {limit}: slot dimension vectors"
                f" {self.source.dims} -> {self.target.dims}"
            )
        for coords in itertools.product(range(p), repeat=self.dim):
            yield coords, self.rep_map(coords)

    def is_null_homotopic(self, f: ChainMap) -> bool:
        return not any(self.class_coords(f))

    def random_boundary(self, coeffs: Sequence[int]) -> ChainMap:
        """The boundary of the homotopy with the given parameter vector,
        read cyclically over the homotopy basis maps.

        Used by invariance tests to perturb representatives within a
        homotopy class.
        """
        comps = [RepMap.zero_map(a, b) for a, b in zip(self.source.slots, self.target.slots)]
        for k, (i, s) in enumerate(self._htp):
            c = coeffs[k % len(coeffs)] if coeffs else 0
            if c % self.ctx.field.p:
                for slot, m in self._boundary_parts(i, s.scale(c)):
                    comps[slot] = comps[slot].add(m)
        return ChainMap(self.source, self.target, comps, check=False)


def chain_hom_space(ctx: RepContext, source: CycleComplex, target: CycleComplex) -> HomSpace:
    """Morphisms source -> target modulo homotopy, computed literally."""
    return HomSpace(ctx, source, target)


def mapping_cone(ctx: RepContext, u: ChainMap) -> CycleComplex:
    """The cone of u: X -> Y, with the slots of X[1] + Y and the
    differential of block rows [-d^X, u] over [0, d^Y]. Its triangle maps
    incl: Y -> cone and proj: cone -> X[1], completing u to the standard
    triangle X -u-> Y -incl-> cone -proj-> X[1], are the second injection
    and the first projection of ``summand_maps(cone, [X.shift(1), Y])``."""
    x, y, t = u.source, u.target, u.source.t
    p = ctx.field.p
    slots = [ctx.block_sum([x.slots[(i + 1) % t], y.slots[i]]) for i in range(t)]
    diffs = []
    for i in range(t):
        j = (i + 1) % t
        comps = []
        for v in range(len(ctx.quiver.vertices)):
            # the block rows [-d^X, u] over [0, d^Y]
            dx, uv, dy = x.diffs[j].comps[v], u.comps[j].comps[v], y.diffs[i].comps[v]
            rows = [[(-a) % p for a in xr] + ur for xr, ur in zip(dx.rows, uv.rows)]
            rows += [[0] * dx.ncols + yr for yr in dy.rows]
            comps.append(MatrixFp._trusted(ctx.field, rows, dx.ncols + dy.ncols))
        diffs.append(RepMap(slots[i], slots[j], comps, check=False))
    return CycleComplex(ctx, slots, diffs, check=False)


def normal_pieces(ctx: RepContext, c: CycleComplex) -> Tuple[Rep, ...]:
    """Module pieces of the normal form of c, indexed by shift.

    Over a hereditary algebra a periodic complex of projectives is the
    sum of its shifted homology, so the piece at shift s is the homology
    ker d_i / im d_{i-1} at slot i = -s mod t, the period of c.
    """
    pieces = []
    for s in range(c.t):
        i = -s % c.t
        _, incl = ctx.kernel(c.diffs[i])
        homology, _ = ctx.cokernel(corestrict(c.diffs[i - 1], incl))
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
        for a in q.arrows:
            if a.target == v:
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
    # one projective and path basis per vertex, shared by its generators
    bases = {v: _projective_basis(ctx, v) for v, _ in gens}
    pieces = [bases[v][0] for v, _ in gens]
    p0 = ctx.block_sum(pieces)
    # map each projective piece into x: generator path e_v |-> rep,
    # longer path p*a |-> (image so far) @ X_a
    piece_maps = []
    for (v, repvec), piece in zip(gens, pieces):
        comps = []
        _, paths, by_end = bases[v]
        vec_of: Dict[Path, List[int]] = {(): repvec}
        for pth in paths[1:]:
            vec_of[pth] = MatrixFp(ctx.field, [vec_of[pth[:-1]]]).mul(x.mats[pth[-1].name]).rows[0]
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


def wrap_module(ctx: RepContext, rep: Rep, shift: int = 0, *, t: int) -> CycleComplex:
    """The standard t-periodic complex carrying a module at the given
    shift.

    A projective module becomes a stalk in slot 0; anything else sits as
    its minimal resolution, cover in slot 0 and syzygy in the last slot
    with the resolution map connecting them, so t must be at least 2.
    Shifting then rotates the result into place.
    """
    res = proj_resolution(ctx, rep)
    if res.p1.is_zero():
        base = CycleComplex.stalk(ctx, res.p0, 0, t=t)
    else:
        slots = [res.p0] + [ctx.zero_rep()] * (t - 2) + [res.p1]
        diffs = [RepMap.zero_map(slots[i], slots[i + 1]) for i in range(t - 1)] + [res.d]
        base = CycleComplex(ctx, slots, diffs, check=False)
    return base.shift(shift)


def find_homotopy_iso(ctx: RepContext, a: CycleComplex, b: CycleComplex) -> Optional[ChainMap]:
    """Search for an isomorphism a -> b in the homotopy category.

    Walks every pair of morphism classes a -> b -> a, within the
    context's ``enum_cap``, and tests two-sided invertibility modulo
    homotopy. Intended for small verification scopes, not the hot path.
    """
    fwd = chain_hom_space(ctx, a, b)
    bwd = chain_hom_space(ctx, b, a)
    pairs = ctx.field.p ** (fwd.dim + bwd.dim)
    if pairs > ctx.enum_cap:
        raise BudgetExceeded(
            f"{pairs} pairs of morphism classes exceed cap {ctx.enum_cap}: slot dimension vectors"
            f" {a.dims} and {b.dims}"
        )
    ends_a = chain_hom_space(ctx, a, a)
    ends_b = chain_hom_space(ctx, b, b)
    id_a = ends_a.class_coords(ChainMap.identity(a))
    id_b = ends_b.class_coords(ChainMap.identity(b))
    for _, f in fwd.morphisms():
        for _, g in bwd.morphisms():
            if ends_a.class_coords(f.then(g)) == id_a and ends_b.class_coords(g.then(f)) == id_b:
                return f
    return None


class ChainModel:
    """The objects of a :class:`perihall.category.PeriodicContext` as
    cycle complexes: each (class, shift) part wrapped as the minimal
    resolution of its class representative, and an object key realized
    as the direct sum of its parts, at the context's period. Hom between
    two keys is the :class:`HomSpace` between their complexes. Wrapped
    parts, realized keys and Hom spaces are cached for the life of the
    model."""

    def __init__(self, pctx: "PeriodicContext"):
        self.pctx = pctx
        self.ctx = pctx.ctx
        self._wrap_cache: Dict[Part, CycleComplex] = {}
        self._realize_cache: Dict[ObjKey, CycleComplex] = {}
        self._hom_spaces: Dict[Tuple[ObjKey, ObjKey], HomSpace] = {}

    def wrap_part(self, part: Part) -> CycleComplex:
        hit = self._wrap_cache.get(part)
        if hit is None:
            cid, s = part
            self._wrap_cache[part] = hit = wrap_module(self.ctx, self.ctx.class_rep(cid), s, t=self.pctx.t)
        return hit

    def realize(self, key: ObjKey) -> CycleComplex:
        """The complex of an object key: the direct sum of its wrapped
        parts, in key order."""
        hit = self._realize_cache.get(key)
        if hit is None:
            parts = [self.wrap_part(part) for part in key]
            self._realize_cache[key] = hit = direct_sum_complexes(self.ctx, parts, t=self.pctx.t)
        return hit

    def hom_space(self, x: ObjKey, y: ObjKey) -> HomSpace:
        """Hom(x, y): chain maps modulo homotopy between the realized
        complexes."""
        hit = self._hom_spaces.get((x, y))
        if hit is None:
            self._hom_spaces[(x, y)] = hit = chain_hom_space(self.ctx, self.realize(x), self.realize(y))
        return hit
