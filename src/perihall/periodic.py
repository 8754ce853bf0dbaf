"""3-cycle complexes of quiver representations.

A 3-cycle complex has three slots of representations arranged in a
cycle, with a differential from each slot to the next and consecutive
composites vanishing. Slot i carries stalk shift (3 - i) % 3: a module
sitting alone in slot 0 is "the module", in slot 2 it is the module
shifted once, in slot 1 shifted twice. Shifting a complex by one rotates
the slots and negates every differential.

Morphisms are slotwise representation maps commuting with the
differentials; two are identified when they differ by a boundary
s d + d s built from slotwise maps one step back. Everything here is a
literal linear-algebra computation over F_p; no formulas stand in for
the chain-level objects.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional, Sequence, Tuple

from .gfp import MatrixFp, Subspace
from .reps import BudgetExceeded, Rep, RepContext, RepMap

__all__ = [
    "CycleComplex",
    "ChainMap",
    "Homotopy",
    "HomSpace",
    "chain_hom_space",
    "direct_sum_complexes",
    "mapping_cone",
    "normal_pieces",
    "wrap_module",
    "find_homotopy_iso",
]

PERIOD = 3


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
        zero = ctx.zero_rep()
        slots = [zero, zero, zero]
        slots[slot % PERIOD] = rep
        diffs = [RepMap.zero_map(slots[i], slots[(i + 1) % PERIOD]) for i in range(PERIOD)]
        return cls(ctx, slots, diffs, check=False)

    def shift(self, n: int = 1) -> "CycleComplex":
        """Rotate slots by n and negate differentials n times."""
        n %= PERIOD
        out = self
        for _ in range(n):
            slots = (out.slots[1], out.slots[2], out.slots[0])
            diffs = (out.diffs[1].neg(), out.diffs[2].neg(), out.diffs[0].neg())
            out = CycleComplex(out.ctx, slots, diffs, check=False)
        return out

    def total_dim(self) -> int:
        return sum(s.total_dim for s in self.slots)

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
        n %= PERIOD
        out = self
        for _ in range(n):
            out = ChainMap(
                out.source.shift(1),
                out.target.shift(1),
                (out.comps[1], out.comps[2], out.comps[0]),
                check=False,
            )
        return out

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


def normal_pieces(ctx: RepContext, c: CycleComplex) -> Tuple[Rep, Rep, Rep]:
    """Module pieces of the normal form of c: (shift 0, shift 1, shift 2).

    The recipe: with differentials d0: X0 -> X1, d1: X1 -> X2,
    d2: X2 -> X0, form K = ker d0, C = coker d1, the middle subquotient
    H = ker d1 / im d0, and the induced map g: C -> K coming from d2.
    The normal form is coker(g) at shift 0, ker(g) at shift 1, H at
    shift 2.
    """
    d0, d1, d2 = c.diffs
    k_rep, k_incl = ctx.kernel(d0)
    c_rep, c_proj = ctx.cokernel(d1)
    # middle subquotient
    k2_rep, k2_incl = ctx.kernel(d1)
    into_k2 = ctx.corestrict(d0, k2_incl)
    h_rep, _ = ctx.cokernel(into_k2)
    # induced map on the ends
    to_k = ctx.corestrict(d2, k_incl)  # X2 -> K
    g = ctx.descend(to_k, c_proj)  # C -> K
    coker_g, _ = ctx.cokernel(g)
    ker_g, _ = ctx.kernel(g)
    return coker_g, ker_g, h_rep


def wrap_module(ctx: RepContext, rep: Rep, shift: int = 0) -> CycleComplex:
    """The standard complex carrying a module at the given shift.

    A projective module becomes a stalk in slot 0; anything else sits as
    its minimal resolution, cover in slot 0 and syzygy in slot 2 with
    the resolution map connecting them. Shifting then rotates the result
    into place.
    """
    res = ctx.proj_resolution(rep)
    if res.p1.is_zero():
        base = CycleComplex.stalk(ctx, res.p0, 0)
    else:
        zero = ctx.zero_rep()
        slots = (res.p0, zero, res.p1)
        diffs = (
            RepMap.zero_map(res.p0, zero),
            RepMap.zero_map(zero, res.p1),
            res.d,
        )
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
