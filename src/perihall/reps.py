"""Quiver representations over a prime field.

A representation assigns a finite F_p-space to every vertex and a matrix
to every arrow. Everything follows the row convention from
:mod:`perihall.gfp`: the matrix of an arrow u -> w has shape
dim(u) x dim(w) and acts on row vectors from the right.

The module provides the abelian-category toolkit (hom spaces, kernels,
images, cokernels), Krull-Schmidt decomposition with an explicit
direct-sum witness, minimal projective resolutions and dim Ext^1, plus
the counting utilities the Hall layer sits on (automorphism group
orders, representative enumeration, classical submodule counts). The
path algebra of an acyclic quiver is hereditary, so dim Ext^1 is read
off the Euler form rather than built from cocycles. |Aut x| is the
number of units of the finite algebra End(x), counted from dim End(x)
and the Krull-Schmidt blocks of its semisimple quotient by
:func:`perihall.gfp.unit_group_order`, the count the periodic category
applies to its objects too.

Iso classes follow Krull-Schmidt. Every indecomposable class gets an
integer id, and a module's iso class is the sorted tuple of the class
ids of its indecomposable summands, :meth:`RepContext.summand_ids`; the
zero module's is the empty tuple. That tuple is the one place an iso
class is decided: isomorphism tests, representative enumeration and
automorphism counts all read it. The registry also lists the zero and
decomposable classes that :meth:`RepContext.enumerate_reps` meets,
found by their tuple and never by an isomorphism test; object keys name
indecomposable ids only. :func:`perihall.checks.iso_between` builds an
explicit isomorphism by matching summands.

State that must be shared between calls (class registry, caches) lives
in :class:`RepContext`; representations themselves are plain values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .gfp import FieldSpec, MatrixFp, Subspace, unit_group_order
from .quiver import Quiver

__all__ = [
    "Rep",
    "RepMap",
    "RepContext",
    "Decomposition",
    "Resolution",
    "BudgetExceeded",
]


class BudgetExceeded(RuntimeError):
    """An enumeration would exceed its explicit cap.

    Raised instead of silently truncating; callers that can afford more
    should raise the cap, not catch this.
    """


class Rep:
    """A representation of a quiver over F_p."""

    __slots__ = ("field", "quiver", "dims", "mats", "_key")

    def __init__(self, field: FieldSpec, quiver: Quiver, dims: Sequence[int], mats: Dict[str, MatrixFp]):
        self.field = field
        self.quiver = quiver
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != len(quiver.vertices):
            raise ValueError("dimension vector length mismatch")
        if any(d < 0 for d in self.dims):
            raise ValueError("negative dimension")
        self.mats = {}
        for a in quiver.arrows:
            m = mats.get(a.name)
            du = self.dims[quiver.vertex_index(a.source)]
            dw = self.dims[quiver.vertex_index(a.target)]
            if m is None:
                m = MatrixFp.zeros(field, du, dw)
            if m.nrows != du or m.ncols != dw:
                raise ValueError(f"arrow {a.name} matrix has shape {m.nrows}x{m.ncols}, wanted {du}x{dw}")
            self.mats[a.name] = m
        self._key = None

    @classmethod
    def zero(cls, field: FieldSpec, quiver: Quiver) -> "Rep":
        return cls(field, quiver, [0] * len(quiver.vertices), {})

    @classmethod
    def simple(cls, field: FieldSpec, quiver: Quiver, vertex: str) -> "Rep":
        dims = [0] * len(quiver.vertices)
        dims[quiver.vertex_index(vertex)] = 1
        return cls(field, quiver, dims, {})

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def key(self) -> Tuple:
        """Content key: dimension vector plus all arrow matrices."""
        if self._key is None:
            self._key = (self.dims, tuple(self.mats[a.name].key() for a in self.quiver.arrows))
        return self._key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Rep) and other.quiver == self.quiver and other.field == self.field and other.key() == self.key()

    def __hash__(self) -> int:
        return hash((self.field.p, self.key()))

    def __repr__(self) -> str:
        return f"Rep(dims={self.dims} over F_{self.field.p})"


class RepMap:
    """A morphism of representations: one matrix per vertex."""

    __slots__ = ("source", "target", "comps")

    def __init__(self, source: Rep, target: Rep, comps: Sequence[MatrixFp], check: bool = True):
        self.source = source
        self.target = target
        self.comps = tuple(comps)
        if len(self.comps) != len(source.quiver.vertices):
            raise ValueError("component count mismatch")
        for i, c in enumerate(self.comps):
            if c.nrows != source.dims[i] or c.ncols != target.dims[i]:
                raise ValueError(f"component {i} has shape {c.nrows}x{c.ncols}")
        if check and not self._intertwines():
            raise ValueError("not a morphism: arrow squares do not commute")

    def _intertwines(self) -> bool:
        q = self.source.quiver
        for a in q.arrows:
            u = q.vertex_index(a.source)
            w = q.vertex_index(a.target)
            lhs = self.comps[u].mul(self.target.mats[a.name])
            rhs = self.source.mats[a.name].mul(self.comps[w])
            if lhs != rhs:
                return False
        return True

    @classmethod
    def identity(cls, x: Rep) -> "RepMap":
        return cls(x, x, [MatrixFp.identity(x.field, d) for d in x.dims], check=False)

    @classmethod
    def zero_map(cls, x: Rep, y: Rep) -> "RepMap":
        return cls(x, y, [MatrixFp.zeros(x.field, a, b) for a, b in zip(x.dims, y.dims)], check=False)

    def then(self, other: "RepMap") -> "RepMap":
        """Composition self-then-other."""
        if other.source is not self.target and other.source != self.target:
            raise ValueError("composition mismatch")
        return RepMap(self.source, other.target, [a.mul(b) for a, b in zip(self.comps, other.comps)], check=False)

    def add(self, other: "RepMap") -> "RepMap":
        return RepMap(self.source, self.target, [a.add(b) for a, b in zip(self.comps, other.comps)], check=False)

    def sub(self, other: "RepMap") -> "RepMap":
        return RepMap(self.source, self.target, [a.sub(b) for a, b in zip(self.comps, other.comps)], check=False)

    def neg(self) -> "RepMap":
        return RepMap(self.source, self.target, [c.neg() for c in self.comps], check=False)

    def scale(self, c: int) -> "RepMap":
        return RepMap(self.source, self.target, [m.scale(c) for m in self.comps], check=False)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def is_iso(self) -> bool:
        return all(c.is_invertible() for c in self.comps)

    def inverse(self) -> "RepMap":
        return RepMap(self.target, self.source, [c.inverse() for c in self.comps], check=False)

    def flat(self) -> List[int]:
        out: List[int] = []
        for c in self.comps:
            out.extend(c.flat())
        return out

    def key(self) -> Tuple:
        return tuple(c.key() for c in self.comps)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RepMap) and other.key() == self.key() and other.source == self.source and other.target == self.target

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"RepMap({self.source.dims} -> {self.target.dims})"


@dataclass
class Decomposition:
    """Indecomposable summands with an explicit direct-sum witness."""

    summands: List[Rep]
    iso: RepMap  # direct_sum(summands) -> original, invertible
    sum_rep: Rep
    injections: List[RepMap]  # summand -> sum_rep
    projections: List[RepMap]  # sum_rep -> summand


@dataclass
class Resolution:
    """A minimal projective resolution 0 -> P1 -> P0 -> X -> 0."""

    x: Rep
    p1: Rep
    p0: Rep
    d: RepMap  # P1 -> P0, injective
    eps: RepMap  # P0 -> X, projective cover


def _direct_sum(field: FieldSpec, quiver: Quiver, reps: Sequence[Rep]) -> Tuple[Rep, List[RepMap], List[RepMap]]:
    nv = len(quiver.vertices)
    dims = [0] * nv
    offsets: List[Tuple[int, ...]] = []
    for r in reps:
        offsets.append(tuple(dims))
        for i in range(nv):
            dims[i] += r.dims[i]
    mats = {}
    for a in quiver.arrows:
        u = quiver.vertex_index(a.source)
        w = quiver.vertex_index(a.target)
        rows: List[List[int]] = []
        for k, r in enumerate(reps):
            block = r.mats[a.name]
            pre = offsets[k][w]
            post = dims[w] - pre - r.dims[w]
            for row in block.rows:
                rows.append([0] * pre + row + [0] * post)
        mats[a.name] = MatrixFp._trusted(field, rows, dims[w])
    total = Rep(field, quiver, dims, mats)
    injections = []
    projections = []
    for k, r in enumerate(reps):
        inj_comps = []
        proj_comps = []
        for i in range(nv):
            inj = MatrixFp.zeros(field, r.dims[i], dims[i])
            proj = MatrixFp.zeros(field, dims[i], r.dims[i])
            for j in range(r.dims[i]):
                inj.rows[j][offsets[k][i] + j] = 1
                proj.rows[offsets[k][i] + j][j] = 1
            inj_comps.append(inj)
            proj_comps.append(proj)
        injections.append(RepMap(r, total, inj_comps, check=False))
        projections.append(RepMap(total, r, proj_comps, check=False))
    return total, injections, projections


class RepContext:
    """Shared state for one (quiver, field) pair.

    Holds the iso-class registry and every cache. All enumeration caps
    live here and exceeding one raises :class:`BudgetExceeded`.
    """

    def __init__(
        self,
        quiver: Quiver,
        field: FieldSpec,
        enum_cap: int = 1 << 20,
    ):
        self.quiver = quiver
        self.field = field
        self.enum_cap = enum_cap
        self._hom_cache: Dict[Tuple, List[RepMap]] = {}
        self._decomp_cache: Dict[Tuple, Decomposition] = {}
        self._aut_cache: Dict[Tuple, int] = {}
        self._class_of_content: Dict[Tuple, int] = {}
        self._classes: List[Rep] = []  # class id -> canonical representative
        self._class_of_type: Dict[Tuple[int, ...], int] = {}  # summand ids -> id of a listed zero or decomposable class
        self._resolution_cache: Dict[Tuple, Resolution] = {}
        self._projective_cache: Dict[str, Rep] = {}

    # -- elementary constructions ------------------------------------

    def zero_rep(self) -> Rep:
        return Rep.zero(self.field, self.quiver)

    def simple(self, vertex: str) -> Rep:
        return Rep.simple(self.field, self.quiver, vertex)

    def direct_sum(self, reps: Sequence[Rep]) -> Tuple[Rep, List[RepMap], List[RepMap]]:
        return _direct_sum(self.field, self.quiver, list(reps))

    def projective(self, vertex: str) -> Rep:
        """The projective cover of the simple at ``vertex``; basis given
        by paths out of the vertex."""
        if vertex in self._projective_cache:
            return self._projective_cache[vertex]
        q = self.quiver
        paths = q.paths_from(vertex)
        by_end: Dict[str, List[Tuple]] = {v: [] for v in q.vertices}
        for pth in paths:
            end = pth[-1].target if pth else vertex
            by_end[end].append(pth)
        dims = [len(by_end[v]) for v in q.vertices]
        mats = {}
        for a in q.arrows:
            src_paths = by_end[a.source]
            tgt_paths = by_end[a.target]
            tgt_index = {pth: i for i, pth in enumerate(tgt_paths)}
            m = MatrixFp.zeros(self.field, len(src_paths), len(tgt_paths))
            for i, pth in enumerate(src_paths):
                m.rows[i][tgt_index[pth + (a,)]] = 1
            mats[a.name] = m
        rep = Rep(self.field, q, dims, mats)
        self._projective_cache[vertex] = rep
        return rep

    # -- hom spaces ---------------------------------------------------

    def hom_basis(self, x: Rep, y: Rep) -> List[RepMap]:
        """Canonical basis of Hom(x, y)."""
        ck = (x.key(), y.key())
        hit = self._hom_cache.get(ck)
        if hit is not None:
            return hit
        q = self.quiver
        nv = len(q.vertices)
        # unknown layout: components in vertex order, row-major entries
        sizes = [x.dims[i] * y.dims[i] for i in range(nv)]
        offsets = [0] * nv
        run = 0
        for i in range(nv):
            offsets[i] = run
            run += sizes[i]
        nunk = run
        # equations: one block per arrow, f_u @ Y_a == X_a @ f_w
        eq_cols = 0
        eq_offsets = []
        for a in q.arrows:
            u = q.vertex_index(a.source)
            w = q.vertex_index(a.target)
            eq_offsets.append(eq_cols)
            eq_cols += x.dims[u] * y.dims[w]
        rows = [[0] * eq_cols for _ in range(nunk)]
        p = self.field.p
        for ai, a in enumerate(q.arrows):
            u = q.vertex_index(a.source)
            w = q.vertex_index(a.target)
            base = eq_offsets[ai]
            ya = y.mats[a.name]
            xa = x.mats[a.name]
            dyw = y.dims[w]
            # + (f_u @ Y_a)[i, k] picks up Y_a[j, k] from unknown f_u[i, j]
            for i in range(x.dims[u]):
                for j in range(y.dims[u]):
                    unk = offsets[u] + i * y.dims[u] + j
                    row = rows[unk]
                    for k in range(dyw):
                        if ya.rows[j][k]:
                            row[base + i * dyw + k] = (row[base + i * dyw + k] + ya.rows[j][k]) % p
            # - (X_a @ f_w)[i, k] picks up X_a[i, i2] from unknown f_w[i2, k]
            for i2 in range(x.dims[w]):
                for k in range(dyw):
                    unk = offsets[w] + i2 * dyw + k
                    row = rows[unk]
                    for i in range(x.dims[u]):
                        if xa.rows[i][i2]:
                            row[base + i * dyw + k] = (row[base + i * dyw + k] - xa.rows[i][i2]) % p
        if nunk == 0:
            basis: List[RepMap] = []
        else:
            m = MatrixFp(self.field, rows, ncols=eq_cols)
            ker = m.kernel_basis()
            basis = [self._unflatten_map(x, y, krow, offsets) for krow in ker.rows]
        self._hom_cache[ck] = basis
        return basis

    def _unflatten_map(self, x: Rep, y: Rep, flat: Sequence[int], offsets: Sequence[int]) -> RepMap:
        comps = []
        for i in range(len(x.dims)):
            body = flat[offsets[i] : offsets[i] + x.dims[i] * y.dims[i]]
            comps.append(MatrixFp.from_flat(self.field, list(body), x.dims[i], y.dims[i]))
        return RepMap(x, y, comps, check=False)

    def hom_dim(self, x: Rep, y: Rep) -> int:
        return len(self.hom_basis(x, y))

    def map_from_coeffs(self, basis: Sequence[RepMap], coeffs: Sequence[int]) -> RepMap:
        if not basis:
            raise ValueError("empty basis")
        x, y = basis[0].source, basis[0].target
        acc = RepMap.zero_map(x, y)
        for c, b in zip(coeffs, basis):
            if c % self.field.p:
                acc = acc.add(b.scale(c))
        return acc

    # -- kernels, images, cokernels ----------------------------------

    def kernel(self, f: RepMap) -> Tuple[Rep, RepMap]:
        built = self.subrep_from_rows(f.source, [c.kernel_basis() for c in f.comps])
        if built is None:
            raise AssertionError("kernel is not arrow-stable; convention bug")
        return built

    def image(self, f: RepMap) -> Tuple[Rep, RepMap]:
        built = self.subrep_from_rows(f.target, [c.row_space_basis() for c in f.comps])
        if built is None:
            raise AssertionError("image is not arrow-stable; convention bug")
        return built

    def cokernel(self, f: RepMap) -> Tuple[Rep, RepMap]:
        q = self.quiver
        y = f.target
        subs = [Subspace(self.field, y.dims[i], f.comps[i].rows) for i in range(len(y.dims))]
        dims = [s.codim for s in subs]
        proj_comps = []
        for i, s in enumerate(subs):
            rows = []
            for j in range(y.dims[i]):
                unit = [0] * y.dims[i]
                unit[j] = 1
                rows.append(list(s.quotient_coords(unit)))
            proj_comps.append(MatrixFp(self.field, rows, ncols=dims[i]))
        mats = {}
        for a in q.arrows:
            u = q.vertex_index(a.source)
            w = q.vertex_index(a.target)
            # representative basis of the quotient at u: unit vectors at free columns
            rows = []
            for c in subs[u].free_columns:
                unit = [0] * y.dims[u]
                unit[c] = 1
                img = MatrixFp(self.field, [unit]).mul(y.mats[a.name]).rows[0]
                rows.append(list(subs[w].quotient_coords(img)))
            mats[a.name] = MatrixFp(self.field, rows, ncols=dims[w]) if rows else MatrixFp.zeros(self.field, 0, dims[w])
        cok = Rep(self.field, q, dims, mats)
        proj = RepMap(y, cok, proj_comps, check=False)
        return cok, proj

    def corestrict(self, f: RepMap, incl: RepMap) -> RepMap:
        """Factor f: X -> Y through a subobject incl: S -> Y."""
        comps = []
        for fc, ic in zip(f.comps, incl.comps):
            g = ic.solve_matrix(fc)
            if g is None:
                raise ValueError("map does not land in the subobject")
            comps.append(g)
        return RepMap(f.source, incl.source, comps, check=False)

    # -- isomorphism and decomposition -------------------------------

    def _iso_among_basis(self, x: Rep, y: Rep) -> Optional[RepMap]:
        """An isomorphism x -> y among the basis of Hom(x, y), or None.

        Complete for indecomposables: the non-invertible maps between
        them form a proper subspace whenever an iso exists, and a basis
        cannot sit inside a proper subspace."""
        for h in self.hom_basis(x, y):
            if h.is_iso():
                return h
        return None

    def summand_ids(self, x: Rep) -> Tuple[int, ...]:
        """The Krull-Schmidt type of x: the sorted class ids of its
        indecomposable summands, empty for the zero module. Two modules
        are isomorphic exactly when these agree."""
        if not x.total_dim:
            return ()
        return tuple(sorted(self.class_id(s) for s in self.decompose(x).summands))

    def is_isomorphic(self, x: Rep, y: Rep) -> bool:
        return x.dims == y.dims and self.summand_ids(x) == self.summand_ids(y)

    def _fitting_split(self, x: Rep, e: RepMap) -> Optional[Tuple[Rep, RepMap, Rep, RepMap]]:
        """Split x along a non-nilpotent, non-invertible endomorphism.

        The image of the stable power has total dimension the sum of the
        ranks of its vertex components, so a nilpotent or invertible e
        is rejected before any subrepresentation is built."""
        n = max(1, x.total_dim)
        power = e
        steps = 1
        while steps < n:
            power = power.then(power)
            steps *= 2
        rank = sum(c.rank() for c in power.comps)
        if rank == 0 or rank == x.total_dim:
            return None
        im, iincl = self.image(power)
        ker, kincl = self.kernel(power)
        if ker.total_dim + im.total_dim != x.total_dim:
            return None
        return im, iincl, ker, kincl

    def _candidate_endos(self, x: Rep) -> Iterator[RepMap]:
        basis = self.hom_basis(x, x)
        yield from basis
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                yield basis[i].add(basis[j])

    def decompose(self, x: Rep) -> Decomposition:
        """Indecomposable summands of x with an explicit witness."""
        ck = x.key()
        hit = self._decomp_cache.get(ck)
        if hit is not None:
            return hit
        result = self._decompose_uncached(x)
        self._decomp_cache[ck] = result
        return result

    def _decompose_uncached(self, x: Rep) -> Decomposition:
        if x.total_dim == 0:
            s, inj, proj = self.direct_sum([])
            return Decomposition([], RepMap.identity(x), s, inj, proj)
        split = self._find_split(x)
        if split is None:
            s, inj, proj = self.direct_sum([x])
            return Decomposition([x], RepMap.identity(x), s, inj, proj)
        im, iincl, ker, kincl = split
        d_im = self.decompose(im)
        d_ker = self.decompose(ker)
        summands = d_im.summands + d_ker.summands
        s, inj, proj = self.direct_sum(summands)
        # per-summand maps into x, through the split half each came from
        pieces = [d_im.injections[i].then(d_im.iso).then(iincl) for i in range(len(d_im.summands))]
        pieces += [d_ker.injections[i].then(d_ker.iso).then(kincl) for i in range(len(d_ker.summands))]
        comps = []
        for i in range(len(self.quiver.vertices)):
            acc = None
            for k in range(len(summands)):
                c = proj[k].comps[i].mul(pieces[k].comps[i])
                acc = c if acc is None else acc.add(c)
            comps.append(acc)
        iso = RepMap(s, x, comps, check=False)
        if not iso.is_iso():
            raise AssertionError("decomposition witness failed to be invertible")
        return Decomposition(summands, iso, s, inj, proj)

    def _find_split(self, x: Rep) -> Optional[Tuple[Rep, RepMap, Rep, RepMap]]:
        basis = self.hom_basis(x, x)
        if len(basis) == 1:
            return None
        for e in self._candidate_endos(x):
            split = self._fitting_split(x, e)
            if split is not None:
                return split
        # candidates failed; certify by full enumeration while the cap allows
        total = self.field.p ** len(basis)
        if total > self.enum_cap:
            raise BudgetExceeded(
                f"cannot certify indecomposability of the module of dimension vector {x.dims}:"
                f" endomorphism space has {total} points, cap {self.enum_cap}"
            )
        for coeffs in itertools.product(range(self.field.p), repeat=len(basis)):
            e = self.map_from_coeffs(basis, coeffs)
            split = self._fitting_split(x, e)
            if split is not None:
                return split
        return None

    def is_indecomposable(self, x: Rep) -> bool:
        if x.total_dim == 0:
            return False
        return len(self.decompose(x).summands) == 1

    # -- automorphism counting ---------------------------------------

    def aut_order(self, x: Rep) -> int:
        """|Aut(x)|, exact, as the unit count of the finite algebra
        End(x) (:func:`perihall.gfp.unit_group_order`): by Krull-Schmidt
        its semisimple quotient has one block GL_m over the residue field
        of each summand class of multiplicity m. The tests cross-check it
        against an enumeration of End(x)."""
        ck = x.key()
        hit = self._aut_cache.get(ck)
        if hit is None:
            blocks = [
                (len(list(run)), self.residue_field_degree(self.class_rep(cid)))
                for cid, run in itertools.groupby(self.summand_ids(x))
            ]
            hit = unit_group_order(self.field.p, self.hom_dim(x, x), blocks)
            self._aut_cache[ck] = hit
        return hit

    def residue_field_degree(self, indec: Rep) -> int:
        """dim over F_p of End(I)/rad for an indecomposable I."""
        basis = self.hom_basis(indec, indec)
        d = len(basis)
        p = self.field.p
        total = p**d
        if total > self.enum_cap:
            raise BudgetExceeded(
                f"endomorphism ring of the indecomposable of dimension vector {indec.dims} has {total} points,"
                f" too many to profile: cap {self.enum_cap}"
            )
        units = 0
        for coeffs in itertools.product(range(p), repeat=d):
            if self.map_from_coeffs(basis, coeffs).is_iso():
                units += 1
        nonunits = total - units
        # local ring: nonunits form the radical, an F_p-subspace
        e = 0
        while nonunits > 1:
            if nonunits % p:
                raise AssertionError("nonunit count is not a p power; ring is not local")
            nonunits //= p
            e += 1
        return d - e

    # -- iso-class registry ------------------------------------------

    def class_id(self, x: Rep) -> int:
        """Registry id of the iso class of the indecomposable x
        (registering it if new).

        Each class is represented by the first module of it seen; ids
        follow that discovery order. A zero or decomposable module raises
        ``ValueError``: its iso class is :meth:`summand_ids`. A new
        content key is matched by the basis sweep of
        :meth:`_iso_among_basis`, which is complete for the indecomposable
        x and finds no iso to a listed decomposable class.
        """
        ck = x.key()
        hit = self._class_of_content.get(ck)
        if hit is not None:
            return hit
        if not self.is_indecomposable(x):
            raise ValueError(f"class_id needs an indecomposable module, got {x!r}; use summand_ids")
        for cid, rep in enumerate(self._classes):
            if rep.dims == x.dims and self._iso_among_basis(rep, x) is not None:
                self._class_of_content[ck] = cid
                return cid
        cid = len(self._classes)
        self._classes.append(x)
        self._class_of_content[ck] = cid
        return cid

    def class_rep(self, cid: int) -> Rep:
        return self._classes[cid]

    def class_count(self) -> int:
        return len(self._classes)

    # -- projective resolutions and Ext ------------------------------

    def _radicals(self, x: Rep) -> List[Subspace]:
        """The radical of x at each vertex: the span of the arrow images
        landing there."""
        q = self.quiver
        rads = []
        for i, v in enumerate(q.vertices):
            rows: List[List[int]] = []
            for a in q.arrows_into(v):
                rows.extend(x.mats[a.name].rows)
            rads.append(Subspace(self.field, x.dims[i], rows))
        return rads

    def _cover_map(self, x: Rep) -> Tuple[Rep, RepMap]:
        """Projective cover P -> x via top representatives."""
        q = self.quiver
        rads = self._radicals(x)
        gens: List[Tuple[str, List[int]]] = []  # (vertex, representative in X_v)
        for i, v in enumerate(q.vertices):
            for c in rads[i].free_columns:
                unit = [0] * x.dims[i]
                unit[c] = 1
                gens.append((v, unit))
        pieces = [self.projective(v) for v, _ in gens]
        p0, _, _ = self.direct_sum(pieces)
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
                    vec_of[pth] = MatrixFp(self.field, [prev]).mul(x.mats[a.name]).rows[0]
            for i, w in enumerate(q.vertices):
                rows = [vec_of[pth] for pth in by_end[w]]
                comps.append(MatrixFp(self.field, rows, ncols=x.dims[i]) if rows else MatrixFp.zeros(self.field, 0, x.dims[i]))
            piece_maps.append(RepMap(piece, x, comps, check=False))
        comps = []
        for i in range(len(q.vertices)):
            acc = None
            for pm in piece_maps:
                c = pm.comps[i]
                acc = c if acc is None else acc.vstack(c)
            if acc is None:
                acc = MatrixFp.zeros(self.field, 0, x.dims[i])
            comps.append(acc)
        eps = RepMap(p0, x, comps, check=False)
        # surjectivity: the cover hits a complement of the radical at
        # every vertex, so by graded Nakayama it hits everything
        for i in range(len(q.vertices)):
            if comps[i].rank() != x.dims[i]:
                raise AssertionError("projective cover failed to surject")
        return p0, eps

    def proj_resolution(self, x: Rep) -> Resolution:
        """Minimal projective resolution 0 -> P1 -> P0 -> x -> 0."""
        ck = x.key()
        hit = self._resolution_cache.get(ck)
        if hit is not None:
            return hit
        p0, eps = self._cover_map(x)
        ker, kincl = self.kernel(eps)
        p1, cover = self._cover_map(ker)
        if p1.total_dim != ker.total_dim:
            # over a hereditary algebra the kernel is projective, so its
            # cover must be an isomorphism
            raise AssertionError("first syzygy is not projective; quiver not hereditary?")
        d = cover.then(kincl)
        res = Resolution(x, p1, p0, d, eps)
        self._resolution_cache[ck] = res
        return res

    def ext1_dim(self, x: Rep, y: Rep) -> int:
        """dim Ext^1(x, y) = dim Hom(x, y) - <x, y>.

        The path algebra of an acyclic quiver is hereditary (the quiver
        constructor rejects oriented cycles), so Ext^2 and above vanish
        and the Euler form is exactly hom minus ext. The literal count,
        Hom(P1(x), y) modulo coboundaries, is kept as a cross-check in
        :func:`perihall.checks.ext1_dim_literal`."""
        return self.hom_dim(x, y) - self.euler_form(x, y)

    # -- enumeration --------------------------------------------------

    def enumerate_reps(self, bound: Sequence[int]) -> List[Rep]:
        """One representative of every iso class with dimension vector at
        most ``bound``, graded by total dimension, then dimension vector
        lex order, then the order of arrow matrices.

        Every tuple of arrow matrices is a candidate; the first candidate
        of each Krull-Schmidt type (:meth:`summand_ids`) is kept. Each
        indecomposable is first met as a candidate of its own dimension
        vector and registered by it; each kept zero or decomposable
        candidate is listed in the registry under its type. Registry ids
        thus follow the same graded order.
        """
        q = self.quiver
        bound = tuple(int(b) for b in bound)
        if len(bound) != len(q.vertices):
            raise ValueError("bound length mismatch")
        dimvecs = sorted(
            itertools.product(*(range(b + 1) for b in bound)),
            key=lambda d: (sum(d), d),
        )
        seen = set()
        out: List[Rep] = []
        for dims in dimvecs:
            shapes = [(a.name, dims[q.vertex_index(a.source)], dims[q.vertex_index(a.target)]) for a in q.arrows]
            entries = sum(du * dw for _, du, dw in shapes)
            if self.field.p**entries > self.enum_cap:
                raise BudgetExceeded(f"representation enumeration at {dims} needs {self.field.p**entries} candidates")
            for flat in itertools.product(range(self.field.p), repeat=entries):
                mats = {}
                pos = 0
                for name, du, dw in shapes:
                    mats[name] = MatrixFp.from_flat(self.field, flat[pos : pos + du * dw], du, dw)
                    pos += du * dw
                cand = Rep(self.field, q, dims, mats)
                ids = self.summand_ids(cand)
                if ids not in seen:
                    seen.add(ids)
                    out.append(cand)
                    if len(ids) != 1 and ids not in self._class_of_type:
                        self._class_of_type[ids] = len(self._classes)
                        self._classes.append(cand)
        return out

    # -- classical Hall counts ---------------------------------------

    def _subspaces(self, n: int, r: int) -> Iterator[MatrixFp]:
        """All r-dimensional subspaces of F_p^n as canonical rref rows."""
        if r == 0:
            yield MatrixFp.zeros(self.field, 0, n)
            return
        p = self.field.p
        for pivots in itertools.combinations(range(n), r):
            free_positions = []
            for i, pc in enumerate(pivots):
                for c in range(pc + 1, n):
                    if c not in pivots:
                        free_positions.append((i, c))
            for vals in itertools.product(range(p), repeat=len(free_positions)):
                rows = [[0] * n for _ in range(r)]
                for i, pc in enumerate(pivots):
                    rows[i][pc] = 1
                for (i, c), v in zip(free_positions, vals):
                    rows[i][c] = v
                yield MatrixFp(self.field, rows, ncols=n)

    def subrep_from_rows(self, l: Rep, row_bases: Sequence[MatrixFp]) -> Optional[Tuple[Rep, RepMap]]:
        """The subrepresentation of l spanned by the given row bases, or
        None if the spans are not arrow-stable."""
        q = self.quiver
        dims = [rb.nrows for rb in row_bases]
        mats = {}
        for a in q.arrows:
            u = q.vertex_index(a.source)
            w = q.vertex_index(a.target)
            rhs = row_bases[u].mul(l.mats[a.name])
            sol = row_bases[w].solve_matrix(rhs) if dims[u] else MatrixFp.zeros(self.field, 0, dims[w])
            if sol is None:
                return None
            mats[a.name] = sol
        sub = Rep(self.field, q, dims, mats)
        incl = RepMap(sub, l, list(row_bases), check=False)
        return sub, incl

    def classical_hall_g(self, x: Rep, y: Rep, l: Rep) -> int:
        """Number of subrepresentations U of l with U iso x and l/U iso y.

        This is the classical Hall number attached to short exact
        sequences 0 -> x -> l -> y -> 0 (sub on the left).
        """
        if any(xd + yd != ld for xd, yd, ld in zip(x.dims, y.dims, l.dims)):
            return 0
        count = 0
        spaces = [list(self._subspaces(l.dims[i], x.dims[i])) for i in range(len(l.dims))]
        total = 1
        for s in spaces:
            total *= len(s)
        if total > self.enum_cap:
            raise BudgetExceeded(
                f"subspace tuple enumeration of size {total} for submodules of dimension vector {x.dims}"
                f" of the module of dimension vector {l.dims} exceeds cap {self.enum_cap}"
            )
        for combo in itertools.product(*spaces):
            built = self.subrep_from_rows(l, combo)
            if built is None:
                continue
            sub, incl = built
            if not self.is_isomorphic(sub, x):
                continue
            quot, _ = self.cokernel(incl)
            if self.is_isomorphic(quot, y):
                count += 1
        return count

    # -- numerical forms ----------------------------------------------

    def euler_form(self, x: Rep, y: Rep) -> int:
        return self.quiver.euler_form(x.dims, y.dims)
