"""Quiver representations over a prime field.

A representation assigns a finite F_p-space to every vertex and a matrix
to every arrow. Everything follows the row convention from
:mod:`perihall.gfp`: the matrix of an arrow u -> w has shape
dim(u) x dim(w) and acts on row vectors from the right.

The module provides the abelian-category toolkit the engine calls (hom
spaces, kernels, images), Krull-Schmidt decomposition into summands and
their inclusions, Hom and Ext^1 with their bases from Ringel's exact
sequence (:class:`HomExt`), plus the counting utilities the Hall layer
sits on (residue field degrees of indecomposables, representative
enumeration). The path algebra of an acyclic quiver is hereditary, so
dim Ext^1 is read off the Euler form wherever no basis is needed.

Helpers that only the reference code calls live in the reference
modules. The chain-level model, :mod:`perihall.periodic`, builds
direct sums (:func:`perihall.periodic.direct_sum`), projective modules
(:func:`perihall.periodic.projective`) and corestrictions
(:func:`perihall.periodic.corestrict`). The harnesses,
:mod:`perihall.checks`, count |Aut x| of a module as the units of
End(x) (:func:`perihall.checks.module_aut_order`), the count the
periodic category applies to its objects. ``cokernel``, ``ext1_dim``
and ``class_count`` have no engine caller either; they stay here while
the benchmark traces or calls them.

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

from .gfp import FieldSpec, MatrixFp, Subspace
from .quiver import Quiver

__all__ = [
    "Rep",
    "RepMap",
    "RepContext",
    "Decomposition",
    "HomExt",
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

    def scale(self, c: int) -> "RepMap":
        return RepMap(self.source, self.target, [m.scale(c) for m in self.comps], check=False)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def is_iso(self) -> bool:
        return all(c.is_invertible() for c in self.comps)

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
    """Indecomposable summands and their inclusions into the module; at
    every vertex the stacked inclusions form an invertible matrix."""

    summands: List[Rep]
    inclusions: List[RepMap]  # summand -> module


class HomExt:
    """Hom and Ext^1 between two representations, from Ringel's exact
    sequence ("Representations of K-species and bimodules", J. Algebra
    41, 1976)

        0 -> Hom(x, y) -> (+)_v Hom(x_v, y_v) -delta-> (+)_a Hom(x_s(a), y_t(a)) -> Ext^1(x, y) -> 0,

    delta(f)_a = f_s(a) Y_a - X_a f_t(a) in the row convention; the path
    algebra is hereditary, so Ext^1 is the whole cokernel.

    ``hom`` is the rref basis of ker delta (:meth:`RepContext.hom_basis`),
    so the coordinates of a map are its flat entries at the leading
    columns of the basis. ``image`` is im delta in the flat arrow
    coordinates of :meth:`RepContext._delta`; Ext^1 is its quotient, with
    basis the unit vectors at the free columns. A class is handled
    through a cocycle, one matrix x_s(a) -> y_t(a) per arrow. Maps act on
    cocycles arrow by arrow from either side, and both actions carry
    im delta into im delta, so they act on Ext^1.
    """

    __slots__ = ("x", "y", "hom", "image", "_lead", "_ends")

    def __init__(self, x: Rep, y: Rep, hom: List[RepMap], image: Subspace):
        q = x.quiver
        self.x = x
        self.y = y
        self.hom = hom
        self.image = image
        self._lead = tuple(next(i for i, v in enumerate(f.flat()) if v) for f in hom)
        self._ends = [(q.vertex_index(a.source), q.vertex_index(a.target)) for a in q.arrows]

    @property
    def ext_dim(self) -> int:
        return self.image.codim

    def hom_coords(self, f: RepMap) -> Tuple[int, ...]:
        """The coordinates of a map x -> y in ``hom``."""
        flat = f.flat()
        return tuple(flat[i] for i in self._lead)

    def ext_cocycle(self, k: int) -> List[MatrixFp]:
        """The cocycle of the k-th basis class of Ext^1(x, y)."""
        flat = [0] * self.image.ambient
        flat[self.image.free_columns[k]] = 1
        out = []
        pos = 0
        for u, w in self._ends:
            rows, cols = self.x.dims[u], self.y.dims[w]
            out.append(MatrixFp.from_flat(self.x.field, flat[pos : pos + rows * cols], rows, cols))
            pos += rows * cols
        return out

    def ext_coords(self, cocycle: Sequence[MatrixFp]) -> Tuple[int, ...]:
        """The coordinates in Ext^1(x, y) of the class of a cocycle."""
        flat: List[int] = []
        for m in cocycle:
            flat.extend(m.flat())
        return self.image.quotient_coords(flat)

    def pullback(self, f: RepMap, k: int) -> List[MatrixFp]:
        """Basis class k pulled back along f: t -> x, the cocycle
        f_s(a) xi_a of Ext^1(t, y)."""
        return [f.comps[u].mul(xi) for (u, _), xi in zip(self._ends, self.ext_cocycle(k))]

    def pushforward(self, k: int, g: RepMap) -> List[MatrixFp]:
        """Basis class k pushed forward along g: y -> b, the cocycle
        xi_a g_t(a) of Ext^1(x, b)."""
        return [xi.mul(g.comps[w]) for (_, w), xi in zip(self._ends, self.ext_cocycle(k))]


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
        self._class_of_content: Dict[Tuple, int] = {}
        self._classes: List[Rep] = []  # class id -> canonical representative
        self._class_of_type: Dict[Tuple[int, ...], int] = {}  # summand ids -> id of a listed zero or decomposable class

    # -- elementary constructions ------------------------------------

    def zero_rep(self) -> Rep:
        return Rep(self.field, self.quiver, [0] * len(self.quiver.vertices), {})

    def simple(self, vertex: str) -> Rep:
        dims = [0] * len(self.quiver.vertices)
        dims[self.quiver.vertex_index(vertex)] = 1
        return Rep(self.field, self.quiver, dims, {})

    # -- hom spaces ---------------------------------------------------

    def _delta(self, x: Rep, y: Rep) -> Tuple[List[List[int]], int, List[int]]:
        """Ringel's map delta for the pair x, y (:class:`HomExt`) as a
        matrix acting on row vectors: one row per entry of
        (+)_v Hom(x_v, y_v), vertex by vertex and row-major, and one
        column per entry of (+)_a Hom(x_s(a), y_t(a)), arrow by arrow and
        row-major. Returns the rows, the column count and the first row
        of each vertex's block."""
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
        return rows, eq_cols, offsets

    def hom_basis(self, x: Rep, y: Rep) -> List[RepMap]:
        """Canonical basis of Hom(x, y): the rref basis of ker delta."""
        ck = (x.key(), y.key())
        hit = self._hom_cache.get(ck)
        if hit is None:
            self._hom_cache[ck] = hit = self._kernel_maps(x, y, *self._delta(x, y))
        return hit

    def _kernel_maps(self, x: Rep, y: Rep, rows: List[List[int]], ncols: int, offsets: Sequence[int]) -> List[RepMap]:
        if not rows:
            return []
        ker = MatrixFp(self.field, rows, ncols=ncols).kernel_basis()
        return [self._unflatten_map(x, y, krow, offsets) for krow in ker.rows]

    def hom_ext(self, x: Rep, y: Rep) -> "HomExt":
        """Hom(x, y) and Ext^1(x, y) off one delta. The Hom basis is
        :meth:`hom_basis`'s and shares its cache."""
        rows, ncols, offsets = self._delta(x, y)
        ck = (x.key(), y.key())
        hom = self._hom_cache.get(ck)
        if hom is None:
            self._hom_cache[ck] = hom = self._kernel_maps(x, y, rows, ncols, offsets)
        return HomExt(x, y, hom, Subspace(self.field, ncols, rows))

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

    def _fitting_split(self, x: Rep, e: RepMap) -> Optional[Tuple[Rep, RepMap, Rep, RepMap]]:
        """Split x along a non-nilpotent, non-invertible endomorphism into
        the image and kernel of its stable power, with their inclusions.

        The image of the stable power has total dimension the sum of the
        ranks of its vertex components, so a nilpotent or invertible e
        is rejected before any subrepresentation is built. By Fitting's
        lemma the stacked inclusions are invertible at every vertex."""
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
        if not all(ic.vstack(kc).is_invertible() for ic, kc in zip(iincl.comps, kincl.comps)):
            raise AssertionError(f"Fitting split of the module of dimension vector {x.dims} is not a direct sum")
        return im, iincl, ker, kincl

    def _candidate_endos(self, x: Rep) -> Iterator[RepMap]:
        basis = self.hom_basis(x, x)
        yield from basis
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                yield basis[i].add(basis[j])

    def decompose(self, x: Rep) -> Decomposition:
        """Indecomposable summands of x and their inclusions into x."""
        ck = x.key()
        hit = self._decomp_cache.get(ck)
        if hit is not None:
            return hit
        result = self._decompose_uncached(x)
        self._decomp_cache[ck] = result
        return result

    def _decompose_uncached(self, x: Rep) -> Decomposition:
        if x.total_dim == 0:
            return Decomposition([], [])
        split = self._find_split(x)
        if split is None:
            return Decomposition([x], [RepMap.identity(x)])
        im, iincl, ker, kincl = split
        d_im = self.decompose(im)
        d_ker = self.decompose(ker)
        inclusions = [i.then(iincl) for i in d_im.inclusions] + [k.then(kincl) for k in d_ker.inclusions]
        return Decomposition(d_im.summands + d_ker.summands, inclusions)

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

    # -- Ext ----------------------------------------------------------

    def ext1_dim(self, x: Rep, y: Rep) -> int:
        """dim Ext^1(x, y) = dim Hom(x, y) - <x, y>.

        The path algebra of an acyclic quiver is hereditary (the quiver
        constructor rejects oriented cycles), so Ext^2 and above vanish
        and the Euler form is exactly hom minus ext. The literal count,
        Hom(P1(x), y) modulo coboundaries, is kept as a cross-check in
        :func:`perihall.checks.ext1_dim_literal`."""
        return self.hom_dim(x, y) - self.quiver.euler_form(x.dims, y.dims)

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
        if min(bound, default=0) < 0:
            raise ValueError(f"bound entries must be nonnegative, got {bound}")
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
