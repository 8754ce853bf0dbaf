"""Quiver representations over a prime field.

A representation assigns a finite F_p-space to every vertex and a matrix
to every arrow. Everything follows the row convention from
:mod:`perihall.gfp`: the matrix of an arrow u -> w has shape
dim(u) x dim(w) and acts on row vectors from the right.

The module provides what the engine calls: Hom and Ext^1 with their
bases from Ringel's exact sequence (:class:`HomExt`), the one way to
either, from :meth:`RepContext.hom_ext`, cached once per pair of modules;
the iso-class registry; and the counting utilities the Hall layer sits
on (residue field degrees of indecomposables, the modules of a dimension
bound). The Euler-form count of dim Ext^1 is a reference recipe,
:func:`perihall.checks.ext1_dim_by_euler_form`.

Helpers that only the reference code calls live in the reference
modules. The chain-level model, :mod:`perihall.periodic`, builds
projective modules (:func:`perihall.periodic.projective`) and summand
maps (:func:`perihall.periodic.summand_maps`). The harnesses,
:mod:`perihall.checks`, count |Aut x| of a module as the units of
End(x) (:func:`perihall.checks.module_aut_order`), the count the
periodic category applies to its objects.

Every sub-, quotient and homology module is one construction,
:meth:`RepContext.subquotient`: per-vertex rref spans bottom inside top,
read in top's coordinates (:meth:`perihall.gfp.Subspace.coords`). The
chain-level model takes homology with it, and the harnesses count
submodules and quotients with it. ``kernel``, ``image`` and
``cokernel`` are a few lines over it and, with ``class_count``, have no
engine caller; they stay here while the benchmark traces or calls them,
and the first three are meant for the root-based listing of the
indecomposables.

Iso classes follow Krull-Schmidt. Every indecomposable class gets an
integer id, and a module's iso class is its Krull-Schmidt type, the
sorted tuple of the class ids of its indecomposable summands; the zero
module's is the empty tuple. Object keys name indecomposable ids only.
On a quiver of type A (a disjoint union of paths) the indecomposables
are known by Gabriel's theorem: one interval module per connected set of
vertices, and a dimension vector fixes each.
:meth:`RepContext.indecomposable_ids` registers them once per context,
and :meth:`RepContext.module_types` generates the types of a bound as
the multisets of them that fit inside it, listing each zero or
decomposable type in the registry with the :meth:`RepContext.block_sum`
of its summands as representative. Nothing is decomposed or enumerated,
and any other quiver is refused. :meth:`RepContext.register` is the one
way into the registry.

Krull-Schmidt decomposition, the type of a module and its enumeration
by brute force are reference recipes in :mod:`perihall.checks`, the only
listing of a quiver of another type; they register what they find
through :meth:`RepContext.register`.

State that must be shared between calls (class registry, caches) lives
in :class:`RepContext`; representations themselves are plain values.
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .gfp import FieldSpec, MatrixFp, Subspace
from .quiver import Quiver

__all__ = [
    "Rep",
    "RepMap",
    "RepContext",
    "HomExt",
    "BudgetExceeded",
]


class BudgetExceeded(RuntimeError):
    """An enumeration would exceed its explicit cap.

    Raised instead of silently truncating, only by
    :meth:`RepContext.check_budget`, which every enumeration calls;
    callers that can afford more should raise the cap, not catch this.
    """


class Rep:
    """A representation of a quiver over F_p."""

    __slots__ = ("field", "quiver", "dims", "mats", "_key")

    def __init__(self, field: FieldSpec, quiver: Quiver, dims: Sequence[int], mats: Dict[str, MatrixFp]):
        self.field = field
        self.quiver = quiver
        self.dims = tuple(map(int, dims))
        if len(self.dims) != len(quiver.vertices):
            raise ValueError("dimension vector length mismatch")
        if min(self.dims, default=0) < 0:
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


class HomExt:
    """Hom and Ext^1 between two representations, from Ringel's exact
    sequence ("Representations of K-species and bimodules", J. Algebra
    41, 1976)

        0 -> Hom(x, y) -> (+)_v Hom(x_v, y_v) -delta-> (+)_a Hom(x_s(a), y_t(a)) -> Ext^1(x, y) -> 0,

    delta(f)_a = f_s(a) Y_a - X_a f_t(a) in the row convention; the path
    algebra is hereditary, so Ext^1 is the whole cokernel.

    One elimination of delta (:meth:`RepContext.hom_ext`) gives ``span``,
    ker delta in flat map entries, and ``image``, im delta in the flat
    arrow coordinates of :meth:`RepContext._delta`. ``hom`` unflattens the
    rref rows of ``span`` in order, so a map's coordinates are its entries
    at the pivot columns; Ext^1 is the quotient by ``image``, with basis
    the unit vectors at the free columns. A class is handled
    through a cocycle, one matrix x_s(a) -> y_t(a) per arrow. Maps act on
    cocycles arrow by arrow from either side, and both actions carry
    im delta into im delta, so they act on Ext^1.
    """

    __slots__ = ("x", "y", "hom", "span", "image", "_ends")

    def __init__(self, x: Rep, y: Rep, hom: List[RepMap], span: Subspace, image: Subspace):
        q = x.quiver
        self.x = x
        self.y = y
        self.hom = hom
        self.span = span
        self.image = image
        self._ends = [(q.vertex_index(a.source), q.vertex_index(a.target)) for a in q.arrows]

    @property
    def ext_dim(self) -> int:
        return self.image.codim

    def hom_coords(self, f: RepMap) -> Tuple[int, ...]:
        """The coordinates of a map x -> y in ``hom``."""
        coords = self.span.coords(f.flat())
        if coords is None:
            raise ValueError(f"the map {f!r} is not a morphism")
        return tuple(coords)

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

    Holds the iso-class registry and every cache. The one enumeration
    cap, ``enum_cap``, lives here: every enumeration is refused through
    :meth:`check_budget`, the one place that raises
    :class:`BudgetExceeded`.
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
        self._hom_exts: Dict[Tuple, HomExt] = {}  # (content key, content key) -> Hom and Ext^1
        self._classes: List[Rep] = []  # class id -> canonical representative
        self._class_of_type: Dict[Tuple[int, ...], int] = {}  # summand ids -> id of a listed zero or decomposable class
        self._paths = _paths(quiver)  # None unless the quiver is of type A
        self._indecomposables: Optional[Tuple[int, ...]] = None

    def check_budget(self, size: int, what: str, where: Callable[[], str]) -> None:
        """Refuse an enumeration of ``size`` items beyond ``enum_cap``:
        the message is "{size} {what} exceed cap {enum_cap}: {where()}",
        with ``where`` naming the objects, built only on refusal."""
        if size > self.enum_cap:
            raise BudgetExceeded(f"{size} {what} exceed cap {self.enum_cap}: {where()}")

    # -- elementary constructions ------------------------------------

    def zero_rep(self) -> Rep:
        return Rep(self.field, self.quiver, [0] * len(self.quiver.vertices), {})

    def simple(self, vertex: str) -> Rep:
        dims = [0] * len(self.quiver.vertices)
        dims[self.quiver.vertex_index(vertex)] = 1
        return Rep(self.field, self.quiver, dims, {})

    def block_sum(self, reps: Sequence[Rep]) -> Rep:
        """The direct sum of modules, its arrow matrices block diagonal
        in the order given; the empty sum is the zero module."""
        if not reps:
            return self.zero_rep()
        q = self.quiver
        dims = list(map(sum, zip(*[r.dims for r in reps])))
        mats = {a.name: MatrixFp.block_diagonal(self.field, [r.mats[a.name] for r in reps]) for a in q.arrows}
        return Rep(self.field, q, dims, mats)

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

    def hom_ext(self, x: Rep, y: Rep) -> HomExt:
        """Hom(x, y) and Ext^1(x, y), the kernel and image of delta from
        one elimination, cached per pair of content keys: every caller of
        the context, whatever its period, shares one record per module pair."""
        ck = (x.key(), y.key())
        hit = self._hom_exts.get(ck)
        if hit is None:
            rows, ncols, offsets = self._delta(x, y)
            span, image = MatrixFp._trusted(self.field, rows, ncols).kernel_and_image()
            hom = [self._unflatten_map(x, y, krow, offsets) for krow in span.basis.rows]
            self._hom_exts[ck] = hit = HomExt(x, y, hom, span, image)
        return hit

    def _unflatten_map(self, x: Rep, y: Rep, flat: Sequence[int], offsets: Sequence[int]) -> RepMap:
        comps = []
        for i in range(len(x.dims)):
            body = flat[offsets[i] : offsets[i] + x.dims[i] * y.dims[i]]
            comps.append(MatrixFp.from_flat(self.field, list(body), x.dims[i], y.dims[i]))
        return RepMap(x, y, comps, check=False)

    def map_from_coeffs(self, basis: Sequence[RepMap], coeffs: Sequence[int]) -> RepMap:
        if not basis:
            raise ValueError("empty basis")
        x, y = basis[0].source, basis[0].target
        acc = RepMap.zero_map(x, y)
        for c, b in zip(coeffs, basis):
            if c % self.field.p:
                acc = acc.add(b.scale(c))
        return acc

    # -- subquotients ------------------------------------------------

    def subquotient(self, l: Rep, top: Sequence[Subspace], bottom: Sequence[Subspace]) -> Optional[Rep]:
        """The subquotient top/bottom of l, for per-vertex spans bottom
        inside top inside l's vertex spaces, or None when top is not
        arrow-stable; bottom is taken to be arrow-stable, unchecked.

        Bottom inside top has its pivot columns among top's, so at each
        vertex the quotient basis is the rows of top at its other pivot
        columns. An arrow u -> w sends such a row through l's arrow
        matrix, reduces the result mod bottom at w and reads it in top's
        coordinates there (:meth:`Subspace.coords`), at the places of the
        quotient basis. Raises ``ValueError`` when bottom is not inside
        top. Where bottom is zero, as for kernels and images, the
        quotient basis is all of top, so neither the containment check
        nor the reduction mod bottom runs there; an arrow out of a zero
        quotient space has no rows to read."""
        places = []
        for hi, lo in zip(top, bottom):
            if lo.dim and any(hi.coords(v) is None for v in lo.basis.rows):
                raise ValueError(
                    f"the bottom of dimension vector {tuple(s.dim for s in bottom)} is not inside the top"
                    f" of dimension vector {tuple(s.dim for s in top)}"
                )
            places.append([k for k, c in enumerate(hi.pivots) if c not in lo.pivots] if lo.dim else list(range(hi.dim)))
        q = self.quiver
        mats = {}
        for a in q.arrows:
            u = q.vertex_index(a.source)
            w = q.vertex_index(a.target)
            rows = []
            if places[u]:
                lo = bottom[w] if bottom[w].dim else None
                basis = MatrixFp._trusted(self.field, [top[u].basis.rows[k] for k in places[u]], l.dims[u])
                for img in basis.mul(l.mats[a.name]).rows:
                    c = top[w].coords(img if lo is None else lo.reduce(img))
                    if c is None:
                        return None
                    rows.append(c if lo is None else [c[k] for k in places[w]])
            mats[a.name] = MatrixFp._trusted(self.field, rows, len(places[w]))
        return Rep(self.field, q, [len(k) for k in places], mats)

    def kernel(self, f: RepMap) -> Tuple[Rep, RepMap]:
        top = [c.kernel_and_image()[0] for c in f.comps]
        ker = self.subquotient(f.source, top, [Subspace._reduced(self.field, s.ambient, [], ()) for s in top])
        if ker is None:
            raise AssertionError("kernel is not arrow-stable; convention bug")
        return ker, RepMap(ker, f.source, [s.basis for s in top], check=False)

    def image(self, f: RepMap) -> Tuple[Rep, RepMap]:
        top = [Subspace(self.field, c.ncols, c.rows) for c in f.comps]
        im = self.subquotient(f.target, top, [Subspace._reduced(self.field, s.ambient, [], ()) for s in top])
        if im is None:
            raise AssertionError("image is not arrow-stable; convention bug")
        return im, RepMap(im, f.target, [s.basis for s in top], check=False)

    def cokernel(self, f: RepMap) -> Tuple[Rep, RepMap]:
        y = f.target
        bottom = [Subspace(self.field, c.ncols, c.rows) for c in f.comps]
        units = [MatrixFp.identity(self.field, n).rows for n in y.dims]
        cok = self.subquotient(y, [Subspace(self.field, n, rows) for n, rows in zip(y.dims, units)], bottom)
        # the projection sends each unit vector to its quotient coordinates
        proj = [MatrixFp._trusted(self.field, [list(s.quotient_coords(u)) for u in rows], s.codim) for s, rows in zip(bottom, units)]
        return cok, RepMap(y, cok, proj, check=False)

    # -- automorphism counting ---------------------------------------

    def residue_field_degree(self, indec: Rep) -> int:
        """dim over F_p of End(I)/rad for an indecomposable I."""
        basis = self.hom_ext(indec, indec).hom
        d = len(basis)
        p = self.field.p
        total = p**d
        self.check_budget(
            total, "endomorphisms", lambda: f"residue field of the indecomposable of dimension vector {indec.dims}"
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

    def register(self, rep: Rep, ids: Optional[Tuple[int, ...]] = None) -> int:
        """The id of a new class with representative rep, ids following
        registration order; the one way into the registry. ``ids`` is the
        Krull-Schmidt type of a zero or decomposable class, which is
        listed under it, and a type listed before keeps its class; an
        indecomposable class passes none."""
        hit = self._class_of_type.get(ids) if ids is not None else None
        if hit is None:
            hit = len(self._classes)
            self._classes.append(rep)
            if ids is not None:
                self._class_of_type[ids] = hit
        return hit

    def class_rep(self, cid: int) -> Rep:
        return self._classes[cid]

    def class_count(self) -> int:
        return len(self._classes)

    # -- enumeration --------------------------------------------------

    def _checked_bound(self, bound: Sequence[int]) -> Tuple[int, ...]:
        """The bound as a tuple of ints, refused with ``ValueError`` when
        its length is not the vertex count or an entry is negative."""
        bound = tuple(map(int, bound))
        if len(bound) != len(self.quiver.vertices):
            raise ValueError("bound length mismatch")
        if min(bound, default=0) < 0:
            raise ValueError(f"bound entries must be nonnegative, got {bound}")
        return bound

    def indecomposable_ids(self) -> Tuple[int, ...]:
        """The class ids of every indecomposable, in the order
        :func:`perihall.checks.enumerate_reps` meets them (total
        dimension, then dimension vector), registered on the first call.

        On a quiver of type A (a disjoint union of paths) the
        indecomposables are the interval modules, by Gabriel's theorem:
        dimension one on a connected set of vertices, zero elsewhere, and
        1 on every arrow inside the set. A dimension vector fixes each,
        so they are registered without a decomposition or an isomorphism
        test, and an indecomposable class the registry already holds keeps
        its id and representative. Any other quiver raises
        ``NotImplementedError``."""
        if self._indecomposables is None:
            q = self.quiver
            if self._paths is None:
                arrows = ", ".join(f"{a.name}: {a.source}->{a.target}" for a in q.arrows)
                raise NotImplementedError(
                    "the indecomposables are listed only for quivers of type A (disjoint unions of paths),"
                    f" not for arrows {arrows}"
                )
            one = MatrixFp._trusted(self.field, [[1]], 1)
            intervals = []
            for path in self._paths:
                for i in range(len(path)):
                    for j in range(i + 1, len(path) + 1):
                        inside = set(path[i:j])
                        dims = tuple([int(v in inside) for v in q.vertices])
                        intervals.append((j - i, dims, inside))
            intervals.sort(key=operator.itemgetter(0, 1))
            # a listed decomposable class can share an interval's
            # dimension vector, as S1 + S2 shares P1's on A2
            listed = set(self._class_of_type.values())
            known = {rep.dims: cid for cid, rep in enumerate(self._classes) if cid not in listed}
            ids = []
            for _, dims, inside in intervals:
                if dims not in known:
                    mats = {a.name: one for a in q.arrows if a.source in inside and a.target in inside}
                    known[dims] = self.register(Rep(self.field, q, dims, mats))
                ids.append(known[dims])
            self._indecomposables = tuple(ids)
        return self._indecomposables

    def module_types(self, bound: Sequence[int]) -> List[Tuple[int, Tuple[int, ...]]]:
        """(total dimension, Krull-Schmidt type) of every module with
        dimension vector at most ``bound``, one per iso class, the type the
        sorted class ids of its indecomposable summands.

        On a quiver of type A these are the multisets of
        :meth:`indecomposable_ids` whose dimension vectors sum to at most
        the bound, and each zero or decomposable type is listed in the
        registry, if new, with the :meth:`block_sum` of its summands as
        representative. Any other quiver raises ``NotImplementedError``
        there; :func:`perihall.checks.enumerate_reps` lists its modules by
        brute force."""
        bound = self._checked_bound(bound)
        types: List[Tuple[Tuple[int, ...], Tuple[int, ...], int]] = [((), bound, 0)]
        for cid in self.indecomposable_ids():
            dims = self._classes[cid].dims
            size = sum(dims)
            grown = []
            for ids, room, total in types:
                while True:
                    grown.append((ids, room, total))
                    if any(map(operator.gt, dims, room)):
                        break
                    ids, room, total = ids + (cid,), tuple(map(operator.sub, room, dims)), total + size
            types = grown
        out = []
        for ids, _, total in types:
            ids = tuple(sorted(ids))
            if len(ids) != 1 and ids not in self._class_of_type:
                self.register(self.block_sum([self._classes[cid] for cid in ids]), ids)
            out.append((total, ids))
        return out


def _paths(quiver: Quiver) -> Optional[List[List[str]]]:
    """The vertices of each connected component, in order along the path
    from the end declared first, when the underlying graph is a disjoint
    union of paths; else None. With no vertex meeting more than two
    arrows every component is a path or a cycle (two parallel arrows
    close one), and only the paths have an end to walk from."""
    nbrs: Dict[str, List[str]] = {v: [] for v in quiver.vertices}
    for a in quiver.arrows:
        nbrs[a.source].append(a.target)
        nbrs[a.target].append(a.source)
    if any(len(n) > 2 for n in nbrs.values()):
        return None
    seen = set()
    out = []
    for v in quiver.vertices:
        if v in seen or len(nbrs[v]) > 1:
            continue
        path = [v]
        seen.add(v)
        while True:
            step = [w for w in nbrs[path[-1]] if w not in seen]
            if not step:
                break
            path.append(step[0])
            seen.add(step[0])
        out.append(path)
    return out if len(seen) == len(quiver.vertices) else None
