"""Verification harnesses for the periodic Hall engine.

Every closed formula the engine relies on (its one-enumeration product
formula against both dual counting recipes and against the oracle's
scalars taken one at a time (:func:`multiply_by_scalars`), cone
classes from Hom ranks against built and reduced cones, composition
tensors from module data against chain maps modulo homotopy
(:mod:`perihall.periodic`), dim Ext^1 from Ringel's delta against the
Euler form and a literal cocycle count, the generated modules of a
bound against brute-force enumeration, the layered automorphism count,
the square-root sizes of composition images, the block normal form of
triangles, the straightening relations) is re-derived here by brute
enumeration on small instances and compared exactly.
:class:`FaultyEngine` carries one wrong structure constant, so a test
can show that a harness notices. Each harness returns a CheckReport
rather than raising, so the test suite and the command line can both
run them and print one verdict per property.

A harness takes only what it cannot work out for itself, in one of two
shapes: (engine, keys) when it reads products, the oracle being
``engine.oracle``, and (oracle, keys) when it reads the oracle's
scalars alone; :func:`check_classical_comparison` takes a bound for
its keys and lists the modules itself. The harnesses are
deterministic: instance selection walks objects in graded enumeration
order, pairs of keys in order and fibers in key order, and every cap is
a module constant, set below; only the triple scopes of
:func:`check_associativity` and :func:`check_symmetry` and the latter's
``hom_cap`` are parameters, as two values of each are in use.
Hom between two objects is the literal Hom space between their realized
complexes (:meth:`perihall.periodic.ChainModel.hom_space`), and every
walk over morphism classes is :meth:`perihall.periodic.HomSpace.morphisms`;
:func:`morphisms_by_cone` classifies them by their built cones. Every
enumeration, here and in the engine modules, is refused past the
context's ``enum_cap`` by :meth:`perihall.reps.RepContext.check_budget`.

The module-level helpers only the harnesses need live here, not in the
engine modules: the inverse of a matrix over F_p
(:func:`matrix_inverse`, for :func:`iso_between`), the automorphism
count of a module (:func:`module_aut_order`, for
:func:`aut_order_by_layers`), and Krull-Schmidt by brute force
(:func:`decompose`, :func:`summand_ids`, :func:`class_id`,
:func:`enumerate_reps`), which lists a quiver of any type, writes the
registry only through :meth:`perihall.reps.RepContext.register` and
keeps its caches here, per context.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .category import PERIOD, ObjKey, Part, PeriodicContext
from .gfp import FieldSpec, MatrixFp, Subspace, unit_group_order
from .hall import HallEngine, HallVector
from .periodic import (
    ChainMap,
    ChainModel,
    CycleComplex,
    HomSpace,
    chain_hom_space,
    direct_sum_complexes,
    mapping_cone,
    normal_pieces,
    proj_resolution,
    summand_maps,
)
from .reps import Rep, RepContext, RepMap
from .sqrtq import HallValue

Key = Tuple

# the caps of the harnesses, one value each: a report keeps the labels
# of its first failures; the orbit harness skips a triple past a cap on
# Hom and End dimension, on |Aut|, or on triangles (fiber count times
# |Aut| of the middle term), and stops after a number of triples; the
# decorated-symmetry and stable-image harnesses skip an instance past a
# cap on Hom dimension and stop after a number of instances; the cone
# harness samples a number of morphisms
_MAX_FAILURES = 8
_ORBIT_HOM_CAP = 6
_ORBIT_AUT_CAP = 50
_ORBIT_W_CAP = 700
_ORBIT_TARGET = 10
_DECORATED_HOM_CAP = 5
_DECORATED_TARGET = 30
_STABLE_HOM_CAP = 4
_STABLE_TARGET = 40
_CONE_MORPHISMS = 40


@dataclass
class CheckReport:
    """Outcome of one harness: instance count, failures, side notes."""

    name: str
    checked: int = 0
    failures: List[str] = field(default_factory=list)
    details: Dict[str, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.checked > 0 and not self.failures

    def fail(self, label: str) -> None:
        if len(self.failures) < _MAX_FAILURES:
            self.failures.append(label)
        elif len(self.failures) == _MAX_FAILURES:
            self.failures.append("... more failures suppressed")

    def bump(self, key: str, by: int = 1) -> None:
        self.details[key] = self.details.get(key, 0) + by

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        line = f"{verdict} {self.name}: checked={self.checked}"
        if self.details:
            extras = ", ".join(f"{k}={v}" for k, v in sorted(self.details.items()))
            line += f" ({extras})"
        if self.failures:
            line += f" first failure: {self.failures[0]}"
        return line


class FaultyEngine(HallEngine):
    """An engine with exactly one wrong structure constant, for showing
    that a harness notices: the first product coefficient it computes
    that is neither zero nor one, with both factors nonzero, comes out
    one too large, every time that product is asked for."""

    def __init__(self, oracle):
        super().__init__(oracle)
        self.target: Optional[Tuple[Key, Key, Key]] = None

    def multiply(self, x: Key, y: Key) -> HallVector:
        prod = super().multiply(x, y)
        one = HallValue.one(self.q)
        if self.target is None and self.oracle.zero_key not in (x, y):
            l = next((l for l, v in prod.items() if v != one), None)
            if l is not None:
                self.target = (x, y, l)
        if self.target is not None and self.target[:2] == (x, y):
            return prod.add(HallVector(self.q, {self.target[2]: one}))
        return prod


def build_quiver_engine(
    quiver, p: int, fault_inject: bool = False, t: int = PERIOD
) -> Tuple[PeriodicContext, HallEngine]:
    """A periodic category over the given quiver and field at the odd
    period ``t``, with its Hall engine, or with a :class:`FaultyEngine`
    when ``fault_inject``. The two share all caches through the
    context."""
    pctx = PeriodicContext(RepContext(quiver, FieldSpec(p)), t)
    return pctx, (FaultyEngine if fault_inject else HallEngine)(pctx)


def build_unguarded_engine(oracle, t: int) -> HallEngine:
    """A Hall engine over a fresh oracle at any period t > 1, even too:
    the oracle passes its constructor's odd-period guard and the engine
    its own at the oracle's period, then the oracle gets t as a plain
    attribute, set after the guards; the engine reads the period off its
    oracle. At even t the products are not associative, and the quiver
    decode can meet a singular hom matrix (why t must be odd)."""
    engine = HallEngine(oracle)
    oracle.t = t
    return engine


def multiply_by_scalars(engine: HallEngine, x: Key, y: Key) -> HallVector:
    """u_x * u_y composed from the oracle's scalars one at a time:
    ``brace_exponent``, ``hom_dim``, ``aut_order`` and ``fiber_counts``
    of y[-1] -> x. The engine reads the same scalars from one
    ``product_terms`` call (:meth:`perihall.hall.HallEngine.multiply`);
    both list the cones sorted by key, and the tests pin the two item
    for item. Nothing is memoized."""
    o = engine.oracle
    q = engine.q
    brace = o.brace_exponent
    base = -brace(x, x) - brace(y, y) - brace(y, x) - 2 * o.hom_dim(y, x)
    den = o.aut_order(x) * o.aut_order(y)
    coeffs = {}
    for l, count in o.fiber_counts(o.shift_key(y, -1), x).items():
        coeffs[l] = HallValue.monomial(count * o.aut_order(l), den, base + brace(l, l), q)
    return HallVector(q, coeffs)


def hall_number_via(engine: HallEngine, x: Key, y: Key, l: Key, side: str) -> HallValue:
    """The structure constant of u_l in u_x * u_y by one of the two dual
    counting recipes: "from_x" fibers the morphisms x -> l over cone
    class y, "to_y" fibers l -> y over the cone class x shifted once."""
    o = engine.oracle
    brace = o.brace_exponent
    if side == "from_x":
        count = o.fiber_counts(x, l).get(y, 0)
        aut = o.aut_order(x)
        e = brace(x, l) - brace(x, x)
    elif side == "to_y":
        count = o.fiber_counts(l, y).get(o.shift_key(x, 1), 0)
        aut = o.aut_order(y)
        e = brace(l, y) - brace(y, y)
    else:
        raise ValueError(f"unknown side {side!r}")
    return HallValue.sqrt_q_power(e, engine.q) * HallValue.of(Fraction(count, aut), engine.q)


def brace_exponent_by_shifts(oracle, x: Key, y: Key) -> int:
    """The brace exponent {x,y} as the literal alternating sum of
    hom_dim(x[i], y) over i from 1 to the period, signs starting at -1.
    The oracles read it off their own tables (``brace_exponent``)."""
    e = 0
    for i in range(1, oracle.t + 1):
        h = oracle.hom_dim(oracle.shift_key(x, i), y)
        e += h if i % 2 == 0 else -h
    return e


def ext1_dim_literal(ctx: RepContext, x: Rep, y: Rep) -> int:
    """dim Ext^1(x, y) counted literally through the minimal projective
    resolution 0 -> P1 -> P0 -> x -> 0: the cocycles Hom(P1, y) modulo
    the coboundaries P1 -> P0 -> y. The engine reads the same number as
    the cokernel of Ringel's delta (``RepContext.hom_ext(x, y).ext_dim``)."""
    res = proj_resolution(ctx, x)
    cocycles = ctx.hom_ext(res.p1, y).hom
    if not cocycles:
        return 0
    ambient = len(cocycles[0].flat())
    coboundaries = [res.d.then(phi).flat() for phi in ctx.hom_ext(res.p0, y).hom]
    return len(cocycles) - Subspace(ctx.field, ambient, coboundaries).dim


def ext1_dim_by_euler_form(ctx: RepContext, x: Rep, y: Rep) -> int:
    """dim Ext^1(x, y) = dim Hom(x, y) - <x, y>.

    The path algebra of an acyclic quiver is hereditary (the quiver
    constructor rejects oriented cycles), so Ext^2 and above vanish and
    the Euler form is exactly hom minus ext. The engine reads Ext^1 as
    the cokernel of Ringel's delta instead (:class:`perihall.reps.HomExt`)."""
    return len(ctx.hom_ext(x, y).hom) - ctx.quiver.euler_form(x.dims, y.dims)


def matrix_inverse(m: MatrixFp) -> MatrixFp:
    """The inverse of a square matrix over F_p, read off the transform of
    its row reduction; raises ``ValueError`` when m is not square or is
    singular."""
    if m.nrows != m.ncols:
        raise ValueError("inverse of non-square matrix")
    _, pivots, t = m.rref_with_transform()
    if len(pivots) != m.nrows:
        raise ValueError("matrix is singular")
    return t


def module_aut_order(ctx: RepContext, x: Rep) -> int:
    """|Aut(x)| of a module, exact, as the unit count of the finite
    algebra End(x) (:func:`perihall.gfp.unit_group_order`): by
    Krull-Schmidt its semisimple quotient has one block GL_m over the
    residue field of each summand class of multiplicity m. The engine
    applies the same count to objects
    (:meth:`PeriodicContext.aut_order`); the tests cross-check this one
    against an enumeration of End(x)."""
    blocks = [
        (len(list(run)), ctx.residue_field_degree(ctx.class_rep(cid)))
        for cid, run in itertools.groupby(summand_ids(ctx, x))
    ]
    return unit_group_order(ctx.field.p, len(ctx.hom_ext(x, x).hom), blocks)


# ----------------------------------------------------------------------
# Krull-Schmidt by brute force
# ----------------------------------------------------------------------


@dataclass
class Decomposition:
    """Indecomposable summands and their inclusions into the module; at
    every vertex the stacked inclusions form an invertible matrix."""

    summands: List[Rep]
    inclusions: List[RepMap]  # summand -> module


# the reference caches of each context, by content key, kept here and
# dropped with the context
_DECOMPOSITIONS: "weakref.WeakKeyDictionary[RepContext, Dict[Tuple, Decomposition]]" = weakref.WeakKeyDictionary()
_CLASS_IDS: "weakref.WeakKeyDictionary[RepContext, Dict[Tuple, int]]" = weakref.WeakKeyDictionary()


def _check_home(ctx: RepContext, x: Rep) -> None:
    """Refuse a module over another field or quiver: the content keys
    and ids would describe another category. Identity is compared
    first, so the context's own modules pass without an equality test."""
    if x.field is not ctx.field and x.field != ctx.field:
        raise ValueError(f"the module is over F_{x.field.p}, this context over F_{ctx.field.p}")
    if x.quiver is not ctx.quiver and x.quiver != ctx.quiver:
        raise ValueError(f"the module is over {x.quiver!r}, this context over {ctx.quiver!r}")


def _basis_iso(ctx: RepContext, x: Rep, y: Rep) -> Optional[RepMap]:
    """An isomorphism x -> y among the basis of Hom(x, y), or None.

    Complete for indecomposables: the non-invertible maps between them
    form a proper subspace whenever an iso exists, and a basis cannot sit
    inside a proper subspace."""
    return next((h for h in ctx.hom_ext(x, y).hom if h.is_iso()), None)


def _fitting_split(ctx: RepContext, x: Rep, e: RepMap) -> Optional[Tuple[Rep, RepMap, Rep, RepMap]]:
    """Split x along a non-nilpotent, non-invertible endomorphism into
    the image and kernel of its stable power, with their inclusions.

    The image of the stable power has total dimension the sum of the
    ranks of its vertex components, so a nilpotent or invertible e is
    rejected before any subrepresentation is built. By Fitting's lemma
    the stacked inclusions are invertible at every vertex."""
    power = e
    steps = 1
    while steps < x.total_dim:
        power = power.then(power)
        steps *= 2
    rank = sum(c.rank() for c in power.comps)
    if rank == 0 or rank == x.total_dim:
        return None
    im, iincl = ctx.image(power)
    ker, kincl = ctx.kernel(power)
    if not all(ic.vstack(kc).is_invertible() for ic, kc in zip(iincl.comps, kincl.comps)):
        raise AssertionError(f"Fitting split of the module of dimension vector {x.dims} is not a direct sum")
    return im, iincl, ker, kincl


def _find_split(ctx: RepContext, x: Rep) -> Optional[Tuple[Rep, RepMap, Rep, RepMap]]:
    """A Fitting split of x, or None when x is indecomposable: the basis
    of End(x) and the sums of its pairs are tried first, then, within the
    context's ``enum_cap``, every endomorphism."""
    basis = ctx.hom_ext(x, x).hom
    if len(basis) == 1:
        return None
    pairs = (a.add(b) for a, b in itertools.combinations(basis, 2))
    for e in itertools.chain(basis, pairs):
        split = _fitting_split(ctx, x, e)
        if split is not None:
            return split
    ctx.check_budget(
        ctx.field.p ** len(basis),
        "endomorphisms",
        lambda: f"certifying indecomposability of the module of dimension vector {x.dims}",
    )
    for coeffs in itertools.product(range(ctx.field.p), repeat=len(basis)):
        split = _fitting_split(ctx, x, ctx.map_from_coeffs(basis, coeffs))
        if split is not None:
            return split
    return None


def decompose(ctx: RepContext, x: Rep) -> Decomposition:
    """Indecomposable summands of x and their inclusions into x, by
    Fitting splits, cached per context and content key. The engine
    decomposes nothing: it generates the modules of a quiver of type A
    from their summands (:meth:`RepContext.module_types`)."""
    cache = _DECOMPOSITIONS.setdefault(ctx, {})
    hit = cache.get(x.key())
    if hit is None:
        split = _find_split(ctx, x) if x.total_dim else None
        if split is None:
            hit = Decomposition([x], [RepMap.identity(x)]) if x.total_dim else Decomposition([], [])
        else:
            im, iincl, ker, kincl = split
            d_im, d_ker = decompose(ctx, im), decompose(ctx, ker)
            inclusions = [i.then(iincl) for i in d_im.inclusions] + [k.then(kincl) for k in d_ker.inclusions]
            hit = Decomposition(d_im.summands + d_ker.summands, inclusions)
        cache[x.key()] = hit
    return hit


def is_indecomposable(ctx: RepContext, x: Rep) -> bool:
    return len(decompose(ctx, x).summands) == 1


def class_id(ctx: RepContext, x: Rep) -> int:
    """Registry id of the iso class of the indecomposable x, registered
    through :meth:`RepContext.register` if new.

    A new content key is matched by the basis sweep of :func:`_basis_iso`
    against the classes of its dimension vector in id order, complete for
    the indecomposable x; it finds no iso to a listed decomposable class.
    A zero or decomposable module raises ``ValueError``: its iso class is
    :func:`summand_ids`. So does a module over another field or quiver."""
    _check_home(ctx, x)
    known = _CLASS_IDS.setdefault(ctx, {})
    hit = known.get(x.key())
    if hit is None:
        if not is_indecomposable(ctx, x):
            raise ValueError(f"class_id needs an indecomposable module, got {x!r}; use summand_ids")
        reps = map(ctx.class_rep, range(ctx.class_count()))
        hit = next((cid for cid, r in enumerate(reps) if r.dims == x.dims and _basis_iso(ctx, r, x) is not None), None)
        if hit is None:
            hit = ctx.register(x)
        known[x.key()] = hit
    return hit


def summand_ids(ctx: RepContext, x: Rep) -> Tuple[int, ...]:
    """The Krull-Schmidt type of x: the sorted class ids of its
    indecomposable summands, empty for the zero module. Two modules are
    isomorphic exactly when these agree. A module over another field or
    quiver raises ``ValueError``."""
    _check_home(ctx, x)
    return tuple(sorted(class_id(ctx, s) for s in decompose(ctx, x).summands))


def module_key(pctx: PeriodicContext, rep: Rep, shift: int = 0) -> ObjKey:
    """The object key of a module placed at the given shift: its
    summand class ids, each tagged with the shift."""
    shift %= pctx.t
    return tuple((cid, shift) for cid in summand_ids(pctx.ctx, rep))


def enumerate_reps(ctx: RepContext, bound: Sequence[int]) -> List[Rep]:
    """One representative of every iso class with dimension vector at
    most ``bound``, graded by total dimension, then dimension vector lex
    order, then the order of arrow matrices.

    Every tuple of arrow matrices is a candidate, and the first candidate
    of each Krull-Schmidt type (:func:`summand_ids`) is kept. Each
    indecomposable is first met as a candidate of its own dimension
    vector and registered by it; each kept zero or decomposable candidate
    is listed in the registry under its type. Registry ids thus follow
    the same graded order on a fresh context. The engine generates the
    types of a quiver of type A instead (:meth:`RepContext.module_types`)."""
    q, p = ctx.quiver, ctx.field.p
    bound = ctx._checked_bound(bound)
    dimvecs = sorted(itertools.product(*(range(b + 1) for b in bound)), key=lambda d: (sum(d), d))
    seen = set()
    out: List[Rep] = []
    for dims in dimvecs:
        shapes = [(a.name, dims[q.vertex_index(a.source)], dims[q.vertex_index(a.target)]) for a in q.arrows]
        entries = sum(du * dw for _, du, dw in shapes)
        ctx.check_budget(p**entries, "arrow matrix tuples", lambda: f"representations of dimension vector {dims}")
        for flat in itertools.product(range(p), repeat=entries):
            mats = {}
            pos = 0
            for name, du, dw in shapes:
                mats[name] = MatrixFp.from_flat(ctx.field, flat[pos : pos + du * dw], du, dw)
                pos += du * dw
            cand = Rep(ctx.field, q, dims, mats)
            ids = summand_ids(ctx, cand)
            if ids not in seen:
                seen.add(ids)
                out.append(cand)
                if len(ids) != 1:
                    ctx.register(cand, ids)
    return out


def iso_between(ctx: RepContext, x: Rep, y: Rep) -> Optional[RepMap]:
    """An isomorphism x -> y, or None, with an explicit witness.

    For indecomposables the basis sweep of :func:`_basis_iso` settles it.
    For decomposables the summands and their inclusions give the witness:
    each summand of x is matched to one of y, and at every vertex the
    witness is the inverse of the stacked inclusions of x times the
    stacked matched isos into y. :func:`summand_ids` compares Krull-Schmidt
    types instead."""
    if x.dims != y.dims:
        return None
    if x.key() == y.key() or not x.total_dim:
        return RepMap.identity(x)
    direct = _basis_iso(ctx, x, y)
    if direct is not None:
        return direct
    dx, dy = decompose(ctx, x), decompose(ctx, y)
    if len(dx.summands) != len(dy.summands):
        return None
    if len(dx.summands) == 1:
        return None  # both indecomposable, basis sweep already failed
    used = [False] * len(dy.summands)
    pieces: List[RepMap] = []
    for sx in dx.summands:
        found = None
        for j, sy in enumerate(dy.summands):
            if used[j] or sx.dims != sy.dims:
                continue
            w = iso_between(ctx, sx, sy)
            if w is not None:
                found = (j, w)
                break
        if found is None:
            return None
        used[found[0]] = True
        pieces.append(found[1].then(dy.inclusions[found[0]]))
    comps = []
    for i in range(len(ctx.quiver.vertices)):
        stacked_x = functools.reduce(MatrixFp.vstack, (incl.comps[i] for incl in dx.inclusions))
        stacked_y = functools.reduce(MatrixFp.vstack, (piece.comps[i] for piece in pieces))
        comps.append(matrix_inverse(stacked_x).mul(stacked_y))
    witness = RepMap(x, y, comps, check=False)
    return witness if witness.is_iso() else None


def enumerate_objects_by_product(pctx: PeriodicContext, bound: Sequence[int]) -> List[ObjKey]:
    """Every object of the bound, ordered by total dimension then key,
    by building all (module types)^t objects and sorting them at once,
    with the types read off :func:`enumerate_reps`: the reference
    listing, and the only one on a quiver not of type A. The engine
    generates the types and yields the objects one dimension at a time
    (:meth:`PeriodicContext.objects`)."""
    modules = [(r.total_dim, summand_ids(pctx.ctx, r)) for r in enumerate_reps(pctx.ctx, bound)]
    objects: List[Tuple[int, ObjKey]] = [(0, ())]
    for s in range(pctx.t):
        layer = [(d, tuple((cid, s) for cid in ids)) for d, ids in modules]
        objects = [(d0 + d, k0 + k) for d0, k0 in objects for d, k in layer]
    return [key for _, key in sorted((d, tuple(sorted(k))) for d, k in objects)]


def part_rep(pctx: PeriodicContext, key: ObjKey, shift: int) -> Rep:
    """The module sitting at one shift of an object: the direct sum of
    the class representatives of its parts there."""
    return pctx.ctx.block_sum([pctx.ctx.class_rep(cid) for cid, s in key if s == shift])


def dvec_mod2(pctx: PeriodicContext, key: ObjKey) -> Tuple[int, ...]:
    """The dimension vector of an object's parts, summed over all shifts,
    mod 2."""
    acc = [0] * len(pctx.ctx.quiver.vertices)
    for cid, _ in key:
        for i, d in enumerate(pctx.ctx.class_rep(cid).dims):
            acc[i] = (acc[i] + d) % 2
    return tuple(acc)


def aut_order_by_enumeration(chains: ChainModel, key: ObjKey) -> int:
    """|Aut| by walking every endomorphism class of the object: a
    morphism is invertible exactly when its cone is zero. The engine
    counts the units of End(key) instead (:meth:`PeriodicContext.aut_order`)."""
    return fiber_counts_literal(chains, key, key).get(chains.pctx.zero_key, 0)


def aut_order_by_layers(pctx: PeriodicContext, key: ObjKey) -> int:
    """|Aut| from the module layers themselves: the direct sum at each
    shift, its Krull-Schmidt unit count by :func:`module_aut_order`,
    and q to the dim Ext^1 from each layer to the next, a square-zero
    ideal of End, read off the Euler form
    (:func:`ext1_dim_by_euler_form`). The engine counts the units of
    End(key) in one step off its class-pair table."""
    t = pctx.t
    layers = [part_rep(pctx, key, s) for s in range(t)]
    order = 1
    for s in range(t):
        order *= module_aut_order(pctx.ctx, layers[s])
        order *= pctx.q ** ext1_dim_by_euler_form(pctx.ctx, layers[s], layers[(s + 1) % t])
    return order


def complex_key(pctx: PeriodicContext, c: CycleComplex) -> ObjKey:
    """The object key of a cycle complex: the pieces of its normal form,
    each keyed by its summand class ids at its shift."""
    pieces = normal_pieces(pctx.ctx, c)
    return pctx.direct_sum_key(*(module_key(pctx, piece, s) for s, piece in enumerate(pieces)))


def cone_key_literal(pctx: PeriodicContext, f: ChainMap) -> ObjKey:
    """The object key of the cone of f, by building the mapping cone and
    reducing it to normal form. The engine reads it off the ranks of
    Hom(T, f) instead (:meth:`PeriodicContext.fiber_counts`)."""
    return complex_key(pctx, mapping_cone(pctx.ctx, f))


def _rational_inverse(matrix: Sequence[Sequence[int]]) -> List[List[Fraction]]:
    """The inverse over Q of an integer matrix, by Gauss-Jordan over
    ``Fraction``; raises when the matrix is singular. Entries stay ints
    until a pivot divides them, and only the nonzero entries of a pivot
    row are eliminated, as the hom matrices are sparse.
    :class:`perihall.category.HomVectors` inverts the hom matrix in
    integers instead, by fraction-free elimination."""
    n = len(matrix)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if aug[r][c]), None)
        if pivot is None:
            raise AssertionError("the hom matrix of the test objects is singular; Auslander decode impossible")
        aug[c], aug[pivot] = aug[pivot], aug[c]
        if aug[c][c] != 1:
            inv = Fraction(1) / aug[c][c]
            aug[c] = [v * inv for v in aug[c]]
        prow = aug[c]
        support = [j for j, w in enumerate(prow) if w]
        for r in range(n):
            f = aug[r][c]
            if r != c and f:
                row = aug[r]
                for j in support:
                    row[j] -= f * prow[j]
    return [[Fraction(v) for v in row[n:]] for row in aug]


def morphisms_by_cone(chains: ChainModel, x: ObjKey, m: ObjKey) -> Dict[ObjKey, List[Tuple[Tuple[int, ...], ChainMap]]]:
    """Every morphism class x -> m, as (coordinates, representative) in
    the order of :meth:`perihall.periodic.HomSpace.morphisms`, grouped
    by the class of its built cone (:func:`cone_key_literal`), the
    groups sorted by key. The one literal classification the reference
    counts read."""
    groups: Dict[ObjKey, List[Tuple[Tuple[int, ...], ChainMap]]] = {}
    for coords, f in chains.hom_space(x, m).morphisms():
        groups.setdefault(cone_key_literal(chains.pctx, f), []).append((coords, f))
    return dict(sorted(groups.items()))


def fiber_counts_literal(chains: ChainModel, x: ObjKey, m: ObjKey) -> Dict[ObjKey, int]:
    """Morphisms x -> m counted by cone class, one built cone per
    morphism (:func:`morphisms_by_cone`), sorted by key as the engine's
    :meth:`PeriodicContext.fiber_counts` is. The engine classifies one
    morphism per scalar line by its rank profile."""
    return {ck: len(group) for ck, group in morphisms_by_cone(chains, x, m).items()}


def composition_by_chains(chains: ChainModel, t: Part, a: Part, b: Part) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """The composition Hom(t, a) x Hom(a, b) -> Hom(t, b) of three parts
    at chain level, in class coordinates of the one-part objects: entry
    [u][k] is the class of the representative of unit class u of
    Hom(t, a) followed by that of unit class k of Hom(a, b). The engine
    reads the same tensor off module data
    (:meth:`PeriodicContext._composition`); the two agree up to one
    nonzero scalar per basis vector."""
    ta, ab, tb = chains.hom_space((t,), (a,)), chains.hom_space((a,), (b,)), chains.hom_space((t,), (b,))
    return tuple(tuple(tb.class_coords(left.then(right)) for right in ab.unit_maps) for left in ta.unit_maps)


def _fmt(engine: HallEngine, key: Key) -> str:
    fmt = getattr(engine.oracle, "format_key", None)
    return fmt(key) if fmt is not None else repr(key)


def graded_triples(dims: Sequence[int], limit: int) -> List[Tuple[int, int, int]]:
    """First `limit` index triples ordered by total dimension, then
    lexicographically. Deterministic scope for the associativity sweep."""
    if limit <= 0:
        return []
    buckets: Dict[int, List[int]] = {}
    for idx, d in enumerate(dims):
        buckets.setdefault(d, []).append(idx)
    out: List[Tuple[int, int, int]] = []
    top = 3 * max(dims) if dims else 0
    for degree in range(top + 1):
        batch: List[Tuple[int, int, int]] = []
        for i, di in enumerate(dims):
            if di > degree:
                continue
            for j, dj in enumerate(dims):
                rem = degree - di - dj
                if rem < 0:
                    continue
                for k in buckets.get(rem, ()):
                    batch.append((i, j, k))
        batch.sort()
        for t in batch:
            out.append(t)
            if len(out) >= limit:
                return out
    return out


def collect_product_pairs(
    engine: HallEngine, keys: Sequence[Key], triples: Iterable[Tuple[int, int, int]]
) -> List[Tuple[Key, Key]]:
    """Every ordered pair whose product is computed while associating the
    given triples both ways, including the second-level pairs against the
    supports of the first products."""
    seen: Dict[Tuple[Key, Key], None] = {}

    def add(a: Key, b: Key) -> None:
        if (a, b) not in seen:
            seen[(a, b)] = None

    for i, j, k in triples:
        x, y, z = keys[i], keys[j], keys[k]
        add(x, y)
        add(y, z)
        for l in engine.multiply(x, y).support:
            add(l, z)
        for m in engine.multiply(y, z).support:
            add(x, m)
    return list(seen)


# ----------------------------------------------------------------------
# product identities
# ----------------------------------------------------------------------


def check_associativity(
    engine: HallEngine,
    keys: Sequence[Key],
    triples: Optional[Sequence[Tuple[int, int, int]]] = None,
) -> CheckReport:
    """(u_x * u_y) * u_z == u_x * (u_y * u_z), term by term, exactly."""
    report = CheckReport("associativity")
    if triples is None:
        n = len(keys)
        triples = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    for i, j, k in triples:
        x, y, z = keys[i], keys[j], keys[k]
        left = engine.multiply_vectors(engine.multiply(x, y), engine.vector(z))
        right = engine.multiply_vectors(engine.vector(x), engine.multiply(y, z))
        report.checked += 1
        if left != right:
            report.fail(
                f"({_fmt(engine, x)}) . ({_fmt(engine, y)}) . ({_fmt(engine, z)})"
            )
    return report


def check_symmetry(
    engine: HallEngine,
    keys: Sequence[Key],
    triples: Optional[Sequence[Tuple[int, int, int]]] = None,
    hom_cap: int = 8,
) -> CheckReport:
    """The product coefficient and both dual counting recipes agree on
    every structure constant that the associativity scope touches.
    Triples whose dual hom spaces Hom(x, l) or Hom(l, y) exceed
    ``hom_cap`` dimensions are skipped and counted as skipped_cap."""
    report = CheckReport("dual count symmetry")
    o = engine.oracle
    if triples is None:
        n = len(keys)
        triples = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    for a, b in collect_product_pairs(engine, keys, triples):
        prod = engine.multiply(a, b)
        for l in prod.support:
            if max(o.hom_dim(a, l), o.hom_dim(l, b)) > hom_cap:
                report.bump("skipped_cap")
                continue
            report.checked += 1
            got = prod.coeff(l)
            for side in ("from_x", "to_y"):
                want = hall_number_via(engine, a, b, l, side)
                if got != want:
                    report.fail(
                        f"product coefficient {got} != {side} count {want} at"
                        f" {_fmt(engine, a)}, {_fmt(engine, b)} -> {_fmt(engine, l)}"
                    )
    return report


def check_decorated_symmetry(engine: HallEngine, keys: Sequence[Key]) -> CheckReport:
    """The doubled counting identity: morphism pairs out of a two-object
    sum, filtered by the cones of both legs and of the combined map,
    weighted by automorphisms and brace factors, counted from either end,
    on the first ``_DECORATED_TARGET`` instances. Instances whose two
    enumerated hom spaces together exceed ``_DECORATED_HOM_CAP``
    dimensions are skipped and counted as skipped_cap.

    Both sides are literal morphism counts; the engine is read only for
    the support of u_x * u_y, never for a coefficient. So this harness
    cannot see a wrong structure constant (it passes on
    :class:`FaultyEngine`); :func:`check_symmetry` and
    :func:`check_associativity` are the ones that compare coefficients.
    """
    report = CheckReport("decorated symmetry")
    pctx = engine.oracle
    ctx = pctx.ctx
    chains = ChainModel(pctx)
    q = pctx.q

    brace = pctx.brace_exponent

    by_cone = functools.cache(functools.partial(morphisms_by_cone, chains))

    def survivors(a: Key, b: Key, want: Key) -> List[ChainMap]:
        """The morphism classes a -> b whose cone has class ``want``;
        each Hom space is classified once (:func:`morphisms_by_cone`)."""
        return [f for _, f in by_cone(a, b).get(want, ())]

    @functools.cache
    def sum_maps(m: Key, x: Key) -> Tuple[List[ChainMap], List[ChainMap]]:
        """The injections and projections of the complex [m, x]."""
        parts = [chains.realize(m), chains.realize(x)]
        return summand_maps(direct_sum_complexes(ctx, parts, t=pctx.t), parts)

    for x in keys:
        for y in keys:
            prod = engine.multiply(x, y)
            for l in prod.support:
                for m in keys:
                    if pctx.hom_dim(m, l) + pctx.hom_dim(x, l) > _DECORATED_HOM_CAP:
                        report.bump("skipped_cap")
                        continue
                    injs, projs = sum_maps(m, x)
                    mx = pctx.direct_sum_key(m, x)
                    good_f = survivors(x, l, y)
                    for z1 in pctx.fiber_counts(m, l):
                        lhs_counts: Dict[Key, int] = {}
                        for mm in survivors(m, l, z1):
                            left_leg = projs[0].then(mm)
                            for ff in good_f:
                                comb = left_leg.add(projs[1].then(ff))
                                ck = cone_key_literal(pctx, comb)
                                lhs_counts[ck] = lhs_counts.get(ck, 0) + 1
                        candidates: Dict[Key, None] = {}
                        for ck in lhs_counts:
                            candidates[pctx.shift_key(ck, -1)] = None
                        for lp in keys:
                            if lp in candidates:
                                continue
                            if pctx.hom_dim(lp, m) + pctx.hom_dim(lp, x) > _DECORATED_HOM_CAP:
                                report.bump("skipped_cap")
                                continue
                            if pctx.fiber_counts(lp, m).get(y, 0) and pctx.fiber_counts(
                                lp, x
                            ).get(z1, 0):
                                candidates[lp] = None
                        for lp in candidates:
                            if pctx.hom_dim(lp, m) + pctx.hom_dim(lp, x) > _DECORATED_HOM_CAP:
                                report.bump("skipped_cap")
                                continue
                            second_legs = [mp.then(injs[1]).scale(-1) for mp in survivors(lp, x, z1)]
                            rhs_count = 0
                            for fp in survivors(lp, m, y):
                                first_leg = fp.then(injs[0])
                                for second_leg in second_legs:
                                    if cone_key_literal(pctx, first_leg.add(second_leg)) == l:
                                        rhs_count += 1
                            lhs_count = lhs_counts.get(pctx.shift_key(lp, 1), 0)
                            lhs_val = HallValue.sqrt_q_power(
                                brace(mx, l) - brace(l, l), q
                            ) * Fraction(lhs_count, pctx.aut_order(l))
                            rhs_val = HallValue.sqrt_q_power(
                                brace(lp, mx) - brace(lp, lp), q
                            ) * Fraction(rhs_count, pctx.aut_order(lp))
                            report.checked += 1
                            if lhs_count:
                                report.bump("nonzero")
                            if lhs_val != rhs_val:
                                report.fail(
                                    "decorated counts disagree at "
                                    f"x={pctx.format_key(x)} y={pctx.format_key(y)} "
                                    f"z1={pctx.format_key(z1)} m={pctx.format_key(m)} "
                                    f"l={pctx.format_key(l)} l'={pctx.format_key(lp)}"
                                )
                            if report.checked >= _DECORATED_TARGET:
                                return report
    return report


# ----------------------------------------------------------------------
# triangle-level identities
# ----------------------------------------------------------------------


def check_stable_images(pctx: PeriodicContext, keys: Sequence[Key]) -> CheckReport:
    """For each triangle with connecting map n, the sizes of the two
    composition images {n then s} and {s then n} equal square roots of
    alternating products of hom sizes, and the radicands are even powers
    of q, on the first ``_STABLE_TARGET`` triangles whose two Hom spaces
    have dimension at most ``_STABLE_HOM_CAP``. The image sizes are found
    by enumerating every composition.

    No engine is involved: the context is read for its brace exponents,
    never for a product coefficient, so the harness cannot see a wrong
    structure constant and its test is PASS-only by design."""
    report = CheckReport("stable image sizes")
    ctx = pctx.ctx
    chains = ChainModel(pctx)
    q = pctx.q

    brace = pctx.brace_exponent

    for z in keys:
        for l in keys:
            lm1 = pctx.shift_key(l, -1)
            if pctx.hom_dim(lm1, z) > _STABLE_HOM_CAP:
                continue
            if pctx.hom_dim(pctx.shift_key(z, 1), l) > _STABLE_HOM_CAP:
                continue
            Ls = chains.realize(lm1).shift(1)
            Z1 = chains.realize(z).shift(1)
            hs_s = chain_hom_space(ctx, Z1, Ls)
            end_l = chain_hom_space(ctx, Ls, Ls)
            end_z1 = chain_hom_space(ctx, Z1, Z1)
            s_reps = [s for _, s in hs_s.morphisms()]
            for _, phi in chains.hom_space(lm1, z).morphisms():
                m = cone_key_literal(pctx, phi)
                into_l, into_z = _image_sizes(phi.shift(1).scale(-1), s_reps, end_l, end_z1)
                e1 = brace(m, l) - brace(z, l) - brace(l, l)
                e2 = brace(z, m) - brace(z, l) - brace(z, z)
                report.checked += 1
                where = (
                    f"z={pctx.format_key(z)} l={pctx.format_key(l)}"
                    f" m={pctx.format_key(m)}"
                )
                for tag, e, size in (
                    ("target side", e1, into_l),
                    ("source side", e2, into_z),
                ):
                    if e % 2 or e < 0:
                        report.fail(f"radicand exponent {e} not an even power, {tag}, {where}")
                    elif size != q ** (e // 2):
                        report.fail(
                            f"image size {size} != q^{e // 2} on {tag}, {where}"
                        )
                if report.checked >= _STABLE_TARGET:
                    return report
    return report


def _image_sizes(n_map: ChainMap, s_reps: Sequence[ChainMap], end_l: HomSpace, end_z1: HomSpace) -> Tuple[int, int]:
    """The sizes of the composition images {n then s} in End(L) and
    {s then n} in End(Z[1]) of a connecting map n: L -> Z[1], s over the
    representatives of Hom(Z[1], L)."""
    into_l = {end_l.class_coords(n_map.then(s)) for s in s_reps}
    into_z = {end_z1.class_coords(s.then(n_map)) for s in s_reps}
    return len(into_l), len(into_z)


def _compose_table(space: HomSpace, op: ChainMap, pre: bool):
    """The linear action on the class coordinates of ``space`` of
    composing with ``op``, before its maps when ``pre`` and after them
    otherwise, read off the unit classes once."""
    images = [space.class_coords(op.then(u) if pre else u.then(op)) for u in space.unit_maps]
    out_dim = space.dim
    p = space.ctx.field.p

    def apply(coords: Tuple[int, ...]) -> Tuple[int, ...]:
        acc = [0] * out_dim
        for ck, row in zip(coords, images):
            if ck:
                for idx, v in enumerate(row):
                    acc[idx] = (acc[idx] + ck * v) % p
        return tuple(acc)

    return apply


def _invertible_classes(
    chains: ChainModel, key: ObjKey
) -> Tuple[List[Tuple[int, ...]], Dict[Tuple[int, ...], Tuple[int, ...]]]:
    """Invertible classes of End(key) and their inverses: a morphism is
    invertible exactly when its cone is zero (:func:`morphisms_by_cone`)."""
    space = chains.hom_space(key, key)
    reps = dict(morphisms_by_cone(chains, key, key).get(chains.pctx.zero_key, ()))
    isos = list(reps)
    ident = space.class_coords(ChainMap.identity(space.source))
    inverse = {}
    for a in isos:
        for b in isos:
            if space.class_coords(reps[a].then(reps[b])) == ident:
                inverse[a] = b
                break
    return isos, inverse


def check_orbit_normal_form(pctx: PeriodicContext, keys: Sequence[Key]) -> CheckReport:
    """Enumerate all triangles on a fixed triple of vertices, partition
    them into orbits of the two-sided automorphism action, and verify, on
    the first ``_ORBIT_TARGET`` triples within the ``_ORBIT_*`` caps:

    * every orbit contains an element whose connecting map is block
      diagonal with an invertible block and a radical block, the first
      map vanishing on the split summand and the dual map into it;
    * the fiber counts over automorphisms equal, on both sides, the sum
      over orbits of |End| / (image size * |Aut|) of the split summand.

    Only the context's fiber counts, automorphism orders and hom spaces
    are read, never a product coefficient, so the harness cannot see a
    wrong structure constant and its test is PASS-only by design.
    """
    report = CheckReport("triangle orbit normal form")
    chains = ChainModel(pctx)
    for z in keys:
        for m in keys:
            if pctx.hom_dim(z, m) > _ORBIT_HOM_CAP:
                continue
            if pctx.hom_dim(z, z) > _ORBIT_HOM_CAP or pctx.hom_dim(m, m) > _ORBIT_HOM_CAP:
                continue
            if pctx.aut_order(z) > _ORBIT_AUT_CAP:
                continue
            fibers = pctx.fiber_counts(z, m)
            for l, fcount in fibers.items():
                if pctx.hom_dim(l, l) > _ORBIT_HOM_CAP or pctx.aut_order(l) > _ORBIT_AUT_CAP:
                    continue
                if fcount * pctx.aut_order(l) > _ORBIT_W_CAP:
                    continue
                if pctx.hom_dim(m, l) > _ORBIT_HOM_CAP:
                    continue
                if pctx.hom_dim(pctx.shift_key(z, 1), l) > _ORBIT_HOM_CAP:
                    continue
                _orbit_instance(chains, report, z, l, m)
                if report.checked >= _ORBIT_TARGET:
                    return report
    return report


def _orbit_instance(chains: ChainModel, report: CheckReport, z: Key, l: Key, m: Key) -> None:
    pctx = chains.pctx
    ctx = pctx.ctx
    q = pctx.q
    zero = pctx.zero_key
    Lm = chains.realize(l)
    Z1 = chains.realize(z).shift(1)
    F = chains.hom_space(z, m)
    G = chains.hom_space(m, l)
    H = chain_hom_space(ctx, Lm, Z1)
    end_z = chains.hom_space(z, z)
    end_l = chains.hom_space(l, l)
    end_z1 = chain_hom_space(ctx, Z1, Z1)
    aut_z, inv_z = _invertible_classes(chains, z)
    aut_l, inv_l = _invertible_classes(chains, l)
    where = (
        f"z={pctx.format_key(z)} l={pctx.format_key(l)} m={pctx.format_key(m)}"
    )

    # Every triangle on (z, l, m): a first map with the right cone,
    # completed through each identification of its cone with the model.
    elements: List[Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]] = []
    elemset = set()
    id_l = end_l.class_coords(ChainMap.identity(Lm))
    for fc, f_rep in F.morphisms():
        if cone_key_literal(pctx, f_rep) != l:
            continue
        cone = mapping_cone(ctx, f_rep)
        injs, projs = summand_maps(cone, [f_rep.source.shift(1), f_rep.target])
        incl, proj = injs[1], projs[0]
        end_c = chain_hom_space(ctx, cone, cone)
        id_c = end_c.class_coords(ChainMap.identity(cone))
        psi0 = next(
            (cand for _, cand in chain_hom_space(ctx, cone, Lm).morphisms() if cone_key_literal(pctx, cand) == zero),
            None,
        )
        if psi0 is None:
            report.fail(f"no identification of cone with model, {where}")
            return
        psi0_inv = next(
            (
                cand
                for _, cand in chain_hom_space(ctx, Lm, cone).morphisms()
                if end_c.class_coords(psi0.then(cand)) == id_c and end_l.class_coords(cand.then(psi0)) == id_l
            ),
            None,
        )
        if psi0_inv is None:
            report.fail(f"identification has no inverse, {where}")
            return
        base_m = incl.then(psi0)
        base_n = psi0_inv.then(proj)
        for cc in aut_l:
            c_rep = end_l.rep_map(cc)
            c_inv = end_l.rep_map(inv_l[cc])
            el = (
                fc,
                G.class_coords(base_m.then(c_rep)),
                H.class_coords(c_inv.then(base_n)),
            )
            if el not in elemset:
                elemset.add(el)
                elements.append(el)

    if not elements:
        return

    gens = []
    for ac in aut_z:
        a_rep = end_z.rep_map(ac)
        a_inv1 = end_z.rep_map(inv_z[ac]).shift(1)
        gens.append(("z", _compose_table(F, a_rep, pre=True), _compose_table(H, a_inv1, pre=False)))
    for cc in aut_l:
        c_rep = end_l.rep_map(cc)
        c_inv = end_l.rep_map(inv_l[cc])
        gens.append(("l", _compose_table(G, c_inv, pre=False), _compose_table(H, c_rep, pre=True)))

    unseen = set(elemset)
    orbits: List[List[Tuple]] = []
    for el in elements:
        if el not in unseen:
            continue
        unseen.discard(el)
        orbit = [el]
        queue = [el]
        while queue:
            fc, mc, nc = queue.pop()
            for kind, t1, t2 in gens:
                if kind == "z":
                    nel = (t1(fc), mc, t2(nc))
                else:
                    nel = (fc, t1(mc), t2(nc))
                if nel not in elemset:
                    report.fail(f"automorphism action leaves the triangle set, {where}")
                    return
                if nel in unseen:
                    unseen.discard(nel)
                    orbit.append(nel)
                    queue.append(nel)
        orbits.append(orbit)

    # Block decomposition data of the two endpoint models: the part
    # injections and projections, and the Hom spaces of the blocks.
    l_models = [chains.wrap_part(pt) for pt in l]
    z_models = [chains.wrap_part(pt) for pt in z]
    l_injs, l_projs = summand_maps(Lm, l_models)
    z_injs, z_projs = summand_maps(chains.realize(z), z_models)
    z1_models = [mod.shift(1) for mod in z_models]
    z1_projs = [pr.shift(1) for pr in z_projs]
    nl, nz = len(l), len(z)
    n_blocks = {(qi, pj): chain_hom_space(ctx, l_models[qi], z1_models[pj]) for qi in range(nl) for pj in range(nz)}
    f_blocks = [chains.hom_space((part,), m) for part in z]
    m_blocks = [chains.hom_space(m, (part,)) for part in l]
    split_pairs: List[Tuple[Key, Key]] = []
    ok = True
    for orbit in orbits:
        found = None
        for el in sorted(orbit):
            f_rep = F.rep_map(el[0])
            m_rep = G.rep_map(el[1])
            n_rep = H.rep_map(el[2])
            comps = {}
            comp_zero = {}
            comp_iso = {}
            for qi, pj in n_blocks:
                comp = l_injs[qi].then(n_rep).then(z1_projs[pj])
                comps[(qi, pj)] = comp
                comp_zero[(qi, pj)] = n_blocks[(qi, pj)].is_null_homotopic(comp)
                comp_iso[(qi, pj)] = cone_key_literal(pctx, comp) == zero
            f_from_zero = [space.is_null_homotopic(inj.then(f_rep)) for space, inj in zip(f_blocks, z_injs)]
            m_into_zero = [space.is_null_homotopic(m_rep.then(proj)) for space, proj in zip(m_blocks, l_projs)]
            found = _find_block_partition(chains, l, z, comps, comp_zero, comp_iso, f_from_zero, m_into_zero)
            if found is not None:
                break
        if found is None:
            report.fail(f"orbit with no block normal form, {where}")
            ok = False
            continue
        l1_key, z1_key = found
        if l1_key != pctx.shift_key(z1_key, 1):
            report.fail(f"diagonal block relates unshifted summands, {where}")
            ok = False
        split_pairs.append((l1_key, z1_key))

    # Composition image sizes, from the first triangle and re-checked on
    # one representative per orbit.
    s_reps = [s for _, s in chain_hom_space(ctx, Z1, Lm).morphisms()]
    n_hom, hom_n = _image_sizes(H.rep_map(elements[0][2]), s_reps, end_l, end_z1)
    for orbit in orbits:
        sizes = _image_sizes(H.rep_map(orbit[0][2]), s_reps, end_l, end_z1)
        if sizes != (n_hom, hom_n):
            report.fail(f"image sizes vary across triangles, {where}")
            ok = False

    if ok:
        lhs_target = Fraction(
            pctx.fiber_counts(m, l).get(pctx.shift_key(z, 1), 0), pctx.aut_order(l)
        )
        rhs_target = sum(
            (
                Fraction(q ** pctx.hom_dim(l1, l1), n_hom * pctx.aut_order(l1))
                for l1, _ in split_pairs
            ),
            Fraction(0),
        )
        lhs_source = Fraction(pctx.fiber_counts(z, m).get(l, 0), pctx.aut_order(z))
        rhs_source = sum(
            (
                Fraction(q ** pctx.hom_dim(z1, z1), hom_n * pctx.aut_order(z1))
                for _, z1 in split_pairs
            ),
            Fraction(0),
        )
        if lhs_target != rhs_target:
            report.fail(f"orbit sum mismatch on the target side, {where}")
        if lhs_source != rhs_source:
            report.fail(f"orbit sum mismatch on the source side, {where}")
    report.checked += 1
    report.bump("orbits", len(orbits))
    report.bump("triangles", len(elements))


def _find_block_partition(
    chains: ChainModel,
    l_parts: Sequence[Part],
    z_parts: Sequence[Part],
    comps: Dict[Tuple[int, int], ChainMap],
    comp_zero: Dict[Tuple[int, int], bool],
    comp_iso: Dict[Tuple[int, int], bool],
    f_from_zero: Sequence[bool],
    m_into_zero: Sequence[bool],
) -> Optional[Tuple[Key, Key]]:
    """A summand partition under which the connecting map is diagonal
    with invertible and radical blocks and the adjacent maps vanish on
    the split summand, or None. ``comps`` are the blocks of the
    connecting map between the wrapped parts of l and those of z,
    shifted once (:meth:`perihall.periodic.ChainModel.wrap_part`)."""
    pctx = chains.pctx
    nl, nz = len(l_parts), len(z_parts)
    z1_parts = [(cid, (s + 1) % pctx.t) for cid, s in z_parts]
    for lmask in range(1 << nl):
        q1 = [qi for qi in range(nl) if lmask >> qi & 1]
        q2 = [qi for qi in range(nl) if not lmask >> qi & 1]
        if any(not m_into_zero[qi] for qi in q1):
            continue
        for zmask in range(1 << nz):
            p1 = [pj for pj in range(nz) if zmask >> pj & 1]
            p2 = [pj for pj in range(nz) if not zmask >> pj & 1]
            if any(not f_from_zero[pj] for pj in p1):
                continue
            if any(not comp_zero[(qi, pj)] for qi in q1 for pj in p2):
                continue
            if any(not comp_zero[(qi, pj)] for qi in q2 for pj in p1):
                continue
            # radical block: no component between isomorphic summands
            # may be invertible
            if any(
                l_parts[qi] == z1_parts[pj] and comp_iso[(qi, pj)]
                for qi in q2
                for pj in p2
            ):
                continue
            if (len(q1) == 0) != (len(p1) == 0):
                continue
            if q1:
                l_sub = [chains.wrap_part(l_parts[qi]) for qi in q1]
                z_sub = [chains.wrap_part(z_parts[pj]).shift(1) for pj in p1]
                sub_l, sub_z = (direct_sum_complexes(pctx.ctx, sub, t=pctx.t) for sub in (l_sub, z_sub))
                s_projs, t_injs = summand_maps(sub_l, l_sub)[1], summand_maps(sub_z, z_sub)[0]
                diag = ChainMap.zero(sub_l, sub_z)
                for a, qi in enumerate(q1):
                    for b, pj in enumerate(p1):
                        diag = diag.add(
                            s_projs[a].then(comps[(qi, pj)]).then(t_injs[b])
                        )
                if cone_key_literal(pctx, diag) != pctx.zero_key:
                    continue
            l1_key = tuple(sorted(l_parts[qi] for qi in q1))
            z1_key = tuple(sorted(z_parts[pj] for pj in p1))
            return l1_key, z1_key
    return None


# ----------------------------------------------------------------------
# module-category comparisons
# ----------------------------------------------------------------------


def _subspaces(field, n: int, r: int) -> Iterator[Subspace]:
    """All r-dimensional subspaces of F_p^n, written as canonical rref
    rows at each choice of pivot columns."""
    if r == 0:
        yield Subspace(field, n, ())
        return
    p = field.p
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
            yield Subspace._reduced(field, n, rows, pivots)


def classical_hall_g(ctx: RepContext, x: Rep, y: Rep, l: Rep) -> int:
    """Number of subrepresentations U of l with U iso x and l/U iso y.

    This is the classical Hall number attached to short exact
    sequences 0 -> x -> l -> y -> 0 (sub on the left), counted by
    enumerating subspace tuples within the context's ``enum_cap``.
    """
    if any(xd + yd != ld for xd, yd, ld in zip(x.dims, y.dims, l.dims)):
        return 0
    count = 0
    spaces = [list(_subspaces(ctx.field, l.dims[i], x.dims[i])) for i in range(len(l.dims))]
    ctx.check_budget(
        math.prod(map(len, spaces)),
        "subspace tuples",
        lambda: f"submodules of dimension vector {x.dims} of the module of dimension vector {l.dims}",
    )
    zero = [Subspace(ctx.field, n, ()) for n in l.dims]
    whole = [Subspace(ctx.field, n, MatrixFp.identity(ctx.field, n).rows) for n in l.dims]
    for combo in itertools.product(*spaces):
        sub = ctx.subquotient(l, combo, zero)
        if sub is None or summand_ids(ctx, sub) != summand_ids(ctx, x):
            continue
        if summand_ids(ctx, ctx.subquotient(l, whole, combo)) == summand_ids(ctx, y):
            count += 1
    return count


def check_classical_comparison(engine: HallEngine, bound: Sequence[int]) -> CheckReport:
    """On unshifted modules the periodic structure constants are the
    classical filtration counts times q to minus half the Euler form.
    For factors up to ``bound`` every coefficient of the product is
    compared, along with every module up to ``bound`` of the right total
    dimension; the filtration counts are recomputed here by enumerating
    subrepresentations."""
    report = CheckReport("classical comparison")
    pctx = engine.oracle
    ctx = pctx.ctx
    q = pctx.q
    reps = enumerate_reps(ctx, bound)
    report.details["module classes"] = len(reps)
    keys = [module_key(pctx, r) for r in reps]
    for xi, x_rep in enumerate(reps):
        for yi, y_rep in enumerate(reps):
            e = ctx.quiver.euler_form(x_rep.dims, y_rep.dims)
            prod = engine.multiply(keys[xi], keys[yi])
            targets = dict.fromkeys(prod.support)
            for li, l_rep in enumerate(reps):
                if l_rep.total_dim == x_rep.total_dim + y_rep.total_dim:
                    targets[keys[li]] = None
            for lk in targets:
                where = (
                    f"x={pctx.format_key(keys[xi])} y={pctx.format_key(keys[yi])}"
                    f" l={pctx.format_key(lk)}"
                )
                report.checked += 1
                if any(s for _, s in lk):
                    report.fail(f"product leaves the module layer at {where}")
                    continue
                g = classical_hall_g(ctx, x_rep, y_rep, part_rep(pctx, lk, 0))
                expected = HallValue.sqrt_q_power(-e, q) * g
                got = prod.coeff(lk)
                if g:
                    report.bump("nonzero")
                if got != expected:
                    report.fail(
                        f"{where}: engine {got}, classical {g} with twist exponent {-e}"
                    )
    return report


def check_hom_dimensions(pctx: PeriodicContext, keys: Sequence[Key]) -> CheckReport:
    """Hom dimensions two ways on every pair of the keys: the
    residue-pattern covering formula against the literal
    chain-map-modulo-homotopy computation on the realized complexes."""
    report = CheckReport("hom dimension agreement")
    chains = ChainModel(pctx)
    for x in keys:
        for y in keys:
            covering = pctx.hom_dim(x, y)
            literal = chains.hom_space(x, y).dim
            report.checked += 1
            if covering != literal:
                report.fail(
                    f"covering {covering} != literal {literal} at"
                    f" {pctx.format_key(x)} -> {pctx.format_key(y)}"
                )
    return report


def check_cone_well_defined(pctx: PeriodicContext, keys: Sequence[Key]) -> CheckReport:
    """The cone construction is well defined on the homotopy category:
    normal forms round-trip, rotate by one slot per shift, and come back
    after t shifts; cone classes ignore the chain representative and
    contractible padding, on the first ``_CONE_MORPHISMS`` morphisms
    sampled; and the mod-2 dimension vector is additive on every
    triangle of every ordered pair of the keys.

    Rotation needs no check of its own: :func:`complex_key` tags piece s
    with shift s, so the round trip fixes the summand ids of every piece
    of the model, and the shifted key fixes those of the shifted model's
    pieces, one slot on.

    No engine is involved and no product coefficient is read, so the
    harness cannot see a wrong structure constant and its test is
    PASS-only by design."""
    report = CheckReport("cone well-definedness")
    ctx = pctx.ctx
    chains = ChainModel(pctx)

    for key in keys:
        model = chains.realize(key)
        report.checked += 1
        if complex_key(pctx, model) != key:
            report.fail(f"normal form round trip at {pctx.format_key(key)}")
            continue
        if complex_key(pctx, model.shift(1)) != pctx.shift_key(key, 1):
            report.fail(f"shifted normal form at {pctx.format_key(key)}")
        shifted = model
        for _ in range(pctx.t):
            shifted = shifted.shift(1)
        if complex_key(pctx, shifted) != key:
            report.fail(f"{pctx.t} shifts not the identity at {pctx.format_key(key)}")

    # homotopy representatives and contractible padding
    pad_source = next((k for k in keys if pctx.total_dim(k)), None)
    sampled = 0
    if pad_source is not None:
        pad = mapping_cone(ctx, ChainMap.identity(chains.realize(pad_source)))
        dims = [pctx.total_dim(k) for k in keys]
        order = sorted(
            ((dims[i] + dims[j], i, j) for i in range(len(keys)) for j in range(len(keys)))
        )
        for _, i, j in order:
            if sampled >= _CONE_MORPHISMS:
                break
            x, y = keys[i], keys[j]
            lit = chains.hom_space(x, y)
            if lit.dim == 0:
                continue
            into_padded = summand_maps(direct_sum_complexes(ctx, [lit.target, pad], t=pctx.t), [lit.target, pad])[0][0]
            out_of_padded = summand_maps(direct_sum_complexes(ctx, [lit.source, pad], t=pctx.t), [lit.source, pad])[1][0]
            for f in lit.unit_maps + [lit.rep_map((1,) * lit.dim)]:
                if sampled >= _CONE_MORPHISMS:
                    break
                base_cone = cone_key_literal(pctx, f)
                wobble = lit.random_boundary([1 + (sampled % 3), 2, 1])
                if cone_key_literal(pctx, f.add(wobble)) != base_cone:
                    report.fail(
                        f"cone class moved under homotopy at {pctx.format_key(x)}"
                        f" -> {pctx.format_key(y)}"
                    )
                if cone_key_literal(pctx, f.then(into_padded)) != base_cone:
                    report.fail(
                        f"cone class moved under target padding at"
                        f" {pctx.format_key(x)} -> {pctx.format_key(y)}"
                    )
                if cone_key_literal(pctx, out_of_padded.then(f)) != base_cone:
                    report.fail(
                        f"cone class moved under source padding at"
                        f" {pctx.format_key(x)} -> {pctx.format_key(y)}"
                    )
                sampled += 1
                report.checked += 1
    report.details["morphisms"] = sampled

    triangles = 0
    for x, y in itertools.product(keys, repeat=2):
        dx = dvec_mod2(pctx, x)
        dy = dvec_mod2(pctx, y)
        for l in pctx.fiber_counts(pctx.shift_key(y, -1), x):
            dl = dvec_mod2(pctx, l)
            triangles += 1
            report.checked += 1
            if any((a + b - c) % 2 for a, b, c in zip(dx, dy, dl)):
                report.fail(
                    f"mod-2 dimension vector not additive on triangle"
                    f" {pctx.format_key(x)}, {pctx.format_key(y)}"
                    f" -> {pctx.format_key(l)}"
                )
    report.details["triangles"] = triangles
    return report


# ----------------------------------------------------------------------
# straightening relations and layered expansion
# ----------------------------------------------------------------------


def check_relations(engine: HallEngine, module_keys: Sequence[Key]) -> CheckReport:
    """The defining relations between the shifted module generators: a
    same-layer family at each shift n, and a crossing family for the
    layers n and n + 1 at each n < t, the last wrapping round as a shift
    by t is the identity. A crossing expands a product of consecutive
    layers into reversed pairs weighted by the structure constant times
    the Euler twist, q to minus half the Euler form of the (kernel,
    cokernel) pair. The untwisted spelling is probed alongside and each
    deviating term is confirmed to deviate by exactly the split-product
    factor."""
    report = CheckReport("straightening relations")
    pctx = engine.oracle
    q = pctx.q
    zero = pctx.zero_key
    shift = pctx.shift_key
    report.details["literal deviations"] = 0

    for n in range(pctx.t):
        for x in module_keys:
            for y in module_keys:
                left = engine.multiply(shift(x, n), shift(y, n))
                right = HallVector(q, {shift(lk, n): cv for lk, cv in engine.multiply(x, y).items()})
                report.checked += 1
                if left != right:
                    report.fail(f"same-layer relation at shift {n}: {pctx.format_key(x)}, {pctx.format_key(y)}")

    def crossing(x: Key, y: Key, n: int) -> None:
        """One crossing relation instance, layers n and n + 1."""
        left = engine.multiply(shift(x, n), shift(y, n + 1))
        source = engine.multiply(x, shift(y, 1))
        rhs = HallVector(q)
        literal_same = True
        for lk, cv in source.items():
            cok, ker, *rest = pctx.components(lk)
            if any(c != zero for c in rest):
                report.fail(f"crossing support leaves layers 0 and 1 at {pctx.format_key(lk)}")
                return
            tw_exp = pctx.brace_exponent(ker, cok)
            mini = engine.multiply(shift(ker, n + 1), shift(cok, n))
            merged = pctx.direct_sum_key(shift(ker, n + 1), shift(cok, n))
            if mini.support != (merged,) or mini.coeff(merged) != HallValue.sqrt_q_power(-tw_exp, q):
                pair = f"{pctx.format_key(ker)}, {pctx.format_key(cok)}"
                report.fail(f"reversed pair is not a pure split product at {pair}")
                return
            if tw_exp:
                report.details["literal deviations"] += 1
                literal_same = False
            rhs = rhs.add(mini.scale(cv * HallValue.sqrt_q_power(tw_exp, q)))
        report.checked += 1
        if left != rhs:
            report.fail(f"crossing relation (shift {n}) at {pctx.format_key(x)}, {pctx.format_key(y)}")
        elif not literal_same:
            # the untwisted spelling drops the Euler factors, so it must
            # differ from the product whenever any factor is nontrivial
            literal = HallVector(q)
            for lk, cv in source.items():
                c0, c1, *_ = pctx.components(lk)
                literal = literal.add(engine.multiply(shift(c1, n + 1), shift(c0, n)).scale(cv))
            if literal == left:
                report.fail(f"untwisted spelling unexpectedly matches at {pctx.format_key(x)}, {pctx.format_key(y)}")

    for n in range(pctx.t):
        for x in module_keys:
            for y in module_keys:
                crossing(x, y, n)
    return report


def check_pbw_round_trip(engine: HallEngine, keys: Sequence[Key]) -> CheckReport:
    """Layered expansion terminates on every object and evaluating the
    expansion recovers the object's basis vector exactly.

    The round trip holds by construction for any product that is
    bilinear and answers the same on every call, right or wrong:
    expanding x writes u_x = (P - sum_l c_l u_l) / c_x, where P is the
    ordered product of the layers and c its coefficients, and evaluating
    the expansion reads the same P (``HallEngine.layer_product``) and,
    by induction on the smaller l, gives u_l back for each
    pbw_expand(l). So this
    harness cannot see a wrong structure constant (it passes on
    :class:`FaultyEngine`); :func:`check_symmetry` and
    :func:`check_associativity` are the ones that do. It checks that
    the straightening terminates and never loses its leading term.
    """
    report = CheckReport("layered expansion round trip")
    most = 0
    for key in keys:
        expr = engine.pbw_expand(key)
        most = max(most, len(expr.items()))
        report.checked += 1
        if expr.evaluate(engine) != engine.vector(key):
            report.fail(f"round trip at {_fmt(engine, key)}")
    report.details["largest expansion"] = most
    return report
