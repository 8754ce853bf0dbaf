import itertools
import operator

import pytest
from hypothesis import given, strategies as st

from perihall.category import PeriodicContext
from perihall.checks import (
    class_id,
    classical_hall_g,
    decompose,
    enumerate_reps,
    ext1_dim_by_euler_form,
    ext1_dim_literal,
    is_indecomposable,
    iso_between,
    matrix_inverse,
    module_aut_order,
    module_key,
    summand_ids,
)
from perihall import gfp
from perihall.gfp import FieldSpec, MatrixFp
from perihall.quiver import Arrow, Quiver, line_quiver
from perihall.periodic import ChainMap, CycleComplex, corestrict, direct_sum_complexes, proj_resolution, projective, summand_maps
from perihall.reps import BudgetExceeded, Rep, RepContext, RepMap

A1 = line_quiver(1)
A2 = line_quiver(2)
A3 = line_quiver(3)
KRONECKER = Quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "1", "2")])
SINK_A3 = Quiver(["1", "2", "3"], [Arrow("a", "1", "2"), Arrow("b", "3", "2")])
# two paths, the second declared against its arrow, and an isolated vertex
PATHS = Quiver(["1", "2", "3", "4", "5"], [Arrow("a", "1", "2"), Arrow("b", "4", "3")])


def ctx_a1(p=2, **kw):
    return RepContext(A1, FieldSpec(p), **kw)


def ctx_a2(p=2, **kw):
    return RepContext(A2, FieldSpec(p), **kw)


def s1(ctx):
    return ctx.simple("1")


def s2(ctx):
    return ctx.simple("2")


def p1(ctx):
    return projective(ctx, "1")


# -- hom spaces ------------------------------------------------------


def test_hom_dims_a2():
    ctx = ctx_a2()
    table = {
        ("s1", "s1"): 1,
        ("s1", "s2"): 0,
        ("s2", "s1"): 0,
        ("s2", "s2"): 1,
        ("p1", "s1"): 1,
        ("s1", "p1"): 0,
        ("p1", "s2"): 0,
        ("s2", "p1"): 1,
        ("p1", "p1"): 1,
    }
    reps = {"s1": s1(ctx), "s2": s2(ctx), "p1": p1(ctx)}
    for (a, b), want in table.items():
        assert len(ctx.hom_ext(reps[a], reps[b]).hom) == want, (a, b)


def test_hom_basis_members_are_morphisms():
    ctx = ctx_a2(3)
    x = ctx.block_sum([p1(ctx), s1(ctx)])
    y = ctx.block_sum([p1(ctx), s2(ctx)])
    for h in ctx.hom_ext(x, y).hom:
        # revalidate the intertwiner condition with checking on
        RepMap(x, y, h.comps, check=True)


@pytest.mark.parametrize(
    "quiver, p, bound",
    [(A2, 2, (2, 2)), (A2, 3, (2, 1)), (A3, 2, (1, 1, 1)), (A3, 3, (1, 1, 1)), (KRONECKER, 2, (2, 1))],
    ids=["A2-p2", "A2-p3", "A3-p2", "A3-p3", "kronecker-p2"],
)
def test_hom_maps_are_the_rows_of_their_span(quiver, p, bound):
    # the Hom maps unflatten the kernel span's rref rows in order, so a
    # map's coordinates, read at the span's pivots, are its own
    ctx = RepContext(quiver, FieldSpec(p))
    pool = enumerate_reps(ctx, bound)
    dims = set()
    for x in pool:
        for y in pool:
            he = ctx.hom_ext(x, y)
            assert [f.flat() for f in he.hom] == he.span.basis.rows, (x.dims, y.dims)
            for k, f in enumerate(he.hom):
                assert he.hom_coords(f) == tuple(int(j == k) for j in range(len(he.hom)))
            coeffs = tuple(k % p for k in range(1, len(he.hom) + 1))
            if he.hom:
                assert he.hom_coords(ctx.map_from_coeffs(he.hom, coeffs)) == coeffs
            dims.add(len(he.hom))
    assert max(dims) >= 2


def test_one_hom_ext_miss_eliminates_delta_once(monkeypatch):
    # one elimination of delta gives its kernel and image; only a nonzero
    # kernel is reduced once more, and a delta with no unknowns needs none
    calls = []
    real = gfp._rref_in_place
    monkeypatch.setattr(gfp, "_rref_in_place", lambda *args: calls.append(args) or real(*args))
    seen = set()
    for quiver, p, bound in ((A2, 3, (2, 1)), (A3, 2, (1, 1, 1))):
        pool = enumerate_reps(RepContext(quiver, FieldSpec(p)), bound)
        ctx = RepContext(quiver, FieldSpec(p))
        for x in pool:
            for y in pool:
                calls.clear()
                he = ctx.hom_ext(x, y)
                unknowns = sum(map(operator.mul, x.dims, y.dims))
                assert len(calls) == (unknowns > 0) + (len(he.hom) > 0), (x.dims, y.dims)
                calls.clear()
                assert ctx.hom_ext(x, y) is he and not calls
                seen.add((unknowns > 0, len(he.hom) > 0))
    assert seen == {(False, False), (True, False), (True, True)}


def _ext1_three_ways(ctx, x, y):
    """dim Ext^1(x, y) as the cokernel of delta, by the Euler form and by
    the literal cocycle count, after checking that the three agree."""
    literal = ext1_dim_literal(ctx, x, y)
    assert ctx.hom_ext(x, y).ext_dim == ext1_dim_by_euler_form(ctx, x, y) == literal, (x.dims, y.dims)
    return literal


def test_euler_form_matches_hom_minus_ext():
    # the literal Ext^1 count, not the engine's, against <x, y>, and the
    # engine's cokernel of delta and the Euler-form recipe against it
    for p in (2, 3):
        ctx = ctx_a2(p)
        classes = enumerate_reps(ctx, (2, 2))
        for x in classes[:8]:
            for y in classes[:8]:
                _ext1_three_ways(ctx, x, y)


# -- kernels, images, cokernels --------------------------------------


def _some_homs(ctx, x, y, limit=12):
    basis = ctx.hom_ext(x, y).hom
    out = []
    p = ctx.field.p
    for coeffs in itertools.islice(itertools.product(range(p), repeat=len(basis)), limit):
        if basis:
            out.append(ctx.map_from_coeffs(basis, coeffs))
    return out or [RepMap.zero_map(x, y)]


def test_factorize_exactness():
    ctx = ctx_a2()
    pool = [s1(ctx), s2(ctx), p1(ctx), ctx.block_sum([p1(ctx), s1(ctx)]), ctx.block_sum([s1(ctx), s2(ctx)])]
    for x in pool:
        for y in pool:
            for f in _some_homs(ctx, x, y, limit=8):
                ker, kincl = ctx.kernel(f)
                im, iincl = ctx.image(f)
                iproj = corestrict(f, iincl)
                cok, cproj = ctx.cokernel(f)
                assert kincl.then(f).is_zero()
                assert iincl.then(cproj).is_zero()
                assert iproj.then(iincl) == f
                assert ker.total_dim + im.total_dim == x.total_dim
                assert im.total_dim + cok.total_dim == y.total_dim
                # inclusions and projections are honest morphisms
                RepMap(ker, x, kincl.comps, check=True)
                RepMap(y, cok, cproj.comps, check=True)


def test_kernel_of_projective_cover_is_socle():
    ctx = ctx_a2()
    res = proj_resolution(ctx, s1(ctx))
    assert res.p0.dims == (1, 1)
    assert res.p1.dims == (0, 1)
    # P0 = P(1) and P1 = P(2): one projective summand each
    assert summand_ids(ctx, res.p0) == summand_ids(ctx, projective(ctx, "1"))
    assert summand_ids(ctx, res.p1) == summand_ids(ctx, projective(ctx, "2"))
    assert res.d.then(res.eps).is_zero()


def test_resolution_of_projective_is_trivial():
    ctx = ctx_a2()
    res = proj_resolution(ctx, p1(ctx))
    assert res.p1.total_dim == 0
    assert res.p0.dims == (1, 1)


def test_resolution_a3():
    ctx = RepContext(A3, FieldSpec(2))
    res = proj_resolution(ctx, ctx.simple("1"))
    assert res.p0.dims == (1, 1, 1)
    assert res.p1.dims == (0, 1, 1)


# -- decomposition and isomorphism -----------------------------------


def test_decompose_simple_sum():
    ctx = ctx_a2()
    x = ctx.block_sum([p1(ctx), s1(ctx), s2(ctx)])
    dec = decompose(ctx, x)
    assert sorted(s.dims for s in dec.summands) == [(0, 1), (1, 0), (1, 1)]
    for s, incl in zip(dec.summands, dec.inclusions):
        assert incl.source == s and incl.target == x
        RepMap(s, x, incl.comps, check=True)
    for i in range(len(x.dims)):
        stacked = MatrixFp.zeros(ctx.field, 0, x.dims[i])
        for incl in dec.inclusions:
            stacked = stacked.vstack(incl.comps[i])
        assert stacked.is_invertible()


def test_decompose_refuses_a_split_that_is_not_a_direct_sum(monkeypatch):
    # a kernel that returns the image: the two halves of the Fitting split
    # of S + S overlap, so the per-vertex check must raise
    monkeypatch.setattr(RepContext, "kernel", RepContext.image)
    ctx = ctx_a1()
    x = ctx.block_sum([s1(ctx), s1(ctx)])
    with pytest.raises(AssertionError):
        decompose(ctx, x)


def test_decompose_square_of_simple():
    ctx = ctx_a1(3)
    s = s1(ctx)
    x = ctx.block_sum([s, s])
    dec = decompose(ctx, x)
    assert len(dec.summands) == 2
    assert all(ss.dims == (1,) for ss in dec.summands)


def test_indecomposables_a2():
    ctx = ctx_a2()
    assert is_indecomposable(ctx, s1(ctx))
    assert is_indecomposable(ctx, p1(ctx))
    assert not is_indecomposable(ctx, ctx.block_sum([s1(ctx), s2(ctx)]))


def test_nontrivial_iso_detected():
    ctx = ctx_a2(3)
    # the representation (k -2-> k) is isomorphic to P1 but not equal to it
    twisted = Rep(ctx.field, A2, (1, 1), {"a1": MatrixFp(ctx.field, [[2]])})
    assert summand_ids(ctx, twisted) == summand_ids(ctx, p1(ctx))
    assert summand_ids(ctx, twisted) != summand_ids(ctx, ctx.block_sum([s1(ctx), s2(ctx)]))
    w = iso_between(ctx, twisted, p1(ctx))
    assert w is not None and w.is_iso()
    RepMap(twisted, p1(ctx), w.comps, check=True)


def test_iso_distinguishes_extension_from_sum():
    ctx = ctx_a2()
    split = ctx.block_sum([s1(ctx), s2(ctx)])
    assert summand_ids(ctx, split) != summand_ids(ctx, p1(ctx))


def _base_changed(ctx, x):
    """A copy of x with different matrices, transported along a fixed
    non-identity automorphism g of every vertex space: the arrow u -> w
    becomes g_u^-1 X_a g_w, so g itself is an iso x -> copy."""
    p = ctx.field.p
    g = []
    for d in x.dims:
        rows = [[(p - 1 if j == i else 1 if j == i + 1 else 0) for j in range(d)] for i in range(d)]
        g.append(MatrixFp(ctx.field, rows, ncols=d))
    q = x.quiver
    mats = {
        a.name: matrix_inverse(g[q.vertex_index(a.source)]).mul(x.mats[a.name]).mul(g[q.vertex_index(a.target)])
        for a in q.arrows
    }
    moved = Rep(ctx.field, q, x.dims, mats)
    RepMap(x, moved, g, check=True)
    return moved


@pytest.mark.parametrize(
    "quiver, p, bound, classes",
    [(A2, 2, (2, 2), 14), (A2, 3, (2, 2), 14), (A3, 2, (1, 1, 1), 13), (KRONECKER, 3, (1, 2), 15)],
    ids=["A2-p2", "A2-p3", "A3-p2", "kronecker-p3"],
)
def test_is_isomorphic_agrees_with_the_witness_recipe(quiver, p, bound, classes):
    # Krull-Schmidt types against the summand-matching witness of
    # checks.iso_between, on every pair of class representatives and on
    # a base-changed copy of each against every representative (over F_2
    # a vertex of dimension 1 has no other automorphism, so on A3 at p=2
    # the copies equal the originals)
    ctx = RepContext(quiver, FieldSpec(p))
    reps = enumerate_reps(ctx, bound)
    assert len(reps) == classes
    moved = [_base_changed(ctx, r) for r in reps]
    for i, x in enumerate(reps + moved):
        for j, y in enumerate(reps):
            w = iso_between(ctx, x, y)
            assert (summand_ids(ctx, x) == summand_ids(ctx, y)) == (w is not None) == (i % len(reps) == j), (x, y)
            if w is not None:
                assert w.is_iso()
                RepMap(x, y, w.comps, check=True)


def test_class_id_takes_indecomposables_only():
    ctx = ctx_a2()
    split = ctx.block_sum([s1(ctx), s2(ctx)])
    for x in (ctx.zero_rep(), split):
        with pytest.raises(ValueError):
            class_id(ctx, x)
    assert ctx.class_count() == 0
    assert summand_ids(ctx, ctx.zero_rep()) == ()
    assert summand_ids(ctx, split) == tuple(sorted((class_id(ctx, s1(ctx)), class_id(ctx, s2(ctx)))))
    assert ctx.class_count() == 2
    # enumerate_reps lists S1 + S2 in the registry; class_id still refuses it
    assert split in enumerate_reps(ctx, (1, 1))
    assert any(ctx.class_rep(cid) == split for cid in range(ctx.class_count()))
    with pytest.raises(ValueError):
        class_id(ctx, split)


def test_the_registry_refuses_a_module_of_another_field_or_quiver():
    # over F_2, the F_3 module with arrow matrix [[2]] once read as the
    # split S1 + S2, and an A3 module as a bare IndexError
    pctx = PeriodicContext(ctx_a2())
    ctx = pctx.ctx
    f3 = FieldSpec(3)
    foreign_field = Rep(f3, A2, (1, 1), {"a1": MatrixFp(f3, [[2]])})
    foreign_quiver = Rep(ctx.field, A3, (1, 1, 1), {"a1": MatrixFp(ctx.field, [[1]]), "a2": MatrixFp(ctx.field, [[1]])})
    for rep, names in ((foreign_field, ("F_3", "F_2")), (foreign_quiver, (repr(A3), repr(A2)))):
        for lookup in (lambda r: summand_ids(ctx, r), lambda r: class_id(ctx, r), lambda r: module_key(pctx, r)):
            with pytest.raises(ValueError) as err:
                lookup(rep)
            assert all(name in str(err.value) for name in names), str(err.value)
    assert ctx.class_count() == 0
    # an equal field and quiver built apart are the same category
    same = Rep(FieldSpec(2), line_quiver(2), (1, 1), {"a1": MatrixFp(FieldSpec(2), [[1]])})
    assert summand_ids(ctx, same) == (class_id(ctx, p1(ctx)),)


def test_class_registry_stable():
    ctx = ctx_a2()
    a = class_id(ctx, s1(ctx))
    b = class_id(ctx, s2(ctx))
    twisted = Rep(ctx.field, A2, (1, 1), {"a1": MatrixFp(ctx.field, [[1]])})
    c = class_id(ctx, p1(ctx))
    assert class_id(ctx, twisted) == c
    assert len({a, b, c}) == 3


# -- automorphism counts ---------------------------------------------


def test_aut_orders_small():
    ctx = ctx_a1(2)
    s = s1(ctx)
    assert module_aut_order(ctx, s) == 1
    ss = ctx.block_sum([s, s])
    assert module_aut_order(ctx, ss) == 6  # |GL_2(F_2)|
    ctx3 = ctx_a1(3)
    s3 = s1(ctx3)
    assert module_aut_order(ctx3, s3) == 2
    assert module_aut_order(ctx3, ctx3.block_sum([s3, s3])) == 48  # |GL_2(F_3)|


def test_aut_orders_a2():
    ctx = ctx_a2()
    assert module_aut_order(ctx, p1(ctx)) == 1
    assert module_aut_order(ctx, ctx.block_sum([s1(ctx), s2(ctx)])) == 1
    assert module_aut_order(ctx, ctx.block_sum([p1(ctx), s1(ctx)])) == 2


def test_aut_formula_agrees_with_enumeration():
    cases = [
        (ctx_a1(2), lambda c: c.block_sum([s1(c), s1(c)])),
        (ctx_a1(3), lambda c: c.block_sum([s1(c), s1(c)])),
        (ctx_a2(2), lambda c: c.block_sum([p1(c), s1(c)])),
        (ctx_a2(2), lambda c: c.block_sum([p1(c), s1(c), s2(c)])),
        (ctx_a2(3), lambda c: c.block_sum([s1(c), s1(c), s2(c)])),
    ]
    for ctx, build in cases:
        x = build(ctx)
        basis = ctx.hom_ext(x, x).hom
        p = ctx.field.p
        units = sum(
            ctx.map_from_coeffs(basis, coeffs).is_iso()
            for coeffs in itertools.product(range(p), repeat=len(basis))
        )
        assert module_aut_order(ctx, x) == units


def test_aut_order_of_zero():
    ctx = ctx_a2()
    assert module_aut_order(ctx, ctx.zero_rep()) == 1


def test_budget_errors_name_their_module():
    # the Kronecker module (I, A) with A irreducible over F_2 has
    # End = F_4: every basis candidate is a unit, so certifying it
    # indecomposable walks all 4 endomorphisms, as does profiling it
    f2 = FieldSpec(2)
    r = Rep(f2, KRONECKER, (2, 2), {"a": MatrixFp.identity(f2, 2), "b": MatrixFp(f2, [[0, 1], [1, 1]])})
    ctx = RepContext(KRONECKER, f2, enum_cap=2)
    with pytest.raises(BudgetExceeded, match=r"indecomposability of the module of dimension vector \(2, 2\)"):
        decompose(ctx, r)
    with pytest.raises(BudgetExceeded, match=r"indecomposable of dimension vector \(2, 2\)"):
        ctx.residue_field_degree(r)
    # a submodule of dimension (0, 1) sits on one of the 3 lines of F_2^2
    top = Rep(f2, KRONECKER, (2, 1), {})
    with pytest.raises(BudgetExceeded, match=r"dimension vector \(0, 1\) of the module of dimension vector \(2, 2\)"):
        classical_hall_g(ctx, ctx.simple("2"), top, r)


# -- Ext^1 -----------------------------------------------------------


def test_ext_dims_a2():
    for p in (2, 3):
        ctx = ctx_a2(p)
        assert _ext1_three_ways(ctx, s1(ctx), s2(ctx)) == 1
        assert _ext1_three_ways(ctx, s2(ctx), s1(ctx)) == 0
        assert _ext1_three_ways(ctx, s1(ctx), s1(ctx)) == 0
        assert _ext1_three_ways(ctx, p1(ctx), s2(ctx)) == 0
        assert _ext1_three_ways(ctx, s2(ctx), p1(ctx)) == 0


def test_ext1_matches_euler_form_on_a3():
    # the engine's cokernel of delta, the Euler-form recipe and the
    # literal cocycle count agree on every pair of reps of A3 up to
    # (1,1,1)
    ctx = RepContext(A3, FieldSpec(2))
    reps = enumerate_reps(ctx, (1, 1, 1))
    assert len(reps) ** 2 == 169
    assert sum(_ext1_three_ways(ctx, x, y) for x in reps for y in reps) > 0


# -- enumeration -----------------------------------------------------


def test_enumerate_reps_a1():
    ctx = ctx_a1()
    classes = enumerate_reps(ctx, (2,))
    assert [c.dims for c in classes] == [(0,), (1,), (2,)]


def test_enumerate_reps_a2_unit_box():
    ctx = ctx_a2()
    classes = enumerate_reps(ctx, (1, 1))
    assert len(classes) == 5
    assert [c.dims for c in classes] == [(0, 0), (0, 1), (1, 0), (1, 1), (1, 1)]


def test_enumerate_reps_a2_two_box():
    ctx = ctx_a2()
    classes = enumerate_reps(ctx, (2, 2))
    assert len(classes) == 14
    # grading: total dimension is non-decreasing
    totals = [c.total_dim for c in classes]
    assert totals == sorted(totals)


def test_kronecker_types_up_to_dimension_one_one():
    # the Kronecker modules of dimension at most (1, 1) at p=3: zero, S1,
    # S2, S1 + S2 and one indecomposable per point of P^1(F_3)
    ctx = RepContext(KRONECKER, FieldSpec(3))
    assert len({summand_ids(ctx, r) for r in enumerate_reps(ctx, (1, 1))}) == 8


@pytest.mark.parametrize("bound", [(-1, 1), (1, -1), (1,), (1, 1, 1)])
def test_enumerate_reps_refuses_a_bad_bound(bound):
    # a negative entry is refused as a bound of the wrong length is,
    # rather than listing nothing, not even the zero module
    ctx = ctx_a2()
    with pytest.raises(ValueError, match="bound"):
        enumerate_reps(ctx, bound)
    assert [r.dims for r in enumerate_reps(ctx, (0, 0))] == [(0, 0)]


def test_enumerate_deterministic():
    c1 = enumerate_reps(ctx_a2(), (1, 1))
    c2 = enumerate_reps(ctx_a2(), (1, 1))
    assert [r.key() for r in c1] == [r.key() for r in c2]


def type_dims(ctx, ids):
    """A Krull-Schmidt type written by its summands' dimension vectors."""
    return tuple(sorted(ctx.class_rep(cid).dims for cid in ids))


@pytest.mark.parametrize(
    "quiver, p, bound",
    [
        (A1, 2, (3,)),
        (A1, 3, (3,)),
        (A2, 2, (2, 2)),
        (A2, 3, (2, 2)),
        (A3, 2, (1, 2, 1)),
        (A3, 3, (1, 2, 1)),
        (SINK_A3, 2, (1, 2, 1)),
        (SINK_A3, 3, (1, 2, 1)),
        (PATHS, 2, (1, 2, 1, 1, 2)),
    ],
    ids=["A1-p2", "A1-p3", "A2-p2", "A2-p3", "A3-p2", "A3-p3", "sink-A3-p2", "sink-A3-p3", "paths-p2"],
)
def test_type_a_modules_are_the_types_brute_force_finds(quiver, p, bound):
    # the generated types against enumerate_reps on a fresh context, by
    # dimension vectors; the indecomposables come first, in the order
    # brute force registers them, and each listed zero or decomposable
    # class decomposes into the summands it is listed under
    ctx = RepContext(quiver, FieldSpec(p))
    generated = ctx.module_types(bound)
    brute = RepContext(quiver, FieldSpec(p))
    listed = enumerate_reps(brute, bound)
    assert len({ids for _, ids in generated}) == len(generated) == len(listed)
    assert sorted((d, type_dims(ctx, ids)) for d, ids in generated) == sorted(
        (r.total_dim, type_dims(brute, summand_ids(brute, r))) for r in listed
    )
    indec = ctx.indecomposable_ids()
    assert indec == tuple(range(len(indec)))
    found = [brute.class_rep(cid) for cid in range(brute.class_count())]
    assert [ctx.class_rep(cid).dims for cid in indec] == [r.dims for r in found if is_indecomposable(brute, r)]
    assert ctx.class_count() == len(generated)
    assert len(ctx._class_of_type) == len(generated) - len(indec)
    for ids, cid in ctx._class_of_type.items():
        assert summand_ids(ctx, ctx.class_rep(cid)) == ids


def test_the_generator_matches_classes_registered_before_it():
    # a base-changed P1 (arrow matrix 2 over F_3) and S2 registered
    # first keep their ids and representatives; on type A the dimension
    # vector matches an interval to them, and the types stay those of
    # brute force
    ctx = ctx_a2(3)
    twisted = Rep(ctx.field, A2, (1, 1), {"a1": MatrixFp(ctx.field, [[2]])})
    assert (class_id(ctx, twisted), class_id(ctx, s2(ctx))) == (0, 1)
    assert ctx.indecomposable_ids() == (1, 2, 0)
    assert ctx.class_rep(0) is twisted
    brute = ctx_a2(3)
    assert sorted(type_dims(ctx, ids) for _, ids in ctx.module_types((2, 1))) == sorted(
        type_dims(brute, summand_ids(brute, r)) for r in enumerate_reps(brute, (2, 1))
    )
    # after brute force, which lists S1 + S2 at (1, 1) before P1, the
    # intervals are the classes it registered as indecomposable
    ids = brute.indecomposable_ids()
    assert [brute.class_rep(cid).dims for cid in ids] == [(0, 1), (1, 0), (1, 1)]
    assert all(is_indecomposable(brute, brute.class_rep(cid)) for cid in ids)


@pytest.mark.parametrize("quiver", [A2, KRONECKER], ids=["a2-generated", "kronecker-enumerated"])
@pytest.mark.parametrize("bound", [(-1, 1), (1, -1), (1,), (1, 1, 1)])
def test_module_types_refuse_a_bad_bound(quiver, bound):
    # the generated path refuses what enumerate_reps refuses, through
    # the context and through the object listing, and a bad bound is
    # refused before a quiver not of type A is
    pctx = PeriodicContext(RepContext(quiver, FieldSpec(2)))
    for listing in (pctx.ctx.module_types, pctx.enumerate_objects):
        with pytest.raises(ValueError, match="bound"):
            listing(bound)
    if quiver is KRONECKER:
        with pytest.raises(NotImplementedError, match="type A"):
            pctx.ctx.module_types((0, 0))
    else:
        assert pctx.ctx.module_types((0, 0)) == [(0, ())]


def test_indecomposables_are_listed_only_on_type_a():
    # nor are the modules or the objects of a bound: on the Kronecker
    # quiver, D4 and the triangle only checks.enumerate_reps lists them,
    # 7, 35 and 18 types of bound (1, ..., 1) at p = 2
    d4 = Quiver(["c", "1", "2", "3"], [Arrow("a", "1", "c"), Arrow("b", "2", "c"), Arrow("d", "3", "c")])
    triangle = Quiver(["1", "2", "3"], [Arrow("a", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "1", "3")])
    for quiver, types in ((KRONECKER, 7), (d4, 35), (triangle, 18)):
        pctx = PeriodicContext(RepContext(quiver, FieldSpec(2)))
        bound = (1,) * len(quiver.vertices)
        for listing in (
            pctx.ctx.indecomposable_ids,
            lambda: pctx.ctx.module_types(bound),
            lambda: next(pctx.objects(bound)),
            lambda: pctx.enumerate_objects(bound),
        ):
            with pytest.raises(NotImplementedError, match="type A"):
                listing()
        assert pctx.ctx.class_count() == 0
        assert len(enumerate_reps(pctx.ctx, bound)) == types


@pytest.mark.parametrize(
    "quiver",
    [
        # an unoriented triangle, and the D4 star
        Quiver(["1", "2", "3"], [Arrow("a", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "1", "3")]),
        Quiver(["c", "1", "2", "3"], [Arrow("a", "1", "c"), Arrow("b", "2", "c"), Arrow("d", "3", "c")]),
        # a path next to a pair of parallel arrows
        Quiver(["1", "2", "3", "4"], [Arrow("a", "1", "2"), Arrow("b", "3", "4"), Arrow("c", "3", "4")]),
    ],
    ids=["triangle", "d4", "path-and-kronecker"],
)
def test_other_graphs_are_not_taken_for_type_a(quiver):
    # a vertex on three arrows, or a component with no end to walk from
    with pytest.raises(NotImplementedError, match="type A"):
        RepContext(quiver, FieldSpec(2)).indecomposable_ids()


def test_a_disjoint_union_of_paths_lists_its_intervals():
    # two components, one a single vertex: 3 + 1 intervals
    quiver = Quiver(["1", "2", "3"], [Arrow("a", "2", "1")])
    ctx = RepContext(quiver, FieldSpec(2))
    assert sorted(ctx.class_rep(cid).dims for cid in ctx.indecomposable_ids()) == [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0)]


def test_block_sum_is_the_direct_sum():
    # its Krull-Schmidt type is the sorted union of the summands' types
    ctx = ctx_a2(3)
    pool = [s1(ctx), p1(ctx), s2(ctx), ctx.block_sum([s2(ctx), s1(ctx)])]
    assert summand_ids(ctx, ctx.block_sum(pool)) == tuple(sorted(i for r in pool for i in summand_ids(ctx, r)))
    assert ctx.block_sum([]) == ctx.zero_rep()


# -- Ext^1 classes along maps -----------------------------------------


def _ext_along(he_first, he_then, coords, along):
    """The coordinates in he_then's Ext^1 of the class with coordinates
    ``coords`` in he_first's, carried by ``along(k)``, the cocycle of basis
    class k of he_first, linearly."""
    p = he_first.x.field.p
    images = [he_then.ext_coords(along(k)) for k in range(he_first.ext_dim)]
    return tuple(sum(c * img[v] for c, img in zip(coords, images)) % p for v in range(he_then.ext_dim))


def test_pushforward_and_pullback_act_on_ext_classes():
    # at p = 3, where -1 != 1: along an identity a basis class keeps its
    # unit coordinates from either side, and carrying a class along g
    # and then h equals carrying it along the composite
    ctx = ctx_a2(3)
    f = ctx.field
    pool = [s1(ctx), s2(ctx), p1(ctx), ctx.block_sum([s2(ctx), s2(ctx)]), ctx.block_sum([s1(ctx), s1(ctx)])]
    weights = itertools.cycle([1, 2, 2, 1, 2])

    def some_map(x, y):
        basis = ctx.hom_ext(x, y).hom
        return ctx.map_from_coeffs(basis, [next(weights) for _ in basis]) if basis else RepMap.zero_map(x, y)

    pushed = pulled = 0
    for x in pool:
        for y in pool:
            he = ctx.hom_ext(x, y)
            for k in range(he.ext_dim):
                unit = tuple(int(v == k) for v in range(he.ext_dim))
                assert he.ext_coords(he.pushforward(k, RepMap.identity(y))) == unit
                assert he.ext_coords(he.pullback(RepMap.identity(x), k)) == unit
            if not he.ext_dim:
                continue
            for b in pool:
                for c in pool:
                    g, h = some_map(y, b), some_map(b, c)
                    he_b, he_c = ctx.hom_ext(x, b), ctx.hom_ext(x, c)
                    for k in range(he.ext_dim):
                        step = he_c.ext_coords(he.pushforward(k, g.then(h)))
                        mid = he_b.ext_coords(he.pushforward(k, g))
                        assert _ext_along(he_b, he_c, mid, lambda j: he_b.pushforward(j, h)) == step
                        pushed += any(step)
                    g, h = some_map(b, x), some_map(c, b)
                    he_b, he_c = ctx.hom_ext(b, y), ctx.hom_ext(c, y)
                    for k in range(he.ext_dim):
                        step = he_c.ext_coords(he.pullback(h.then(g), k))
                        mid = he_b.ext_coords(he.pullback(g, k))
                        assert _ext_along(he_b, he_c, mid, lambda j: he_b.pullback(h, j)) == step
                        pulled += any(step)
    assert pushed and pulled


# -- classical Hall counts -------------------------------------------


def test_classical_g_gaussian_binomial():
    for p in (2, 3):
        ctx = ctx_a1(p)
        s = s1(ctx)
        ss = ctx.block_sum([s, s])
        assert classical_hall_g(ctx, s, s, ss) == p + 1  # lines in the plane
        sss = ctx.block_sum([s, s, s])
        assert classical_hall_g(ctx, s, ss, sss) == p * p + p + 1


def test_classical_g_a2_pinned():
    ctx = ctx_a2()
    assert classical_hall_g(ctx, s2(ctx), s1(ctx), p1(ctx)) == 1
    assert classical_hall_g(ctx, s1(ctx), s2(ctx), p1(ctx)) == 0
    split = ctx.block_sum([s1(ctx), s2(ctx)])
    assert classical_hall_g(ctx, s1(ctx), s2(ctx), split) == 1
    assert classical_hall_g(ctx, s2(ctx), s1(ctx), split) == 1


def test_classical_g_dim_mismatch():
    ctx = ctx_a2()
    assert classical_hall_g(ctx, s1(ctx), s1(ctx), p1(ctx)) == 0


# -- direct sums -----------------------------------------------------


@given(st.integers(0, 2), st.integers(0, 2))
def test_direct_sum_dims(m, n):
    ctx = ctx_a2()
    parts = [CycleComplex.stalk(ctx, r, 0, t=3) for r in [s1(ctx)] * m + [p1(ctx)] * n]
    total = direct_sum_complexes(ctx, parts, t=3)
    assert total.dims == [(m + n, n), (0, 0), (0, 0)]
    injs, projs = summand_maps(total, parts)
    for j, inj in enumerate(injs):
        for k, proj in enumerate(projs):
            # inj_j then proj_k is the identity on the piece when j = k, else zero
            got = inj.then(proj)
            if j == k:
                assert got.key() == ChainMap.identity(parts[j]).key()
            else:
                assert got.is_zero()
