import pytest

from perihall.category import PeriodicContext
from perihall.checks import (
    aut_order_by_enumeration,
    aut_order_by_layers,
    fiber_counts_literal,
    rep_map_blockwise,
)
from perihall.gfp import FieldSpec, MatrixFp
from perihall.periodic import ChainMap, chain_hom_space
from perihall.quiver import Arrow, Quiver, line_quiver
from perihall.reps import BudgetExceeded, Rep, RepContext

KRONECKER = Quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "1", "2")])


@pytest.fixture
def a1(request):
    return PeriodicContext(RepContext(line_quiver(1), FieldSpec(2)))


@pytest.fixture
def a2(request):
    return PeriodicContext(RepContext(line_quiver(2), FieldSpec(2)))


@pytest.mark.parametrize("n, bound, classes, indecomposables", [(2, (2, 2), 14, 3), (3, (1, 1, 1), 13, 6)])
def test_keys_name_indecomposables_only(n, bound, classes, indecomposables):
    # the registry lists every class enumerate_reps meets, in its order
    # and once however often it runs; object keys name only the
    # indecomposable ones
    pctx = PeriodicContext(RepContext(line_quiver(n), FieldSpec(2)))
    keys = pctx.enumerate_objects(bound)
    ctx = pctx.ctx
    assert [ctx.class_rep(cid) for cid in range(ctx.class_count())] == ctx.enumerate_reps(bound)
    assert ctx.class_count() == classes
    indec = {cid for cid in range(classes) if ctx.is_indecomposable(ctx.class_rep(cid))}
    assert len(indec) == indecomposables
    assert {cid for k in keys for cid, _ in k} == indec


def test_object_counts(a1, a2):
    assert len(a1.enumerate_objects((1,))) == 8
    assert len(a2.enumerate_objects((1, 1))) == 125


def test_enumeration_is_graded_and_stable(a2):
    keys = a2.enumerate_objects((1, 1))
    dims = [a2.total_dim(k) for k in keys]
    assert dims == sorted(dims)
    assert keys[0] == ()
    assert keys == a2.enumerate_objects((1, 1))


def test_realize_normalize_round_trip(a2):
    for key in a2.enumerate_objects((1, 1)):
        assert a2.normalize(a2.realize(key).total) == key


def test_shift_key_matches_complex_shift(a2):
    s1 = a2.ctx.simple("1")
    p1 = a2.ctx.projective("1")
    for key in (a2.module_key(s1), a2.direct_sum_key(a2.module_key(p1), a2.module_key(s1, 1))):
        for n in range(1, 4):
            assert a2.normalize(a2.realize(key).total.shift(n)) == a2.shift_key(key, n)
    assert a2.shift_key(a2.module_key(s1), 3) == a2.module_key(s1)


def test_hom_dim_three_ways(a2):
    s1 = a2.ctx.simple("1")
    s2 = a2.ctx.simple("2")
    p1 = a2.ctx.projective("1")
    keys = [
        a2.module_key(s1),
        a2.module_key(s2, 1),
        a2.direct_sum_key(a2.module_key(p1), a2.module_key(s1, 2)),
        a2.direct_sum_key(a2.module_key(s1), a2.module_key(s2)),
        (),
    ]
    for x in keys:
        for y in keys:
            covering = a2.hom_dim(x, y)
            blockwise = a2.hom_space(x, y).dim
            literal = chain_hom_space(a2.ctx, a2.realize(x).total, a2.realize(y).total).dim
            assert covering == blockwise == literal, (x, y)


def test_block_coordinates_round_trip(a2):
    s1 = a2.ctx.simple("1")
    s2 = a2.ctx.simple("2")
    x = a2.direct_sum_key(a2.module_key(s1), a2.module_key(s2, 1))
    space = a2.hom_space(x, x)
    for coords in space.enumerate_classes():
        assert space.class_of(space.rep_map(coords)) == coords


@pytest.mark.parametrize(
    "quiver, p, bound, first",
    [
        (line_quiver(1), 3, (1,), None),
        (line_quiver(2), 2, (1, 1), 20),
        (line_quiver(2), 3, (1, 1), 16),
        (line_quiver(3), 2, (1, 1, 1), 20),
        # basis maps with entries q - 1 that overlap, so the
        # combination must reduce mod q
        (KRONECKER, 3, (1, 1), 30),
    ],
    ids=["A1-p3", "A2-p2", "A2-p3", "A3-p2", "kronecker-p3"],
)
def test_rep_map_matches_the_blockwise_assembly(quiver, p, bound, first):
    # the flat combination of basis maps must reproduce, entry for
    # entry, the representative assembled block by block
    pctx = PeriodicContext(RepContext(quiver, FieldSpec(p)))
    keys = pctx.enumerate_objects(bound)[:first]
    spaces = 0
    for x in keys:
        for m in keys:
            if pctx.hom_dim(x, m) > 3:
                continue
            space = pctx.hom_space(x, m)
            for coords in space.enumerate_classes():
                assert space.rep_map(coords).key() == rep_map_blockwise(space, coords).key(), (x, m, coords)
            spaces += 1
    assert spaces >= len(keys) ** 2 // 2


def test_cone_of_zero_map_is_sum_with_shift(a2):
    s1 = a2.ctx.simple("1")
    p1 = a2.ctx.projective("1")
    pairs = [
        (a2.module_key(s1), a2.module_key(p1)),
        (a2.module_key(s1, 2), a2.module_key(s1)),
        ((), a2.module_key(p1, 1)),
    ]
    for akey, bkey in pairs:
        f = ChainMap.zero(a2.realize(akey).total, a2.realize(bkey).total)
        assert a2.cone_key(f) == a2.direct_sum_key(bkey, a2.shift_key(akey, 1))


def test_fiber_counts_on_the_point_quiver(a1):
    s = a1.ctx.simple("1")
    sk = a1.module_key(s)
    ss = a1.direct_sum_key(sk, sk)
    # surjections S + S -> S are not morphisms here; we count maps
    # S -> S + S whose cone is S: injections, q^2 - 1 of them
    assert a1.fiber_counts(sk, ss)[sk] == 3
    # automorphisms are the maps with vanishing cone
    assert a1.fiber_counts(sk, sk)[()] == 1
    # the only map to zero has cone S[1]
    assert a1.fiber_counts(sk, ()) == {a1.shift_key(sk, 1): 1}


def test_fiber_counts_detect_extensions(a2):
    s1 = a2.module_key(a2.ctx.simple("1"))
    s2 = a2.module_key(a2.ctx.simple("2"))
    p1 = a2.module_key(a2.ctx.projective("1"))
    # maps S1[-1] -> S2 build the extensions of S1 by S2
    counts = a2.fiber_counts(a2.shift_key(s1, -1), s2)
    assert counts == {a2.direct_sum_key(s1, s2): 1, p1: 1}
    # the other order has no extensions, so only the split cone occurs
    counts = a2.fiber_counts(a2.shift_key(s2, -1), s1)
    assert counts == {a2.direct_sum_key(s1, s2): 1}


def test_fiber_counts_total_mass(a2):
    s1 = a2.module_key(a2.ctx.simple("1"))
    s2s = a2.shift_key(a2.module_key(a2.ctx.simple("2")), 1)
    counts = a2.fiber_counts(s1, s2s)
    assert sum(counts.values()) == a2.q ** a2.hom_dim(s1, s2s)
    # one nonzero class, and its cone is the shifted projective cover
    p1 = a2.module_key(a2.ctx.projective("1"))
    assert counts[a2.shift_key(p1, 1)] == 1


@pytest.mark.parametrize(
    "n, p, bound, first, hom_cap",
    [
        (1, 3, (1,), 8, None),
        (1, 5, (1,), 8, None),
        (1, 7, (1,), 8, None),
        (2, 2, (1, 1), 20, 2),
        (2, 3, (1, 1), 16, 2),
        (3, 2, (1, 1, 1), 20, 2),
    ],
)
def test_fiber_counts_match_the_literal_count(n, p, bound, first, hom_cap, monkeypatch):
    # one cone per scalar line, the zero morphism's read off the keys:
    # the counts must equal classifying every morphism, and only the
    # q^d - 1 nonzero morphisms up to scalars may be classified
    pctx = PeriodicContext(RepContext(line_quiver(n), FieldSpec(p)))
    keys = pctx.enumerate_objects(bound)[:first]
    cones = []
    honest = pctx.cone_key
    monkeypatch.setattr(pctx, "cone_key", lambda f: cones.append(f) or honest(f))
    checked = 0
    for x in keys:
        for m in keys:
            d = pctx.hom_dim(x, m)
            if hom_cap is not None and d > hom_cap:
                continue
            before = len(cones)
            counts = pctx.fiber_counts(x, m)
            assert len(cones) - before == (p**d - 1) // (p - 1)
            assert counts == fiber_counts_literal(pctx, x, m), (x, m)
            checked += 1
    assert checked >= len(keys) ** 2 // 2


def test_budget_errors_name_their_objects(a2):
    s1 = a2.module_key(a2.ctx.simple("1"))
    s2 = a2.module_key(a2.ctx.simple("2"))
    x = a2.direct_sum_key(s1, a2.shift_key(s2, 1))
    y = a2.direct_sum_key(s1, s2)
    assert a2.hom_dim(x, y) > 0
    with pytest.raises(BudgetExceeded) as err:
        a2.fiber_counts(x, y, cap=1)
    assert f"{a2.format_key(x)} -> {a2.format_key(y)}" in str(err.value)
    source, target = a2.realize(x).total, a2.realize(y).total
    with pytest.raises(BudgetExceeded) as err:
        next(chain_hom_space(a2.ctx, source, target).enumerate_classes(cap=1))
    slots = [[s.dims for s in c.slots] for c in (source, target)]
    assert f"{slots[0]} -> {slots[1]}" in str(err.value)


def test_aut_orders_against_enumeration(a1, a2):
    for pctx, bound in ((a1, (1,)), (a2, (1, 1))):
        for key in pctx.enumerate_objects(bound):
            if pctx.total_dim(key) > 2:
                continue
            assert pctx.aut_order(key) == aut_order_by_enumeration(pctx, key), key


def test_aut_orders_against_the_layered_recipe():
    # the class-pair formula against direct sums of the layers, on
    # scopes with repeated classes in a layer and with extensions
    # between consecutive layers
    repeated = extended = 0
    for n, p, bound, first in ((1, 3, (2,), None), (2, 2, (2, 2), 200), (3, 2, (1, 1, 1), 200)):
        pctx = PeriodicContext(RepContext(line_quiver(n), FieldSpec(p)))
        for key in pctx.enumerate_objects(bound)[:first]:
            assert pctx.aut_order(key) == aut_order_by_layers(pctx, key), key
            layers = pctx.components(key)
            repeated += len(set(key)) < len(key)
            extended += any(pctx.hom_dim(layers[s], pctx.shift_key(layers[(s + 1) % 3], 1)) for s in range(3))
    assert repeated and extended


def test_aut_order_reads_the_residue_degree():
    # on line quivers every indecomposable has End = F_q; the Kronecker
    # module (I, A) with A irreducible over F_2 has End = F_4
    f2 = FieldSpec(2)
    pctx = PeriodicContext(RepContext(KRONECKER, f2))
    r = Rep(f2, KRONECKER, (2, 2), {"a": MatrixFp.identity(f2, 2), "b": MatrixFp(f2, [[0, 1], [1, 1]])})
    k = pctx.module_key(r)
    s = pctx.module_key(pctx.ctx.simple("1"))
    assert pctx.aut_order(k) == 3 == aut_order_by_enumeration(pctx, k)
    assert pctx.aut_order(pctx.direct_sum_key(k, k)) == 15 * 12  # |GL_2(F_4)|
    for other in (k, pctx.shift_key(k, 1), pctx.shift_key(s, 2)):
        key = pctx.direct_sum_key(k, other)
        assert pctx.aut_order(key) == aut_order_by_layers(pctx, key), key


def test_aut_order_frozen_values(a1, a2):
    s = a1.module_key(a1.ctx.simple("1"))
    assert a1.aut_order(a1.direct_sum_key(s, a1.shift_key(s, 1))) == 1
    s1 = a2.module_key(a2.ctx.simple("1"))
    s2 = a2.module_key(a2.ctx.simple("2"))
    # the lower-triangle extension between shifts contributes a factor q
    assert a2.aut_order(a2.direct_sum_key(s1, a2.shift_key(s2, 1))) == 2
    assert a2.aut_order(a2.direct_sum_key(s1, a2.shift_key(s1, 1))) == 1
    assert a2.aut_order(()) == 1


def test_aut_order_odd_prime():
    pctx = PeriodicContext(RepContext(line_quiver(1), FieldSpec(3)))
    s = pctx.module_key(pctx.ctx.simple("1"))
    assert pctx.aut_order(s) == 2
    ss = pctx.direct_sum_key(s, s)
    assert pctx.aut_order(ss) == 48
    assert aut_order_by_enumeration(pctx, ss) == 48


def test_components_and_dvec(a2):
    s1 = a2.module_key(a2.ctx.simple("1"))
    p1 = a2.module_key(a2.ctx.projective("1"))
    key = a2.direct_sum_key(s1, a2.shift_key(p1, 2))
    comps = a2.components(key)
    assert comps[0] == s1
    assert comps[1] == ()
    assert comps[2] == p1
    assert a2.dvec_mod2(key) == (0, 1)
    assert a2.dvec_mod2(a2.direct_sum_key(key, key)) == (0, 0)


def test_format_key(a2):
    s1 = a2.module_key(a2.ctx.simple("1"))
    assert a2.format_key(()) == "0"
    txt = a2.format_key(a2.direct_sum_key(s1, a2.shift_key(s1, 1)))
    assert "[1]" in txt and "(1,0)" in txt
