import ast
import fractions
import importlib
import importlib.util
import itertools
import pkgutil
import re
import subprocess
import sys
import time
from collections import Counter
from math import lcm
from pathlib import Path

import pytest

import perihall
from perihall import category, periodic
from perihall.category import PeriodicContext
from perihall.checks import (
    _rational_inverse,
    aut_order_by_enumeration,
    aut_order_by_layers,
    brace_exponent_by_shifts,
    complex_key,
    composition_by_chains,
    cone_key_literal,
    dvec_mod2,
    enumerate_objects_by_product,
    enumerate_reps,
    fiber_counts_literal,
    classical_hall_g,
    decompose,
    is_indecomposable,
    module_aut_order,
    module_key,
    summand_ids,
)
from perihall.gfp import FieldSpec, MatrixFp, Subspace
from perihall.hall import HallEngine
from perihall.periodic import ChainMap, ChainModel, CycleComplex, chain_hom_space, find_homotopy_iso
from perihall.quiver import Arrow, Quiver, line_quiver
from perihall.reps import BudgetExceeded, Rep, RepContext, RepMap

KRONECKER = Quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "1", "2")])
# orientations the line quivers never take: a sink, and a zigzag
SINK_A3 = Quiver(["1", "2", "3"], [Arrow("a", "1", "2"), Arrow("b", "3", "2")])
ZIGZAG_A4 = Quiver(["1", "2", "3", "4"], [Arrow("a", "1", "2"), Arrow("b", "3", "2"), Arrow("c", "3", "4")])
# the periods the chain-level recounts run at
PERIODS = (3, 5, 7)
# the brute-force Krull-Schmidt recipes, which live in perihall.checks
BRUTE_FORCE = (
    "decompose",
    "_decompose_uncached",
    "_find_split",
    "_candidate_endos",
    "_fitting_split",
    "is_indecomposable",
    "class_id",
    "_iso_among_basis",
    "_check_home",
    "summand_ids",
    "enumerate_reps",
    "module_key",
)


def part_objects(pctx):
    """The zero object, every part (class, shift) and every sum of two
    parts: a scope that grows as t^2 and meets every pair of shifts,
    where a graded prefix of ``objects`` reaches the lowest degrees
    only."""
    parts = [(part,) for part in pctx.hom_vectors().parts]
    return [()] + parts + [pctx.direct_sum_key(a, b) for a, b in itertools.combinations_with_replacement(parts, 2)]


def summand_dims(ctx, rep):
    """The Krull-Schmidt type of a module, written by its summands'
    dimension vectors."""
    return tuple(sorted(ctx.class_rep(cid).dims for cid in summand_ids(ctx, rep)))


def least_shift_zero(x, m):
    """The translate of a key pair by minus the least shift of its parts."""
    s0 = min(s for _, s in x + m)
    return tuple((cid, s - s0) for cid, s in x), tuple((cid, s - s0) for cid, s in m)


def all_parts_active(pctx, x, m):
    """Every part of x and of m has a nonzero Hom block to the other side."""
    return all(any(pctx.hom_dim((a,), (b,)) for b in m) for a in x) and all(
        any(pctx.hom_dim((a,), (b,)) for a in x) for b in m
    )


def profile_builds(monkeypatch):
    """The active sub-key pairs (x', m'), translated to least shift 0,
    whose rank profiles the engine builds from here on, in order."""
    builds = []
    honest = PeriodicContext._profile_counts
    monkeypatch.setattr(PeriodicContext, "_profile_counts", lambda pctx, x, m, hv: builds.append((x, m)) or honest(pctx, x, m, hv))
    return builds


@pytest.fixture
def a1(request):
    return PeriodicContext(RepContext(line_quiver(1), FieldSpec(2)))


@pytest.fixture
def a2(request):
    return PeriodicContext(RepContext(line_quiver(2), FieldSpec(2)))


@pytest.mark.parametrize("n, bound, classes, indecomposables", [(2, (2, 2), 14, 3), (3, (1, 1, 1), 13, 6)])
def test_keys_name_indecomposables_only(n, bound, classes, indecomposables):
    # the registry lists every class of the bound once, however often
    # the objects are listed, with the summand types enumerate_reps
    # finds on a fresh context; object keys name only the
    # indecomposable ones
    pctx = PeriodicContext(RepContext(line_quiver(n), FieldSpec(2)))
    keys = pctx.enumerate_objects(bound)
    assert pctx.enumerate_objects(bound) == keys
    ctx = pctx.ctx
    assert ctx.class_count() == classes
    brute = RepContext(line_quiver(n), FieldSpec(2))
    assert sorted(summand_dims(ctx, ctx.class_rep(cid)) for cid in range(classes)) == sorted(
        summand_dims(brute, r) for r in enumerate_reps(brute, bound)
    )
    indec = {cid for cid in range(classes) if is_indecomposable(ctx, ctx.class_rep(cid))}
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


LISTING_SCOPES = [(f"A1{b}-t{t}", line_quiver(1), 2, b, t) for b in ((1,), (2,)) for t in PERIODS] + [
    ("A2(1,1)-t3", line_quiver(2), 2, (1, 1), 3),
    ("A2(1,1)-t5", line_quiver(2), 2, (1, 1), 5),
    ("A2(2,2)-t3", line_quiver(2), 2, (2, 2), 3),
    ("A2p3(2,1)-t5", line_quiver(2), 3, (2, 1), 5),
    ("A3(1,1,1)-t3", line_quiver(3), 2, (1, 1, 1), 3),
    ("A1(0,)-t3", line_quiver(1), 2, (0,), 3),
    ("kronecker(1,1)-t3", KRONECKER, 2, (1, 1), 3),
]


@pytest.mark.parametrize(
    "quiver, p, bound, t", [scope[1:] for scope in LISTING_SCOPES], ids=[scope[0] for scope in LISTING_SCOPES]
)
def test_objects_match_the_product_listing(quiver, p, bound, t):
    # the graded listing of the generated types against building and
    # sorting every object at once from the types brute force finds,
    # list for list; the brute force runs second, so it matches its
    # modules to the classes the generator registered. The Kronecker
    # quiver is not of type A: only the product lists it, its 7 module
    # types of bound (1, 1) at p = 2 giving 7^t distinct graded objects,
    # and the graded listing refuses it
    pctx = PeriodicContext(RepContext(quiver, FieldSpec(p)), t)
    if quiver is KRONECKER:
        keys = enumerate_objects_by_product(pctx, bound)
        assert len(set(keys)) == len(keys) == 7**t
        assert keys[0] == ()
        dims = [pctx.total_dim(k) for k in keys]
        assert dims == sorted(dims)
        for listing in (lambda: pctx.enumerate_objects(bound), lambda: next(pctx.objects(bound))):
            with pytest.raises(NotImplementedError, match="type A"):
                listing()
        return
    keys = pctx.enumerate_objects(bound)
    assert keys == enumerate_objects_by_product(pctx, bound)
    assert keys == list(pctx.objects(bound))


def test_a_graded_prefix_of_a_large_scope_is_cheap():
    # A3 bound (1,1,1) at t = 7 has 13^7 objects, which no sorted product
    # can list; its first 100 come lazily, graded, each key sorted: the
    # zero object, then every simple at every shift, then degree two
    pctx = PeriodicContext(RepContext(line_quiver(3), FieldSpec(2)), 7)
    start = time.perf_counter()
    keys = list(itertools.islice(pctx.objects((1, 1, 1)), 100))
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, elapsed
    assert len(set(keys)) == 100
    assert all(key == tuple(sorted(key)) for key in keys)
    dims = [pctx.total_dim(k) for k in keys]
    assert dims == sorted(dims)
    simples = sorted((part,) for part in pctx.hom_vectors().parts if pctx.total_dim((part,)) == 1)
    assert len(simples) == 3 * 7
    assert keys[: 1 + len(simples)] == [()] + simples
    assert set(dims[1 + len(simples) :]) == {2}


def test_realize_normalize_round_trip(a2):
    for key in a2.enumerate_objects((1, 1)):
        assert complex_key(a2, ChainModel(a2).realize(key)) == key


def test_shift_key_matches_complex_shift(a2):
    s1 = a2.ctx.simple("1")
    p1 = periodic.projective(a2.ctx, "1")
    for key in (module_key(a2, s1), a2.direct_sum_key(module_key(a2, p1), module_key(a2, s1, 1))):
        for n in range(1, 4):
            assert complex_key(a2, ChainModel(a2).realize(key).shift(n)) == a2.shift_key(key, n)
    assert a2.shift_key(module_key(a2, s1), 3) == module_key(a2, s1)


def test_hom_dim_three_ways():
    for t in PERIODS:
        a2 = PeriodicContext(RepContext(line_quiver(2), FieldSpec(2)), t)
        s1 = a2.ctx.simple("1")
        s2 = a2.ctx.simple("2")
        p1 = periodic.projective(a2.ctx, "1")
        keys = [
            module_key(a2, s1),
            module_key(a2, s2, 1),
            a2.direct_sum_key(module_key(a2, p1), module_key(a2, s1, 2)),
            a2.direct_sum_key(module_key(a2, s1), module_key(a2, s2)),
            a2.direct_sum_key(module_key(a2, p1, t - 1), module_key(a2, s2, t - 2)),
            (),
        ]
        chains = ChainModel(a2)
        for x in keys:
            for y in keys:
                # the covering formula, the literal Hom between the
                # realized complexes, and the sum of the literal Hom
                # spaces between their parts, which Hom is additive over
                covering = a2.hom_dim(x, y)
                literal = a2.hom_space(x, y).dim
                blockwise = sum(chain_hom_space(a2.ctx, chains.wrap_part(a), chains.wrap_part(b)).dim for a in x for b in y)
                assert covering == literal == blockwise, (t, x, y)


def test_block_coordinates_round_trip(a2):
    # every class the walk yields has the coordinates it is listed
    # under, on an object of two parts with an extension between them
    s1 = a2.ctx.simple("1")
    s2 = a2.ctx.simple("2")
    x = a2.direct_sum_key(module_key(a2, s1), module_key(a2, s2, 1))
    space = a2.hom_space(x, x)
    walked = 0
    for coords, f in space.morphisms():
        assert space.class_coords(f) == coords
        walked += 1
    assert walked == a2.q**space.dim > 1


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
    # the walk assembles each representative as a flat combination of
    # the unit-class representatives; each must be a chain map of module
    # maps, by the checked constructors, with entries reduced mod p, and
    # lie in the class it is listed under. The engine lists no Kronecker
    # object, so those come from the reference listing
    pctx = PeriodicContext(RepContext(quiver, FieldSpec(p)))
    listing = enumerate_objects_by_product if quiver is KRONECKER else PeriodicContext.enumerate_objects
    keys = listing(pctx, bound)[:first]
    chains = ChainModel(pctx)
    spaces = 0
    for x in keys:
        for m in keys:
            if pctx.hom_dim(x, m) > 3:
                continue
            space = chains.hom_space(x, m)
            for coords, f in space.morphisms():
                ChainMap(f.source, f.target, [RepMap(c.source, c.target, c.comps) for c in f.comps])
                assert all(0 <= e < p for e in f.flat()), (x, m, coords)
                assert space.class_coords(f) == coords, (x, m, coords)
            spaces += 1
    assert spaces >= len(keys) ** 2 // 2


def test_cone_of_zero_map_is_sum_with_shift(a2):
    s1 = a2.ctx.simple("1")
    p1 = periodic.projective(a2.ctx, "1")
    pairs = [
        (module_key(a2, s1), module_key(a2, p1)),
        (module_key(a2, s1, 2), module_key(a2, s1)),
        ((), module_key(a2, p1, 1)),
    ]
    chains = ChainModel(a2)
    for akey, bkey in pairs:
        f = ChainMap.zero(chains.realize(akey), chains.realize(bkey))
        assert cone_key_literal(a2, f) == a2.direct_sum_key(bkey, a2.shift_key(akey, 1))


def test_fiber_counts_on_the_point_quiver(a1):
    s = a1.ctx.simple("1")
    sk = module_key(a1, s)
    ss = a1.direct_sum_key(sk, sk)
    # surjections S + S -> S are not morphisms here; we count maps
    # S -> S + S whose cone is S: injections, q^2 - 1 of them
    assert a1.fiber_counts(sk, ss)[sk] == 3
    # automorphisms are the maps with vanishing cone
    assert a1.fiber_counts(sk, sk)[()] == 1
    # the only map to zero has cone S[1]
    assert a1.fiber_counts(sk, ()) == {a1.shift_key(sk, 1): 1}


def test_fiber_counts_detect_extensions(a2):
    s1 = module_key(a2, a2.ctx.simple("1"))
    s2 = module_key(a2, a2.ctx.simple("2"))
    p1 = module_key(a2, periodic.projective(a2.ctx, "1"))
    # maps S1[-1] -> S2 build the extensions of S1 by S2
    counts = a2.fiber_counts(a2.shift_key(s1, -1), s2)
    assert counts == {a2.direct_sum_key(s1, s2): 1, p1: 1}
    # the other order has no extensions, so only the split cone occurs
    counts = a2.fiber_counts(a2.shift_key(s2, -1), s1)
    assert counts == {a2.direct_sum_key(s1, s2): 1}


def test_fiber_counts_total_mass(a2):
    s1 = module_key(a2, a2.ctx.simple("1"))
    s2s = a2.shift_key(module_key(a2, a2.ctx.simple("2")), 1)
    counts = a2.fiber_counts(s1, s2s)
    assert sum(counts.values()) == a2.q ** a2.hom_dim(s1, s2s)
    # one nonzero class, and its cone is the shifted projective cover
    p1 = module_key(a2, periodic.projective(a2.ctx, "1"))
    assert counts[a2.shift_key(p1, 1)] == 1


def test_fiber_counts_are_cached_per_pair(a2, monkeypatch):
    x = a2.shift_key(module_key(a2, a2.ctx.simple("1")), -1)
    m = module_key(a2, a2.ctx.simple("2"))
    assert a2.hom_dim(x, m) > 0
    first = a2.fiber_counts(x, m)

    def recount(*args):
        raise AssertionError("a cached fiber was counted again")

    # the fiber dict itself is not stored, but a repeated call reads the
    # cones cached for its active parts: it neither builds their rank
    # profiles nor walks a line, and gives the same dict item for item
    monkeypatch.setattr(PeriodicContext, "_profile_counts", recount)
    monkeypatch.setattr(category, "_lines", recount)
    again = a2.fiber_counts(x, m)
    assert again is not first
    assert list(again.items()) == list(first.items())


def test_contexts_of_two_periods_share_one_hom_ext_per_module_pair(monkeypatch):
    # Ringel's delta is built once per pair of modules, whichever caller
    # asks: contexts at t = 3 and 5 over one RepContext read the same
    # HomExt record for a class pair, and a chain model over the same
    # parts reads the Hom bases of its slot modules off the same cache
    ctx = RepContext(line_quiver(2), FieldSpec(3))
    honest = RepContext._delta
    deltas = Counter()

    def counted(self, x, y):
        deltas[(x.key(), y.key())] += 1
        return honest(self, x, y)

    monkeypatch.setattr(RepContext, "_delta", counted)
    contexts = [PeriodicContext(ctx, t) for t in (3, 5)]
    for pctx in contexts:
        engine = HallEngine(pctx)
        keys = list(itertools.islice(pctx.objects((1, 1)), 12))
        assert all(engine.multiply(x, y).support for x in keys for y in keys)
        chains = ChainModel(pctx)
        parts = [((cid, s),) for cid in ctx.indecomposable_ids() for s in (0, 1)]
        for a in parts:
            for b in parts:
                assert chains.hom_space(a, b).dim == pctx.hom_dim(a, b)
    ids = ctx.indecomposable_ids()
    for a in ids:
        for b in ids:
            he = ctx.hom_ext(ctx.class_rep(a), ctx.class_rep(b))
            assert contexts[0]._hom_ext(a, b) is he and contexts[1]._hom_ext(a, b) is he
    assert len(deltas) > 9 and set(deltas.values()) == {1}


@pytest.mark.parametrize("n, bound", [(2, (2, 2)), (3, (1, 2, 1))])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("t", [3, 5])
def test_one_dimensional_fibers_read_the_block_profile(n, bound, p, t, monkeypatch):
    # a one-dimensional Hom is classified off its one nonzero part
    # block, the active sub-keys ((a,), (b,)), whose cones are built once
    # per distinct block translated to least shift 0 and never once per
    # call: on a graded prefix every such fiber, key order included,
    # equals building the cone of every morphism
    builds = profile_builds(monkeypatch)
    pctx = PeriodicContext(RepContext(line_quiver(n), FieldSpec(p)), t)
    chains = ChainModel(pctx)
    keys = list(itertools.islice(pctx.objects(bound), 16))
    checked = nonsplit = 0
    blocks = set()
    for x in keys:
        for m in keys:
            if pctx.hom_dim(x, m) == 1:
                counts = pctx.fiber_counts(x, m)
                assert list(counts.items()) == list(fiber_counts_literal(chains, x, m).items()), (x, m)
                checked += 1
                nonsplit += len(counts) > 1
                blocks |= {least_shift_zero((a,), (b,)) for a in x for b in m if pctx.hom_dim((a,), (b,))}
    assert checked >= 25 and nonsplit == checked
    assert sorted(builds) == sorted(blocks)


@pytest.mark.parametrize("n, p", [(2, 3), (3, 2)])
@pytest.mark.parametrize("t", [3, 5])
def test_profiles_are_shared_by_pairs_with_the_same_active_parts(n, p, t, monkeypatch):
    # a part z with no Hom block to m only adds zero rows and columns to
    # every Hom(T, f), so (x, m) and (x + z, m) share the rank profiles of
    # their active parts, built once, at hom_dim 2 and 3 as at 1; both
    # fibers, key order included, equal building the cone of every
    # morphism
    builds = profile_builds(monkeypatch)
    probe = PeriodicContext(RepContext(line_quiver(n), FieldSpec(p)), t)
    parts = [(part,) for part in probe.hom_vectors().parts]
    sums = [probe.direct_sum_key(a, b) for a, b in itertools.combinations_with_replacement(parts, 2)]
    # (repeated part in x, hom_dim) -> (x, z, m)
    wanted, cases = {(True, 2), (False, 2), (False, 3)}, {}
    for x, m in itertools.product(sums, parts + sums):
        case = (x[0] == x[1], probe.hom_dim(x, m))
        if case in wanted - cases.keys():
            z = next((z for z in parts if z[0] not in x and probe.hom_dim(z, m) == 0), None)
            if z is not None:
                cases[case] = (x, z, m)
                if len(cases) == len(wanted):
                    break
    assert cases.keys() == wanted
    for x, z, m in cases.values():
        # a fresh context per case, so that no profile is cached
        pctx = PeriodicContext(RepContext(line_quiver(n), FieldSpec(p)), t)
        pctx.hom_vectors()
        chains = ChainModel(pctx)
        builds.clear()
        for source in (x, pctx.direct_sum_key(x, z)):
            counts = pctx.fiber_counts(source, m)
            assert list(counts.items()) == list(fiber_counts_literal(chains, source, m).items()), (source, m)
        assert len(builds) == 1, (x, z, m)


@pytest.mark.parametrize("n, p", [(2, 3), (3, 2)])
@pytest.mark.parametrize("t", PERIODS)
def test_translated_active_pairs_share_one_build(n, p, t, monkeypatch):
    # the translation functor is a triangle autoequivalence, so
    # cone(f[k]) = cone(f)[k]: an active pair (x, m) with least shift 0
    # and its translate by k, where no shift wraps, share the cones built
    # for the first, at hom_dim 1, 2 and 3, also with an extra part z
    # that has no Hom block to the other side. The translate's fiber is
    # the first one's, each cone shifted by k and added to z[1], sorted
    # by key. A translate where a shift wraps is another pair, and builds
    # its own cones. Every fiber equals building the cone of every
    # morphism, item for item
    lines = []
    honest_lines = category._lines
    monkeypatch.setattr(category, "_lines", lambda q, dim: (lines.append(c) or c for c in honest_lines(q, dim)))
    builds = profile_builds(monkeypatch)
    probe = PeriodicContext(RepContext(line_quiver(n), FieldSpec(p)), t)
    parts = [(part,) for part in probe.hom_vectors().parts]
    # the pairs are searched among parts at shifts 0 and 1 and their sums
    low = [part for part in parts if part[0][1] < 2]
    keys = low + [probe.direct_sum_key(a, b) for a, b in itertools.combinations_with_replacement(low, 2)]

    # hom_dim -> (x, m), least shift 0 and greatest 1
    cases = {}
    for x, m in itertools.product(keys, keys):
        d = probe.hom_dim(x, m)
        shifts = {s for _, s in x + m}
        if d in (1, 2, 3) and d not in cases and shifts == {0, 1} and all_parts_active(probe, x, m):
            cases[d] = (x, m)
    assert sorted(cases) == [1, 2, 3]
    for x, m in cases.values():
        # a fresh context per case, so that no cone is cached
        pctx = PeriodicContext(RepContext(line_quiver(n), FieldSpec(p)), t)
        pctx.hom_vectors()
        chains = ChainModel(pctx)
        k = t - 1 - max(s for _, s in x + m)
        xk, mk = pctx.shift_key(x, k), pctx.shift_key(m, k)
        z = next(z for z in parts if z[0] not in xk and pctx.hom_dim(z, mk) == 0)
        xw, mw = pctx.shift_key(x, k + 1), pctx.shift_key(m, k + 1)
        assert least_shift_zero(xk, mk) == (x, m) and least_shift_zero(xw, mw) == (xw, mw) != (x, m)
        fibers = []
        for source, target, built in ((x, m, [(x, m)]), (pctx.direct_sum_key(xk, z), mk, []), (xw, mw, [(xw, mw)])):
            builds.clear()
            walked = len(lines)
            fibers.append(pctx.fiber_counts(source, target))
            assert builds == built, (source, target)
            assert len(lines) - walked == ((p ** pctx.hom_dim(source, target) - 1) // (p - 1) if built else 0)
            literal = fiber_counts_literal(chains, source, target)
            assert list(fibers[-1].items()) == list(literal.items()), (source, target)
        shifted = [(pctx.direct_sum_key(pctx.shift_key(cone, k), pctx.shift_key(z, 1)), c) for cone, c in fibers[0].items()]
        assert list(fibers[1].items()) == sorted(shifted)


@pytest.mark.parametrize("n, p", [(2, 3), (3, 2)])
@pytest.mark.parametrize("t", [3, 5])
def test_multi_block_fibers_match_the_literal_count_item_for_item(n, p, t):
    # the chain model enumerates morphisms in class coordinates of its
    # own, which meet the cones of a multi-block pair in another order
    # than the engine's lines do; both sort their fibers by key, so they
    # agree item for item on the first 12 active pairs of least shift 0
    # per Hom dimension 2 and 3, among parts and sums of two parts, and
    # on ((0,1),(1,0)) -> ((0,1),(1,0)) of A3
    pctx = PeriodicContext(RepContext(line_quiver(n), FieldSpec(p)), t)
    chains = ChainModel(pctx)
    parts = [(part,) for part in pctx.hom_vectors().parts]
    keys = parts + [pctx.direct_sum_key(a, b) for a, b in itertools.combinations_with_replacement(parts, 2)]

    cases = {2: [], 3: []}
    for x, m in itertools.product(keys, keys):
        pairs = cases.get(pctx.hom_dim(x, m))
        if pairs is not None and len(pairs) < 12 and min(s for _, s in x + m) == 0 and all_parts_active(pctx, x, m):
            pairs.append((x, m))
    assert [len(pairs) for pairs in cases.values()] == [12, 9 if n == 2 else 12]
    if n == 3:
        cases[2].append((((0, 1), (1, 0)), ((0, 1), (1, 0))))
    for x, m in cases[2] + cases[3]:
        assert list(pctx.fiber_counts(x, m).items()) == list(fiber_counts_literal(chains, x, m).items()), (x, m)


def active_split(pctx, x, m):
    """(s0, inactive) for the fiber of x -> m: the least shift of the
    parts of x and m that have a nonzero Hom block to the other side, and
    whether some part has none."""
    active = [a for a in x if any(pctx.hom_dim((a,), (b,)) for b in m)]
    active += [b for b in m if any(pctx.hom_dim((a,), (b,)) for a in x)]
    return min(s for _, s in active), len(active) < len(x) + len(m)


@pytest.mark.parametrize("n, p", [(2, 3), (3, 2)])
@pytest.mark.parametrize("t", [3, 5])
def test_translated_and_partly_inactive_fibers_match_the_literal_count_item_for_item(n, p, t):
    # the fiber of a pair whose active parts have least shift s0 != 0 is
    # read off their translate by -s0, and a pair with an inactive part
    # adds it to every cone of its active parts; neither fiber reuses the
    # cone keys as they are stored. Per kind (s0 != 0, all parts active),
    # (s0 = 0, a part inactive) and (s0 != 0, a part inactive), the first
    # 4 pairs at each Hom dimension from 1 to 3, among parts at shifts 0,
    # 1 and 2 and their sums, agree item for item with the chain model's
    # count; each kind has pairs at dimensions 1 and 2
    pctx = PeriodicContext(RepContext(line_quiver(n), FieldSpec(p)), t)
    chains = ChainModel(pctx)
    low = [(part,) for part in pctx.hom_vectors().parts if part[1] < 3]
    keys = low + [pctx.direct_sum_key(a, b) for a, b in itertools.combinations_with_replacement(low, 2)]

    kinds = {(True, False): {}, (False, True): {}, (True, True): {}}
    for x, m in itertools.product(keys, keys):
        d = pctx.hom_dim(x, m)
        if d in (1, 2, 3):
            s0, inactive = active_split(pctx, x, m)
            pairs = kinds.get((s0 != 0, inactive), {}).setdefault(d, [])
            if len(pairs) < 4:
                pairs.append((x, m))
    for kind, by_dim in kinds.items():
        assert {1, 2} <= by_dim.keys(), kind
        for pairs in by_dim.values():
            for x, m in pairs:
                assert list(pctx.fiber_counts(x, m).items()) == list(fiber_counts_literal(chains, x, m).items()), (x, m)


def test_brace_table_rows():
    # t = 3: Ext^1 - Hom at r = 0, -(Hom + Ext^1) at r = 1, Hom - Ext^1 at r = 2,
    # as (Hom coefficient, Ext^1 coefficient) pairs
    assert category._brace_table(3) == ((-1, 1), (-1, -1), (1, -1))
    # t = 5 against the literal sum over one period, with hom_0 = Hom,
    # hom_1 = Ext^1 and hom_2 = hom_3 = hom_4 = 0
    rows = category._brace_table(5)
    assert len(rows) == 5
    for hom, ext in [(1, 0), (0, 1), (2, 3)]:
        homs = [hom, ext, 0, 0, 0]
        for r, (ch, ce) in enumerate(rows):
            assert ch * hom + ce * ext == sum((-1) ** i * homs[(r - i) % 5] for i in range(1, 6)), (r, hom, ext)


@pytest.mark.parametrize("n, p", [(2, 3), (3, 2)])
@pytest.mark.parametrize("t", [3, 5])
def test_class_rows_match_the_chain_model_and_the_alternating_sum(n, p, t):
    # the row of a class pair (a, b) holds per residue r, a part of a at
    # shift 0 and one of b at shift r: hom and brace of the pair, hom at
    # r + 1, and hom and brace of the reverse pair, whose residue is -r.
    # The engine and checks.multiply_by_scalars both read these rows, so
    # they are pinned against Hom recounted at chain level and the brace
    # exponent as the literal alternating sum, both ways
    pctx = PeriodicContext(RepContext(line_quiver(n), FieldSpec(p)), t)
    chains = ChainModel(pctx)
    classes = sorted({cid for cid, _ in pctx.hom_vectors().parts})
    for a, b in itertools.product(classes, classes):
        row = pctx._class_row(a, b)
        assert len(row) == t
        for r, entry in enumerate(row):
            x, y, y_next = ((a, 0),), ((b, r),), ((b, (r + 1) % t),)
            expected = (
                chains.hom_space(x, y).dim,
                brace_exponent_by_shifts(pctx, x, y),
                chains.hom_space(x, y_next).dim,
                chains.hom_space(y, x).dim,
                brace_exponent_by_shifts(pctx, y, x),
            )
            assert entry == expected, (a, b, r)


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
    # one rank profile per scalar line, the zero morphism's cone read
    # off the keys: the counts must equal building the cone of every
    # morphism, a call that builds the profiles of its active parts walks
    # exactly the (q^d - 1)/(q - 1) lines and one that reads them cached
    # walks none, and no cycle complex is built on the way. At t = 3 the
    # scope is a graded prefix of the objects. At the longer periods the
    # targets are the zero object and every part, which meet every shift
    # residue; a count depends on the shifts only through their
    # differences, so the sources sit at shift 0. Next to them runs a
    # shorter graded prefix, lazily listed, sources and targets alike. A3
    # runs the part scope at t = 3 and 5, and the graded prefix at 7 too
    lines = []
    honest_lines = category._lines
    monkeypatch.setattr(category, "_lines", lambda q, dim: (lines.append(c) or c for c in honest_lines(q, dim)))
    builds = profile_builds(monkeypatch)
    complexes = []
    honest_init = CycleComplex.__init__
    monkeypatch.setattr(CycleComplex, "__init__", lambda c, *args, **kw: complexes.append(c) or honest_init(c, *args, **kw))
    for t in PERIODS:
        for scope in ("prefix",) if t == 3 or (n == 3 and t == 7) else ("parts", "prefix"):
            # a fresh context per scope, so that no fiber is cached
            pctx = PeriodicContext(RepContext(line_quiver(n), FieldSpec(p)), t)
            if t == 3:
                sources = targets = pctx.enumerate_objects(bound)[:first]
            elif scope == "prefix":
                sources = targets = list(itertools.islice(pctx.objects(bound), 8 if n == 1 else 12))
            else:
                targets = [()] + [(part,) for part in pctx.hom_vectors().parts]
                sources = [k for k in targets if all(s == 0 for _, s in k)]
            chains = ChainModel(pctx)
            checked = 0
            for x in sources:
                for m in targets:
                    d = pctx.hom_dim(x, m)
                    if hom_cap is not None and d > hom_cap:
                        continue
                    before, built, profiled = len(lines), len(complexes), len(builds)
                    counts = pctx.fiber_counts(x, m)
                    # at most one build of the profiles, and none for a zero Hom
                    miss = len(builds) - profiled
                    assert miss <= (d > 0)
                    assert len(lines) - before == ((p**d - 1) // (p - 1) if miss else 0)
                    assert len(complexes) == built
                    assert counts == fiber_counts_literal(chains, x, m), (t, x, m)
                    checked += 1
            assert complexes
            assert checked >= len(sources) * len(targets) // 2


@pytest.mark.parametrize("n, p, first", [(2, 3, 16), (3, 2, 25)])
def test_multiply_never_enters_the_chain_model(n, p, first, monkeypatch):
    # cold products on fresh contexts, with every entry into the chain
    # layer raising: the engine reads Hom spaces and compositions off
    # module data alone
    def refuse(*args, **kw):
        raise AssertionError("the op path entered the chain model")

    for name in ("chain_hom_space", "wrap_module", "mapping_cone", "normal_pieces", "proj_resolution"):
        monkeypatch.setattr(periodic, name, refuse)
    for cls in (periodic.CycleComplex, periodic.HomSpace):
        monkeypatch.setattr(cls, "__init__", refuse)
    pctx = PeriodicContext(RepContext(line_quiver(n), FieldSpec(p)))
    engine = HallEngine(pctx)
    keys = pctx.enumerate_objects((1,) * n)[:first]
    nonzero = sum(len(engine.multiply(x, y).support) for x in keys for y in keys)
    assert nonzero >= len(keys) ** 2


_COLD_OPS = """
import sys
from perihall.category import PeriodicContext
from perihall.gfp import FieldSpec
from perihall.hall import HallEngine
from perihall.quiver import line_quiver
from perihall.reps import RepContext

for n, bound, first in ((2, (2, 2), 40), (3, (1, 1, 1), 25)):
    pctx = PeriodicContext(RepContext(line_quiver(n), FieldSpec(2)))
    engine = HallEngine(pctx)
    keys = pctx.enumerate_objects(bound)[:first]
    assert len(keys) == first
    nonzero = sum(len(engine.multiply(x, y).support) for x in keys for y in keys)
    assert nonzero >= len(keys) ** 2
    assert all(pctx.aut_order(k) >= 1 for k in keys)
    assert all(engine.pbw_expand(k).evaluate(engine) == engine.vector(k) for k in keys)
print(sorted(m for m in ("perihall.periodic", "perihall.checks") if m in sys.modules))
"""


def test_the_op_path_loads_no_reference_module():
    # cold products, aut orders and PBW round trips in a fresh process:
    # nothing on the op path imports the chain model or the harnesses,
    # so no helper that moved there can be reached from it
    src = Path(category.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", _COLD_OPS], cwd=src, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_the_names_kept_for_the_benchmark_are_off_the_op_path(monkeypatch):
    # the engine-module names kept only because the benchmark traces or
    # calls them raise, and a cold A2 scope still multiplies, counts
    # automorphisms and round-trips every PBW expansion
    def refuse(*args, **kw):
        raise AssertionError("the op path called a name kept for the benchmark")

    for cls, name in (
        (RepContext, "kernel"),
        (RepContext, "image"),
        (RepContext, "cokernel"),
        (RepContext, "subquotient"),
        (RepContext, "class_count"),
        (PeriodicContext, "hom_space"),
    ):
        monkeypatch.setattr(cls, name, refuse)
    pctx = PeriodicContext(RepContext(line_quiver(2), FieldSpec(2)))
    engine = HallEngine(pctx)
    keys = pctx.enumerate_objects((2, 2))[:40]
    assert len(keys) == 40
    nonzero = sum(len(engine.multiply(x, y).support) for x in keys for y in keys)
    assert nonzero >= len(keys) ** 2
    assert all(pctx.aut_order(k) >= 1 for k in keys)
    assert all(engine.pbw_expand(k).evaluate(engine) == engine.vector(k) for k in keys)


# the tracer's targets that name nothing in the engine today, as
# ``perfbench/run.py --smoke`` reports them: a change that claims a gain
# moves no trace target, and a benchmark change that re-aims the tracer
# updates this list on purpose
ABSENT_TRACE_TARGETS = [
    "hall.HallEngine.hall_number_via",
    "category.PeriodicContext.cone_key",
    "category.PeriodicContext.normalize",
    "category.PeriodicContext.block_space",
    "category.PeriodicContext.realize",
    "category.BlockHomSpace.rep_map",
    "reps.RepContext.hom_basis",
    "reps.RepContext.class_id",
    "reps.RepContext.decompose",
    "reps.RepContext.ext1_dim",
    "reps.RepContext.proj_resolution",
]


def test_the_absent_trace_targets_are_pinned():
    # every SPANS and COUNTERS target of perfbench/tracer.py is located
    # as the tracer locates it, with the file loaded as it is and nothing
    # patched; exactly the pinned targets are absent
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_pinned_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = list(tracer.SPANS) + [target for group in tracer.COUNTERS.values() for target in group]
    absent = [f"{module}.{qualname}" for module, qualname in targets if tracer._locate(module, qualname)[0] is None]
    assert absent == ABSENT_TRACE_TARGETS


def test_the_type_a_setup_never_enumerates(monkeypatch):
    # on a cold A2 context the objects, the decode of cones and a cold
    # product read the generated indecomposables: the contexts hold no
    # brute-force enumeration, decomposition or iso-class lookup, and no
    # End is enumerated for a residue degree, every interval module a brick
    def refuse(*args, **kw):
        raise AssertionError("the type-A set-up enumerated the End of a module")

    for cls in (RepContext, PeriodicContext):
        assert [name for name in BRUTE_FORCE if hasattr(cls, name)] == [], cls
    monkeypatch.setattr(RepContext, "residue_field_degree", refuse)
    pctx = PeriodicContext(RepContext(line_quiver(2), FieldSpec(2)))
    assert [name for name in ("_decomp_cache", "_class_of_content") if hasattr(pctx.ctx, name)] == []
    engine = HallEngine(pctx)
    keys = pctx.enumerate_objects((2, 2))
    assert len(keys) == 14**3
    assert len(pctx.hom_vectors().parts) == 3 * pctx.t
    x, y = next((x, y) for x in keys for y in keys if pctx.hom_dim(pctx.shift_key(y, -1), x) > 1)
    assert not pctx._cones
    assert len(engine.multiply(x, y).support) > 1


def test_products_keep_no_record_per_key_pair():
    # after every product of a scope the context holds one record per
    # operand and per cone, and nothing per pair of object keys but the
    # cones of the active pairs
    def is_key(k):
        return isinstance(k, tuple) and all(isinstance(part, tuple) and len(part) == 2 for part in k)

    pctx = PeriodicContext(RepContext(line_quiver(2), FieldSpec(2)))
    engine = HallEngine(pctx)
    keys = list(itertools.islice(pctx.objects((2, 2)), 40))
    cones = set()
    for x in keys:
        for y in keys:
            cones.update(engine.multiply(x, y).coeffs)
    assert cones - set(keys)
    assert set(pctx._records) == set(keys) | cones
    caches = {name: cache for name, cache in vars(pctx).items() if isinstance(cache, dict)}
    assert "_cones" in caches and len(caches) >= 5
    for name, cache in caches.items():
        pairs = [k for k in cache if isinstance(k, tuple) and len(k) == 2 and is_key(k[0]) and is_key(k[1])]
        if name == "_cones":
            assert 0 < len(pairs) == len(cache) < len(keys) ** 2 // 10
        else:
            assert pairs == [], name


def test_the_engine_modules_do_not_load_the_chain_model():
    # the op path imports no chain-level code; only hom_space reaches it,
    # through a function-level import
    src = Path(category.__file__).resolve().parents[1]
    code = "import sys, perihall.hall, perihall.category; print('perihall.periodic' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_every_exported_name_exists():
    # each module's __all__ names only what the module defines, so a
    # deleted class cannot linger in its exports
    modules = [importlib.import_module(f"perihall.{info.name}") for info in pkgutil.iter_modules(perihall.__path__)]
    exporting = [module for module in modules if hasattr(module, "__all__")]
    assert len(exporting) >= 8
    for module in exporting:
        assert [name for name in module.__all__ if not hasattr(module, name)] == [], module.__name__


def _unused_imports(path):
    """The names a module imports and never uses, as (line, name). A
    use is a bare name anywhere in the module, an entry of ``__all__``,
    or a name inside a string annotation; ``from __future__`` imports
    bind nothing. A name that only a docstring mentions is unused."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used, notes = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            notes.append(node.annotation)
        elif isinstance(node, ast.FunctionDef) and node.returns is not None:
            notes.append(node.returns)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    for note in notes:
        for sub in ast.walk(note):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used.update(n.id for n in ast.walk(ast.parse(sub.value, mode="eval")) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses(tmp_path):
    # a simplification that drops the last use of a name must drop its
    # import too; the scan itself sees a stale import planted in a copy
    root = Path(category.__file__).resolve().parents[2]
    paths = sorted((root / "src" / "perihall").glob("*.py")) + sorted((root / "tools").glob("*.py"))
    assert len(paths) >= 12
    assert {str(path.relative_to(root)): found for path in paths if (found := _unused_imports(path))} == {}
    planted = tmp_path / "planted.py"
    planted.write_text("from typing import TYPE_CHECKING, List\nimport os.path\nif TYPE_CHECKING:\n    import re\nx: 'List[re.Pattern]' = []\n")
    assert _unused_imports(planted) == [(2, "os")]


ENGINE_MODULES = ("gfp", "quiver", "reps", "category", "hall", "sqrtq", "semisimple", "__init__")
CONTEXTS = ("RepContext", "PeriodicContext")
# the protocol HallEngine multiplies over, which PeriodicContext implements
PROTOCOLS = {"CategoryOracle": "PeriodicContext"}
# context methods that stay without an engine caller
UNCALLED = {
    # traced by the benchmark, and kept for listing the indecomposables
    # of a Dynkin quiver from its positive roots (ROADMAP item 3)
    "RepContext.kernel",
    "RepContext.image",
    "RepContext.cokernel",
    # the one construction of sub-, quotient and homology modules: the
    # three above, the chain model's homology and the harnesses' submodule
    # counts call it
    "RepContext.subquotient",
    # traced or called by the benchmark
    "RepContext.class_count",
    "PeriodicContext.hom_space",
    "PeriodicContext.total_dim",
    "PeriodicContext.enumerate_objects",
    # the object listing enumerate_objects wraps: objects reads the
    # module types of its bound, which checks the bound and lists each
    # decomposable type under the block sum of its summands (the zero
    # module for the empty sum); the exactness digest, the harnesses and
    # the tests read graded prefixes of objects, and the chain model
    # builds its sums and stalks with block_sum and zero_rep
    "PeriodicContext.objects",
    "RepContext.module_types",
    "RepContext._checked_bound",
    "RepContext.block_sum",
    "RepContext.zero_rep",
    # the public constructor of the simple modules
    "RepContext.simple",
    # the scalars a product reads, one by one: the engine asks
    # product_terms for all of them at once, while the harnesses, the
    # reference product checks.multiply_by_scalars, the exactness digest
    # and the benchmark's checks ask for them one at a time
    "PeriodicContext.hom_dim",
    "PeriodicContext.brace_exponent",
    "PeriodicContext.aut_order",
    "PeriodicContext.fiber_counts",
}


def _annotated_class(arg):
    """The class an annotated parameter names, written bare or quoted."""
    note = arg.annotation
    if isinstance(note, ast.Constant) and isinstance(note.value, str):
        return note.value
    return note.id if isinstance(note, ast.Name) else None


def _engine_callers(trees):
    """The methods of the two context classes, and those named through a
    receiver that resolves to their class outside their own body, both
    as "Class.method". A receiver resolves to ``self``'s class, to the
    class a parameter is annotated with, to an attribute that class's
    ``__init__`` sets from such a parameter, or to a local name assigned
    one of these; anything else, such as a call's result, stays
    unresolved, so an attribute name shared with another class counts
    for neither. A name inside a method on UNCALLED does not count: a
    method that only those call has no engine caller either."""
    methods, fields, functions = set(), {}, []  # fields: (class, attribute) -> class
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions.append((None, node))
            elif isinstance(node, ast.ClassDef):
                for f in node.body:
                    if isinstance(f, ast.FunctionDef):
                        functions.append((node.name, f))
                        if node.name in CONTEXTS:
                            methods.add(f"{node.name}.{f.name}")
                        if f.name == "__init__":
                            params = {a.arg: _annotated_class(a) for a in f.args.args}
                            for sub in ast.walk(f):
                                if isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Name) and params.get(sub.value.id):
                                    for target in sub.targets:
                                        if isinstance(target, ast.Attribute) and ast.unparse(target.value) == "self":
                                            fields[(node.name, target.attr)] = params[sub.value.id]
    called = set()
    for cls, f in functions:
        if f"{cls}.{f.name}" in UNCALLED:
            continue
        names = {a.arg: _annotated_class(a) for a in f.args.args}
        if cls is not None:
            names["self"] = cls

        def resolve(expr):
            if isinstance(expr, ast.Name):
                found = names.get(expr.id)
            elif isinstance(expr, ast.Attribute):
                found = fields.get((resolve(expr.value), expr.attr))
            else:
                found = None
            return PROTOCOLS.get(found, found)

        for sub in ast.walk(f):
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1 and isinstance(sub.targets[0], ast.Name):
                if found := resolve(sub.value):
                    names[sub.targets[0].id] = found
        for sub in ast.walk(f):
            if isinstance(sub, ast.Attribute) and resolve(sub.value) in CONTEXTS:
                name = f"{resolve(sub.value)}.{sub.attr}"
                if name in methods and name != f"{cls}.{f.name}":
                    called.add(name)
    return methods, called


def test_every_context_method_has_an_engine_caller():
    # each method of RepContext and PeriodicContext is named in an engine
    # module, outside its own body, through a receiver of its own class,
    # or is listed in UNCALLED, so a method only the tests or the
    # reference modules call cannot come back unnoticed; and no method on
    # UNCALLED has such a caller
    src = Path(category.__file__).resolve().parent
    methods, called = _engine_callers([ast.parse((src / f"{name}.py").read_text()) for name in ENGINE_MODULES])
    assert UNCALLED <= methods
    # Hom and Ext^1 have one way in, RepContext.hom_ext
    assert sorted({"RepContext.hom_basis", "RepContext.hom_dim", "RepContext.ext1_dim"} & methods) == []
    assert sorted(m for m in methods - called - UNCALLED if ".__" not in m) == []
    assert sorted(UNCALLED & called) == []
    assert sorted({m.split(".")[1] for m in methods} & set(BRUTE_FORCE)) == []


def _signs_match(entries):
    """Whether one sign per Hom space between parts turns every module
    entry m into the chain entry c. Rescaling the basis vectors of
    Hom(t, a), Hom(a, b) and Hom(t, b) by l_ta, l_ab, l_tb turns m into
    m l_ta l_ab / l_tb; over F_3 the nonzero scalars are the signs, so
    this is a linear system over F_2 in the exponents of -1."""
    index = {}
    columns, rhs = [], []
    for spaces, m, c in entries:
        if bool(m) != bool(c):
            return False
        if m:
            column = {}
            for space in spaces:
                u = index.setdefault(space, len(index))
                column[u] = column.get(u, 0) + 1
            columns.append(column)
            rhs.append(int(m != c))
    if not columns:
        return True
    system = Subspace(FieldSpec(2), len(columns), [[col.get(u, 0) % 2 for col in columns] for u in range(len(index))])
    return not any(system.reduce(rhs))


def nonzero_entries(tensor):
    return [(u, k, v, w) for u, row in enumerate(tensor) for k, vec in enumerate(row) for v, w in enumerate(vec) if w]


def test_composition_terms_index_wider_hom_spaces():
    # on type A every Hom space between parts has dimension at most one;
    # on the Kronecker quiver Hom(S2, P1) has dimension 2, so the terms
    # must tell the basis map u of Hom(t, a) from the coordinate v
    pctx = PeriodicContext(RepContext(KRONECKER, FieldSpec(2)))
    ctx = pctx.ctx
    ids = sorted({cid for rep in enumerate_reps(ctx, (1, 2)) for cid in summand_ids(ctx, rep)})
    parts = [(cid, s) for cid in ids for s in (0, 1)]
    wide = 0
    for t in parts:
        for a in parts:
            for b in parts:
                nonzero = nonzero_entries(pctx._composition(t, a, b))
                assert list(pctx._composition_terms(t, a, b)) == nonzero, (t, a, b)
                wide += any(u != v for u, _, v, _ in nonzero)
    assert wide


@pytest.mark.parametrize(
    "quiver, p",
    [(line_quiver(n), p) for n in (1, 2, 3, 4) for p in (2, 3)] + [(SINK_A3, 3), (ZIGZAG_A4, 3)],
    ids=[f"A{n}-p{p}" for n in (1, 2, 3, 4) for p in (2, 3)] + ["A3-sink-p3", "A4-zigzag-p3"],
)
def test_module_composition_matches_the_chain_level_tensor(quiver, p):
    # Hom from Ringel's sequence and its Yoneda action against chain maps
    # modulo homotopy, on every triple of test objects. On type A every
    # Hom space between parts has dimension at most one, and the tensors
    # agree up to one nonzero scalar per space: exactly over F_2, up to
    # consistent signs over F_3, so every rank of Hom(T, f) agrees. A1
    # and A2 run at every period, three vertices at t = 3 and 5, four at
    # t = 3. A tensor depends on the shifts only through their
    # differences, so at the longer periods the first part sits at shift 0
    for period in PERIODS[: {1: 3, 2: 3, 3: 2}.get(len(quiver.vertices), 1)]:
        pctx = PeriodicContext(RepContext(quiver, FieldSpec(p)), period)
        chains = ChainModel(pctx)
        parts = pctx.hom_vectors().parts
        entries = []
        for t in parts if period == 3 else [part for part in parts if part[1] == 0]:
            for a in parts:
                for b in parts:
                    got = pctx._composition(t, a, b)
                    want = composition_by_chains(chains, t, a, b)
                    assert list(pctx._composition_terms(t, a, b)) == nonzero_entries(got), (period, t, a, b)
                    assert [[len(v) for v in row] for row in got] == [[len(v) for v in row] for row in want], (period, t, a, b)
                    assert len(got) <= 1 and all(len(row) <= 1 and all(len(v) <= 1 for v in row) for row in got)
                    for g_row, w_row in zip(got, want):
                        for g_vec, w_vec in zip(g_row, w_row):
                            for m, c in zip(g_vec, w_vec):
                                entries.append((((t, a), (a, b), (t, b)), m, c))
        assert entries
        if p == 2:
            assert all(m == c for _, m, c in entries)
        assert _signs_match(entries), period


@pytest.mark.parametrize("n, objects", [(1, 8), (2, 125), (3, 2197)])
@pytest.mark.parametrize("p", [2, 3])
def test_hom_vectors_decode_every_object(n, p, objects):
    # H[T][U] = hom_dim(T, U) over the test objects is invertible with
    # a denominator dividing 2; the hom vectors of the objects of bound
    # (1,...,1) are distinct, and H^-1 maps each back to its object
    pctx = PeriodicContext(RepContext(line_quiver(n), FieldSpec(p)))
    hv = pctx.hom_vectors()
    size = len(hv.parts)
    assert size == 3 * n * (n + 1) // 2
    assert 2 % hv.denominator == 0
    for t in range(size):
        for u in range(size):
            entry = sum(hv.matrix[t][k] * hv.inverse[k][u] for k in range(size))
            assert entry == (hv.denominator if t == u else 0)
    keys = pctx.enumerate_objects((1,) * n)
    assert len(keys) == objects
    vectors = set()
    for key in keys:
        vec = [sum(hv.matrix[t][hv.index[part]] for part in key) for t in range(size)]
        vectors.add(tuple(vec))
        decoded = [sum(hv.inverse[u][t] * vec[t] for t in range(size)) for u in range(size)]
        assert decoded == [hv.denominator * key.count(part) for part in hv.parts], key
    assert len(vectors) == objects


def fraction_decode(matrix):
    """The reference decode: the Fraction inverse over its least common
    denominator."""
    inv = _rational_inverse(matrix)
    denominator = lcm(*(v.denominator for row in inv for v in row))
    return [[int(v * denominator) for v in row] for row in inv], denominator


@pytest.mark.parametrize("t", [3, 5, 7])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_integer_decode_matches_the_fraction_inverse(n, p, t):
    # fraction-free elimination against Gauss-Jordan over Fraction: the
    # same least denominator and the same integer numerators
    hv = PeriodicContext(RepContext(line_quiver(n), FieldSpec(p)), t).hom_vectors()
    assert (hv.inverse, hv.denominator) == fraction_decode(hv.matrix)
    assert hv.denominator == (1 if n == 1 else 2)


@pytest.mark.parametrize(
    "matrix",
    [[[-1]], [[0, 2], [3, 1]], [[2, 1], [1, -3]], [[1, 2, 0], [0, 1, 3], [4, 0, 1]], [[2, 0, 0], [0, 4, 0], [0, 0, 6]]],
    ids=["negative", "swap", "det-7", "det25", "diagonal"],
)
def test_the_integer_inverse_matches_the_fraction_inverse(matrix):
    # determinants of either sign, a row swap, and a denominator that is
    # not the determinant
    assert category._integer_inverse(matrix) == fraction_decode(matrix)


def test_the_integer_inverse_refuses_a_singular_matrix():
    singular = [[1, 2, 0], [2, 4, 0], [0, 1, 3]]
    for invert in (category._integer_inverse, _rational_inverse):
        with pytest.raises(AssertionError, match="singular"):
            invert(singular)


@pytest.mark.parametrize("t", [0, 1, 2, 4])
def test_context_refuses_a_period_that_is_not_odd_and_at_least_three(t):
    with pytest.raises(ValueError, match=f"t = {t}"):
        PeriodicContext(RepContext(line_quiver(2), FieldSpec(2)), t)


@pytest.mark.parametrize("t", [3, 5, 7])
def test_context_accepts_odd_periods(t):
    pctx = PeriodicContext(RepContext(line_quiver(2), FieldSpec(2)), t)
    assert pctx.t == t
    assert len(pctx.hom_vectors().parts) == 3 * t


def test_cold_products_build_no_fraction(monkeypatch):
    # the cone decode and every scalar on the op path stay in ints
    def refuse(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built on the op path")

    monkeypatch.setattr(fractions.Fraction, "__new__", refuse)
    for n, p, bound, first in ((2, 2, (2, 2), 40), (3, 2, (1, 1, 1), 25), (2, 3, (1, 1), 20)):
        engine = HallEngine(PeriodicContext(RepContext(line_quiver(n), FieldSpec(p))))
        keys = engine.oracle.enumerate_objects(bound)[:first]
        for x in keys:
            for y in keys:
                engine.multiply(x, y)
            engine.pbw_expand(x).evaluate(engine)


@pytest.mark.parametrize("p", [2, 3])
def test_rank_profiles_match_the_literal_count_on_a_sink(p):
    # the orientation 1 -> 2 <- 3, which the line quivers never take
    pctx = PeriodicContext(RepContext(SINK_A3, FieldSpec(p)))
    keys = pctx.enumerate_objects((1, 1, 1))[:20]
    chains = ChainModel(pctx)
    extensions = 0
    for x in keys:
        for m in keys:
            counts = pctx.fiber_counts(x, m)
            assert counts == fiber_counts_literal(chains, x, m), (x, m)
            extensions += len(counts) > 1
    assert extensions


@pytest.mark.parametrize(
    "quiver",
    [
        KRONECKER,
        # a vertex meeting three arrows (D4), and a triangle (affine A2)
        Quiver(["1", "2", "3", "4"], [Arrow("a", "1", "4"), Arrow("b", "2", "4"), Arrow("c", "3", "4")]),
        Quiver(["1", "2", "3"], [Arrow("a", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "1", "3")]),
    ],
    ids=["kronecker", "d4", "triangle"],
)
def test_fiber_counts_refuse_quivers_not_of_type_a(quiver):
    pctx = PeriodicContext(RepContext(quiver, FieldSpec(2)))
    s1 = module_key(pctx, pctx.ctx.simple("1"))
    s2 = module_key(pctx, pctx.ctx.simple("2"))
    # a pair without morphisms needs no classification
    assert pctx.fiber_counts(s1, s2) == {pctx.direct_sum_key(pctx.shift_key(s1, 1), s2): 1}
    with pytest.raises(NotImplementedError, match="type A"):
        pctx.fiber_counts(s1, s1)


def test_budget_errors_name_their_objects(a2):
    s1 = module_key(a2, a2.ctx.simple("1"))
    s2 = module_key(a2, a2.ctx.simple("2"))
    x = a2.direct_sum_key(s1, a2.shift_key(s2, 1))
    y = a2.direct_sum_key(s1, s2)
    assert a2.hom_dim(x, y) > 0
    a2.ctx.enum_cap = 1
    with pytest.raises(BudgetExceeded) as err:
        a2.fiber_counts(x, y)
    assert f"{a2.format_key(x)} -> {a2.format_key(y)}" in str(err.value)
    space = ChainModel(a2).hom_space(x, y)
    with pytest.raises(BudgetExceeded) as err:
        next(space.morphisms())
    slots = [[s.dims for s in c.slots] for c in (space.source, space.target)]
    assert f"{slots[0]} -> {slots[1]}" in str(err.value)


def test_every_refusal_has_one_format(a2):
    # every enumeration is refused through RepContext.check_budget, so
    # each of the seven refusals reads "<size> <what> exceed cap <cap>:"
    # followed by the objects it would have enumerated
    s1 = module_key(a2, a2.ctx.simple("1"))
    s2 = module_key(a2, a2.ctx.simple("2"))
    x = a2.direct_sum_key(s1, a2.shift_key(s2, 1))
    y = a2.direct_sum_key(s1, s2)
    chains = ChainModel(a2)
    space, a, b = chains.hom_space(x, y), chains.realize(x), chains.realize(y)
    slots = [str([s.dims for s in c.slots]) for c in (a, b)]
    f2 = FieldSpec(2)
    # the Kronecker module (I, N), N nilpotent, has End = F_2[x]/(x^2):
    # 4 endomorphisms, none of which splits it
    kronecker = RepContext(KRONECKER, f2, enum_cap=2)
    r = Rep(f2, KRONECKER, (2, 2), {"a": MatrixFp.identity(f2, 2), "b": MatrixFp(f2, [[0, 1], [0, 0]])})
    top = Rep(f2, KRONECKER, (2, 1), {})
    a2.ctx.enum_cap = 1
    cases = [
        (lambda: a2.fiber_counts(x, y), [f"{a2.format_key(x)} -> {a2.format_key(y)}"]),
        (lambda: next(space.morphisms()), [f"{slots[0]} -> {slots[1]}"]),
        (lambda: enumerate_reps(RepContext(line_quiver(2), f2, enum_cap=1), (1, 1)), ["(1, 1)"]),
        (lambda: find_homotopy_iso(a2.ctx, a, b), [f"{slots[0]} and {slots[1]}"]),
        (lambda: kronecker.residue_field_degree(r), ["(2, 2)"]),
        (lambda: decompose(kronecker, r), ["(2, 2)"]),
        (lambda: classical_hall_g(kronecker, kronecker.simple("2"), top, r), ["(0, 1)", "(2, 2)"]),
    ]
    for run, names in cases:
        with pytest.raises(BudgetExceeded) as err:
            run()
        message = str(err.value)
        assert re.fullmatch(r"\d+ [a-z ]+ exceed cap \d+: .+", message), message
        assert all(name in message.split(": ", 1)[1] for name in names), message


def test_aut_orders_against_enumeration(a1, a2):
    for pctx, bound in ((a1, (1,)), (a2, (1, 1))):
        chains = ChainModel(pctx)
        for key in pctx.enumerate_objects(bound):
            if pctx.total_dim(key) > 2:
                continue
            assert pctx.aut_order(key) == aut_order_by_enumeration(chains, key), key
    # at the longer periods every object of total dimension at most two,
    # the repeated parts and the extensions between shifts among them,
    # and a graded prefix of the objects, which reaches A3
    for n, t in ((1, 5), (1, 7), (2, 5), (3, 5), (3, 7)):
        pctx = PeriodicContext(RepContext(line_quiver(n), FieldSpec(2)), t)
        chains = ChainModel(pctx)
        prefix = list(itertools.islice(pctx.objects((1,) * n), 40))
        for key in (part_objects(pctx) if n < 3 else []) + prefix:
            if pctx.total_dim(key) <= 2:
                assert pctx.aut_order(key) == aut_order_by_enumeration(chains, key), (t, key)


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
            extended += any(
                pctx.hom_dim(layers[s], pctx.shift_key(layers[(s + 1) % pctx.t], 1)) for s in range(pctx.t)
            )
    assert repeated and extended


def test_aut_order_reads_the_residue_degree():
    # on line quivers every indecomposable has End = F_q; the Kronecker
    # module (I, A) with A irreducible over F_2 has End = F_4
    f2 = FieldSpec(2)
    pctx = PeriodicContext(RepContext(KRONECKER, f2))
    r = Rep(f2, KRONECKER, (2, 2), {"a": MatrixFp.identity(f2, 2), "b": MatrixFp(f2, [[0, 1], [1, 1]])})
    k = module_key(pctx, r)
    s = module_key(pctx, pctx.ctx.simple("1"))
    assert pctx.aut_order(k) == 3 == aut_order_by_enumeration(ChainModel(pctx), k)
    assert pctx.aut_order(pctx.direct_sum_key(k, k)) == 15 * 12  # |GL_2(F_4)|
    for other in (k, pctx.shift_key(k, 1), pctx.shift_key(s, 2)):
        key = pctx.direct_sum_key(k, other)
        assert pctx.aut_order(key) == aut_order_by_layers(pctx, key), key


@pytest.mark.parametrize("p, aut, aut_twice", [(2, 2, 96), (3, 6, 3888)])
def test_residue_degree_of_a_local_end_that_is_not_a_field(p, aut, aut_twice):
    # the Kronecker module (I, N) with N = [[0, 1], [0, 0]] has
    # End = F_q[x]/(x^2): a local ring with a nonzero radical, so the
    # residue degree divides the radical out and is 1, |Aut| = q^2 - q,
    # and |Aut| of the module twice is |GL_2(F_q)| q^4
    fp = FieldSpec(p)
    pctx = PeriodicContext(RepContext(KRONECKER, fp))
    r = Rep(fp, KRONECKER, (2, 2), {"a": MatrixFp.identity(fp, 2), "b": MatrixFp(fp, [[0, 1], [0, 0]])})
    assert len(pctx.ctx.hom_ext(r, r).hom) == 2
    assert pctx.ctx.residue_field_degree(r) == 1
    k = module_key(pctx, r)
    assert pctx.aut_order(k) == aut == module_aut_order(pctx.ctx, r)
    assert aut == aut_order_by_enumeration(ChainModel(pctx), k) == aut_order_by_layers(pctx, k)
    kk = pctx.direct_sum_key(k, k)
    assert pctx.aut_order(kk) == aut_twice == aut_order_by_layers(pctx, kk)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [2, 3])
def test_type_a_indecomposables_are_bricks(n, p):
    # End of an interval module is F_q: the brick rule and the End
    # enumeration both give residue degree 1
    pctx = PeriodicContext(RepContext(line_quiver(n), FieldSpec(p)))
    ids = pctx.ctx.indecomposable_ids()
    assert len(ids) == n * (n + 1) // 2
    for cid in ids:
        assert pctx._residue_degree(cid) == 1 == pctx.ctx.residue_field_degree(pctx.ctx.class_rep(cid)), cid


def test_aut_order_frozen_values(a1, a2):
    s = module_key(a1, a1.ctx.simple("1"))
    assert a1.aut_order(a1.direct_sum_key(s, a1.shift_key(s, 1))) == 1
    s1 = module_key(a2, a2.ctx.simple("1"))
    s2 = module_key(a2, a2.ctx.simple("2"))
    # the lower-triangle extension between shifts contributes a factor q
    assert a2.aut_order(a2.direct_sum_key(s1, a2.shift_key(s2, 1))) == 2
    assert a2.aut_order(a2.direct_sum_key(s1, a2.shift_key(s1, 1))) == 1
    assert a2.aut_order(()) == 1


def test_aut_order_odd_prime():
    pctx = PeriodicContext(RepContext(line_quiver(1), FieldSpec(3)))
    s = module_key(pctx, pctx.ctx.simple("1"))
    assert pctx.aut_order(s) == 2
    ss = pctx.direct_sum_key(s, s)
    assert pctx.aut_order(ss) == 48
    assert aut_order_by_enumeration(ChainModel(pctx), ss) == 48


def test_components_and_dvec(a2):
    s1 = module_key(a2, a2.ctx.simple("1"))
    p1 = module_key(a2, periodic.projective(a2.ctx, "1"))
    key = a2.direct_sum_key(s1, a2.shift_key(p1, 2))
    comps = a2.components(key)
    assert comps[0] == s1
    assert comps[1] == ()
    assert comps[2] == p1
    assert dvec_mod2(a2, key) == (0, 1)
    assert dvec_mod2(a2, a2.direct_sum_key(key, key)) == (0, 0)


def test_format_key(a2):
    s1 = module_key(a2, a2.ctx.simple("1"))
    assert a2.format_key(()) == "0"
    txt = a2.format_key(a2.direct_sum_key(s1, a2.shift_key(s1, 1)))
    assert "[1]" in txt and "(1,0)" in txt
