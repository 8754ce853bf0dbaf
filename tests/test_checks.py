import itertools

import pytest

from perihall.category import PeriodicContext
from perihall.checks import (
    aut_order_by_layers,
    brace_exponent_by_shifts,
    build_quiver_engine,
    build_unguarded_engine,
    check_associativity,
    check_classical_comparison,
    check_cone_well_defined,
    check_decorated_symmetry,
    check_hom_dimensions,
    check_orbit_normal_form,
    check_pbw_round_trip,
    check_relations,
    check_stable_images,
    check_symmetry,
    enumerate_reps,
    graded_triples,
    hall_number_via,
    module_key,
)
from perihall.gfp import FieldSpec
from perihall.quiver import line_quiver
from perihall.reps import RepContext
from perihall.semisimple import SemisimplePeriodic

# the periods every chain-level harness runs at
PERIODS = (3, 5, 7)


def _part_scope(pctx):
    """The zero object and every part (class, shift): their Hom blocks
    meet every shift residue, and the scope grows only linearly in t."""
    return [()] + [(part,) for part in pctx.hom_vectors().parts]


def _graded_prefix(pctx, bound, count):
    """The first objects of the bound, listed lazily in graded order:
    the zero object and the parts of least dimension first, then their
    sums, at any period."""
    return list(itertools.islice(pctx.objects(bound), count))


@pytest.mark.parametrize("p", [2, 3])
def test_classical_comparison_on_a2(p):
    pctx, honest = build_quiver_engine(line_quiver(2), p)
    report = check_classical_comparison(honest, (1, 1))
    assert report.passed, report.summary()
    assert report.details["nonzero"] > 0

    pctx, faulty = build_quiver_engine(line_quiver(2), p, fault_inject=True)
    report = check_classical_comparison(faulty, (1, 1))
    assert not report.passed
    x, y, l = faulty.target
    assert report.failures[0].startswith(
        f"x={pctx.format_key(x)} y={pctx.format_key(y)} l={pctx.format_key(l)}:"
    )


def test_symmetry_harness_caps_and_catches_the_fault():
    for fault_inject in (False, True):
        pctx, engine = build_quiver_engine(line_quiver(1), 2, fault_inject=fault_inject)
        keys = pctx.enumerate_objects((1,))[1:]
        triples = graded_triples([pctx.total_dim(k) for k in keys], 40)
        report = check_symmetry(engine, keys, triples, hom_cap=4)
        assert report.checked > 0
        assert report.details["skipped_cap"] > 0
        assert report.passed is not fault_inject, report.summary()


def test_graded_triples_stop_at_the_limit():
    dims = [0, 1, 1]
    assert graded_triples(dims, 0) == graded_triples(dims, -1) == []
    assert graded_triples(dims, 1) == [(0, 0, 0)]
    assert graded_triples(dims, 4) == [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0)]
    assert len(graded_triples(dims, 100)) == 27


def test_dual_recipe_names_are_checked():
    pctx, engine = build_quiver_engine(line_quiver(1), 2)
    with pytest.raises(ValueError):
        hall_number_via(engine, pctx.zero_key, pctx.zero_key, pctx.zero_key, "sideways")


def test_hom_dimensions_harness_sees_a_wrong_ext1(monkeypatch):
    pctx, _ = build_quiver_engine(line_quiver(3), 2)
    keys = pctx.enumerate_objects((1, 1, 1))[:40]
    report = check_hom_dimensions(pctx, keys)
    assert report.passed, report.summary()
    assert report.checked == len(keys) ** 2

    def wrong_ext1(pctx):
        honest = pctx._class_pair

        def wrong(a, b):
            hom, ext = honest(a, b)
            return hom, ext + (ext > 0)

        monkeypatch.setattr(pctx, "_class_pair", wrong)

    pctx, _ = build_quiver_engine(line_quiver(3), 2)
    keys = pctx.enumerate_objects((1, 1, 1))[:40]
    wrong_ext1(pctx)
    report = check_hom_dimensions(pctx, keys)
    assert not report.passed
    assert report.checked == len(keys) ** 2

    # the same at the longer periods, on the A2 part scope and on a
    # graded prefix of A3; the fault goes in before any class pair is
    # cached
    for t in PERIODS[1:]:
        for honest in (True, False):
            for n in (2, 3):
                pctx, _ = build_quiver_engine(line_quiver(n), 2, t=t)
                if not honest:
                    wrong_ext1(pctx)
                keys = _part_scope(pctx) if n == 2 else _graded_prefix(pctx, (1, 1, 1), 30)
                report = check_hom_dimensions(pctx, keys)
                assert report.passed is honest, (t, n, report.summary())
                assert report.checked == len(keys) ** 2


def test_relations_harness_catches_the_fault():
    for fault_inject in (False, True):
        pctx, engine = build_quiver_engine(line_quiver(2), 2, fault_inject=fault_inject)
        modules = [module_key(pctx, r) for r in enumerate_reps(pctx.ctx, (1, 1))]
        report = check_relations(engine, modules)
        assert report.checked > 0
        assert report.passed is not fault_inject, report.summary()


def _a2_scope():
    pctx, engine = build_quiver_engine(line_quiver(2), 2)
    return pctx, engine, pctx.enumerate_objects((1, 1))[:12]


def test_cone_well_defined_harness_passes_on_a2():
    # the whole summary is pinned, so a change in what the harness walks
    # shows even while it passes; at the longer periods on the part scope
    # and on a graded prefix
    pinned = {
        (3, "prefix"): (258, 40, 206),
        (5, "parts"): (342, 40, 286),
        (7, "parts"): (588, 40, 526),
        (5, "prefix"): (218, 40, 166),
        (7, "prefix"): (200, 30, 158),
    }
    for (t, scope), (checked, morphisms, triangles) in pinned.items():
        if t == 3:
            pctx, _, keys = _a2_scope()
        else:
            pctx, _ = build_quiver_engine(line_quiver(2), 2, t=t)
            keys = _part_scope(pctx) if scope == "parts" else _graded_prefix(pctx, (1, 1), 12)
        report = check_cone_well_defined(pctx, keys)
        assert report.summary() == (
            f"PASS cone well-definedness: checked={checked} (morphisms={morphisms}, triangles={triangles})"
        ), (t, scope)


def test_pbw_round_trip_harness_passes_on_a2():
    _, engine, keys = _a2_scope()
    report = check_pbw_round_trip(engine, keys)
    assert report.passed, report.summary()
    assert report.checked == 12

    # the round trip holds by construction for any bilinear product that
    # answers the same on every call, so it PASSes on the faulty engine
    # too, even though the wrong constant changes an expansion here
    pctx, faulty = build_quiver_engine(line_quiver(2), 2, fault_inject=True)
    report = check_pbw_round_trip(faulty, pctx.enumerate_objects((1, 1))[:12])
    assert report.passed, report.summary()
    assert faulty.target is not None
    assert any(engine.pbw_expand(k).terms != faulty.pbw_expand(k).terms for k in keys)


def test_stable_images_harness_passes_on_a1():
    for t in PERIODS:
        pctx, _ = build_quiver_engine(line_quiver(1), 2, t=t)
        report = check_stable_images(pctx, pctx.enumerate_objects((1,)))
        assert report.summary() == "PASS stable image sizes: checked=40", t


def test_orbit_normal_form_harness_passes_on_a1():
    # the whole summary is pinned per (p, t, objects): over F_3 the
    # scalars act on the triangles, so an orbit holds several of them,
    # and past the zero object on bound (2,) a triple holds several orbits
    pinned = [
        (2, 3, (1,), 0, None, 10, 10),
        (2, 5, (1,), 0, None, 10, 10),
        (2, 7, (1,), 0, None, 10, 10),
        (3, 3, (1,), 0, None, 10, 31),
        (3, 5, (1,), 0, None, 10, 27),
        (3, 7, (1,), 0, None, 10, 23),
        (3, 3, (2,), 1, 27, 19, 122),
    ]
    for p, t, bound, start, stop, orbits, triangles in pinned:
        pctx, _ = build_quiver_engine(line_quiver(1), p, t=t)
        report = check_orbit_normal_form(pctx, pctx.enumerate_objects(bound)[start:stop])
        assert report.summary() == (
            f"PASS triangle orbit normal form: checked=10 (orbits={orbits}, triangles={triangles})"
        ), (p, t, bound)


def test_decorated_symmetry_passes_on_a1():
    # the harness reads only product supports, so it cannot see the
    # faulty engine's wrong coefficient; this pins the honest PASS only,
    # and on bound (2,) the instances skipped past the Hom dimension cap
    for t in PERIODS:
        pctx, engine = build_quiver_engine(line_quiver(1), 2, t=t)
        report = check_decorated_symmetry(engine, pctx.enumerate_objects((1,)))
        assert report.summary() == "PASS decorated symmetry: checked=30 (nonzero=30)", t
    pctx, engine = build_quiver_engine(line_quiver(1), 2)
    report = check_decorated_symmetry(engine, pctx.enumerate_objects((2,))[:12])
    assert report.summary() == "PASS decorated symmetry: checked=30 (nonzero=30, skipped_cap=2)"


def _brace_mismatches(oracle, keys):
    return [(x, y) for x in keys for y in keys if oracle.brace_exponent(x, y) != brace_exponent_by_shifts(oracle, x, y)]


@pytest.mark.parametrize(
    "n, p, bound, count",
    [(1, 3, (1,), None), (2, 2, (1, 1), 60), (2, 3, (1, 1), 60), (3, 2, (1, 1, 1), 60)],
)
def test_brace_table_matches_the_alternating_sum(n, p, bound, count):
    pctx, _ = build_quiver_engine(line_quiver(n), p)
    keys = pctx.enumerate_objects(bound)[:count]
    assert _brace_mismatches(pctx, keys) == []


@pytest.mark.parametrize("t, bound", [(3, 2), (5, 1), (7, 1)])
def test_semisimple_brace_closed_form_matches_the_alternating_sum(t, bound):
    cat = SemisimplePeriodic(t, 2)
    assert _brace_mismatches(cat, cat.enumerate_objects(bound)) == []


@pytest.mark.parametrize("p", [2, 3])
def test_harnesses_run_the_quiver_category_at_period_five(p):
    # every engine and harness path reads the period off the context, so
    # the A2 category at t = 5 passes the harnesses, and the ones that
    # see a wrong constant fail on the faulty engine
    def scope(fault_inject):
        pctx, engine = build_quiver_engine(line_quiver(2), p, fault_inject=fault_inject, t=5)
        modules = [module_key(pctx, r) for r in enumerate_reps(pctx.ctx, (1, 1))]
        return pctx, engine, pctx.enumerate_objects((1, 1)), modules

    pctx, engine, keys, modules = scope(False)
    assert len(keys) == 5**5
    simple = pctx.ctx.simple("1")
    assert module_key(pctx, simple, 4) == pctx.shift_key(module_key(pctx, simple), 4) != module_key(pctx, simple, 1)
    first = keys[:14]
    relations = check_relations(engine, modules)
    # one same-layer and one crossing family per shift
    assert relations.checked == 2 * 5 * len(modules) ** 2
    for report in (
        check_associativity(engine, first),
        relations,
        check_symmetry(engine, first, graded_triples([pctx.total_dim(k) for k in first], 200)),
        check_pbw_round_trip(engine, first),
    ):
        assert report.checked > 0
        assert report.passed, report.summary()
    assert all(pctx.aut_order(k) == aut_order_by_layers(pctx, k) for k in keys[:60])
    assert _brace_mismatches(pctx, keys[:25]) == []

    pctx, faulty, keys, modules = scope(True)
    assert not check_associativity(faulty, keys[:14]).passed
    assert not check_relations(faulty, modules).passed


def test_the_auslander_decode_needs_an_odd_period():
    # at t = 2 the hom matrix of the A2 test objects is singular, so no
    # cone can be decoded from its hom vector
    pctx = PeriodicContext(RepContext(line_quiver(2), FieldSpec(2)))
    engine = build_unguarded_engine(pctx, 2)
    keys = pctx.enumerate_objects((1, 1))
    with pytest.raises(AssertionError, match="hom matrix .* singular"):
        engine.multiply(keys[1], keys[2])
