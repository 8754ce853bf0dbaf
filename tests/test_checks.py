import pytest

from perihall.checks import (
    brace_exponent_by_shifts,
    build_quiver_engine,
    check_classical_comparison,
    check_cone_well_defined,
    check_decorated_symmetry,
    check_hom_dimensions,
    check_orbit_normal_form,
    check_pbw_round_trip,
    check_relations,
    check_stable_images,
    check_symmetry,
    graded_triples,
    hall_number_via,
)
from perihall.quiver import line_quiver
from perihall.semisimple import SemisimplePeriodic


@pytest.mark.parametrize("p", [2, 3])
def test_classical_comparison_on_a2(p):
    pctx, honest = build_quiver_engine(line_quiver(2), p)
    report = check_classical_comparison(pctx, honest, (1, 1))
    assert report.passed, report.summary()
    assert report.details["nonzero"] > 0

    pctx, faulty = build_quiver_engine(line_quiver(2), p, fault_inject=True)
    report = check_classical_comparison(pctx, faulty, (1, 1))
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


def test_dual_recipe_names_are_checked():
    pctx, engine = build_quiver_engine(line_quiver(1), 2)
    with pytest.raises(ValueError):
        hall_number_via(engine, pctx.zero_key, pctx.zero_key, pctx.zero_key, "sideways")


def test_hom_dimensions_harness_sees_a_wrong_ext1(monkeypatch):
    pctx, _ = build_quiver_engine(line_quiver(3), 2)
    keys = pctx.enumerate_objects((1, 1, 1))[:40]
    report = check_hom_dimensions(pctx, keys, literal_limit=200)
    assert report.passed, report.summary()
    assert report.details["literal pairs"] == 200

    pctx, _ = build_quiver_engine(line_quiver(3), 2)
    keys = pctx.enumerate_objects((1, 1, 1))[:40]
    honest = pctx._class_pair

    def wrong_ext1(a, b):
        hom, ext = honest(a, b)
        return hom, ext + (ext > 0)

    monkeypatch.setattr(pctx, "_class_pair", wrong_ext1)
    report = check_hom_dimensions(pctx, keys, literal_limit=200)
    assert not report.passed


def test_relations_harness_catches_the_fault():
    for fault_inject in (False, True):
        pctx, engine = build_quiver_engine(line_quiver(2), 2, fault_inject=fault_inject)
        modules = [pctx.module_key(r) for r in pctx.ctx.enumerate_reps((1, 1))]
        report = check_relations(engine, pctx, modules)
        assert report.checked > 0
        assert report.passed is not fault_inject, report.summary()


def _a2_scope():
    pctx, engine = build_quiver_engine(line_quiver(2), 2)
    return pctx, engine, pctx.enumerate_objects((1, 1))[:12]


def test_cone_well_defined_harness_passes_on_a2():
    pctx, _, keys = _a2_scope()
    pairs = [(x, y) for x in keys for y in keys]
    report = check_cone_well_defined(pctx, keys, pairs, morphism_target=40)
    assert report.passed, report.summary()
    assert report.details["morphisms"] == 40
    assert report.details["triangles"] > 0


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
    pctx, engine = build_quiver_engine(line_quiver(1), 2)
    report = check_stable_images(pctx, engine, pctx.enumerate_objects((1,)), target=40, exp_cap=4)
    assert report.passed, report.summary()
    assert report.checked == 40


def test_orbit_normal_form_harness_passes_on_a1():
    pctx, _ = build_quiver_engine(line_quiver(1), 2)
    report = check_orbit_normal_form(pctx, pctx.enumerate_objects((1,)), target=10)
    assert report.passed, report.summary()
    assert report.checked == 10


def test_decorated_symmetry_passes_on_a1():
    # the harness reads only product supports, so it cannot see the
    # faulty engine's wrong coefficient; this pins the honest PASS only
    pctx, engine = build_quiver_engine(line_quiver(1), 2)
    keys = pctx.enumerate_objects((1,))
    report = check_decorated_symmetry(pctx, engine, keys, target=30, exp_cap=5)
    assert report.passed, report.summary()
    assert report.checked == 30


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
