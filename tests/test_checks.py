import pytest

from perihall.checks import (
    build_quiver_engine,
    check_classical_comparison,
    check_symmetry,
    graded_triples,
    hall_number_via,
)
from perihall.quiver import line_quiver


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
