"""Self-tests of the benchmark: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import metrics
from run import Pass
from tracer import Tracer
from workloads import BENCHMARKED, WORKLOADS, Session, check_all, run_ops

from perihall.hall import HallEngine, HallVector
from perihall.sqrtq import HallValue

ROOT = Path(__file__).resolve().parent.parent


def _tiny_failures(name: str):
    wl = WORKLOADS[name]
    s = Session(wl)
    ops = wl.make_ops(s, wl.smoke_size)
    results, _, _ = run_ops(s, wl, ops)
    return check_all(s, wl, ops, results, wl.reference())


def test_smoke_prints_every_metric_with_its_unit():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.rstrip().endswith("smoke ok")


@pytest.mark.parametrize("name", BENCHMARKED)
def test_honest_engine_passes_every_check(name):
    assert _tiny_failures(name) == {}


def test_one_wrong_coefficient_fails_a_product(monkeypatch):
    honest = HallEngine.multiply
    target = []

    def faulty(self, x, y):
        v = honest(self, x, y)
        if not target and x and y:
            target.append((x, y))
        if target[-1:] != [(x, y)]:
            return v
        coeffs = dict(v.coeffs)
        k = next(iter(coeffs))
        coeffs[k] = coeffs[k] + HallValue.one(self.q)
        return HallVector(self.q, coeffs)

    monkeypatch.setattr(HallEngine, "multiply", faulty)
    assert _tiny_failures("a2p2-products") == {"reference": 1}


def test_seed_only_reorders_the_ops():
    wl = WORKLOADS["a1p3-assoc"]
    a, b = (Pass(wl, seed, wl.smoke_size) for seed in (1, 2))
    assert a.ops != b.ops
    assert sorted(a.ops) == sorted(b.ops)
    assert a.failures == b.failures == {}


def test_classes_sharing_a_dimension_vector_are_refused():
    s = Session(WORKLOADS["a2p2-products"])
    twins = [cid for cid in range(s.pctx.ctx.class_count()) if tuple(s.pctx.ctx.class_rep(cid).dims) == (1, 1)]
    assert len(twins) == 2  # the projective P1 and S1 + S2
    with pytest.raises(AssertionError, match="share dimension vector"):
        for cid in twins:
            s.canon.dims(cid)


def test_missing_targets_are_reported_and_originals_restored():
    multiply = HallEngine.__dict__["multiply"]
    tracer = Tracer(
        spans=[("hall", "HallEngine.multiply"), ("hall", "HallEngine.no_such_method"), ("no_such_module", "f")],
        counters={"gfp.gone": [("gfp", "_no_such_function")]},
    )
    with tracer.installed():
        assert HallEngine.__dict__["multiply"] is not multiply
    assert HallEngine.__dict__["multiply"] is multiply
    assert tracer.absent == ["hall.HallEngine.no_such_method", "no_such_module.f", "gfp._no_such_function"]


def test_benchmark_json_matches_the_metric_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(BENCHMARKED)
    assert [tuple(m.values()) for m in spec["end_to_end"]] == [tuple(row) for row in metrics.END_TO_END]
    assert [tuple(m.values()) for m in spec["per_layer"]] == [row[:3] for row in metrics.PER_LAYER]
    bounds = {name: bound for name, _, _, bound in metrics.END_TO_END}
    assert bounds["setup_s"] == max(bounds.values())
