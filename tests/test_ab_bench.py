import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"


def load():
    spec = importlib.util.spec_from_file_location("ab_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_counts_pairs_and_the_gain_rule():
    ab = load()
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 14.5]
    change = [p - 3 for p in parent]
    s = ab.summarize(parent, change, lower_is_better=True)
    assert s["parent"]["median"] == 12.25 and s["change"]["median"] == 9.25
    assert (s["pairs_won"], s["pairs_lost"]) == (10, 0)
    assert s["parent_iqr"] == 2.25 and s["clear_gain"]
    assert s["median_change"] == round(9.25 / 12.25 - 1, 4)

    # nine wins of ten, but a median shift inside the parent's spread
    change = [p - 1 for p in parent[:9]] + [parent[9]]
    s = ab.summarize(parent, change, lower_is_better=True)
    assert (s["pairs_won"], s["pairs_lost"]) == (9, 0)
    assert not s["clear_gain"]

    # a higher-is-better metric counts the other way
    s = ab.summarize(parent, [p + 3 for p in parent], lower_is_better=False)
    assert s["pairs_won"] == 10 and s["clear_gain"]


def test_verdict_per_metric():
    ab = load()
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 14.5]  # median 12.25, IQR 2.25
    # a median 20% worse than the parent's passes a 25% bound and fails a 15% one
    worse = [p * 1.2 for p in parent]
    assert ab.verdict(parent, worse, lower_is_better=True, bound=0.25) == "held"
    assert ab.verdict(parent, worse, lower_is_better=True, bound=0.15) == "regressed"
    # the same runs are a gain when higher is better
    assert ab.verdict(parent, worse, lower_is_better=False, bound=0.25) == "held"
    assert ab.verdict(parent, [p / 1.2 for p in parent], lower_is_better=False, bound=0.15) == "regressed"
    # a parent spread of 2.25 / 12.25 = 18% exceeds a 10% bound: unresolved
    # unless every change run beats every parent run
    assert ab.verdict(parent, list(parent), lower_is_better=True, bound=0.1) == "unresolved"
    assert ab.verdict(parent, [p - 5 for p in parent], lower_is_better=True, bound=0.1) == "held"
    assert ab.verdict(parent, [p + 5 for p in parent], lower_is_better=True, bound=0.1) == "regressed"
    # summarize carries the verdict only for a metric with a bound
    assert ab.summarize(parent, worse, lower_is_better=True, bound=0.15)["verdict"] == "regressed"
    assert ab.summarize(parent, worse, lower_is_better=True)["verdict"] is None


def test_a_gain_does_not_count_when_more_ops_fail(monkeypatch):
    ab = load()
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 14.5]

    def fake_runs(change_failed):
        calls = {"parent": iter(parent), "change": iter(p - 3 for p in parent)}

        def run_once(checkout, workload, seed, seconds):
            side = checkout.name
            value = next(calls[side])
            return {"metrics": {"scope_ref": {"value": value, "unit": "ms"}}, "correct": True,
                    "failed": change_failed if side == "change" else 1, "attempted": 100}

        monkeypatch.setattr(ab, "run_once", run_once)
        return ab.bench_workload(Path("parent"), Path("change"), "w", range(10), 1.0, {"scope_ref": "lower"}, {})

    # the change is faster in every pair and fails as often: a clear gain
    res = fake_runs(change_failed=1)
    assert not res["more_failed_ops"] and res["metrics"]["scope_ref"]["clear_gain"]
    assert res["failed_ops"] == {"parent": 10, "change": 10}
    # the same runs with one more failure on the change's side: no gain
    res = fake_runs(change_failed=2)
    assert res["more_failed_ops"] and not res["metrics"]["scope_ref"]["clear_gain"]
    # the share is compared, not the count
    assert not ab.more_failed({"parent": 2, "change": 3}, {"parent": 100, "change": 200})
    assert ab.more_failed({"parent": 0, "change": 1}, {"parent": 0, "change": 50})


def test_each_finished_workload_is_written_before_a_later_one_fails(monkeypatch, tmp_path):
    ab = load()
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    spec = {"workloads": [{"name": "first"}, {"name": "second"}],
            "end_to_end": [{"name": "scope_ref", "better": "lower", "bound": 0.25}]}
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(spec))

    def run_once(checkout, workload, seed, seconds):
        if workload == "second":
            raise RuntimeError("the second workload failed")
        return {"metrics": {"scope_ref": {"value": 10.0 + seed, "unit": "ref"}}, "correct": True,
                "failed": 0, "attempted": 100}

    monkeypatch.setattr(ab, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    with pytest.raises(RuntimeError, match="second workload"):
        ab.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--pairs", "2", "--seconds", "1",
                 "--out", str(out)])
    written = json.loads(out.read_text())
    assert list(written["workloads"]) == ["first"]
    first = written["workloads"]["first"]
    assert first["seeds"] == [1, 2] and first["metrics"]["scope_ref"]["parent_runs"] == [11.0, 12.0]


def test_a_median_worse_by_half_the_bound_is_flagged(monkeypatch, tmp_path, capsys):
    ab = load()
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 14.5]  # median 12.25
    # 10% worse sits past half a 15% bound, and inside half a 25% one
    worse = [p * 1.1 for p in parent]
    assert ab.near_bound(parent, worse, lower_is_better=True, bound=0.15)
    assert not ab.near_bound(parent, worse, lower_is_better=True, bound=0.25)
    # a better median is never near its bound; higher-is-better counts the other way
    assert not ab.near_bound(parent, [p / 1.1 for p in parent], lower_is_better=True, bound=0.15)
    assert ab.near_bound(parent, [p / 1.1 for p in parent], lower_is_better=False, bound=0.15)
    s = ab.summarize(parent, worse, lower_is_better=True, bound=0.15)
    assert s["near_bound"] and s["verdict"] != "regressed"
    assert ab.summarize(parent, worse, lower_is_better=True)["near_bound"] is None

    # the command line names each flagged metric and asks for fresh seeds
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "scope_ref", "better": "lower", "bound": 0.15},
                           {"name": "op_p50_ref", "better": "lower", "bound": 0.25}]}
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(spec))

    def run_once(checkout, workload, seed, seconds):
        value = 10.0 + seed if checkout.name == "parent" else (10.0 + seed) * 1.1
        return {"metrics": {"scope_ref": {"value": value, "unit": "ref"}, "op_p50_ref": {"value": value, "unit": "ref"}},
                "correct": True, "failed": 0, "attempted": 100}

    monkeypatch.setattr(ab, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    assert ab.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--pairs", "4", "--seconds", "1",
                    "--out", str(out)]) == 0
    metrics = json.loads(out.read_text())["workloads"]["w"]["metrics"]
    assert metrics["scope_ref"]["near_bound"] and not metrics["op_p50_ref"]["near_bound"]
    printed = capsys.readouterr().out
    assert "w scope_ref: the change's median is worse by more than half the bound; repeat the run on fresh seeds" in printed
    assert "w op_p50_ref: the change's median" not in printed
