import importlib.util
from pathlib import Path

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
