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
