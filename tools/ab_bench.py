"""Run the benchmark alternately in two checkouts and write a BENCH file.

    python3 tools/ab_bench.py PARENT_DIR CHANGE_DIR --pairs 10 --seconds 30 --out BENCH_13.json

For each workload (default: every workload in the change's
``BENCHMARK.json``) and each pair i, the tool runs

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0

once in PARENT_DIR and once in CHANGE_DIR, one process at a time, on the
same seed S = --seed + i. The parent runs first in even pairs and the
change first in odd pairs, so a drift in machine speed falls on both
sides. Each run's last output line is the benchmark's JSON result.

The output file is written again after each workload, so a run that
fails in a later workload keeps the workloads already finished. It has
the layout of the earlier ``BENCH_*.json`` files:
the protocol, and per workload the seeds, which side ran first in each
pair, whether every run was correct, the failed ops per side, and per
end-to-end metric the median and quartiles per side, the relative
change of the median, the parent's interquartile range, the pairs won
and lost by the change, and the raw runs. ``clear_gain`` says whether
the change won at least nine in ten pairs and moved the median by more
than the parent's interquartile range. A gain does not count when the
change fails a larger share of its attempted ops than the parent: the
workload's ``more_failed_ops`` flag is then set and every metric's
``clear_gain`` is false. Which way is better, and each
end-to-end metric's ``bound``, are read from the change's
``BENCHMARK.json``.

Each end-to-end metric also gets a ``verdict``, checked in this order:

- ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound, as a fraction of the parent's median;
- ``unresolved``: the parent's interquartile range exceeds the bound as
  a fraction of its median, and not every change run beats every parent
  run, so the runs spread too widely to tell;
- ``held``: otherwise.

A metric with a bound is also flagged ``near_bound`` when the change's
median is worse than the parent's by more than half the bound. Such a
verdict can flip on run timing alone, so the tool prints each flagged
metric with a request to repeat the run on fresh seeds (``--seed``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

COMMAND = "python3 perfbench/run.py --workload {workload} --seed {seed} --seconds {seconds} --trace 0"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in a checkout: its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {out.returncode}:\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def verdict(parent: Sequence[float], change: Sequence[float], lower_is_better: bool, bound: float) -> str:
    """``regressed``, ``unresolved`` or ``held`` (module docstring) for
    one metric with the given relative bound."""
    sign = 1 if lower_is_better else -1
    q1, med, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    worse = sign * (statistics.median(change) - med)
    if worse > bound * abs(med):
        return "regressed"
    every_run_better = all(sign * (a - b) > 0 for a in parent for b in change)
    if q3 - q1 > bound * abs(med) and not every_run_better:
        return "unresolved"
    return "held"


def near_bound(parent: Sequence[float], change: Sequence[float], lower_is_better: bool, bound: float) -> bool:
    """Whether the change's median is worse than the parent's by more
    than half the relative bound."""
    sign = 1 if lower_is_better else -1
    med = statistics.median(parent)
    return sign * (statistics.median(change) - med) > bound / 2 * abs(med)


def summarize(parent: Sequence[float], change: Sequence[float], lower_is_better: bool,
              bound: Optional[float] = None) -> dict:
    """Median and quartiles per side, the pairs the change won, and the
    verdict and the near-bound flag when the metric has a bound."""

    def stats(runs: Sequence[float]) -> dict:
        q1, med, q3 = statistics.quantiles(runs, n=4, method="inclusive")
        return {"median": med, "q1": q1, "q3": q3}

    p, c = stats(parent), stats(change)
    sign = 1 if lower_is_better else -1
    won = sum(1 for a, b in zip(parent, change) if sign * (a - b) > 0)
    lost = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    iqr = p["q3"] - p["q1"]
    return {
        "parent": p,
        "change": c,
        "median_change": round(c["median"] / p["median"] - 1, 4) if p["median"] else None,
        "parent_iqr": iqr,
        "pairs_won": won,
        "pairs_lost": lost,
        "clear_gain": 10 * won >= 9 * len(parent) and sign * (p["median"] - c["median"]) > iqr,
        "verdict": None if bound is None else verdict(parent, change, lower_is_better, bound),
        "near_bound": None if bound is None else near_bound(parent, change, lower_is_better, bound),
        "parent_runs": list(parent),
        "change_runs": list(change),
    }


def more_failed(failed: Dict[str, int], attempted: Dict[str, int]) -> bool:
    """Whether the change failed a larger share of its attempted ops
    than the parent; a side that attempted nothing has share 0."""

    def share(side: str) -> float:
        return failed[side] / attempted[side] if attempted[side] else 0.0

    return share("change") > share("parent")


def bench_workload(parent_dir: Path, change_dir: Path, workload: str, seeds: Sequence[int], seconds: float,
                   better: Dict[str, str], bounds: Dict[str, float]) -> dict:
    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    first = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        first.append(order[0])
        for side in order:
            checkout = parent_dir if side == "parent" else change_dir
            result = run_once(checkout, workload, seed, seconds)
            runs[side].append(result)
            scope = result["metrics"]["scope_ref"]["value"]
            print(f"{workload} pair {i + 1}/{len(seeds)} seed {seed} {side}: scope_ref {scope:.4g}, "
                  f"correct {result['correct']}, failed {result['failed']}", file=sys.stderr, flush=True)
    metrics = {}
    for name, entry in runs["change"][0]["metrics"].items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        metrics[name] = {"unit": entry["unit"],
                         **summarize(values["parent"], values["change"], better.get(name, "lower") == "lower",
                                     bounds.get(name))}
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    attempted = {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()}
    worse_failures = more_failed(failed, attempted)
    if worse_failures:
        for m in metrics.values():
            m["clear_gain"] = False
    return {
        "seeds": list(seeds),
        "first_in_pair": first,
        "all_correct": all(r["correct"] for side in runs.values() for r in side),
        "failed_ops": failed,
        "attempted_ops": attempted,
        "more_failed_ops": worse_failures,
        "metrics": metrics,
    }


def main(argv: Sequence[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("parent_dir", type=Path)
    ap.add_argument("change_dir", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i runs seed + i")
    ap.add_argument("--workload", action="append", help="repeatable; default: every workload in BENCHMARK.json")
    ap.add_argument("--change", default="", help="one line describing the change, stored in the output")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    parent_dir, change_dir = args.parent_dir.resolve(), args.change_dir.resolve()
    spec = json.loads((change_dir / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.seed, args.seed + args.pairs))
    t0 = time.perf_counter()
    out = {
        "change": args.change,
        "protocol": {
            "command": COMMAND.format(workload="W", seed="S", seconds=args.seconds),
            "pairs_per_workload": args.pairs,
            "alternation": "parent runs first in even pairs, change first in odd pairs",
            "quartiles": "statistics.quantiles(runs, n=4, method='inclusive')",
            "pairs_won": "pairs where the change's value is better, by the metric's direction in BENCHMARK.json",
            "clear_gain": "pairs_won >= 9/10 of the pairs and the median moved the better way by more than parent_iqr,"
                          " and the change's failed/attempted share is not above the parent's (more_failed_ops)",
            "verdict": "regressed: the change's median is worse than the parent's by more than the bound times the"
                       " parent's median; unresolved: parent_iqr exceeds the bound times the parent's median and"
                       " not every change run beats every parent run; held: otherwise",
            "near_bound": "the change's median is worse than the parent's by more than half the bound times the"
                          " parent's median; repeat the run on fresh seeds",
            "machine": f"{os.cpu_count()}-core {platform.system()} {platform.machine()}, "
                       f"Python {platform.python_version()}",
        },
        "workloads": {},
    }
    for workload in workloads:
        out["workloads"][workload] = bench_workload(parent_dir, change_dir, workload, seeds, args.seconds, better,
                                                    bounds)
        out["protocol"]["wall_s"] = round(time.perf_counter() - t0, 1)
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    for workload, res in out["workloads"].items():
        for name, m in res["metrics"].items():
            rel = "" if m["median_change"] is None else f" ({m['median_change']:+.1%})"
            print(f"{workload:14s} {name:12s} {m['parent']['median']:.4g} -> {m['change']['median']:.4g}"
                  f"{rel}, won {m['pairs_won']}/{args.pairs}"
                  f"{', clear gain' if m['clear_gain'] else ''}"
                  f"{'' if m['verdict'] is None else ', ' + m['verdict']}"
                  f"{', near its bound' if m['near_bound'] else ''}")
    flagged = [(w, name) for w, res in out["workloads"].items() for name, m in res["metrics"].items() if m["near_bound"]]
    for workload, name in flagged:
        print(f"{workload} {name}: the change's median is worse by more than half the bound;"
              f" repeat the run on fresh seeds (--seed {args.seed + args.pairs} or later)")
    print(f"-> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
