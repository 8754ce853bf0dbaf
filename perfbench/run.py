"""Benchmark of the perihall Hall engine.

    python3 perfbench/run.py --workload a2p2-products --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1          # each benchmarked workload, one process each
    python3 perfbench/run.py --smoke

Run from the repository root; the package is imported from ``src``.
With ``--trace 0`` the run makes identical passes until ``--seconds``
have gone, at least three. A pass sets the scope up a fixed number of
times, then runs every op once on a fresh engine, in the order the seed
gives. Each set-up and op is timed together with a fixed reference loop
run just before it, and taken at the machine's full speed (see
``timed_run``); the run prints the end-to-end metrics. With
``--trace 1`` it runs one untraced pass and one traced pass in the same
order and prints the per-layer metrics, with the end-to-end metrics
each should move; the spans go to ``.perfbench_out/``. Every op's
result is checked outside its timer.
The last line of the output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``."""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Tuple

from metrics import END_TO_END, PER_LAYER, UNITS
from tracer import Tracer
from workloads import BENCHMARKED, WORKLOADS, Session, Workload, check_all, run_ops

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"

MIN_PASSES = 3  # passes per run, at least
SETUPS_PER_PASS = 5


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes: the machine's speed at
    this moment."""
    t0 = time.perf_counter()
    d: Dict[int, int] = {}
    for i in range(5000):
        d[i & 255] = d.get(i & 255, 0) + i * i % 7
    return time.perf_counter() - t0


class Pass:
    """One fresh engine running every op of the scope once, in an order
    drawn from the seed and the pass number. Untraced, the reference
    loop runs before each op, outside the op's timer."""

    def __init__(self, wl: Workload, seed: int, size: int, tracer: Tracer = None, number: int = 0):
        gc.collect()
        self.speeds: List[float] = []  # reference-loop seconds, one per op
        before_op = tracer.set_op if tracer else lambda i: self.speeds.append(reference_loop())
        with tracer.installed() if tracer else nullcontext():
            self.session = Session(wl)
            self.ops = wl.make_ops(self.session, size)
            random.Random(f"{wl.name}/{seed}/{number}").shuffle(self.ops)
            self.results, self.latencies, _ = run_ops(self.session, wl, self.ops, before_op)
        self.failures = check_all(self.session, wl, self.ops, self.results, wl.reference())

    def costs(self) -> List[float]:
        """Each op's time in reference loops."""
        return [t / ref for t, ref in zip(self.latencies, self.speeds)]


def _percentile(sorted_values: List[float], share: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * share // 100))
    return sorted_values[int(rank) - 1]


def timed_run(wl: Workload, seed: int, seconds: float, size: int) -> Tuple[Dict[str, float], int, Dict[str, int], List[str]]:
    """Passes until ``seconds`` have gone, at least MIN_PASSES; each
    sets the scope up SETUPS_PER_PASS times, then runs every op on a
    fresh engine, each pass in another order drawn from the seed.

    A shared machine runs the same work at speeds up to twice apart,
    changing within seconds and sometimes slow for a whole run. So each
    op is measured against the reference loop run just before it: its
    cost is its time divided by the loop's. Op costs are pooled over the
    passes, so which op pays for a product shared by several no longer
    depends on one order. Set-up times are turned back into seconds at
    the fastest reference loop of the run."""
    setups: List[float] = []
    passes: List[List[float]] = []
    speeds: List[float] = []
    failures: Counter = Counter()
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        for _ in range(SETUPS_PER_PASS):
            speeds.append(reference_loop())
            setups.append(Session(wl).setup_s / speeds[-1])
        p = Pass(wl, seed, size, number=len(passes))
        passes.append(p.costs())
        speeds += p.speeds
        failures.update(p.failures)
        del p  # one engine alive at a time, so peak memory is one pass's
    pooled = sorted(c for costs in passes for c in costs)
    n = len(pooled)
    p90 = _percentile(pooled, 90)
    scope = statistics.median(map(sum, passes))
    full_speed = min(speeds)
    metrics = {
        "setup_s": full_speed * statistics.median(setups),
        "scope_ref": scope,
        "op_p50_ref": _percentile(pooled, 50),
        "op_p90_ref": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"passes: {len(passes)} of {len(passes[0])} ops",
        f"reference loop: fastest {1000.0 * full_speed:.4f} ms, median {1000.0 * statistics.median(speeds):.4f} ms, {len(speeds)} runs",
        f"scope_ref: {scope * full_speed:.3f} s at the fastest reference loop",
        f"setup_s: median of {len(setups)} set-ups, at the fastest reference loop",
        f"op_p90_ref: {sum(1 for c in pooled if c > p90)} of {n} op runs beyond it",
    ]
    return metrics, n, failures, notes


def traced_run(wl: Workload, seed: int, size: int) -> Tuple[Dict[str, float], int, Dict[str, int], List[str]]:
    plain = Pass(wl, seed, size)
    tracer = Tracer()
    traced = Pass(wl, seed, size, tracer)
    failures = plain.failures + traced.failures
    metrics = tracer.layer_metrics(sum(traced.latencies), sum(plain.latencies))
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{wl.name}-seed{seed}.jsonl.gz"
    tracer.write(path)
    notes = [f"spans: {len(tracer.spans)} written to {path.relative_to(OUT_DIR.parent)}"]
    notes += [f"absent: {name}" for name in tracer.absent]
    return metrics, len(plain.ops) + len(traced.ops), failures, notes


def report(wl: Workload, trace: bool, seed: int, seconds: float, size: int) -> dict:
    """Run one workload, print a readable report and return the result
    object."""
    if trace:
        metrics, attempted, failures, notes = traced_run(wl, seed, size)
        names = [row[0] for row in PER_LAYER]
        moves = {name: f"  -> {', '.join(to)} ({', '.join(on)})" for name, _, _, to, on in PER_LAYER if to}
    else:
        metrics, attempted, failures, notes = timed_run(wl, seed, seconds, size)
        names = [row[0] for row in END_TO_END]
        moves = {}
    failed = sum(failures.values())
    print(f"workload {wl.name} seed {seed} trace {int(trace)}")
    for name in names:
        print(f"  {name:40s} {metrics[name]:.6g} {UNITS[name]}{moves.get(name, '')}")
    print(f"  {'failed_frac':40s} {failed / attempted:.6g} ({failed}/{attempted})")
    for why, n in sorted(failures.items()):
        print(f"    failed check {why}: {n}")
    for note in notes:
        print(f"  {note}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]} for name in names},
    }


def smoke() -> int:
    """Every workload once on a tiny scope, both modes: every metric is
    printed with its unit."""
    problems = []
    for wl in WORKLOADS.values():
        for trace in (False, True):
            result = report(wl, trace, seed=0, seconds=0, size=wl.smoke_size)
            expected = [row[:2] for row in (PER_LAYER if trace else END_TO_END)]
            got = [(name, m.get("unit")) for name, m in result["metrics"].items()]
            if got != expected:
                problems.append(f"{wl.name} trace {int(trace)}: metrics {got} != {expected}")
    for p in problems:
        print(f"SMOKE FAIL {p}")
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), help="default: each of " + ", ".join(BENCHMARKED))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run every workload once on a tiny scope")
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        # each benchmarked workload in a fresh process, so no cache carries over
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
            ).returncode
            for name in BENCHMARKED
        ]
        return max(codes)
    wl = WORKLOADS[args.workload]
    result = report(wl, bool(args.trace), args.seed, args.seconds, wl.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
