"""Write the frozen results the benchmark checks against.

    python3 perfbench/freeze.py

Runs every op of each workload that has a reference, in scope order,
on a fresh engine, and stores each result with class ids replaced by
dimension vectors (see ``workloads.Canon``). A frozen result is the
contract: regenerate only to add a scope, never to make a check pass.
"""

from __future__ import annotations

import json

from workloads import REFERENCE_DIR, WORKLOADS, Raised, Session, run_ops


def freeze(name: str) -> None:
    wl = WORKLOADS[name]
    s = Session(wl)
    ops = wl.make_ops(s, wl.size)
    results, _, _ = run_ops(s, wl, ops)
    frozen = {}
    for op, res in zip(ops, results):
        why = res.reason if isinstance(res, Raised) else wl.check(s, op, res, None)
        if why is not None:
            raise RuntimeError(f"{name}: op {op} failed: {why}")
        vector = res[0] if isinstance(res, tuple) else res  # a1p3-assoc gives (left side, sides equal)
        label = " * ".join(s.canon.key(k) for k in op)
        frozen[label] = s.canon.vector(vector)
    scope = {"quiver": f"A{wl.n}", "p": wl.p, "bound": list(wl.bound), "size": wl.size, "ops": len(ops)}
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(REFERENCE_DIR / f"{name}.json", "w") as fh:
        json.dump({"workload": name, "scope": scope, "results": frozen}, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    for name, wl in WORKLOADS.items():
        if wl.frozen:
            freeze(name)
