"""Write an exactness digest of the standard comparison scope.

    python3 tools/exactness.py OUT.json

The standard comparison scope (ROADMAP.md) is every ordered pair of
the first objects of six scopes: A1 at p=2 and p=3 (all 8 objects of
bound (1,)), A2 at p=2 (first 30 of bound (1,1)), A2 at p=3 (first 20),
A3 at p=2 (first 25 of bound (1,1,1)) and A2 at p=2 (first 40 of bound
(2,2)), 3653 products in all. For each scope the digest holds, on a
fresh engine:

- the whole ``enumerate_objects`` list, in its order;
- every product, its coefficients in the vector's own order;
- the cone-fiber dict behind each product, ``fiber_counts(y[-1], x)``,
  in insertion order;
- the automorphism order of every object and every product term.

Each ``(class_id, shift)`` summand is written as ``dims@shift`` by the
benchmark's ``Canon`` (``perfbench/workloads.py``), so two versions of
the engine that number classes differently give the same file when
their results agree. On a quiver of type A an indecomposable is fixed by
its dimension vector; ``Canon`` refuses a scope where two classes named
in its keys share one. Comparing the digests of two commits
(``cmp a.json b.json``) checks that a change kept every result.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

from workloads import Canon  # noqa: E402  (puts the repo's src/ on the path)

from perihall.category import PeriodicContext  # noqa: E402
from perihall.gfp import FieldSpec  # noqa: E402
from perihall.hall import HallEngine  # noqa: E402
from perihall.quiver import line_quiver  # noqa: E402
from perihall.reps import RepContext  # noqa: E402

# (name, n for the quiver A_n, p, bound, number of objects)
SCOPES: Tuple[Tuple[str, int, int, Tuple[int, ...], int], ...] = (
    ("A1 p=2", 1, 2, (1,), 8),
    ("A1 p=3", 1, 3, (1,), 8),
    ("A2 p=2", 2, 2, (1, 1), 30),
    ("A2 p=3", 2, 3, (1, 1), 20),
    ("A3 p=2", 3, 2, (1, 1, 1), 25),
    ("A2 p=2 bound (2,2)", 2, 2, (2, 2), 40),
)


def digest_scope(n: int, p: int, bound: Sequence[int], count: int) -> dict:
    """The digest of every ordered pair of the first ``count`` objects of
    ``bound`` on the quiver A_n over F_p."""
    pctx = PeriodicContext(RepContext(line_quiver(n), FieldSpec(p)))
    engine = HallEngine(pctx)
    objects = pctx.enumerate_objects(bound)
    canon = Canon(pctx)
    products: List[list] = []
    fibers: List[list] = []
    auts: Dict[str, int] = {}
    for x in objects[:count]:
        auts[canon.key(x)] = pctx.aut_order(x)
    for x in objects[:count]:
        for y in objects[:count]:
            vec = engine.multiply(x, y)
            label = f"{canon.key(x)} * {canon.key(y)}"
            products.append([label, [[canon.key(l), "%s %s" % c.as_pair()] for l, c in vec.coeffs.items()]])
            fiber = pctx.fiber_counts(pctx.shift_key(y, -1), x)
            fibers.append([label, [[canon.key(l), k] for l, k in fiber.items()]])
            for l in vec.coeffs:
                auts.setdefault(canon.key(l), pctx.aut_order(l))
    return {
        "objects": [canon.key(k) for k in objects],
        "products": products,
        "fibers": fibers,
        "aut_orders": auts,
    }


def main(argv: Sequence[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python3 tools/exactness.py OUT.json", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    out = {}
    for name, n, p, bound, count in SCOPES:
        scope = digest_scope(n, p, bound, count)
        out[name] = scope
        blob = json.dumps(scope, sort_keys=True).encode()
        coeffs = sum(len(terms) for _, terms in scope["products"])
        print(f"{name}: {len(scope['products'])} products, {coeffs} coefficients, "
              f"sha256 {hashlib.sha256(blob).hexdigest()[:16]}")
    with open(argv[0], "w") as fh:
        json.dump(out, fh, indent=0)
        fh.write("\n")
    total = sum(len(s["products"]) for s in out.values())
    print(f"{total} products in {time.perf_counter() - t0:.1f} s -> {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
