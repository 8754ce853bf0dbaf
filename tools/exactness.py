"""Write an exactness digest of the standard comparison scope.

    python3 tools/exactness.py OUT.json

The standard comparison scope (ROADMAP.md) is every ordered pair of
the first objects of eight scopes. Six are at the period t = 3: A1 at
p=2 and p=3 (all 8 objects of bound (1,)), A2 at p=2 (first 30 of bound
(1,1)), A2 at p=3 (first 20), A3 at p=2 (first 25 of bound (1,1,1)) and
A2 at p=2 (first 40 of bound (2,2)). Two are at longer periods: A2 at
p=3 (first 24 of bound (1,1)) at t = 5 and A2 at p=2 (first 30 of bound
(1,1)) at t = 7. That is 5129 products in all. For each scope the
digest holds, on a fresh engine:

- the object listing, in its order: the whole ``enumerate_objects``
  list at t = 3, and only the objects multiplied at t = 5 and 7, where
  the whole list has 3125 and 78125 objects;
- every product, its coefficients sorted by ``Canon`` key;
- the cone-fiber dict behind each product, ``fiber_counts(y[-1], x)``,
  sorted by ``Canon`` key;
- the automorphism order of every object and every product term.

The tool exits nonzero, naming the pair, when a fiber's counts do not
sum to q^hom_dim(y[-1], x).

Each ``(class_id, shift)`` summand is written as ``dims@shift`` by the
benchmark's ``Canon`` (``perfbench/workloads.py``), and the file is
written with sorted keys, so two versions of the engine that number
classes differently or walk in another order give the same file when
their results agree. On a quiver of type A an indecomposable is fixed by
its dimension vector; ``Canon`` refuses a scope where two classes named
in its keys share one. Comparing the digests of two commits
(``cmp a.json b.json``) checks that a change kept every result.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

from workloads import Canon  # noqa: E402  (puts the repo's src/ on the path)

from perihall.category import PERIOD, PeriodicContext  # noqa: E402
from perihall.gfp import FieldSpec  # noqa: E402
from perihall.hall import HallEngine  # noqa: E402
from perihall.quiver import line_quiver  # noqa: E402
from perihall.reps import RepContext  # noqa: E402

# (name, n for the quiver A_n, p, bound, number of objects, period,
# number of objects listed in the digest, None for all)
SCOPES: Tuple[Tuple[str, int, int, Tuple[int, ...], int, int, Optional[int]], ...] = (
    ("A1 p=2", 1, 2, (1,), 8, 3, None),
    ("A1 p=3", 1, 3, (1,), 8, 3, None),
    ("A2 p=2", 2, 2, (1, 1), 30, 3, None),
    ("A2 p=3", 2, 3, (1, 1), 20, 3, None),
    ("A3 p=2", 3, 2, (1, 1, 1), 25, 3, None),
    ("A2 p=2 bound (2,2)", 2, 2, (2, 2), 40, 3, None),
    ("A2 p=3 t=5", 2, 3, (1, 1), 24, 5, 24),
    ("A2 p=2 t=7", 2, 2, (1, 1), 30, 7, 30),
)


def digest_scope(
    n: int, p: int, bound: Sequence[int], count: int, t: int = PERIOD, listed: Optional[int] = None
) -> dict:
    """The digest of every ordered pair of the first ``count`` objects of
    ``bound`` on the quiver A_n over F_p, at the period ``t``. The digest
    lists the first ``listed`` objects of the graded listing, or all of
    them for None, and ``listed`` is at least ``count``."""
    pctx = PeriodicContext(RepContext(line_quiver(n), FieldSpec(p)), t)
    engine = HallEngine(pctx)
    objects = list(itertools.islice(pctx.objects(bound), listed))
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
            products.append([label, sorted([canon.key(l), "%s %s" % c.as_pair()] for l, c in vec.coeffs.items())])
            ys = pctx.shift_key(y, -1)
            fiber = pctx.fiber_counts(ys, x)
            mass, want = sum(fiber.values()), pctx.q ** pctx.hom_dim(ys, x)
            if mass != want:
                raise SystemExit(f"fiber of {label} has {mass} morphisms, not q^hom_dim(y[-1], x) = {want}")
            fibers.append([label, sorted([canon.key(l), k] for l, k in fiber.items())])
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
    for name, *scope_args in SCOPES:
        scope = digest_scope(*scope_args)
        out[name] = scope
        blob = json.dumps(scope, sort_keys=True).encode()
        coeffs = sum(len(terms) for _, terms in scope["products"])
        print(f"{name}: {len(scope['products'])} products, {coeffs} coefficients, "
              f"sha256 {hashlib.sha256(blob).hexdigest()[:16]}")
    with open(argv[0], "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    total = sum(len(s["products"]) for s in out.values())
    print(f"{total} products in {time.perf_counter() - t0:.1f} s -> {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
