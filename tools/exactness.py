"""Write an exactness digest of the standard comparison scope.

    python3 tools/exactness.py OUT.json
    python3 tools/exactness.py --hard OUT.json

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
sum to q^hom_dim(y[-1], x). Each scope's line also prints the largest
hom_dim(y[-1], x) among its fibers, read off that mass: how far the
digest reaches into the line walk that builds the cones.

The standard scope reaches hom_dim 6 at most. ``--hard`` writes the
digest of the hard scope alone, ``HARD``: a fixed list of ordered pairs
(x, y) of A2 at p=3 of bound (2,2) at t = 3, with hom_dim(y[-1], x)
from 8 to 11 and an active part of multiplicity 2 in each, all within
the enumeration cap; they reach the largest rank forms of the line walk
in about 8 s on a 2-core x86_64 machine. The pairs are written as ``Canon`` keys, so the scope
depends on neither a random draw nor class numbering, and the digest
has the same layout on one fresh engine: the operands, sorted by
``Canon`` key, then per pair the product, the fiber and the aut orders.

Each ``(class_id, shift)`` summand is written as ``dims@shift`` by the
benchmark's ``Canon`` (``perfbench/workloads.py``), and the file is
written with sorted keys, so two versions of the engine that number
classes differently or walk in another order give the same file when
their results agree. On a quiver of type A an indecomposable is fixed by
its dimension vector; ``Canon`` refuses a scope where two classes named
in its keys share one. Comparing the digests of two commits
(``cmp a.json b.json``) checks that a change kept every result.

The tool digests the engine of the checkout it sits in: it loads
``perihall`` from that checkout's src/, whatever ``PYTHONPATH`` says, so
to digest another commit, copy the tool into that commit's tools/ and
run it there. It prints the ``perihall`` it loaded on stderr, and exits
nonzero, naming both, when ``PYTHONPATH`` names another ``perihall``
package, which it would not digest.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

from workloads import Canon  # noqa: E402  (puts the repo's src/ on the path)

import perihall  # noqa: E402
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

# (name, n for the quiver A_n, p, period, ordered pairs (x, y) as Canon
# keys), the pairs by hom_dim(y[-1], x): four at 8, three each at 9, 10
# and 11
HARD: Tuple[str, int, int, int, Tuple[Tuple[str, str], ...]] = (
    "A2 p=3 bound (2,2) hard", 2, 3, 3, (
        ("0,1@0+0,1@1+0,1@2+1,0@1+1,0@1+1,0@2+1,1@2", "0,1@0+0,1@0+0,1@1+1,0@0+1,0@1"),
        ("0,1@0+0,1@1+0,1@2+0,1@2+1,0@0+1,0@1+1,0@2+1,1@0", "1,0@0+1,0@1+1,0@1+1,1@2+1,1@2"),
        ("0,1@0+0,1@1+1,0@0+1,0@2+1,1@0", "0,1@0+0,1@0+0,1@2+0,1@2+1,0@0+1,0@1+1,0@2+1,1@1"),
        ("0,1@0+0,1@0+0,1@1+0,1@2+0,1@2+1,0@1+1,0@2+1,0@2", "0,1@1+1,0@1+1,1@0+1,1@0+1,1@1+1,1@2"),
        ("0,1@2+1,0@1+1,0@2+1,0@2+1,1@0+1,1@0", "0,1@0+0,1@0+0,1@1+0,1@1+0,1@2+1,0@1+1,0@2+1,1@2"),
        ("0,1@1+0,1@2+0,1@2+1,0@0+1,0@2+1,1@0+1,1@1", "0,1@0+0,1@0+0,1@1+1,0@2+1,0@2"),
        ("0,1@0+1,0@0+1,0@0+1,0@1+1,0@2+1,0@2+1,1@1", "0,1@2+1,0@0+1,0@1+1,0@2+1,1@0"),
        ("0,1@0+0,1@0+0,1@1+1,1@2+1,1@2", "0,1@0+0,1@1+0,1@2+1,0@0+1,0@1+1,0@2+1,1@0+1,1@1"),
        ("0,1@1+0,1@1+0,1@2+1,0@1+1,0@2+1,0@2+1,1@0", "0,1@1+0,1@2+0,1@2+1,0@0+1,1@0+1,1@1"),
        ("0,1@2+0,1@2+1,0@1+1,1@0+1,1@0", "0,1@0+0,1@0+0,1@2+1,0@2+1,0@2"),
        ("0,1@0+0,1@1+0,1@1+0,1@2+1,0@1+1,0@2+1,1@2", "0,1@1+0,1@2+0,1@2+1,0@0+1,0@2+1,0@2"),
        ("0,1@0+0,1@0+0,1@1+1,0@0+1,0@0+1,0@1+1,1@2+1,1@2", "0,1@2+0,1@2+1,0@0+1,0@2+1,1@0+1,1@1+1,1@1"),
        ("0,1@0+0,1@1+0,1@1+0,1@2+0,1@2+1,0@0+1,0@1+1,0@1+1,0@2+1,1@0", "0,1@1+0,1@2+0,1@2+1,0@1+1,1@1"),
    ),
)


def digest_scope(
    n: int, p: int, bound: Sequence[int], count: int, t: int = PERIOD, listed: Optional[int] = None
) -> dict:
    """The digest of every ordered pair of the first ``count`` objects of
    ``bound`` on the quiver A_n over F_p, at the period ``t``. The digest
    lists the first ``listed`` objects of the graded listing, or all of
    them for None, and ``listed`` is at least ``count``."""
    pctx = PeriodicContext(RepContext(line_quiver(n), FieldSpec(p)), t)
    objects = list(itertools.islice(pctx.objects(bound), listed))
    ops = objects[:count]
    return digest_pairs(pctx, objects, [(x, y) for x in ops for y in ops])


def digest_hard(n: int, p: int, t: int, pairs: Sequence[Tuple[str, str]]) -> dict:
    """The digest of the ordered pairs of ``Canon`` keys on the quiver A_n
    over F_p, at the period ``t``, listing their operands sorted by
    ``Canon`` key."""
    pctx = PeriodicContext(RepContext(line_quiver(n), FieldSpec(p)), t)
    ids = {pctx.ctx.class_rep(cid).dims: cid for cid in pctx.ctx.indecomposable_ids()}

    def key(text: str) -> Tuple[Tuple[int, int], ...]:
        parts = [part.split("@") for part in text.split("+")] if text != "0" else []
        return tuple(sorted((ids[tuple(map(int, dims.split(",")))], int(s)) for dims, s in parts))

    keyed = [(key(x), key(y)) for x, y in pairs]
    canon = Canon(pctx)
    objects = sorted({k for pair in keyed for k in pair}, key=canon.sort_key)
    return digest_pairs(pctx, objects, keyed)


def digest_pairs(pctx: PeriodicContext, objects: Sequence[Tuple], pairs: Sequence[Tuple[Tuple, Tuple]]) -> dict:
    """The digest of the ordered pairs (x, y) on one fresh engine over
    ``pctx``, listing ``objects``: the aut order of every operand, then
    per pair the product and the fiber of y[-1] -> x, both sorted by
    ``Canon`` key, and the aut order of every product term. Exits
    naming the pair when a fiber's mass is not q^hom_dim(y[-1], x)."""
    engine = HallEngine(pctx)
    canon = Canon(pctx)
    products: List[list] = []
    fibers: List[list] = []
    auts: Dict[str, int] = {}
    for pair in pairs:
        for x in pair:
            auts.setdefault(canon.key(x), pctx.aut_order(x))
    for x, y in pairs:
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


def pythonpath_package() -> Optional[Path]:
    """The directory of the first ``perihall`` package on ``PYTHONPATH``,
    or None when it names none."""
    for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep):
        if entry and (Path(entry) / "perihall" / "__init__.py").is_file():
            return (Path(entry) / "perihall").resolve()
    return None


def main(argv: Sequence[str]) -> int:
    hard = argv[:1] == ["--hard"]
    if len(argv) != 1 + hard:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python3 tools/exactness.py [--hard] OUT.json", file=sys.stderr)
        return 2
    loaded = Path(perihall.__file__).resolve()
    print(f"engine: {loaded}", file=sys.stderr)
    named = pythonpath_package()
    if named is not None and named != loaded.parent:
        print(f"PYTHONPATH names the perihall package at {named}, but this tool digests the one at "
              f"{loaded.parent}; copy the tool into that checkout's tools/ and run it there", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    out = {}
    if hard:
        name, n, p, t, pairs = HARD
        runs = [(name, p, functools.partial(digest_hard, n, p, t, pairs))]
    else:
        runs = [(name, args[1], functools.partial(digest_scope, *args)) for name, *args in SCOPES]
    for name, p, digest in runs:
        scope = digest()
        out[name] = scope
        blob = json.dumps(scope, sort_keys=True).encode()
        coeffs = sum(len(terms) for _, terms in scope["products"])
        # every fiber's mass is a power of p, checked by digest_pairs
        mass = max(sum(k for _, k in terms) for _, terms in scope["fibers"])
        reach = next(d for d in itertools.count() if p**d >= mass)
        print(f"{name}: {len(scope['products'])} products, {coeffs} coefficients, "
              f"max hom_dim(y[-1], x) {reach}, sha256 {hashlib.sha256(blob).hexdigest()[:16]}")
    with open(argv[-1], "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    total = sum(len(s["products"]) for s in out.values())
    print(f"{total} products in {time.perf_counter() - t0:.1f} s -> {argv[-1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
