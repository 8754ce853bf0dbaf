"""The workloads of the perihall benchmark.

``BENCHMARKED`` names the workloads of ``BENCHMARK.json``; every op of
them passes its check on the current engine. ``a3p2-pbw`` runs the same
ops and checks as ``a2p2-pbw`` on A3, where the End-dimension check
fails on 40 of its 700 ops because of a defect in ``ext1_dim`` (see
``README.md``); it stays runnable by name so the defect shows.

A workload fixes a scope (quiver, prime, object bound, how many objects
or triples), a list of ops on that scope, and the checks each op's
result must pass. Every pass builds a fresh engine; the seed only
shuffles the op order, so results never depend on it.

Frozen results are stored with each ``(class_id, shift)`` summand
written as ``(dimension vector, shift)``. Class ids follow discovery
order and a change that only reorders work may renumber them; on a
quiver of type A an indecomposable is determined by its dimension
vector, and :class:`Canon` refuses any scope where two classes share
one.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "perihall" / "__init__.py").is_file():
    raise ImportError(f"no perihall package under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from perihall.category import PeriodicContext  # noqa: E402
from perihall.checks import graded_triples  # noqa: E402
from perihall.gfp import FieldSpec  # noqa: E402
from perihall.hall import HallEngine, HallVector  # noqa: E402
from perihall.quiver import line_quiver  # noqa: E402
from perihall.reps import RepContext  # noqa: E402

REFERENCE_DIR = HERE / "reference"

ObjKey = Tuple[Tuple[int, int], ...]


class Canon:
    """Writes object keys and Hall vectors without class ids."""

    def __init__(self, pctx: PeriodicContext):
        self.pctx = pctx
        self._dims: Dict[int, Tuple[int, ...]] = {}
        self._owner: Dict[Tuple[int, ...], int] = {}

    def dims(self, cid: int) -> Tuple[int, ...]:
        d = self._dims.get(cid)
        if d is None:
            d = tuple(self.pctx.ctx.class_rep(cid).dims)
            owner = self._owner.setdefault(d, cid)
            if owner != cid:
                raise AssertionError(
                    f"classes {owner} and {cid} share dimension vector {d}: "
                    "frozen results need a quiver of type A"
                )
            self._dims[cid] = d
        return d

    def sort_key(self, key: ObjKey) -> Tuple:
        return tuple(sorted((self.dims(cid), s) for cid, s in key))

    def key(self, key: ObjKey) -> str:
        parts = [",".join(map(str, d)) + f"@{s}" for d, s in self.sort_key(key)]
        return "+".join(parts) or "0"

    def vector(self, v: HallVector) -> Dict[str, str]:
        out = {}
        for k, c in v.coeffs.items():
            a, b = c.as_pair()
            out[self.key(k)] = f"{a} {b}"
        return dict(sorted(out.items()))


class Session:
    """A fresh engine on a workload's scope; ``setup_s`` times the build
    of the contexts and engine plus ``enumerate_objects``."""

    def __init__(self, wl: "Workload"):
        t0 = time.perf_counter()
        self.pctx = PeriodicContext(RepContext(line_quiver(wl.n), FieldSpec(wl.p)))
        self.engine = HallEngine(self.pctx)
        found = self.pctx.enumerate_objects(wl.bound)
        self.setup_s = time.perf_counter() - t0
        self.canon = Canon(self.pctx)
        self.objects = sorted(found, key=lambda k: (self.pctx.total_dim(k), self.canon.sort_key(k)))


class Raised:
    """Stands in for the result of an op that raised."""

    def __init__(self, exc: BaseException):
        self.reason = f"raised:{type(exc).__name__}"


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # quiver A_n
    p: int
    bound: Tuple[int, ...]
    size: int  # ops are built from this many objects or triples
    smoke_size: int
    make_ops: Callable[["Session", int], List[Any]]
    run_op: Callable[["Session", Any], Any]
    check: Callable[["Session", Any, Any, Optional[dict]], Optional[str]]
    frozen: bool

    def reference(self) -> Optional[dict]:
        if not self.frozen:
            return None
        with open(REFERENCE_DIR / f"{self.name}.json") as fh:
            return json.load(fh)["results"]


# -- a2p2-products: every ordered pair of the first objects ------------


def _pairs(s: Session, size: int) -> List[Tuple[ObjKey, ObjKey]]:
    objs = s.objects[:size]
    return [(x, y) for x in objs for y in objs]


def _multiply(s: Session, op: Tuple[ObjKey, ObjKey]) -> HallVector:
    return s.engine.multiply(*op)


def _check_product(s: Session, op, result: HallVector, ref: Optional[dict]) -> Optional[str]:
    x, y = op
    label = f"{s.canon.key(x)} * {s.canon.key(y)}"
    if ref is not None and s.canon.vector(result) != ref[label]:
        return "reference"
    ys = s.pctx.shift_key(y, -1)
    if sum(s.pctx.fiber_counts(ys, x).values()) != s.pctx.q ** s.pctx.hom_dim(ys, x):
        return "fiber_total"
    return None


# -- a1p3-assoc: (x.y).z == x.(y.z) over graded triples ----------------


def _triples(s: Session, size: int) -> List[Tuple[ObjKey, ObjKey, ObjKey]]:
    objs = s.objects
    dims = [s.pctx.total_dim(k) for k in objs]
    return [(objs[i], objs[j], objs[k]) for i, j, k in graded_triples(dims, size)]


def _associate(s: Session, op) -> Tuple[HallVector, bool]:
    e = s.engine
    x, y, z = op
    left = e.multiply_vectors(e.multiply(x, y), e.vector(z))
    right = e.multiply_vectors(e.vector(x), e.multiply(y, z))
    return left, left == right


def _check_assoc(s: Session, op, result, ref: Optional[dict]) -> Optional[str]:
    left, same = result
    if not same:
        return "sides"
    label = " * ".join(s.canon.key(k) for k in op)
    if ref is not None and s.canon.vector(left) != ref[label]:
        return "reference"
    return None


# -- a2p2-pbw, a3p2-pbw: straighten and evaluate back ------------------


def _objects(s: Session, size: int) -> List[ObjKey]:
    return s.objects[:size]


def _round_trip(s: Session, x: ObjKey) -> HallVector:
    return s.engine.pbw_expand(x).evaluate(s.engine)


def _check_round_trip(s: Session, x: ObjKey, result: HallVector, ref: Optional[dict]) -> Optional[str]:
    if result != s.engine.vector(x):
        return "round_trip"
    if s.pctx.hom_dim(x, x) != s.pctx.hom_space(x, x).dim:
        return "end_dim"
    return None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("a2p2-products", 2, 2, (1, 1), 12, 5, _pairs, _multiply, _check_product, True),
        Workload("a1p3-assoc", 1, 3, (1,), 192, 24, _triples, _associate, _check_assoc, True),
        Workload("a2p2-pbw", 2, 2, (2, 2), 160, 30, _objects, _round_trip, _check_round_trip, False),
        Workload("a3p2-pbw", 3, 2, (1, 1, 1), 700, 30, _objects, _round_trip, _check_round_trip, False),
    )
}

BENCHMARKED = ("a2p2-products", "a1p3-assoc", "a2p2-pbw")


def run_ops(s: Session, wl: Workload, ops: Sequence[Any], before_op=None) -> Tuple[List[Any], List[float], float]:
    """Run each op once, in order, never stopping on a failure. Returns
    the results, per-op latencies in seconds and the loop's wall time."""
    results: List[Any] = []
    lat: List[float] = []
    perf = time.perf_counter
    start = perf()
    for i, op in enumerate(ops):
        if before_op is not None:
            before_op(i)
        t0 = perf()
        try:
            res = wl.run_op(s, op)
        except Exception as exc:  # a failing op is counted, never fatal
            res = Raised(exc)
        lat.append(perf() - t0)
        results.append(res)
    return results, lat, perf() - start


def check_all(s: Session, wl: Workload, ops: Sequence[Any], results: Sequence[Any], ref: Optional[dict]) -> Counter:
    """Failure reasons and their counts, over all ops."""
    reasons: Counter = Counter()
    for op, res in zip(ops, results):
        if isinstance(res, Raised):
            why = res.reason
        else:
            try:
                why = wl.check(s, op, res, ref)
            except Exception as exc:  # a check that raises fails its op
                why = Raised(exc).reason
        if why is not None:
            reasons[why] += 1
    return reasons
