"""Outside-in tracing of the perihall layers.

The tracer wraps functions of ``hall``, ``category``, ``periodic``,
``reps``, ``gfp`` and ``sqrtq`` from outside the package, where they
are looked up: a method on its class, a module function in every
``perihall`` module that holds it under a name (``category`` imports
``mapping_cone`` and friends by name, ``gfp`` methods call
``_rref_in_place`` through module globals). A target that no longer
exists is reported as absent and skipped.

Layer-boundary calls become spans (name, start, end, parent span, op
id), kept in memory and written out at the end. The millions of
``gfp`` and ``sqrtq`` calls only update a count and a self time per
counter. A span's self time is its duration minus the time its child
spans and counted calls cover; ``.s`` metrics add up the outermost call
of each name only, so recursion is not counted twice.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

# (module, qualified name) of each function that opens a span; the
# span name is "<module>.<function name>".
SPANS = (
    ("hall", "HallEngine.multiply"),
    ("hall", "HallEngine.multiply_vectors"),
    ("hall", "HallEngine.hall_number"),
    ("hall", "HallEngine.hall_number_via"),
    ("hall", "HallEngine.pbw_expand"),
    ("hall", "PBWExpression.evaluate"),
    ("category", "PeriodicContext.enumerate_objects"),
    ("category", "PeriodicContext.fiber_counts"),
    ("category", "PeriodicContext.cone_key"),
    ("category", "PeriodicContext.normalize"),
    ("category", "PeriodicContext.hom_space"),
    ("category", "PeriodicContext.block_space"),
    ("category", "PeriodicContext.realize"),
    ("category", "PeriodicContext.hom_dim"),
    ("category", "PeriodicContext.aut_order"),
    ("category", "BlockHomSpace.rep_map"),
    ("periodic", "mapping_cone"),
    ("periodic", "normal_pieces"),
    ("periodic", "chain_hom_space"),
    ("periodic", "direct_sum_complexes"),
    ("periodic", "wrap_module"),
    ("reps", "RepContext.kernel"),
    ("reps", "RepContext.cokernel"),
    ("reps", "RepContext.image"),
    ("reps", "RepContext.hom_basis"),
    ("reps", "RepContext.class_id"),
    ("reps", "RepContext.decompose"),
    ("reps", "RepContext.ext1_dim"),
    ("reps", "RepContext.proj_resolution"),
)

_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__")

# counter name -> targets; calls and self time only, no spans
COUNTERS = {
    "gfp.matrix_new": (("gfp", "MatrixFp.__init__"),),
    "gfp.mul": (("gfp", "MatrixFp.mul"), ("gfp", "MatrixFp.__matmul__")),
    "gfp.rref": (("gfp", "_rref_in_place"),),
    "sqrtq.ops": tuple(("sqrtq", f"HallValue.{m}") for m in _ARITH),
}

_INHERITED = object()  # marks a patched attribute the owner did not define itself

# spans whose distinct argument pairs are counted
_DISTINCT = {"hall.multiply", "category.fiber_counts", "category.hom_space"}


def _span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


def _locate(module: str, qualname: str) -> Tuple[Any, List[Tuple[Any, str]]]:
    """The target function and every (owner, attribute) through which it
    is looked up; (None, []) when the target does not exist."""
    try:
        mod = importlib.import_module(f"perihall.{module}")
    except ImportError:
        return None, []
    *path, attr = qualname.split(".")
    owner: Any = mod
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, []
    fn = getattr(owner, attr, None)
    if not callable(fn):
        return None, []
    if path:
        return fn, [(owner, attr)]
    holders = []
    for name, m in list(sys.modules.items()):
        if name == "perihall" or name.startswith("perihall."):
            holders += [(m, a) for a, v in list(vars(m).items()) if v is fn]
    return fn, holders


class Tracer:
    """Spans and counters of one traced pass; see the module docstring."""

    def __init__(self, spans: Sequence[Tuple[str, str]] = SPANS, counters: Dict[str, Sequence[Tuple[str, str]]] = COUNTERS):
        self.span_targets = tuple(spans)
        self.counter_targets = dict(counters)
        self.names: List[str] = []
        self.stats: Dict[str, List[float]] = {}  # name -> [calls, outermost seconds, self seconds]
        self.distinct: Dict[str, set] = {n: set() for n in _DISTINCT}
        self.enum_sizes: List[int] = []
        self.spans: List[Tuple[int, int, float, float, int, int]] = []
        self.absent: List[str] = []
        self.op_id = -1  # -1 while setting up
        self._next_id = 0
        self._span_stack = [-1]
        self._child = [0.0]  # time covered by children, one entry per open call
        self._depth: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    def set_op(self, op_id: int) -> None:
        self.op_id = op_id

    # -- wrappers -----------------------------------------------------

    def _counter(self, fn: Callable, stat: List[float]) -> Callable:
        perf = time.perf_counter
        child = self._child

        def counted(*args, **kwargs):
            child.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf() - t0
                stat[0] += 1
                stat[2] += d - child.pop()
                child[-1] += d

        return counted

    def _span(self, fn: Callable, name: str) -> Callable:
        perf = time.perf_counter
        child = self._child
        stack = self._span_stack
        spans = self.spans
        depth = self._depth
        stat = self.stats[name]
        idx = self.names.index(name)
        seen = self.distinct.get(name)
        tracer = self

        def spanned(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            child.append(0.0)
            level = depth.get(name, 0)
            depth[name] = level + 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                d = t1 - t0
                stack.pop()
                stat[0] += 1
                stat[2] += d - child.pop()
                child[-1] += d
                depth[name] = level
                if not level:
                    stat[1] += d
                spans.append((sid, idx, t0, t1, parent, tracer.op_id))
            if seen is not None:
                key = args[1:3]
                if key not in seen:
                    seen.add(key)
                    if name == "category.fiber_counts":
                        tracer.enum_sizes.append(sum(result.values()))
            return result

        return spanned

    # -- installation -------------------------------------------------

    def _patch(self, module: str, qualname: str, make: Callable[[Callable], Callable]) -> bool:
        fn, holders = _locate(module, qualname)
        if fn is None:
            return False
        wrapper = make(fn)
        for owner, attr in holders:
            self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
            setattr(owner, attr, wrapper)
        return True

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        try:
            for module, qualname in self.span_targets:
                name = _span_name(module, qualname)
                if name not in self.stats:
                    self.names.append(name)
                    self.stats[name] = [0, 0.0, 0.0]
                if not self._patch(module, qualname, lambda fn, n=name: self._span(fn, n)):
                    self.absent.append(f"{module}.{qualname}")
            for name, targets in self.counter_targets.items():
                stat = self.stats.setdefault(name, [0, 0.0, 0.0])
                for module, qualname in targets:
                    if not self._patch(module, qualname, lambda fn, st=stat: self._counter(fn, st)):
                        self.absent.append(f"{module}.{qualname}")
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                if original is _INHERITED:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)
            self._patches.clear()

    # -- results ------------------------------------------------------

    def layer_metrics(self, ops_s: float, untraced_ops_s: float) -> Dict[str, float]:
        """Every per-layer metric; see ``metrics.PER_LAYER``."""
        m: Dict[str, float] = {}
        for name, (calls, seconds, self_s) in self.stats.items():
            m[f"{name}.calls"] = calls
            m[f"{name}.s"] = seconds
            m[f"{name}.self_s"] = self_s
        cones = m["category.cone_key.calls"]
        fiber_s = m["category.fiber_counts.s"]
        multiplies = m["hall.multiply.calls"]
        m["category.cones"] = cones
        m["category.enum_size.sum"] = sum(self.enum_sizes)
        m["category.enum_size.max"] = max(self.enum_sizes, default=0)
        m["category.fiber_counts.distinct"] = len(self.distinct["category.fiber_counts"])
        m["category.fiber_counts.share"] = fiber_s / ops_s if ops_s else 0.0
        m["category.ms_per_cone"] = 1000.0 * fiber_s / cones if cones else 0.0
        m["category.hom_space.distinct"] = len(self.distinct["category.hom_space"])
        m["hall.multiply.reuse_ratio"] = 1.0 - len(self.distinct["hall.multiply"]) / multiplies if multiplies else 0.0
        m["trace.ops_s"] = ops_s
        m["trace.overhead_ratio"] = ops_s / untraced_ops_s if untraced_ops_s else 0.0
        return m

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: a header with the span names,
        then [id, name index, start, end, parent id, op id] per span."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"names": self.names, "absent": self.absent}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
