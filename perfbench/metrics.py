"""Metric names, units and the layer map of the perihall benchmark.

``END_TO_END`` is what ``run.py --trace 0`` prints, ``PER_LAYER`` what
``run.py --trace 1`` prints. Each per-layer entry names the end-to-end
metrics it should move and the workloads where it moves most.
``BENCHMARK.json`` at the repository root repeats the names, units,
directions and bounds; ``test_perfbench.py`` keeps the two in step.
"""

from __future__ import annotations

# name, unit, better, bound (largest share of the parent's median by
# which the metric may worsen)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("scope_ref", "ref", "lower", 0.25),
    ("op_p50_ref", "ref", "lower", 0.25),
    ("op_p90_ref", "ref", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
)

PRODUCTS, ASSOC, PBW = "a2p2-products", "a1p3-assoc", "a2p2-pbw"

_CONES = (
    ("scope_ref", "op_p90_ref"),
    (PRODUCTS, ASSOC),
    (
        ("category.cones", "count", "lower"),
        ("category.enum_size.sum", "count", "lower"),
        ("category.enum_size.max", "count", "lower"),
        ("category.fiber_counts.calls", "count", "lower"),
        ("category.fiber_counts.distinct", "count", "lower"),
        ("category.fiber_counts.s", "s", "lower"),
        ("category.fiber_counts.share", "ratio", "lower"),
        ("hall.hall_number.calls", "count", "lower"),
        ("hall.hall_number.s", "s", "lower"),
    ),
)
_PER_CONE = (
    ("scope_ref",),
    (PRODUCTS,),
    (
        ("category.ms_per_cone", "ms", "lower"),
        ("category.cone_key.s", "s", "lower"),
        ("category.rep_map.self_s", "s", "lower"),
        ("periodic.mapping_cone.self_s", "s", "lower"),
        ("periodic.normal_pieces.self_s", "s", "lower"),
        ("reps.kernel.calls", "count", "lower"),
        ("reps.kernel.self_s", "s", "lower"),
        ("reps.cokernel.calls", "count", "lower"),
        ("reps.cokernel.self_s", "s", "lower"),
    ),
)
_FIELD = (
    ("category.ms_per_cone", "scope_ref"),
    (PRODUCTS, ASSOC, PBW),
    (
        ("gfp.matrix_new.calls", "count", "lower"),
        ("gfp.matrix_new.self_s", "s", "lower"),
        ("gfp.mul.calls", "count", "lower"),
        ("gfp.mul.self_s", "s", "lower"),
        ("gfp.rref.calls", "count", "lower"),
        ("gfp.rref.self_s", "s", "lower"),
    ),
)
_HOM_SPACES = (
    ("scope_ref", "op_p50_ref", "peak_rss_mb"),
    (PBW,),
    (
        ("category.hom_space.calls", "count", "lower"),
        ("category.hom_space.distinct", "count", "lower"),
        ("category.hom_space.s", "s", "lower"),
        ("category.realize.s", "s", "lower"),
        ("periodic.chain_hom_space.calls", "count", "lower"),
        ("periodic.chain_hom_space.s", "s", "lower"),
        ("periodic.direct_sum_complexes.self_s", "s", "lower"),
        ("reps.hom_basis.calls", "count", "lower"),
        ("reps.hom_basis.s", "s", "lower"),
    ),
)
_PRODUCTS = (
    ("scope_ref", "op_p50_ref"),
    (ASSOC, PBW),
    (
        ("hall.multiply.calls", "count", "lower"),
        ("hall.multiply.s", "s", "lower"),
        ("hall.multiply.reuse_ratio", "ratio", "higher"),
        ("hall.multiply_vectors.self_s", "s", "lower"),
        ("hall.pbw_expand.calls", "count", "lower"),
        ("hall.pbw_expand.s", "s", "lower"),
        ("sqrtq.ops.calls", "count", "lower"),
        ("sqrtq.ops.self_s", "s", "lower"),
    ),
)
_CLASSES = (
    ("setup_s", "scope_ref"),
    (PBW,),
    (
        ("reps.class_id.calls", "count", "lower"),
        ("reps.class_id.s", "s", "lower"),
        ("reps.decompose.calls", "count", "lower"),
        ("reps.ext1_dim.calls", "count", "lower"),
        ("category.aut_order.s", "s", "lower"),
    ),
)
_TRACE = (
    (),
    (PRODUCTS, ASSOC, PBW),
    (
        ("trace.ops_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ),
)

# name, unit, better, moves (end-to-end metrics), mostly on (workloads)
PER_LAYER = tuple(
    (name, unit, better, moves, on)
    for moves, on, rows in (_CONES, _PER_CONE, _FIELD, _HOM_SPACES, _PRODUCTS, _CLASSES, _TRACE)
    for name, unit, better in rows
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
