"""Scalar-oracle differential harness for the grid kernel.

The contract under test is **bit identity**: for every (machine,
layer) pair the NumPy grid kernel must produce a
:class:`~repro.core.simulator.LayerResult` whose canonical JSON form
equals the scalar simulator's exactly.  The kernel earns this by
mirroring the scalar arithmetic operation for operation (same
association order, same int/float promotion points), so every entry
of :data:`METRIC_TOLERANCES` is zero -- there is no "close enough"
band to hide a lowering bug in.

For intentional future divergence (a metric whose vectorized form
must re-associate floats), widen the single affected entry here and
document why next to it; :func:`drift_report` then quantifies the
realised drift in ULPs so the golden guard pins it.
"""

from __future__ import annotations

import json
import math
import struct

from repro.core.layer import ConvLayer
from repro.models.zoo import evaluation_models
from repro.serialization import layer_result_to_dict
from repro.validate import machine_zoo

__all__ = [
    "METRIC_TOLERANCES",
    "canonical",
    "covered_union_layers",
    "drift_report",
    "grid_mismatches",
    "merge_drift",
    "ulp_distance",
    "zoo_grid_families",
    "zoo_machines",
    "zoo_pairs",
    "zoo_union_layers",
]

#: Per-metric-group maximum relative error the differential tests
#: accept, keyed by the top-level groups of
#: :func:`repro.serialization.layer_result_to_dict`.  All zero: the
#: kernel replays the scalar expression trees verbatim (the exactness
#: screen keeps every integer product below 2**53), so float
#: re-association never occurs and exact equality is the proven --
#: not aspirational -- contract.
METRIC_TOLERANCES: dict[str, float] = {
    "layer": 0.0,
    "mapping": 0.0,
    "traffic": 0.0,
    "timing": 0.0,
    "energy": 0.0,
}


def canonical(result) -> str:
    """Canonical JSON form of one layer result (bitwise comparable)."""
    return json.dumps(layer_result_to_dict(result), sort_keys=True)


def zoo_machines() -> dict:
    """Fresh simulator per zoo machine, keyed by registry name."""
    return {name: factory() for name, factory in machine_zoo().items()}


def zoo_union_layers() -> list[ConvLayer]:
    """First occurrence of every distinct shape across the model zoo."""
    seen: set[tuple] = set()
    union: list[ConvLayer] = []
    for model in evaluation_models():
        for layer in model.unique_layers:
            if layer.shape_key not in seen:
                seen.add(layer.shape_key)
                union.append(layer)
    return union


def zoo_pairs() -> list[tuple[str, object, ConvLayer]]:
    """Every (machine name, simulator, layer) pair in the zoo."""
    layers = zoo_union_layers()
    return [
        (name, simulator, layer)
        for name, simulator in zoo_machines().items()
        for layer in layers
    ]


def zoo_grid_families(layer_by_layer: bool = False) -> dict:
    """Grid-eligible zoo machines grouped by shared family key.

    Maps :func:`repro.core.grid.family_key` to the ``(name,
    simulator)`` list of zoo machines that pass
    :func:`repro.core.grid.grid_gap` -- the exact grouping the
    campaign planner and :func:`repro.dse.bounds.frontier_bounds`
    perform before a 2-D megabatch.
    """
    from repro.core.grid import family_key, grid_gap

    families: dict = {}
    for name, simulator in zoo_machines().items():
        if grid_gap(simulator) is not None:
            continue
        key = family_key(simulator, layer_by_layer)
        families.setdefault(key, []).append((name, simulator))
    return families


def covered_union_layers() -> list[ConvLayer]:
    """Zoo union layers inside the grid kernel's lane coverage."""
    from repro.core.grid import lane_covered

    return [layer for layer in zoo_union_layers() if lane_covered(layer)]


def grid_mismatches(
    simulators, layers, *, layer_by_layer: bool = False
) -> list[str]:
    """Divergences between the scalar oracle and one grid evaluation.

    Runs one same-family batch through a single :func:`evaluate_grid`
    pass and the scalar simulator, and returns a description per
    (machine, layer) lane whose canonical JSON forms are not
    byte-equal (or per machine the grid declined).  An empty list is
    the bit-identity contract.
    """
    from repro.core.grid import evaluate_grid

    simulators = list(simulators)
    layers = list(layers)
    outcome = evaluate_grid(
        simulators, layers, layer_by_layer=layer_by_layer
    )
    mismatches: list[str] = []
    for j, simulator in enumerate(simulators):
        name = simulator.spec.name
        row = outcome.by_machine[j]
        if row is None:
            mismatches.append(f"{name}: declined ({outcome.reasons[j]})")
            continue
        for layer in layers:
            slow = simulator.simulate_layer(
                layer, layer_by_layer=layer_by_layer
            )
            lane = row[layer.shape_key]
            if canonical(lane) != canonical(slow):
                mismatches.append(f"{name}/{layer.name}: grid != scalar")
    return mismatches


def ulp_distance(a: float, b: float) -> float:
    """Distance between two floats in units in the last place.

    0.0 for bitwise-equal values (including two equal infinities and
    two NaNs), ``inf`` when exactly one side is non-finite.  Uses the
    standard monotonic integer mapping of IEEE-754 doubles, so 1.0
    means "adjacent representable values".
    """
    if a == b:
        return 0.0
    if math.isnan(a) and math.isnan(b):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf

    def as_ordered_int(x: float) -> int:
        (i,) = struct.unpack("<q", struct.pack("<d", x))
        return i if i >= 0 else -(i + 2**63)

    return float(abs(as_ordered_int(a) - as_ordered_int(b)))


def _walk(prefix: str, scalar, vector, report: dict) -> None:
    if isinstance(scalar, dict):
        for key in scalar:
            _walk(f"{prefix}.{key}" if prefix else key, scalar[key],
                  vector[key], report)
        return
    if isinstance(scalar, (list, tuple)):
        for i, (s, v) in enumerate(zip(scalar, vector)):
            _walk(f"{prefix}[{i}]", s, v, report)
        return
    if isinstance(scalar, bool) or not isinstance(scalar, (int, float)):
        if scalar != vector:
            report.setdefault("mismatched_fields", []).append(prefix)
        return
    ulp = ulp_distance(float(scalar), float(vector))
    if scalar == vector:
        rel = 0.0
    elif scalar:
        rel = abs(vector - scalar) / abs(scalar)
    else:
        rel = math.inf
    top = prefix.split(".", 1)[0]
    entry = report.setdefault(top, {"max_ulp": 0.0, "max_rel_error": 0.0})
    entry["max_ulp"] = max(entry["max_ulp"], ulp)
    entry["max_rel_error"] = max(entry["max_rel_error"], rel)


def drift_report(scalar_result, vector_result) -> dict:
    """Per-metric max-ULP / max-relative-error between two results.

    Walks the canonical dict forms leaf by leaf and aggregates by
    top-level metric group; bit-identical results yield all zeros.
    """
    report: dict = {}
    _walk(
        "",
        layer_result_to_dict(scalar_result),
        layer_result_to_dict(vector_result),
        report,
    )
    return report


def merge_drift(total: dict, single: dict) -> dict:
    """Fold one :func:`drift_report` into a running worst-case report."""
    for metric, entry in single.items():
        if metric == "mismatched_fields":
            total.setdefault(metric, []).extend(entry)
            continue
        slot = total.setdefault(
            metric, {"max_ulp": 0.0, "max_rel_error": 0.0}
        )
        slot["max_ulp"] = max(slot["max_ulp"], entry["max_ulp"])
        slot["max_rel_error"] = max(
            slot["max_rel_error"], entry["max_rel_error"]
        )
    return total
