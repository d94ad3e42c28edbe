"""Admissible objective lower bounds -- no simulation required.

Branch-and-bound pruning is only correct when the bound never exceeds
the true objective value (*admissibility*).  Every bound here derives
from quantities the simulator itself is pinned to by the invariant
auditor (:mod:`repro.core.invariants`):

* **time** -- ``execution_time_s = max(compute, communication)`` per
  layer, with compute exactly ``compute_cycles * cycle_time_s``
  (INV-OPS-TIME) and communication at least every per-resource
  transfer floor (INV-COMM-LB).
  :func:`repro.core.roofline.time_lower_bound` takes the max of those
  floors, so it is a true floor -- and *exact* for compute-, GB- or
  DRAM-bound layers, which is what makes pruning effective;
* **energy** -- MAC, global-buffer and DRAM energy are pure functions
  of the mapping and traffic (no simulation), and the total always
  additionally contains PE-buffer and network energy, so their sum is
  a strict floor;
* **edp** -- the product of two admissible floors of two positive
  totals is a floor of the product;
* **static power** -- a pure function of the network topology: the
  "bound" is *exact*, so pruning on it is perfect.

Model-level bounds sum per-layer floors over unique layers weighted
by multiplicity -- exactly how ``simulate_model`` accumulates.

A frontier of candidates is bounded in one :func:`frontier_pass`: one
grid pass per machine family (chunked under the sweep runner's lane
budget) gives every candidate's floors and, where the grid can score
the whole workload, a deferred score for the search engine.
"""

from __future__ import annotations

import logging
from itertools import chain
from typing import TYPE_CHECKING

from ..core import batch, grid
from ..core.mapping import map_layer
from ..core.roofline import mapped_time_floor_s, time_lower_bound
from ..core.traffic import derive_traffic
from ..errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from ..core.layer import ConvLayer, LayerSet
    from ..core.simulator import Simulator

__all__ = [
    "fold_bound",
    "frontier_bounds",
    "frontier_pass",
    "layer_bounds",
    "model_energy_lower_bound_mj",
    "model_time_lower_bound_s",
    "objective_lower_bound",
    "static_network_power_w",
    "time_lower_bound",
]

_OBJECTIVES = ("execution_time", "energy", "edp", "static_power")

logger = logging.getLogger(__name__)


def layer_bounds(
    simulator: "Simulator",
    layer: "ConvLayer",
    *,
    layer_by_layer: bool = False,
) -> tuple[float, float]:
    """(time floor [s], energy floor [mJ]) for one layer.

    One shared mapping/traffic derivation feeds both floors, so the
    bound for a whole space costs a few microseconds per layer where a
    simulation costs milliseconds.
    """
    spec = simulator.spec
    mapping = map_layer(layer, spec.mapping_parameters(), spec.dataflow)
    traffic = derive_traffic(
        mapping,
        spec.capabilities,
        layer_by_layer=layer_by_layer,
        gb_bytes=spec.gb_bytes,
    )
    time_floor = mapped_time_floor_s(spec, mapping, traffic)
    energy = simulator.compute_energy
    energy_floor = (
        energy.mac_energy_mj(layer, mapping)
        + energy.gb_energy_mj(traffic)
        + energy.dram_energy_mj(traffic)
    )
    return time_floor, energy_floor


def model_time_lower_bound_s(
    simulator: "Simulator", model: "LayerSet", *, layer_by_layer: bool = False
) -> float:
    """Admissible floor on ``simulate_model(model).execution_time_s``."""
    return objective_lower_bound(
        simulator, model, "execution_time", layer_by_layer=layer_by_layer
    )


def model_energy_lower_bound_mj(
    simulator: "Simulator", model: "LayerSet", *, layer_by_layer: bool = False
) -> float:
    """Admissible floor on ``simulate_model(model).energy.total_mj``."""
    return objective_lower_bound(
        simulator, model, "energy", layer_by_layer=layer_by_layer
    )


def static_network_power_w(simulator: "Simulator") -> float | None:
    """Exact static network power [W], or ``None`` for machines whose
    energy model has no standing-power report (the electrical
    baselines)."""
    report = getattr(simulator.network_energy, "report", None)
    if report is None:
        return None
    return report().overall_w


def objective_lower_bound(
    simulator: "Simulator",
    model: "LayerSet",
    objective: str,
    *,
    layer_by_layer: bool = False,
) -> float:
    """Admissible lower bound on one candidate's objective value.

    Admissibility per objective is proven layer-wise (module
    docstring) and verified zoo-wide in ``tests/dse/test_bounds.py``.
    A one-pair :func:`frontier_bounds`.
    """
    return frontier_bounds(
        [(simulator, model)], objective, layer_by_layer=layer_by_layer
    )[0]


def fold_bound(terms, objective: str) -> float:
    """One workload's objective floor from its per-layer floors.

    ``terms`` yields ``(multiplicity, (time_floor_s, energy_floor_mj))``
    per unique layer, in ``unique_layers`` order.  The floors are
    folded left to right from ``0.0`` as ``count * floor`` -- the order
    and operations ``simulate_model`` accumulates with -- so every
    caller gets the same bits for the same floors.
    """
    time_floor = 0.0
    energy_floor = 0.0
    for count, (time_s, energy_mj) in terms:
        time_floor += count * time_s
        energy_floor += count * energy_mj
    if objective == "execution_time":
        return time_floor
    if objective == "energy":
        return energy_floor
    return time_floor * energy_floor


def frontier_bounds(
    pairs,
    objective: str,
    *,
    layer_by_layer: bool = False,
) -> list[float]:
    """:func:`objective_lower_bound` over many ``(simulator, model)``
    pairs: the bounds of one :func:`frontier_pass`.  ``static_power``
    bounds are exact powers and need no grid pass."""
    if objective != "static_power":
        return frontier_pass(
            pairs, objective, layer_by_layer=layer_by_layer
        )[0]
    powers = [static_network_power_w(simulator) for simulator, _ in pairs]
    return [0.0 if power is None else power for power in powers]


def frontier_pass(
    pairs,
    objective: str,
    *,
    layer_by_layer: bool = False,
) -> tuple[list[float], list]:
    """``(bounds, scorers)`` of many ``(simulator, model)`` pairs.

    The pairs are grouped by :func:`~repro.core.grid.family_key`, and
    each family's union of covered shapes
    (:func:`~repro.core.grid.lane_covered`) runs through one
    :func:`~repro.core.grid.search_grid` per machine chunk, chunked
    under the sweep runner's lane budget as its grid groups are.
    ``bounds[k]`` is pair ``k``'s :func:`objective_lower_bound`, the
    :func:`fold_bound` of its unique layers' floors: a covered layer
    of an admitted machine takes them from the grid row, any other
    layer (uncovered, declined machine, a chunk whose pass raised)
    from the scalar :func:`layer_bounds`, bit for bit the same, so
    prune decisions cannot depend on the batching.  ``scorers[k]`` is
    the grid's deferred score of pair ``k`` when its model is
    non-empty and fully covered and its machine admitted, else
    ``None``; only a scorer call builds the pass's scoring stage.
    """
    if objective not in _OBJECTIVES:
        raise ConfigError(
            f"unknown objective {objective!r}; choose from {_OBJECTIVES}"
        )
    pairs = list(pairs)
    #: model id -> its ``batch._model_structure`` plus multiplicities
    walks: dict[int, tuple] = {}
    #: family key -> machine id -> pair indexes
    families: dict[tuple, dict] = {}
    for k, (simulator, model) in enumerate(pairs):
        if id(model) not in walks:
            structure = batch._model_structure(model)
            counts = list(map(model.multiplicity, structure[0]))
            walks[id(model)] = (*structure, counts)
        key = grid.family_key(simulator, layer_by_layer)
        families.setdefault(key, {}).setdefault(id(simulator), []).append(k)

    found: list = [None] * len(pairs)  # (grid row, the model's lanes)
    scorers: list = [None] * len(pairs)
    for machines in families.values():
        # The family's union of covered shapes and, per model, the lane
        # of each unique layer (None: uncovered) and, when every layer
        # is covered, the lane of each occurrence.
        union: dict[tuple, int] = {}
        layers: list = []
        lanes: dict[int, tuple] = {}
        for k in chain.from_iterable(machines.values()):
            model_id = id(pairs[k][1])
            if model_id in lanes:
                continue
            unique, shapes, occ, covered, _ = walks[model_id]
            own = []
            for layer, shape, ok in zip(unique, shapes, covered):
                if ok and shape not in union:
                    union[shape] = len(layers)
                    layers.append(layer)
                own.append(union[shape] if ok else None)
            lanes[model_id] = (
                own, list(map(own.__getitem__, occ)) if all(covered) else None
            )
        if not layers:
            continue
        groups = list(machines.values())
        per_chunk = max(1, batch._GRID_LANE_BUDGET // len(layers))
        for start in range(0, len(groups), per_chunk):
            chunk = list(
                chain.from_iterable(groups[start : start + per_chunk])
            )
            try:
                rows, scored = grid.search_grid(
                    [pairs[k][0] for k in chunk],
                    layers,
                    [lanes[id(pairs[k][1])][1] for k in chunk],
                    layer_by_layer=layer_by_layer,
                )
            except Exception as exc:
                # Bounded on the scalar path; a runner evaluating these
                # pairs meets the same fault and reports it.
                logger.warning("frontier grid pass declined: %r", exc)
                continue
            for k, row, scorer in zip(chunk, rows, scored):
                if row is not None:
                    found[k] = (row, lanes[id(pairs[k][1])])
                scorers[k] = scorer

    if objective == "static_power":
        return frontier_bounds(pairs, objective), scorers
    bounds = []
    for (simulator, model), hit in zip(pairs, found):
        unique, _, _, _, counts = walks[id(model)]
        row, (own, occurrences) = hit or (None, ([None] * len(unique), None))
        if occurrences is not None:  # every floor is on the grid row
            floors = map(row.__getitem__, own)
        else:
            floors = (
                layer_bounds(simulator, layer, layer_by_layer=layer_by_layer)
                if lane is None
                else row[lane]
                for layer, lane in zip(unique, own)
            )
        bounds.append(fold_bound(zip(counts, floors), objective))
    return bounds, scorers
