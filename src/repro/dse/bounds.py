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
"""

from __future__ import annotations

from typing import TYPE_CHECKING

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
    "layer_bounds",
    "model_energy_lower_bound_mj",
    "model_time_lower_bound_s",
    "objective_lower_bound",
    "static_network_power_w",
    "time_lower_bound",
]

_OBJECTIVES = ("execution_time", "energy", "edp", "static_power")


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
    pairs, grid-batched.

    A dense design-space frontier bounds hundreds of same-family
    machines against one workload.  This helper groups the pairs'
    machines by :func:`~repro.core.grid.family_key`, evaluates each
    group's union of covered layer shapes through one
    :func:`~repro.core.grid.bounds_grid` pass (a lone machine is a
    one-row grid), and accumulates every pair's floors from its
    machine's row.  Lanes outside :func:`~repro.core.grid.lane_covered`
    and machines the grid declines take the scalar :func:`layer_bounds`.

    Grid floors match the scalar derivation lane-for-lane, and the
    per-model accumulation is :func:`fold_bound`, so the output is
    bit-identical to the scalar path and branch-and-bound prune
    decisions cannot depend on the batching.
    """
    if objective not in _OBJECTIVES:
        raise ConfigError(
            f"unknown objective {objective!r}; choose from {_OBJECTIVES}"
        )
    pairs = list(pairs)
    if objective == "static_power":
        out = []
        for simulator, _ in pairs:
            power = static_network_power_w(simulator)
            out.append(0.0 if power is None else power)
        return out

    from ..core import grid as grid_mod

    #: One walk per distinct workload: ``(layer, shape key,
    #: multiplicity, covered)`` per unique layer, in ``unique_layers``
    #: order, shared by the union and by every pair's accumulation.
    walks: dict[int, list] = {}

    def walk(model) -> list:
        steps = walks.get(id(model))
        if steps is None:
            steps = walks[id(model)] = [
                (
                    layer,
                    layer.shape_key,
                    model.multiplicity(layer),
                    grid_mod.lane_covered(layer),
                )
                for layer in model.unique_layers
            ]
        return steps

    groups: dict[tuple, tuple[dict, dict, set]] = {}
    for simulator, model in pairs:
        machines, union, models = groups.setdefault(
            grid_mod.family_key(simulator, layer_by_layer), ({}, {}, set())
        )
        machines.setdefault(id(simulator), simulator)
        if id(model) not in models:
            models.add(id(model))
            for layer, shape, _, covered in walk(model):
                if covered:
                    union.setdefault(shape, layer)
    #: machine id -> shape key -> (time floor, energy floor)
    floors: dict[int, dict] = {}
    for machines, union, _ in groups.values():
        rows, _ = grid_mod.bounds_grid(
            list(machines.values()),
            list(union.values()),
            layer_by_layer=layer_by_layer,
        )
        for sim_id, row in zip(machines, rows):
            if row is not None:
                floors[sim_id] = dict(zip(union, row))

    def terms(simulator, model):
        row = floors.get(id(simulator), {})
        for layer, shape, count, covered in walk(model):
            pair = row.get(shape) if covered else None
            if pair is None:
                pair = layer_bounds(
                    simulator, layer, layer_by_layer=layer_by_layer
                )
            yield count, pair

    return [
        fold_bound(terms(simulator, model), objective)
        for simulator, model in pairs
    ]
