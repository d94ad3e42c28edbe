"""One frontier pass: every DSE bound and lane-free score of a frontier
comes from one family-grouped grid pass.

* a mixed frontier (two machine families, machines the grid declines,
  a workload holding an uncovered layer, an empty workload, clean
  pairs): every bound equals the scalar fold of ``layer_bounds`` bit
  for bit, for every objective; scorers exist exactly for the clean,
  fully covered pairs and score as the simulator does; a small lane
  budget splits the pass into one admission per machine chunk and
  changes no bound;
* a kernel fault in any stage of the pass degrades every strategy to
  the scalar engine's answer instead of raising.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest

from repro.baselines.popstar import popstar_simulator
from repro.baselines.simba import simba_simulator
from repro.core import batch, grid
from repro.core.batch import NullCache, SweepRunner
from repro.core.layer import ConvLayer, LayerSet
from repro.core.simulator import Simulator
from repro.dse import SearchEngine, SearchSpace
from repro.dse.bounds import (
    frontier_bounds,
    frontier_pass,
    layer_bounds,
    static_network_power_w,
)
from repro.dse.search import OBJECTIVES, STRATEGIES
from repro.models.zoo import get_model
from repro.spacx.architecture import spacx_simulator

#: The tiny space of ``test_lane_free.py``: 4 SPACX candidates.
_TINY = {
    "machine": ["spacx"],
    "k_granularity": [8, 16],
    "ef_granularity": [8, 16],
    "model": ["MobileNetV2"],
}


class _Traced(Simulator):
    """A stock machine behind a subclass: the grid declines it."""


class _OddLayer(ConvLayer):
    """Outside the grid's lane coverage, which takes exact types only."""


def _frontier():
    """``(pairs, clean)``: every machine against every workload, and
    which pairs the grid can score whole."""
    base = spacx_simulator()
    dead = Simulator(
        replace(base.spec, name="SPACX-dead", dram_bandwidth_gbps=1e-15),
        base.compute_energy,
        base.network_energy,
        strict=False,
    )
    traced = _Traced(
        replace(base.spec, name="SPACX-traced"),
        base.compute_energy,
        base.network_energy,
    )
    machines = [
        base,
        spacx_simulator(ef_granularity=2),
        spacx_simulator(k_granularity=8),
        simba_simulator(),
        popstar_simulator(),
    ]
    declined = [dead, traced]
    assert all(grid.grid_gap(s) is not None for s in declined)
    assert len({grid.family_key(s) for s in machines}) == 2
    clean = [get_model("MobileNetV2"), get_model("ResNet-50")]
    layers = clean[0].all_layers
    odd = LayerSet(
        "odd",
        [
            *layers[:4],
            _OddLayer(name="odd", c=3, k=7, r=3, s=3, h=11, w=11),
            *layers[4:],
        ],
    )
    empty = LayerSet("empty", [])
    pairs = [
        (simulator, model)
        for simulator in [*machines, *declined]
        for model in [*clean, odd, empty]
    ]
    scorable = [
        simulator in machines and any(model is m for m in clean)
        for simulator, model in pairs
    ]
    return pairs, scorable


def _scalar_bound(simulator, model, objective) -> float:
    """The scalar fold: ``count * floor`` over ``unique_layers``."""
    if objective == "static_power":
        power = static_network_power_w(simulator)
        return 0.0 if power is None else power
    time_floor = 0.0
    energy_floor = 0.0
    for layer in model.unique_layers:
        count = model.multiplicity(layer)
        time_s, energy_mj = layer_bounds(simulator, layer)
        time_floor += count * time_s
        energy_floor += count * energy_mj
    return {
        "execution_time": time_floor,
        "energy": energy_floor,
        "edp": time_floor * energy_floor,
    }[objective]


def _counting(name, counts):
    real = getattr(grid, name)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    return mock.patch.object(grid, name, wrapper)


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_mixed_frontier_bounds_equal_the_scalar_fold(objective):
    pairs, _ = _frontier()
    expected = [_scalar_bound(s, m, objective).hex() for s, m in pairs]
    assert [b.hex() for b in frontier_bounds(pairs, objective)] == expected
    bounds, _ = frontier_pass(pairs, objective)
    assert [b.hex() for b in bounds] == expected


def test_mixed_frontier_scores_only_clean_pairs():
    pairs, scorable = _frontier()
    _, scorers = frontier_pass(pairs, "edp")
    assert [scorer is not None for scorer in scorers] == scorable
    for (simulator, model), scorer in zip(pairs, scorers):
        if scorer is None:
            continue
        result = simulator.simulate_model(model)
        params = simulator.spec.mapping_parameters()
        utilizations = [r.mapping.utilization(params) for r in result.layers]
        assert scorer() == (
            result.execution_time_s,
            result.energy.total_mj,
            sum(utilizations) / len(utilizations),
        )


def test_small_lane_budget_admits_once_per_chunk():
    pairs, scorable = _frontier()
    counts: Counter = Counter()
    with _counting("_admit", counts):
        bounds, scorers = frontier_pass(pairs, "edp")
    # One pass per family: SPACX (with both declined machines) and
    # Simba with POPSTAR.
    assert counts == {"_admit": 2}
    counts.clear()
    with _counting("_admit", counts), mock.patch.object(
        batch, "_GRID_LANE_BUDGET", 1
    ):
        chunked, chunked_scorers = frontier_pass(pairs, "edp")
    # A budget of one lane holds one machine per chunk: 7 machines.
    assert counts == {"_admit": 7}
    assert [b.hex() for b in chunked] == [b.hex() for b in bounds]
    assert [s is not None for s in chunked_scorers] == scorable


def _outcome(strategy, runner):
    try:
        return SearchEngine(
            SearchSpace.from_dict(_TINY), objective="edp", runner=runner
        ).search(strategy).to_dict()
    finally:
        runner.close()


@pytest.mark.parametrize(
    "stage", ["_grid_lower", "_pass_floors", "_pass_columns"]
)
def test_kernel_fault_degrades_every_strategy_to_the_scalar_engine(stage):
    expected = {
        strategy: _outcome(
            strategy,
            SweepRunner(vectorize=False, cache=NullCache(), manifest=False),
        )
        for strategy in STRATEGIES
    }
    with mock.patch.object(
        grid, stage, side_effect=RuntimeError("injected kernel fault")
    ) as fault:
        for strategy in STRATEGIES:
            runner = SweepRunner(cache=NullCache(), manifest=False)
            assert _outcome(strategy, runner) == expected[strategy], strategy
    assert fault.called
