"""Admissibility of the search engine's objective lower bounds.

Branch-and-bound correctness hangs on one property: no bound ever
exceeds the simulated objective value.  These tests prove it for the
machine trio over real workloads and check that the static-power
"bound" is exact.
"""

import pytest

from repro.baselines.popstar import popstar_simulator
from repro.baselines.simba import simba_simulator
from repro.dse.bounds import (
    frontier_bounds,
    layer_bounds,
    model_energy_lower_bound_mj,
    model_time_lower_bound_s,
    objective_lower_bound,
    static_network_power_w,
)
from repro.errors import ConfigError
from repro.models.zoo import get_model
from repro.spacx.architecture import spacx_simulator

_REL_TOL = 1 + 1e-9


def _machines():
    return {
        "spacx": spacx_simulator(),
        "simba": simba_simulator(),
        "popstar": popstar_simulator(),
    }


@pytest.fixture(scope="module")
def machines():
    return _machines()


@pytest.fixture(scope="module")
def workloads():
    return [get_model("MobileNetV2"), get_model("ResNet-50")]


class TestLayerBounds:
    def test_admissible_per_layer(self, machines, workloads):
        for simulator in machines.values():
            for model in workloads:
                for layer in model.unique_layers:
                    result = simulator.simulate_layer(layer)
                    t_lb, e_lb = layer_bounds(simulator, layer)
                    assert t_lb <= result.execution_time_s * _REL_TOL
                    assert e_lb <= result.energy.total_mj * _REL_TOL

    def test_bounds_positive(self, machines):
        layer = get_model("MobileNetV2").unique_layers[0]
        for simulator in machines.values():
            t_lb, e_lb = layer_bounds(simulator, layer)
            assert t_lb > 0
            assert e_lb > 0


class TestModelBounds:
    def test_time_bound_admissible(self, machines, workloads):
        for simulator in machines.values():
            for model in workloads:
                simulated = simulator.simulate_model(model)
                bound = model_time_lower_bound_s(simulator, model)
                assert bound <= simulated.execution_time_s * _REL_TOL

    def test_energy_bound_admissible(self, machines, workloads):
        for simulator in machines.values():
            for model in workloads:
                simulated = simulator.simulate_model(model)
                bound = model_energy_lower_bound_mj(simulator, model)
                assert bound <= simulated.energy.total_mj * _REL_TOL

    def test_objective_bounds_admissible(self, machines, workloads):
        for simulator in machines.values():
            for model in workloads:
                simulated = simulator.simulate_model(model)
                exact = {
                    "execution_time": simulated.execution_time_s,
                    "energy": simulated.energy.total_mj,
                    "edp": simulated.energy.total_mj
                    * simulated.execution_time_s,
                }
                for objective, value in exact.items():
                    bound = objective_lower_bound(
                        simulator, model, objective
                    )
                    assert bound <= value * _REL_TOL, (
                        simulator.spec.name,
                        model.name,
                        objective,
                    )
                    assert bound > 0

    def test_unknown_objective(self, machines, workloads):
        with pytest.raises(ConfigError):
            objective_lower_bound(
                machines["spacx"], workloads[0], "happiness"
            )


class TestStaticPower:
    def test_exact_for_photonic_machines(self, machines):
        simulator = machines["spacx"]
        power = static_network_power_w(simulator)
        assert power == simulator.network_energy.report().overall_w
        model = get_model("MobileNetV2")
        assert (
            objective_lower_bound(simulator, model, "static_power") == power
        )

    def test_none_for_electrical_baselines(self, machines):
        for name in ("simba", "popstar"):
            assert static_network_power_w(machines[name]) is None
            # The pruning bound degrades gracefully to the trivial 0.0.
            model = get_model("MobileNetV2")
            assert (
                objective_lower_bound(machines[name], model, "static_power")
                == 0.0
            )


class TestFrontierBounds:
    """The grid-batched frontier bound is the per-pair bound, verbatim."""

    def _pairs(self, machines, workloads):
        # A frontier the way the search engine builds one: many
        # same-family machines against shared workloads, plus the
        # cross-family trio for the grouping logic to partition.
        frontier = [
            spacx_simulator(ef_granularity=ef, k_granularity=k)
            for ef in (1, 2, 4)
            for k in (1, 8)
        ]
        frontier += list(machines.values())
        return [(sim, model) for sim in frontier for model in workloads]

    @pytest.mark.parametrize(
        "objective", ["execution_time", "energy", "edp", "static_power"]
    )
    def test_matches_per_pair_bounds(self, machines, workloads, objective):
        pairs = self._pairs(machines, workloads)
        batched = frontier_bounds(pairs, objective)
        for bound, (simulator, model) in zip(batched, pairs):
            assert bound == objective_lower_bound(simulator, model, objective)

    def test_matches_with_vectorize_off(self, machines, workloads):
        """The grid floors equal the scalar ``layer_bounds`` derivation
        accumulated the same way -- the kernel switched off."""
        pairs = self._pairs(machines, workloads)
        for bound, (simulator, model) in zip(
            frontier_bounds(pairs, "edp"), pairs
        ):
            time_floor = 0.0
            energy_floor = 0.0
            for layer in model.unique_layers:
                count = model.multiplicity(layer)
                t, e = layer_bounds(simulator, layer)
                time_floor += count * t
                energy_floor += count * e
            assert bound == time_floor * energy_floor

    def test_layer_by_layer_mode(self, machines, workloads):
        pairs = self._pairs(machines, workloads)
        batched = frontier_bounds(pairs, "execution_time", layer_by_layer=True)
        for bound, (simulator, model) in zip(batched, pairs):
            assert bound == objective_lower_bound(
                simulator, model, "execution_time", layer_by_layer=True
            )

    def test_empty_and_singleton_frontiers(self, machines, workloads):
        assert frontier_bounds([], "energy") == []
        pair = (machines["spacx"], workloads[0])
        assert frontier_bounds([pair], "energy") == [
            objective_lower_bound(*pair, "energy")
        ]

    def test_unknown_objective(self, machines, workloads):
        with pytest.raises(ConfigError):
            frontier_bounds(
                [(machines["spacx"], w) for w in workloads], "happiness"
            )


class TestBoundsGrid:
    """The 2-D grid floor table equals the scalar per-layer floors."""

    def test_rows_match_layer_bounds(self, machines, workloads):
        from repro.core.grid import grid_gap, lane_covered, search_grid

        group = [machines["simba"], machines["popstar"]]
        assert all(grid_gap(s) is None for s in group)
        layers = [
            layer
            for layer in workloads[0].unique_layers
            if lane_covered(layer)
        ]
        assert layers
        floors, _ = search_grid(group, layers, [None, None])
        for simulator, row in zip(group, floors):
            assert row is not None
            for layer, (t, e) in zip(layers, row):
                assert (t, e) == layer_bounds(simulator, layer)
