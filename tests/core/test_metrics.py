"""Direct tests for the result containers."""

import functools
import operator
from types import SimpleNamespace

import pytest

from repro.core.layer import ConvLayer
from repro.core.metrics import (
    EnergyBreakdown,
    ModelResult,
    NetworkEnergy,
)
from repro.spacx.architecture import spacx_simulator


def _layer_result():
    layer = ConvLayer(name="t", c=16, k=16, r=3, s=3, h=8, w=8)
    return spacx_simulator().simulate_layer(layer)


class TestNetworkEnergy:
    def test_default_is_zero(self):
        assert NetworkEnergy().total_mj == 0.0

    def test_total_sums_all_buckets(self):
        energy = NetworkEnergy(
            eo_mj=1, oe_mj=2, heating_mj=3, laser_mj=4, electrical_mj=5
        )
        assert energy.total_mj == 15

    def test_addition_is_fieldwise(self):
        a = NetworkEnergy(eo_mj=1, laser_mj=2)
        b = NetworkEnergy(oe_mj=3, laser_mj=4)
        total = a + b
        assert total.eo_mj == 1
        assert total.oe_mj == 3
        assert total.laser_mj == 6


class TestEnergyBreakdown:
    def test_other_vs_network_partition(self):
        breakdown = EnergyBreakdown(
            mac_mj=1.0,
            pe_buffer_mj=2.0,
            gb_mj=3.0,
            dram_mj=4.0,
            network=NetworkEnergy(laser_mj=5.0),
        )
        assert breakdown.other_mj == 10.0
        assert breakdown.network_mj == 5.0
        assert breakdown.total_mj == 15.0

    def test_addition(self):
        a = EnergyBreakdown(
            mac_mj=1, pe_buffer_mj=1, gb_mj=1, dram_mj=1, network=NetworkEnergy()
        )
        total = a + a
        assert total.mac_mj == 2
        assert total.total_mj == 8


class TestLayerResult:
    def test_execution_identity(self):
        result = _layer_result()
        assert result.execution_time_s == pytest.approx(
            result.computation_time_s + result.exposed_communication_s
        )

    def test_throughput_zero_when_idle(self):
        import dataclasses

        result = dataclasses.replace(_layer_result(), communication_time_s=0.0)
        assert result.throughput_gbps == 0.0


class TestModelResult:
    def test_empty_model_result(self):
        result = ModelResult(accelerator="SPACX", model="empty")
        assert result.execution_time_s == 0.0
        assert result.energy.total_mj == 0.0
        assert _bits(result.energy) == ("0.0",) * 9
        assert result.mean_packet_latency_s == 0.0
        assert result.throughput_gbps == 0.0

    def test_accumulation(self):
        layer_result = _layer_result()
        result = ModelResult(
            accelerator="SPACX", model="m", layers=[layer_result, layer_result]
        )
        assert result.execution_time_s == pytest.approx(
            2 * layer_result.execution_time_s
        )
        assert result.energy.total_mj == pytest.approx(
            2 * layer_result.energy.total_mj
        )
        # A repeated layer object folds like distinct ones.
        assert _bits(result.energy) == _bits(_reference_energy(result.layers))


# ----------------------------------------------------------------------
# ModelResult.energy is bit-identical to a chain of EnergyBreakdown.__add__
# ----------------------------------------------------------------------
_ZERO = EnergyBreakdown(
    mac_mj=0.0, pe_buffer_mj=0.0, gb_mj=0.0, dram_mj=0.0, network=NetworkEnergy()
)


def _reference_energy(layers):
    """The fold ``ModelResult.energy`` must reproduce exactly."""
    return functools.reduce(operator.add, (r.energy for r in layers), _ZERO)


def _bits(energy):
    """The nine components as exact, sign-preserving reprs."""
    network = energy.network
    return tuple(
        repr(value)
        for value in (
            energy.mac_mj,
            energy.pe_buffer_mj,
            energy.gb_mj,
            energy.dram_mj,
            network.eo_mj,
            network.oe_mj,
            network.heating_mj,
            network.laser_mj,
            network.electrical_mj,
        )
    )


def _zoo_jobs():
    from repro.core.batch import SweepJob
    from repro.models.zoo import EXTENDED_MODELS, get_model
    from repro.validate import machine_zoo

    models = [get_model(name) for name in EXTENDED_MODELS]
    return [
        SweepJob(factory(), model)
        for factory in machine_zoo().values()
        for model in models
    ]


class TestModelEnergyFold:
    def test_scalar_zoo_matches_reference_fold(self):
        for job in _zoo_jobs():
            result = job.simulator.simulate_model(job.model)
            assert _bits(result.energy) == _bits(
                _reference_energy(result.layers)
            ), (result.accelerator, result.model)

    def test_grid_zoo_matches_reference_fold(self):
        from repro.core.batch import NullCache, SweepRunner

        jobs = _zoo_jobs()
        with SweepRunner(cache=NullCache(), manifest=False) as runner:
            results = runner.run(jobs)
        assert len(results) == len(jobs)
        for result in results:
            folded = _bits(result.energy)
            assert folded == _bits(_reference_energy(result.layers)), (
                result.accelerator,
                result.model,
            )

    def test_duck_typed_energies(self):
        # Hand-built results (cache corruption, invariant tests) carry
        # stand-in energy objects with int, float and wrapped fields.
        class Wrapped:
            def __init__(self, energy):
                self._energy = energy

            def __getattr__(self, name):
                return getattr(self._energy, name)

        real = _layer_result().energy
        stand_ins = [
            SimpleNamespace(
                mac_mj=1,
                pe_buffer_mj=2,
                gb_mj=0.1,
                dram_mj=-0.0,
                network=SimpleNamespace(
                    eo_mj=3,
                    oe_mj=0.2,
                    heating_mj=1e-300,
                    laser_mj=1e300,
                    electrical_mj=0,
                ),
            ),
            Wrapped(real),
            real,
            Wrapped(real),
        ]
        layers = [SimpleNamespace(energy=e) for e in stand_ins]
        result = ModelResult(accelerator="SPACX", model="m", layers=layers)
        assert type(result.energy) is EnergyBreakdown
        assert _bits(result.energy) == _bits(_reference_energy(layers))
