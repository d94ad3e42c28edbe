"""Structural scalar fallback of the kernel, and how it composes with
the pool, the crash-injection kit and campaign resume.

The coverage registry (:func:`repro.core.vectorized.coverage_gap`)
must *decline* anything it does not fully understand -- a subclassed
simulator, an unregistered network-energy model -- so the sweep
engine runs the scalar oracle instead and reports why.  A wrong fast
answer is the one failure mode this layer may never have.  A runner
built with ``vectorize=False`` must keep the kernel out of every
dispatch path, worker processes included.
"""

from __future__ import annotations

import json

import pytest

from crashkit import CrashingSimulator
from repro.core import vectorized
from repro.core.batch import NullCache, ResultCache, SweepJob, SweepRunner
from repro.core.campaign import CampaignManifest
from repro.core.layer import ConvLayer, LayerSet
from repro.core.metrics import NetworkEnergy
from repro.core.simulator import Simulator
from repro.core.vectorized import coverage_gap, simulate_layers_vectorized
from repro.serialization import layer_result_to_dict, model_result_to_dict
from repro.spacx.architecture import spacx_simulator


def _layer(name, **kw):
    shape = dict(c=4, k=4, r=3, s=3, h=6, w=6)
    shape.update(kw)
    return ConvLayer(name=name, **shape)


def _models(n=3):
    # Two layers each, one shape repeated, so every job is a real
    # (if small) batch for the kernel.
    return [
        LayerSet(
            f"net-{i}",
            [
                _layer(f"l{i}a", c=2 + i, k=4 + i),
                _layer(f"l{i}b", c=2 + i, k=4 + i),
                _layer(f"l{i}c", c=3 + i, k=2 + i, h=8, w=8),
            ],
        )
        for i in range(n)
    ]


def _digest(results) -> str:
    return json.dumps(
        [None if r is None else model_result_to_dict(r) for r in results],
        sort_keys=True,
    )


class FlatNetworkEnergy:
    """A stand-in interconnect model the kernel has no lowering for."""

    def network_energy(self, mapping, traffic, execution_time_s):
        return NetworkEnergy(electrical_mj=1e-6 * execution_time_s)


def _custom_simulator() -> Simulator:
    base = spacx_simulator()
    return Simulator(
        base.spec, base.compute_energy, FlatNetworkEnergy(), strict=False
    )


# ----------------------------------------------------------------------
# Coverage registry: decline, never guess
# ----------------------------------------------------------------------
def _assert_scalar_routed(simulator, name):
    """The one-machine entry declines with ``name`` in the reason and
    returns the scalar simulator's result."""
    reasons = []
    [result] = simulate_layers_vectorized(
        simulator, [_layer("probe")], on_fallback=reasons.append
    )
    assert len(reasons) == 1 and name in reasons[0]
    scalar = simulator.simulate_layer(_layer("probe"), layer_by_layer=False)
    assert layer_result_to_dict(result) == layer_result_to_dict(scalar)


def test_unregistered_network_model_is_a_coverage_gap():
    simulator = _custom_simulator()
    gap = coverage_gap(simulator)
    assert gap is not None and "FlatNetworkEnergy" in gap
    _assert_scalar_routed(simulator, "FlatNetworkEnergy")


def test_subclassed_simulator_is_a_coverage_gap():
    class TracingSimulator(Simulator):
        pass

    base = spacx_simulator()
    simulator = TracingSimulator(
        base.spec, base.compute_energy, base.network_energy, strict=False
    )
    gap = coverage_gap(simulator)
    assert gap is not None and "TracingSimulator" in gap
    _assert_scalar_routed(simulator, "TracingSimulator")


def test_runner_records_fallback_and_matches_scalar():
    """An uncovered machine in a vectorized campaign: its jobs run on
    the scalar oracle, one reason lands in ``grid_fallbacks`` and
    ``campaign_report()``, and results equal a scalar campaign."""
    models = _models(2)
    custom = _custom_simulator()
    stock = spacx_simulator()
    jobs = [SweepJob(sim, m) for m in models for sim in (custom, stock)]

    fast_runner = SweepRunner(
        max_workers=1, cache=NullCache(), manifest=False, vectorize=True
    )
    fast = fast_runner.run(jobs)
    scalar = SweepRunner(
        max_workers=1, cache=NullCache(), manifest=False, vectorize=False
    ).run([SweepJob(sim, m) for m in models for sim in (custom, stock)])
    assert _digest(fast) == _digest(scalar)

    [(accelerator, reason)] = fast_runner.grid_fallbacks
    assert accelerator == custom.spec.name
    assert "FlatNetworkEnergy" in reason
    report = fast_runner.campaign_report()
    assert "grid fallback" in report and "FlatNetworkEnergy" in report


@pytest.mark.parametrize("exec_plan", ["serial", "auto"])
def test_scalar_runner_records_no_fallback(exec_plan):
    """``vectorize=False`` is a choice, not a coverage gap: the
    kernel never runs, so nothing is declined."""
    models = _models(1)
    runner = SweepRunner(
        max_workers=1,
        cache=NullCache(),
        manifest=False,
        vectorize=False,
        exec_plan=exec_plan,
    )
    chosen = runner.run([SweepJob(spacx_simulator(), models[0])])
    assert not runner.grid_fallbacks
    fast = SweepRunner(
        max_workers=1, cache=NullCache(), manifest=False
    ).run([SweepJob(spacx_simulator(), models[0])])
    assert _digest(chosen) == _digest(fast)


def test_scalar_mode_reaches_worker_processes(monkeypatch):
    """A ``vectorize=False`` runner ships its mode with every pooled
    batch: with the kernel's entry made to raise before the workers
    fork, every job still succeeds."""

    def kernel_ran(*args, **kwargs):
        raise RuntimeError("kernel ran")

    monkeypatch.setattr(vectorized, "simulate_layers_vectorized", kernel_ran)
    stock = spacx_simulator()
    with SweepRunner(
        max_workers=2,
        cache=NullCache(),
        manifest=False,
        vectorize=False,
        exec_plan="pool",
        on_error="skip",
    ) as runner:
        results = runner.run([SweepJob(stock, m) for m in _models(4)])
    assert not runner.failures, [f.message for f in runner.failures]
    assert all(result is not None for result in results)


# ----------------------------------------------------------------------
# Composition: pool x vectorize x crash injection x resume
# ----------------------------------------------------------------------
def test_pooled_vectorized_campaign_crash_resume_identical(tmp_path):
    """A pooled vectorized campaign with a crashing job resumes to the
    exact results of an uninterrupted scalar campaign."""
    models = _models(3)
    stock = spacx_simulator()
    clean = SweepRunner(
        max_workers=1, cache=NullCache(), manifest=False, vectorize=False
    ).run([SweepJob(stock, m) for m in models])

    cache_dir = tmp_path / "campaign"
    first = SweepRunner(
        max_workers=2,
        cache=ResultCache(cache_dir=cache_dir),
        manifest=CampaignManifest(cache_dir),
        on_error="skip",
        vectorize=True,
    )
    broken = [
        SweepJob(stock, models[0]),
        SweepJob(CrashingSimulator(stock), models[1]),
        SweepJob(stock, models[2]),
    ]
    partial = first.run(broken)
    assert partial[1] is None
    assert first.manifest.completed == 2

    second = SweepRunner(
        max_workers=2,
        cache=ResultCache(cache_dir=cache_dir),
        manifest=CampaignManifest(cache_dir),
        vectorize=True,
    )
    resumed = second.run(
        [SweepJob(stock, m) for m in models], resume=True
    )
    assert second.resumed_jobs == 2
    assert _digest(resumed) == _digest(clean)


def test_crashing_proxy_is_itself_a_coverage_gap(tmp_path):
    """The crash-injection proxy is not a stock Simulator, so even its
    *successful* attempts take the scalar path -- never a fast guess
    about an instrumented machine."""
    stock = spacx_simulator()
    flaky = CrashingSimulator(
        stock, fail_times=1, counter_path=tmp_path / "counter"
    )
    assert coverage_gap(flaky) is not None
    runner = SweepRunner(
        max_workers=1,
        cache=NullCache(),
        manifest=False,
        retries=2,
        backoff_s=0.01,
        vectorize=True,
    )
    [result] = runner.run([SweepJob(flaky, _models(1)[0])])
    [scalar] = SweepRunner(
        max_workers=1, cache=NullCache(), manifest=False, vectorize=False
    ).run([SweepJob(stock, _models(1)[0])])
    assert _digest([result]) == _digest([scalar])
    assert runner.stats[0].attempts == 2
