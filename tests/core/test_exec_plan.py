"""Unit tests of the campaign execution planner's control surface.

The bit-identity of every plan is proven in
``test_grid_oracle.py``; these tests pin the *bookkeeping*: plan
defaults and their precedence chain, validation, the
:class:`PlanDecision` records, and how decisions surface in
``campaign_report()`` (text and dict forms) -- the operator's only
window into why a campaign ran the way it did.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import batch, store
from repro.core.batch import (
    NullCache,
    PlanDecision,
    SweepJob,
    SweepRunner,
    default_exec_plan,
    default_workers,
)
from repro.core.layer import ConvLayer, LayerSet
from repro.errors import ConfigError
from repro.spacx.architecture import spacx_simulator


def _model(i=0):
    return LayerSet(
        f"net-{i}",
        [ConvLayer(name=f"l{i}", c=4 + i, k=4, r=3, s=3, h=6, w=6)],
    )


def _pair():
    sibling = spacx_simulator(ef_granularity=2)
    sibling.spec = replace(sibling.spec, name="SPACX-ef2")
    return [spacx_simulator(), sibling]


def _runner(**kw):
    kw.setdefault("max_workers", 1)
    kw.setdefault("cache", NullCache())
    kw.setdefault("manifest", False)
    return SweepRunner(**kw)


# ----------------------------------------------------------------------
# PlanDecision
# ----------------------------------------------------------------------
def test_plan_decision_describe():
    plain = PlanDecision(plan="serial", jobs=3, reason="max_workers=1")
    assert plain.describe() == "serial x3 (max_workers=1)"
    grid = PlanDecision(
        plan="grid", jobs=4, reason="2 machine(s) x 9 shape(s)", lanes=18
    )
    assert grid.describe() == (
        "grid x4 (2 machine(s) x 9 shape(s)) [18 lanes]"
    )


# ----------------------------------------------------------------------
# Defaults: configure() > $REPRO_SWEEP_PLAN > "auto"
# ----------------------------------------------------------------------
def test_default_exec_plan_chain(monkeypatch):
    monkeypatch.setattr(batch._defaults, "exec_plan", None)
    monkeypatch.delenv("REPRO_SWEEP_PLAN", raising=False)
    assert default_exec_plan() == "auto"

    monkeypatch.setenv("REPRO_SWEEP_PLAN", "Serial ")
    assert default_exec_plan() == "serial"

    # Input from outside the process fails closed: a typo (or the
    # removed "grid" plan) names the variable and the accepted values.
    for typo in ("gird", "grid"):
        monkeypatch.setenv("REPRO_SWEEP_PLAN", typo)
        with pytest.raises(ConfigError, match="REPRO_SWEEP_PLAN.*auto"):
            default_exec_plan()

    # configure() wins over the environment.
    monkeypatch.setattr(batch._defaults, "exec_plan", "pool")
    assert default_exec_plan() == "pool"


def test_default_workers_rejects_non_integer_env(monkeypatch):
    monkeypatch.setattr(batch._defaults, "workers", None)
    monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
    assert default_workers() == 3
    monkeypatch.setenv("REPRO_SWEEP_WORKERS", "two")
    with pytest.raises(ConfigError, match="REPRO_SWEEP_WORKERS"):
        default_workers()


def test_fsync_policy_rejects_unknown_env(monkeypatch):
    monkeypatch.setenv("REPRO_STORE_FSYNC", "Always")
    assert store.fsync_policy() == "always"
    # A typo must not silently mean "auto" (shards never fsynced).
    monkeypatch.setenv("REPRO_STORE_FSYNC", "alway")
    with pytest.raises(ConfigError, match="REPRO_STORE_FSYNC.*always"):
        store.fsync_policy()


def test_default_cache_rejects_non_binary_env(monkeypatch):
    monkeypatch.setattr(batch._defaults, "cache_enabled", None)
    monkeypatch.setattr(batch, "_default_cache", None)
    monkeypatch.setenv("REPRO_SWEEP_CACHE", "0")
    assert isinstance(batch.default_cache(), NullCache)
    # "off" / "false" must not silently leave the cache on.
    for value in ("off", "false"):
        monkeypatch.setattr(batch, "_default_cache", None)
        monkeypatch.setenv("REPRO_SWEEP_CACHE", value)
        with pytest.raises(ConfigError, match="REPRO_SWEEP_CACHE.*0 or 1"):
            batch.default_cache()


@pytest.mark.parametrize(
    "name, value",
    [
        ("REPRO_SWEEP_PLAN", "grid"),
        ("REPRO_SWEEP_WORKERS", "x"),
        ("REPRO_STORE_FSYNC", "alway"),
        ("REPRO_SWEEP_CACHE", "off"),
    ],
)
def test_cli_exits_2_on_malformed_env(monkeypatch, capsys, name, value):
    from repro.cli import main

    monkeypatch.setattr(batch._defaults, "exec_plan", None)
    monkeypatch.setattr(batch._defaults, "workers", None)
    monkeypatch.setattr(batch._defaults, "cache_enabled", None)
    monkeypatch.setattr(batch, "_default_cache", None)
    monkeypatch.setenv(name, value)
    assert main(["tables"]) == 2
    assert name in capsys.readouterr().err


def test_runner_inherits_default_plan(monkeypatch):
    monkeypatch.setattr(batch._defaults, "exec_plan", "serial")
    assert _runner().exec_plan == "serial"
    assert _runner(exec_plan="pool").exec_plan == "pool"


def test_configure_rejects_unknown_plan():
    with pytest.raises(ValueError, match="exec_plan"):
        batch.configure(exec_plan="turbo")
    with pytest.raises(ValueError, match="exec_plan"):
        batch.configure(exec_plan="grid")


def test_runner_rejects_unknown_plan():
    with pytest.raises(ValueError, match="exec_plan"):
        _runner(exec_plan="turbo")


# ----------------------------------------------------------------------
# Decision records and reporting
# ----------------------------------------------------------------------
def test_forced_serial_records_one_decision():
    runner = _runner(exec_plan="serial")
    runner.run([SweepJob(sim, _model()) for sim in _pair()])
    assert [d.plan for d in runner.plan_decisions] == ["serial"]
    [decision] = runner.plan_decisions
    assert decision.jobs == 2
    assert decision.reason == "forced by exec_plan='serial'"
    assert all(s.mode == "serial" for s in runner.stats)


def test_forced_grid_records_lanes_and_modes():
    runner = _runner(exec_plan="auto")
    jobs = [SweepJob(sim, _model(i)) for sim in _pair() for i in range(2)]
    runner.run(jobs)
    grid_decisions = [d for d in runner.plan_decisions if d.plan == "grid"]
    assert grid_decisions and grid_decisions[0].lanes > 0
    assert runner.grid_lanes > 0
    assert runner.grid_machines == 2
    assert not runner.grid_fallbacks
    assert all(s.mode == "grid" for s in runner.stats)


def test_plan_decisions_reset_between_runs():
    runner = _runner(exec_plan="serial")
    runner.run([SweepJob(spacx_simulator(), _model())])
    runner.run([SweepJob(spacx_simulator(), _model())])
    assert len(runner.plan_decisions) == 1


def test_campaign_report_carries_plan():
    runner = _runner(exec_plan="auto")
    runner.run([SweepJob(sim, _model()) for sim in _pair()])
    report = runner.campaign_report()
    assert "plan:" in report
    for decision in runner.plan_decisions:
        assert decision.describe() in report

    payload = runner.campaign_report(as_dict=True)["plan"]
    assert payload["exec_plan"] == "auto"
    assert payload["grid_lanes"] == runner.grid_lanes
    assert payload["grid_machines"] == runner.grid_machines
    assert payload["grid_fallbacks"] == []
    assert [d["plan"] for d in payload["decisions"]] == [
        d.plan for d in runner.plan_decisions
    ]


def test_pool_stats_carry_plan_description():
    runner = _runner(max_workers=2, exec_plan="pool")
    jobs = [SweepJob(spacx_simulator(), _model(i)) for i in range(4)]
    runner.run(jobs)
    [decision] = runner.plan_decisions
    assert decision.plan == "pool"
    assert decision.reason == "forced by exec_plan='pool'"
    assert runner.pool_stats.plan == decision.describe()


def test_auto_prefers_serial_for_tiny_vectorized_campaigns():
    """The pool/serial inversion: a fistful of one-layer jobs must
    not pay process dispatch -- auto keeps them in-process."""
    runner = _runner(max_workers=4, exec_plan="auto")
    sims = _pair()
    runner.run([SweepJob(sims[i % 2], _model(i)) for i in range(6)])
    assert all(d.plan in ("grid", "serial") for d in runner.plan_decisions)


def test_auto_grids_a_lone_machine_over_its_models_union():
    """One machine x several models: one grid decision whose lanes
    cover the union of the models' shapes, and no serial decision."""
    runner = _runner(max_workers=1, exec_plan="auto")
    simulator = spacx_simulator()
    models = [_model(i) for i in range(3)] + [_model(0)]
    runner.run([SweepJob(simulator, model) for model in models])
    [decision] = runner.plan_decisions
    assert decision.plan == "grid"
    assert decision.jobs == len(models)
    assert decision.lanes == runner.grid_lanes == 3  # distinct shapes
    assert runner.grid_machines == 1
    assert all(s.mode == "grid" for s in runner.stats)
