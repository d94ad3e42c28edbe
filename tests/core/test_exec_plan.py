"""Unit tests of the campaign execution planner's control surface.

The bit-identity of every plan is proven in
``test_grid_oracle.py``; these tests pin the *bookkeeping*: the run
record (:class:`RunConfig`) every runner takes its defaults from and
its one validation, the plan validation, the :class:`PlanDecision`
records, and how decisions surface in ``campaign_report()`` (text and
dict forms) -- the operator's only window into why a campaign ran the
way it did.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import batch, store
from repro.core.batch import (
    CampaignBudget,
    NullCache,
    PlanDecision,
    RunConfig,
    SweepJob,
    SweepRunner,
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
# The run record: RunConfig, configure() and constructor arguments
# ----------------------------------------------------------------------
@pytest.fixture
def clean_env(monkeypatch):
    """No installed record, no shared cache and none of the record's
    variables set; all three come back after the test."""
    monkeypatch.setattr(batch, "_CONFIG", None)
    monkeypatch.setattr(batch, "_default_cache", None)
    for name in (
        "REPRO_SWEEP_WORKERS",
        "REPRO_SWEEP_CACHE",
        "REPRO_SWEEP_CACHE_DIR",
    ):
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


def test_from_env_reads_the_variables_and_flags_override(clean_env, tmp_path):
    assert RunConfig.from_env() == RunConfig()
    clean_env.setenv("REPRO_SWEEP_WORKERS", "3")
    clean_env.setenv("REPRO_SWEEP_CACHE", "0")
    clean_env.setenv("REPRO_SWEEP_CACHE_DIR", str(tmp_path))
    config = RunConfig.from_env()
    assert (config.workers, config.cache_enabled, config.cache_dir) == (
        3,
        False,
        str(tmp_path),
    )
    # A runner built with no record installed reads the same values.
    runner = SweepRunner()
    assert runner.max_workers == 3
    assert isinstance(runner.cache, NullCache)
    assert runner.manifest.path.parent == tmp_path
    # Flags win over the environment; None means "not given".
    flagged = RunConfig.from_env(
        workers=2, cache_enabled=True, cache_dir=None, retries=1
    )
    assert (
        flagged.workers,
        flagged.cache_enabled,
        flagged.cache_dir,
        flagged.retries,
    ) == (2, True, str(tmp_path), 1)


def test_default_workers_rejects_non_integer_env(clean_env):
    clean_env.setenv("REPRO_SWEEP_WORKERS", "two")
    with pytest.raises(ConfigError, match="REPRO_SWEEP_WORKERS"):
        RunConfig.from_env()
    # With no record installed every construction parses the
    # environment, so a malformed value fails even when every
    # argument is explicit ...
    with pytest.raises(ConfigError, match="REPRO_SWEEP_WORKERS"):
        _runner()
    # ... and an installed record is not read from it.
    batch.configure(RunConfig())
    assert _runner().max_workers == 1


@pytest.mark.parametrize("workers", [0, -3])
def test_non_positive_workers_fail_alike_from_every_source(
    clean_env, capsys, tmp_path, workers
):
    from repro.cli import main
    from repro.service import CampaignService

    # The record, a flag and a constructor argument share one rule ...
    with pytest.raises(ConfigError, match="workers must be >= 1"):
        RunConfig(workers=workers)
    with pytest.raises(ConfigError, match="workers must be >= 1"):
        RunConfig.from_env(workers=workers)
    with pytest.raises(ConfigError, match="workers must be >= 1"):
        _runner(max_workers=workers)
    # ... the service checks it when built, not inside a slot thread ...
    with pytest.raises(ConfigError, match="workers must be >= 1"):
        CampaignService(tmp_path / "data", workers=workers)
    # ... the CLI exits 2 instead of running serially ...
    assert main(["--workers", str(workers), "tables"]) == 2
    assert "workers must be >= 1" in capsys.readouterr().err
    # ... and the environment is refused, not clamped to 1.
    clean_env.setenv("REPRO_SWEEP_WORKERS", str(workers))
    with pytest.raises(ConfigError, match="REPRO_SWEEP_WORKERS.*at least 1"):
        RunConfig.from_env()
    assert main(["tables"]) == 2
    assert "REPRO_SWEEP_WORKERS" in capsys.readouterr().err


def test_fsync_policy_rejects_unknown_env(monkeypatch):
    monkeypatch.setenv("REPRO_STORE_FSYNC", "Always")
    assert store.fsync_policy() == "always"
    # A typo must not silently mean "auto" (shards never fsynced).
    monkeypatch.setenv("REPRO_STORE_FSYNC", "alway")
    with pytest.raises(ConfigError, match="REPRO_STORE_FSYNC.*always"):
        store.fsync_policy()


def test_default_cache_rejects_non_binary_env(clean_env):
    clean_env.setenv("REPRO_SWEEP_CACHE", "0")
    assert isinstance(batch.default_cache(), NullCache)
    # "off" / "false" must not silently leave the cache on.
    for value in ("off", "false"):
        clean_env.setenv("REPRO_SWEEP_CACHE", value)
        with pytest.raises(ConfigError, match="REPRO_SWEEP_CACHE.*0 or 1"):
            batch.default_cache()


def test_default_cache_and_manifest_follow_the_record(clean_env, tmp_path):
    shared = batch.default_cache()
    assert batch.default_cache() is shared
    assert shared.cache_dir is None and batch.default_manifest() is None
    batch.configure(RunConfig(cache_dir=str(tmp_path)))
    assert batch.default_cache().cache_dir == tmp_path
    assert batch.default_manifest().path.parent == tmp_path
    batch.configure(None)
    assert batch.default_cache().cache_dir is None


@pytest.mark.parametrize(
    "name, value",
    [
        ("REPRO_SWEEP_WORKERS", "x"),
        ("REPRO_STORE_FSYNC", "alway"),
        ("REPRO_SWEEP_CACHE", "off"),
    ],
)
def test_cli_exits_2_on_malformed_env(clean_env, capsys, name, value):
    from repro.cli import main

    clean_env.setenv(name, value)
    assert main(["tables"]) == 2
    assert name in capsys.readouterr().err


def test_configure_installs_a_whole_record(clean_env):
    first = RunConfig(retries=1)
    assert batch.configure(first) is None
    assert batch.run_config() is first
    second = RunConfig(audit=False)
    assert batch.configure(second) is first
    # Nothing of the first record survives the second.
    assert batch.run_config().retries == 0
    assert batch.configure(None) is second
    assert batch.run_config() == RunConfig.from_env()


@pytest.mark.parametrize(
    "field, value",
    [
        ("timeout_s", 0.0),
        ("timeout_s", -1.0),
        ("timeout_s", float("nan")),
        ("retries", -1),
        ("on_error", "explode"),
    ],
)
def test_bad_retry_policy_fails_alike_from_every_source(
    clean_env, field, value
):
    with pytest.raises(ConfigError, match=field) as record:
        RunConfig(**{field: value})
    with pytest.raises(ConfigError, match=field) as flag:
        RunConfig.from_env(**{field: value})
    batch.configure(RunConfig())
    with pytest.raises(ConfigError, match=field) as argument:
        _runner(**{field: value})
    assert str(record.value) == str(flag.value) == str(argument.value)
    assert isinstance(argument.value, ValueError)


def test_explicit_arguments_win_over_the_record(clean_env):
    budget = CampaignBudget(deadline_s=60.0)
    record = RunConfig(
        workers=3,
        timeout_s=5.0,
        retries=2,
        on_error="skip",
        resume=True,
        audit=False,
        budget=budget,
        retry_quarantined=True,
    )
    batch.configure(record)

    def view(runner):
        return (
            runner.max_workers,
            runner.timeout_s,
            runner.retries,
            runner.on_error,
            runner.resume,
            runner.audit,
            runner.budget,
            runner.retry_quarantined,
        )

    inherited = SweepRunner(cache=NullCache(), manifest=False)
    assert view(inherited) == (3, 5.0, 2, "skip", True, False, budget, True)
    explicit = SweepRunner(
        1,
        NullCache(),
        timeout_s=9.0,
        retries=0,
        on_error="raise",
        manifest=False,
        resume=False,
        audit=True,
        budget=False,
        retry_quarantined=False,
    )
    assert view(explicit) == (1, 9.0, 0, "raise", False, True, None, False)
    assert batch.run_config() is record


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
