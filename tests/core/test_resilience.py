"""Fault-tolerant campaign execution: isolation, retry, timeout, resume.

Exercises the hardened :class:`repro.core.batch.SweepRunner` with the
crash-injection helpers from :mod:`crashkit`:

* a raising / crashing / hanging job never takes sibling jobs down
  (``--workers 2`` isolation);
* failed attempts are retried up to the bound with backoff, and the
  attempt count is visible in the stats;
* hung attempts are terminated at the per-job timeout;
* a campaign killed mid-run (SIGKILL) resumes byte-identical to an
  uninterrupted run via the manifest + disk cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from crashkit import CrashingSimulator
from repro.core import batch
from repro.core.batch import NullCache, ResultCache, SweepJob, SweepJobError, SweepRunner
from repro.core.campaign import (
    CampaignManifest,
    job_content_key,
    read_manifest_events,
)
from repro.core.invariants import InvariantViolation
from repro.core.layer import ConvLayer, LayerSet
from repro.spacx.architecture import spacx_simulator

SRC_DIR = Path(__file__).resolve().parents[2] / "src"
GOLDEN_DIGEST = (
    Path(__file__).resolve().parents[1] / "golden" / "full_sweep_digest.json"
)


def _layer(name, **kw):
    shape = dict(c=4, k=4, r=3, s=3, h=6, w=6)
    shape.update(kw)
    return ConvLayer(name=name, **shape)


def _models(n=3):
    return [
        LayerSet(f"net-{i}", [_layer(f"l{i}", c=2 + i, k=4 + i)])
        for i in range(n)
    ]


def _digest(results) -> str:
    """Canonical content digest of a ``run_models`` result tree."""
    from repro.serialization import model_result_to_dict

    canonical = json.dumps(
        {
            model: {
                acc: model_result_to_dict(res)
                for acc, res in per_acc.items()
            }
            for model, per_acc in results.items()
        },
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.fixture(scope="module")
def simulator():
    return spacx_simulator()


# ----------------------------------------------------------------------
# Isolation: one bad job never poisons the others
# ----------------------------------------------------------------------
class TestIsolation:
    def test_parallel_crashing_job_is_isolated(self, simulator):
        models = _models(3)
        serial = SweepRunner(
            max_workers=1, cache=NullCache(), manifest=False
        ).run([SweepJob(simulator, m) for m in models])
        jobs = [
            SweepJob(simulator, models[0]),
            SweepJob(CrashingSimulator(simulator), models[1]),
            SweepJob(simulator, models[2]),
        ]
        runner = SweepRunner(
            max_workers=2, cache=NullCache(), manifest=False, on_error="skip"
        )
        results = runner.run(jobs)
        assert not runner.used_fallback
        assert results[1] is None
        assert results[0].execution_time_s == serial[0].execution_time_s
        assert results[2].execution_time_s == serial[2].execution_time_s
        [failure] = runner.failures
        assert failure.index == 1
        assert failure.error_type == "RuntimeError"
        assert failure.message == "injected crash"
        assert failure.attempts == 1
        assert failure.phase == "parallel"
        report = runner.campaign_report()
        assert "2/3 jobs succeeded" in report
        assert "net-1" in report and "FAILED" in report

    def test_parallel_worker_crash_is_isolated(self, simulator):
        models = _models(2)
        jobs = [
            SweepJob(CrashingSimulator(simulator, mode="exit"), models[0]),
            SweepJob(simulator, models[1]),
        ]
        runner = SweepRunner(
            max_workers=2, cache=NullCache(), manifest=False, on_error="skip"
        )
        results = runner.run(jobs)
        assert results[0] is None and results[1] is not None
        [failure] = runner.failures
        assert failure.error_type == "WorkerCrashed"

    def test_on_error_raise_surfaces_job_failure(self, simulator):
        models = _models(2)
        jobs = [
            SweepJob(CrashingSimulator(simulator), models[0]),
            SweepJob(simulator, models[1]),
        ]
        runner = SweepRunner(
            max_workers=2, cache=NullCache(), manifest=False, on_error="raise"
        )
        with pytest.raises(SweepJobError, match="injected crash"):
            runner.run(jobs)

    def test_serial_crashing_job_is_isolated(self, simulator):
        models = _models(2)
        jobs = [
            SweepJob(CrashingSimulator(simulator), models[0]),
            SweepJob(simulator, models[1]),
        ]
        runner = SweepRunner(
            max_workers=1, cache=NullCache(), manifest=False, on_error="skip"
        )
        results = runner.run(jobs)
        assert results[0] is None and results[1] is not None
        [failure] = runner.failures
        assert failure.phase == "serial"


# ----------------------------------------------------------------------
# Retry with backoff
# ----------------------------------------------------------------------
class TestRetry:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_flaky_job_succeeds_after_retry(self, simulator, tmp_path, workers):
        models = _models(2)
        flaky = CrashingSimulator(
            simulator,
            fail_times=1,
            counter_path=tmp_path / "counter",
        )
        runner = SweepRunner(
            max_workers=workers,
            cache=NullCache(),
            manifest=False,
            retries=2,
            backoff_s=0.01,
            on_error="raise",
        )
        results = runner.run(
            [SweepJob(flaky, models[0]), SweepJob(simulator, models[1])]
        )
        assert all(r is not None for r in results)
        assert not runner.failures
        flaky_stat = next(s for s in runner.stats if s.model == "net-0")
        assert flaky_stat.attempts == 2
        assert not flaky_stat.failed

    def test_retry_budget_is_bounded(self, simulator, tmp_path):
        models = _models(2)
        always = CrashingSimulator(
            simulator,
            fail_times=10_000,
            counter_path=tmp_path / "counter",
        )
        runner = SweepRunner(
            max_workers=2,
            cache=NullCache(),
            manifest=False,
            retries=2,
            backoff_s=0.01,
            on_error="skip",
        )
        results = runner.run(
            [SweepJob(always, models[0]), SweepJob(simulator, models[1])]
        )
        assert results[0] is None and results[1] is not None
        [failure] = runner.failures
        assert failure.attempts == 3  # 1 initial + 2 retries
        # Attempts run in pool worker processes: the file counter
        # proves three separate attempts actually executed.
        assert (tmp_path / "counter").stat().st_size == 3

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError):
            SweepRunner(retries=-1, manifest=False)


# ----------------------------------------------------------------------
# Timeout
# ----------------------------------------------------------------------
class TestTimeout:
    def test_hung_job_is_terminated(self, simulator):
        models = _models(2)
        jobs = [
            SweepJob(
                CrashingSimulator(simulator, mode="hang", hang_s=60.0),
                models[0],
            ),
            SweepJob(simulator, models[1]),
        ]
        runner = SweepRunner(
            max_workers=2,
            cache=NullCache(),
            manifest=False,
            timeout_s=0.5,
            on_error="skip",
        )
        results = runner.run(jobs)
        assert results[0] is None and results[1] is not None
        [failure] = runner.failures
        assert failure.error_type == "TimeoutError"
        [stat] = [s for s in runner.stats if s.failed]
        assert stat.wall_time_s < 30.0  # terminated, not waited out

    def test_rejects_non_positive_timeout(self):
        with pytest.raises(ValueError):
            SweepRunner(timeout_s=0.0, manifest=False)


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
class TestResume:
    def test_failed_campaign_resumes_to_identical_results(
        self, simulator, tmp_path
    ):
        """skip -> fix -> resume reproduces the clean run exactly."""
        models = _models(3)
        clean = SweepRunner(
            max_workers=1, cache=NullCache(), manifest=False
        ).run([SweepJob(simulator, m) for m in models])

        cache_dir = tmp_path / "cache"
        first = SweepRunner(
            max_workers=1,
            cache=ResultCache(cache_dir=cache_dir),
            manifest=CampaignManifest(cache_dir),
            on_error="skip",
        )
        broken = [
            SweepJob(simulator, models[0]),
            SweepJob(CrashingSimulator(simulator), models[1]),
            SweepJob(simulator, models[2]),
        ]
        partial = first.run(broken)
        assert partial[1] is None
        assert first.manifest.completed == 2
        assert first.manifest.failed == 1

        # The crashing wrapper delegates spec/energy models, so the
        # fixed job has the same content key and the manifest matches.
        fixed = [SweepJob(simulator, m) for m in models]
        assert job_content_key(broken[1]) == job_content_key(fixed[1])
        second = SweepRunner(
            max_workers=1,
            cache=ResultCache(cache_dir=cache_dir),
            manifest=CampaignManifest(cache_dir),
        )
        resumed = second.run(fixed, resume=True)
        assert second.manifest.resumed
        assert second.resumed_jobs == 2
        modes = {s.index: s.mode for s in second.stats}
        assert modes == {0: "resumed", 1: "grid", 2: "resumed"}
        for a, b in zip(resumed, clean):
            assert a.execution_time_s == b.execution_time_s
            assert a.energy.total_mj == b.energy.total_mj

    def test_foreign_manifest_is_not_resumed(self, simulator, tmp_path):
        models = _models(2)
        manifest = CampaignManifest(tmp_path)
        runner = SweepRunner(
            max_workers=1, cache=NullCache(), manifest=manifest
        )
        runner.run([SweepJob(simulator, m) for m in models])
        # A different campaign (other model set) must start fresh.
        other = SweepRunner(
            max_workers=1,
            cache=NullCache(),
            manifest=CampaignManifest(tmp_path),
        )
        other.run([SweepJob(simulator, _models(3)[2])], resume=True)
        assert not other.manifest.resumed
        assert other.resumed_jobs == 0


# ----------------------------------------------------------------------
# One failure, one record: every route settles an attempt the same way
# ----------------------------------------------------------------------
#: Runner arguments that pin each route.  ``vectorize=False`` makes the
#: injected simulators' own ``simulate_layer`` run; the grid route needs
#: the kernel, so it only replays the audit probe.
_ROUTES = {
    "serial": dict(max_workers=1, exec_plan="serial", vectorize=False),
    "pool": dict(max_workers=2, exec_plan="pool", vectorize=False),
    "grid": dict(max_workers=1, exec_plan="auto", vectorize=True),
}

#: probe -> (routes that replay it, attempts the failing job takes).
_PROBES = {
    # The post-run audit flags the first attempt's result.
    "audit": (("serial", "pool", "grid"), 1),
    # The first attempt raises; the audit flags the retry's result.
    "retried-audit": (("serial", "pool"), 2),
    # The simulator raises a violation itself, as strict mode does.
    "strict": (("serial", "pool"), 1),
}


def _flag_net0(monkeypatch):
    """Make the runner's post-run audit flag every ``net-0`` result."""
    real = batch.audit_model_result

    def audit(result, spec, **kwargs):
        if result.model == "net-0":
            return [
                InvariantViolation(
                    code="INV-TIME-NEG",
                    message="injected audit finding",
                    accelerator=result.accelerator,
                    layer=result.model,
                )
            ]
        return real(result, spec, **kwargs)

    monkeypatch.setattr(batch, "audit_model_result", audit)


@pytest.mark.parametrize("probe", sorted(_PROBES))
def test_one_failure_one_record_on_every_route(
    simulator, tmp_path, monkeypatch, probe
):
    routes, attempts = _PROBES[probe]
    if probe != "strict":
        _flag_net0(monkeypatch)
    models = _models(2)
    records = {}
    for route in routes:
        if probe == "audit":
            failing = simulator
        elif probe == "retried-audit":
            failing = CrashingSimulator(
                simulator, fail_times=1, counter_path=tmp_path / route
            )
        else:
            failing = CrashingSimulator(simulator, mode="violate")
        manifest_dir = tmp_path / f"{route}-campaign"
        with SweepRunner(
            **_ROUTES[route],
            cache=NullCache(),
            manifest=CampaignManifest(manifest_dir),
            retries=2,
            backoff_s=0.05,
            on_error="skip",
            budget=False,
        ) as runner:
            results = runner.run(
                [SweepJob(failing, models[0]), SweepJob(simulator, models[1])]
            )
        assert not runner.used_fallback
        assert results[0] is None and results[1] is not None
        [failure] = runner.failures
        records[route] = {
            "error_type": failure.error_type,
            "message": failure.message,
            "attempts": failure.attempts,
            "wall_times": len(failure.attempt_wall_times_s),
            "backoff_slept_s": failure.backoff_slept_s,
            "violations": failure.violations,
            "quarantined": failure.quarantined,
            "stats": [(s.index, s.attempts, s.failed) for s in runner.stats],
            "manifest": sorted(
                (e["index"], e["event"], e.get("error"), e.get("attempts"))
                for e in read_manifest_events(manifest_dir)[1:]
            ),
        }
    serial = records["serial"]
    for route, record in records.items():
        assert record == serial, route
    assert serial["error_type"] == "InvariantViolationError"
    assert serial["attempts"] == attempts
    assert serial["wall_times"] == attempts
    assert (serial["backoff_slept_s"] > 0) == (attempts > 1)
    assert [v["code"] for v in serial["violations"]] == ["INV-TIME-NEG"]
    assert serial["manifest"][0][:2] == (0, "failed")
    assert serial["manifest"][1][:2] == (1, "done")


_KILL_SCRIPT = """
import os, signal
from repro.core import batch
from repro.core.campaign import CampaignManifest
from repro.experiments.harness import default_trio, run_models

cache_dir = os.environ["CAMPAIGN_DIR"]
state = {"jobs": 0}

def progress(stats):
    state["jobs"] += 1
    if state["jobs"] >= 4:
        os.kill(os.getpid(), signal.SIGKILL)

runner = batch.SweepRunner(
    max_workers=1,
    cache=batch.ResultCache(cache_dir=cache_dir),
    manifest=CampaignManifest(cache_dir),
    progress=progress,
)
run_models(default_trio(), runner=runner)
raise SystemExit("unreachable: the campaign should have been killed")
"""


@pytest.mark.slow
def test_killed_campaign_resumes_byte_identical(tmp_path):
    """SIGKILL mid-campaign, then resume: byte-identical to the golden
    uninterrupted sweep digest."""
    from repro.experiments.harness import default_trio, run_models

    cache_dir = tmp_path / "campaign"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    env["CAMPAIGN_DIR"] = str(cache_dir)
    proc = subprocess.run(
        [sys.executable, "-c", _KILL_SCRIPT],
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
    manifest_file = cache_dir / "campaign.jsonl"
    assert manifest_file.exists()

    runner = batch.SweepRunner(
        max_workers=1,
        cache=batch.ResultCache(cache_dir=cache_dir),
        manifest=CampaignManifest(cache_dir),
        resume=True,
    )
    jobs_total = len(list(default_trio())) * 4  # 4 evaluation models
    results = run_models(default_trio(), runner=runner)
    # The manifest really carried completed state across the kill ...
    assert runner.manifest.resumed
    assert 1 <= runner.resumed_jobs < jobs_total
    # ... and the resumed campaign reproduces the golden digest.
    golden = json.loads(GOLDEN_DIGEST.read_text())
    assert _digest(results) == golden["sha256"]
