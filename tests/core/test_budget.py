"""Graceful degradation: budgets, watchdogs, quarantine, draining.

Exercises the :mod:`repro.core.budget` layer through the hardened
:class:`repro.core.batch.SweepRunner`:

* a campaign deadline (or failure budget) stops dispatch, drains, and
  returns a structured partial :class:`CampaignOutcome` -- and a later
  ``resume=True`` finishes the campaign byte-identically;
* the sliding-window circuit breaker bounds a 100%-failing campaign
  to O(window) attempts instead of jobs x retries x backoff;
* a job whose attempts keep killing workers is quarantined (distinct
  manifest entry), skipped by a plain resume, and re-eligible under
  ``retry_quarantined``;
* pool workers breaching the RSS budget are terminated by the
  parent's watchdog (or fail worker-side under ``RLIMIT_AS``) with a
  structured ``MemoryBudgetExceeded`` failure -- the host survives;
* SIGINT under :class:`GracefulDrain` drains in flight attempts and
  leaves a resumable manifest (in-process and subprocess variants).
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

from crashkit import BalloonSimulator, CrashingSimulator, sigint_after
from repro.core import batch
from repro.core.batch import (
    NullCache,
    ResultCache,
    SweepJob,
    SweepRunner,
)
from repro.core.budget import (
    EXIT_BUDGET_STOPPED,
    CampaignBudget,
    CampaignOutcome,
    CircuitBreaker,
    GracefulDrain,
    clear_global_stop,
    compose_budgets,
    global_stop,
    request_global_stop,
)
from repro.core.campaign import CampaignManifest
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


@pytest.fixture(scope="module")
def simulator():
    return spacx_simulator()


@pytest.fixture(autouse=True)
def _clean_global_stop():
    clear_global_stop()
    yield
    clear_global_stop()


# ----------------------------------------------------------------------
# Policy objects
# ----------------------------------------------------------------------
class TestPolicyObjects:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_s": 0.0},
            {"deadline_s": -1.0},
            {"max_rss_mb": -5.0},
            {"worker_rlimit_mb": 0.0},
            {"max_failures": 0},
            {"max_consecutive_failures": -1},
            {"poison_threshold": 0},
            {"breaker_window": -1},
            {"breaker_threshold": 0.0},
            {"breaker_threshold": 1.5},
        ],
    )
    def test_budget_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            CampaignBudget(**kwargs)

    def test_all_none_budget_is_inert(self, simulator):
        runner = SweepRunner(
            max_workers=1,
            cache=NullCache(),
            manifest=False,
            budget=CampaignBudget(poison_threshold=None, breaker_window=0),
        )
        results = runner.run([SweepJob(simulator, m) for m in _models(2)])
        assert all(r is not None for r in results)
        assert not runner.stopped
        assert runner.outcome.stop_reason is None
        assert runner.outcome.completeness == 1.0

    def test_outcome_accounting(self):
        outcome = CampaignOutcome(
            total_jobs=4, done=2, failed=1, skipped=1, stop_reason="deadline"
        )
        assert outcome.stopped
        assert outcome.completeness == 0.5
        assert "stopped: deadline" in outcome.describe()
        payload = outcome.to_dict()
        assert payload["stopped"] is True
        assert payload["completeness"] == 0.5
        assert CampaignOutcome().completeness == 1.0

    def test_breaker_trips_only_on_full_window(self):
        breaker = CircuitBreaker(window=4, threshold=0.75)
        assert not breaker.record(False, "RuntimeError")
        assert not breaker.record(False, "RuntimeError")
        assert not breaker.record(False, "RuntimeError")
        assert breaker.record(False, "RuntimeError")
        assert breaker.tripped
        assert "RuntimeError x4" in breaker.diagnosis()

    def test_breaker_recovers_inside_window(self):
        breaker = CircuitBreaker(window=4, threshold=1.0)
        for _ in range(3):
            breaker.record(False, "RuntimeError")
        breaker.record(True)
        for _ in range(3):
            assert not breaker.record(False, "RuntimeError")
        assert breaker.record(False, "RuntimeError")

    def test_global_stop_first_wins(self):
        request_global_stop("signal", "first")
        request_global_stop("deadline", "second")
        assert global_stop() == ("signal", "first")
        clear_global_stop()
        assert global_stop() is None


# ----------------------------------------------------------------------
# Deadline / failure budgets -> drain -> resume
# ----------------------------------------------------------------------
class TestBudgetStops:
    def test_expired_deadline_skips_everything_resumably(
        self, simulator, tmp_path
    ):
        models = _models(3)
        clean = SweepRunner(
            max_workers=1, cache=NullCache(), manifest=False
        ).run([SweepJob(simulator, m) for m in models])

        cache_dir = tmp_path / "cache"
        first = SweepRunner(
            max_workers=1,
            cache=ResultCache(cache_dir=cache_dir),
            manifest=CampaignManifest(cache_dir),
            budget=CampaignBudget(deadline_s=1e-6),
        )
        partial = first.run([SweepJob(simulator, m) for m in models])
        assert partial == [None, None, None]
        assert first.stopped
        assert first.outcome.stop_reason == "deadline"
        assert "deadline" in first.outcome.diagnosis
        assert first.outcome.skipped == 3
        assert first.outcome.done == 0
        assert not first.failures  # skipped, not failed
        assert "stopped: deadline" in first.campaign_report()

        second = SweepRunner(
            max_workers=1,
            cache=ResultCache(cache_dir=cache_dir),
            manifest=CampaignManifest(cache_dir),
        )
        resumed = second.run(
            [SweepJob(simulator, m) for m in models], resume=True
        )
        assert not second.stopped
        for a, b in zip(resumed, clean):
            assert a.execution_time_s == b.execution_time_s
            assert a.energy.total_mj == b.energy.total_mj

    def test_mid_campaign_stop_drains_and_resumes(self, simulator, tmp_path):
        models = _models(4)
        clean = SweepRunner(
            max_workers=1, cache=NullCache(), manifest=False
        ).run([SweepJob(simulator, m) for m in models])

        cache_dir = tmp_path / "cache"
        holder = {}

        def stop_after_two(stats):
            if len(holder["runner"].stats) >= 2:
                holder["runner"].request_stop("deadline", "test stop")

        first = SweepRunner(
            max_workers=1,
            cache=ResultCache(cache_dir=cache_dir),
            manifest=CampaignManifest(cache_dir),
            progress=stop_after_two,
        )
        holder["runner"] = first
        partial = first.run([SweepJob(simulator, m) for m in models])
        assert first.outcome.done == 2
        assert first.outcome.skipped == 2
        assert first.manifest.completed == 2
        assert partial[2] is None and partial[3] is None
        # Completed prefix is already byte-identical.
        for a, b in zip(partial[:2], clean[:2]):
            assert a.execution_time_s == b.execution_time_s

        second = SweepRunner(
            max_workers=1,
            cache=ResultCache(cache_dir=cache_dir),
            manifest=CampaignManifest(cache_dir),
        )
        resumed = second.run(
            [SweepJob(simulator, m) for m in models], resume=True
        )
        assert second.manifest.resumed
        assert second.resumed_jobs == 2
        for a, b in zip(resumed, clean):
            assert a.execution_time_s == b.execution_time_s
            assert a.energy.total_mj == b.energy.total_mj

    def test_sticky_stop_spans_runs(self, simulator):
        runner = SweepRunner(
            max_workers=1, cache=NullCache(), manifest=False
        )
        runner.request_stop("deadline", "spent")
        results = runner.run([SweepJob(simulator, _models(1)[0])])
        assert results == [None]
        assert runner.outcome.stop_reason == "deadline"

    def test_max_failures_stops_campaign(self, simulator, tmp_path):
        models = _models(5)
        jobs = [
            SweepJob(CrashingSimulator(simulator), m) for m in models
        ]
        runner = SweepRunner(
            max_workers=1,
            cache=NullCache(),
            manifest=False,
            on_error="skip",
            budget=CampaignBudget(
                max_failures=2, poison_threshold=None, breaker_window=0
            ),
        )
        results = runner.run(jobs)
        assert results == [None] * 5
        assert runner.outcome.stop_reason == "max-failures"
        assert runner.outcome.failed == 2
        assert runner.outcome.skipped == 3
        assert len(runner.failures) == 2

    def test_max_consecutive_failures_stops_campaign(self, simulator):
        models = _models(6)
        jobs = [SweepJob(CrashingSimulator(simulator), m) for m in models]
        runner = SweepRunner(
            max_workers=1,
            cache=NullCache(),
            manifest=False,
            on_error="skip",
            budget=CampaignBudget(
                max_consecutive_failures=3,
                poison_threshold=None,
                breaker_window=0,
            ),
        )
        runner.run(jobs)
        assert runner.outcome.stop_reason == "max-consecutive-failures"
        assert len(runner.failures) == 3


# ----------------------------------------------------------------------
# Circuit breaker: systemic failure fails fast
# ----------------------------------------------------------------------
class TestCircuitBreakerCampaign:
    def test_all_failing_campaign_is_bounded_by_window(
        self, simulator, tmp_path
    ):
        counter = tmp_path / "counter"
        models = _models(25)
        jobs = [
            SweepJob(
                CrashingSimulator(
                    simulator, fail_times=10_000, counter_path=counter
                ),
                m,
            )
            for m in models
        ]
        runner = SweepRunner(
            max_workers=1,
            cache=NullCache(),
            manifest=False,
            on_error="skip",
            retries=2,
            backoff_s=0.001,
            budget=CampaignBudget(
                breaker_window=5,
                breaker_threshold=1.0,
                poison_threshold=None,
            ),
        )
        results = runner.run(jobs)
        assert all(r is None for r in results)
        assert runner.outcome.stop_reason == "breaker"
        assert "RuntimeError" in runner.outcome.diagnosis
        # O(window) attempts, not 25 jobs x 3 attempts.
        attempts_spent = counter.stat().st_size
        assert attempts_spent <= 7
        assert runner.outcome.skipped >= 20


# ----------------------------------------------------------------------
# Poison-job quarantine
# ----------------------------------------------------------------------
class TestQuarantine:
    def test_worker_killing_job_is_quarantined_then_retryable(
        self, simulator, tmp_path
    ):
        models = _models(3)
        clean = SweepRunner(
            max_workers=1, cache=NullCache(), manifest=False
        ).run([SweepJob(simulator, m) for m in models])

        cache_dir = tmp_path / "cache"
        poison = [
            SweepJob(simulator, models[0]),
            SweepJob(CrashingSimulator(simulator, mode="exit"), models[1]),
            SweepJob(simulator, models[2]),
        ]
        first = SweepRunner(
            max_workers=2,
            cache=ResultCache(cache_dir=cache_dir),
            manifest=CampaignManifest(cache_dir),
            on_error="skip",
            retries=5,
            backoff_s=0.001,
            budget=CampaignBudget(poison_threshold=2, breaker_window=0),
        )
        results = first.run(poison)
        assert results[1] is None
        assert results[0] is not None and results[2] is not None
        [failure] = first.failures
        assert failure.quarantined
        assert failure.error_type == "WorkerCrashed"
        # Quarantine overrides the remaining retry budget.
        assert failure.attempts == 2
        assert first.manifest.is_quarantined(1)
        assert first.outcome.quarantined == 1
        assert "[quarantined]" in failure.describe()
        assert "quarantined:" in first.campaign_report()

        # Plain resume: the poison job is never re-attempted.
        second = SweepRunner(
            max_workers=1,
            cache=ResultCache(cache_dir=cache_dir),
            manifest=CampaignManifest(cache_dir),
            budget=CampaignBudget(poison_threshold=2, breaker_window=0),
        )
        resumed = second.run(
            [SweepJob(simulator, m) for m in models], resume=True
        )
        assert resumed[1] is None
        assert second.outcome.quarantined == 1
        assert all(s.mode == "resumed" for s in second.stats)

        # Explicit retry_quarantined makes it eligible again; the
        # healthy job list then completes byte-identically.
        third = SweepRunner(
            max_workers=1,
            cache=ResultCache(cache_dir=cache_dir),
            manifest=CampaignManifest(cache_dir),
            retry_quarantined=True,
        )
        final = third.run(
            [SweepJob(simulator, m) for m in models], resume=True
        )
        assert not third.manifest.is_quarantined(1)
        for a, b in zip(final, clean):
            assert a.execution_time_s == b.execution_time_s
            assert a.energy.total_mj == b.energy.total_mj

    def test_raising_failures_are_not_quarantined(self, simulator, tmp_path):
        # Ordinary exceptions (not worker-killing) never trip the
        # poison counter, however many times they repeat.
        models = _models(1)
        runner = SweepRunner(
            max_workers=1,
            cache=NullCache(),
            manifest=False,
            on_error="skip",
            retries=4,
            backoff_s=0.001,
            budget=CampaignBudget(poison_threshold=2, breaker_window=0),
        )
        runner.run([SweepJob(CrashingSimulator(simulator), models[0])])
        [failure] = runner.failures
        assert not failure.quarantined
        assert failure.attempts == 5


# ----------------------------------------------------------------------
# Satellite: full-jitter backoff + failure timing forensics
# ----------------------------------------------------------------------
class TestJitterAndTimings:
    def test_jitter_stays_under_exponential_envelope(self, simulator):
        runner = SweepRunner(
            max_workers=1, cache=NullCache(), manifest=False, backoff_s=0.25
        )
        for attempt in range(1, 8):
            envelope = 0.25 * 2.0 ** (attempt - 1)
            for _ in range(50):
                assert 0.0 <= runner._backoff_delay(attempt) <= envelope

    def test_jitter_is_deterministic_per_campaign(self, simulator, tmp_path):
        models = _models(2)

        def delays(cache_dir):
            runner = SweepRunner(
                max_workers=1,
                cache=NullCache(),
                manifest=CampaignManifest(cache_dir),
            )
            runner.run([SweepJob(simulator, m) for m in models])
            return [runner._backoff_delay(a) for a in range(1, 6)]

        assert delays(tmp_path / "a") == delays(tmp_path / "b")

    def test_failure_carries_attempt_timings(self, simulator, tmp_path):
        models = _models(1)
        flaky = CrashingSimulator(
            simulator, fail_times=10_000, counter_path=tmp_path / "counter"
        )
        runner = SweepRunner(
            max_workers=1,
            cache=NullCache(),
            manifest=False,
            retries=1,
            backoff_s=0.001,
            on_error="skip",
            budget=False,
        )
        runner.run([SweepJob(flaky, models[0])])
        [failure] = runner.failures
        assert failure.attempts == 2
        assert len(failure.attempt_wall_times_s) == 2
        assert all(t >= 0.0 for t in failure.attempt_wall_times_s)
        assert failure.backoff_slept_s >= 0.0
        assert runner.outcome.retry_attempts == 1
        assert runner.outcome.retry_time_lost_s >= 0.0
        assert "retries: 1 retried attempt(s)" in runner.campaign_report()


# ----------------------------------------------------------------------
# Memory watchdogs (pool path)
# ----------------------------------------------------------------------
def _has_rlimit_as() -> bool:
    try:
        import resource

        resource.getrlimit(resource.RLIMIT_AS)
        return True
    except (ImportError, AttributeError, ValueError, OSError):
        return False


@pytest.mark.slow
class TestMemoryWatchdog:
    def test_rss_watchdog_kills_ballooning_worker_then_retries_solo(
        self, simulator, tmp_path
    ):
        if not os.path.exists("/proc/self/status"):
            pytest.skip("no /proc: parent RSS watchdog is inert")
        models = _models(2)
        balloon = BalloonSimulator(
            simulator,
            balloon_mb=700,
            linger_s=20.0,
            fail_times=1,
            counter_path=tmp_path / "counter",
        )
        runner = SweepRunner(
            max_workers=2,
            cache=NullCache(),
            manifest=False,
            retries=1,
            backoff_s=0.001,
            budget=CampaignBudget(
                max_rss_mb=400, poison_threshold=None, breaker_window=0
            ),
        )
        try:
            results = runner.run(
                [SweepJob(balloon, models[0]), SweepJob(simulator, models[1])]
            )
        finally:
            runner.close()
        # The balloon attempt was killed by the watchdog, retried solo
        # on a fresh worker, and the host survived to see both results.
        assert all(r is not None for r in results)
        assert not runner.failures
        balloon_stat = next(s for s in runner.stats if s.model == "net-0")
        assert balloon_stat.attempts == 2
        assert runner.pool_stats.workers_oom_killed >= 1
        assert "over RSS budget" in runner.pool_stats.describe()

    def test_rlimit_self_limit_fails_structurally(self, simulator, tmp_path):
        if not _has_rlimit_as():
            pytest.skip("platform lacks RLIMIT_AS")
        models = _models(2)
        balloon = BalloonSimulator(
            simulator, balloon_mb=8192, touch=False, linger_s=1.0
        )
        runner = SweepRunner(
            max_workers=2,
            cache=NullCache(),
            manifest=False,
            on_error="skip",
            budget=CampaignBudget(
                worker_rlimit_mb=4096,
                poison_threshold=None,
                breaker_window=0,
            ),
        )
        try:
            results = runner.run(
                [SweepJob(balloon, models[0]), SweepJob(simulator, models[1])]
            )
        finally:
            runner.close()
        assert results[0] is None and results[1] is not None
        [failure] = runner.failures
        assert failure.error_type == "MemoryBudgetExceeded"


# ----------------------------------------------------------------------
# Signal-safe draining shutdown
# ----------------------------------------------------------------------
class TestGracefulDrain:
    def test_sigint_drains_and_resumes_byte_identical(
        self, simulator, tmp_path
    ):
        models = _models(4)
        clean = SweepRunner(
            max_workers=1, cache=NullCache(), manifest=False
        ).run([SweepJob(simulator, m) for m in models])

        cache_dir = tmp_path / "cache"
        first = SweepRunner(
            max_workers=1,
            cache=ResultCache(cache_dir=cache_dir),
            manifest=CampaignManifest(cache_dir),
            progress=sigint_after(2),
        )
        with GracefulDrain():
            partial = first.run([SweepJob(simulator, m) for m in models])
        assert first.outcome.stop_reason == "signal"
        assert "SIGINT" in first.outcome.diagnosis
        done = sum(1 for r in partial if r is not None)
        assert 2 <= done < 4
        assert first.manifest.completed == done
        # The context manager cleared the process-wide flag on exit.
        assert global_stop() is None

        second = SweepRunner(
            max_workers=1,
            cache=ResultCache(cache_dir=cache_dir),
            manifest=CampaignManifest(cache_dir),
        )
        resumed = second.run(
            [SweepJob(simulator, m) for m in models], resume=True
        )
        assert second.manifest.resumed
        for a, b in zip(resumed, clean):
            assert a.execution_time_s == b.execution_time_s
            assert a.energy.total_mj == b.energy.total_mj

    def test_handlers_are_restored(self):
        before = signal.getsignal(signal.SIGINT)
        with GracefulDrain():
            assert signal.getsignal(signal.SIGINT) != before
        assert signal.getsignal(signal.SIGINT) == before


_DRAIN_SCRIPT = """
import os, signal, sys
from repro.core import batch
from repro.core.budget import EXIT_BUDGET_STOPPED, GracefulDrain
from repro.core.campaign import CampaignManifest
from repro.experiments.harness import default_trio, run_models

cache_dir = os.environ["CAMPAIGN_DIR"]
state = {"jobs": 0}

def progress(stats):
    state["jobs"] += 1
    if state["jobs"] == 4:
        os.kill(os.getpid(), signal.SIGINT)

runner = batch.SweepRunner(
    max_workers=2,
    cache=batch.ResultCache(cache_dir=cache_dir),
    manifest=CampaignManifest(cache_dir),
    progress=progress,
    vectorize=True,
)
with GracefulDrain():
    run_models(default_trio(), runner=runner)
runner.close()
sys.exit(EXIT_BUDGET_STOPPED if runner.stopped else 0)
"""


@pytest.mark.slow
def test_drained_campaign_resumes_to_golden_digest(tmp_path):
    """SIGINT mid-campaign under the pool + vectorized kernel: exit 3
    with a resumable manifest; resume reproduces the golden digest."""
    from repro.experiments.harness import default_trio, run_models

    cache_dir = tmp_path / "campaign"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    env["CAMPAIGN_DIR"] = str(cache_dir)
    proc = subprocess.run(
        [sys.executable, "-c", _DRAIN_SCRIPT],
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == EXIT_BUDGET_STOPPED, proc.stderr.decode()
    assert b"draining" in proc.stderr
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
    assert runner.manifest.resumed
    assert 1 <= runner.resumed_jobs < jobs_total

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
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    golden = json.loads(GOLDEN_DIGEST.read_text())
    assert digest == golden["sha256"]


class TestComposeBudgets:
    """Layered budgets (server default + tenant quota + request) must
    resolve tightest-wins, field by field."""

    def test_none_layers_are_ignored(self):
        assert compose_budgets(None, None) is None
        only = CampaignBudget(deadline_s=10)
        assert compose_budgets(None, only, None) is only

    def test_tightest_limit_wins_per_field(self):
        server = CampaignBudget(deadline_s=600, max_failures=100)
        tenant = CampaignBudget(deadline_s=60, max_rss_mb=512)
        request = CampaignBudget(max_failures=3)
        effective = compose_budgets(server, tenant, request)
        assert effective.deadline_s == 60
        assert effective.max_failures == 3
        assert effective.max_rss_mb == 512

    def test_missing_fields_stay_unset(self):
        effective = compose_budgets(
            CampaignBudget(deadline_s=5), CampaignBudget(deadline_s=7)
        )
        assert effective.deadline_s == 5
        assert effective.max_rss_mb is None

    def test_breaker_tightens_across_enabled_layers(self):
        loose = CampaignBudget(breaker_window=50, breaker_threshold=0.9)
        tight = CampaignBudget(breaker_window=10, breaker_threshold=0.5)
        disabled = CampaignBudget(breaker_window=0)
        effective = compose_budgets(loose, tight, disabled)
        assert effective.breaker_window == 10
        assert effective.breaker_threshold == 0.5

    def test_all_breakers_disabled_stays_disabled(self):
        effective = compose_budgets(
            CampaignBudget(breaker_window=0, deadline_s=1),
            CampaignBudget(breaker_window=0, deadline_s=2),
        )
        assert effective.breaker_window == 0
