"""The persistent warm-worker pool: equivalence, isolation, resume.

Pins the tentpole guarantees of :mod:`repro.core.pool`:

* **Bit-identical results.**  Serial and warm-pool execution of the
  full evaluation zoo produce the same canonical digest (anchored to
  the golden uninterrupted sweep).
* **Isolation is not weakened.**  A worker killed mid-batch loses only
  the job it was executing (a failed attempt in the retry path);
  queued batch-mates are re-dispatched without being charged an
  attempt, and the pool respawns the dead worker.  A hang past the
  heartbeat deadline terminates the worker the same way.
* **Campaign semantics hold.**  Retries/backoff, ``on_error``,
  structural serial fallback, manifest checkpointing and
  SIGKILL-and-resume behave exactly as on the serial path.
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
from repro.core import batch, store
from repro.core.batch import (
    NullCache,
    ResultCache,
    SweepJob,
    SweepRunner,
)
from repro.core.campaign import CampaignManifest
from repro.core.layer import ConvLayer, LayerSet
from repro.core.pool import MAX_BATCH_SIZE, WorkerPool, adaptive_batch_size
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
# Mechanism-level unit tests
# ----------------------------------------------------------------------
class TestAdaptiveBatching:
    def test_targets_four_waves_per_worker(self):
        assert adaptive_batch_size(8, 2) == 1
        assert adaptive_batch_size(16, 2) == 2
        # 200 ready on 2 workers: ceil(200/8) = 25 clamps to the cap.
        assert adaptive_batch_size(200, 2) == MAX_BATCH_SIZE

    def test_clamped_to_bounds(self):
        assert adaptive_batch_size(1, 8) == 1
        assert adaptive_batch_size(10_000, 1) == MAX_BATCH_SIZE
        assert adaptive_batch_size(0, 2) == 1


class TestWorkerPoolLifecycle:
    def test_context_manager_spawns_and_closes(self):
        with WorkerPool(2) as pool:
            assert len(pool.workers) == 2
            assert pool.stats.workers_spawned == 2
            assert all(w.process.is_alive() for w in pool.workers)
            procs = [w.process for w in pool.workers]
        assert pool.closed
        assert pool.workers == []
        for proc in procs:
            assert not proc.is_alive()

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_close_is_idempotent(self):
        pool = WorkerPool(1)
        pool.ensure_workers()
        pool.close()
        pool.close()
        assert pool.closed

    def test_concurrent_close_is_safe(self):
        """Signal-driven shutdown closes pools from several threads at
        once (drain handler, service scheduler, atexit); every close
        after the first must be a silent no-op, never a double
        teardown or an AttributeError on a half-cleared worker list."""
        import threading

        pool = WorkerPool(2)
        pool.ensure_workers()
        errors = []

        def close():
            try:
                pool.close()
            except Exception as exc:  # noqa: BLE001 -- the assertion
                errors.append(exc)

        threads = [threading.Thread(target=close) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert pool.closed
        assert pool.workers == []

    def test_close_after_killed_workers(self):
        """close() must stay silent when workers already died (e.g. a
        SIGKILLed process tree): dead pipes are not an error path."""
        pool = WorkerPool(2)
        pool.ensure_workers()
        for worker in pool.workers:
            worker.process.kill()
            worker.process.join(timeout=10.0)
        pool.close()
        pool.close()
        assert pool.closed

    def test_runner_discard_pool_races_with_close(self):
        """SweepRunner.close() from a shutdown thread while another
        thread discards the pool: the None handoff must be atomic."""
        import threading

        from repro.core import batch

        runner = batch.SweepRunner(max_workers=2)
        try:
            runner._ensure_pool()
            errors = []

            def close():
                try:
                    runner.close()
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=close) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            assert runner._pool is None
        finally:
            runner.close()


# ----------------------------------------------------------------------
# Tentpole: bit-identical across execution strategies (full zoo)
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_pool_and_serial_digests_are_identical():
    """Full-zoo digest equivalence, anchored to the golden digest."""
    from repro.experiments.harness import default_trio, run_models

    digests = {}
    for label, kwargs in {
        "serial": dict(max_workers=1),
        "pool": dict(max_workers=2),
    }.items():
        runner = SweepRunner(cache=NullCache(), manifest=False, **kwargs)
        results = run_models(default_trio(), runner=runner)
        assert not runner.used_fallback, (label, runner.fallback_reason)
        digests[label] = _digest(results)
        runner.close()
    assert digests["serial"] == digests["pool"]
    golden = json.loads(GOLDEN_DIGEST.read_text())
    assert digests["pool"] == golden["sha256"]


def test_pool_results_match_serial_small_campaign(simulator):
    models = _models(4)
    jobs = [SweepJob(simulator, m) for m in models]
    serial = SweepRunner(max_workers=1, cache=NullCache(), manifest=False)
    with SweepRunner(
        max_workers=2, cache=NullCache(), manifest=False, exec_plan="pool"
    ) as pooled:
        a = serial.run(jobs)
        b = pooled.run(jobs)
        assert not pooled.used_fallback
        assert {s.mode for s in pooled.stats} == {"pool"}
        for x, y in zip(a, b):
            assert x.execution_time_s == y.execution_time_s
            assert x.energy.total_mj == y.energy.total_mj


def test_pool_persists_across_runs_and_reports_stats(simulator):
    models = _models(4)
    jobs = [SweepJob(simulator, m) for m in models]
    with SweepRunner(
        max_workers=2, cache=NullCache(), manifest=False, exec_plan="pool"
    ) as runner:
        runner.run(jobs)
        runner.run(jobs)
        # Same workers served both runs: no respawns, no extra spawns.
        assert runner.pool_stats.workers_spawned == 2
        assert runner.pool_stats.workers_respawned == 0
        assert runner.pool_stats.jobs_completed == 8
        # The second run was answered from the workers' warm caches.
        assert runner.pool_stats.worker_cache_hits > 0
        report = runner.campaign_report()
        assert "pool:" in report
        assert "8 ok" in report


def test_pool_worker_cache_hits_reported_in_job_stats(simulator):
    # One model twice: the second job is a pure warm-cache hit inside
    # whichever worker saw the shape first *or* a parent-cache seed.
    model = _models(1)[0]
    jobs = [SweepJob(simulator, model) for _ in range(4)]
    with SweepRunner(
        max_workers=1, cache=NullCache(), manifest=False
    ) as runner:
        # max_workers=1 would short-circuit to serial via run();
        # drive the pool path directly to pin worker-side accounting.
        runner._run_pool(jobs)
        hits = sum(s.cache_hits for s in runner.stats)
        misses = sum(s.cache_misses for s in runner.stats)
        assert misses >= 1  # first sight of the shape
        assert hits >= 1  # later jobs answered warm
        assert runner.pool_stats.worker_cache_hits == hits
        assert runner.pool_stats.worker_cache_misses == misses


# ----------------------------------------------------------------------
# Isolation under the pool: crash / hang / retry
# ----------------------------------------------------------------------
class TestPoolIsolation:
    def test_worker_kill_mid_batch_loses_only_running_job(
        self, simulator, monkeypatch
    ):
        """One batch of six jobs; the worker dies on job #2.

        Jobs 0-1 already streamed their results, job 2 is a failed
        attempt (WorkerCrashed), jobs 3-5 were queued and must be
        re-dispatched to the respawned worker without an attempt
        charge.
        """
        models = _models(6)
        jobs = [SweepJob(simulator, m) for m in models]
        jobs[2] = SweepJob(CrashingSimulator(simulator, mode="exit"), models[2])
        # Force every job into one dispatched batch ...
        monkeypatch.setattr(
            "repro.core.pool.adaptive_batch_size", lambda *_: 6
        )
        with SweepRunner(
            max_workers=2,
            cache=NullCache(),
            manifest=False,
            on_error="skip",
            exec_plan="pool",  # ... rather than grid the stock jobs
        ) as runner:
            results = runner.run(jobs)
            assert not runner.used_fallback
            assert results[2] is None
            assert all(
                results[i] is not None for i in range(6) if i != 2
            )
            [failure] = runner.failures
            assert failure.index == 2
            assert failure.error_type == "WorkerCrashed"
            assert failure.attempts == 1
            assert failure.phase == "parallel"
            # The batch-mates were requeued, not failed.
            assert all(
                s.attempts == 1 for s in runner.stats if not s.failed
            )
            assert runner.pool_stats.workers_respawned >= 1
            assert runner.pool_stats.jobs_requeued >= 1

    def test_raising_job_is_isolated(self, simulator):
        models = _models(3)
        jobs = [
            SweepJob(simulator, models[0]),
            SweepJob(CrashingSimulator(simulator), models[1]),
            SweepJob(simulator, models[2]),
        ]
        with SweepRunner(
            max_workers=2,
            cache=NullCache(),
            manifest=False,
            on_error="skip",
        ) as runner:
            results = runner.run(jobs)
            assert results[1] is None
            assert results[0] is not None and results[2] is not None
            [failure] = runner.failures
            assert failure.error_type == "RuntimeError"
            assert failure.message == "injected crash"
            assert failure.phase == "parallel"
            # A raising job does not kill its worker: no respawn.
            assert runner.pool_stats.workers_respawned == 0

    def test_hang_past_deadline_terminates_worker(self, simulator):
        models = _models(2)
        jobs = [
            SweepJob(
                CrashingSimulator(simulator, mode="hang", hang_s=60.0),
                models[0],
            ),
            SweepJob(simulator, models[1]),
        ]
        with SweepRunner(
            max_workers=2,
            cache=NullCache(),
            manifest=False,
            timeout_s=0.5,
            on_error="skip",
        ) as runner:
            results = runner.run(jobs)
            assert results[0] is None and results[1] is not None
            [failure] = runner.failures
            assert failure.error_type == "TimeoutError"
            assert runner.pool_stats.workers_respawned >= 1
            [stat] = [s for s in runner.stats if s.failed]
            assert stat.wall_time_s < 30.0  # terminated, not waited out

    def test_flaky_job_retries_in_fresh_attempt(self, simulator, tmp_path):
        models = _models(2)
        flaky = CrashingSimulator(
            simulator,
            mode="exit",
            fail_times=1,
            counter_path=tmp_path / "counter",
        )
        with SweepRunner(
            max_workers=2,
            cache=NullCache(),
            manifest=False,
            retries=2,
            backoff_s=0.01,
            on_error="raise",
        ) as runner:
            results = runner.run(
                [SweepJob(flaky, models[0]), SweepJob(simulator, models[1])]
            )
            assert all(r is not None for r in results)
            assert not runner.failures
            flaky_stat = next(s for s in runner.stats if s.model == "net-0")
            assert flaky_stat.attempts == 2
            # The strike counter proves both attempts really executed.
            assert (tmp_path / "counter").stat().st_size == 2

    def test_on_error_raise_discards_stale_pool(self, simulator):
        models = _models(3)
        jobs = [
            SweepJob(CrashingSimulator(simulator), models[0]),
            SweepJob(simulator, models[1]),
            SweepJob(simulator, models[2]),
        ]
        runner = SweepRunner(
            max_workers=2,
            cache=NullCache(),
            manifest=False,
            on_error="raise",
        )
        with pytest.raises(batch.SweepJobError, match="injected crash"):
            runner.run(jobs)
        # A clean follow-up run must not be polluted by stale replies.
        clean = runner.run([SweepJob(simulator, m) for m in models])
        assert all(r is not None for r in clean)
        assert not runner.failures
        runner.close()

    def test_unpicklable_job_falls_back_to_serial(self, simulator):
        class Unpicklable(LayerSet):
            pass

        model = Unpicklable("local", [_layer("l0")])
        jobs = [SweepJob(simulator, model), SweepJob(simulator, _models(1)[0])]
        with SweepRunner(
            max_workers=2, cache=NullCache(), manifest=False, exec_plan="pool"
        ) as runner:
            results = runner.run(jobs)
            assert runner.used_fallback
            assert "pickle" in runner.fallback_reason.lower()
            assert all(r is not None for r in results)
            assert {s.mode for s in runner.stats} == {"serial"}


# ----------------------------------------------------------------------
# Manifest semantics under the pool
# ----------------------------------------------------------------------
def test_pool_campaign_manifest_has_no_lost_or_duplicate_entries(
    simulator, tmp_path, monkeypatch
):
    models = _models(6)
    jobs = [SweepJob(simulator, m) for m in models]
    jobs[3] = SweepJob(CrashingSimulator(simulator, mode="exit"), models[3])
    cache_dir = tmp_path / "campaign"
    # One six-job batch: the worker dies mid-batch on job #3.
    monkeypatch.setattr("repro.core.pool.adaptive_batch_size", lambda *_: 6)
    with SweepRunner(
        max_workers=2,
        cache=ResultCache(cache_dir=cache_dir),
        manifest=CampaignManifest(cache_dir),
        on_error="skip",
        exec_plan="pool",
    ) as runner:
        runner.run(jobs)
        assert runner.manifest.completed == 5
        assert runner.manifest.failed == 1
    entries = store.read_log(cache_dir / "campaign.jsonl")
    done = [e["index"] for e in entries if e.get("event") == "done"]
    assert sorted(done) == [0, 1, 2, 4, 5]  # every success exactly once
    assert len(done) == len(set(done))


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
    max_workers=2,
    cache=batch.ResultCache(cache_dir=cache_dir),
    manifest=CampaignManifest(cache_dir),
    progress=progress,
)
run_models(default_trio(), runner=runner)
raise SystemExit("unreachable: the campaign should have been killed")
"""


@pytest.mark.slow
def test_sigkill_under_pool_resumes_byte_identical(tmp_path):
    """SIGKILL a pooled campaign mid-run, resume, match the golden digest.

    The pool streams progress per completed job, so the kill lands
    with some jobs checkpointed and (likely) batches still in flight;
    orphaned warm workers must exit via the parent-death EOF cascade
    rather than leak.
    """
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
        max_workers=2,
        cache=batch.ResultCache(cache_dir=cache_dir),
        manifest=CampaignManifest(cache_dir),
        resume=True,
    )
    jobs_total = len(list(default_trio())) * 4  # 4 evaluation models
    results = run_models(default_trio(), runner=runner)
    assert runner.manifest.resumed
    assert 1 <= runner.resumed_jobs < jobs_total
    runner.close()
    golden = json.loads(GOLDEN_DIGEST.read_text())
    assert _digest(results) == golden["sha256"]
