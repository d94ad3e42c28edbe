"""Warm-worker pool benchmark: the pool against serial, measured.

The workload is the shape that dominates DSE-style campaigns: **many
small jobs** -- a grid of 32 shrunk SPACX configurations x two tiny
models, with a cold cache.  The same campaign runs serially in-process
and over the warm pool (forced with ``exec_plan="pool"``, 2 workers).

Asserted claim: the pooled campaign's serialized results are
byte-identical to the serial pass.  There is no speed gate: at this
job size serial is faster -- the pool's fixed dispatch overhead only
pays off once jobs are larger or cores are plural.

The measured numbers are also written to ``BENCH_pool.json`` so CI can
track the perf trajectory across PRs.
"""

import json
import time
from pathlib import Path

from conftest import emit

from repro.core import batch
from repro.core.layer import ConvLayer, LayerSet
from repro.experiments import format_table
from repro.serialization import model_result_to_dict
from repro.spacx.architecture import spacx_simulator

#: Where the perf-trajectory record lands (repo root under CI).
BENCH_JSON = Path("BENCH_pool.json")


def _tiny_models():
    """Two small distinct workloads (a few layers each)."""
    return [
        LayerSet(
            "tiny-a",
            [
                ConvLayer(name="a0", c=8, k=16, r=3, s=3, h=14, w=14),
                ConvLayer(name="a1", c=16, k=16, r=1, s=1, h=14, w=14),
            ],
        ),
        LayerSet(
            "tiny-b",
            [
                ConvLayer(name="b0", c=16, k=32, r=3, s=3, h=7, w=7),
                ConvLayer(name="b1", c=32, k=32, r=1, s=1, h=7, w=7),
            ],
        ),
    ]


def _campaign():
    """64 small jobs: a 32-point machine grid x two tiny models.

    Every machine configuration has its own fingerprint, so no job is
    a cache hit of another -- the benchmark measures execution-path
    overhead, not cache luck.
    """
    # Grid respects the topology's granularity divisibility rules:
    # ef_granularity=4 divides every chiplet count, k_granularity=16
    # divides both PE counts.
    simulators = [
        spacx_simulator(
            chiplets, pes, ef_granularity=4, k_granularity=16
        )
        for chiplets in range(4, 68, 4)
        for pes in (16, 32)
    ]
    return [
        batch.SweepJob(simulator, model)
        for model in _tiny_models()
        for simulator in simulators
    ]


def _canonical(results) -> str:
    """Byte-stable serialisation of an ordered result list."""
    return json.dumps(
        [model_result_to_dict(result) for result in results],
        sort_keys=True,
    )


def _timed_run(**kwargs):
    """One cold-cache pass; returns (results, seconds, runner)."""
    runner = batch.SweepRunner(
        cache=batch.NullCache(), manifest=False, **kwargs
    )
    jobs = _campaign()
    start = time.perf_counter()
    results = runner.run(jobs)
    elapsed = time.perf_counter() - start
    return results, elapsed, runner


def test_pool_matches_serial_byte_for_byte():
    serial, serial_s, _ = _timed_run(max_workers=1)

    # The auto plan would grid this one-family campaign in-process;
    # force per-job dispatch so the pool is measured.
    pooled, pool_s, runner = _timed_run(max_workers=2, exec_plan="pool")
    assert not runner.used_fallback, runner.fallback_reason
    assert {s.mode for s in runner.stats} == {"pool"}
    stats = runner.pool_stats
    runner.close()

    # Bit-identical guarantee: the pool changes *where* jobs run,
    # never what they compute.
    byte_identical = _canonical(pooled) == _canonical(serial)
    n_jobs = len(serial)
    emit(
        "Warm-worker pool vs serial (64 small jobs, cold cache, workers=2)",
        format_table(
            ["mode", "jobs", "wall (s)", "vs serial"],
            [
                ["serial", n_jobs, serial_s, 1.0],
                ["warm pool", n_jobs, pool_s, serial_s / pool_s],
            ],
        )
        + f"\npool: {stats.describe()}",
    )

    payload = {
        "benchmark": "pool_vs_serial",
        "jobs": n_jobs,
        "workers": 2,
        "serial_s": round(serial_s, 6),
        "pool_s": round(pool_s, 6),
        "byte_identical": byte_identical,
        "pool_stats": {
            "workers_spawned": stats.workers_spawned,
            "workers_respawned": stats.workers_respawned,
            "batches_dispatched": stats.batches_dispatched,
            "jobs_dispatched": stats.jobs_dispatched,
            "payload_bytes": stats.payload_bytes,
            "worker_cache_hits": stats.worker_cache_hits,
            "worker_cache_misses": stats.worker_cache_misses,
        },
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    assert byte_identical


def test_pool_batching_amortises_ipc():
    """Adaptive chunking really ships multi-job batches (fewer, larger
    messages), and a second campaign on the same runner reuses the
    warm workers without respawning."""
    runner = batch.SweepRunner(
        max_workers=2,
        cache=batch.NullCache(),
        manifest=False,
        exec_plan="pool",
    )
    jobs = _campaign()
    runner.run(jobs)
    stats = runner.pool_stats
    assert stats.jobs_dispatched >= len(jobs)
    assert stats.batches_dispatched < stats.jobs_dispatched, (
        "adaptive chunking never produced a multi-job batch"
    )
    spawned_after_first = stats.workers_spawned
    runner.run(jobs)
    assert runner.pool_stats.workers_spawned == spawned_after_first
    assert runner.pool_stats.workers_respawned == 0
    # Second pass re-simulates nothing: every (machine, shape) point
    # is already warm in some worker's memory tier.
    runner.close()
