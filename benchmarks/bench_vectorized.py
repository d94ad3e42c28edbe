"""Cost-model kernel benchmark: full-zoo sweep vs the scalar oracle.

The workload is the shape the kernel was built for: the **full
extended zoo** -- every shipped machine over every extended-zoo model,
55 whole-model jobs, cold cache, one worker.  Here the NumPy grid
kernel wins twice: array math replaces the per-layer Python pipeline,
and the planner evaluates the *union* of distinct layer shapes across
models once per machine family (the ResNet / VGG / DenseNet families
overlap heavily), instead of once per job.

Asserted claims (the ISSUE 6 acceptance bar):

* the kernel sweep is >= 5x faster end-to-end than a
  ``vectorize=False`` (scalar oracle) pass on the same campaign
  (>= 10x is typical on idle hardware; the CI bar leaves headroom
  for noisy runners);
* the vectorized campaign's serialized results are byte-identical to
  the scalar pass -- the speedup buys nothing if a single bit drifts.

The measured numbers land in ``BENCH_vectorized.json`` so CI can
track the perf trajectory across PRs.
"""

import json
import time
from pathlib import Path

from conftest import emit

from repro.core import batch
from repro.experiments import format_table
from repro.models.zoo import EXTENDED_MODELS, get_model
from repro.serialization import model_result_to_dict
from repro.validate import machine_zoo

#: The acceptance threshold: vectorized vs scalar, same serial runner.
SPEEDUP_THRESHOLD = 5.0

#: Where the perf-trajectory record lands (repo root under CI).
BENCH_JSON = Path("BENCH_vectorized.json")

#: Best-of-N timing to shrug off scheduler noise.
REPEATS = 3


def _campaign():
    """55 whole-model jobs: every zoo machine x the extended zoo."""
    simulators = [factory() for factory in machine_zoo().values()]
    models = [get_model(name) for name in EXTENDED_MODELS]
    return [
        batch.SweepJob(simulator, model)
        for model in models
        for simulator in simulators
    ]


def _canonical(results) -> str:
    """Byte-stable serialisation of an ordered result list."""
    return json.dumps(
        [model_result_to_dict(result) for result in results],
        sort_keys=True,
    )


def _timed_run(vectorize: bool):
    """Best-of-N cold-cache serial passes; returns (results, seconds)."""
    best = None
    results = None
    for _ in range(REPEATS):
        runner = batch.SweepRunner(
            max_workers=1,
            cache=batch.NullCache(),
            manifest=False,
            vectorize=vectorize,
        )
        jobs = _campaign()
        start = time.perf_counter()
        out = runner.run(jobs)
        elapsed = time.perf_counter() - start
        assert not runner.grid_fallbacks, runner.grid_fallbacks
        if best is None or elapsed < best:
            best, results = elapsed, out
    return results, best


def test_vectorized_5x_faster_than_scalar_and_byte_identical():
    scalar, scalar_s = _timed_run(vectorize=False)
    fast, fast_s = _timed_run(vectorize=True)

    # Bit-identical guarantee first: the kernel changes *how* metrics
    # are computed, never what they are.
    assert _canonical(fast) == _canonical(scalar)

    speedup = scalar_s / fast_s
    n_jobs = len(scalar)
    lanes = sum(len(r.layers) for r in scalar)
    emit(
        f"Vectorized kernel (full extended zoo, {n_jobs} jobs, "
        f"{lanes} layer lanes, cold cache, serial)",
        format_table(
            ["path", "jobs", "wall (s)", "speedup"],
            [
                ["scalar oracle", n_jobs, scalar_s, 1.0],
                ["vectorized", n_jobs, fast_s, speedup],
            ],
        ),
    )

    payload = {
        "benchmark": "vectorized_vs_scalar",
        "jobs": n_jobs,
        "layer_lanes": lanes,
        "models": len(EXTENDED_MODELS),
        "machines": len(machine_zoo()),
        "scalar_s": round(scalar_s, 6),
        "vectorized_s": round(fast_s, 6),
        "speedup": round(speedup, 3),
        "threshold": SPEEDUP_THRESHOLD,
        "byte_identical": True,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    assert speedup >= SPEEDUP_THRESHOLD, (
        f"vectorized path only {speedup:.2f}x faster than the scalar "
        f"oracle (needed >= {SPEEDUP_THRESHOLD}x); scalar {scalar_s:.3f}s "
        f"vs vectorized {fast_s:.3f}s"
    )


def test_vectorized_kernel_carries_the_campaign():
    """The fast path really is the fast path: no grid declines and no
    silent per-job scalar detours on the stock zoo."""
    runner = batch.SweepRunner(
        max_workers=1,
        cache=batch.NullCache(),
        manifest=False,
        vectorize=True,
    )
    results = runner.run(_campaign())
    assert all(result is not None for result in results)
    assert not runner.grid_fallbacks
    assert not runner.failures
