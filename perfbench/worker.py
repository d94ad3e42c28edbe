"""Run one workload in this process and print its measurements.

Started by ``perfbench/run.py`` in a fresh interpreter whose
environment carries no ``REPRO_*`` variable.  The last line of standard
output is one JSON record; ``run.py`` turns records into metrics.

* ``--setup-only``: set up, run the untimed warm-up campaign, report
  the set-up time and stop;
* otherwise the closed loop runs campaigns for ``--seconds``.  With
  ``--trace 1`` the time is split into four parts, untraced and traced
  in turn; traced parts give the per-layer figures and the untraced
  ones the tracing overhead.

Timings are recorded both as wall time and scaled to the reference
host speed (``reference.py``); the metrics use the scaled ones.
"""

import time

SETUP_T0 = time.perf_counter()  # before the first import of repro

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNTERS, LAYERS, Tracer  # noqa: E402

#: Traced runs alternate untraced and traced parts so that drift over
#: the run affects both halves alike.
TRACE_PARTS = (False, True, False, True)

#: The loop stops for a heap collection and the host reference after
#: every block of this many seconds.
BLOCK_S = 2.0

#: ``setup_s`` is scaled by the median of this many reference times
#: taken right after set-up.
SETUP_REFERENCES = 3


def run_block(workload, seconds: float) -> tuple[list, float]:
    """One block of the closed loop.

    Each client starts campaigns until ``seconds`` pass, and the block
    ends when the last one has ended.  Returns the outcomes and the
    block's wall time less the untimed heap collections in it.
    """
    outcomes: list = []
    start = time.perf_counter()
    deadline = start + seconds
    collecting_s = 0.0

    def client_loop(client: int) -> None:
        nonlocal collecting_s
        while True:
            if workload.clients == 1:
                # Each campaign starts from a heap without the previous
                # one's garbage, as a fresh CLI invocation does; else
                # where the collector's full passes land varies from
                # one run to the next.
                collected = time.perf_counter()
                gc.collect()
                collecting_s += time.perf_counter() - collected
            try:
                outcomes.append(workload.campaign(client))
            except Exception:  # noqa: BLE001 -- count it, keep measuring
                traceback.print_exc()
                outcomes.append(workloads.Outcome(0.0, failed=True))
            if time.perf_counter() >= deadline:
                return

    if workload.clients == 1:
        client_loop(0)
    else:
        threads = [
            threading.Thread(target=client_loop, args=(c,), name=f"client-{c}")
            for c in range(workload.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return outcomes, time.perf_counter() - start - collecting_s


def peak_rss_mb() -> float:
    """Peak RSS since the process started or the last reset."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reset_peak_rss() -> None:
    """Restart the peak at the current RSS (Linux ``clear_refs``).

    Done after every reference task, so that the peak covers set-up and
    campaigns but not the reference's own memory.
    """
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def host_reference() -> float:
    """Time the reference task on a heap without campaign garbage."""
    gc.collect()
    return reference.time_reference()


def timed_loop(workload, seconds: float) -> tuple[list, float, float]:
    """Run blocks for ``seconds`` with the host reference between them.

    Sets every outcome's ``scale`` (see ``reference.py``) and returns
    the outcomes, the blocks' wall time at reference speed and the
    blocks' peak RSS in MiB.
    """
    outcomes: list = []
    scaled_s = 0.0
    peak_mb = 0.0
    deadline = time.perf_counter() + seconds
    before = host_reference()
    while time.perf_counter() < deadline:
        reset_peak_rss()
        block, wall = run_block(workload, BLOCK_S)
        peak_mb = max(peak_mb, peak_rss_mb())
        after = host_reference()
        scale = reference.REFERENCE_S / ((before + after) / 2.0)
        for outcome in block:
            outcome.scale = scale
        outcomes += block
        scaled_s += wall * scale
        before = after
    return outcomes, scaled_s, peak_mb


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def trace_metrics(traced: list, untraced: list, spans: dict) -> dict:
    """Per-layer and counter figures from the traced parts."""
    n = max(1, len(traced))
    wall = sum(o.seconds for o in traced) or 1.0
    metrics = {}
    attributed = 0.0
    for layer in LAYERS:
        calls, self_s = spans.get(layer, (0, 0.0))
        metrics[f"{layer}.calls"] = calls / n
        metrics[f"{layer}.self_s"] = self_s / n
        metrics[f"{layer}.share"] = self_s / wall
        attributed += self_s
    counts = {name: spans.get(name, (0, 0.0))[0] for name in COUNTERS}
    for name in COUNTERS:
        if name not in ("cache.hits", "cache.lookups"):
            metrics[name] = counts[name] / n
    lookups = counts["cache.lookups"]
    metrics["cache.hit_ratio"] = counts["cache.hits"] / lookups if lookups else 0.0
    for name in ("queue.wait_s", "scheduler.exec_s", "http.submit_s",
                 "http.results_s"):
        metrics[f"{name}.p50"] = _median(
            [o.timings[name] for o in traced if name in o.timings]
        )
    metrics["trace.unattributed_share"] = 1.0 - attributed / wall
    base = _median([o.scaled_s for o in untraced])
    metrics["trace.overhead_frac"] = (
        _median([o.scaled_s for o in traced]) / base - 1.0 if base else 0.0
    )
    return metrics


def measure(workload, seconds: float, trace: bool) -> dict:
    if not trace:
        outcomes, loop_s, peak_mb = timed_loop(workload, seconds)
        return {"outcomes": outcomes, "loop_s": loop_s, "peak_rss_mb": peak_mb}
    tracer = Tracer()
    traced, untraced, spans = [], [], {}
    peak_mb = 0.0
    for traced_part in TRACE_PARTS:
        if not traced_part:
            part, _, part_peak = timed_loop(
                workload, seconds / len(TRACE_PARTS)
            )
            untraced += part
            peak_mb = max(peak_mb, part_peak)
            continue
        tracer.install()
        workload.span = tracer.span
        workload.read_status = True
        before = tracer.snapshot()
        try:
            part, _, part_peak = timed_loop(
                workload, seconds / len(TRACE_PARTS)
            )
            traced += part
            peak_mb = max(peak_mb, part_peak)
            after = tracer.snapshot()
        finally:
            tracer.uninstall()
            workload.span = workloads.no_span
            workload.read_status = False
        for name, (calls, value) in after.items():
            old = before.get(name, (0, 0.0))
            total = spans.get(name, (0, 0.0))
            spans[name] = (
                total[0] + calls - old[0],
                total[1] + value - old[1],
            )
    return {
        "outcomes": traced + untraced,
        "peak_rss_mb": peak_mb,
        "trace": trace_metrics(traced, untraced, spans),
    }


def summarize(outcomes: list) -> dict:
    return {
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "mismatched": sum(o.mismatch for o in outcomes),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](
        args.seed, Path(args.workdir), workloads.load_oracle()
    )
    workload.setup()
    try:
        warm = workload.warmup()
        setup_s = time.perf_counter() - SETUP_T0
        peak_mb = peak_rss_mb()
        host_s = statistics.median(
            host_reference() for _ in range(SETUP_REFERENCES)
        )
        record = {
            "setup_s": setup_s * reference.REFERENCE_S / host_s,
            "host_factor": host_s / reference.REFERENCE_S,
            "warmup": summarize([warm]),
        }
        if not args.setup_only:
            result = measure(workload, args.seconds, bool(args.trace))
            peak_mb = max(peak_mb, result["peak_rss_mb"])
            outcomes = result["outcomes"]
            record.update(summarize(outcomes))
            ok = [o for o in outcomes if not o.failed]
            record["campaign_s"] = [o.scaled_s for o in ok]
            record["campaign_wall_s"] = [o.seconds for o in ok]
            if "trace" in result:
                record["trace"] = result["trace"]
            else:
                record["lanes_per_s"] = (
                    sum(o.lanes for o in outcomes) / result["loop_s"]
                )
        record["peak_rss_mb"] = peak_mb
    finally:
        workload.close()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
