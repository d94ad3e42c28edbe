"""Whole-campaign benchmark of the SPACX reproduction package.

Usage, from the root of a checkout (no install step; the package is
imported from ``src``)::

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Each workload runs in fresh worker processes (``perfbench/worker.py``)
whose environment carries no ``REPRO_*`` variable, so an inherited
setting cannot change the route being measured.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` prints the per-layer split of
campaign time taken by the outside-in tracer (``perfbench/tracer.py``).
Timings are scaled to a reference host speed (``perfbench/reference.py``)
so that a busy neighbour on a shared host does not move them.
Every campaign is checked against digests of the scalar oracle pinned
in ``perfbench/oracle.json``.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Workloads, metrics and the reasons behind them: ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Cache and service directories of the workers (on the checkout's
#: filesystem, so fsyncs reach a disk).
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("zoo-warm", "dse-grid", "dse-search", "service-mix")

#: ``setup_s`` is the median over this many fresh processes per run.
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 60.0
#: Allowance beyond ``--seconds`` for the measuring process's set-up
#: and its last campaigns.
RUN_MARGIN_S = 90.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "campaign_s.p50": "s",
    "campaign_s.p75": "s",
    "lanes_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


class BenchmarkError(RuntimeError):
    """A worker process failed to produce its record."""


def per_layer_unit(name: str) -> str:
    if name.endswith(("share", "hit_ratio", "overhead_frac")):
        return "ratio"
    if name.endswith((".self_s", "_s.p50")):
        return "s"
    if name == "store.append_bytes":
        return "B"
    return "count"


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # Fixed string hashing: set iteration order stays the same from one
    # process to the next.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, args, tag: str, setup_only: bool) -> dict:
    """One fresh worker process; returns its JSON record."""
    workdir = WORK / f"{workload}-{os.getpid()}-{tag}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        command.append("--setup-only")
    timeout = SETUP_TIMEOUT_S if setup_only else args.seconds + RUN_MARGIN_S
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=worker_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} worker exceeded {timeout:g} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(
            f"{workload} worker exited with code {done.returncode}"
        )
    return json.loads(lines[-1])


def run_workload(workload: str, args) -> dict:
    """Every process of one workload; returns the result object."""
    records = []
    if not args.trace:
        for i in range(SETUP_RUNS - 1):
            records.append(run_worker(workload, args, f"setup{i}", True))
    full = run_worker(workload, args, "run", False)
    records.append(full)
    attempted = full["attempted"] + sum(r["warmup"]["attempted"] for r in records)
    failed = full["failed"] + sum(r["warmup"]["failed"] for r in records)
    mismatched = full["mismatched"] + sum(
        r["warmup"]["mismatched"] for r in records
    )
    latencies = full["campaign_s"] or [0.0]
    walls = full["campaign_wall_s"] or [0.0]
    if args.trace:
        values = full["trace"]
        units = {name: per_layer_unit(name) for name in values}
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in records),
            "campaign_s.p50": statistics.median(latencies),
            # p90 would have too few samples beyond it: a run on a busy
            # host times only 30 to 120 campaigns.
            "campaign_s.p75": (
                statistics.quantiles(latencies, n=4, method="inclusive")[-1]
                if len(latencies) > 1
                else latencies[0]
            ),
            "lanes_per_s": full["lanes_per_s"],
            "peak_rss_mb": full["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    return {
        "correct": mismatched == 0,
        "attempted": attempted,
        "failed": failed,
        "samples": len(full["campaign_s"]),
        "wall_p50": statistics.median(walls),
        "host_factor": statistics.median(r["host_factor"] for r in records),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }


def report(workload: str, result: dict, args) -> None:
    """Human-readable lines for one workload."""
    failed_frac = result["failed"] / result["attempted"]
    print(
        f"{workload}: seed {args.seed}, {args.seconds:g} s, "
        f"{result['samples']} timed campaigns, correct={result['correct']}, "
        f"failed_frac {failed_frac:.4f} "
        f"({result['failed']}/{result['attempted']} ratio)"
    )
    print(
        f"  host: reference task {result['host_factor']:.3f}x its "
        f"reference time; unscaled campaign wall p50 {result['wall_p50']:.4f} s"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Whole-campaign benchmark (see perfbench/README.md)."
    )
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception: subprocess.run kills the
    # running worker and the finally blocks remove its directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args)
            report(name, results[name], args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    if len(names) == 1:
        final = results[names[0]]
        metrics = final["metrics"]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
        }
        metrics = {
            f"{name}/{metric}": value
            for name, r in results.items()
            for metric, value in r["metrics"].items()
        }
    print(
        json.dumps(
            {
                "correct": final["correct"],
                "attempted": final["attempted"],
                "failed": final["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
