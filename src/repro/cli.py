"""Command-line interface.

    python -m repro run --model ResNet-50 --machine spacx
    python -m repro report [--section fig15]
    python -m repro tables
    python -m repro advise --model VGG-16 --objective edp
    python -m repro layers --model ResNet-50
    python -m repro faults --samples 128 --seed 2022

The CLI only orchestrates the public library API; everything it
prints can be obtained programmatically from :mod:`repro.experiments`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

from .baselines.popstar import popstar_simulator
from .baselines.simba import simba_simulator
from .core import batch, store
from .core.simulator import Simulator
from .errors import (
    EXIT_BUDGET_STOPPED,
    EXIT_CONFIG,
    EXIT_FAILURE,
    EXIT_OK,
    ConfigError,
    ReproError,
)
from .experiments.harness import format_table
from .experiments.report import SECTIONS, full_report
from .models.zoo import EXTENDED_MODELS, MODELS, get_model
from .spacx.advisor import GranularityAdvisor
from .spacx.architecture import spacx_simulator

__all__ = ["main", "build_parser"]

_MACHINES: dict[str, Callable[[], Simulator]] = {
    "simba": simba_simulator,
    "popstar": popstar_simulator,
    "spacx": spacx_simulator,
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of the CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SPACX (HPCA 2022) reproduction toolkit",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="sweep-engine process count (default: $REPRO_SWEEP_WORKERS or 1; "
        "results are bit-identical for any N)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the sweep-engine result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist cached layer results as JSON under DIR "
        "(default: $REPRO_SWEEP_CACHE_DIR or memory-only)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill any worker-pool job attempt that runs longer than "
        "SECONDS; with --workers above 1 the pool runs the jobs the "
        "grid kernel declines (default: no timeout)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="retry a failed sweep job up to N times with exponential "
        "backoff (default: 0)",
    )
    parser.add_argument(
        "--on-error",
        choices=["raise", "skip"],
        default=None,
        help="after retries are exhausted: 'raise' aborts the sweep, "
        "'skip' records the failure and keeps the other results",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted campaign from the manifest next to "
        "the disk cache (requires --cache-dir or $REPRO_SWEEP_CACHE_DIR)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="campaign wall-clock budget: stop dispatching new sweep "
        "jobs after SECONDS, drain in-flight work, flush the manifest "
        "and report partial results (exit code 3; resumable)",
    )
    parser.add_argument(
        "--max-rss",
        type=float,
        default=None,
        metavar="MB",
        help="per-worker resident-set budget: the parent's heartbeat "
        "terminates any pool worker whose RSS exceeds MB and charges "
        "the job a retryable MemoryBudgetExceeded attempt instead of "
        "letting the host OOM",
    )
    parser.add_argument(
        "--max-failures",
        type=int,
        default=None,
        metavar="N",
        help="stop the campaign (drain + flush, exit code 3) after N "
        "job failures",
    )
    parser.add_argument(
        "--drain-signal",
        action="store_true",
        help="two-stage SIGINT/SIGTERM handling: the first signal "
        "drains in-flight jobs and flushes the manifest (exit code 3, "
        "resumable), a second aborts immediately",
    )
    parser.add_argument(
        "--retry-quarantined",
        action="store_true",
        help="with --resume: make jobs quarantined as poison by a "
        "prior run eligible again",
    )
    parser.add_argument(
        "--no-audit",
        action="store_true",
        help="disable the sweep engine's post-run invariant audit "
        "(enabled by default; violating results become job failures)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="simulate one model on one machine")
    run.add_argument("--model", choices=sorted(EXTENDED_MODELS), required=True)
    run.add_argument(
        "--machine", choices=sorted(_MACHINES), default="spacx"
    )
    run.add_argument(
        "--layer-by-layer",
        action="store_true",
        help="Fig. 13/14 methodology: all data starts in DRAM per layer",
    )
    run.add_argument(
        "--per-layer",
        action="store_true",
        help="print one row per distinct layer",
    )
    run.add_argument(
        "--batch",
        type=int,
        default=1,
        help="inference batch size (default 1, as in the paper)",
    )

    report = subparsers.add_parser(
        "report", help="regenerate every table/figure as a text report"
    )
    report.add_argument(
        "--section",
        choices=sorted(SECTIONS),
        default=None,
        help="render one section only",
    )

    subparsers.add_parser("tables", help="print Tables I and II")

    advise = subparsers.add_parser(
        "advise", help="recommend broadcast granularities for a workload"
    )
    advise.add_argument("--model", choices=sorted(EXTENDED_MODELS), required=True)
    advise.add_argument(
        "--objective",
        choices=["execution_time", "energy", "edp", "static_power"],
        default="edp",
    )

    layers = subparsers.add_parser("layers", help="list a model's layers")
    layers.add_argument("--model", choices=sorted(EXTENDED_MODELS), required=True)
    layers.add_argument(
        "--unique", action="store_true", help="distinct shapes only"
    )

    faults = subparsers.add_parser(
        "faults",
        help="Monte-Carlo degraded-mode availability study "
        "(SPACX vs Simba vs POPSTAR)",
    )
    faults.add_argument(
        "--model", choices=sorted(EXTENDED_MODELS), default="ResNet-50"
    )
    faults.add_argument(
        "--samples",
        type=int,
        default=128,
        help="fault populations drawn per (machine, rate) cell",
    )
    faults.add_argument(
        "--seed", type=int, default=2022, help="Monte-Carlo RNG seed"
    )
    faults.add_argument(
        "--rates",
        default=None,
        metavar="R1,R2,...",
        help="comma-separated per-device failure rates "
        "(default: 0.0001,0.001,0.005,0.02)",
    )
    faults.add_argument(
        "--threshold",
        type=float,
        default=1.5,
        help="slowdown bound defining 'available' (default 1.5x)",
    )
    faults.add_argument("--chiplets", type=int, default=32)
    faults.add_argument("--pes-per-chiplet", type=int, default=32)
    faults.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the study points plus the campaign report as JSON "
        "(the same serialization the campaign service returns)",
    )

    doctor = subparsers.add_parser(
        "doctor",
        help="physics-aware validation of machine configs plus a "
        "simulated invariant audit over the model zoo",
    )
    doctor.add_argument(
        "--machine",
        action="append",
        default=None,
        metavar="NAME",
        help="machine(s) to check (repeatable; default: the three "
        "paper machines)",
    )
    doctor.add_argument(
        "--model",
        action="append",
        default=None,
        metavar="NAME",
        help="model(s) to check (repeatable; default: the four paper "
        "workloads)",
    )
    doctor.add_argument(
        "--all",
        action="store_true",
        help="check every machine and every model in the zoo",
    )
    doctor.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="validate a raw JSON machine config instead of the zoo",
    )
    doctor.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the full diagnostic reports as JSON",
    )
    doctor.add_argument(
        "--no-simulate",
        action="store_true",
        help="static validation only (skip the simulated invariant audit)",
    )
    doctor.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="scan (and repair) a sweep cache directory instead of the "
        "zoo: validate every framed append log, quarantine corrupt "
        "records and rewrite damaged shards atomically",
    )
    doctor.add_argument(
        "--no-repair",
        action="store_true",
        help="with --cache: report issues only, do not quarantine or "
        "rewrite anything",
    )

    from .dse.presets import PRESETS
    from .dse.search import OBJECTIVES, STRATEGIES, VALIDATION_MODES

    search = subparsers.add_parser(
        "search",
        help="design-space exploration: find the best configuration in "
        "a preset or JSON-defined space",
    )
    search.add_argument(
        "--space",
        default="tiny",
        metavar="PRESET|FILE",
        help=f"a preset name ({', '.join(sorted(PRESETS))}) or a JSON "
        "space file (default: tiny)",
    )
    search.add_argument(
        "--objective",
        choices=list(OBJECTIVES),
        default=None,
        help="scalar to minimise (default: the preset's objective, "
        "or edp for JSON spaces)",
    )
    search.add_argument(
        "--strategy",
        choices=list(STRATEGIES),
        default="pruned",
        help="pruned = branch-and-bound with admissible roofline "
        "bounds, bit-identical argmin to exhaustive (default)",
    )
    search.add_argument(
        "--validation",
        choices=list(VALIDATION_MODES),
        default=None,
        help="pre-simulation feasibility filter (default: the "
        "preset's mode, or physics for JSON spaces)",
    )
    search.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="show the N best evaluated configurations (default 10)",
    )
    search.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the full search result as JSON",
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the multi-tenant campaign service (HTTP/JSON API)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8023)
    serve.add_argument(
        "--data-dir",
        required=True,
        metavar="DIR",
        help="service state root: shared result cache, per-campaign "
        "manifests and the submissions ledger live under DIR; restart "
        "with the same DIR to resume interrupted campaigns",
    )
    serve.add_argument(
        "--runners",
        type=int,
        default=2,
        metavar="N",
        help="concurrent campaign runner slots (default 2); each slot "
        "owns one long-lived SweepRunner whose per-job parallelism is "
        "the global --workers setting",
    )
    serve.add_argument(
        "--quota-active",
        type=int,
        default=16,
        metavar="N",
        help="per-tenant cap on queued+running campaigns (default 16)",
    )
    serve.add_argument(
        "--quota-jobs",
        type=int,
        default=4096,
        metavar="N",
        help="per-tenant cap on jobs in a single campaign (default 4096)",
    )
    serve.add_argument(
        "--fresh",
        action="store_true",
        help="do not restore state from an existing data dir",
    )

    def _client_args(sub) -> None:
        sub.add_argument(
            "--url",
            default=None,
            metavar="URL",
            help="service endpoint (default: $REPRO_SERVICE_URL or "
            "http://127.0.0.1:8023)",
        )
        sub.add_argument(
            "--tenant",
            default=None,
            metavar="NAME",
            help="tenant identity (default: $REPRO_SERVICE_TENANT or "
            "'anonymous')",
        )

    submit = subparsers.add_parser(
        "submit", help="submit a campaign to a running service"
    )
    _client_args(submit)
    submit.add_argument(
        "--campaign",
        default=None,
        metavar="FILE",
        help="campaign spec as a JSON file ('-' reads stdin)",
    )
    submit.add_argument(
        "--machines",
        default=None,
        metavar="M1,M2,...",
        help="shorthand sweep: comma-separated machines "
        "(with --models; ignored when --campaign is given)",
    )
    submit.add_argument(
        "--models",
        default=None,
        metavar="M1,M2,...",
        help="shorthand sweep: comma-separated models",
    )
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument(
        "--wait",
        action="store_true",
        help="block until the campaign finishes and report its digest",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        dest="wait_timeout",
        metavar="SECONDS",
        help="--wait limit (default 600)",
    )
    submit.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the submission ticket (or final status) as JSON",
    )

    status = subparsers.add_parser(
        "status", help="status of one submission (or all, with no id)"
    )
    _client_args(status)
    status.add_argument(
        "submission", nargs="?", default=None, metavar="SUBMISSION"
    )
    status.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the raw status payload as JSON",
    )
    status.add_argument(
        "--server",
        action="store_true",
        help="show server stats instead: queue, tenants, and each "
        "runner slot's execution-plan decisions and grid lane counts",
    )

    results = subparsers.add_parser(
        "results", help="fetch a finished submission's results payload"
    )
    _client_args(results)
    results.add_argument("submission", metavar="SUBMISSION")
    results.add_argument(
        "--digest-only",
        action="store_true",
        help="print just the results digest (for scripted comparisons)",
    )

    return parser


def _command_run(args: argparse.Namespace) -> int:
    simulator = _MACHINES[args.machine]()
    model = get_model(args.model)
    if args.batch > 1:
        from .core.layer import LayerSet

        model = LayerSet(
            f"{model.name} (batch {args.batch})",
            [layer.with_batch(args.batch) for layer in model.all_layers],
        )
    runner = batch.SweepRunner()
    result = runner.run(
        [batch.SweepJob(simulator, model, layer_by_layer=args.layer_by_layer)]
    )[0]
    if result is None:
        # Either a skipped failure (--on-error skip) or a budget/drain
        # stop before the single job completed; main() converts a
        # stopped outcome into exit code 3.
        for failure in runner.failures:
            print(f"failed: {failure.describe()}", file=sys.stderr)
        print("run did not complete", file=sys.stderr)
        return EXIT_FAILURE if runner.failures else EXIT_OK
    energy = result.energy
    print(f"{result.accelerator} / {result.model}")
    print(f"  execution time : {result.execution_time_s * 1e3:.3f} ms")
    print(f"    computation  : {result.computation_time_s * 1e3:.3f} ms")
    print(f"    communication: {result.exposed_communication_s * 1e3:.3f} ms (exposed)")
    print(f"  energy         : {energy.total_mj:.2f} mJ")
    print(f"    network      : {energy.network_mj:.2f} mJ")
    print(f"    other        : {energy.other_mj:.2f} mJ")
    print(f"  packet latency : {result.mean_packet_latency_s * 1e9:.1f} ns")
    print(f"  throughput     : {result.throughput_gbps:.1f} Gbps")
    if args.per_layer:
        headers = ["layer", "exec (us)", "comp (us)", "E (mJ)"]
        seen = set()
        rows = []
        for layer_result in result.layers:
            key = layer_result.layer.shape_key
            if key in seen:
                continue
            seen.add(key)
            rows.append(
                [
                    layer_result.layer.name,
                    layer_result.execution_time_s * 1e6,
                    layer_result.computation_time_s * 1e6,
                    layer_result.energy.total_mj,
                ]
            )
        print()
        print(format_table(headers, rows))
    stats = runner.stats[0]
    cache_stats = runner.cache.stats
    print(
        f"  [sweep] {stats.mode} run in {stats.wall_time_s * 1e3:.1f} ms, "
        f"cache {cache_stats.hits}/{cache_stats.lookups} hits"
    )
    return 0


def _command_report(args: argparse.Namespace) -> int:
    print(full_report(only=args.section))
    return EXIT_OK


def _command_tables(args: argparse.Namespace) -> int:
    print(full_report(only="table1"))
    print(full_report(only="table2"))
    return EXIT_OK


def _command_advise(args: argparse.Namespace) -> int:
    model = get_model(args.model)
    advisor = GranularityAdvisor()
    scores = advisor.evaluate(model)
    best = min(scores, key=lambda s: s.objective(args.objective))
    headers = ["k", "e/f", "exec (ms)", "E (mJ)", "static W", "mean util"]
    rows = [
        [
            s.k_granularity,
            s.ef_granularity,
            s.execution_time_s * 1e3,
            s.energy_mj,
            s.static_network_power_w,
            s.mean_utilization,
        ]
        for s in sorted(scores, key=lambda s: s.objective(args.objective))
    ]
    print(format_table(headers, rows))
    print()
    print(
        f"recommended (objective={args.objective}): "
        f"k={best.k_granularity}, e/f={best.ef_granularity}"
    )
    return 0


def _command_layers(args: argparse.Namespace) -> int:
    model = get_model(args.model)
    layers = model.unique_layers if args.unique else model.all_layers
    headers = ["name", "c", "k", "r", "s", "h", "w", "stride", "groups", "MMACs"]
    rows = [
        [l.name, l.c, l.k, l.r, l.s, l.h, l.w, l.stride, l.groups, l.macs / 1e6]
        for l in layers
    ]
    print(format_table(headers, rows))
    print(
        f"\n{len(layers)} layers, {sum(l.macs for l in layers) / 1e9:.2f} GMACs"
        + ("" if args.unique else " (with duplicates)")
    )
    return 0


def _command_faults(args: argparse.Namespace) -> int:
    from .experiments.resilience import (
        DEFAULT_FAILURE_RATES,
        availability_ascii_curve,
        availability_study,
        availability_table,
    )

    if args.rates is None:
        rates = DEFAULT_FAILURE_RATES
    else:
        try:
            rates = tuple(float(r) for r in args.rates.split(",") if r.strip())
        except ValueError:
            raise ConfigError(
                f"--rates must be comma-separated numbers, got {args.rates!r}"
            )
        if not rates:
            raise ConfigError("--rates needs at least one value")
    # An explicit runner so --json can attach the structured campaign
    # report -- the same serialization path the campaign service uses
    # for its faults results payload.
    with batch.SweepRunner(manifest=False) as runner:
        points = availability_study(
            model=get_model(args.model),
            rates=rates,
            samples=args.samples,
            seed=args.seed,
            slowdown_threshold=args.threshold,
            chiplets=args.chiplets,
            pes_per_chiplet=args.pes_per_chiplet,
            runner=runner,
        )
        report = runner.campaign_report(as_dict=True)
    if args.as_json:
        print(
            json.dumps(
                {
                    "model": args.model,
                    "samples": args.samples,
                    "seed": args.seed,
                    "points": [point.to_dict() for point in points],
                    "report": report,
                },
                indent=2,
            )
        )
        return EXIT_OK
    print(
        f"Monte-Carlo availability, {args.model}, "
        f"{args.samples} samples/cell, seed {args.seed}"
    )
    print()
    print(availability_table(points))
    print()
    print(availability_ascii_curve(points))
    return EXIT_OK


#: The three machines every paper figure compares (doctor's default).
_PAPER_MACHINES = ("simba", "popstar", "spacx")


def _doctor_simulation_reports(machine_names, model_names):
    """Run every (machine, model) pair and audit the results."""
    from .core.invariants import audit_model_result
    from .validate import ValidationReport, machine_zoo

    zoo = machine_zoo()
    reports = []
    for machine_name in machine_names:
        report = ValidationReport(subject=f"{machine_name} [simulated]")
        simulator = zoo[machine_name]()
        for model_name in model_names:
            try:
                result = simulator.simulate_model(get_model(model_name))
            except Exception as exc:
                report.error(
                    "SIM-RUN",
                    f"simulation of {model_name} failed: {exc}",
                    model=model_name,
                    error_type=type(exc).__name__,
                )
                continue
            for violation in audit_model_result(result, simulator.spec):
                report.error(
                    violation.code,
                    f"{model_name}: {violation.message}",
                    model=model_name,
                    layer=violation.layer,
                )
        reports.append(report)
    return reports


def _command_doctor(args: argparse.Namespace) -> int:
    from .validate import validate_raw_config, validate_zoo

    if args.cache is not None:
        return _doctor_cache_scan(args)
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config {args.config!r} is not valid JSON: {exc}"
            )
        if not isinstance(raw, dict):
            raise ConfigError(
                f"config {args.config!r} must be a JSON object, "
                f"got {type(raw).__name__}"
            )
        reports = [validate_raw_config(raw)]
    else:
        if args.all:
            from .validate import machine_zoo

            machine_names = sorted(machine_zoo())
            model_names = sorted(EXTENDED_MODELS)
        else:
            machine_names = args.machine or list(_PAPER_MACHINES)
            model_names = args.model or sorted(MODELS)
        reports = validate_zoo(machine_names, model_names)
        if not args.no_simulate:
            reports.extend(
                _doctor_simulation_reports(machine_names, model_names)
            )

    n_errors = sum(len(r.errors) for r in reports)
    n_warnings = sum(len(r.warnings) for r in reports)
    if args.as_json:
        print(
            json.dumps(
                {
                    "ok": n_errors == 0,
                    "errors": n_errors,
                    "warnings": n_warnings,
                    "reports": [r.to_dict() for r in reports],
                },
                indent=2,
            )
        )
    else:
        for report in reports:
            if report.clean:
                print(f"{report.subject}: ok")
            else:
                print(report.describe())
        print(
            f"doctor: {len(reports)} subject(s) checked, "
            f"{n_errors} error(s), {n_warnings} warning(s)"
        )
    return EXIT_OK if n_errors == 0 else EXIT_FAILURE


def _doctor_cache_scan(args: argparse.Namespace) -> int:
    """``repro doctor --cache DIR``: audit/repair a cache directory.

    Exit 0 when every append log (cache shards + campaign manifests)
    is clean, 1 when torn/corrupt/unreadable content was found -- with
    repair enabled (the default) a second invocation therefore exits 0
    once the damage has been quarantined and the logs rewritten.
    Missing directories are a usage error (exit 2 via ``ReproError``).
    """
    repair = not args.no_repair
    health, scans = store.scan_directory(args.cache, repair=repair)
    issues = sum(s.torn + s.corrupt for s in scans) + sum(
        1 for s in scans if s.unreadable
    )
    if args.as_json:
        print(
            json.dumps(
                {
                    "ok": issues == 0,
                    "cache_dir": str(args.cache),
                    "repair": repair,
                    "issues": issues,
                    "files": [s.to_dict() for s in scans],
                    "health": health.to_dict(),
                },
                indent=2,
            )
        )
    else:
        for scan in scans:
            print(f"  {scan.describe()}")
        verb = "repaired" if repair else "found (repair disabled)"
        summary = (
            f"doctor --cache: {len(scans)} log(s) scanned, "
            f"{issues} issue(s)"
        )
        if issues:
            summary += f" {verb}"
        print(summary)
    return EXIT_OK if issues == 0 else EXIT_FAILURE


def _load_search_space(token: str):
    """Resolve ``--space``: preset name, else JSON space file.

    Returns ``(space, preset-or-None)``.
    """
    import os

    from .dse.presets import PRESETS, get_preset
    from .dse.space import SearchSpace

    if token in PRESETS:
        preset = get_preset(token)
        return preset.space(), preset
    if token.endswith(".json") or os.sep in token:
        try:
            with open(token, encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read space {token!r}: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"space {token!r} is not valid JSON: {exc}")
        return SearchSpace.from_dict(raw), None
    raise ConfigError(
        f"unknown space {token!r}; choose a preset from "
        f"{sorted(PRESETS)} or pass a JSON space file"
    )


def _command_search(args: argparse.Namespace) -> int:
    from .dse.search import SearchEngine

    space, preset = _load_search_space(args.space)
    objective = args.objective or (preset.objective if preset else "edp")
    validation = args.validation or (
        preset.validation if preset else "physics"
    )
    # Context manager: the engine's warm-worker pool (shared across
    # the pruned strategy's chunked evaluations) shuts down cleanly
    # when the search is over.
    with SearchEngine(
        space, objective=objective, validation=validation
    ) as engine:
        result = engine.search(strategy=args.strategy)

    if args.as_json:
        print(json.dumps(result.to_dict(top=args.top), indent=2))
        return EXIT_OK if result.best is not None else EXIT_FAILURE

    headers = ["#", "configuration", "exec (ms)", "E (mJ)", "EDP", "mean util"]
    rows = [
        [
            s.index,
            ", ".join(f"{k}={v}" for k, v in s.config),
            s.execution_time_s * 1e3,
            s.energy_mj,
            s.edp,
            s.mean_utilization,
        ]
        for s in result.ranked()[: args.top]
    ]
    print(format_table(headers, rows))
    print()
    print(
        f"space {args.space!r}: {result.n_candidates} candidate(s), "
        f"{result.n_feasible} feasible, {result.n_evaluated} evaluated, "
        f"{result.n_pruned} pruned, {result.n_rejected} rejected"
        + (
            f", {result.n_proxy_evaluated} proxy evaluation(s)"
            if result.n_proxy_evaluated
            else ""
        )
    )
    for failure in result.failures:
        print(f"  failed: {failure.describe()}")
    best = result.best
    if best is None:
        print(
            f"no feasible configuration evaluated "
            f"(objective={objective}, strategy={args.strategy})"
        )
        return 1
    config = ", ".join(f"{k}={v}" for k, v in best.config)
    print(
        f"best (objective={objective}, strategy={args.strategy}): "
        f"{config} -> {best.objective(objective):.6g}"
    )
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from .service.scheduler import CampaignService
    from .service.server import serve_forever
    from .service.tenants import TenantQuota, TenantRegistry

    # The global budget flags become the server-wide per-campaign
    # budget layer (tightest-wins with tenant quotas and per-request
    # budgets).  The command's run record carries them too, but the
    # service's runner slots are built with budget=False and never
    # read it: each campaign's composed budget is bound explicitly.
    registry = TenantRegistry(
        default_quota=TenantQuota(
            max_active=args.quota_active,
            max_jobs_per_campaign=args.quota_jobs,
        )
    )
    service = CampaignService(
        args.data_dir,
        runner_slots=args.runners,
        workers=args.workers,
        registry=registry,
        default_budget=batch.run_config().budget,
        resume=not args.fresh,
    )
    print(
        f"repro service on http://{args.host}:{args.port} "
        f"(data: {service.data_dir}, {args.runners} runner slot(s))",
        file=sys.stderr,
    )
    return serve_forever(service, host=args.host, port=args.port)


def _service_client(args: argparse.Namespace):
    import os

    from .service.client import ServiceClient

    url = (
        args.url
        or os.environ.get("REPRO_SERVICE_URL")
        or "http://127.0.0.1:8023"
    )
    tenant = (
        args.tenant
        or os.environ.get("REPRO_SERVICE_TENANT")
        or "anonymous"
    )
    return ServiceClient(url, tenant=tenant)


def _load_campaign(args: argparse.Namespace) -> dict:
    if args.campaign is not None:
        try:
            if args.campaign == "-":
                raw = json.load(sys.stdin)
            else:
                with open(args.campaign, encoding="utf-8") as handle:
                    raw = json.load(handle)
        except OSError as exc:
            raise ConfigError(
                f"cannot read campaign {args.campaign!r}: {exc}"
            )
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"campaign {args.campaign!r} is not valid JSON: {exc}"
            )
        if not isinstance(raw, dict):
            raise ConfigError("campaign file must hold a JSON object")
        return raw
    if args.machines and args.models:
        return {
            "kind": "sweep",
            "machines": [
                m.strip() for m in args.machines.split(",") if m.strip()
            ],
            "models": [
                m.strip() for m in args.models.split(",") if m.strip()
            ],
        }
    raise ConfigError(
        "pass --campaign FILE, or --machines and --models for a "
        "shorthand sweep"
    )


def _command_submit(args: argparse.Namespace) -> int:
    client = _service_client(args)
    campaign = _load_campaign(args)
    ticket = client.submit(campaign, priority=args.priority)
    if not args.wait:
        if args.as_json:
            print(json.dumps(ticket, indent=2))
        else:
            dedupe = " (deduplicated)" if ticket["deduplicated"] else ""
            print(
                f"{ticket['submission']}: {ticket['summary']} -> "
                f"campaign {ticket['campaign'][:12]} "
                f"[{ticket['state']}]{dedupe}"
            )
        return EXIT_OK
    final = client.wait(ticket["submission"], timeout_s=args.wait_timeout)
    if args.as_json:
        print(json.dumps(final, indent=2))
    else:
        line = f"{final['submission']}: {final['state']}"
        if final["digest"]:
            line += f", digest {final['digest']}"
        if final["error"]:
            line += f" ({final['error']})"
        print(line)
    if final["state"] == "done":
        return EXIT_OK
    if final["state"] == "stopped":
        return EXIT_BUDGET_STOPPED
    return EXIT_FAILURE


def _command_status(args: argparse.Namespace) -> int:
    client = _service_client(args)
    if args.server:
        stats = client.stats()
        if args.as_json:
            print(json.dumps(stats, indent=2))
            return EXIT_OK
        print(
            f"uptime {stats['uptime_s']:.1f}s, "
            f"{stats['runner_slots']} slot(s), "
            f"{stats['submissions']} submission(s)"
            + (", draining" if stats["draining"] else "")
        )
        for slot, info in sorted(stats.get("slots", {}).items()):
            line = (
                f"slot {slot}: {info['grid_lanes']} grid lanes over "
                f"{info['grid_machines']} machine(s)"
            )
            if info["plan"]:
                line += "; last campaign: " + "; ".join(info["plan"])
            print(line)
        return EXIT_OK
    if args.submission is None:
        listing = client.list()
        if args.as_json:
            print(json.dumps(listing, indent=2))
        else:
            headers = ["submission", "tenant", "state", "kind", "digest"]
            rows = [
                [
                    s["submission"],
                    s["tenant"],
                    s["state"],
                    s["kind"],
                    (s["digest"] or "")[:12],
                ]
                for s in listing
            ]
            print(format_table(headers, rows))
        return EXIT_OK
    status = client.status(args.submission)
    if args.as_json:
        print(json.dumps(status, indent=2))
    else:
        print(
            f"{status['submission']}: {status['summary']} "
            f"[{status['state']}]"
            + (f", digest {status['digest']}" if status["digest"] else "")
            + (f", error: {status['error']}" if status["error"] else "")
        )
    if status["state"] == "failed":
        return EXIT_FAILURE
    if status["state"] == "stopped":
        return EXIT_BUDGET_STOPPED
    return EXIT_OK


def _command_results(args: argparse.Namespace) -> int:
    client = _service_client(args)
    payload = client.results(args.submission)
    if args.digest_only:
        print(payload.get("digest", ""))
    else:
        print(json.dumps(payload, indent=2))
    return EXIT_OK


_COMMANDS = {
    "run": _command_run,
    "report": _command_report,
    "tables": _command_tables,
    "advise": _command_advise,
    "layers": _command_layers,
    "faults": _command_faults,
    "doctor": _command_doctor,
    "search": _command_search,
    "serve": _command_serve,
    "submit": _command_submit,
    "status": _command_status,
    "results": _command_results,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Exit codes: 0 success, 1 command-level failure (doctor findings,
    no feasible search result, skipped job failures), 2 configuration
    error, 3 (:data:`~repro.core.budget.EXIT_BUDGET_STOPPED`) the
    campaign stopped early under a budget or drain signal with a
    resumable manifest.
    """
    from .core.budget import CampaignBudget, GracefulDrain

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        budget = None
        if (
            args.deadline is not None
            or args.max_rss is not None
            or args.max_failures is not None
        ):
            budget = CampaignBudget(
                deadline_s=args.deadline,
                max_rss_mb=args.max_rss,
                max_failures=args.max_failures,
            )
        # The command's run record: the environment with the global
        # flags on top.  A malformed $REPRO_SWEEP_* / $REPRO_STORE_FSYNC
        # value or flag fails every command the same way.
        config = batch.RunConfig.from_env(
            workers=args.workers,
            cache_enabled=False if args.no_cache else None,
            cache_dir=args.cache_dir,
            timeout_s=args.timeout,
            retries=args.retries,
            on_error=args.on_error,
            resume=True if args.resume else None,
            audit=False if args.no_audit else None,
            budget=budget,
            retry_quarantined=True if args.retry_quarantined else None,
        )
        store.fsync_policy()
    except ValueError as exc:  # ConfigError is one
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    batch.clear_last_outcome()
    previous = batch.configure(config)
    try:
        if args.drain_signal:
            with GracefulDrain():
                rc = _COMMANDS[args.command](args)
        else:
            rc = _COMMANDS[args.command](args)
    except ReproError as exc:
        # Configuration-level rejections (unknown machine, malformed
        # config file, infeasible photonics, ...) are user errors, not
        # crashes: one line on stderr, exit code 2, no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception:
        # A budget/drain stop can leave a command with zero results and
        # crash its downstream rendering (e.g. a mean over no rows).
        # The stop is the root cause and the manifest is resumable, so
        # report the stop instead of the symptom's traceback.
        outcome = batch.last_campaign_outcome()
        if outcome is None or not outcome.stopped:
            raise
        print(
            f"campaign stopped early: {outcome.describe()}", file=sys.stderr
        )
        return EXIT_BUDGET_STOPPED
    finally:
        # The record lives for this command only: a later main() call,
        # or library code after this one returns, sees what it saw.
        batch.configure(previous)
    outcome = batch.last_campaign_outcome()
    if rc == 0 and outcome is not None and outcome.stopped:
        print(
            f"campaign stopped early: {outcome.describe()}", file=sys.stderr
        )
        rc = EXIT_BUDGET_STOPPED
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
