"""Monte-Carlo degraded-mode availability study (robustness extension).

The paper argues SPACX's regular structure degrades *gracefully*: a
hard device failure is equivalent to running a smaller configuration.
The seed only probed single deterministic scenarios; this module
samples **multi-fault populations** -- every device fails
independently with a per-device probability -- and compares the
resulting slowdown distributions across the three evaluated machines:

* **SPACX**: X/Y carrier and interposer-splitter failures
  (:class:`repro.spacx.faults.FaultDomain`);
* **Simba / POPSTAR**: package-router and chiplet-level link failures
  (:class:`repro.baselines.electrical.ElectricalFaultDomain`).

Each sampled population maps to the equivalent smaller machine, which
is simulated through the content-addressed result cache (sampled
populations collapse onto a small set of distinct degraded
configurations, so the Monte Carlo is cheap).  Per failure rate the
study reports the expected fault count, the fraction of dead machines,
the **availability** (fraction of samples whose slowdown stays within
a threshold), slowdown statistics and the expected degraded
throughput fraction.

All sampling is driven by seeded :class:`numpy.random.Generator`
streams -- ``availability_study(seed=S)`` is bit-reproducible.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..baselines.electrical import ElectricalFaultDomain
from ..baselines.popstar import popstar_simulator
from ..baselines.simba import simba_simulator
from ..core.batch import SweepJob, SweepRunner, simulate_model_cached
from ..core.faults import InfeasibleFaultError
from ..core.layer import LayerSet
from ..spacx.architecture import spacx_simulator
from ..spacx.faults import FaultDomain, degraded_configuration
from .harness import EVALUATED_ACCELERATORS, format_table

__all__ = [
    "DEFAULT_FAILURE_RATES",
    "DeviceFailureScale",
    "AvailabilityPoint",
    "availability_study",
    "availability_table",
    "availability_ascii_curve",
]

#: Default per-device failure-rate sweep (fraction of devices failed).
DEFAULT_FAILURE_RATES = (1e-4, 1e-3, 5e-3, 2e-2)


@dataclass(frozen=True)
class DeviceFailureScale:
    """Per-device-class multipliers applied to the swept base rate.

    The study sweeps one base per-device failure probability; these
    multipliers skew it per class (e.g. rings fail more often than
    passive splitters).  The default treats every class equally.
    """

    x_carrier: float = 1.0
    y_carrier: float = 1.0
    splitter: float = 1.0
    router: float = 1.0
    link: float = 1.0

    def __post_init__(self) -> None:
        for value in (
            self.x_carrier,
            self.y_carrier,
            self.splitter,
            self.router,
            self.link,
        ):
            if value < 0:
                raise ValueError("rate multipliers must be >= 0")


@dataclass(frozen=True)
class AvailabilityPoint:
    """Monte-Carlo summary for one (machine, failure rate) pair."""

    accelerator: str
    failure_rate: float
    samples: int
    mean_faults: float
    dead_fraction: float
    availability: float  # alive and slowdown <= threshold
    mean_slowdown: float  # over surviving samples (inf if none survive)
    p95_slowdown: float
    expected_throughput: float  # mean of healthy/degraded time (dead -> 0)
    slowdown_threshold: float

    def to_dict(self) -> dict:
        """JSON-ready form -- one serialization shared by the CLI's
        ``repro faults --json`` and the campaign service's results
        endpoint.  ``inf`` slowdowns (no surviving samples) become the
        string ``"inf"`` so the payload stays strict JSON."""
        payload = dataclasses.asdict(self)
        for key in ("mean_slowdown", "p95_slowdown"):
            if math.isinf(payload[key]):
                payload[key] = "inf"
        return payload


def _machine_plumbing(
    accelerator: str,
    chiplets: int,
    pes_per_chiplet: int,
    scale: DeviceFailureScale,
) -> tuple[Callable, Callable, Callable]:
    """``(sample, configuration, builder)`` hooks for one machine."""
    if accelerator == "SPACX":
        domain = FaultDomain(chiplets=chiplets, pes_per_chiplet=pes_per_chiplet)

        def sample(rng, rate: float):
            return domain.sample_scenario(
                rng,
                x_carrier_rate=min(1.0, rate * scale.x_carrier),
                y_carrier_rate=min(1.0, rate * scale.y_carrier),
                splitter_rate=min(1.0, rate * scale.splitter),
            )

        def configuration(scenario) -> tuple[int, int]:
            config = degraded_configuration(
                scenario, chiplets, pes_per_chiplet
            )
            return config.chiplets, config.pes_per_chiplet

        return sample, configuration, spacx_simulator
    if accelerator in ("Simba", "POPSTAR"):
        domain = ElectricalFaultDomain(
            chiplets=chiplets, pes_per_chiplet=pes_per_chiplet
        )

        def sample(rng, rate: float):
            return domain.sample_scenario(
                rng,
                router_rate=min(1.0, rate * scale.router),
                link_rate=min(1.0, rate * scale.link),
            )

        builder = simba_simulator if accelerator == "Simba" else popstar_simulator
        return sample, domain.degraded_configuration, builder
    raise KeyError(
        f"unknown accelerator {accelerator!r}; "
        f"available: {list(EVALUATED_ACCELERATORS)}"
    )


def availability_study(
    model: LayerSet | None = None,
    rates: Sequence[float] = DEFAULT_FAILURE_RATES,
    samples: int = 128,
    seed: int = 2022,
    slowdown_threshold: float = 1.5,
    chiplets: int = 32,
    pes_per_chiplet: int = 32,
    accelerators: Sequence[str] = EVALUATED_ACCELERATORS,
    scale: DeviceFailureScale = DeviceFailureScale(),
    runner: SweepRunner | None = None,
) -> list[AvailabilityPoint]:
    """Monte-Carlo availability vs per-device failure rate, per machine.

    Every ``(accelerator, rate)`` cell draws ``samples`` independent
    fault populations from its own deterministic RNG stream (derived
    from ``seed`` and the cell position), so results are reproducible
    regardless of which cells run.  All sampling happens *before* any
    simulation: the distinct surviving degraded configurations of one
    machine are then evaluated as a single batch through a
    :class:`~repro.core.batch.SweepRunner` (a default runner -- warm
    worker pool, shared cache -- is built when ``runner`` is None), so
    the cost is bounded by the number of *distinct* configurations,
    not by ``samples``, and a many-trial study inherits the sweep
    engine's parallelism.  Simulation is deterministic and the RNG
    streams are untouched by the batching, so results are
    bit-identical to the previous inline evaluation order.

    The runner's budget (``runner=SweepRunner(budget=...)``, or the
    process record's for a default runner) bounds the study: when the
    runner stops (deadline, breaker, drain signal) the study returns
    the points of the accelerators whose batch completed and omits
    the rest, instead of raising.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if slowdown_threshold < 1.0:
        raise ValueError("slowdown threshold must be >= 1")
    if model is None:
        from ..models.zoo import get_model

        model = get_model("ResNet-50")
    owns_runner = runner is None
    if runner is None:
        # The study is not a resumable campaign: no manifest, and the
        # runner's pool is torn down when the study returns.
        runner = SweepRunner(manifest=False)

    points: list[AvailabilityPoint] = []
    try:
        for acc_index, accelerator in enumerate(accelerators):
            sample, configuration, builder = _machine_plumbing(
                accelerator, chiplets, pes_per_chiplet, scale
            )
            healthy_sim = builder(chiplets, pes_per_chiplet)
            healthy_s = simulate_model_cached(
                healthy_sim, model, cache=runner.cache
            ).execution_time_s
            #: Distinct degraded configuration -> execution time memo.
            times: dict[tuple[int, int], float] = {
                (chiplets, pes_per_chiplet): healthy_s
            }
            # Phase 1: draw every cell's fault populations (RNG order
            # identical to the historical inline loop) and collect the
            # distinct unseen configurations, in first-seen order.
            cells: list[tuple[float, list]] = []
            needed: dict[tuple[int, int], None] = {}
            for rate_index, rate in enumerate(rates):
                if rate < 0:
                    raise ValueError("failure rates must be >= 0")
                rng = np.random.default_rng([seed, acc_index, rate_index])
                cell: list[tuple[int, tuple[int, int] | None]] = []
                for _ in range(samples):
                    scenario = sample(rng, rate)
                    try:
                        config = configuration(scenario)
                    except InfeasibleFaultError:
                        config = None  # machine is dead
                    cell.append((scenario.total_faults, config))
                    if config is not None and config not in times:
                        needed.setdefault(config)
                cells.append((rate, cell))
            # Phase 2: one batched sweep over the distinct degraded
            # machines (parallel / pooled / cached via the runner).
            if needed:
                configs = list(needed)
                outputs = runner.run(
                    [SweepJob(builder(*config), model) for config in configs]
                )
                for config, output in zip(configs, outputs):
                    if output is not None:
                        times[config] = output.execution_time_s
                if getattr(runner, "stopped", False):
                    # Budget/drain stop mid-study: return the points of
                    # the accelerators that finished; this machine's
                    # partially-evaluated cells are dropped rather than
                    # recomputed inline past the budget.
                    break
            # Phase 3: per-cell statistics (pure arithmetic).
            for rate, cell in cells:
                fault_counts: list[int] = []
                slowdowns: list[float] = []  # surviving samples only
                throughputs: list[float] = []  # all samples (dead -> 0)
                available = 0
                dead = 0
                for total_faults, config in cell:
                    fault_counts.append(total_faults)
                    if config is None:
                        dead += 1
                        throughputs.append(0.0)
                        continue
                    degraded_s = times.get(config)
                    if degraded_s is None:
                        # Batch slot skipped under on_error="skip":
                        # recompute inline (historical behaviour).
                        degraded_s = simulate_model_cached(
                            builder(*config), model, cache=runner.cache
                        ).execution_time_s
                        times[config] = degraded_s
                    slowdown = max(degraded_s, healthy_s) / healthy_s
                    slowdowns.append(slowdown)
                    throughputs.append(1.0 / slowdown)
                    if slowdown <= slowdown_threshold:
                        available += 1
                points.append(
                    AvailabilityPoint(
                        accelerator=accelerator,
                        failure_rate=rate,
                        samples=samples,
                        mean_faults=float(np.mean(fault_counts)),
                        dead_fraction=dead / samples,
                        availability=available / samples,
                        mean_slowdown=(
                            float(np.mean(slowdowns))
                            if slowdowns
                            else float("inf")
                        ),
                        p95_slowdown=(
                            float(np.percentile(slowdowns, 95))
                            if slowdowns
                            else float("inf")
                        ),
                        expected_throughput=float(np.mean(throughputs)),
                        slowdown_threshold=slowdown_threshold,
                    )
                )
    finally:
        if owns_runner:
            runner.close()
    return points


def availability_table(points: Sequence[AvailabilityPoint]) -> str:
    """Render study points as an aligned text table."""
    headers = [
        "rate",
        "machine",
        "mean faults",
        "dead %",
        "avail %",
        "mean slowdown",
        "p95 slowdown",
        "E[throughput]",
    ]
    rows = [
        [
            f"{p.failure_rate:g}",
            p.accelerator,
            p.mean_faults,
            100.0 * p.dead_fraction,
            100.0 * p.availability,
            p.mean_slowdown,
            p.p95_slowdown,
            p.expected_throughput,
        ]
        for p in points
    ]
    return format_table(headers, rows)


def availability_ascii_curve(
    points: Sequence[AvailabilityPoint], width: int = 40
) -> str:
    """Availability-vs-rate curves as ASCII bars, one block per machine."""
    lines: list[str] = []
    for accelerator in dict.fromkeys(p.accelerator for p in points):
        subset = [p for p in points if p.accelerator == accelerator]
        threshold = subset[0].slowdown_threshold
        lines.append(
            f"{accelerator} (available = slowdown <= {threshold:g}x):"
        )
        for p in subset:
            bar = "#" * round(p.availability * width)
            lines.append(
                f"  {p.failure_rate:>8g}  {bar:<{width}} "
                f"{100.0 * p.availability:5.1f}%"
            )
    return "\n".join(lines)
