"""Shared plumbing for the experiment modules.

Every experiment reproduces one table or figure of the paper and
returns plain data (lists of dataclasses / dicts) so both the
benchmark harness and user scripts can render or assert on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from ..baselines.popstar import popstar_simulator
from ..baselines.simba import simba_simulator
from ..core.batch import NullCache, ResultCache, SweepRunner
from ..core.layer import LayerSet
from ..core.metrics import ModelResult
from ..core.simulator import Simulator
from ..models.zoo import evaluation_models
from ..spacx.architecture import spacx_simulator

__all__ = [
    "EVALUATED_ACCELERATORS",
    "AcceleratorTrio",
    "default_trio",
    "run_models",
    "geometric_mean",
    "arithmetic_mean",
    "format_table",
]


#: Reporting order used throughout the paper's charts.
EVALUATED_ACCELERATORS = ("Simba", "POPSTAR", "SPACX")


@dataclass(frozen=True)
class AcceleratorTrio:
    """The three machines every comparison chart runs."""

    simba: Simulator
    popstar: Simulator
    spacx: Simulator

    def __iter__(self):
        return iter((self.simba, self.popstar, self.spacx))


def default_trio(chiplets: int = 32, pes_per_chiplet: int = 32) -> AcceleratorTrio:
    """The paper's evaluated configuration (M = N = 32)."""
    return AcceleratorTrio(
        simba=simba_simulator(chiplets, pes_per_chiplet),
        popstar=popstar_simulator(chiplets, pes_per_chiplet),
        spacx=spacx_simulator(chiplets, pes_per_chiplet),
    )


def run_models(
    simulators: Iterable[Simulator],
    models: Iterable[LayerSet] | None = None,
    *,
    layer_by_layer: bool = False,
    cache: "ResultCache | NullCache | None" = None,
    runner: SweepRunner | None = None,
) -> dict[str, dict[str, ModelResult]]:
    """Run every simulator over every model through the sweep engine.

    Returns ``{model name: {accelerator name: ModelResult}}`` in the
    paper's reporting order.  Jobs go through
    :class:`repro.core.batch.SweepRunner`: by default with the
    process record's worker count and the process-wide shared result
    cache (so a campaign of experiments amortises repeated ``(machine,
    layer shape)`` pairs); results are bit-identical for any worker
    count.  Pass an explicit ``runner`` to choose the workers or to
    inspect per-job timing stats afterwards.
    """
    if models is None:
        models = evaluation_models()
    if runner is None:
        runner = SweepRunner(cache=cache)
    return runner.run_models(simulators, models, layer_by_layer=layer_by_layer)


def arithmetic_mean(values: Iterable[float]) -> float:
    """Plain mean, the paper's A.M. column."""
    values = list(values)
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean for ratio aggregation."""
    values = list(values)
    if not values:
        raise ValueError("mean of empty sequence")
    product = 1.0
    for value in values:
        if value <= 0:
            raise ValueError("geometric mean needs positive values")
        product *= value
    return product ** (1.0 / len(values))


def format_table(
    headers: list[str],
    rows: list[list[object]],
    fmt: Callable[[object], str] = lambda v: f"{v:.3f}" if isinstance(v, float) else str(v),
) -> str:
    """Render rows as an aligned text table for benchmark output.

    Tolerates zero-row input (header + rule only) and ragged rows:
    short rows are padded with empty cells and over-long rows widen
    the table with unnamed columns, so a partially-populated sweep
    still renders instead of crashing.
    """
    if not headers and not rows:
        return ""
    rendered = [[fmt(cell) for cell in row] for row in rows]
    n_columns = max(len(headers), *(len(row) for row in rendered)) if rendered else len(headers)
    padded_headers = list(headers) + [""] * (n_columns - len(headers))
    rendered = [row + [""] * (n_columns - len(row)) for row in rendered]
    widths = [
        max(len(padded_headers[i]), *(len(row[i]) for row in rendered))
        if rendered
        else len(padded_headers[i])
        for i in range(n_columns)
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(padded_headers)),
        "  ".join("-" * max(1, w) for w in widths),
    ]
    for row in rendered:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(n_columns)))
    return "\n".join(lines)
