"""Declarative, validated design spaces.

A :class:`SearchSpace` is an ordered list of typed :class:`Dimension`
axes -- machine, dataflow, broadcast granularities, batch size, model
-- whose Cartesian product enumerates :class:`Candidate` points in a
*deterministic* order (dimension order, last axis innermost, exactly
like nested for-loops).  Candidate indexes from that enumeration are
the tie-break used everywhere downstream, which is what makes pruned
and exhaustive search return bit-identical argmins.

Feasibility is checked *before* any simulator is constructed:

* :meth:`SearchSpace.diagnose` performs the structural checks --
  known machine/model/dataflow names, positive batch, and the
  granularity-divisibility rules.  The divisibility check matters
  because :func:`~repro.spacx.architecture.spacx_topology` *clamps*
  out-of-range granularities with ``min()`` rather than raising, so
  relying on construction failure would silently evaluate a different
  (duplicate) machine;
* the engine layers :func:`repro.validate.validate_spec` (structural
  spec checks) or :func:`repro.validate.validate_simulator` (full
  physics: Eq. 2 link-budget closure, WDM density) on top, depending
  on its validation mode.

:func:`build_simulator` and :func:`resolve_workload` turn a candidate
configuration into the runnable (simulator, workload) pair; both use
lazy imports so ``repro.dse`` never drags the machine zoo in at
import time (and stays importable from ``repro.spacx`` internals
without a cycle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Any, Iterable, Mapping, Sequence

from ..errors import ConfigError
from ..validate import ValidationReport

__all__ = [
    "Candidate",
    "DIMENSION_NAMES",
    "Dimension",
    "PAPER_SUITE",
    "SearchSpace",
    "build_simulator",
    "paper_suite",
    "resolve_workload",
]

#: Every axis the engine knows how to realise.
DIMENSION_NAMES: tuple[str, ...] = (
    "machine",
    "model",
    "batch",
    "dataflow",
    "k_granularity",
    "ef_granularity",
    "chiplets",
    "pes_per_chiplet",
)

#: Machines whose factories accept granularity / dataflow knobs.
_SPACX_MACHINES = ("spacx", "spacx-ba", "spacx-aggressive")

#: The sentinel model name for the concatenated evaluation suite.
PAPER_SUITE = "paper-suite"

#: Dataflow aliases accepted in configs (values of ``DataflowKind``).
_DATAFLOWS = ("spacx", "ws", "os_ef")


@dataclass(frozen=True)
class Dimension:
    """One typed axis of a search space."""

    name: str
    values: tuple[Any, ...]

    def __post_init__(self):
        if self.name not in DIMENSION_NAMES:
            raise ConfigError(
                f"unknown dimension {self.name!r}; "
                f"choose from {DIMENSION_NAMES}"
            )
        values = tuple(self.values)
        if not values:
            raise ConfigError(f"dimension {self.name!r} has no values")
        try:
            distinct = len(set(values))
        except TypeError:
            raise ConfigError(
                f"dimension {self.name!r} holds an unhashable value: "
                f"{values}"
            ) from None
        if distinct != len(values):
            raise ConfigError(
                f"dimension {self.name!r} has duplicate values: {values}"
            )
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class Candidate:
    """One point of a space: its enumeration index and configuration."""

    index: int
    config: dict[str, Any] = field(compare=False)

    @property
    def key(self) -> tuple[tuple[str, Any], ...]:
        """Hashable, order-stable identity of the configuration."""
        return tuple(sorted(self.config.items()))


class SearchSpace:
    """An ordered Cartesian product of :class:`Dimension` axes."""

    def __init__(self, dimensions: Sequence[Dimension]):
        dims = tuple(dimensions)
        if not dims:
            raise ConfigError("a search space needs at least one dimension")
        names = [d.name for d in dims]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate dimensions in space: {names}")
        self.dimensions = dims

    # -- construction ---------------------------------------------------
    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "SearchSpace":
        """Build a space from a JSON-style mapping.

        Accepts either ``{"dimensions": {name: values, ...}}`` or the
        flat ``{name: values, ...}`` form; scalar values become
        single-valued dimensions.  Dimension order follows the mapping
        order (JSON objects preserve it), so candidate enumeration --
        and therefore every tie-break -- is reproducible from the file
        alone.
        """
        if not isinstance(mapping, Mapping):
            raise ConfigError(
                f"a space definition must be a mapping, got "
                f"{type(mapping).__name__}"
            )
        raw = mapping.get("dimensions", mapping)
        if not isinstance(raw, Mapping):
            raise ConfigError('"dimensions" must map names to value lists')
        dims = []
        for name, values in raw.items():
            if isinstance(values, (str, bytes)) or not isinstance(
                values, Iterable
            ):
                values = (values,)
            dims.append(Dimension(str(name), tuple(values)))
        return cls(dims)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form, round-trippable through :meth:`from_dict`."""
        return {
            "dimensions": {d.name: list(d.values) for d in self.dimensions}
        }

    # -- enumeration ----------------------------------------------------
    def __len__(self) -> int:
        n = 1
        for d in self.dimensions:
            n *= len(d.values)
        return n

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.dimensions)

    def candidates(self) -> list[Candidate]:
        """Every point, in deterministic nested-loop order."""
        names = self.names
        return [
            Candidate(index=i, config=dict(zip(names, combo)))
            for i, combo in enumerate(
                product(*(d.values for d in self.dimensions))
            )
        ]

    # -- structural feasibility ------------------------------------------
    def diagnose(self, config: Mapping[str, Any]) -> ValidationReport:
        """Structural feasibility of one configuration (no construction).

        Every finding is a ``DSE-*`` :class:`~repro.validate.Diagnostic`;
        errors mean the point must not be realised (it would either
        fail to build or -- worse, for granularities -- silently build
        a *different* machine via the topology's ``min()`` clamp).
        """
        report = ValidationReport(subject=_describe(config))
        machine = config.get("machine", "spacx")

        if machine not in _known_machines():
            report.error(
                "DSE-MACHINE",
                f"unknown machine {machine!r}",
                hint=f"choose from {sorted(_known_machines())}",
                machine=machine,
            )

        model = config.get("model")
        if model is not None and model not in _known_models():
            report.error(
                "DSE-MODEL",
                f"unknown model {model!r}",
                hint=f"choose from {sorted(_known_models())}",
                model=model,
            )

        batch = config.get("batch")
        if batch is not None and (not isinstance(batch, int) or batch < 1):
            report.error(
                "DSE-BATCH",
                f"batch must be a positive integer, got {batch!r}",
                hint="use batch >= 1",
                batch=batch,
            )

        dataflow = config.get("dataflow")
        if dataflow is not None:
            name = getattr(dataflow, "value", dataflow)
            if name not in _DATAFLOWS:
                report.error(
                    "DSE-DATAFLOW",
                    f"unknown dataflow {dataflow!r}",
                    hint=f"choose from {_DATAFLOWS}",
                    dataflow=str(name),
                )

        spacx_knobs = [
            knob
            for knob in (
                "dataflow",
                "k_granularity",
                "ef_granularity",
                "chiplets",
                "pes_per_chiplet",
            )
            if config.get(knob) is not None
        ]
        if spacx_knobs and machine not in _SPACX_MACHINES:
            report.error(
                "DSE-GRAN-MACHINE",
                f"{', '.join(spacx_knobs)} only apply to SPACX "
                f"machines, not {machine!r}",
                hint=f"use a machine in {_SPACX_MACHINES}",
                machine=machine,
                knobs=spacx_knobs,
            )

        chiplets = config.get("chiplets", 32)
        pes = config.get("pes_per_chiplet", 32)
        dims_ok = True
        for knob, value in (("chiplets", chiplets), ("pes_per_chiplet", pes)):
            if not isinstance(value, int) or value < 1:
                report.error(
                    "DSE-DIM",
                    f"{knob} must be a positive integer, got {value!r}",
                    hint=f"use {knob} >= 1",
                    **{knob: value},
                )
                dims_ok = False
        if not dims_ok:
            return report  # divisibility below would be meaningless

        # spacx_topology() silently clamps with min(); reject instead.
        k = config.get("k_granularity")
        if k is not None and (not isinstance(k, int) or k < 1 or pes % k):
            report.error(
                "DSE-GRAN-K",
                f"k_granularity={k!r} does not divide pes_per_chiplet={pes}",
                hint="pick k from the divisors of pes_per_chiplet",
                k_granularity=k,
                pes_per_chiplet=pes,
            )
        ef = config.get("ef_granularity")
        if ef is not None and (
            not isinstance(ef, int) or ef < 1 or chiplets % ef
        ):
            report.error(
                "DSE-GRAN-EF",
                f"ef_granularity={ef!r} does not divide chiplets={chiplets}",
                hint="pick e/f from the divisors of chiplets",
                ef_granularity=ef,
                chiplets=chiplets,
            )
        return report


def _describe(config: Mapping[str, Any]) -> str:
    return ", ".join(f"{k}={v}" for k, v in sorted(config.items())) or "<empty>"


@lru_cache(maxsize=1)
def _known_machines() -> frozenset:
    from ..validate import machine_zoo

    return frozenset(machine_zoo())


@lru_cache(maxsize=1)
def _known_models() -> frozenset:
    from ..models.zoo import EXTENDED_MODELS

    return frozenset(EXTENDED_MODELS) | {PAPER_SUITE}


@lru_cache(maxsize=1)
def paper_suite():
    """The concatenated evaluation suite (the Pareto study's default
    workload): every paper model's layers, duplicates included."""
    from ..core.layer import LayerSet
    from ..models.zoo import evaluation_models

    layers = []
    for model in evaluation_models():
        layers.extend(model.all_layers)
    return LayerSet(PAPER_SUITE, layers)


def build_simulator(config: Mapping[str, Any]):
    """Realise one structurally-feasible configuration as a simulator.

    Only the machine-shaping keys are consumed here (``machine``,
    ``chiplets``, ``pes_per_chiplet``, ``ef_granularity``,
    ``k_granularity``, ``dataflow``); ``model`` and ``batch`` shape
    the workload instead (:func:`resolve_workload`), which is also the
    boundary the engine memoises simulators across.
    """
    machine = config.get("machine", "spacx")
    if machine == "simba":
        from ..baselines.simba import simba_simulator

        return simba_simulator()
    if machine == "popstar":
        from ..baselines.popstar import popstar_simulator

        return popstar_simulator()
    if machine in _SPACX_MACHINES:
        from ..core.dataflow import DataflowKind
        from ..photonics.components import (
            AGGRESSIVE_PARAMETERS,
            MODERATE_PARAMETERS,
        )
        from ..spacx.architecture import (
            DEFAULT_EF_GRANULARITY,
            DEFAULT_K_GRANULARITY,
            spacx_simulator,
        )

        dataflow = config.get("dataflow", DataflowKind.SPACX_OS)
        if not isinstance(dataflow, DataflowKind):
            try:
                dataflow = DataflowKind(dataflow)
            except ValueError:
                raise ConfigError(
                    f"unknown dataflow {dataflow!r}; "
                    f"choose from {_DATAFLOWS}"
                ) from None
        return spacx_simulator(
            chiplets=config.get("chiplets", 32),
            pes_per_chiplet=config.get("pes_per_chiplet", 32),
            ef_granularity=config.get(
                "ef_granularity", DEFAULT_EF_GRANULARITY
            ),
            k_granularity=config.get("k_granularity", DEFAULT_K_GRANULARITY),
            bandwidth_allocation=(machine != "spacx-ba"),
            params=(
                AGGRESSIVE_PARAMETERS
                if machine == "spacx-aggressive"
                else MODERATE_PARAMETERS
            ),
            dataflow=dataflow,
        )
    raise ConfigError(
        f"unknown machine {machine!r}; choose from {sorted(_known_machines())}"
    )


def resolve_workload(config: Mapping[str, Any]):
    """The :class:`~repro.core.layer.LayerSet` one candidate runs.

    ``model`` defaults to :data:`PAPER_SUITE`; ``batch`` (default 1)
    rewrites every layer via ``with_batch`` and tags the set name so a
    batched result is distinguishable in reports (the result cache
    keys on layer shapes, so the name is cosmetic).
    """
    from ..core.layer import LayerSet
    from ..models.zoo import get_model

    name = config.get("model", PAPER_SUITE)
    if name == PAPER_SUITE:
        workload = paper_suite()
    else:
        try:
            workload = get_model(name)
        except KeyError as exc:
            raise ConfigError(str(exc)) from None
    batch = config.get("batch", 1)
    if batch != 1:
        workload = LayerSet(
            f"{workload.name}[b{batch}]",
            [layer.with_batch(batch) for layer in workload.all_layers],
        )
    return workload
