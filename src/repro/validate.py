"""Physics-aware configuration validation (the ``repro doctor`` engine).

Analytical models are only as trustworthy as the configurations fed
into them: an inconsistent machine description silently produces
plausible-looking numbers that flow into every figure and table.
This module turns the scattered constructor checks into a *structured*
validation layer:

* every finding is a :class:`Diagnostic` -- a stable code, a severity
  (``error`` or ``warning``), a human message, a fix hint and a
  JSON-serializable context -- collected into a
  :class:`ValidationReport`;
* the physics checks mirror the paper's hard constraints: the Eq. (2)
  photonic link budget must close under a realistic per-wavelength
  launch-power ceiling (:data:`MAX_LAUNCH_POWER_PER_WAVELENGTH_MW`),
  per-waveguide wavelength counts must respect both the demonstrated
  WDM density bound and the crosstalk-limited channel count, and the
  Table II bandwidth caps / buffer capacities / PE counts must be
  mutually consistent;
* :func:`validate_raw_config` checks *raw* (pre-construction) JSON
  configs, so deliberately broken inputs -- negative laser power,
  over-dense WDM -- surface as diagnostics instead of constructor
  tracebacks;
* :func:`machine_zoo` names every shipped machine so the ``repro
  doctor`` CLI (and CI) can sweep the full machine x model zoo.

Validation never mutates its subject and never raises for *findings*
(only for misuse); callers that want exception semantics use
:meth:`ValidationReport.raise_if_errors`, which raises a
:class:`~repro.errors.ConfigError` carrying the structured records.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Iterable, Mapping

from .core.accelerator import AcceleratorSpec
from .core.layer import LayerSet
from .core.simulator import Simulator
from .errors import ConfigError
from .photonics.components import (
    AGGRESSIVE_PARAMETERS,
    MODERATE_PARAMETERS,
    PhotonicParameters,
)
from .photonics.crosstalk import DEFAULT_CROSSTALK, CrosstalkModel
from .photonics.laser import per_wavelength_laser_power_mw
from .photonics.wdm import MAX_WAVELENGTHS_PER_WAVEGUIDE
from .spacx.power import SpacxPowerModel
from .spacx.topology import SpacxTopology

__all__ = [
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "MAX_LAUNCH_POWER_PER_WAVELENGTH_MW",
    "WARN_LAUNCH_POWER_PER_WAVELENGTH_MW",
    "Diagnostic",
    "ValidationReport",
    "crosstalk_limited_channels",
    "validate_photonic_parameters",
    "validate_wdm_density",
    "validate_link_budget",
    "validate_power_model",
    "validate_spec",
    "validate_model",
    "validate_simulator",
    "validate_raw_config",
    "machine_zoo",
    "validate_zoo",
]

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: Per-wavelength launch-power ceiling (20 dBm).  Silicon waveguides
#: enter the two-photon-absorption / self-heating regime around this
#: level, and no laser bank in the paper's survey launches more per
#: carrier; a configuration whose Eq. (2) budget demands more simply
#: does not close.  The shipped moderate/aggressive parameter sets at
#: the evaluated granularities need ~10-30 mW -- comfortably inside --
#: while the impractically coarse corner configurations of Fig. 19
#: (e.g. e/f = k = 32) blow past it, exactly as the paper argues.
MAX_LAUNCH_POWER_PER_WAVELENGTH_MW = 100.0

#: Warning threshold: the budget still closes, but with less than
#: 3 dB of headroom to the ceiling above.
WARN_LAUNCH_POWER_PER_WAVELENGTH_MW = 50.0


# ----------------------------------------------------------------------
# Structured findings
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Diagnostic:
    """One structured validation finding.

    ``code`` is stable and machine-matchable (``CFG-*`` spec
    consistency, ``PHO-*`` photonic physics, ``MDL-*`` model shapes,
    ``DOC-*`` raw-config handling, ``INV-*`` runtime invariants);
    ``context`` carries the offending quantities.
    """

    code: str
    severity: str  # SEVERITY_ERROR | SEVERITY_WARNING
    message: str
    subject: str = ""
    hint: str = ""
    context: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.severity not in (SEVERITY_ERROR, SEVERITY_WARNING):
            raise ConfigError(
                f"diagnostic severity must be 'error' or 'warning', "
                f"got {self.severity!r}"
            )

    @property
    def is_error(self) -> bool:
        """True for error-severity findings."""
        return self.severity == SEVERITY_ERROR

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form."""
        return {
            "code": self.code,
            "severity": self.severity,
            "subject": self.subject,
            "message": self.message,
            "hint": self.hint,
            "context": dict(self.context),
        }

    def describe(self) -> str:
        """One human-readable line."""
        text = f"[{self.severity.upper():>7}] {self.code}: {self.message}"
        if self.subject:
            text = f"[{self.severity.upper():>7}] {self.code} ({self.subject}): {self.message}"
        if self.hint:
            text += f"  (hint: {self.hint})"
        return text


@dataclass
class ValidationReport:
    """All findings about one subject (machine, model or raw config)."""

    subject: str
    diagnostics: list[Diagnostic] = field(default_factory=list)

    # -- collection ----------------------------------------------------
    def add(
        self,
        code: str,
        severity: str,
        message: str,
        *,
        hint: str = "",
        **context: Any,
    ) -> Diagnostic:
        """Record one finding and return it."""
        diagnostic = Diagnostic(
            code=code,
            severity=severity,
            message=message,
            subject=self.subject,
            hint=hint,
            context=context,
        )
        self.diagnostics.append(diagnostic)
        return diagnostic

    def error(self, code: str, message: str, *, hint: str = "", **context: Any) -> Diagnostic:
        """Record an error-severity finding."""
        return self.add(code, SEVERITY_ERROR, message, hint=hint, **context)

    def warning(self, code: str, message: str, *, hint: str = "", **context: Any) -> Diagnostic:
        """Record a warning-severity finding."""
        return self.add(code, SEVERITY_WARNING, message, hint=hint, **context)

    def merge(self, other: "ValidationReport") -> "ValidationReport":
        """Fold another report's findings into this one."""
        self.diagnostics.extend(other.diagnostics)
        return self

    # -- interrogation -------------------------------------------------
    @property
    def errors(self) -> list[Diagnostic]:
        """Error-severity findings only."""
        return [d for d in self.diagnostics if d.is_error]

    @property
    def warnings(self) -> list[Diagnostic]:
        """Warning-severity findings only."""
        return [d for d in self.diagnostics if not d.is_error]

    @property
    def ok(self) -> bool:
        """True when no error-severity finding was recorded."""
        return not self.errors

    @property
    def clean(self) -> bool:
        """True when *nothing* (not even a warning) was recorded."""
        return not self.diagnostics

    def codes(self) -> set[str]:
        """The set of finding codes present."""
        return {d.code for d in self.diagnostics}

    # -- output --------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form."""
        return {
            "subject": self.subject,
            "ok": self.ok,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def to_json(self, indent: int | None = None) -> str:
        """JSON text of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def describe(self) -> str:
        """Human-readable multi-line summary."""
        if self.clean:
            return f"ok       {self.subject}"
        lines = [
            f"{'ok' if self.ok else 'FAIL':<8} {self.subject} "
            f"({len(self.errors)} error(s), {len(self.warnings)} warning(s))"
        ]
        lines.extend(f"  {d.describe()}" for d in self.diagnostics)
        return "\n".join(lines)

    def raise_if_errors(self) -> None:
        """Raise :class:`~repro.errors.ConfigError` on any error.

        The raised exception carries the structured records in its
        ``diagnostics`` attribute, so robustness tooling keeps the
        codes and quantities instead of a flattened string.
        """
        errors = self.errors
        if not errors:
            return
        summary = "; ".join(f"{d.code}: {d.message}" for d in errors[:4])
        if len(errors) > 4:
            summary += f" (+{len(errors) - 4} more)"
        exc = ConfigError(f"{self.subject}: {summary}")
        exc.diagnostics = list(errors)
        raise exc


# ----------------------------------------------------------------------
# Photonic physics
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=32)
def crosstalk_limited_channels(
    crosstalk: CrosstalkModel = DEFAULT_CROSSTALK, search_limit: int = 512
) -> int:
    """Largest per-waveguide channel count the crosstalk model allows.

    The first-order coherent penalty diverges when the aggregate
    aggressor leakage approaches the signal power; this walks the
    (monotonic) leakage up to ``search_limit`` channels and returns
    the last feasible count.  At the paper's 25 dB suppression and
    3 dB/channel rolloff the limit sits far above the 64-wavelength
    WDM density bound, so density -- not crosstalk -- binds; weaker
    suppression flips that, which is exactly what this check is for.

    ``total_leakage_ratio(n)`` is the two-sided sum over distances
    ``1 .. n-2`` plus one aggressor at ``n-1``, so one running prefix
    reproduces every compared value bit for bit with one
    ``aggressor_ratio`` call per step.  The frozen model is the cache
    key: each model walks once per process.
    """
    feasible = 1
    two_sided = 0.0
    for n_channels in range(2, search_limit + 1):
        edge = crosstalk.aggressor_ratio(n_channels - 1)
        if two_sided + edge >= 0.5:
            return feasible
        two_sided += 2 * edge
        feasible = n_channels
    return feasible


_LOSS_FIELDS = (
    "laser_source_db",
    "coupler_db",
    "splitter_db",
    "waveguide_db_per_cm",
    "waveguide_bend_db",
    "waveguide_crossover_db",
    "ring_drop_db",
    "ring_through_db",
    "photodetector_db",
    "waveguide_to_receiver_db",
)


def _number(value: Any) -> float | None:
    """The value as a float, or None when it is not number-like."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def validate_photonic_parameters(
    params: PhotonicParameters | Mapping[str, Any],
    subject: str | None = None,
) -> ValidationReport:
    """Check one photonic component parameter set (Table III/IV shape).

    Accepts either a constructed :class:`PhotonicParameters` or a raw
    mapping (so broken values that the constructor would reject can
    still be *diagnosed* rather than crashed on).
    """
    get = (
        params.get  # type: ignore[union-attr]
        if isinstance(params, Mapping)
        else lambda name, default=None: getattr(params, name, default)
    )
    name = get("name", None) or "photonics"
    report = ValidationReport(subject=subject or str(name))
    for field_name in _LOSS_FIELDS + ("ring_heating_mw",):
        raw = get(field_name, None)
        if raw is None:
            continue
        value = _number(raw)
        if value is None:
            report.error(
                "DOC-TYPE",
                f"{field_name} must be a number, got {raw!r}",
                field=field_name,
            )
        elif value < 0.0:
            report.error(
                "PHO-PARAM",
                f"{field_name} must be >= 0, got {value!r}",
                hint="insertion losses and heater powers are magnitudes, not signed",
                field=field_name,
                value=value,
            )
        elif field_name == "waveguide_db_per_cm" and value > 10.0:
            report.warning(
                "PHO-PARAM",
                f"waveguide loss {value} dB/cm is far beyond fabricated "
                "silicon-photonic links (~0.1-3 dB/cm)",
                field=field_name,
                value=value,
            )
    sensitivity_raw = get("receiver_sensitivity_dbm", None)
    if sensitivity_raw is not None:
        sensitivity = _number(sensitivity_raw)
        if sensitivity is None:
            report.error(
                "DOC-TYPE",
                f"receiver_sensitivity_dbm must be a number, got {sensitivity_raw!r}",
                field="receiver_sensitivity_dbm",
            )
        elif sensitivity >= 0.0:
            report.error(
                "PHO-SENS",
                f"receiver sensitivity must be below 0 dBm, got {sensitivity!r}",
                hint="photodetectors resolve sub-milliwatt signals; "
                "use a negative dBm figure (e.g. -20)",
                value=sensitivity,
            )
        elif sensitivity < -40.0:
            report.warning(
                "PHO-SENS",
                f"receiver sensitivity {sensitivity} dBm is beyond "
                "demonstrated photodetectors (~-26 dBm)",
                value=sensitivity,
            )
    return report


def validate_wdm_density(
    n_channels: int,
    crosstalk: CrosstalkModel = DEFAULT_CROSSTALK,
    subject: str = "wdm",
) -> ValidationReport:
    """Check a per-waveguide wavelength count against physics bounds.

    Two independent ceilings apply: the demonstrated WDM multiplexing
    density (:data:`~repro.photonics.wdm.MAX_WAVELENGTHS_PER_WAVEGUIDE`)
    and the crosstalk-limited channel count of the receiver's ring
    filters (:func:`crosstalk_limited_channels`).
    """
    report = ValidationReport(subject=subject)
    if n_channels < 1:
        report.error(
            "PHO-WDM-DENSITY",
            f"a waveguide must carry >= 1 wavelength, got {n_channels}",
            channels=n_channels,
        )
        return report
    if n_channels > MAX_WAVELENGTHS_PER_WAVEGUIDE:
        report.error(
            "PHO-WDM-DENSITY",
            f"{n_channels} wavelengths per waveguide exceed the "
            f"demonstrated WDM density of {MAX_WAVELENGTHS_PER_WAVEGUIDE}",
            hint="reduce the k and/or e/f broadcast granularities "
            "(carriers per global waveguide = k + e/f)",
            channels=n_channels,
            limit=MAX_WAVELENGTHS_PER_WAVEGUIDE,
        )
    xtalk_limit = crosstalk_limited_channels(crosstalk)
    if n_channels > xtalk_limit:
        report.error(
            "PHO-XTALK",
            f"{n_channels} wavelengths exceed the crosstalk-limited "
            f"channel count of {xtalk_limit} (at "
            f"{crosstalk.suppression_db} dB suppression)",
            hint="increase ring suppression / channel spacing or lower "
            "the per-waveguide wavelength count",
            channels=n_channels,
            limit=xtalk_limit,
        )
    else:
        try:
            penalty = crosstalk.penalty_db(n_channels)
        except ValueError:  # infeasible despite the bound: be safe
            report.error(
                "PHO-XTALK",
                f"crosstalk penalty diverges at {n_channels} channels",
                channels=n_channels,
            )
        else:
            if penalty > 3.0:
                report.warning(
                    "PHO-XTALK",
                    f"crosstalk penalty {penalty:.2f} dB at {n_channels} "
                    "channels eats a large share of the link budget",
                    penalty_db=penalty,
                    channels=n_channels,
                )
    return report


def validate_link_budget(
    topology: SpacxTopology,
    params: PhotonicParameters = MODERATE_PARAMETERS,
    crosstalk: CrosstalkModel | None = None,
    *,
    max_launch_power_mw: float = MAX_LAUNCH_POWER_PER_WAVELENGTH_MW,
    subject: str | None = None,
) -> ValidationReport:
    """Check that the Eq. (2) laser link budget closes.

    Builds the :class:`~repro.spacx.power.SpacxPowerModel` of this
    topology and parameter set (pitch-constant geometry, no floorplan)
    and checks it with :func:`validate_power_model`.
    """
    return validate_power_model(
        SpacxPowerModel(topology, params, crosstalk=crosstalk),
        max_launch_power_mw=max_launch_power_mw,
        subject=subject,
    )


def validate_power_model(
    power_model: SpacxPowerModel,
    *,
    max_launch_power_mw: float = MAX_LAUNCH_POWER_PER_WAVELENGTH_MW,
    subject: str | None = None,
) -> ValidationReport:
    """Check that a SPACX power model's Eq. (2) link budget closes.

    Reads the model's own worst-case X (cross-chiplet) and Y
    (single-chiplet) path budgets -- so an attached floorplan's
    geometry counts -- and compares the required per-wavelength launch
    power against the physical ceiling.  Also folds in the WDM density
    / crosstalk bounds of :func:`validate_wdm_density`.
    """
    topology = power_model.topology
    params = power_model.params
    crosstalk = power_model.crosstalk
    if subject is None:
        subject = (
            f"spacx[M={topology.chiplets} N={topology.pes_per_chiplet} "
            f"e/f={topology.ef_granularity} k={topology.k_granularity} "
            f"{params.name}]"
        )
    report = ValidationReport(subject=subject)
    report.merge(
        validate_wdm_density(
            topology.wavelengths_per_global_waveguide,
            crosstalk or DEFAULT_CROSSTALK,
            subject=subject,
        )
    )
    try:
        penalty_db = power_model._crosstalk_penalty_db()
    except ValueError as exc:
        report.error(
            "PHO-XTALK",
            f"crosstalk model infeasible for this waveguide load: {exc}",
            channels=topology.wavelengths_per_global_waveguide,
        )
        penalty_db = 0.0
    for path_name, budget in (
        ("X (cross-chiplet)", power_model.x_path_budget()),
        ("Y (single-chiplet)", power_model.y_path_budget()),
    ):
        loss_db = budget.total_loss_db + penalty_db
        required_mw = per_wavelength_laser_power_mw(params, loss_db)
        context = dict(
            path=path_name,
            loss_db=round(loss_db, 3),
            required_mw=round(required_mw, 3),
            limit_mw=max_launch_power_mw,
        )
        if required_mw > max_launch_power_mw:
            report.error(
                "PHO-LINK-BUDGET",
                f"{path_name} path needs {required_mw:.1f} mW per "
                f"wavelength ({loss_db:.1f} dB of loss) -- beyond the "
                f"{max_launch_power_mw:.0f} mW launch-power ceiling",
                hint="shorten the broadcast paths (finer e/f or k "
                "granularity) or improve the component losses",
                **context,
            )
        elif required_mw > WARN_LAUNCH_POWER_PER_WAVELENGTH_MW:
            report.warning(
                "PHO-LINK-MARGIN",
                f"{path_name} path needs {required_mw:.1f} mW per "
                "wavelength -- under 3 dB of headroom to the "
                f"{max_launch_power_mw:.0f} mW ceiling",
                **context,
            )
    return report


# ----------------------------------------------------------------------
# Accelerator specifications
# ----------------------------------------------------------------------
_CAP_FIELDS = (
    "gb_egress_gbps",
    "gb_ingress_gbps",
    "chiplet_read_gbps",
    "chiplet_write_gbps",
    "pe_read_gbps",
    "pe_write_gbps",
    "dram_bandwidth_gbps",
)

#: (weight cap, ifmap cap, pooled cap) triples of the per-datatype
#: wavelength partitions; both members of a pair must be set together
#: and may never exceed the pooled link they partition.
_SPLIT_TRIPLES = (
    ("gb_weight_egress_gbps", "gb_ifmap_egress_gbps", "gb_egress_gbps"),
    ("chiplet_weight_read_gbps", "chiplet_ifmap_read_gbps", "chiplet_read_gbps"),
    ("pe_weight_read_gbps", "pe_ifmap_read_gbps", "pe_read_gbps"),
)


def validate_spec(spec: AcceleratorSpec) -> ValidationReport:
    """Mutual-consistency checks for one accelerator specification."""
    report = ValidationReport(subject=spec.name)

    # Compute fabric.
    for field_name in ("chiplets", "pes_per_chiplet", "mac_vector_width"):
        value = getattr(spec, field_name)
        if value < 1:
            report.error(
                "CFG-DIM",
                f"{field_name} must be >= 1, got {value}",
                field=field_name,
                value=value,
            )
    if spec.frequency_ghz <= 0:
        report.error(
            "CFG-FREQ",
            f"core frequency must be > 0 GHz, got {spec.frequency_ghz!r}",
            value=spec.frequency_ghz,
        )
    elif spec.frequency_ghz > 10.0:
        report.warning(
            "CFG-FREQ",
            f"core frequency {spec.frequency_ghz} GHz is beyond any "
            "fabricated DNN accelerator",
            value=spec.frequency_ghz,
        )

    # Memory hierarchy.
    if spec.pe_buffer_bytes < 1 or spec.gb_bytes < 1:
        report.error(
            "CFG-MEM",
            "PE buffer and global buffer must be >= 1 byte "
            f"(pe={spec.pe_buffer_bytes}, gb={spec.gb_bytes})",
            pe_buffer_bytes=spec.pe_buffer_bytes,
            gb_bytes=spec.gb_bytes,
        )
    elif spec.pe_buffer_bytes > spec.gb_bytes:
        report.warning(
            "CFG-MEM",
            f"one PE buffer ({spec.pe_buffer_bytes} B) exceeds the whole "
            f"global buffer ({spec.gb_bytes} B) -- inverted hierarchy",
            pe_buffer_bytes=spec.pe_buffer_bytes,
            gb_bytes=spec.gb_bytes,
        )

    # Bandwidth caps.
    for field_name in _CAP_FIELDS:
        value = getattr(spec, field_name)
        if value <= 0:
            report.error(
                "CFG-CAP",
                f"{field_name} must be > 0 Gbps, got {value!r}",
                field=field_name,
                value=value,
            )

    # Broadcast granularities must tile the fabric.
    ef_g = spec.ef_granularity
    k_g = spec.k_granularity
    if ef_g and (ef_g < 1 or spec.chiplets % ef_g):
        report.error(
            "CFG-GRAN",
            f"e/f granularity {ef_g} must divide the chiplet count "
            f"{spec.chiplets}",
            ef_granularity=ef_g,
            chiplets=spec.chiplets,
        )
    if k_g and (k_g < 1 or spec.pes_per_chiplet % k_g):
        report.error(
            "CFG-GRAN",
            f"k granularity {k_g} must divide the per-chiplet PE count "
            f"{spec.pes_per_chiplet}",
            k_granularity=k_g,
            pes_per_chiplet=spec.pes_per_chiplet,
        )

    # Per-datatype wavelength partitions: set in pairs, and the split
    # caps can never exceed the pooled link they partition.
    for weight_field, ifmap_field, pooled_field in _SPLIT_TRIPLES:
        weight_cap = getattr(spec, weight_field)
        ifmap_cap = getattr(spec, ifmap_field)
        if bool(weight_cap) != bool(ifmap_cap):
            report.error(
                "CFG-SPLIT-PAIR",
                f"{weight_field} and {ifmap_field} must be set together "
                f"(got {weight_cap!r} / {ifmap_cap!r})",
                hint="0.0 on both means a pooled link; a one-sided "
                "partition starves the unnamed datatype",
                weight=weight_cap,
                ifmap=ifmap_cap,
            )
            continue
        if not weight_cap:
            continue
        if weight_cap < 0 or ifmap_cap < 0:
            report.error(
                "CFG-SPLIT-PAIR",
                f"split caps must be >= 0 (got {weight_cap!r} / {ifmap_cap!r})",
                weight=weight_cap,
                ifmap=ifmap_cap,
            )
            continue
        pooled_cap = getattr(spec, pooled_field)
        if weight_cap + ifmap_cap > pooled_cap * (1.0 + 1e-9):
            report.error(
                "CFG-SPLIT-SUM",
                f"{weight_field} + {ifmap_field} = "
                f"{weight_cap + ifmap_cap:g} Gbps exceeds the pooled "
                f"{pooled_field} = {pooled_cap:g} Gbps",
                hint="a fixed wavelength partition can only divide the "
                "physical carriers, never add capacity",
                split_sum=weight_cap + ifmap_cap,
                pooled=pooled_cap,
            )

    # Hierarchy throughput sanity (warnings: over-provisioned shared
    # links are a modeling smell, not a physical impossibility).
    if spec.pes_per_chiplet >= 1 and spec.chiplet_read_gbps > (
        spec.pes_per_chiplet * spec.pe_read_gbps
    ):
        report.warning(
            "CFG-BW-CHIPLET",
            f"chiplet ingest ({spec.chiplet_read_gbps:g} Gbps) exceeds "
            "what its PEs can consume "
            f"({spec.pes_per_chiplet} x {spec.pe_read_gbps:g} Gbps)",
            chiplet_read=spec.chiplet_read_gbps,
            pe_aggregate=spec.pes_per_chiplet * spec.pe_read_gbps,
        )
    if spec.chiplets >= 1 and spec.gb_egress_gbps > (
        spec.chiplets * spec.chiplet_read_gbps
    ):
        report.warning(
            "CFG-BW-GB",
            f"GB egress ({spec.gb_egress_gbps:g} Gbps) exceeds what the "
            "chiplet interfaces can accept "
            f"({spec.chiplets} x {spec.chiplet_read_gbps:g} Gbps)",
            gb_egress=spec.gb_egress_gbps,
            chiplet_aggregate=spec.chiplets * spec.chiplet_read_gbps,
        )
    return report


# ----------------------------------------------------------------------
# Models
# ----------------------------------------------------------------------
def validate_model(model: LayerSet) -> ValidationReport:
    """Well-formedness checks for one DNN layer set."""
    report = ValidationReport(subject=model.name)
    if not len(model):
        report.error("MDL-EMPTY", "model has no layers")
        return report
    for layer in model.unique_layers:
        if layer.e < 1 or layer.f < 1:
            report.error(
                "MDL-OFMAP",
                f"layer {layer.name}: ofmap collapses to "
                f"{layer.e}x{layer.f} (kernel/stride larger than ifmap)",
                layer=layer.name,
                e=layer.e,
                f=layer.f,
            )
        if layer.macs < 1:
            report.error(
                "MDL-MACS",
                f"layer {layer.name}: zero MACs",
                layer=layer.name,
            )
    return report


# ----------------------------------------------------------------------
# Whole simulators and the shipped zoo
# ----------------------------------------------------------------------
def validate_simulator(simulator: Simulator, subject: str | None = None) -> ValidationReport:
    """Validate a constructed simulator: spec plus photonic physics.

    For photonic machines (anything whose network-energy model exposes
    the :class:`~repro.spacx.power.SpacxPowerModel` surface) the link
    budget and WDM density checks run on the *attached* power model
    (:func:`validate_power_model`): its topology, parameter set,
    crosstalk model and floorplan, and the path budgets its laser power
    comes from.  Electrical baselines get the spec checks only.
    """
    report = validate_spec(simulator.spec)
    if subject is not None:
        report.subject = subject
    network = simulator.network_energy
    if hasattr(network, "x_path_budget") and hasattr(network, "topology"):
        report.merge(validate_power_model(network, subject=report.subject))
    return report


def machine_zoo() -> dict[str, Callable[[], Simulator]]:
    """Every shipped machine, by doctor-facing name."""
    from .baselines.popstar import popstar_simulator
    from .baselines.simba import simba_simulator
    from .spacx.architecture import spacx_simulator

    return {
        "simba": simba_simulator,
        "popstar": popstar_simulator,
        "spacx": spacx_simulator,
        "spacx-ba": lambda: spacx_simulator(bandwidth_allocation=False),
        "spacx-aggressive": lambda: spacx_simulator(
            params=AGGRESSIVE_PARAMETERS
        ),
    }


def validate_zoo(
    machines: Iterable[str] | None = None,
    models: Iterable[str] | None = None,
) -> list[ValidationReport]:
    """Static validation of machines and models by name.

    Unknown names raise :class:`~repro.errors.ConfigError` (the doctor
    CLI turns that into its one-line exit-2 diagnostic); construction
    failures of *known* names are captured as ``CFG-CONSTRUCT``
    error diagnostics instead of propagating.
    """
    from .models.zoo import EXTENDED_MODELS, get_model

    zoo = machine_zoo()
    machine_names = list(zoo) if machines is None else list(machines)
    model_names = [] if models is None else list(models)
    reports: list[ValidationReport] = []
    for name in machine_names:
        if name not in zoo:
            raise ConfigError(
                f"unknown machine {name!r}; available: {sorted(zoo)}"
            )
        try:
            simulator = zoo[name]()
        except Exception as exc:  # constructor-level rejection
            report = ValidationReport(subject=name)
            report.error(
                "CFG-CONSTRUCT",
                f"machine construction failed: {exc}",
                error_type=type(exc).__name__,
            )
            reports.append(report)
            continue
        reports.append(validate_simulator(simulator, subject=name))
    for name in model_names:
        if name not in EXTENDED_MODELS:
            raise ConfigError(
                f"unknown model {name!r}; available: {sorted(EXTENDED_MODELS)}"
            )
        reports.append(validate_model(get_model(name)))
    return reports


# ----------------------------------------------------------------------
# Raw (pre-construction) configs -- `repro doctor --config file.json`
# ----------------------------------------------------------------------
_RAW_KEYS = {
    "machine",
    "chiplets",
    "pes_per_chiplet",
    "ef_granularity",
    "k_granularity",
    "wavelengths_per_waveguide",
    "laser_power_mw",
    "photonics",
    "crosstalk",
}

_RAW_INT_KEYS = (
    "chiplets",
    "pes_per_chiplet",
    "ef_granularity",
    "k_granularity",
    "wavelengths_per_waveguide",
)


def validate_raw_config(raw: Mapping[str, Any]) -> ValidationReport:
    """Diagnose a raw JSON machine config *before* construction.

    The schema mirrors the SPACX construction knobs::

        {
          "machine": "spacx",            # zoo name (default "spacx")
          "chiplets": 32, "pes_per_chiplet": 32,
          "ef_granularity": 8, "k_granularity": 16,
          "laser_power_mw": 100.0,       # per-wavelength launch ceiling
          "wavelengths_per_waveguide": 24,   # optional explicit override
          "photonics": {"receiver_sensitivity_dbm": -20.0, ...},
          "crosstalk": {"suppression_db": 25.0, ...}
        }

    Every physically broken value (negative laser power, over-dense
    WDM, negative losses, non-closing link budget) becomes an
    error-severity diagnostic; nothing here raises for *findings*.
    """
    if not isinstance(raw, Mapping):
        raise ConfigError(
            f"config must be a JSON object, got {type(raw).__name__}"
        )
    machine = raw.get("machine", "spacx")
    report = ValidationReport(subject=f"config[{machine}]")
    for key in raw:
        if key not in _RAW_KEYS:
            report.warning(
                "DOC-KEY",
                f"unknown config key {key!r} is ignored",
                hint=f"known keys: {sorted(_RAW_KEYS)}",
                key=key,
            )
    if machine not in machine_zoo():
        report.error(
            "DOC-MACHINE",
            f"unknown machine {machine!r}",
            hint=f"available: {sorted(machine_zoo())}",
            machine=machine,
        )
        return report

    # Integer knobs.
    values: dict[str, int] = {}
    for key in _RAW_INT_KEYS:
        if key not in raw:
            continue
        value = _number(raw[key])
        if value is None or value != int(value):
            report.error(
                "DOC-TYPE",
                f"{key} must be an integer, got {raw[key]!r}",
                key=key,
            )
        elif value < 1:
            report.error(
                "CFG-DIM",
                f"{key} must be >= 1, got {int(value)}",
                key=key,
                value=int(value),
            )
        else:
            values[key] = int(value)

    # Per-wavelength launch power: the "negative laser power" class of
    # broken configs is caught here, before any construction.
    max_launch_mw = MAX_LAUNCH_POWER_PER_WAVELENGTH_MW
    if "laser_power_mw" in raw:
        laser_mw = _number(raw["laser_power_mw"])
        if laser_mw is None:
            report.error(
                "DOC-TYPE",
                f"laser_power_mw must be a number, got {raw['laser_power_mw']!r}",
            )
        elif laser_mw <= 0.0:
            report.error(
                "PHO-LASER",
                f"laser launch power must be > 0 mW, got {laser_mw!r}",
                hint="a laser bank cannot launch zero or negative power",
                value=laser_mw,
            )
        else:
            max_launch_mw = min(laser_mw, MAX_LAUNCH_POWER_PER_WAVELENGTH_MW)

    # Photonic parameter overrides on the moderate Table III set.
    params = MODERATE_PARAMETERS
    overrides = raw.get("photonics", {})
    if overrides:
        if not isinstance(overrides, Mapping):
            report.error(
                "DOC-TYPE",
                f"'photonics' must be an object, got {type(overrides).__name__}",
            )
            overrides = {}
        else:
            known = {f.name for f in fields(PhotonicParameters)}
            unknown = sorted(set(overrides) - known)
            for key in unknown:
                report.error(
                    "DOC-KEY",
                    f"unknown photonics parameter {key!r}",
                    hint=f"known parameters: {sorted(known)}",
                    key=key,
                )
            overrides = {k: v for k, v in overrides.items() if k in known}
            report.merge(
                validate_photonic_parameters(
                    {**{f.name: getattr(params, f.name) for f in fields(PhotonicParameters)}, **overrides},
                    subject=report.subject,
                )
            )
    # The WDM density checks always apply a crosstalk model; the link
    # budget carries a crosstalk penalty only when the config names
    # one, as a built simulator does only when its power model has one.
    crosstalk = DEFAULT_CROSSTALK
    budget_crosstalk: CrosstalkModel | None = None
    crosstalk_raw = raw.get("crosstalk", {})
    if crosstalk_raw:
        if not isinstance(crosstalk_raw, Mapping):
            report.error(
                "DOC-TYPE",
                f"'crosstalk' must be an object, got {type(crosstalk_raw).__name__}",
            )
        else:
            try:
                crosstalk = budget_crosstalk = replace(
                    DEFAULT_CROSSTALK, **dict(crosstalk_raw)
                )
            except (TypeError, ValueError) as exc:
                report.error(
                    "DOC-TYPE", f"bad crosstalk model: {exc}"
                )

    # Explicit WDM density override is checked even when the topology
    # cannot be built.
    if "wavelengths_per_waveguide" in values:
        report.merge(
            validate_wdm_density(
                values["wavelengths_per_waveguide"],
                crosstalk,
                subject=report.subject,
            )
        )

    if not machine.startswith("spacx"):
        # Electrical baselines: nothing photonic to check; construct
        # and run the spec consistency pass with the sizing knobs.
        if not report.ok:
            return report
        from .baselines.popstar import popstar_spec
        from .baselines.simba import simba_spec

        builder = simba_spec if machine == "simba" else popstar_spec
        try:
            spec = builder(
                chiplets=values.get("chiplets", 32),
                pes_per_chiplet=values.get("pes_per_chiplet", 32),
            )
        except ValueError as exc:
            report.error("CFG-CONSTRUCT", f"spec construction failed: {exc}")
            return report
        spec_report = validate_spec(spec)
        spec_report.subject = report.subject
        return report.merge(spec_report)

    # SPACX: construct params + topology and close the link budget.
    if any(d.code in ("PHO-PARAM", "PHO-SENS", "DOC-TYPE") and d.is_error
           for d in report.diagnostics):
        return report  # parameter values already rejected
    if overrides:
        try:
            params = replace(MODERATE_PARAMETERS, **dict(overrides))
        except ValueError as exc:
            report.error("PHO-PARAM", f"bad photonic parameters: {exc}")
            return report
    chiplets = values.get("chiplets", 32)
    pes = values.get("pes_per_chiplet", 32)
    ef_g = min(values.get("ef_granularity", 8), chiplets)
    k_g = min(values.get("k_granularity", 16), pes)
    try:
        topology = SpacxTopology(
            chiplets=chiplets,
            pes_per_chiplet=pes,
            ef_granularity=ef_g,
            k_granularity=k_g,
        )
    except ValueError as exc:
        report.error(
            "CFG-GRAN",
            f"topology construction failed: {exc}",
            chiplets=chiplets,
            pes_per_chiplet=pes,
            ef_granularity=ef_g,
            k_granularity=k_g,
        )
        return report
    if "wavelengths_per_waveguide" not in values:
        report.merge(
            validate_wdm_density(
                topology.wavelengths_per_global_waveguide,
                crosstalk,
                subject=report.subject,
            )
        )
    budget_report = validate_link_budget(
        topology,
        params,
        crosstalk=budget_crosstalk,
        max_launch_power_mw=max_launch_mw,
        subject=report.subject,
    )
    # Drop the duplicate WDM findings the budget validator also emits.
    budget_report.diagnostics = [
        d
        for d in budget_report.diagnostics
        if d.code not in ("PHO-WDM-DENSITY", "PHO-XTALK")
    ]
    report.merge(budget_report)
    if report.ok and not math.isfinite(max_launch_mw):
        report.error("PHO-LASER", "laser power bound must be finite")
    return report
