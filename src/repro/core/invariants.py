"""Runtime invariant audit for simulation results.

The analytical simulator produces :class:`~repro.core.metrics.LayerResult`
and :class:`~repro.core.metrics.ModelResult` objects whose fields obey a
small set of physical and bookkeeping invariants: times and energies are
non-negative, the exposed communication time is exactly the part of the
communication that computation cannot hide, arithmetic work never
exceeds what the allocated compute cycles can deliver, communication
time respects the bytes-over-bandwidth lower bound of every shared
resource, and the achieved MAC throughput never beats the machine's
roofline.  A result violating any of these is not "a slightly different
data point" -- it is evidence of a bug (in a model, a mapping change, a
cache round-trip, or a hand-edited result file) and must be surfaced
loudly rather than averaged into a figure.

:func:`audit_layer_result` checks one layer, :func:`audit_model_result`
a whole inference pass; both return a list of structured
:class:`InvariantViolation` records (empty means the result is sound).
:func:`raise_on_violations` converts a non-empty list into an
:class:`~repro.errors.InvariantViolationError`.  The
:class:`~repro.core.simulator.Simulator` runs the audit inline when
constructed with ``strict=True`` (or when the ``REPRO_STRICT``
environment variable is set -- see :func:`strict_mode_default`), and the
sweep engine audits every job result it accepts.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from ..errors import InvariantViolationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .accelerator import AcceleratorSpec
    from .metrics import LayerResult, ModelResult

__all__ = [
    "DEFAULT_REL_TOL",
    "InvariantViolation",
    "audit_layer_result",
    "audit_model_result",
    "raise_on_violations",
    "strict_mode_default",
]

#: Relative tolerance for floating-point identity checks.  The
#: simulator computes every audited quantity in one or two floating
#: point operations, so anything beyond a few ulps indicates real
#: corruption; 1e-6 leaves comfortable slack for both.
DEFAULT_REL_TOL = 1e-6


@dataclass(frozen=True)
class InvariantViolation:
    """One broken invariant, with enough context to debug it."""

    code: str
    message: str
    accelerator: str = ""
    layer: str = ""
    observed: float | None = None
    bound: float | None = None
    context: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        payload: dict = {
            "code": self.code,
            "message": self.message,
            "accelerator": self.accelerator,
            "layer": self.layer,
        }
        if self.observed is not None:
            payload["observed"] = self.observed
        if self.bound is not None:
            payload["bound"] = self.bound
        if self.context:
            payload["context"] = dict(self.context)
        return payload

    def describe(self) -> str:
        """One human-readable line."""
        where = "/".join(part for part in (self.accelerator, self.layer) if part)
        prefix = f"[{self.code}] {where}: " if where else f"[{self.code}] "
        return prefix + self.message


def strict_mode_default() -> bool:
    """Whether strict auditing is enabled by environment.

    ``REPRO_STRICT`` set to anything other than ``""``, ``"0"``,
    ``"false"`` or ``"no"`` turns the simulator's inline audit on.
    """
    value = os.environ.get("REPRO_STRICT", "")
    return value.strip().lower() not in ("", "0", "false", "no")


#: Instance-attribute key marking a layer result the grid kernel
#: already audited (verdict: clean) against the spec stored under it.
#: :func:`audit_model_result` then skips it at the default tolerance
#: against the *same* spec object; :func:`audit_layer_result` never
#: consults the marker, so a direct single-layer audit re-verifies.
#: Stored straight in ``__dict__`` (the ``shape_key`` caching idiom for
#: frozen dataclasses): hashing a LayerResult for a WeakKeyDictionary
#: would recursively hash its whole frozen-dataclass tree, which costs
#: more than the audit the marker is meant to save.
#: ``dataclasses.replace`` re-runs ``__init__`` and so drops the
#: marker; a pickle round-trip keeps the attribute but deserialises a
#: *different* spec object, failing the identity check below -- either
#: way, corrupted copies and pool-roundtripped results are re-audited
#: from scratch.
_PREAUDIT_ATTR = "_preaudited_spec"


def _is_bad(value: float) -> bool:
    """NaN detector that tolerates non-float garbage."""
    try:
        return math.isnan(value)
    except TypeError:
        return True


def _close(observed: float, expected: float, rel_tol: float) -> bool:
    """Equality within ``rel_tol``; two infinities of a kind agree."""
    if math.isinf(observed) or math.isinf(expected):
        return observed == expected
    return math.isclose(observed, expected, rel_tol=rel_tol, abs_tol=1e-18)


def _transfer_lower_bound_s(total_bytes: float, bandwidth_gbps: float) -> float:
    """Serialisation-time floor of a byte volume at a bandwidth cap."""
    if total_bytes <= 0 or bandwidth_gbps <= 0:
        return 0.0
    return total_bytes * 8 / (bandwidth_gbps * 1e9)


def _audit_times(
    result: "LayerResult", rel_tol: float, out: list[InvariantViolation]
) -> None:
    acc, lay = result.accelerator, result.layer.name
    times = {
        "computation_time_s": result.computation_time_s,
        "communication_time_s": result.communication_time_s,
        "exposed_communication_s": result.exposed_communication_s,
        "packet_latency_s": result.packet_latency_s,
    }
    for name, value in times.items():
        if _is_bad(value):
            out.append(
                InvariantViolation(
                    code="INV-NAN",
                    message=f"{name} is NaN",
                    accelerator=acc,
                    layer=lay,
                    context={"field": name},
                )
            )
        elif value < 0:
            out.append(
                InvariantViolation(
                    code="INV-TIME-NEG",
                    message=f"{name} is negative",
                    accelerator=acc,
                    layer=lay,
                    observed=value,
                    bound=0.0,
                    context={"field": name},
                )
            )

    comp = result.computation_time_s
    comm = result.communication_time_s
    exposed = result.exposed_communication_s
    if not any(_is_bad(v) for v in (comp, comm, exposed)):
        expected = max(0.0, comm - comp)
        if not _close(exposed, expected, rel_tol):
            out.append(
                InvariantViolation(
                    code="INV-TIME-EXPOSED",
                    message=(
                        "exposed communication is not max(0, comm - comp): "
                        f"got {exposed!r}, expected {expected!r}"
                    ),
                    accelerator=acc,
                    layer=lay,
                    observed=exposed,
                    bound=expected,
                    context={
                        "computation_time_s": comp,
                        "communication_time_s": comm,
                    },
                )
            )


def _audit_energy(
    result: "LayerResult", rel_tol: float, out: list[InvariantViolation]
) -> None:
    acc, lay = result.accelerator, result.layer.name
    energy = result.energy
    network = energy.network
    components = {
        "mac_mj": energy.mac_mj,
        "pe_buffer_mj": energy.pe_buffer_mj,
        "gb_mj": energy.gb_mj,
        "dram_mj": energy.dram_mj,
        "network.eo_mj": network.eo_mj,
        "network.oe_mj": network.oe_mj,
        "network.heating_mj": network.heating_mj,
        "network.laser_mj": network.laser_mj,
        "network.electrical_mj": network.electrical_mj,
    }
    any_bad = False
    for name, value in components.items():
        if _is_bad(value):
            any_bad = True
            out.append(
                InvariantViolation(
                    code="INV-NAN",
                    message=f"energy component {name} is NaN",
                    accelerator=acc,
                    layer=lay,
                    context={"field": name},
                )
            )
        elif value < 0:
            out.append(
                InvariantViolation(
                    code="INV-ENERGY-NEG",
                    message=f"energy component {name} is negative",
                    accelerator=acc,
                    layer=lay,
                    observed=value,
                    bound=0.0,
                    context={"field": name},
                )
            )
    if any_bad:
        return
    # A stock EnergyBreakdown derives its totals, so this only fires
    # for stand-in objects (cache corruption, hand-built results) that
    # report a total inconsistent with their own components.
    expected_total = (
        energy.mac_mj
        + energy.pe_buffer_mj
        + energy.gb_mj
        + energy.dram_mj
        + network.eo_mj
        + network.oe_mj
        + network.heating_mj
        + network.laser_mj
        + network.electrical_mj
    )
    observed_total = energy.total_mj
    if _is_bad(observed_total) or not _close(
        observed_total, expected_total, rel_tol
    ):
        out.append(
            InvariantViolation(
                code="INV-ENERGY-SUM",
                message=(
                    "energy total does not equal the sum of its "
                    f"components: got {observed_total!r}, expected "
                    f"{expected_total!r}"
                ),
                accelerator=acc,
                layer=lay,
                observed=observed_total,
                bound=expected_total,
            )
        )


def _audit_bytes(result: "LayerResult", out: list[InvariantViolation]) -> None:
    acc, lay = result.accelerator, result.layer.name
    traffic = result.traffic
    byte_fields = {
        "delivered_bytes": result.delivered_bytes,
        "gb_weight_send_bytes": traffic.gb_weight_send_bytes,
        "gb_ifmap_send_bytes": traffic.gb_ifmap_send_bytes,
        "pe_weight_receive_bytes": traffic.pe_weight_receive_bytes,
        "pe_ifmap_receive_bytes": traffic.pe_ifmap_receive_bytes,
        "chiplet_weight_cross_bytes": traffic.chiplet_weight_cross_bytes,
        "chiplet_ifmap_cross_bytes": traffic.chiplet_ifmap_cross_bytes,
        "output_bytes": traffic.output_bytes,
        "psum_bytes": traffic.psum_bytes,
        "dram_read_bytes": traffic.dram_read_bytes,
        "dram_write_bytes": traffic.dram_write_bytes,
    }
    for name, value in byte_fields.items():
        if _is_bad(value):
            out.append(
                InvariantViolation(
                    code="INV-NAN",
                    message=f"byte count {name} is NaN",
                    accelerator=acc,
                    layer=lay,
                    context={"field": name},
                )
            )
        elif value < 0:
            out.append(
                InvariantViolation(
                    code="INV-BYTES",
                    message=f"byte count {name} is negative",
                    accelerator=acc,
                    layer=lay,
                    observed=float(value),
                    bound=0.0,
                    context={"field": name},
                )
            )


def _audit_against_spec(
    result: "LayerResult",
    spec: "AcceleratorSpec",
    rel_tol: float,
    out: list[InvariantViolation],
) -> None:
    acc, lay = result.accelerator, result.layer.name
    mapping = result.mapping
    traffic = result.traffic
    slack = 1.0 + rel_tol

    # --- mapping fits the machine -------------------------------------
    if mapping.chiplets_active > spec.chiplets:
        out.append(
            InvariantViolation(
                code="INV-MAP",
                message=(
                    f"mapping uses {mapping.chiplets_active} chiplets but "
                    f"the machine has {spec.chiplets}"
                ),
                accelerator=acc,
                layer=lay,
                observed=float(mapping.chiplets_active),
                bound=float(spec.chiplets),
            )
        )
    if mapping.pes_active_per_chiplet > spec.pes_per_chiplet:
        out.append(
            InvariantViolation(
                code="INV-MAP",
                message=(
                    f"mapping uses {mapping.pes_active_per_chiplet} PEs per "
                    f"chiplet but the machine has {spec.pes_per_chiplet}"
                ),
                accelerator=acc,
                layer=lay,
                observed=float(mapping.pes_active_per_chiplet),
                bound=float(spec.pes_per_chiplet),
            )
        )

    # --- arithmetic-op conservation -----------------------------------
    # The compute cycles allocated by the mapper must be able to carry
    # the layer's analytic MAC count at the machine's peak rate.
    macs = result.layer.macs
    capacity = mapping.compute_cycles * spec.peak_macs_per_cycle
    if macs > capacity * slack:
        out.append(
            InvariantViolation(
                code="INV-OPS",
                message=(
                    f"layer performs {macs} MACs but "
                    f"{mapping.compute_cycles} cycles at "
                    f"{spec.peak_macs_per_cycle} MACs/cycle can only "
                    f"deliver {capacity}"
                ),
                accelerator=acc,
                layer=lay,
                observed=float(macs),
                bound=float(capacity),
                context={"compute_cycles": mapping.compute_cycles},
            )
        )

    # --- computation time is cycles at the core clock ------------------
    comp = result.computation_time_s
    expected_comp = mapping.compute_cycles * spec.cycle_time_s
    if not _is_bad(comp) and not _close(comp, expected_comp, rel_tol):
        out.append(
            InvariantViolation(
                code="INV-OPS-TIME",
                message=(
                    "computation time does not match compute cycles at "
                    f"the core clock: got {comp!r}, expected "
                    f"{expected_comp!r}"
                ),
                accelerator=acc,
                layer=lay,
                observed=comp,
                bound=expected_comp,
                context={"compute_cycles": mapping.compute_cycles},
            )
        )

    # --- communication-time lower bound --------------------------------
    # The communication time is the bottleneck over the shared-resource
    # serialisation times, so it can never undercut any single
    # resource's bytes-over-cap floor.  GB egress honours the
    # per-datatype wavelength partition when the spec declares one.
    if spec.gb_weight_egress_gbps and spec.gb_ifmap_egress_gbps:
        gb_floor = max(
            _transfer_lower_bound_s(
                traffic.gb_weight_send_bytes, spec.gb_weight_egress_gbps
            ),
            _transfer_lower_bound_s(
                traffic.gb_ifmap_send_bytes, spec.gb_ifmap_egress_gbps
            ),
        )
    else:
        gb_floor = _transfer_lower_bound_s(
            traffic.gb_send_bytes, spec.gb_egress_gbps
        )
    floors = {
        "gb_egress": gb_floor,
        "gb_ingress": _transfer_lower_bound_s(
            traffic.output_bytes, spec.gb_ingress_gbps
        ),
        "dram": _transfer_lower_bound_s(
            traffic.dram_read_bytes + traffic.dram_write_bytes,
            spec.dram_bandwidth_gbps,
        ),
    }
    comm = result.communication_time_s
    if not _is_bad(comm):
        for resource, floor in floors.items():
            if comm < floor * (1.0 - rel_tol):
                out.append(
                    InvariantViolation(
                        code="INV-COMM-LB",
                        message=(
                            f"communication time {comm!r} s undercuts the "
                            f"{resource} serialisation floor {floor!r} s"
                        ),
                        accelerator=acc,
                        layer=lay,
                        observed=comm,
                        bound=floor,
                        context={"resource": resource},
                    )
                )

    # --- roofline ------------------------------------------------------
    # Achieved MAC throughput over the layer's execution time can never
    # exceed the machine's peak.
    exec_s = result.execution_time_s
    if not _is_bad(exec_s) and exec_s > 0 and math.isfinite(exec_s):
        peak_macs_per_s = spec.peak_macs_per_cycle * spec.frequency_ghz * 1e9
        achieved = macs / exec_s
        if achieved > peak_macs_per_s * slack:
            out.append(
                InvariantViolation(
                    code="INV-ROOFLINE",
                    message=(
                        f"achieved {achieved:.3e} MAC/s exceeds the "
                        f"machine peak {peak_macs_per_s:.3e} MAC/s"
                    ),
                    accelerator=acc,
                    layer=lay,
                    observed=achieved,
                    bound=peak_macs_per_s,
                    context={"execution_time_s": exec_s, "macs": macs},
                )
            )


def audit_layer_result(
    result: "LayerResult",
    spec: "AcceleratorSpec | None" = None,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
) -> list[InvariantViolation]:
    """Audit one layer result; returns the (possibly empty) violations.

    Structural checks (finiteness, signs, exposed-time identity,
    energy-sum consistency) always run; the spec-dependent checks
    (op conservation, communication lower bound, roofline, mapping
    fit) run only when ``spec`` is provided.  Infinite times are
    permitted -- they are the defined outcome of a zero-bandwidth
    resource -- but NaNs are always violations.
    """
    out: list[InvariantViolation] = []
    _audit_times(result, rel_tol, out)
    _audit_energy(result, rel_tol, out)
    _audit_bytes(result, out)
    if spec is not None:
        _audit_against_spec(result, spec, rel_tol, out)
    return out


def audit_model_result(
    result: "ModelResult",
    spec: "AcceleratorSpec | None" = None,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
) -> list[InvariantViolation]:
    """Audit a whole-model result.

    Layer results shared between duplicate layer shapes (the simulator
    caches by shape key) are audited once; the returned list covers
    every unique layer result plus model-level sanity.  Results the
    grid kernel already audited clean against this exact spec at the
    default tolerance (see :data:`_PREAUDIT_ATTR`) are not re-audited
    -- the kernel evaluated the same checks in array form.
    """
    out: list[InvariantViolation] = []
    check_marker = spec is not None and rel_tol == DEFAULT_REL_TOL
    if (
        check_marker
        and result.layers
        and result.__dict__.get(_PREAUDIT_ATTR) is spec
    ):
        # Model-level marker: the cached-simulation pass verified that
        # *every* unique layer result carries the per-layer marker for
        # this exact spec object, so the per-occurrence walk below
        # would skip every entry anyway.  Identity comparison keeps
        # this as safe as the per-layer marker: a pickle round trip
        # (pool worker, disk cache) yields a different spec object and
        # falls through to the full audit.
        return out
    seen: set[int] = set()
    for layer_result in result.layers:
        if id(layer_result) in seen:
            continue
        seen.add(id(layer_result))
        if check_marker and layer_result.__dict__.get(_PREAUDIT_ATTR) is spec:
            continue
        out.extend(audit_layer_result(layer_result, spec, rel_tol=rel_tol))
    if not result.layers:
        out.append(
            InvariantViolation(
                code="INV-EMPTY",
                message="model result contains no layers",
                accelerator=result.accelerator,
                layer=result.model,
            )
        )
    return out


def raise_on_violations(
    violations: Sequence[InvariantViolation] | Iterable[InvariantViolation],
    subject: str = "",
) -> None:
    """Raise :class:`InvariantViolationError` when violations exist."""
    violations = list(violations)
    if not violations:
        return
    head = "; ".join(v.describe() for v in violations[:3])
    more = f" (+{len(violations) - 3} more)" if len(violations) > 3 else ""
    prefix = f"{subject}: " if subject else ""
    raise InvariantViolationError(
        f"{prefix}{len(violations)} invariant violation(s): {head}{more}",
        violations=tuple(violations),
    )
