"""The analytical performance/energy simulator (extended-MAESTRO
substitute).

Following Section VII-A of the paper, the simulator

* tracks arithmetic-operation counts and per-memory-level access
  counts through :mod:`repro.core.mapping` and
  :mod:`repro.core.traffic`;
* derives computation time from compute cycles at the core clock and
  communication time from the byte counts under the per-link
  bandwidth caps of Table II (GB egress/ingress, per-chiplet read/
  write, per-PE read/write, DRAM), taking the hierarchical network
  into account;
* assumes communication is maximally overlapped with computation, so
  the reported execution time is computation plus only the *exposed*
  communication;
* includes the 500 ps optical-tunable-splitter reconfiguration delay
  per mapping wave for photonic machines.

Energy is delegated to a :class:`ComputeEnergyModel` ('Other') and a
per-network :class:`NetworkEnergyModel` implementation ('Network').
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import math
import warnings
import weakref

from ..energy.compute import ComputeEnergyModel
from ..errors import ReproWarning
from .accelerator import AcceleratorSpec
from .invariants import audit_layer_result, raise_on_violations, strict_mode_default
from .layer import ConvLayer, LayerSet
from .mapping import Mapping, map_layer
from .metrics import EnergyBreakdown, LayerResult, ModelResult, NetworkEnergy
from .traffic import TrafficSummary, derive_traffic

__all__ = ["NetworkEnergyModel", "CommunicationTimes", "Simulator"]

#: Bandwidths below this (GB/s) are treated as zero links.
_MIN_BANDWIDTH_GBPS = 1e-12


class NetworkEnergyModel(Protocol):
    """Interconnect energy as a function of traffic and wall-clock."""

    def network_energy(
        self,
        mapping: Mapping,
        traffic: TrafficSummary,
        execution_time_s: float,
    ) -> NetworkEnergy:
        """Energy of all network activity for one layer."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class CommunicationTimes:
    """Per-resource serialisation times; the max is the busy time."""

    gb_egress_s: float
    gb_ingress_s: float
    chiplet_read_s: float
    chiplet_write_s: float
    pe_read_s: float
    pe_write_s: float
    dram_s: float
    reconfiguration_s: float

    @property
    def bottleneck_s(self) -> float:
        """The pipelined communication time of the layer."""
        return (
            max(
                self.gb_egress_s,
                self.gb_ingress_s,
                self.chiplet_read_s,
                self.chiplet_write_s,
                self.pe_read_s,
                self.pe_write_s,
                self.dram_s,
            )
            + self.reconfiguration_s
        )

    @property
    def bottleneck_name(self) -> str:
        """Which contributor dominates (for diagnostics).

        Consistent with :attr:`bottleneck_s`: the pipelined time is
        the slowest resource plus the (unpipelinable) splitter
        retuning, so when ``reconfiguration_s`` exceeds every resource
        serialisation time the honest answer is ``"reconfiguration"``
        -- a heavily waved mapping on a photonic machine really is
        retuning-bound, and the diagnostic must not blame a link.
        """
        names = {
            "gb_egress": self.gb_egress_s,
            "gb_ingress": self.gb_ingress_s,
            "chiplet_read": self.chiplet_read_s,
            "chiplet_write": self.chiplet_write_s,
            "pe_read": self.pe_read_s,
            "pe_write": self.pe_write_s,
            "dram": self.dram_s,
        }
        if self.reconfiguration_s > max(names.values()):
            return "reconfiguration"
        return max(names, key=names.get)


#: Dead links already flagged, per spec object: ``spec -> {link name}``.
#: Weak keys, so an entry dies with its spec.  A degraded-config sweep
#: simulates hundreds of layers against one spec; without this memo
#: every layer re-pays the warning formatting for the same dead link.
_ZERO_BANDWIDTH_WARNED: "weakref.WeakKeyDictionary[AcceleratorSpec, set[str]]" = (
    weakref.WeakKeyDictionary()
)


def _warn_zero_bandwidth(
    total_bytes: float,
    bandwidth_gbps: float,
    link: str | None,
    spec: "AcceleratorSpec | None",
) -> float:
    """Report a transfer pending forever on a dead link: ``inf``.

    When the caller identifies the link (``link=`` + ``spec=``), the
    warning fires **once per (spec, link)** instead of once per layer
    -- a degraded-config sweep hits the same dead link thousands of
    times and the repeated warning formatting is pure overhead.
    Contextless calls always warn.
    """
    if link is not None and spec is not None:
        try:
            warned = _ZERO_BANDWIDTH_WARNED.setdefault(spec, set())
        except TypeError:  # pragma: no cover - unweakrefable spec
            warned = None
        if warned is not None:
            if link in warned:
                return math.inf
            warned.add(link)
    where = f" ({link})" if link else ""
    warnings.warn(
        f"transfer of {total_bytes} bytes over a link{where} with "
        f"{bandwidth_gbps!r} GB/s bandwidth never completes; "
        "reporting infinite time",
        ReproWarning,
        stacklevel=3,
    )
    return math.inf


def _transfer_time_s(
    total_bytes: float,
    bandwidth_gbps: float,
    *,
    link: str | None = None,
    spec: "AcceleratorSpec | None" = None,
) -> float:
    """Serialisation time of a byte volume at a bandwidth cap.

    A zero (or vanishing) bandwidth with a non-zero byte volume is a
    defined condition rather than a ``ZeroDivisionError``: the transfer
    never completes, so the time is ``inf`` and a
    :class:`~repro.errors.ReproWarning` flags the degenerate link (see
    :func:`_warn_zero_bandwidth` for the per-(spec, link) dedup).
    """
    if total_bytes <= 0:
        return 0.0
    if bandwidth_gbps <= _MIN_BANDWIDTH_GBPS:
        return _warn_zero_bandwidth(total_bytes, bandwidth_gbps, link, spec)
    return total_bytes * 8 / (bandwidth_gbps * 1e9)


class Simulator:
    """Drives mapping, traffic, timing and energy for one machine."""

    def __init__(
        self,
        spec: AcceleratorSpec,
        compute_energy: ComputeEnergyModel,
        network_energy: NetworkEnergyModel,
        strict: bool | None = None,
    ):
        self.spec = spec
        self.compute_energy = compute_energy
        self.network_energy = network_energy
        #: When True, every layer result is audited against the runtime
        #: invariants (:mod:`repro.core.invariants`) before it is
        #: returned; ``None`` defers to the ``REPRO_STRICT`` env var.
        self.strict = strict_mode_default() if strict is None else strict
        self._mapping_params = spec.mapping_parameters()

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def communication_times(
        self, mapping: Mapping, traffic: TrafficSummary
    ) -> CommunicationTimes:
        """Per-resource serialisation times under the Table II caps."""
        spec = self.spec
        chiplets_active = max(1, mapping.chiplets_active)
        pes_active = max(1, mapping.pes_active)

        # Input distribution: GB egress carries every send; a chiplet
        # interface carries the bytes physically crossing it; a PE
        # receiver carries its own stream.  When the per-datatype
        # wavelength partition is fixed (no Section VI reallocation),
        # weights and ifmaps are capped by their own carriers and the
        # slower one dominates; pooled links share the full cap.
        if spec.gb_weight_egress_gbps and spec.gb_ifmap_egress_gbps:
            gb_egress_s = max(
                _transfer_time_s(
                    traffic.gb_weight_send_bytes,
                    spec.gb_weight_egress_gbps,
                    link="gb_weight_egress",
                    spec=spec,
                ),
                _transfer_time_s(
                    traffic.gb_ifmap_send_bytes,
                    spec.gb_ifmap_egress_gbps,
                    link="gb_ifmap_egress",
                    spec=spec,
                ),
            )
        else:
            gb_egress_s = _transfer_time_s(
                traffic.gb_send_bytes,
                spec.gb_egress_gbps,
                link="gb_egress",
                spec=spec,
            )

        chiplet_w = traffic.chiplet_weight_cross_bytes / chiplets_active
        chiplet_i = traffic.chiplet_ifmap_cross_bytes / chiplets_active
        if spec.chiplet_weight_read_gbps and spec.chiplet_ifmap_read_gbps:
            chiplet_read_s = max(
                _transfer_time_s(
                    chiplet_w,
                    spec.chiplet_weight_read_gbps,
                    link="chiplet_weight_read",
                    spec=spec,
                ),
                _transfer_time_s(
                    chiplet_i,
                    spec.chiplet_ifmap_read_gbps,
                    link="chiplet_ifmap_read",
                    spec=spec,
                ),
            )
        else:
            chiplet_read_s = _transfer_time_s(
                chiplet_w + chiplet_i,
                spec.chiplet_read_gbps,
                link="chiplet_read",
                spec=spec,
            )

        if mapping.pe_forwarding:
            # Inter-PE forwarding [36]: the chiplet ingests each stream
            # once and neighbour links spread it, so one PE receiver
            # only carries its share of the chiplet's ingress.
            pes_per_chiplet = max(1, mapping.pes_active_per_chiplet)
            pe_w = chiplet_w / pes_per_chiplet
            pe_i = chiplet_i / pes_per_chiplet
        else:
            pe_w = traffic.pe_weight_receive_bytes / pes_active
            pe_i = traffic.pe_ifmap_receive_bytes / pes_active
        if spec.pe_weight_read_gbps and spec.pe_ifmap_read_gbps:
            pe_read_s = max(
                _transfer_time_s(
                    pe_w,
                    spec.pe_weight_read_gbps,
                    link="pe_weight_read",
                    spec=spec,
                ),
                _transfer_time_s(
                    pe_i,
                    spec.pe_ifmap_read_gbps,
                    link="pe_ifmap_read",
                    spec=spec,
                ),
            )
        else:
            pe_read_s = _transfer_time_s(
                pe_w + pe_i, spec.pe_read_gbps, link="pe_read", spec=spec
            )

        # Output collection plus intra-chiplet psum exchange share the
        # chiplet-level write path.
        per_chiplet_out = (
            traffic.output_bytes + traffic.psum_bytes
        ) / chiplets_active
        chiplet_write_s = _transfer_time_s(
            per_chiplet_out,
            spec.chiplet_write_gbps,
            link="chiplet_write",
            spec=spec,
        )
        per_pe_out = traffic.output_bytes / pes_active
        pe_write_s = _transfer_time_s(
            per_pe_out, spec.pe_write_gbps, link="pe_write", spec=spec
        )
        gb_ingress_s = _transfer_time_s(
            traffic.output_bytes,
            spec.gb_ingress_gbps,
            link="gb_ingress",
            spec=spec,
        )

        dram_s = _transfer_time_s(
            traffic.dram_read_bytes + traffic.dram_write_bytes,
            spec.dram_bandwidth_gbps,
            link="dram",
            spec=spec,
        )

        # Splitter retuning once per temporal wave (photonic only).
        waves = mapping.ef_waves * mapping.k_waves
        reconfiguration_s = waves * (
            spec.package_latency.tuning_delay_s + spec.chiplet_latency.tuning_delay_s
        )

        return CommunicationTimes(
            gb_egress_s=gb_egress_s,
            gb_ingress_s=gb_ingress_s,
            chiplet_read_s=chiplet_read_s,
            chiplet_write_s=chiplet_write_s,
            pe_read_s=pe_read_s,
            pe_write_s=pe_write_s,
            dram_s=dram_s,
            reconfiguration_s=reconfiguration_s,
        )

    def packet_latency_s(self) -> float:
        """End-to-end latency of one data packet (Fig. 16 metric)."""
        spec = self.spec
        package = spec.package_latency.packet_latency_s(spec.chiplet_read_gbps)
        chiplet = spec.chiplet_latency.packet_latency_s(spec.pe_read_gbps)
        return package + chiplet

    # ------------------------------------------------------------------
    # Simulation entry points
    # ------------------------------------------------------------------
    def simulate_layer(
        self, layer: ConvLayer, layer_by_layer: bool = True
    ) -> LayerResult:
        """Simulate one layer (Fig. 13/14 use layer_by_layer=True)."""
        spec = self.spec
        mapping = map_layer(layer, self._mapping_params, spec.dataflow)
        traffic = derive_traffic(
            mapping,
            spec.capabilities,
            layer_by_layer=layer_by_layer,
            gb_bytes=spec.gb_bytes,
        )

        computation_time_s = mapping.compute_cycles * spec.cycle_time_s
        comm = self.communication_times(mapping, traffic)
        communication_time_s = comm.bottleneck_s
        exposed_s = max(0.0, communication_time_s - computation_time_s)
        execution_time_s = computation_time_s + exposed_s

        energy = EnergyBreakdown(
            mac_mj=self.compute_energy.mac_energy_mj(layer, mapping),
            pe_buffer_mj=self.compute_energy.pe_buffer_energy_mj(
                layer, mapping, traffic
            ),
            gb_mj=self.compute_energy.gb_energy_mj(traffic),
            dram_mj=self.compute_energy.dram_energy_mj(traffic),
            network=self.network_energy.network_energy(
                mapping, traffic, execution_time_s
            ),
        )

        # Throughput counts packets the network delivers across chiplet
        # interfaces (Fig. 16's metric); a broadcast that feeds several
        # chiplets counts once per interface crossed.
        delivered = (
            traffic.chiplet_weight_cross_bytes
            + traffic.chiplet_ifmap_cross_bytes
            + traffic.output_bytes
        )
        result = LayerResult(
            accelerator=spec.name,
            layer=layer,
            mapping=mapping,
            traffic=traffic,
            computation_time_s=computation_time_s,
            communication_time_s=communication_time_s,
            exposed_communication_s=exposed_s,
            energy=energy,
            packet_latency_s=self.packet_latency_s(),
            delivered_bytes=delivered,
        )
        if self.strict:
            raise_on_violations(
                audit_layer_result(result, spec),
                subject=f"{spec.name}/{layer.name}",
            )
        return result

    def simulate_model(
        self, layers: LayerSet, layer_by_layer: bool = False
    ) -> ModelResult:
        """Simulate a full inference pass.

        Per the paper's Fig. 15 methodology, whole-model runs exploit
        GB data reuse between successive layers
        (``layer_by_layer=False``) and accumulate every layer instance
        including shape duplicates.
        """
        result = ModelResult(accelerator=self.spec.name, model=layers.name)
        cache: dict[tuple[int, ...], LayerResult] = {}
        for layer in layers.all_layers:
            key = layer.shape_key
            if key not in cache:
                cache[key] = self.simulate_layer(layer, layer_by_layer=layer_by_layer)
            result.layers.append(cache[key])
        return result
