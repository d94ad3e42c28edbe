"""Roofline analysis for chiplet accelerators.

Classifies each layer by its *operational intensity* (MACs per byte
of package-level traffic) against a machine's compute and bandwidth
ceilings — the standard lens for "who is compute-bound where", and a
compact way to see why SPACX's broadcast moves whole layer families
from the bandwidth wall onto the compute roof.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from ..errors import ReproWarning
from .accelerator import AcceleratorSpec
from .invariants import _transfer_lower_bound_s
from .layer import ConvLayer
from .mapping import Mapping, map_layer
from .traffic import TrafficSummary, derive_traffic

__all__ = [
    "RooflinePoint",
    "roofline_point",
    "machine_ridge",
    "mapped_time_floor_s",
    "time_lower_bound",
]


@dataclass(frozen=True)
class RooflinePoint:
    """One layer's position in a machine's roofline plot."""

    layer_name: str
    accelerator: str
    operational_intensity: float  # MACs per package byte
    attainable_macs_per_s: float
    peak_macs_per_s: float

    @property
    def compute_bound(self) -> bool:
        """True when the layer sits on the flat compute roof."""
        return self.attainable_macs_per_s >= self.peak_macs_per_s * (1 - 1e-9)

    @property
    def roof_fraction(self) -> float:
        """Attainable over peak throughput.

        A non-positive peak (degenerate machine) yields ``inf`` rather
        than dividing by zero -- any attainable rate is infinitely far
        above a zero roof.
        """
        if self.peak_macs_per_s <= 0:
            warnings.warn(
                f"{self.accelerator}: peak throughput is "
                f"{self.peak_macs_per_s!r} MAC/s; roof fraction undefined, "
                "reporting inf",
                ReproWarning,
                stacklevel=2,
            )
            return math.inf
        return self.attainable_macs_per_s / self.peak_macs_per_s


def machine_ridge(spec: AcceleratorSpec) -> float:
    """The ridge point: the operational intensity (MACs/byte) above
    which the machine is compute-bound.

    A machine with no GB egress bandwidth has its ridge at infinity
    (every layer is bandwidth-bound); a warning flags the degenerate
    spec instead of raising ``ZeroDivisionError``.
    """
    peak_macs_per_s = spec.peak_macs_per_cycle * spec.frequency_ghz * 1e9
    if spec.gb_egress_gbps <= 0:
        warnings.warn(
            f"{spec.name}: gb_egress_gbps is {spec.gb_egress_gbps!r}; "
            "ridge point undefined, reporting inf",
            ReproWarning,
            stacklevel=2,
        )
        return math.inf
    bandwidth_bytes_per_s = spec.gb_egress_gbps * 1e9 / 8
    return peak_macs_per_s / bandwidth_bytes_per_s


def roofline_point(
    layer: ConvLayer, spec: AcceleratorSpec, layer_by_layer: bool = False
) -> RooflinePoint:
    """Place one layer on one machine's roofline.

    Operational intensity uses the *actual* package traffic of the
    mapped layer (so broadcast discounts and unicast replication move
    the point horizontally — the mechanism behind SPACX's wins).
    """
    mapping = map_layer(layer, spec.mapping_parameters(), spec.dataflow)
    traffic = derive_traffic(
        mapping,
        spec.capabilities,
        layer_by_layer=layer_by_layer,
        gb_bytes=spec.gb_bytes,
    )
    package_bytes = max(1, traffic.gb_send_bytes + traffic.output_bytes)
    intensity = layer.macs / package_bytes

    peak_macs_per_s = spec.peak_macs_per_cycle * spec.frequency_ghz * 1e9
    bandwidth_bytes_per_s = spec.gb_egress_gbps * 1e9 / 8
    attainable = min(peak_macs_per_s, intensity * bandwidth_bytes_per_s)
    return RooflinePoint(
        layer_name=layer.name,
        accelerator=spec.name,
        operational_intensity=intensity,
        attainable_macs_per_s=attainable,
        peak_macs_per_s=peak_macs_per_s,
    )


def mapped_time_floor_s(
    spec: AcceleratorSpec, mapping: Mapping, traffic: TrafficSummary
) -> float:
    """Admissible execution-time floor for an already-mapped layer.

    The simulator reports ``execution_time_s = comp + max(0, comm - comp)
    = max(comp, comm)`` where ``comp`` is exactly
    ``mapping.compute_cycles * spec.cycle_time_s`` (pinned by the
    INV-OPS-TIME invariant) and ``comm`` is at least each of the
    per-resource transfer floors checked by the invariant auditor
    (INV-COMM-LB): global-buffer egress (split-aware under bandwidth
    allocation), global-buffer ingress of outputs, and DRAM traffic.
    Taking the max of those floors therefore never exceeds the
    simulated time — the admissibility property branch-and-bound
    pruning relies on — and is *exact* whenever the layer is compute-,
    GB- or DRAM-bound.
    """
    compute_floor = mapping.compute_cycles * spec.cycle_time_s
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
    ingress_floor = _transfer_lower_bound_s(
        traffic.output_bytes, spec.gb_ingress_gbps
    )
    dram_floor = _transfer_lower_bound_s(
        traffic.dram_read_bytes + traffic.dram_write_bytes,
        spec.dram_bandwidth_gbps,
    )
    return max(compute_floor, gb_floor, ingress_floor, dram_floor)


def time_lower_bound(
    spec: AcceleratorSpec,
    layer: ConvLayer,
    batch: int | None = None,
    *,
    layer_by_layer: bool = False,
) -> float:
    """Admissible lower bound on one layer's simulated execution time.

    Maps the layer with the machine's own mapper and derives its real
    package traffic, then applies :func:`mapped_time_floor_s`.  The
    result never exceeds ``Simulator.simulate_layer(...).execution_time_s``
    for the same (machine, layer, batch) — see the zoo-wide
    admissibility test in ``tests/core/test_roofline.py`` — which makes
    it safe to prune design-space candidates whose bound already beats
    the incumbent without ever invoking the simulator.

    ``batch`` overrides the layer's batch size when given (the common
    design-space case where batch is a search dimension).
    """
    if batch is not None and batch != layer.batch:
        layer = layer.with_batch(batch)
    mapping = map_layer(layer, spec.mapping_parameters(), spec.dataflow)
    traffic = derive_traffic(
        mapping,
        spec.capabilities,
        layer_by_layer=layer_by_layer,
        gb_bytes=spec.gb_bytes,
    )
    return mapped_time_floor_s(spec, mapping, traffic)
