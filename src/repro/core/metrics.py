"""Result containers for layer- and model-level simulations."""

from __future__ import annotations

from dataclasses import dataclass, field

from .layer import ConvLayer
from .mapping import Mapping
from .traffic import TrafficSummary

__all__ = ["NetworkEnergy", "EnergyBreakdown", "LayerResult", "ModelResult"]


@dataclass(frozen=True)
class NetworkEnergy:
    """Interconnect energy, split the way Fig. 21b splits it (mJ)."""

    eo_mj: float = 0.0  # electrical-to-optical conversions
    oe_mj: float = 0.0  # optical-to-electrical conversions
    heating_mj: float = 0.0  # MRR thermal tuning
    laser_mj: float = 0.0  # laser wall-plug
    electrical_mj: float = 0.0  # metallic links and routers

    @property
    def total_mj(self) -> float:
        """All network energy."""
        return (
            self.eo_mj
            + self.oe_mj
            + self.heating_mj
            + self.laser_mj
            + self.electrical_mj
        )

    def __add__(self, other: "NetworkEnergy") -> "NetworkEnergy":
        return NetworkEnergy(
            eo_mj=self.eo_mj + other.eo_mj,
            oe_mj=self.oe_mj + other.oe_mj,
            heating_mj=self.heating_mj + other.heating_mj,
            laser_mj=self.laser_mj + other.laser_mj,
            electrical_mj=self.electrical_mj + other.electrical_mj,
        )


@dataclass(frozen=True)
class EnergyBreakdown:
    """Layer energy split into the paper's 'network' and 'other' (mJ)."""

    mac_mj: float
    pe_buffer_mj: float
    gb_mj: float
    dram_mj: float
    network: NetworkEnergy

    @property
    def other_mj(self) -> float:
        """The paper's 'other' bar: MACs plus the memory hierarchy."""
        return self.mac_mj + self.pe_buffer_mj + self.gb_mj + self.dram_mj

    @property
    def network_mj(self) -> float:
        """The paper's 'network' bar."""
        return self.network.total_mj

    @property
    def total_mj(self) -> float:
        """Total layer energy."""
        return self.other_mj + self.network_mj

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            mac_mj=self.mac_mj + other.mac_mj,
            pe_buffer_mj=self.pe_buffer_mj + other.pe_buffer_mj,
            gb_mj=self.gb_mj + other.gb_mj,
            dram_mj=self.dram_mj + other.dram_mj,
            network=self.network + other.network,
        )


@dataclass(frozen=True)
class LayerResult:
    """Simulation outcome for one layer on one accelerator."""

    accelerator: str
    layer: ConvLayer
    mapping: Mapping
    traffic: TrafficSummary
    computation_time_s: float
    communication_time_s: float  # total (overlappable) communication
    exposed_communication_s: float  # the part not hidden by compute
    energy: EnergyBreakdown
    packet_latency_s: float
    delivered_bytes: int

    @property
    def execution_time_s(self) -> float:
        """Computation plus exposed communication (max-overlap)."""
        return self.computation_time_s + self.exposed_communication_s

    @property
    def throughput_gbps(self) -> float:
        """Delivered network bytes per unit of network busy time."""
        if self.communication_time_s <= 0:
            return 0.0
        return self.delivered_bytes * 8 / self.communication_time_s / 1e9


@dataclass
class ModelResult:
    """Accumulated outcome of a full inference pass."""

    accelerator: str
    model: str
    layers: list[LayerResult] = field(default_factory=list)

    @property
    def execution_time_s(self) -> float:
        """Sum of per-layer execution times."""
        return sum(r.execution_time_s for r in self.layers)

    @property
    def computation_time_s(self) -> float:
        """Sum of per-layer computation times."""
        return sum(r.computation_time_s for r in self.layers)

    @property
    def exposed_communication_s(self) -> float:
        """Sum of per-layer exposed communication times."""
        return sum(r.exposed_communication_s for r in self.layers)

    @property
    def energy(self) -> EnergyBreakdown:
        """Accumulated energy breakdown.

        Folds each component from ``0.0`` in layer order -- exactly the
        additions a chain of ``EnergyBreakdown.__add__`` performs, so
        the totals are bit-identical, without building two frozen
        dataclasses per layer.
        """
        mac = pe_buffer = gb = dram = 0.0
        eo = oe = heating = laser = electrical = 0.0
        for result in self.layers:
            energy = result.energy
            network = energy.network
            mac += energy.mac_mj
            pe_buffer += energy.pe_buffer_mj
            gb += energy.gb_mj
            dram += energy.dram_mj
            eo += network.eo_mj
            oe += network.oe_mj
            heating += network.heating_mj
            laser += network.laser_mj
            electrical += network.electrical_mj
        return EnergyBreakdown(
            mac, pe_buffer, gb, dram,
            NetworkEnergy(eo, oe, heating, laser, electrical),
        )

    @property
    def mean_packet_latency_s(self) -> float:
        """Byte-weighted mean packet latency across layers."""
        total_bytes = sum(r.delivered_bytes for r in self.layers)
        if not total_bytes:
            return 0.0
        return (
            sum(r.packet_latency_s * r.delivered_bytes for r in self.layers)
            / total_bytes
        )

    @property
    def throughput_gbps(self) -> float:
        """Aggregate delivered bytes over aggregate network busy time."""
        busy = sum(r.communication_time_s for r in self.layers)
        if busy <= 0:
            return 0.0
        return sum(r.delivered_bytes for r in self.layers) * 8 / busy / 1e9
