"""The POPSTAR baseline [30]: photonic package crossbar over Simba
chiplets.

POPSTAR is a modular optical NoC for chiplet systems whose broadcast
capability is intentionally disabled (Section II-A-3 of the paper);
the authors graft Simba's accelerator chiplets onto it.  Per Table II:

* package level: photonic crossbar, 310 Gbps per-chiplet read,
  100 Gbps per-chiplet write, 10 wavelengths at 10 Gbps;
* chiplet level: Simba's electrical mesh, 20 Gbps per PE.

The crossbar gives every chiplet a receive path fed from the GB's
transmit array; GB egress is the transmitter-array aggregate.  Every
package transfer pays one E/O and one O/E conversion; the crossbar's
ring matrix (every chiplet's receive bank needs a filter per
wavelength per source column) makes the heater inventory much larger
than SPACX's, which is the second energy effect the paper calls out.
"""

from __future__ import annotations

import weakref

from ..core.accelerator import KB, MB, AcceleratorSpec, LinkLatency
from ..core.dataflow import DataflowKind
from ..core.mapping import Mapping
from ..core.metrics import NetworkEnergy
from ..core.simulator import Simulator
from ..core.traffic import NetworkCapabilities, TrafficSummary
from ..energy.buffers import SramEnergyModel
from ..energy.compute import ComputeEnergyModel
from ..energy.dram import DEFAULT_DRAM
from ..photonics.components import MODERATE_PARAMETERS, PhotonicParameters
from ..photonics.laser import LaserPowerModel
from ..photonics.link_budget import LinkBudget
from ..photonics.transceiver import transceiver_for
from .electrical import CHIPLET_LINK, ElectricalMeshEnergy, mesh_average_hops
from .simba import CORE_FREQUENCY_GHZ
from ..errors import ConfigError

__all__ = [
    "POPSTAR_WAVELENGTHS",
    "popstar_mrr_count",
    "PopstarNetworkEnergy",
    "popstar_spec",
    "popstar_simulator",
]

POPSTAR_WAVELENGTHS = 10
#: Photonic time-of-flight across the interposer.
_PHOTONIC_HOP_S = 0.5e-9


def popstar_mrr_count(chiplets: int) -> int:
    """Ring inventory of the POPSTAR crossbar.

    Single-writer multiple-reader rows: every node (GB + chiplets)
    owns a modulator bank (one ring per wavelength) and a receive
    filter bank *per source it can listen to* -- the crossbar's cost
    is quadratic in node count, against SPACX's linear inventory.
    """
    if chiplets < 1:
        raise ConfigError("need >= 1 chiplet")
    nodes = chiplets + 1  # + the GB die
    modulators = nodes * POPSTAR_WAVELENGTHS
    filters = nodes * (nodes - 1) * POPSTAR_WAVELENGTHS // 3
    return modulators + filters


#: Per-model laser power, computed once: the model is bound to its
#: configuration at construction.  Kept outside the instance, as
#: ``spacx.power._MEMO`` is, so the simulator's fingerprint (which
#: hashes ``vars(network_energy)``) does not change after a call.
_LASER_W: "weakref.WeakKeyDictionary[PopstarNetworkEnergy, float]" = (
    weakref.WeakKeyDictionary()
)


class PopstarNetworkEnergy:
    """Hybrid photonic-package / electrical-chiplet energy model."""

    def __init__(
        self,
        chiplets: int,
        pes_per_chiplet: int,
        params: PhotonicParameters = MODERATE_PARAMETERS,
    ):
        self.chiplets = chiplets
        self.params = params
        self.transceiver = transceiver_for(params)
        self._chiplet_mesh = ElectricalMeshEnergy(chiplets, pes_per_chiplet)
        self._laser = LaserPowerModel(params)

    def crossbar_path_budget(self) -> LinkBudget:
        """Worst-case GB-to-chiplet path across the crossbar.

        POPSTAR is modular: each chiplet attaches through its own
        spoke of the optical ring, so a worst-case path passes the
        other wavelengths' rings at its own drop site plus one filter
        per second chiplet passed -- not the full ring matrix.
        """
        budget = LinkBudget(self.params)
        budget.add_laser_source()
        budget.add_coupler()
        budget.add_waveguide(0.5 + 0.1 * self.chiplets)
        budget.add_bends(2)
        budget.add_rings_passed(
            (POPSTAR_WAVELENGTHS - 1) + self.chiplets // 2
        )
        budget.add_drop()
        budget.add_receiver()
        return budget

    def laser_power_w(self) -> float:
        """Launch power of the crossbar's carriers (all rows lit)."""
        power = _LASER_W.get(self)
        if power is None:
            per_wavelength_mw = self._laser.power_for_budget_mw(
                self.crossbar_path_budget()
            )
            rows = self.chiplets + 1
            power = rows * POPSTAR_WAVELENGTHS * per_wavelength_mw * 1e-3
            _LASER_W[self] = power
        return power

    def network_energy(
        self,
        mapping: Mapping,
        traffic: TrafficSummary,
        execution_time_s: float,
    ) -> NetworkEnergy:
        """Photonic package hop plus electrical on-chiplet distribution.

        Package E/O happens per GB send (unicast -- broadcast is
        disabled, so replicated sends each convert separately);
        package O/E happens once per chiplet-side reception.
        """
        package_bits = (traffic.gb_send_bytes + traffic.output_bytes) * 8
        eo_mj = package_bits * self.transceiver.eo_energy_pj_per_bit * 1e-9
        oe_mj = package_bits * self.transceiver.oe_energy_pj_per_bit * 1e-9
        heating_mj = (
            self.params.ring_heating_mw
            * popstar_mrr_count(self.chiplets)
            * execution_time_s
        )
        laser_mj = self.laser_power_w() * 1e3 * execution_time_s
        # Only the chiplet-level share of the mesh applies: the
        # package hop was photonic.
        chiplet_bits = (
            traffic.pe_receive_bytes + traffic.output_bytes + traffic.psum_bytes
        ) * 8
        chiplet_mj = (
            chiplet_bits
            * CHIPLET_LINK.energy_pj_per_bit(self._chiplet_mesh.chiplet_hops)
            * 1e-9
        )
        return NetworkEnergy(
            eo_mj=eo_mj,
            oe_mj=oe_mj,
            heating_mj=heating_mj,
            laser_mj=laser_mj,
            electrical_mj=chiplet_mj,
        )


def popstar_spec(chiplets: int = 32, pes_per_chiplet: int = 32) -> AcceleratorSpec:
    """Build the POPSTAR accelerator specification (Table II row 2)."""
    package_latency = LinkLatency(hop_latency_s=_PHOTONIC_HOP_S, avg_hops=1.0)
    chiplet_latency = LinkLatency(
        hop_latency_s=CHIPLET_LINK.hop_latency_s,
        avg_hops=mesh_average_hops(pes_per_chiplet),
    )
    return AcceleratorSpec(
        name="POPSTAR",
        chiplets=chiplets,
        pes_per_chiplet=pes_per_chiplet,
        mac_vector_width=32,
        frequency_ghz=CORE_FREQUENCY_GHZ,
        pe_buffer_bytes=43 * KB,
        gb_bytes=2 * MB,
        dram_bandwidth_gbps=DEFAULT_DRAM.bandwidth_gbps,
        dataflow=DataflowKind.WEIGHT_STATIONARY,
        # The GB transmit array drives most crossbar rows concurrently:
        # 27 rows x 10 wavelengths x 10 Gbps.
        gb_egress_gbps=2700.0,
        gb_ingress_gbps=chiplets * 100.0 / 2,
        chiplet_read_gbps=310.0,
        chiplet_write_gbps=100.0,
        pe_read_gbps=20.0,
        pe_write_gbps=20.0,
        capabilities=NetworkCapabilities(
            weight_broadcast=False, ifmap_broadcast=False
        ),
        package_latency=package_latency,
        chiplet_latency=chiplet_latency,
    )


def popstar_simulator(
    chiplets: int = 32,
    pes_per_chiplet: int = 32,
    params: PhotonicParameters = MODERATE_PARAMETERS,
) -> Simulator:
    """A ready-to-run simulator for the POPSTAR baseline."""
    spec = popstar_spec(chiplets, pes_per_chiplet)
    compute_energy = ComputeEnergyModel(
        pe_buffer=SramEnergyModel(capacity_bytes=spec.pe_buffer_bytes),
        gb=SramEnergyModel(capacity_bytes=spec.gb_bytes),
    )
    network_energy = PopstarNetworkEnergy(chiplets, pes_per_chiplet, params)
    return Simulator(spec, compute_energy, network_energy)
