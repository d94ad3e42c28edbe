"""SPACX photonic-network power and energy (Figures 19, 20, 21).

Two static contributors and two traffic contributors:

* **laser** -- per-wavelength launch power from the Eq. (2) link
  budget of the worst-case X (cross-chiplet) and Y (single-chiplet)
  paths, summed over every carrier of every global waveguide.  Finer
  granularity shortens paths and split fan-outs (less insertion loss,
  exponentially less power per carrier) but duplicates waveguides --
  whose layout crossings add loss back -- producing the Fig. 19/20
  laser surface.
* **heating** -- every MRR's thermal tuning power, proportional to
  the ring inventory, which *grows* as granularity gets finer (more
  interposer interfaces) -- the opposing trend of the transceiver
  surface.
* **E/O and O/E** -- per-bit conversion energies from the
  transceiver model, scaled by GB sends and PE receives.

Geometry assumptions (documented substitutions): chiplets sit on a
0.25 cm pitch along the global waveguide, PEs on a 0.05 cm pitch
along the local waveguide; each global waveguide crosses its sibling
waveguides once near the GB.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from ..core.mapping import Mapping
from ..core.metrics import NetworkEnergy
from ..core.traffic import TrafficSummary
from ..photonics.components import PhotonicParameters
from ..photonics.crosstalk import CrosstalkModel
from ..photonics.laser import LaserPowerModel
from ..photonics.link_budget import LinkBudget
from ..photonics.transceiver import TransceiverPower, transceiver_for
from .topology import SpacxTopology

__all__ = ["SpacxPowerModel", "PowerReport", "granularity_sweep"]

#: Physical pitches (cm) used to size waveguide lengths.
CHIPLET_PITCH_CM = 0.25
PE_PITCH_CM = 0.05
#: Waveguide stub between the GB and the first chiplet.
GB_STUB_CM = 0.5

#: Per-model memo: the X and Y path-budget items, then (once asked
#: for) the laser power.  A power model is bound to its configuration
#: at construction, so both are pure per instance; validation, the
#: grid's network-energy lowerer and the static-power report all read
#: them.  The table lives outside the instance because
#: ``batch._object_state`` fingerprints a simulator from
#: ``vars(network_energy)``: a memo kept on the model would change its
#: cache keys after the first call.  Keyed weakly, so a rebuilt model
#: starts afresh and a dead one drops its entry.  Two threads racing on
#: a cold entry both compute it and store equal values.
_MEMO: "weakref.WeakKeyDictionary[SpacxPowerModel, list]" = (
    weakref.WeakKeyDictionary()
)


@dataclass(frozen=True)
class PowerReport:
    """Static power split of one configuration (Watts)."""

    laser_w: float
    transceiver_w: float

    @property
    def overall_w(self) -> float:
        """Laser plus transceiver (the Fig. 19a/20a surfaces)."""
        return self.laser_w + self.transceiver_w


class SpacxPowerModel:
    """Power/energy model bound to one topology and parameter set."""

    def __init__(
        self,
        topology: SpacxTopology,
        params: PhotonicParameters,
        crosstalk: CrosstalkModel | None = None,
        floorplan: "object | None" = None,
    ):
        self.topology = topology
        self.params = params
        self.transceiver: TransceiverPower = transceiver_for(params)
        self._laser = LaserPowerModel(params)
        #: Optional WDM crosstalk refinement: when set, every path
        #: budget carries the penalty of the waveguide's channel count.
        self.crosstalk = crosstalk
        #: Optional :class:`~repro.spacx.floorplan.Floorplan`: when
        #: set, waveguide lengths/bends/crossings come from the actual
        #: layout instead of the pitch constants above.
        self.floorplan = floorplan

    def _crosstalk_penalty_db(self) -> float:
        """Crosstalk penalty of one fully-loaded global waveguide."""
        if self.crosstalk is None:
            return 0.0
        return self.crosstalk.penalty_db(
            self.topology.wavelengths_per_global_waveguide
        )

    # ------------------------------------------------------------------
    # Link budgets
    # ------------------------------------------------------------------
    def _global_geometry(self) -> tuple[float, int, int]:
        """(length_cm, bends, crossings) of the worst global path."""
        if self.floorplan is not None:
            geometry = self.floorplan.worst_case_geometry()
            return (geometry.length_cm, geometry.bends, geometry.crossings)
        topo = self.topology
        length = GB_STUB_CM + CHIPLET_PITCH_CM * topo.ef_granularity
        return (length, 2, self._path_crossings())

    def _path_crossings(self) -> int:
        """Waveguide crossings a worst-case path suffers near the GB."""
        topo = self.topology
        return max(0, topo.n_chiplet_groups - 1) + max(0, topo.n_pe_groups - 1)

    def _memo(self) -> list:
        """``[x items, y items, laser power or None]`` of this model."""
        memo = _MEMO.get(self)
        if memo is None:
            memo = _MEMO[self] = [
                tuple(self._walk_x_path().items),
                tuple(self._walk_y_path().items),
                None,
            ]
        return memo

    def x_path_budget(self) -> LinkBudget:
        """Worst-case cross-chiplet broadcast path: GB to the last
        chiplet of a group, then along the local waveguide to the last
        PE position's filter.  A fresh budget on every call: the items
        are walked once per model and shared (they are frozen), the
        list is the caller's."""
        return LinkBudget(self.params, list(self._memo()[0]))

    def y_path_budget(self) -> LinkBudget:
        """Worst-case single-chiplet broadcast path: GB to the last
        chiplet's interface filter, then split across its PEs.  A fresh
        budget on every call, as :meth:`x_path_budget`."""
        return LinkBudget(self.params, list(self._memo()[1]))

    def _walk_x_path(self) -> LinkBudget:
        topo = self.topology
        budget = LinkBudget(self.params)
        budget.add_laser_source()
        budget.add_coupler()
        length, bends, crossings = self._global_geometry()
        budget.add_waveguide(length)
        budget.add_crossovers(crossings)
        budget.add_bends(bends)
        # Splitters of the upstream chiplets tap their share first.
        budget.add_splitters_passed(topo.ef_granularity - 1)
        budget.add_broadcast_split(topo.ef_granularity)
        # Entering the local waveguide through this chiplet's splitter.
        budget.add_splitters_passed(1)
        budget.add_waveguide(PE_PITCH_CM * topo.k_granularity)
        # Pass the other PEs' rings at through-resonance.
        budget.add_rings_passed(topo.k_granularity - 1)
        budget.add_drop()
        budget.add_receiver()
        return budget

    def _walk_y_path(self) -> LinkBudget:
        topo = self.topology
        budget = LinkBudget(self.params)
        budget.add_laser_source()
        budget.add_coupler()
        length, bends, crossings = self._global_geometry()
        budget.add_waveguide(length)
        budget.add_crossovers(crossings)
        budget.add_bends(bends)
        # Ride past the upstream interfaces (their Y filters are
        # off-resonance for this carrier, their X splitters add excess).
        budget.add_rings_passed(topo.ef_granularity - 1)
        budget.add_drop()  # this chiplet's interface filter
        budget.add_waveguide(PE_PITCH_CM * topo.k_granularity)
        # Equal-share split across the PEs of the local waveguide.
        budget.add_splitters_passed(topo.k_granularity - 1)
        budget.add_broadcast_split(topo.k_granularity)
        budget.add_receiver()
        return budget

    # ------------------------------------------------------------------
    # Static power (Figures 19/20)
    # ------------------------------------------------------------------
    def laser_power_w(self) -> float:
        """Total laser power across all waveguides and carriers
        (computed once per model)."""
        memo = self._memo()
        if memo[2] is None:
            topo = self.topology
            x_budget = self.x_path_budget()
            y_budget = self.y_path_budget()
            penalty = self._crosstalk_penalty_db()
            if penalty:
                x_budget._add("crosstalk penalty", penalty)
                y_budget._add("crosstalk penalty", penalty)
            per_x_mw = self._laser.power_for_budget_mw(x_budget)
            per_y_mw = self._laser.power_for_budget_mw(y_budget)
            per_waveguide_mw = (
                topo.k_granularity * per_x_mw + topo.ef_granularity * per_y_mw
            )
            memo[2] = topo.n_global_waveguides * per_waveguide_mw * 1e-3
        return memo[2]

    def transceiver_power_w(self) -> float:
        """MRR heaters plus transmitter/receiver circuitry.

        Heating burns on every ring in the inventory; conversion
        circuits burn per *endpoint*: GB modulators (one per carrier
        per waveguide), PE receivers (two per PE) and PE modulators
        (one per PE), matching the paper's observation that coarser
        granularity needs fewer interface rings.
        """
        topo = self.topology
        heating_mw = self.params.ring_heating_mw * topo.n_total_mrrs
        tx_endpoints = (
            topo.n_global_waveguides * topo.wavelengths_per_global_waveguide
            + topo.chiplets * topo.pes_per_chiplet  # PE->GB modulators
        )
        rx_endpoints = (
            2 * topo.chiplets * topo.pes_per_chiplet  # two receivers per PE
            + topo.n_local_waveguides  # GB-side receive filters
        )
        circuits_mw = (
            tx_endpoints * self.transceiver.tx_circuit_mw
            + rx_endpoints * self.transceiver.rx_circuit_mw
        )
        return (heating_mw + circuits_mw) * 1e-3

    def report(self) -> PowerReport:
        """The three Fig. 19/20 surfaces for this configuration."""
        return PowerReport(
            laser_w=self.laser_power_w(),
            transceiver_w=self.transceiver_power_w(),
        )

    # ------------------------------------------------------------------
    # Per-layer network energy (NetworkEnergyModel protocol)
    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    # Active-endpoint counts (for the Fig. 21b energy buckets)
    # ------------------------------------------------------------------
    def active_tx_endpoints(self) -> int:
        """Transmitters powered during a layer: one GB modulator per
        carrier per waveguide, plus the one token-holding PE modulator
        per local waveguide."""
        topo = self.topology
        return (
            topo.n_global_waveguides * topo.wavelengths_per_global_waveguide
            + topo.n_local_waveguides
        )

    def active_rx_endpoints(self) -> int:
        """Receivers powered during a layer: both receivers of every
        PE listen continuously, plus the GB-side receive filters."""
        topo = self.topology
        return 2 * topo.chiplets * topo.pes_per_chiplet + topo.n_local_waveguides

    def idle_heated_mrrs(self) -> int:
        """Rings outside the active transceivers that still need
        thermal tuning: the interposer-interface splitters/filters and
        the idle (token-less) PE modulators."""
        topo = self.topology
        idle_pe_modulators = (
            topo.chiplets * topo.pes_per_chiplet - topo.n_local_waveguides
        )
        return topo.n_interface_mrrs + max(0, idle_pe_modulators)

    def network_energy(
        self,
        mapping: Mapping,
        traffic: TrafficSummary,
        execution_time_s: float,
    ) -> NetworkEnergy:
        """Energy of the photonic network during one layer.

        Following the paper's Fig. 21b accounting, the E/O and O/E
        buckets carry the *full* transmitter/receiver power (circuits
        plus their own ring heaters, P_TX/P_RX of Section VII-B) of
        every powered endpoint over the layer's execution time; the
        heating bucket covers the remaining rings (interface
        splitters/filters and idle modulators); laser is the static
        launch power of the bank.
        """
        eo_mj = (
            self.transceiver.tx_total_mw
            * self.active_tx_endpoints()
            * execution_time_s
        )
        oe_mj = (
            self.transceiver.rx_total_mw
            * self.active_rx_endpoints()
            * execution_time_s
        )
        heating_mj = (
            self.params.ring_heating_mw
            * self.idle_heated_mrrs()
            * execution_time_s
        )
        laser_mj = self.laser_power_w() * 1e3 * execution_time_s
        return NetworkEnergy(
            eo_mj=eo_mj,
            oe_mj=oe_mj,
            heating_mj=heating_mj,
            laser_mj=laser_mj,
            electrical_mj=0.0,
        )


def granularity_sweep(
    chiplets: int,
    pes_per_chiplet: int,
    params: PhotonicParameters,
    granularities: tuple[int, ...] = (4, 8, 16, 32),
) -> dict[tuple[int, int], PowerReport]:
    """The Fig. 19/20 sweep: power vs (k, e/f) granularity."""
    results: dict[tuple[int, int], PowerReport] = {}
    for k_gran in granularities:
        for ef_gran in granularities:
            if pes_per_chiplet % k_gran or chiplets % ef_gran:
                continue
            topo = SpacxTopology(
                chiplets=chiplets,
                pes_per_chiplet=pes_per_chiplet,
                ef_granularity=ef_gran,
                k_granularity=k_gran,
            )
            results[(k_gran, ef_gran)] = SpacxPowerModel(topo, params).report()
    return results
