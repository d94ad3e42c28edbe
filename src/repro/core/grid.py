"""The cost-model kernel: a (machines x layers) grid in one NumPy pass.

The union of layer shapes is lowered **once** (the memoized
:func:`~.vectorized._shared_lower` table), per-machine mapping
parameters become ``(m, 1)`` integer columns, and NumPy broadcasting
evaluates mapping, traffic, timing, energy and the invariant audit for
the whole ``(machines x layers)`` grid in one pass.  A single machine
is a one-row grid (:func:`~.vectorized.simulate_layers_vectorized`),
and :func:`search_grid` evaluates the DSE floors and scores on the
same arrays.

**Bit-identity by construction.**  The mapping and traffic stages
(:func:`~.vectorized._map_lanes`, :func:`~.vectorized._traffic_lanes`)
run against a shim spec whose mapping parameters are ``(m, 1)``
arrays; the timing, energy and audit stages mirror the scalar source
expression for expression with per-machine scalars as ``(m, 1)`` float
columns (same operand values, same association).  Broadcasting never
changes per-element IEEE arithmetic, so every lane equals the scalar
oracle.  Network-energy lowering calls the registered per-machine
lowerers on row views, so custom models need no grid-specific port.

**Declined rows.**  A machine joins a grid only when it passes
:func:`grid_gap` (kernel coverage, live links, a mapping-parameter
budget), shares the first eligible row's :func:`family_key`, and the
exactness screen (:func:`~.vectorized._screen_spec`) proves its batch
can never reach 2**53.  A row that fails, or that bails out strictly
on a dirty audit lane, comes back as ``None`` with a reason, and its
machine runs on the scalar simulator.

**Plain lanes.**  Every admitted row's lanes are built as ordinary
:class:`LayerResult` objects, one row at a time, from the row's
columns converted with ``tolist()``.  Every campaign reads every lane
it asked for, so nothing is deferred.  Lanes that pass the grid audit
carry the pre-audit marker, so ``audit_model_result`` stays O(1) per
model.  :func:`search_grid` builds no lanes at all: a search reads
two floors per layer and three numbers per candidate, which
:func:`workload_score` reduces from the columns bit for bit.

**One array audit.**  :func:`_audit_grid` evaluates every check of
``audit_layer_result(result, spec)`` on columns.  It judges the
kernel's lanes and, through :func:`preaudit_hits`, the results a
grid group's cache probes return, so a warm rerun audits each hit
once per machine, in one array pass per group, instead of once per
job in Python.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from operator import attrgetter
from typing import TYPE_CHECKING, Sequence

try:  # pragma: no cover - numpy ships with the toolchain
    import numpy as np
except ImportError:  # pragma: no cover - gated fallback
    np = None

from .invariants import _PREAUDIT_ATTR, DEFAULT_REL_TOL
from .layer import ConvLayer
from .mapping import Mapping
from .metrics import EnergyBreakdown, LayerResult, NetworkEnergy
from .simulator import _MIN_BANDWIDTH_GBPS
from .traffic import TrafficSummary
from .vectorized import (
    _EXACT_INT,
    _NETWORK_LOWERERS,
    _Cols,
    _close_lanes,
    _copy_cols,
    _map_lanes,
    _screen_spec,
    _shared_cols,
    _shared_lower,
    _traffic_lanes,
    coverage_gap,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .simulator import Simulator

__all__ = [
    "GridOutcome",
    "evaluate_grid",
    "family_key",
    "grid_gap",
    "lane_covered",
    "preaudit_hits",
    "search_grid",
    "workload_score",
]


# ----------------------------------------------------------------------
# Eligibility
# ----------------------------------------------------------------------
def _used_links(spec) -> list[str]:
    """The bandwidth fields the kernel actually divides by for this
    spec (the split/combined selection of the communication stage)."""
    links = [
        "chiplet_write_gbps",
        "pe_write_gbps",
        "gb_ingress_gbps",
        "dram_bandwidth_gbps",
    ]
    if spec.gb_weight_egress_gbps and spec.gb_ifmap_egress_gbps:
        links += ["gb_weight_egress_gbps", "gb_ifmap_egress_gbps"]
    else:
        links.append("gb_egress_gbps")
    if spec.chiplet_weight_read_gbps and spec.chiplet_ifmap_read_gbps:
        links += ["chiplet_weight_read_gbps", "chiplet_ifmap_read_gbps"]
    else:
        links.append("chiplet_read_gbps")
    if spec.pe_weight_read_gbps and spec.pe_ifmap_read_gbps:
        links += ["pe_weight_read_gbps", "pe_ifmap_read_gbps"]
    else:
        links.append("pe_read_gbps")
    return links


def grid_gap(simulator: "Simulator") -> str | None:
    """Why this machine cannot join any grid (None = eligible).

    Beyond kernel coverage (:func:`~.vectorized.coverage_gap`), the
    grid refuses dead links (their ``inf``-transfer semantics are a
    per-spec scalar branch the broadcast pass cannot take per row) and
    mapping parameters large enough that parameter-parameter products
    could leave the proven-exact range.
    """
    gap = coverage_gap(simulator)
    if gap is not None:
        return gap
    spec = simulator.spec
    for name in _used_links(spec):
        if getattr(spec, name) <= _MIN_BANDWIDTH_GBPS:
            return f"dead link {name} needs scalar inf semantics"
    p = spec.mapping_parameters()
    if float(p.total_pes) * float(p.total_pes) * float(p.chiplets) >= _EXACT_INT:
        return "mapping parameters exceed the exact-integer budget"
    return None


def family_key(simulator: "Simulator", layer_by_layer: bool = False) -> tuple:
    """Machines with equal keys share every Python-level branch of the
    kernel (dataflow dispatch, broadcast selects, split-link choices),
    so they can be evaluated as rows of one grid.  Values -- bandwidth
    magnitudes, buffer sizes, granularities, energy coefficients --
    may differ freely: they become per-row columns."""
    spec = simulator.spec
    caps = spec.capabilities
    return (
        spec.dataflow,
        bool(layer_by_layer),
        bool(caps.weight_broadcast),
        bool(caps.ifmap_broadcast),
        bool(caps.ifmap_reuse_multicast),
        bool(spec.gb_weight_egress_gbps and spec.gb_ifmap_egress_gbps),
        bool(spec.chiplet_weight_read_gbps and spec.chiplet_ifmap_read_gbps),
        bool(spec.pe_weight_read_gbps and spec.pe_ifmap_read_gbps),
    )


#: 2**63: a base dimension at or above it cannot enter an int64 column.
_INT64_LIMIT = 9223372036854775808


def lane_covered(layer) -> bool:
    """Can this layer enter a grid batch at all?

    Exact type only (a subclass may override the derived-dimension
    properties), and every base dimension must fit int64.
    """
    if type(layer) is not ConvLayer:
        return False
    d = layer.__dict__
    return max(
        d["c"], d["k"], d["r"], d["s"], d["h"], d["w"],
        d["stride"], d["groups"], d["batch"],
    ) < _INT64_LIMIT


def _admit(simulators, layers, layer_by_layer: bool):
    """``(kept row indexes, reasons, shared lowering)`` of one grid call.

    A row is declined with a reason when its machine fails
    :func:`grid_gap`, when its :func:`family_key` differs from the
    first eligible row's (the kernel takes the dataflow, capabilities
    and split-link choices from that row), or when the exactness
    screen cannot prove its batch exact.
    """
    reasons: list = [None] * len(simulators)
    family = None
    eligible: list[int] = []
    for j, simulator in enumerate(simulators):
        reason = grid_gap(simulator)
        if reason is None:
            key = family_key(simulator, layer_by_layer)
            if family is None:
                family = key
            elif key != family:
                reason = "machine family differs from the grid's first row"
        if reason is None:
            eligible.append(j)
        else:
            reasons[j] = reason
    if not eligible:
        return [], reasons, None
    shared = _shared_lower(layers)
    kept: list[int] = []
    for j in eligible:
        if _screen_spec(simulators[j].spec, shared):
            kept.append(j)
        else:
            reasons[j] = "exactness screen declined the grid batch"
    return kept, reasons, shared


# ----------------------------------------------------------------------
# Shims: (m, 1) parameter columns behind the stages' spec API
# ----------------------------------------------------------------------
class _GridParams:
    """``MappingParameters`` lookalike whose fields (including the
    derived group/total properties) are ``(m, 1)`` int64 columns."""

    __slots__ = (
        "chiplets", "pes_per_chiplet", "mac_vector_width",
        "pe_buffer_bytes", "ef_group", "k_group",
        "n_chiplet_groups", "n_pe_groups", "total_pes",
    )


class _GridSpec:
    """Just enough ``AcceleratorSpec`` surface for the mapping and
    traffic stages: shared dataflow/capabilities, column parameters."""

    __slots__ = ("dataflow", "capabilities", "gb_bytes", "_params")

    def mapping_parameters(self) -> _GridParams:
        return self._params


def _int_col(values):
    return np.array(values, dtype=np.int64).reshape(len(values), 1)


def _float_col(values):
    return np.array(values, dtype=np.float64).reshape(len(values), 1)


def _link_seconds(total_bytes, bandwidth_col):
    """Live-link transfer/floor seconds, (m, n).

    Mirrors the live branch of both ``simulator._transfer_time_s`` and
    ``invariants._transfer_lower_bound_s`` (identical expressions);
    :func:`grid_gap` already excluded dead links, so the scalar
    ``inf`` branch cannot apply.
    """
    return np.where(
        total_bytes <= 0, 0.0, total_bytes * 8 / (bandwidth_col * 1e9)
    )


class _RowView:
    """One machine's row of the traffic columns, shaped (n,) -- what a
    registered network-energy lowerer expects to receive."""

    __slots__ = ("_d", "_j")

    def __init__(self, d, j):
        self._d = d
        self._j = j

    def __getattr__(self, name):
        col = getattr(self._d, name)
        if getattr(col, "ndim", 0) == 2:
            return col[self._j]
        return col


# ----------------------------------------------------------------------
# Lane assembly
# ----------------------------------------------------------------------
def _row_lists(cols, j, n):
    """Row ``j`` of every result column as a list of ``n`` Python
    scalars.  ``tolist()`` / ``.item()`` convert int64 to int and
    float64 to float, so built lanes are JSON- and pickle-compatible
    with scalar ones."""
    row = {}
    for name, col in cols.items():
        nd = getattr(col, "ndim", -1)
        if nd == 2:
            if col.shape[1] == 1:
                row[name] = [col[j, 0].item()] * n
            else:
                row[name] = col[j].tolist()
        elif nd == 1:
            row[name] = col.tolist()
        elif nd == 0:
            row[name] = [col.item()] * n
        else:
            row[name] = [col] * n
    return row


def _build_lanes(g, layers, spec, packet, dataflow, pe_forwarding, dirty_row):
    """One grid row's lanes as plain :class:`LayerResult` objects.

    ``g`` holds the row's columns (:func:`_row_lists`).  A lane whose
    ``dirty_row`` entry is false passed the grid audit and carries the
    pre-audit marker for ``spec``.  Objects are filled through
    ``__dict__`` rather than the generated frozen-dataclass
    ``__init__``, which would cost several times more per lane; every
    value comes from the kernel's columns.
    """
    new = object.__new__
    set_ = object.__setattr__
    accelerator = spec.name
    out = []
    for i, layer in enumerate(layers):
        mapping = new(Mapping)
        set_(mapping, "__dict__", {
            "layer": layer,
            "dataflow": dataflow,
            "compute_cycles": g["cycles"][i],
            "chiplets_active": g["ch_active"][i],
            "pes_active_per_chiplet": g["pe_active_per_chiplet"][i],
            "ef_waves": g["ef_waves"][i],
            "k_waves": g["k_waves"][i],
            "weight_sharers": g["w_sharers"][i],
            "ifmap_sharers": g["i_sharers"][i],
            "weight_chiplet_fanout": g["w_fanout"][i],
            "ifmap_chiplet_fanout": g["i_fanout"][i],
            "weight_refetch": g["w_refetch"][i],
            "ifmap_refetch": g["i_refetch"][i],
            "c_chunks": g["c_chunks"][i],
            "psum_spatial_fanin": g["psum_fanin"][i],
            "pe_forwarding": pe_forwarding,
        })
        traffic = new(TrafficSummary)
        set_(traffic, "__dict__", {
            "gb_weight_send_bytes": g["gw"][i],
            "gb_ifmap_send_bytes": g["gi"][i],
            "pe_weight_receive_bytes": g["pw"][i],
            "pe_ifmap_receive_bytes": g["pi"][i],
            "chiplet_weight_cross_bytes": g["cw"][i],
            "chiplet_ifmap_cross_bytes": g["ci"][i],
            "output_bytes": g["out"][i],
            "psum_bytes": g["psum"][i],
            "dram_read_bytes": g["dread"][i],
            "dram_write_bytes": g["dwrite"][i],
        })
        network = new(NetworkEnergy)
        set_(network, "__dict__", {
            "eo_mj": g["eo"][i],
            "oe_mj": g["oe"][i],
            "heating_mj": g["heat"][i],
            "laser_mj": g["laser"][i],
            "electrical_mj": g["elec"][i],
        })
        energy = new(EnergyBreakdown)
        set_(energy, "__dict__", {
            "mac_mj": g["mac"][i],
            "pe_buffer_mj": g["pe"][i],
            "gb_mj": g["gb"][i],
            "dram_mj": g["dram"][i],
            "network": network,
        })
        fields = {
            "accelerator": accelerator,
            "layer": layer,
            "mapping": mapping,
            "traffic": traffic,
            "computation_time_s": g["comp"][i],
            "communication_time_s": g["comm"][i],
            "exposed_communication_s": g["exposed"][i],
            "energy": energy,
            "packet_latency_s": packet,
            "delivered_bytes": g["delivered"][i],
        }
        if not dirty_row[i]:
            fields[_PREAUDIT_ATTR] = spec
        lane = new(LayerResult)
        set_(lane, "__dict__", fields)
        out.append(lane)
    return out


# ----------------------------------------------------------------------
# The grid evaluation
# ----------------------------------------------------------------------
def _grid_lower(specs, shared, layer_by_layer):
    """Mapping + traffic columns for one (machines x layers) grid.

    Broadcasts the shared ``(n,)`` layer columns against per-machine
    ``(m, 1)`` parameter columns through the mapping and traffic
    stages; the setup every :class:`_GridPass` shares.  Every spec
    must have passed the exactness screen (:func:`_admit`).
    """
    params = [spec.mapping_parameters() for spec in specs]

    gp = _GridParams()
    gp.chiplets = _int_col([p.chiplets for p in params])
    gp.pes_per_chiplet = _int_col([p.pes_per_chiplet for p in params])
    gp.mac_vector_width = _int_col([p.mac_vector_width for p in params])
    gp.pe_buffer_bytes = _int_col([p.pe_buffer_bytes for p in params])
    gp.ef_group = _int_col([p.ef_group for p in params])
    gp.k_group = _int_col([p.k_group for p in params])
    gp.n_chiplet_groups = _int_col([p.n_chiplet_groups for p in params])
    gp.n_pe_groups = _int_col([p.n_pe_groups for p in params])
    gp.total_pes = _int_col([p.total_pes for p in params])

    gspec = _GridSpec()
    gspec.dataflow = specs[0].dataflow
    gspec.capabilities = specs[0].capabilities
    gspec.gb_bytes = _int_col([spec.gb_bytes for spec in specs])
    gspec._params = gp

    d = _copy_cols(_shared_cols(shared))
    with np.errstate(all="ignore"):
        _map_lanes(gspec, d)
        _traffic_lanes(gspec, d, layer_by_layer)
    return d


def _comm_floors(specs, d):
    """Global-buffer egress, ingress and DRAM transfer seconds, (m, n).

    On a live link the transfer time *is* the audit's communication
    floor (``invariants._transfer_lower_bound_s``), so the timing
    stage, the audit and the DSE time floor share these arrays.
    """
    spec = specs[0]
    if spec.gb_weight_egress_gbps and spec.gb_ifmap_egress_gbps:
        gb_egress = np.maximum(
            _link_seconds(
                d.gw, _float_col([s.gb_weight_egress_gbps for s in specs])
            ),
            _link_seconds(
                d.gi, _float_col([s.gb_ifmap_egress_gbps for s in specs])
            ),
        )
    else:
        gb_egress = _link_seconds(
            d.gb_send, _float_col([s.gb_egress_gbps for s in specs])
        )
    gb_ingress = _link_seconds(
        d.out, _float_col([s.gb_ingress_gbps for s in specs])
    )
    dram = _link_seconds(
        d.dread + d.dwrite, _float_col([s.dram_bandwidth_gbps for s in specs])
    )
    return gb_egress, gb_ingress, dram


def _compute_energies(models, d, pes_active):
    """MAC, global-buffer and DRAM energy [mJ], (m, n) each (mirror of
    ``ComputeEnergyModel`` with per-machine coefficients as columns):
    part of every lane's energy and, summed, the DSE energy floor."""
    active_pe_cycles = pes_active * d.cycles
    picojoules = (
        d.macs * _float_col([ce.mac.energy_per_mac_pj for ce in models])
        + active_pe_cycles
        * _float_col([ce.mac.leakage_per_pe_cycle_pj for ce in models])
    )
    mac_mj = picojoules * 1e-9
    gb_reads = d.gb_send + d.dwrite
    gb_writes = d.out + d.dread
    gb_mj = (
        (gb_reads + gb_writes)
        * _float_col([ce.gb.energy_pj_per_byte for ce in models])
    ) * 1e-9
    dram_mj = (
        ((d.dread + d.dwrite) * 8)
        * _float_col([ce.dram.energy_pj_per_bit for ce in models])
    ) * 1e-9
    return mac_mj, gb_mj, dram_mj


class GridOutcome:
    """Per-machine results of one grid evaluation.

    ``by_machine[j]`` (aligned with the input simulators) is a dict
    mapping ``layer.shape_key`` to a plain :class:`LayerResult`, or
    ``None`` with ``reasons[j]`` naming why that machine must run on
    the scalar simulator instead.  ``lanes`` counts the lanes built:
    admitted rows times layers.
    """

    __slots__ = ("by_machine", "reasons", "lanes")

    def __init__(self, by_machine, reasons, lanes):
        self.by_machine = by_machine
        self.reasons = reasons
        self.lanes = lanes


class _GridPass:
    """One grid call's admission, lowering and floors stage.

    ``kept`` and ``reasons`` are :func:`_admit`'s.  When a row is kept,
    the pass also holds the kept machines (``sims``, ``specs``), their
    lowered mapping/traffic columns ``d`` and the floors stage: the
    :func:`_comm_floors` triple, the computation seconds ``comp``
    (cycles at the core clock), the active PE counts and the
    :func:`_compute_energies` triple.  :func:`_pass_floors` turns these
    into the DSE bounds; :func:`_pass_columns` builds the timing,
    network-energy and audit stage on them.  Both read the same
    arrays, so a bound and a lane never disagree about a shared input.
    ``layers`` must be non-empty.
    """

    __slots__ = (
        "kept", "reasons", "sims", "specs", "d",
        "comm_floors", "comp", "pes_active", "compute_mj",
    )

    def __init__(self, simulators, layers, layer_by_layer):
        self.kept, self.reasons, shared = _admit(
            simulators, layers, layer_by_layer
        )
        if not self.kept:
            return
        sims = self.sims = [simulators[j] for j in self.kept]
        specs = self.specs = [s.spec for s in sims]
        d = self.d = _grid_lower(specs, shared, layer_by_layer)
        with np.errstate(all="ignore"):
            self.comm_floors = _comm_floors(specs, d)
            self.comp = d.cycles * _float_col([s.cycle_time_s for s in specs])
            self.pes_active = d.ch_active * d.pe_active_per_chiplet
            self.compute_mj = _compute_energies(
                [s.compute_energy for s in sims], d, self.pes_active
            )


def _pass_floors(grid_pass) -> list:
    """Each kept row's ``(time_floor_s, energy_floor_mj)`` pair per
    layer, from a :class:`_GridPass` with kept rows: the mirror of
    ``roofline.mapped_time_floor_s`` and the MAC + global buffer + DRAM
    energy, as ``dse.bounds.layer_bounds`` derives them."""
    gb_floor, ingress_floor, dram_floor = grid_pass.comm_floors
    mac_mj, gb_mj, dram_mj = grid_pass.compute_mj
    with np.errstate(all="ignore"):
        floor = np.maximum(grid_pass.comp, gb_floor)
        floor = np.maximum(floor, ingress_floor)
        floor = np.maximum(floor, dram_floor)
        energy = (mac_mj + gb_mj) + dram_mj
    return [
        list(zip(times, energies))
        for times, energies in zip(floor.tolist(), energy.tolist())
    ]


def _pass_columns(grid_pass):
    """Timing, network energy and audit of a :class:`_GridPass` with
    kept rows: ``(cols, dirty, packet)``.

    ``cols`` holds every lane column under the :func:`_build_lanes`
    names, ``dirty`` is the ``(len(kept), n)`` audit mask and
    ``packet`` the kept machines' packet latencies.
    """
    sims, specs, d = grid_pass.sims, grid_pass.specs, grid_pass.d
    split_chiplet = bool(
        specs[0].chiplet_weight_read_gbps
        and specs[0].chiplet_ifmap_read_gbps
    )
    split_pe = bool(
        specs[0].pe_weight_read_gbps and specs[0].pe_ifmap_read_gbps
    )

    with np.errstate(all="ignore"):
        # --- communication (mirror of Simulator.communication_times,
        # per-spec scalars as (m, 1) columns; live links only)
        chiplets_active = np.maximum(1, d.ch_active)
        pes_active_c = np.maximum(1, grid_pass.pes_active)
        floors = grid_pass.comm_floors
        gb_egress_s, gb_ingress_s, dram_s = floors

        chiplet_w = d.cw / chiplets_active
        chiplet_i = d.ci / chiplets_active
        if split_chiplet:
            chiplet_read_s = np.maximum(
                _link_seconds(
                    chiplet_w,
                    _float_col([s.chiplet_weight_read_gbps for s in specs]),
                ),
                _link_seconds(
                    chiplet_i,
                    _float_col([s.chiplet_ifmap_read_gbps for s in specs]),
                ),
            )
        else:
            chiplet_read_s = _link_seconds(
                chiplet_w + chiplet_i,
                _float_col([s.chiplet_read_gbps for s in specs]),
            )

        if d.pe_forwarding:
            pes_per_chiplet = np.maximum(1, d.pe_active_per_chiplet)
            pe_w = chiplet_w / pes_per_chiplet
            pe_i = chiplet_i / pes_per_chiplet
        else:
            pe_w = d.pw / pes_active_c
            pe_i = d.pi / pes_active_c
        if split_pe:
            pe_read_s = np.maximum(
                _link_seconds(
                    pe_w,
                    _float_col([s.pe_weight_read_gbps for s in specs]),
                ),
                _link_seconds(
                    pe_i,
                    _float_col([s.pe_ifmap_read_gbps for s in specs]),
                ),
            )
        else:
            pe_read_s = _link_seconds(
                pe_w + pe_i, _float_col([s.pe_read_gbps for s in specs])
            )

        per_chiplet_out = (d.out + d.psum) / chiplets_active
        chiplet_write_s = _link_seconds(
            per_chiplet_out,
            _float_col([s.chiplet_write_gbps for s in specs]),
        )
        per_pe_out = d.out / pes_active_c
        pe_write_s = _link_seconds(
            per_pe_out, _float_col([s.pe_write_gbps for s in specs])
        )

        waves = d.ef_waves * d.k_waves
        tuning_col = _float_col([
            s.package_latency.tuning_delay_s + s.chiplet_latency.tuning_delay_s
            for s in specs
        ])
        reconfiguration_s = waves * tuning_col

        busy = np.maximum(gb_egress_s, gb_ingress_s)
        busy = np.maximum(busy, chiplet_read_s)
        busy = np.maximum(busy, chiplet_write_s)
        busy = np.maximum(busy, pe_read_s)
        busy = np.maximum(busy, pe_write_s)
        busy = np.maximum(busy, dram_s)
        comm = busy + reconfiguration_s

        comp = grid_pass.comp
        # Python's max(0.0, diff) keeps 0.0 when diff is NaN or -0.0;
        # np.maximum would propagate the NaN.  The select mirrors max.
        diff = comm - comp
        exposed = np.where(diff > 0.0, diff, 0.0)
        exec_s = comp + exposed

        # --- energy (per-machine model coefficients as columns)
        models = [s.compute_energy for s in sims]
        mac_mj, gb_mj, dram_mj = grid_pass.compute_mj
        operand_reads = 2 * d.macs
        psum_accesses = np.where(d.psum_fanin > 1, 2 * d.psum, d.obytes)
        pe_buffer_mj = (
            (operand_reads + d.pe_receive + psum_accesses)
            * _float_col([ce.pe_buffer.energy_pj_per_byte for ce in models])
        ) * 1e-9

        eo_rows, oe_rows, heat_rows, laser_rows, elec_rows = [], [], [], [], []
        for jj, sim in enumerate(sims):
            lowerer = _NETWORK_LOWERERS[type(sim.network_energy)]
            eo, oe, heat, laser, elec = lowerer(
                sim.network_energy, _RowView(d, jj), exec_s[jj]
            )
            eo_rows.append(eo)
            oe_rows.append(oe)
            heat_rows.append(heat)
            laser_rows.append(laser)
            elec_rows.append(elec)
        eo_mj = np.vstack(eo_rows)
        oe_mj = np.vstack(oe_rows)
        heating_mj = np.vstack(heat_rows)
        laser_mj = np.vstack(laser_rows)
        electrical_mj = np.vstack(elec_rows)

        # delivered stays exact at any int64 magnitude (sums cannot
        # wrap below 3 * 2**53) and only feeds integer arithmetic.
        delivered = d.cw + d.ci + d.out
        packet = [sim.packet_latency_s() for sim in sims]
        cols = {
            "cycles": d.cycles, "ch_active": d.ch_active,
            "pe_active_per_chiplet": d.pe_active_per_chiplet,
            "ef_waves": d.ef_waves, "k_waves": d.k_waves,
            "w_sharers": d.w_sharers, "i_sharers": d.i_sharers,
            "w_fanout": d.w_fanout, "i_fanout": d.i_fanout,
            "w_refetch": d.w_refetch, "i_refetch": d.i_refetch,
            "c_chunks": d.c_chunks, "psum_fanin": d.psum_fanin,
            "gw": d.gw, "gi": d.gi, "pw": d.pw, "pi": d.pi,
            "cw": d.cw, "ci": d.ci, "out": d.out, "psum": d.psum,
            "dread": d.dread, "dwrite": d.dwrite,
            "comp": comp, "comm": comm, "exposed": exposed,
            "delivered": delivered,
            "mac": mac_mj, "pe": pe_buffer_mj, "gb": gb_mj, "dram": dram_mj,
            "eo": eo_mj, "oe": oe_mj, "heat": heating_mj,
            "laser": laser_mj, "elec": electrical_mj,
        }
        dirty = _audit_grid(specs, cols, d.macs, _float_col(packet), floors)
    return cols, dirty, packet


def evaluate_grid(
    simulators: "Sequence[Simulator]",
    layers: "Sequence[ConvLayer]",
    *,
    layer_by_layer: bool = False,
) -> GridOutcome:
    """Evaluate the full (machines x layers) grid in one NumPy pass.

    Every layer must pass :func:`lane_covered` (callers sieve with
    it).  Results are bit-identical to the scalar oracle.  A machine
    :func:`_admit` declines, or one whose strict simulator meets a
    dirty audit lane, comes back as a ``None`` row with a reason.
    """
    n = len(layers)
    if n == 0:
        return GridOutcome(
            [{} for _ in simulators], [None] * len(simulators), 0
        )
    by_machine: list = [None] * len(simulators)
    grid_pass = _GridPass(simulators, layers, layer_by_layer)
    kept, reasons = grid_pass.kept, grid_pass.reasons
    if not kept:
        return GridOutcome(by_machine, reasons, 0)
    cols, dirty, packet = _pass_columns(grid_pass)
    dataflow = simulators[kept[0]].spec.dataflow
    pe_forwarding = bool(grid_pass.d.pe_forwarding)
    shape_keys = [layer.shape_key for layer in layers]
    lanes = 0
    for jj, j in enumerate(kept):
        sim = simulators[j]
        dirty_row = dirty[jj].tolist()
        if sim.strict and any(dirty_row):
            # The scalar simulator reproduces the exact raise and its
            # side effects.
            reasons[j] = "strict invariant bailout"
            continue
        row = _build_lanes(
            _row_lists(cols, jj, n), layers, sim.spec, packet[jj],
            dataflow, pe_forwarding, dirty_row,
        )
        by_machine[j] = dict(zip(shape_keys, row))
        lanes += n
    return GridOutcome(by_machine, reasons, lanes)


def search_grid(
    simulators: "Sequence[Simulator]",
    layers: "Sequence[ConvLayer]",
    occurrences: "Sequence[Sequence[int] | None]",
    *,
    layer_by_layer: bool = False,
) -> tuple[list, list]:
    """Floors and deferred scores of each row's workload, from one
    grid pass that builds no lanes.

    Row ``j`` is ``simulators[j]`` (rows may repeat a machine; each is
    evaluated once) running ``occurrences[j]``: one index into
    ``layers`` per layer occurrence in network order.  Every layer
    must pass :func:`lane_covered`, and ``layers`` must be non-empty.
    ``floors[j]`` is one ``(time_floor_s, energy_floor_mj)`` pair per
    layer, bit-identical to ``dse.bounds.layer_bounds``; ``scorers[j]``
    is a zero-argument call returning the row's :func:`workload_score`
    triple, bit for bit the score of the ``ModelResult`` the runner
    would stitch from :func:`evaluate_grid`'s lanes, or ``None`` when
    the array audit flags one of the workload's lanes (the runner then
    reproduces the raise or the job failure).  Both are ``None`` for a
    machine :func:`_admit` declines; a scorer is ``None`` for an empty
    or ``None`` workload.  The scoring stage (:func:`_pass_columns`)
    is built by the first scorer call, once per pass, and a scorer
    reduces its row only when called.
    """
    floors: list = [None] * len(simulators)
    scorers: list = [None] * len(simulators)
    machine_of: dict[int, int] = {}
    machines: list = []
    for simulator in simulators:
        if machine_of.setdefault(id(simulator), len(machines)) == len(machines):
            machines.append(simulator)
    grid_pass = _GridPass(machines, layers, layer_by_layer)
    if not grid_pass.kept:
        return floors, scorers
    rows = _pass_floors(grid_pass)
    stage: list = []  # the scoring stage, built by the first call

    def score_row(jj, occ, params):
        if not stage:
            cols, dirty, _ = _pass_columns(grid_pass)
            shape = dirty.shape
            with np.errstate(all="ignore"):
                exec_s = cols["comp"] + cols["exposed"]
            stage.append((
                np.broadcast_to(exec_s, shape),
                np.stack([
                    np.broadcast_to(cols[name], shape) for name in _ENERGY_COLS
                ]),
                grid_pass.d.macs.tolist(),
                np.broadcast_to(cols["cycles"], shape),
                dirty,
                dirty.any(axis=1).tolist(),
            ))
        exec_s, energies, macs, cycles, dirty, dirty_rows = stage[0]
        if dirty_rows[jj] and bool(dirty[jj, occ].any()):
            return None
        return workload_score(
            occ, exec_s[jj].tolist(), energies[:, jj], macs,
            cycles[jj].tolist(), params,
        )

    row_of = {m: jj for jj, m in enumerate(grid_pass.kept)}
    for j, (simulator, occ) in enumerate(zip(simulators, occurrences)):
        jj = row_of.get(machine_of[id(simulator)])
        if jj is None:
            continue
        floors[j] = rows[jj]
        if occ:
            scorers[j] = partial(
                score_row, jj, occ, simulator.spec.mapping_parameters()
            )
    return floors, scorers


def workload_score(occ, exec_s, energy, macs, cycles, params) -> tuple:
    """``(execution_time_s, energy_mj, mean_utilization)`` of one
    workload on one machine: what the DSE search ranks a candidate by.

    Lane ``i`` has execution time ``exec_s[i]``, energy components
    ``energy[c][i]`` (the nine of :data:`_ENERGY_COLS`, in that order)
    and ``macs[i]`` / ``cycles[i]`` as Python ints; ``occ`` lists the
    lane of each layer occurrence in network order, and ``params`` are
    the machine's mapping parameters.  Each reduction replays the
    ``ModelResult`` / ``Mapping`` expression it stands for, so the
    triple is bit-identical to reading those objects:

    * time: the builtin ``sum`` over occurrences, as
      ``ModelResult.execution_time_s`` (Python 3.12 compensates a float
      ``sum``, so no other summation may stand in);
    * energy: each component folded from ``0.0`` in occurrence order,
      as ``ModelResult.energy`` -- a running sum is that left fold --
      then associated as ``EnergyBreakdown.total_mj``;
    * utilization: ``Mapping.utilization`` per lane (0.0 at zero
      peak), averaged over occurrences.
    """
    time_s = sum(map(exec_s.__getitem__, occ))
    parts = np.asarray(energy, dtype=np.float64)[:, occ]
    mac, pe, gb, dram, eo, oe, heat, laser, elec = np.add.accumulate(
        np.hstack([np.zeros((len(parts), 1)), parts]), axis=1
    )[:, -1].tolist()
    energy_mj = (((mac + pe) + gb) + dram) + (
        (((eo + oe) + heat) + laser) + elec
    )
    total_pes, width = params.total_pes, params.mac_vector_width
    utilization = [
        m / peak if (peak := c * total_pes * width) else 0.0
        for m, c in zip(macs, cycles)
    ]
    mean = sum(map(utilization.__getitem__, occ)) / len(occ) if occ else 0.0
    return time_s, energy_mj, mean


#: Energy columns in the audit's summation order.
_ENERGY_COLS = ("mac", "pe", "gb", "dram", "eo", "oe", "heat", "laser", "elec")
#: Byte-count columns: the result's delivered bytes and its traffic.
_BYTE_COLS = (
    "delivered", "gw", "gi", "pw", "pi", "cw", "ci", "out", "psum",
    "dread", "dwrite",
)


def _audit_grid(specs, cols, macs, packet, floors):
    """Array form of ``audit_layer_result(result, spec)``: an (m, n)
    mask, dirty iff the scalar audit would report at least one
    violation for that lane (checked at ``DEFAULT_REL_TOL``).

    Row ``j`` is judged against ``specs[j]``.  ``cols`` holds the
    audited values under the :func:`_build_lanes` names -- float64
    times and energies, int64 byte counts and mapping fields -- each
    broadcasting to (m, n); ``macs`` is the int64 MAC count, (n,) or
    (m, n), ``packet`` the packet latency and ``floors`` the
    :func:`_comm_floors` triple.  Every integer the float checks read
    converts to float64 exactly (the exactness screen proves it for the
    kernel's lanes, :func:`preaudit_hits` screens cache hits), so each
    check is the scalar expression evaluated on the same values.  Every
    check runs, including those that cannot fire on a kernel lane: a
    cache hit holds whatever its record held.
    """
    rel_tol = DEFAULT_REL_TOL
    slack = 1.0 + rel_tol
    comp, comm, exposed = cols["comp"], cols["comm"], cols["exposed"]

    # times: NaN or negative, then exposed == max(0, comm - comp).
    # Python's max(0.0, diff) keeps 0.0 when diff is NaN or -0.0, as
    # the select does; a NaN operand has already marked the lane.
    dirty = ~(comp >= 0) | ~(comm >= 0) | ~(exposed >= 0) | ~(packet >= 0)
    diff = comm - comp
    dirty |= ~_close_lanes(exposed, np.where(diff > 0.0, diff, 0.0), rel_tol)

    # energy: a negative or NaN component, then the sum identity.
    # EnergyBreakdown.total_mj associates (((mac+pe)+gb)+dram) +
    # ((((eo+oe)+heat)+laser)+elec); the audit's expectation is the
    # flat left fold.  A NaN total needs a NaN or -inf component,
    # which has already marked the lane.
    energies = [cols[name] for name in _ENERGY_COLS]
    for arr in energies:
        dirty |= ~(arr >= 0)
    mac, pe, gb, dram, eo, oe, heat, laser, elec = energies
    observed_total = (((mac + pe) + gb) + dram) + (
        (((eo + oe) + heat) + laser) + elec
    )
    expected_total = mac + pe + gb + dram + eo + oe + heat + laser + elec
    dirty |= ~_close_lanes(observed_total, expected_total, rel_tol)

    # byte counts are int64 columns: only their sign can be wrong.
    for name in _BYTE_COLS:
        dirty |= cols[name] < 0

    # the mapping fits the machine
    dirty |= cols["ch_active"] > _int_col([s.chiplets for s in specs])
    dirty |= cols["pe_active_per_chiplet"] > _int_col(
        [s.pes_per_chiplet for s in specs]
    )

    # op conservation.  capacity = cycles * peak legitimately crosses
    # 2**53, where the scalar compares the exact integer against
    # fl(capacity * slack) in one rounding but float math would take
    # two.  Screen in float with a 1e-9 relative margin, then re-judge
    # the rare near-bound lanes with exact Python integers -- the
    # scalar expression itself.
    cycles = cols["cycles"]
    peaks = [spec.peak_macs_per_cycle for spec in specs]
    peak_col = _float_col([float(peak) for peak in peaks])
    capacity_f = cycles.astype(np.float64) * peak_col
    near = macs.astype(np.float64) > capacity_f * (slack * (1.0 - 1e-9))
    if bool(near.any()):
        lane_macs = np.broadcast_to(macs, near.shape)
        for j, i in np.argwhere(near).tolist():
            if int(lane_macs[j, i]) > int(cycles[j, i]) * peaks[j] * slack:
                dirty[j, i] = True

    # computation time is cycles at the core clock
    expected_comp = cycles * _float_col([s.cycle_time_s for s in specs])
    dirty |= ~_close_lanes(comp, expected_comp, rel_tol)

    # communication lower bounds
    for floor in floors:
        dirty |= comm < floor * (1.0 - rel_tol)

    # roofline
    exec_s = comp + exposed
    valid = np.isfinite(exec_s) & (exec_s > 0)
    achieved = macs / np.where(valid, exec_s, 1.0)
    peak_macs_col = _float_col([
        spec.peak_macs_per_cycle * spec.frequency_ghz * 1e9 for spec in specs
    ])
    dirty |= valid & (achieved > peak_macs_col * slack)
    return dirty


# ----------------------------------------------------------------------
# Cache hits: the same audit, one call per grid group
# ----------------------------------------------------------------------
#: The audited fields of a result: ``(column, owner, attribute)``,
#: where the column is the :func:`_audit_grid` name and the owner is
#: the result itself or one of its :data:`_HIT_PARTS`.
_HIT_FLOAT_FIELDS = (
    ("comp", "result", "computation_time_s"),
    ("comm", "result", "communication_time_s"),
    ("exposed", "result", "exposed_communication_s"),
    ("packet", "result", "packet_latency_s"),
    ("mac", "energy", "mac_mj"),
    ("pe", "energy", "pe_buffer_mj"),
    ("gb", "energy", "gb_mj"),
    ("dram", "energy", "dram_mj"),
    ("eo", "network", "eo_mj"),
    ("oe", "network", "oe_mj"),
    ("heat", "network", "heating_mj"),
    ("laser", "network", "laser_mj"),
    ("elec", "network", "electrical_mj"),
)
_HIT_INT_FIELDS = (
    ("delivered", "result", "delivered_bytes"),
    ("gw", "traffic", "gb_weight_send_bytes"),
    ("gi", "traffic", "gb_ifmap_send_bytes"),
    ("pw", "traffic", "pe_weight_receive_bytes"),
    ("pi", "traffic", "pe_ifmap_receive_bytes"),
    ("cw", "traffic", "chiplet_weight_cross_bytes"),
    ("ci", "traffic", "chiplet_ifmap_cross_bytes"),
    ("out", "traffic", "output_bytes"),
    ("psum", "traffic", "psum_bytes"),
    ("dread", "traffic", "dram_read_bytes"),
    ("dwrite", "traffic", "dram_write_bytes"),
    ("cycles", "mapping", "compute_cycles"),
    ("ch_active", "mapping", "chiplets_active"),
    ("pe_active_per_chiplet", "mapping", "pes_active_per_chiplet"),
    ("macs", "layer", "macs"),
)
#: ``(part, owner, class)``: the objects a result's audited fields live
#: on.  Energy, network, traffic and mapping must be of the stock class:
#: the audit mirrors their derived properties (``total_mj``,
#: ``gb_send_bytes``), and a rebound copy rebuilds the mapping as a
#: plain :class:`Mapping`.  The layer's MAC count is compared with the
#: looked-up layer's instead.
_HIT_PARTS = (
    ("energy", "result", EnergyBreakdown),
    ("network", "energy", NetworkEnergy),
    ("traffic", "result", TrafficSummary),
    ("mapping", "result", Mapping),
    ("layer", "result", None),
)
#: Integers at or past 2**53 do not convert to float64 exactly.
_INT53 = 2**53


def _gather(hits):
    """``(floats (13, k), ints (15, k))`` arrays of the hits' audited
    values -- or ``None`` unless every hit is a stock
    :class:`LayerResult` holding a ``float`` in each float-typed field
    and an ``int`` (not a ``bool``) that fits int64 in each
    integer-typed one.  The gather reads one field of every hit per
    C-level pass and allocates no per-hit containers."""
    try:
        if set(map(type, hits)) != {LayerResult}:
            return None
        owners = {"result": hits}
        for name, owner, cls in _HIT_PARTS:
            owners[name] = part = list(map(attrgetter(name), owners[owner]))
            if cls is not None and set(map(type, part)) != {cls}:
                return None
        floats = [
            list(map(attrgetter(attr), owners[owner]))
            for _, owner, attr in _HIT_FLOAT_FIELDS
        ]
        ints = [
            list(map(attrgetter(attr), owners[owner]))
            for _, owner, attr in _HIT_INT_FIELDS
        ]
    except (AttributeError, ArithmeticError, TypeError):
        return None  # unreadable: the scalar audit meets the same error
    if set(map(type, chain.from_iterable(floats))) != {float}:
        return None
    if set(map(type, chain.from_iterable(ints))) != {int}:
        return None
    try:
        return np.array(floats, dtype=np.float64), np.array(ints, dtype=np.int64)
    except OverflowError:
        return None


def preaudit_hits(specs, hits, layers) -> None:
    """Judge the cache hits of a grid group's machines in one
    :func:`_audit_grid` call and mark the clean ones.

    ``hits[j]`` are results the cache served for the machine of
    ``specs[j]``, and ``layers[j][i]`` is the layer ``hits[j][i]`` was
    looked up for.  A hit is marked (:data:`~.invariants._PREAUDIT_ATTR`
    set to its machine's spec) only when ``audit_layer_result(hit,
    spec)`` returns no violation and its layer has the MAC count of the
    layer it was looked up for, so the mark also holds for the copies
    the runner rebinds to same-shape layers.  A hit the audit flags
    stays unmarked, and so does one with an integer at or past 2**53.
    When some hit cannot be gathered at all (a value that is not a
    plain ``float`` or ``int``, an integer past int64, or an energy,
    traffic or mapping object of another class), no hit of the group
    is marked.  The scalar audit then decides them.

    The machines must share a :func:`family_key` and have passed
    :func:`grid_gap`, so the live-link floors of :func:`_comm_floors`
    apply.  One call per group rather than per machine: the audit's
    fixed cost would otherwise outweigh the scalar audit of a machine
    with few hits.
    """
    gathered = _gather([hit for row in hits for hit in row])
    if gathered is None:
        return  # some hit cannot be judged: the scalar audit takes them all
    floats, ints = gathered
    # Rows are machines; a shorter row is padded with copies of its
    # last hit, whose verdicts are dropped.
    counts = np.array([len(row) for row in hits])
    lane = np.arange(counts.max())
    pick = (np.cumsum(counts) - counts)[:, None] + np.minimum(
        lane, counts[:, None] - 1
    )
    cols = dict(zip((name for name, _, _ in _HIT_FLOAT_FIELDS), floats[:, pick]))
    cols.update(zip((name for name, _, _ in _HIT_INT_FIELDS), ints[:, pick]))
    links = _Cols()
    links.gw, links.gi, links.out = cols["gw"], cols["gi"], cols["out"]
    links.dread, links.dwrite = cols["dread"], cols["dwrite"]
    with np.errstate(all="ignore"):
        links.gb_send = links.gw + links.gi
        floors = _comm_floors(specs, links)
        dirty = _audit_grid(specs, cols, cols["macs"], cols["packet"], floors)
    judged = ((ints > -_INT53) & (ints < _INT53)).all(axis=0)
    # Machines of a group mostly look up the same layer objects.
    looked_up = {id(layer): layer for row in layers for layer in row}
    macs = {key: layer.macs for key, layer in looked_up.items()}
    judged &= ints[-1] == np.array(
        [macs[id(layer)] for row in layers for layer in row], dtype=np.float64
    )
    flags = (dirty[lane < counts[:, None]] | ~judged).tolist()
    # A result served for two layers is marked only if clean for both.
    flagged = {
        id(hit)
        for hit, flag in zip(chain.from_iterable(hits), flags)
        if flag
    }
    start = 0
    for spec, row in zip(specs, hits):
        for hit, flag in zip(row, flags[start:start + len(row)]):
            if not flag and id(hit) not in flagged:
                hit.__dict__[_PREAUDIT_ATTR] = spec
        start += len(row)
