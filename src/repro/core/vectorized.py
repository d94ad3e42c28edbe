"""NumPy cost-model kernel: coverage, shape lowering and the one-machine entry.

The analytical cost model is closed-form arithmetic over layer shapes
(SCALE-Sim evaluates the same class of model the same way), so a batch
of layers lowers naturally into dense parameter columns evaluated in
one pass of array math.  The kernel is :func:`repro.core.grid.
evaluate_grid` (and :func:`~repro.core.grid.search_grid` for the DSE
floors and scores): machines are rows, layer shapes are columns.  This
module holds what every row shares:

* the **coverage registry** (:func:`coverage_gap`), which declares
  exactly which machine features the kernel understands -- anything
  else (a subclassed simulator, an unregistered network-energy model,
  a non-stock energy model) runs on the scalar simulator instead;
* the memoized **shape lowering** (:func:`_shared_lower`) and the
  **exactness screen** (:func:`_screen_spec`);
* the **mapping and traffic stages** (:func:`_map_lanes`,
  :func:`_traffic_lanes`), NumPy mirrors of :mod:`repro.core.mapping`
  and :mod:`repro.core.traffic` that broadcast over per-machine
  ``(m, 1)`` parameter columns;
* :func:`simulate_layers_vectorized`, the one-machine entry: a
  one-row grid.

**The scalar path stays the oracle.**  Every result the kernel emits is
bit-identical to the scalar simulator -- not merely close.  Three rules
make that possible:

* Every floating-point expression mirrors the scalar source's
  association exactly (``(bits * pj) * 1e-9``, never
  ``bits * (pj * 1e-9)``).  Integer arithmetic is exact in both
  worlds, so association only matters once floats appear.
* Scalar Python and NumPy agree on int->float conversion and on float
  ops, but they *disagree* on ``int / int`` true division (Python
  rounds the exact quotient once; NumPy converts first) and NumPy
  silently wraps int64 products.  Both hazards vanish below 2**53, so
  the screen proves that no product of a batch can reach 2**53; a
  machine it cannot prove runs on the scalar simulator.
* Lane-dependent control flow (refetch branches, the halo factor) is
  expressed with masked selects whose branches compute the same
  expressions the scalar code would.
"""

from __future__ import annotations

import math
import threading
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Sequence

try:  # pragma: no cover - numpy ships with the toolchain
    import numpy as np
except ImportError:  # pragma: no cover - gated fallback
    np = None

from ..energy.buffers import SramEnergyModel
from ..energy.compute import ComputeEnergyModel
from ..energy.dram import DramModel
from ..energy.mac import MacEnergyModel
from .accelerator import AcceleratorSpec
from .dataflow import DataflowKind
from .layer import ACTIVATION_BITS, PSUM_BITS, WEIGHT_BITS
from .simulator import Simulator
from .traffic import NetworkCapabilities

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .layer import ConvLayer
    from .metrics import LayerResult

__all__ = [
    "coverage_gap",
    "register_network_lowerer",
    "simulate_layers_vectorized",
]

#: Above this, int64 -> float64 conversion (and therefore NumPy's
#: convert-then-divide ``int / int``) stops being exact.
_EXACT_INT = float(2**53)
#: Safety margin for float64 -> int64 truncating casts (C cast is
#: undefined at 2**63; Python ``int()`` is not).
_CAST_LIMIT = float(2**62)

_SUPPORTED_DATAFLOWS = (
    DataflowKind.SPACX_OS,
    DataflowKind.WEIGHT_STATIONARY,
    DataflowKind.OUTPUT_STATIONARY_EF,
)


# ----------------------------------------------------------------------
# Coverage registry
# ----------------------------------------------------------------------
#: Vectorized lowerings of network-energy models, keyed by *exact*
#: type.  A subclass may override anything, so it never matches.
_NETWORK_LOWERERS: dict[type, Callable] = {}
_BUILTINS_REGISTERED = False


def register_network_lowerer(model_type: type, lowerer: Callable) -> None:
    """Register a vectorized network-energy lowering.

    ``lowerer(model, traffic_columns, execution_time_s)`` must return
    five float64 arrays ``(eo, oe, heating, laser, electrical)`` in mJ
    that are bit-identical to ``model.network_energy(...)`` per lane.
    """
    _NETWORK_LOWERERS[model_type] = lowerer


def _ensure_builtin_lowerers() -> None:
    """Late-register the stock lowerers (keeps module import light)."""
    global _BUILTINS_REGISTERED
    if _BUILTINS_REGISTERED:
        return
    _BUILTINS_REGISTERED = True

    from ..baselines.electrical import (
        CHIPLET_LINK,
        PACKAGE_LINK,
        ElectricalMeshEnergy,
    )
    from ..baselines.popstar import PopstarNetworkEnergy, popstar_mrr_count
    from ..spacx.power import SpacxPowerModel

    def lower_spacx(model, tr, exec_s):
        # Mirrors SpacxPowerModel.network_energy: every term is
        # (static coefficient) * execution time, the coefficient being
        # the exact left-to-right product of the scalar expression.  The
        # model computes its laser power once.
        zeros = np.zeros(exec_s.shape)
        return (
            (model.transceiver.tx_total_mw * model.active_tx_endpoints())
            * exec_s,
            (model.transceiver.rx_total_mw * model.active_rx_endpoints())
            * exec_s,
            (model.params.ring_heating_mw * model.idle_heated_mrrs()) * exec_s,
            (model.laser_power_w() * 1e3) * exec_s,
            zeros,
        )

    def lower_popstar(model, tr, exec_s):
        heat_c = model.params.ring_heating_mw * popstar_mrr_count(model.chiplets)
        laser_c = model.laser_power_w() * 1e3
        chiplet_pj = CHIPLET_LINK.energy_pj_per_bit(
            model._chiplet_mesh.chiplet_hops
        )
        package_bits = (tr.gb_send + tr.out) * 8
        eo = (package_bits * model.transceiver.eo_energy_pj_per_bit) * 1e-9
        oe = (package_bits * model.transceiver.oe_energy_pj_per_bit) * 1e-9
        chiplet_bits = (tr.pe_receive + tr.out + tr.psum) * 8
        electrical = (chiplet_bits * chiplet_pj) * 1e-9
        return (eo, oe, heat_c * exec_s, laser_c * exec_s, electrical)

    def lower_electrical(model, tr, exec_s):
        package_bits = (tr.gb_send + tr.out) * 8
        chiplet_bits = (tr.pe_receive + tr.out + tr.psum) * 8
        package_mj = (
            package_bits * PACKAGE_LINK.energy_pj_per_bit(model.package_hops)
        ) * 1e-9
        chiplet_mj = (
            chiplet_bits * CHIPLET_LINK.energy_pj_per_bit(model.chiplet_hops)
        ) * 1e-9
        zeros = np.zeros(exec_s.shape)
        return (zeros, zeros, zeros, zeros, package_mj + chiplet_mj)

    register_network_lowerer(SpacxPowerModel, lower_spacx)
    register_network_lowerer(PopstarNetworkEnergy, lower_popstar)
    register_network_lowerer(ElectricalMeshEnergy, lower_electrical)


#: Bandwidth fields a NaN in which would diverge: the scalar
#: ``bottleneck_s`` is a sequential Python ``max`` that *drops* a NaN
#: in any non-first position, while ``np.maximum`` propagates it.
_BANDWIDTH_FIELDS = (
    "gb_egress_gbps",
    "gb_ingress_gbps",
    "chiplet_read_gbps",
    "chiplet_write_gbps",
    "pe_read_gbps",
    "pe_write_gbps",
    "dram_bandwidth_gbps",
    "chiplet_weight_read_gbps",
    "chiplet_ifmap_read_gbps",
    "pe_weight_read_gbps",
    "pe_ifmap_read_gbps",
    "gb_weight_egress_gbps",
    "gb_ifmap_egress_gbps",
)


def _spec_gap(spec) -> str | None:
    """Why this spec cannot take the kernel (None = covered)."""
    if type(spec) is not AcceleratorSpec:
        return f"unsupported spec type {type(spec).__name__}"
    if type(spec.capabilities) is not NetworkCapabilities:
        return (
            "unsupported capabilities type "
            f"{type(spec.capabilities).__name__}"
        )
    if spec.dataflow not in _SUPPORTED_DATAFLOWS:
        return f"unsupported dataflow {spec.dataflow!r}"
    if spec.pe_buffer_bytes < 2:
        # The scalar mapper divides by pe_buffer_bytes // 2; mirroring
        # its ZeroDivisionError from array code is not worth it.
        return "degenerate pe_buffer_bytes < 2"
    if spec.mac_vector_width < 1:
        # Scalar: ZeroDivisionError in the per-wave cycle count.
        return "degenerate mac_vector_width < 1"
    if not all(
        1 <= value < 2**53
        for value in (
            spec.peak_macs_per_cycle,
            spec.pe_buffer_bytes,
            spec.gb_bytes,
        )
    ):
        # Beyond 2**53 the int64 columns lose exact float conversion
        # (and absurd machines are not worth lanes); peak covers the
        # chiplets * pes * vector-width product.
        return "spec dimensions exceed the exact-integer range"
    if math.isnan(spec.frequency_ghz):
        return "NaN frequency"
    for field_name in _BANDWIDTH_FIELDS:
        if math.isnan(getattr(spec, field_name)):
            return f"NaN bandwidth {field_name}"
    return None


def _compute_energy_gap(compute_energy) -> str | None:
    if type(compute_energy) is not ComputeEnergyModel:
        return (
            "unsupported compute-energy type "
            f"{type(compute_energy).__name__}"
        )
    if type(compute_energy.pe_buffer) is not SramEnergyModel:
        return "unsupported pe_buffer energy model"
    if type(compute_energy.gb) is not SramEnergyModel:
        return "unsupported gb energy model"
    if type(compute_energy.mac) is not MacEnergyModel:
        return "unsupported mac energy model"
    if type(compute_energy.dram) is not DramModel:
        return "unsupported dram energy model"
    return None


def coverage_gap(simulator) -> str | None:
    """Why this simulator needs the scalar path (None = fully covered).

    Exact-type checks throughout: any subclass may have overridden
    behaviour the kernel would silently fail to reproduce, and a wrong
    fast answer is the one outcome this module must never produce.
    """
    if np is None:
        return "numpy unavailable"
    if type(simulator) is not Simulator:
        return f"unsupported simulator type {type(simulator).__name__}"
    gap = _spec_gap(simulator.spec)
    if gap is not None:
        return gap
    gap = _compute_energy_gap(simulator.compute_energy)
    if gap is not None:
        return gap
    _ensure_builtin_lowerers()
    if type(simulator.network_energy) not in _NETWORK_LOWERERS:
        return (
            "no vectorized lowering for network-energy model "
            f"{type(simulator.network_energy).__name__}"
        )
    return None


# ----------------------------------------------------------------------
# Exactness screen and the shared shape lowering
# ----------------------------------------------------------------------
#: Screen limits carry a relative margin absorbing float rounding: a
#: bound is a product of < 16 exactly-converted factors, each multiply
#: correctly rounded, so the computed value is within (1 +/- 1e-14) of
#: the true bound and a comparison against limit * (1 - 1e-9) is
#: conservative-exact.
_SCREEN_MARGIN = 1.0 - 1e-9


class _SharedLower:
    """Spec-independent lowering of one layer table, shared by every
    machine that evaluates it (and memoized across machines by
    shape-key fingerprint).

    Holds the raw (n, 9) dimension matrix, the float bound columns the
    exactness screen re-checks per spec, and -- lazily -- the derived
    shape columns (:func:`_shared_cols`).
    """

    __slots__ = (
        "ints", "wb", "bhw",
        "ints_max", "d_max", "wb_max", "ibk_max", "bhwk_max", "ibrs_max",
        "cols",
    )


#: shape-key-tuple -> _SharedLower; FIFO-bounded.  N configs sweeping
#: the same model lower its layer table exactly once.
_SHARED_MEMO: "dict[tuple, _SharedLower]" = {}
_SHARED_MEMO_LIMIT = 64

#: Serialises evict-plus-insert on :data:`_SHARED_MEMO`.  ``repro
#: serve``'s runner slots share it: unlocked, two threads evicting at
#: capacity could pick the same oldest key (``KeyError``) or iterate a
#: dict the other is resizing (``RuntimeError``).  Lookups stay a
#: plain ``dict.get``.
_SHARED_MEMO_LOCK = threading.Lock()


def _shared_from_ints(ints) -> _SharedLower:
    shared = _SharedLower()
    shared.ints = ints
    f = ints.astype(np.float64)
    c = f[:, 0]
    k = f[:, 1]
    r = f[:, 2]
    s = f[:, 3]
    b = f[:, 8]
    bhw = (b * f[:, 4]) * f[:, 5]
    krs = (k * r) * s
    wb = krs * c  # weight bytes (WEIGHT_BITS == 8)
    ib = bhw * c  # ifmap bytes (ACTIVATION_BITS == 8)
    d_col = ib * krs  # macs / cycles and every derived shape product
    shared.wb = wb
    shared.bhw = bhw
    shared.ints_max = float(ints.max())
    shared.d_max = float(d_col.max())
    shared.wb_max = float(wb.max())
    shared.ibk_max = float((ib * k).max())
    shared.bhwk_max = float((bhw * k).max())
    shared.ibrs_max = float((ib * (r * s)).max())
    shared.cols = None
    return shared


def _shared_lower(layers) -> _SharedLower:
    """Memoized :class:`_SharedLower` for a layer table.

    The key is the tuple of shape keys -- the full nine-dimension
    identity of every lane -- so equal tables (the common case across
    a config sweep) hit regardless of layer names or model identity.
    Callers sieve layers with :func:`repro.core.grid.lane_covered`
    first, so every dimension fits int64.
    """
    key = tuple(layer.shape_key for layer in layers)
    shared = _SHARED_MEMO.get(key)
    if shared is not None:
        return shared
    ints = np.array([_DIM_GET(l) for l in layers], dtype=np.int64)
    ints.setflags(write=False)
    shared = _shared_from_ints(ints)
    with _SHARED_MEMO_LOCK:
        # FIFO: at capacity the oldest entry (first inserted) goes.
        if len(_SHARED_MEMO) >= _SHARED_MEMO_LIMIT:
            del _SHARED_MEMO[next(iter(_SHARED_MEMO))]
        _SHARED_MEMO[key] = shared
    return shared


def _shared_cols(shared: _SharedLower) -> _Cols:
    """Derived shape columns, computed once per layer table.  Only
    valid for specs :func:`_screen_spec` passes -- the screen proves no
    product can reach any overflow limit, so plain int64 arithmetic is
    exact here."""
    cols = shared.cols
    if cols is not None:
        return cols
    ints = shared.ints
    d = _Cols()
    d.c = ints[:, 0]
    d.k = ints[:, 1]
    d.r = ints[:, 2]
    d.s = ints[:, 3]
    d.h = ints[:, 4]
    d.w = ints[:, 5]
    d.stride = ints[:, 6]
    d.groups = ints[:, 7]
    d.batch = ints[:, 8]
    d.e = (d.h - d.r) // d.stride + 1
    d.f = (d.w - d.s) // d.stride + 1
    c_per_group = d.c // d.groups
    ef = (d.batch * d.e) * d.f
    d.macs = ((ef * d.k) * d.r) * (d.s * c_per_group)
    weight_count = (d.k * d.r) * (d.s * c_per_group)
    d.wbytes = (weight_count * WEIGHT_BITS) // 8
    ifmap_count = (d.batch * d.h) * (d.w * d.c)
    d.ibytes = (ifmap_count * ACTIVATION_BITS) // 8
    d.ocount = ef * d.k
    d.obytes = (d.ocount * ACTIVATION_BITS) // 8
    d.psum_el = PSUM_BITS // 8
    shared.cols = d
    return d


#: The spec-independent slots `_shared_cols` fills (everything later
#: stages only read; the mapping/traffic slots are written per call).
_DIM_SLOTS = (
    "c", "k", "r", "s", "h", "w", "stride", "groups", "batch",
    "e", "f", "macs", "wbytes", "ibytes", "obytes", "ocount", "psum_el",
)


def _copy_cols(source: _Cols) -> _Cols:
    """Fresh column bag sharing the (immutable) dimension arrays.

    The memoized bag must never observe the mapping/traffic fields a
    caller writes, so every evaluation gets its own attribute
    namespace over the same array objects.
    """
    d = _Cols()
    for name in _DIM_SLOTS:
        setattr(d, name, getattr(source, name))
    return d


def _screen_spec(spec: AcceleratorSpec, sh: _SharedLower) -> bool:
    """Prove that no lane of this batch can overflow any check.

    Every integer the kernel multiplies is a product of same-lane
    factors from {batch, e<=h, f<=w, c_per_group<=c, k, r, s, byte
    widths, spec mapping parameters}, so per-lane worst-case bound
    columns -- computed in float64 with :data:`_SCREEN_MARGIN`
    absorbing the rounding -- dominate every product of that lane.
    When every bound maximum sits below its limit the machine's row is
    exact; otherwise the machine runs on the scalar simulator.
    """
    if sh.ints_max >= _EXACT_INT:
        return False
    limit = _EXACT_INT * _SCREEN_MARGIN
    if 8.0 * sh.d_max >= limit:
        return False
    p = spec.mapping_parameters()
    total_pes = p.chiplets * p.pes_per_chiplet
    # active_pe_cycles = pes_active * cycles vs the cast limit.
    if total_pes * sh.d_max >= _CAST_LIMIT * _SCREEN_MARGIN:
        return False
    dataflow = spec.dataflow
    if dataflow is DataflowKind.SPACX_OS:
        # mapping: k_parallel <= k_group*n_chiplet_groups*k1_intra and
        # k_group*k1_intra, with k1_intra <= ef_group <= chiplets.
        if total_pes * p.chiplets >= limit:
            return False
        # traffic: receives = bytes * refetch * sharers per side;
        # the ifmap per_sweep gains at most the r*s halo factor and
        # refetches at most k_waves <= k times to k_group sharers.
        wrec = sh.wb_max * p.ef_group  # w_refetch = 1
        irec = sh.d_max * p.k_group
        return max(wrec, irec) < limit
    if dataflow is DataflowKind.WEIGHT_STATIONARY:
        # w_refetch <= ceil(weight_bytes_per_pe / pe_buffer_bytes),
        # i_refetch <= k_per_chiplet <= k, sharers/fanout = ch_active.
        wtrans = float((sh.wb * (sh.wb / p.pe_buffer_bytes + 1.0)).max())
        irec = sh.ibk_max * p.chiplets
        psum = sh.bhwk_max * p.pes_per_chiplet * (PSUM_BITS // 8)
        return max(wtrans, irec, psum) < limit
    # OUTPUT_STATIONARY_EF: w_refetch = ef_waves =
    # ceil(b*e*f / total_pes) and w_sharers <= ef_active <= total_pes;
    # the ifmap stream totals at most 2*b*e*f*r*s*c fresh+row-start
    # bytes (i_refetch = i_sharers = 1).
    wrec = float((sh.wb * (sh.bhw / total_pes + 1.0)).max()) * total_pes
    itot = 2.0 * sh.ibrs_max
    return max(wrec, itot) < limit


def _ceil_div(a, b):
    return -(-a // b)


def _close_lanes(observed, expected, rel_tol):
    """Vector mirror of ``invariants._close`` (math.isclose formula)."""
    either_inf = np.isinf(observed) | np.isinf(expected)
    agree = np.abs(observed - expected) <= np.maximum(
        rel_tol * np.maximum(np.abs(observed), np.abs(expected)), 1e-18
    )
    return np.where(either_inf, observed == expected, agree)


class _Cols:
    """Attribute bag for the batch's column arrays."""

    __slots__ = (
        # layer dims
        "c", "k", "r", "s", "h", "w", "stride", "groups", "batch",
        "e", "f", "macs", "wbytes", "ibytes", "obytes", "ocount", "psum_el",
        # mapping
        "cycles", "ch_active", "pe_active_per_chiplet", "ef_waves", "k_waves",
        "w_sharers", "i_sharers", "w_fanout", "i_fanout",
        "w_refetch", "i_refetch", "c_chunks", "psum_fanin", "pe_forwarding",
        # traffic
        "gw", "gi", "pw", "pi", "cw", "ci", "out", "psum", "dread", "dwrite",
        "gb_send", "pe_receive",
    )


_DIM_GET = attrgetter("c", "k", "r", "s", "h", "w", "stride", "groups", "batch")


# ----------------------------------------------------------------------
# Mapping (vector mirrors of repro.core.mapping's three mappers)
# ----------------------------------------------------------------------
def _map_lanes(spec, d: _Cols) -> None:
    p = spec.mapping_parameters()
    c_per_group = d.c // d.groups
    ef_total = (d.batch * d.e) * d.f

    if spec.dataflow is DataflowKind.SPACX_OS:
        ef_parallel = p.ef_group * p.n_pe_groups
        k_parallel0 = p.k_group * p.n_chiplet_groups
        ef_active = np.minimum(ef_total, ef_parallel)
        chiplets_per_group_used = np.minimum(p.ef_group, ef_active)
        k1_intra = np.minimum(
            p.ef_group // chiplets_per_group_used,
            _ceil_div(d.k, k_parallel0),
        )
        k1_intra = np.maximum(1, k1_intra)
        k_parallel = k_parallel0 * k1_intra
        d.ef_waves = _ceil_div(ef_total, ef_parallel)
        d.k_waves = _ceil_div(d.k, k_parallel)
        k_active = np.minimum(d.k, k_parallel)
        cycles_per_wave = (d.r * d.s) * _ceil_div(
            c_per_group, p.mac_vector_width
        )
        d.cycles = (d.ef_waves * d.k_waves) * cycles_per_wave
        d.ch_active = np.minimum(
            p.chiplets,
            (chiplets_per_group_used * k1_intra)
            * np.minimum(
                p.n_chiplet_groups,
                _ceil_div(k_active, p.k_group * k1_intra),
            ),
        )
        d.pe_active_per_chiplet = np.minimum(
            p.pes_per_chiplet,
            np.minimum(p.k_group, k_active)
            * np.minimum(p.n_pe_groups, _ceil_div(ef_active, p.ef_group)),
        )
        w_sharers = chiplets_per_group_used
        d.w_sharers = np.maximum(1, w_sharers)
        d.i_sharers = np.maximum(1, np.minimum(p.k_group, k_active))
        slice_bytes = (d.r * d.s) * c_per_group
        d.c_chunks = np.maximum(1, _ceil_div(slice_bytes, p.pe_buffer_bytes // 2))
        d.w_refetch = 1
        d.i_refetch = np.maximum(1, _ceil_div(d.k_waves, d.groups))
        d.w_fanout = np.maximum(1, w_sharers)
        d.i_fanout = 1
        d.psum_fanin = 1
        d.pe_forwarding = False
        return

    if spec.dataflow is DataflowKind.WEIGHT_STATIONARY:
        d.ch_active = np.minimum(p.chiplets, d.k)
        k_per_chiplet = _ceil_div(d.k, d.ch_active)
        c_slices = _ceil_div(c_per_group, p.mac_vector_width)
        pes_for_c = np.minimum(p.pes_per_chiplet, c_slices)
        pes_for_k = np.minimum(p.pes_per_chiplet // pes_for_c, k_per_chiplet)
        pes_for_ef = np.minimum(
            np.maximum(1, p.pes_per_chiplet // (pes_for_c * pes_for_k)),
            ef_total,
        )
        d.pe_active_per_chiplet = pes_for_c * pes_for_k * pes_for_ef
        c_slices_per_pe = _ceil_div(c_slices, pes_for_c)
        d.ef_waves = _ceil_div(ef_total, pes_for_ef)
        d.k_waves = _ceil_div(k_per_chiplet, pes_for_k)
        d.cycles = (((d.k_waves * d.ef_waves) * d.r) * d.s) * c_slices_per_pe
        weight_bytes_per_pe = _ceil_div(
            ((k_per_chiplet * d.r) * d.s) * c_per_group,
            d.pe_active_per_chiplet,
        )
        d.w_refetch = np.where(
            weight_bytes_per_pe <= p.pe_buffer_bytes,
            1,
            _ceil_div(weight_bytes_per_pe, p.pe_buffer_bytes),
        )
        ifmap_bytes_per_pe = (d.h * d.w) * _ceil_div(d.c, pes_for_c)
        d.i_refetch = np.where(
            ifmap_bytes_per_pe <= p.pe_buffer_bytes,
            1,
            _ceil_div(k_per_chiplet, pes_for_k),
        )
        d.w_sharers = 1
        d.i_sharers = d.ch_active
        d.w_fanout = 1
        d.i_fanout = d.ch_active
        d.c_chunks = 1
        d.psum_fanin = pes_for_c
        d.pe_forwarding = False
        return

    # OUTPUT_STATIONARY_EF
    total_pes = p.total_pes
    ef_active = np.minimum(ef_total, total_pes)
    d.ef_waves = _ceil_div(ef_total, total_pes)
    k_spread = np.maximum(1, np.minimum(d.k, total_pes // ef_active))
    d.k_waves = _ceil_div(d.k, k_spread)
    pes_used = np.minimum(total_pes, ef_active * k_spread)
    d.ch_active = np.minimum(p.chiplets, _ceil_div(pes_used, p.pes_per_chiplet))
    d.pe_active_per_chiplet = np.minimum(p.pes_per_chiplet, pes_used)
    cycles_per_wave = (d.r * d.s) * _ceil_div(c_per_group, p.mac_vector_width)
    d.cycles = (d.ef_waves * d.k_waves) * cycles_per_wave
    d.w_sharers = np.maximum(1, ef_active)
    d.i_sharers = 1
    slice_bytes = (d.r * d.s) * c_per_group
    d.c_chunks = np.maximum(1, _ceil_div(slice_bytes, p.pe_buffer_bytes // 2))
    d.w_refetch = d.ef_waves
    d.i_refetch = 1
    d.w_fanout = d.ch_active
    d.i_fanout = 1
    d.psum_fanin = 1
    d.pe_forwarding = True


# ----------------------------------------------------------------------
# Traffic (vector mirror of repro.core.traffic.derive_traffic)
# ----------------------------------------------------------------------
def _traffic_lanes(spec, d: _Cols, layer_by_layer: bool) -> None:
    caps = spec.capabilities

    weight_transmissions = d.wbytes * d.w_refetch
    weight_receives = weight_transmissions * d.w_sharers
    d.gw = weight_transmissions if caps.weight_broadcast else weight_receives

    if spec.dataflow is DataflowKind.WEIGHT_STATIONARY:
        ifmap_transmissions = d.ibytes * d.i_refetch
        ifmap_receives = ifmap_transmissions * d.i_sharers
        d.gi = ifmap_transmissions if caps.ifmap_broadcast else ifmap_receives
    elif spec.dataflow is DataflowKind.SPACX_OS:
        if caps.ifmap_reuse_multicast:
            per_sweep = d.ibytes
        else:
            # _halo_duplication, then int(ifmap_bytes * factor): the
            # float product of an exact byte count and the factor,
            # truncated toward zero exactly as Python's int() does.
            blocks = np.minimum(d.e, np.maximum(1, d.ch_active))
            rows_per_block = d.e / blocks
            duplication = 1.0 + (d.r - 1) / np.maximum(
                rows_per_block * d.stride, 1.0
            )
            duplication = np.minimum(
                (d.r * d.s).astype(np.float64), duplication
            )
            duplication = np.where(d.r <= 1, 1.0, duplication)
            per_sweep_f = d.ibytes.astype(np.float64) * duplication
            per_sweep = per_sweep_f.astype(np.int64)
        ifmap_transmissions = per_sweep * d.i_refetch
        ifmap_receives = ifmap_transmissions * d.i_sharers
        d.gi = ifmap_transmissions
    else:
        # OS(e/f): _ifmap_stream_bytes
        fresh_cols = np.minimum(d.s, d.stride)
        per_position = (d.r * fresh_cols) * d.c
        row_starts = ((d.e * d.r) * np.maximum(0, d.s - fresh_cols)) * d.c
        total = d.batch * ((d.e * d.f) * per_position + row_starts)
        per_sweep = np.maximum(total, d.ibytes)
        ifmap_transmissions = per_sweep * d.i_refetch
        ifmap_receives = ifmap_transmissions * d.i_sharers
        d.gi = ifmap_receives

    d.pw = weight_receives
    d.pi = ifmap_receives
    d.cw = weight_transmissions * d.w_fanout
    d.ci = ifmap_transmissions * d.i_fanout
    d.out = d.obytes
    psum_traffic = (d.ocount * np.maximum(0, d.psum_fanin - 1)) * d.psum_el
    d.psum = np.where(d.psum_fanin > 1, psum_traffic, 0)

    gb_half = spec.gb_bytes // 2
    ifmap_fits_gb = d.ibytes <= gb_half
    spill = d.ibytes * np.where(ifmap_fits_gb, 1, d.i_refetch)
    if layer_by_layer:
        d.dread = d.wbytes + spill
        d.dwrite = d.obytes
    else:
        d.dread = d.wbytes + np.where(ifmap_fits_gb, 0, spill)
        d.dwrite = np.where(d.obytes > gb_half, d.obytes, 0)

    d.gb_send = d.gw + d.gi
    d.pe_receive = d.pw + d.pi


# ----------------------------------------------------------------------
# The one-machine entry
# ----------------------------------------------------------------------
def simulate_layers_vectorized(
    simulator: Simulator,
    layers: "Sequence[ConvLayer]",
    *,
    layer_by_layer: bool = False,
    on_fallback: "Callable[[str], None] | None" = None,
) -> "list[LayerResult]":
    """Batch-evaluate ``simulator.simulate_layer`` over ``layers``.

    The one-machine entry of the kernel: every lane
    :func:`~repro.core.grid.lane_covered` accepts runs as one row of
    :func:`~repro.core.grid.evaluate_grid`.  The other lanes, and every
    lane of a machine the grid declines, run on the scalar simulator;
    ``on_fallback(reason)`` hears why a machine was declined.  Returns
    one result per input layer, bit-identical to the scalar path
    either way.
    """
    from . import batch, grid

    layers = list(layers)
    sieve = [grid.lane_covered(layer) for layer in layers]
    covered: dict = {}
    for layer, ok in zip(layers, sieve):
        if ok:
            covered.setdefault(layer.shape_key, layer)
    row: dict = {}
    if covered:
        outcome = grid.evaluate_grid(
            [simulator], list(covered.values()), layer_by_layer=layer_by_layer
        )
        if outcome.by_machine[0] is not None:
            row = outcome.by_machine[0]
        elif on_fallback is not None:
            on_fallback(outcome.reasons[0])
    out = []
    for layer, ok in zip(layers, sieve):
        lane = row.get(layer.shape_key) if ok else None
        if lane is None:
            lane = simulator.simulate_layer(layer, layer_by_layer=layer_by_layer)
        elif lane.layer is not layer:
            # A second layer of the same shape: same lane, its own name.
            lane = batch._rebind_layer(lane, layer)
        out.append(lane)
    return out
