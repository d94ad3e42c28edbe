"""Result serialization to plain dictionaries / JSON.

Downstream tooling (plotting notebooks, CI dashboards) wants results
as data, not Python objects.  Two families live here:

* the *reporting* converters (``layer_result_to_dict`` etc.) flatten
  results into JSON-compatible dictionaries with stable keys and
  derived quantities mixed in;
* the *packed* encoding (``layer_result_pack`` /
  ``layer_result_unpack``) losslessly serialises a
  :class:`LayerResult` as a positional array for the sweep engine's
  on-disk result cache (:mod:`repro.core.batch`).  Field orders are
  enumerated via :mod:`dataclasses`, so they stay exhaustive as the
  dataclasses grow, and the float scalars travel as one IEEE-754
  blob, so every float round-trips bit-exactly.
"""

from __future__ import annotations

import dataclasses
import json
import operator
import struct
from itertools import chain
from typing import Any

from .core.dataflow import DataflowKind
from .core.layer import ConvLayer
from .core.mapping import Mapping
from .core.metrics import EnergyBreakdown, LayerResult, ModelResult, NetworkEnergy
from .core.traffic import TrafficSummary

__all__ = [
    "network_energy_to_dict",
    "energy_to_dict",
    "layer_result_to_dict",
    "model_result_to_dict",
    "model_result_to_json",
    "layer_result_pack",
    "layer_result_unpack",
]


def network_energy_to_dict(network: NetworkEnergy) -> dict[str, float]:
    """Flatten a network-energy split."""
    return {
        "eo_mj": network.eo_mj,
        "oe_mj": network.oe_mj,
        "heating_mj": network.heating_mj,
        "laser_mj": network.laser_mj,
        "electrical_mj": network.electrical_mj,
        "total_mj": network.total_mj,
    }


def energy_to_dict(energy: EnergyBreakdown) -> dict[str, Any]:
    """Flatten a full energy breakdown."""
    return {
        "mac_mj": energy.mac_mj,
        "pe_buffer_mj": energy.pe_buffer_mj,
        "gb_mj": energy.gb_mj,
        "dram_mj": energy.dram_mj,
        "other_mj": energy.other_mj,
        "network": network_energy_to_dict(energy.network),
        "total_mj": energy.total_mj,
    }


def layer_result_to_dict(result: LayerResult) -> dict[str, Any]:
    """Flatten one layer's simulation outcome."""
    layer = result.layer
    mapping = result.mapping
    traffic = result.traffic
    return {
        "accelerator": result.accelerator,
        "layer": {
            "name": layer.name,
            "c": layer.c,
            "k": layer.k,
            "r": layer.r,
            "s": layer.s,
            "h": layer.h,
            "w": layer.w,
            "stride": layer.stride,
            "groups": layer.groups,
            "batch": layer.batch,
            "macs": layer.macs,
        },
        "mapping": {
            "dataflow": mapping.dataflow.value,
            "compute_cycles": mapping.compute_cycles,
            "chiplets_active": mapping.chiplets_active,
            "pes_active": mapping.pes_active,
            "ef_waves": mapping.ef_waves,
            "k_waves": mapping.k_waves,
            "weight_sharers": mapping.weight_sharers,
            "ifmap_sharers": mapping.ifmap_sharers,
        },
        "traffic": {
            "gb_weight_send_bytes": traffic.gb_weight_send_bytes,
            "gb_ifmap_send_bytes": traffic.gb_ifmap_send_bytes,
            "pe_receive_bytes": traffic.pe_receive_bytes,
            "output_bytes": traffic.output_bytes,
            "psum_bytes": traffic.psum_bytes,
            "dram_read_bytes": traffic.dram_read_bytes,
            "dram_write_bytes": traffic.dram_write_bytes,
        },
        "timing": {
            "execution_time_s": result.execution_time_s,
            "computation_time_s": result.computation_time_s,
            "communication_time_s": result.communication_time_s,
            "exposed_communication_s": result.exposed_communication_s,
            "packet_latency_s": result.packet_latency_s,
        },
        "energy": energy_to_dict(result.energy),
    }


def model_result_to_dict(result: ModelResult) -> dict[str, Any]:
    """Flatten a whole-model simulation, deduplicating shared layers."""
    seen: dict[int, int] = {}
    unique_layers = []
    layer_indices = []
    for layer_result in result.layers:
        key = id(layer_result)
        if key not in seen:
            seen[key] = len(unique_layers)
            unique_layers.append(layer_result_to_dict(layer_result))
        layer_indices.append(seen[key])
    return {
        "accelerator": result.accelerator,
        "model": result.model,
        "execution_time_s": result.execution_time_s,
        "computation_time_s": result.computation_time_s,
        "exposed_communication_s": result.exposed_communication_s,
        "energy": energy_to_dict(result.energy),
        "mean_packet_latency_s": result.mean_packet_latency_s,
        "throughput_gbps": result.throughput_gbps,
        "unique_layer_results": unique_layers,
        "layer_sequence": layer_indices,
    }


def model_result_to_json(result: ModelResult, indent: int | None = 2) -> str:
    """Serialise a whole-model simulation to a JSON string."""
    return json.dumps(model_result_to_dict(result), indent=indent)


# ----------------------------------------------------------------------
# Packed (positional) disk-cache encoding
# ----------------------------------------------------------------------
#: Canonical field order of the packed encoding, per dataclass.
_PACK_ORDER: dict[type, tuple[str, ...]] = {
    cls: tuple(f.name for f in dataclasses.fields(cls))
    for cls in (
        ConvLayer,
        Mapping,
        TrafficSummary,
        NetworkEnergy,
        EnergyBreakdown,
        LayerResult,
    )
}

#: The energy breakdown's scalar fields (its ``network`` split is
#: packed field by field through ``_PACK_ORDER``).
_ENERGY_SCALAR_FIELDS = tuple(
    f.name for f in dataclasses.fields(EnergyBreakdown) if f.name != "network"
)

# The float-typed scalars of a result, in canonical order.  They are
# packed as one IEEE-754 hex blob per entry: ``bytes.fromhex`` +
# ``struct.unpack`` run at C speed, whereas JSON float parsing is the
# single hottest item of a warm cache start -- and the binary image
# is bit-exact by construction instead of by shortest-repr argument.
_LR_FLOAT_ORDER = tuple(
    f.name
    for f in dataclasses.fields(LayerResult)
    if f.type in (float, "float")
)
_LR_OTHER_ORDER = tuple(
    f.name
    for f in dataclasses.fields(LayerResult)
    if f.name not in _LR_FLOAT_ORDER
    and f.name not in ("layer", "mapping", "traffic", "energy")
)
_FLOAT_ORDER = (
    _LR_FLOAT_ORDER + _ENERGY_SCALAR_FIELDS + _PACK_ORDER[NetworkEnergy]
)
_FLOAT_STRUCT = struct.Struct(f"<{len(_FLOAT_ORDER)}d")


#: Slices of the combined float vector, per owning dataclass.
_N_LR_FLOATS = len(_LR_FLOAT_ORDER)
_N_EB_FLOATS = len(_ENERGY_SCALAR_FIELDS)
_N_FLOATS = len(_FLOAT_ORDER)

#: Hot-path aliases of the per-class orders (module-global loads are
#: cheaper than a dict subscript per unpacked object).
_LAYER_ORDER = _PACK_ORDER[ConvLayer]
_MAPPING_ORDER = _PACK_ORDER[Mapping]
_TRAFFIC_ORDER = _PACK_ORDER[TrafficSummary]
_NETWORK_ORDER = _PACK_ORDER[NetworkEnergy]

#: Field annotations that name a plain type a packed value must hold
#: exactly (so an ``int`` field takes no ``bool``).
_FIELD_TYPES = {"int": int, "str": str, "bool": bool}


def _field_types(cls: type, names: tuple[str, ...]) -> list:
    """The type each of ``names`` must hold, from ``cls``'s annotations
    (``None`` for a field rebuilt from its own packed form)."""
    annotations = {f.name: f.type for f in dataclasses.fields(cls)}
    return [
        _FIELD_TYPES.get(getattr(annotations[name], "__name__", annotations[name]))
        for name in names
    ]


_LAYER_TYPES = _field_types(ConvLayer, _LAYER_ORDER)
_mapping_types = _field_types(Mapping, _MAPPING_ORDER)
#: Picks the mapping's plain fields (its layer and dataflow are
#: rebuilt and looked up instead).
_MAPPING_PLAIN = operator.itemgetter(
    *(i for i, expected in enumerate(_mapping_types) if expected)
)
#: A record's plain fields in the order :func:`layer_result_unpack`
#: checks them: the result's, the layer's, the mapping's, the traffic's.
_RECORD_TYPES = (
    _field_types(LayerResult, _LR_OTHER_ORDER)
    + _LAYER_TYPES
    + [expected for expected in _mapping_types if expected]
    + _field_types(TrafficSummary, _TRAFFIC_ORDER)
)

#: Enum lookup by value -- ``DataflowKind(value)`` walks the enum
#: machinery (and an import-system hook for the error message) on
#: every call; a dict hit is ~10x cheaper and raises ``KeyError`` on
#: junk, which the disk tier already maps to a cache miss.
_DATAFLOW_BY_VALUE = {kind.value: kind for kind in DataflowKind}


def layer_result_pack(result: LayerResult) -> list[Any]:
    """Pack a :class:`LayerResult` into a positional JSON array.

    Every constructor field of the result and of the dataclasses it
    holds, laid out for the disk cache's parse speed: field
    *positions* instead of repeated field-name strings, and all float
    scalars collapsed into one IEEE-754 little-endian hex blob
    (canonical ``_FLOAT_ORDER``).
    ``None`` in the mapping's layer slot means "same object as the
    result's layer" (the overwhelmingly common case).  Values in
    float-typed slots that are not actually ``float`` instances (an
    int-typed zero, say) are recorded in a flat ``[index, value, ...]``
    exceptions list so even their *type* round-trips exactly.
    """
    layer = result.layer
    packed_layer = [getattr(layer, name) for name in _PACK_ORDER[ConvLayer]]
    mapping = result.mapping
    packed_mapping: list[Any] = []
    for name in _PACK_ORDER[Mapping]:
        value = getattr(mapping, name)
        if name == "layer":
            value = (
                None
                if value == layer
                else [getattr(value, n) for n in _PACK_ORDER[ConvLayer]]
            )
        elif name == "dataflow":
            value = value.value
        packed_mapping.append(value)
    packed_traffic = [
        getattr(result.traffic, name) for name in _PACK_ORDER[TrafficSummary]
    ]
    energy = result.energy
    floats = [getattr(result, name) for name in _LR_FLOAT_ORDER]
    floats += [getattr(energy, name) for name in _ENERGY_SCALAR_FIELDS]
    floats += [
        getattr(energy.network, name) for name in _PACK_ORDER[NetworkEnergy]
    ]
    exceptions: list[Any] = []
    for index, value in enumerate(floats):
        if type(value) is not float:
            exceptions += (index, value)
    blob = _FLOAT_STRUCT.pack(*floats).hex()
    others = [getattr(result, name) for name in _LR_OTHER_ORDER]
    return [others, packed_layer, packed_mapping, packed_traffic, blob, exceptions]


def layer_result_unpack(data: list[Any]) -> LayerResult:
    """Exactly rebuild a :class:`LayerResult` from its packed form.

    This is the disk cache's hot path (hundreds of calls per warm
    start), so it populates each dataclass ``__dict__`` straight from
    a ``zip`` over the canonical field order -- no keyword binding, no
    intermediate dicts, no ``__post_init__`` re-validation (the values
    already passed it when the entry was written).  Truncated or
    reordered input still fails loudly: ``zip(strict=True)`` raises
    :class:`ValueError`, and so does an exceptions list that is not
    ``[index, value, ...]`` pairs over the float vector with ``int`` or
    ``float`` values, and a plain field whose value is not exactly the
    type its dataclass declares (an ``int`` count holding a ``bool``, a
    ``float`` or a string, say); the dataflow lookup rejects junk with
    :class:`KeyError`, and the disk tier maps any of these to a cache
    miss.
    """
    others, packed_layer, packed_mapping, packed_traffic, blob, exceptions = data
    try:
        floats: tuple | list = _FLOAT_STRUCT.unpack(bytes.fromhex(blob))
    except (struct.error, ValueError, TypeError) as exc:
        raise ValueError(f"bad float blob: {exc}") from None
    if exceptions:
        # ``[index, value, ...]`` pairs over the float vector: anything
        # else (odd length, an index out of range or not an int) would
        # raise IndexError or overwrite the wrong slot.
        indexes = exceptions[::2]
        values = exceptions[1::2]
        if (
            len(exceptions) % 2
            or not all(type(i) is int and 0 <= i < _N_FLOATS for i in indexes)
            or not all(type(v) is int or type(v) is float for v in values)
        ):
            raise ValueError(f"bad float exceptions: {exceptions!r}")
        floats = list(floats)
        for i, value in zip(indexes, values):
            floats[i] = value

    new = object.__new__
    layer_order = _LAYER_ORDER

    result = new(LayerResult)
    state = result.__dict__
    state.update(zip(_LR_OTHER_ORDER, others, strict=True))
    state.update(zip(_LR_FLOAT_ORDER, floats[:_N_LR_FLOATS], strict=True))

    layer = new(ConvLayer)
    layer.__dict__.update(zip(layer_order, packed_layer, strict=True))
    state["layer"] = layer

    mapping = new(Mapping)
    mapping_state = mapping.__dict__
    mapping_state.update(zip(_MAPPING_ORDER, packed_mapping, strict=True))
    mapping_state["dataflow"] = _DATAFLOW_BY_VALUE[mapping_state["dataflow"]]
    packed_mapping_layer = mapping_state["layer"]
    if packed_mapping_layer is None:
        mapping_state["layer"] = layer
    else:
        mapping_layer = new(ConvLayer)
        mapping_layer.__dict__.update(
            zip(layer_order, packed_mapping_layer, strict=True)
        )
        if [type(value) for value in packed_mapping_layer] != _LAYER_TYPES:
            raise ValueError(f"bad mapping layer: {packed_mapping_layer!r}")
        mapping_state["layer"] = mapping_layer
    state["mapping"] = mapping

    traffic = new(TrafficSummary)
    traffic.__dict__.update(zip(_TRAFFIC_ORDER, packed_traffic, strict=True))
    state["traffic"] = traffic
    # Every part's length is checked above, so one comparison over the
    # concatenation checks each plain field's type.
    plain = chain(
        others, packed_layer, _MAPPING_PLAIN(packed_mapping), packed_traffic
    )
    if [type(value) for value in plain] != _RECORD_TYPES:
        raise ValueError("bad field types in a packed result")

    energy = new(EnergyBreakdown)
    energy_state = energy.__dict__
    energy_state.update(
        zip(
            _ENERGY_SCALAR_FIELDS,
            floats[_N_LR_FLOATS : _N_LR_FLOATS + _N_EB_FLOATS],
            strict=True,
        )
    )
    network = new(NetworkEnergy)
    network.__dict__.update(
        zip(
            _NETWORK_ORDER,
            floats[_N_LR_FLOATS + _N_EB_FLOATS :],
            strict=True,
        )
    )
    energy_state["network"] = network
    state["energy"] = energy

    return result
