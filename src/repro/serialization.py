"""Result serialization to plain dictionaries / JSON.

Downstream tooling (plotting notebooks, CI dashboards) wants results
as data, not Python objects.  Two families live here:

* the *reporting* converters (``layer_result_to_dict`` etc.) flatten
  results into JSON-compatible dictionaries with stable keys and
  derived quantities mixed in;
* the *block* encoding (:func:`pack_block` / :func:`unpack_block`)
  losslessly serialises many :class:`LayerResult` objects as columns
  for one record of the sweep engine's on-disk result cache
  (:mod:`repro.core.batch`).  Field orders are enumerated via
  :mod:`dataclasses`, so they stay exhaustive as the dataclasses grow,
  and the float scalars of a block travel as one IEEE-754 blob, so
  every float round-trips bit-exactly.
"""

from __future__ import annotations

import dataclasses
import json
import operator
import struct
from itertools import chain
from typing import Any, Sequence

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
    "BLOCK_COLUMNS",
    "pack_block",
    "unpack_block",
    "ResultBlock",
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
# Block (columnar) disk-cache encoding
# ----------------------------------------------------------------------
#: Field annotations that name a plain type a stored value must hold
#: exactly (so an ``int`` field takes no ``bool``).
_PLAIN_TYPES = {"int": int, "str": str, "bool": bool}


def _split(cls: type, nested: tuple[str, ...] = ()) -> tuple:
    """``(plain names, their types, float names)`` of ``cls``'s fields.

    Every other field must be one of ``nested`` (a part rebuilt on its
    own), so a field added to a result dataclass cannot be dropped from
    the block silently.
    """
    plain: list[str] = []
    types: list[type] = []
    floats: list[str] = []
    for f in dataclasses.fields(cls):
        kind = getattr(f.type, "__name__", f.type)
        if kind == "float":
            floats.append(f.name)
        elif kind in _PLAIN_TYPES:
            plain.append(f.name)
            types.append(_PLAIN_TYPES[kind])
        elif f.name not in nested:
            raise TypeError(f"{cls.__name__}.{f.name} has no block column")
    return tuple(plain), types, tuple(floats)


_LR_PLAIN, _LR_TYPES, _LR_FLOATS = _split(
    LayerResult, ("layer", "mapping", "traffic", "energy")
)
_LAYER_PLAIN, _LAYER_TYPES, _layer_floats = _split(ConvLayer)
_MAPPING_PLAIN, _MAPPING_TYPES, _mapping_floats = _split(
    Mapping, ("layer", "dataflow")
)
_TRAFFIC_PLAIN, _TRAFFIC_TYPES, _traffic_floats = _split(TrafficSummary)
_energy_plain, _, _ENERGY_FLOATS = _split(EnergyBreakdown, ("network",))
_network_plain, _, _NETWORK_FLOATS = _split(NetworkEnergy)
# Rows are assembled part by part below: a layer, a mapping or a
# traffic summary holds no float, an energy split nothing else.
if (
    _layer_floats + _mapping_floats + _traffic_floats
    + _energy_plain + _network_plain
):
    raise TypeError("a result part mixes plain and float fields")

#: A block's plain columns, in order: the result's, its layer's, its
#: mapping's (less its layer and dataflow) and its traffic's.
_PLAIN_PATHS = (
    *_LR_PLAIN,
    *(f"layer.{name}" for name in _LAYER_PLAIN),
    *(f"mapping.{name}" for name in _MAPPING_PLAIN),
    *(f"traffic.{name}" for name in _TRAFFIC_PLAIN),
)
_COLUMN_TYPES = _LR_TYPES + _LAYER_TYPES + _MAPPING_TYPES + _TRAFFIC_TYPES
_N_PLAIN = len(_COLUMN_TYPES)

#: The name of each column :func:`pack_block` returns, in order.
BLOCK_COLUMNS = _PLAIN_PATHS + (
    "mapping.dataflow",
    "mapping.layer",
    "floats",
    "float_exceptions",
)
_N_COLUMNS = len(BLOCK_COLUMNS)

#: Each part's slice of a row of plain values.
_LR_COLUMNS = slice(0, len(_LR_PLAIN))
_LAYER_COLUMNS = slice(_LR_COLUMNS.stop, _LR_COLUMNS.stop + len(_LAYER_PLAIN))
_MAPPING_COLUMNS = slice(
    _LAYER_COLUMNS.stop, _LAYER_COLUMNS.stop + len(_MAPPING_PLAIN)
)
_TRAFFIC_COLUMNS = slice(_MAPPING_COLUMNS.stop, _N_PLAIN)

#: A result's float scalars, in blob order: the result's, its energy
#: breakdown's and its network split's.
_FLOAT_PATHS = (
    *_LR_FLOATS,
    *(f"energy.{name}" for name in _ENERGY_FLOATS),
    *(f"energy.network.{name}" for name in _NETWORK_FLOATS),
)
_floats_of = operator.attrgetter(*_FLOAT_PATHS)
_N_FLOATS = len(_FLOAT_PATHS)
_FLOAT_ROW = struct.Struct(f"<{_N_FLOATS}d")
_LR_FLOAT_SLICE = slice(0, len(_LR_FLOATS))
_ENERGY_FLOAT_SLICE = slice(
    _LR_FLOAT_SLICE.stop, _LR_FLOAT_SLICE.stop + len(_ENERGY_FLOATS)
)
_NETWORK_FLOAT_SLICE = slice(_ENERGY_FLOAT_SLICE.stop, _N_FLOATS)

#: A row of a block's leading columns: its plain values, then its
#: dataflow's value (``_value_``: the enum's ``value`` is a property,
#: several times slower to read).
_row_of = operator.attrgetter(*_PLAIN_PATHS, "mapping.dataflow._value_")
_layers_of = operator.attrgetter("layer", "mapping.layer")
_layer_plain_of = operator.attrgetter(*_LAYER_PLAIN)

#: Enum lookup by value -- ``DataflowKind(value)`` walks the enum
#: machinery on every call; a dict hit is ~10x cheaper and raises
#: ``KeyError`` on junk.
_DATAFLOW_BY_VALUE = {kind.value: kind for kind in DataflowKind}


def pack_block(results: Sequence[LayerResult]) -> list[Any]:
    """Encode results as the columns of one disk-cache block.

    Returns ``[*plain columns, dataflows, mapping layers, float blob,
    exceptions]``, ready for ``json.dumps``:

    * each plain (int/str/bool) field of the result, its layer, its
      mapping and its traffic is one column holding that field of
      every result;
    * the dataflows go by value;
    * a mapping's layer is ``None`` when it equals the result's own
      layer (the common case), else its layer's plain fields;
    * every float scalar of the block is in one little-endian IEEE-754
      hex blob, ``len(results)`` rows of the canonical float order, so
      every float round-trips bit-exactly;
    * a value in a float slot that is not a ``float`` (an int zero, say)
      is listed in the flat ``[index, value, ...]`` exceptions over the
      blob, so its type round-trips too.
    """
    # The plain columns and the dataflows: one C-level transpose.
    rows = list(map(_row_of, results))
    columns: list[Any] = list(zip(*rows)) if rows else [()] * (_N_PLAIN + 1)
    columns.append(
        [
            None
            if mapping_layer is layer or mapping_layer == layer
            else _layer_plain_of(mapping_layer)
            for layer, mapping_layer in map(_layers_of, results)
        ]
    )
    floats = list(chain.from_iterable(map(_floats_of, results)))
    exceptions: list[Any] = []
    if not set(map(type, floats)) <= {float}:
        for index, value in enumerate(floats):
            if type(value) is not float:
                exceptions += (index, value)
    columns += (struct.pack(f"<{len(floats)}d", *floats).hex(), exceptions)
    return columns


def unpack_block(columns: Any, rows: int) -> "ResultBlock":
    """Check one block's columns (from :func:`pack_block`, through JSON)
    and return its :class:`ResultBlock`.

    Every column is checked once, here: a wrong column count or length,
    a plain value that is not exactly its field's type (an ``int``
    count holding a ``bool``, a ``float`` or a string, say), an unknown
    dataflow, a malformed mapping layer, a blob that is not hex of
    ``rows`` float rows, or exceptions that are not ``[index, value,
    ...]`` pairs over the blob with ``int`` or ``float`` values all
    raise :class:`ValueError`, which rejects the whole block.
    """
    if type(columns) is not list or len(columns) != _N_COLUMNS:
        raise ValueError("bad block: wrong column count")
    plain = columns[:_N_PLAIN]
    dataflows, mapping_layers, blob, exceptions = columns[_N_PLAIN:]
    for column, expected in zip(plain, _COLUMN_TYPES):
        if (
            type(column) is not list
            or len(column) != rows
            or not set(map(type, column)) <= {expected}
        ):
            raise ValueError("bad field types in a block column")
    if type(dataflows) is not list or len(dataflows) != rows:
        raise ValueError("bad dataflow column")
    try:
        dataflows = list(map(_DATAFLOW_BY_VALUE.__getitem__, dataflows))
    except (KeyError, TypeError):
        raise ValueError("bad dataflow column") from None
    if (
        type(mapping_layers) is not list
        or len(mapping_layers) != rows
        or not all(
            layer is None
            or (type(layer) is list and list(map(type, layer)) == _LAYER_TYPES)
            for layer in mapping_layers
        )
    ):
        raise ValueError("bad mapping layer column")
    try:
        floats = bytes.fromhex(blob)
    except (TypeError, ValueError):
        raise ValueError("bad float blob") from None
    if len(floats) != rows * _FLOAT_ROW.size:
        raise ValueError("bad float blob: wrong length")
    if type(exceptions) is not list:
        raise ValueError(f"bad float exceptions: {exceptions!r}")
    fixes: dict[int, list] = {}
    if exceptions:
        # ``[index, value, ...]`` pairs over the blob's floats: anything
        # else (odd length, an index out of range or not an int) would
        # raise IndexError or overwrite the wrong slot.
        indexes = exceptions[::2]
        values = exceptions[1::2]
        if (
            len(exceptions) % 2
            or not all(
                type(i) is int and 0 <= i < rows * _N_FLOATS for i in indexes
            )
            or not all(type(v) is int or type(v) is float for v in values)
        ):
            raise ValueError(f"bad float exceptions: {exceptions!r}")
        for index, value in zip(indexes, values):
            row, slot = divmod(index, _N_FLOATS)
            fixes.setdefault(row, []).append((slot, value))
    return ResultBlock(
        list(zip(*plain)), dataflows, mapping_layers, floats, fixes
    )


class ResultBlock:
    """One checked disk-cache block: :meth:`result` builds a row's
    :class:`LayerResult` when it is asked for.

    The floats stay in their packed bytes (one ``struct`` unpack per
    built row), and the plain values as one tuple per row.  Building
    populates each dataclass ``__dict__`` straight from the checked
    values -- no keyword binding, no ``__post_init__`` re-validation
    (the values already passed it when the entry was written).
    """

    __slots__ = ("_rows", "_dataflows", "_mapping_layers", "_floats", "_fixes")

    def __init__(self, rows, dataflows, mapping_layers, floats, fixes):
        self._rows = rows
        self._dataflows = dataflows
        self._mapping_layers = mapping_layers
        self._floats = floats
        self._fixes = fixes

    def result(self, row: int) -> LayerResult:
        """A new :class:`LayerResult` equal, bit for bit, to the one
        packed at ``row``."""
        plain = self._rows[row]
        floats: tuple | list = _FLOAT_ROW.unpack_from(
            self._floats, row * _FLOAT_ROW.size
        )
        fixes = self._fixes.get(row)
        if fixes:
            floats = list(floats)
            for slot, value in fixes:
                floats[slot] = value
        new = object.__new__

        layer = new(ConvLayer)
        layer.__dict__.update(zip(_LAYER_PLAIN, plain[_LAYER_COLUMNS]))
        packed_layer = self._mapping_layers[row]
        if packed_layer is None:
            mapping_layer = layer
        else:
            mapping_layer = new(ConvLayer)
            mapping_layer.__dict__.update(zip(_LAYER_PLAIN, packed_layer))
        mapping = new(Mapping)
        state = mapping.__dict__
        state["layer"] = mapping_layer
        state["dataflow"] = self._dataflows[row]
        state.update(zip(_MAPPING_PLAIN, plain[_MAPPING_COLUMNS]))
        traffic = new(TrafficSummary)
        traffic.__dict__.update(zip(_TRAFFIC_PLAIN, plain[_TRAFFIC_COLUMNS]))
        network = new(NetworkEnergy)
        network.__dict__.update(
            zip(_NETWORK_FLOATS, floats[_NETWORK_FLOAT_SLICE])
        )
        energy = new(EnergyBreakdown)
        state = energy.__dict__
        state.update(zip(_ENERGY_FLOATS, floats[_ENERGY_FLOAT_SLICE]))
        state["network"] = network

        result = new(LayerResult)
        state = result.__dict__
        state.update(zip(_LR_PLAIN, plain[_LR_COLUMNS]))
        state["layer"] = layer
        state["mapping"] = mapping
        state["traffic"] = traffic
        state.update(zip(_LR_FLOATS, floats[_LR_FLOAT_SLICE]))
        state["energy"] = energy
        return result
