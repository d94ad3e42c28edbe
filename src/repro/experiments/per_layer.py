"""Figures 13 and 14: per-layer execution time and energy.

The paper charts the 21 distinct ResNet-50 layers (L1-L21) and the 12
distinct VGG-16 layers (L22-L33) executed *layer by layer* (all data
initially in off-chip DRAM), normalised to Simba, with execution time
split into computation/communication and energy into network/other.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.batch import default_cache, simulate_layer_cached
from ..core.layer import ConvLayer, LayerSet
from ..models.zoo import paper_layer_labels
from .harness import AcceleratorTrio, default_trio

__all__ = ["PerLayerRow", "per_layer_comparison", "extended_layer_labels"]


def extended_layer_labels(model: LayerSet) -> dict[str, ConvLayer]:
    """Label a model's distinct layers the way Figs. 13/14 label
    ResNet-50/VGG-16 (the paper omits DenseNet-201/EfficientNet-B7
    per-layer charts; this enables them)."""
    return {
        f"L{i}": layer
        for i, layer in enumerate(model.unique_layers, start=1)
    }


@dataclass(frozen=True)
class PerLayerRow:
    """One (layer, accelerator) bar of Figures 13/14."""

    label: str  # L1 .. L33
    layer_name: str
    accelerator: str
    execution_time_s: float
    computation_time_s: float
    exposed_communication_s: float
    energy_mj: float
    network_energy_mj: float
    other_energy_mj: float
    # Normalised against the Simba bar of the same layer.
    normalized_execution_time: float
    normalized_energy: float


def per_layer_comparison(
    trio: AcceleratorTrio | None = None,
    labelled_layers: dict | None = None,
) -> list[PerLayerRow]:
    """Regenerate the Figure 13/14 data set.

    By default this charts the paper's L1-L33 labels; pass
    ``labelled_layers`` (a label -> layer mapping, e.g. from
    :func:`extended_layer_labels`) to chart any other set -- the
    paper omits DenseNet-201 and EfficientNet-B7 per-layer charts
    "due to the large layer counts", which this parameter lifts.
    """
    trio = trio or default_trio()
    if labelled_layers is None:
        labelled_layers = paper_layer_labels()
    cache = default_cache()
    rows: list[PerLayerRow] = []
    for label, layer in labelled_layers.items():
        simba_result = simulate_layer_cached(
            trio.simba, layer, layer_by_layer=True, cache=cache
        )
        for simulator in trio:
            result = simulate_layer_cached(
                simulator, layer, layer_by_layer=True, cache=cache
            )
            rows.append(
                PerLayerRow(
                    label=label,
                    layer_name=layer.name,
                    accelerator=simulator.spec.name,
                    execution_time_s=result.execution_time_s,
                    computation_time_s=result.computation_time_s,
                    exposed_communication_s=result.exposed_communication_s,
                    energy_mj=result.energy.total_mj,
                    network_energy_mj=result.energy.network_mj,
                    other_energy_mj=result.energy.other_mj,
                    normalized_execution_time=(
                        result.execution_time_s / simba_result.execution_time_s
                    ),
                    normalized_energy=(
                        result.energy.total_mj / simba_result.energy.total_mj
                    ),
                )
            )
    return rows
