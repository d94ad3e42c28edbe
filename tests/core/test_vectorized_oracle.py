"""Differential oracle: the kernel's one-machine entry vs the scalar simulator.

Satellite suite of :func:`repro.core.vectorized.simulate_layers_vectorized`,
which evaluates one machine as a one-row grid
(:func:`repro.core.grid.evaluate_grid`).  The scalar :class:`Simulator`
is the oracle; every test here asserts *bit identity* of the canonical
JSON forms -- see ``tests/core/oracle.py`` for the shared harness and
the (all-zero) per-metric tolerance table.

Coverage map:

* zoo-wide (machine, layer) grid, both timing modes, under strict
  simulators -- the paper's full evaluation surface;
* the golden-figure configurations (the Fig. 15/16 trio and the
  SPACX granularity grid of the ablation figures);
* full-sweep digest equality with the kernel toggled off vs on;
* hypothesis-randomised shapes x SPACX configs, including invariant
  audit verdict parity;
* routing to the scalar path: batches that fail the 2**53 exactness
  screen and dead (zero-bandwidth) links decline the machine, and
  dimensions past int64 are sieved out lane by lane -- results stay
  equal, including ``inf`` (never ``nan``) propagation with one
  deduped :class:`ReproWarning`;
* the golden drift report pinning worst-case per-metric ULP error
  (all zeros) across the zoo.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    METRIC_TOLERANCES,
    canonical,
    drift_report,
    merge_drift,
    zoo_machines,
    zoo_pairs,
    zoo_union_layers,
)
from repro.core import batch
from repro.core.invariants import _PREAUDIT_ATTR, audit_layer_result
from repro.core.layer import ConvLayer
from repro.core.simulator import Simulator
from repro.core.vectorized import coverage_gap, simulate_layers_vectorized
from repro.errors import ReproWarning
from repro.experiments import default_trio, run_models
from repro.models.zoo import get_model
from repro.serialization import model_result_to_dict
from repro.spacx.architecture import spacx_simulator

#: Granularity settings of the ablation figures (divisors of M = 32).
_DIVISORS_32 = [1, 2, 4, 8, 16, 32]


def _verdicts(result, spec) -> list[str]:
    """Invariant-audit outcome in comparable form."""
    return [str(v) for v in audit_layer_result(result, spec)]


def _kernel(simulator, layers, layer_by_layer=False):
    """The one-machine entry, asserting the grid kept the machine."""
    reasons = []
    vec = simulate_layers_vectorized(
        simulator, layers, layer_by_layer=layer_by_layer,
        on_fallback=reasons.append,
    )
    assert not reasons, f"{simulator.spec.name}: grid declined: {reasons}"
    return vec


# ----------------------------------------------------------------------
# The zoo grid: every machine x every distinct layer shape
# ----------------------------------------------------------------------
def test_zoo_grid_covers_paper_surface():
    """The programmatic grid is a superset of the paper's ~534 pairs."""
    assert len(zoo_pairs()) >= 534


@pytest.mark.parametrize("layer_by_layer", [True, False])
def test_zoo_grid_bit_identical_strict(layer_by_layer):
    """Every (machine, layer) pair, strict mode, both timing modes.

    Strict simulators make the kernel's audit equivalence load-bearing:
    a lane the kernel wrongly judged invariant-dirty would decline the
    batch, and a wrongly-clean lane would skip the scalar raise.
    """
    layers = zoo_union_layers()
    for name, simulator in zoo_machines().items():
        simulator.strict = True
        vec = _kernel(simulator, layers, layer_by_layer)
        mismatches = []
        for layer, fast in zip(layers, vec):
            slow = simulator.simulate_layer(
                layer, layer_by_layer=layer_by_layer
            )
            if canonical(slow) != canonical(fast):
                mismatches.append(f"{name}/{layer.name}")
        assert not mismatches, (
            f"{len(mismatches)} divergent pairs (layer_by_layer="
            f"{layer_by_layer}): {mismatches[:5]}"
        )


def test_zoo_audit_verdicts_match():
    """audit_layer_result agrees verbatim on both paths' results."""
    layers = zoo_union_layers()
    for name, simulator in zoo_machines().items():
        simulator.strict = False
        vec = _kernel(simulator, layers)
        for layer, fast in zip(layers, vec):
            slow = simulator.simulate_layer(layer, layer_by_layer=False)
            assert _verdicts(fast, simulator.spec) == _verdicts(
                slow, simulator.spec
            ), f"{name}/{layer.name}"


# ----------------------------------------------------------------------
# Golden-figure configurations
# ----------------------------------------------------------------------
def test_golden_trio_models_identical():
    """The Fig. 15/16 trio over the paper models, whole-model mode."""
    for simulator in default_trio():
        for model in ("ResNet-50", "MobileNetV2"):
            layers = get_model(model)
            fast = batch.simulate_model_cached(
                simulator, layers, cache=batch.NullCache()
            )
            slow = simulator.simulate_model(layers)
            assert json.dumps(
                model_result_to_dict(fast), sort_keys=True
            ) == json.dumps(model_result_to_dict(slow), sort_keys=True), (
                f"{simulator.spec.name}/{model}"
            )


@pytest.mark.parametrize("bandwidth_allocation", [True, False])
def test_spacx_granularity_grid_identical(bandwidth_allocation):
    """The ablation figures' granularity grid on ResNet-50 layers."""
    layers = get_model("ResNet-50").unique_layers
    for ef_granularity in _DIVISORS_32:
        for k_granularity in (1, 8, 32):
            simulator = spacx_simulator(
                ef_granularity=ef_granularity,
                k_granularity=k_granularity,
                bandwidth_allocation=bandwidth_allocation,
            )
            simulator.strict = True
            vec = _kernel(simulator, layers)
            for layer, fast in zip(layers, vec):
                slow = simulator.simulate_layer(layer, layer_by_layer=False)
                assert canonical(slow) == canonical(fast), (
                    f"ef={ef_granularity} k={k_granularity} "
                    f"ba={bandwidth_allocation} {layer.name}"
                )


def _digest(results) -> str:
    canonical_json = json.dumps(
        {
            model: {
                accelerator: model_result_to_dict(result)
                for accelerator, result in per_accelerator.items()
            }
            for model, per_accelerator in results.items()
        },
        sort_keys=True,
    )
    return hashlib.sha256(canonical_json.encode()).hexdigest()


def test_full_sweep_digest_unchanged_by_vectorize_toggle():
    """The pinned evaluation sweep is invariant under the fast path."""
    scalar = run_models(
        default_trio(),
        runner=batch.SweepRunner(cache=batch.NullCache(), vectorize=False),
    )
    fast = run_models(
        default_trio(),
        runner=batch.SweepRunner(cache=batch.NullCache(), vectorize=True),
    )
    assert _digest(scalar) == _digest(fast)


# ----------------------------------------------------------------------
# Property tests: randomised shapes x SPACX configurations
# ----------------------------------------------------------------------
@st.composite
def layer_shapes(draw):
    c = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.integers(min_value=1, max_value=12))
    r = draw(st.integers(min_value=1, max_value=3))
    s = draw(st.integers(min_value=1, max_value=3))
    h = draw(st.integers(min_value=r, max_value=10))
    w = draw(st.integers(min_value=s, max_value=10))
    stride = draw(st.integers(min_value=1, max_value=2))
    batch_size = draw(st.integers(min_value=1, max_value=2))
    return ConvLayer(
        name="prop",
        c=c,
        k=k,
        r=r,
        s=s,
        h=h,
        w=w,
        stride=stride,
        batch=batch_size,
    )


@given(
    layers=st.lists(layer_shapes(), min_size=1, max_size=4),
    ef_granularity=st.sampled_from(_DIVISORS_32),
    k_granularity=st.sampled_from(_DIVISORS_32),
    bandwidth_allocation=st.booleans(),
    layer_by_layer=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_property_random_layers_identical(
    layers, ef_granularity, k_granularity, bandwidth_allocation, layer_by_layer
):
    """Per-metric agreement and audit-verdict parity on random input."""
    simulator = spacx_simulator(
        ef_granularity=ef_granularity,
        k_granularity=k_granularity,
        bandwidth_allocation=bandwidth_allocation,
    )
    simulator.strict = False
    vec = _kernel(simulator, layers, layer_by_layer)
    for layer, fast in zip(layers, vec):
        slow = simulator.simulate_layer(layer, layer_by_layer=layer_by_layer)
        assert canonical(slow) == canonical(fast)
        assert _verdicts(fast, simulator.spec) == _verdicts(
            slow, simulator.spec
        )


# ----------------------------------------------------------------------
# Routing to the scalar path
# ----------------------------------------------------------------------
def test_checked_mode_and_scalar_backfill_identical():
    """A batch whose worst lane breaks the 2**53 exactness screen.

    The big lane's MAC count (~1.3e15) times its 8-byte bound crosses
    2**53, so the screen declines the machine's row and both lanes --
    the small one too -- run on the scalar oracle, bit-identically,
    with the reason reported.
    """
    layers = [
        ConvLayer(name="huge", c=4096, k=4096, r=3, s=3, h=2048, w=2048,
                  batch=2),
        ConvLayer(name="small", c=8, k=8, r=3, s=3, h=8, w=8),
    ]
    simulator = spacx_simulator()
    simulator.strict = False
    reasons = []
    vec = simulate_layers_vectorized(
        simulator, layers, on_fallback=reasons.append
    )
    assert reasons == ["exactness screen declined the grid batch"]
    assert not any(_PREAUDIT_ATTR in fast.__dict__ for fast in vec)
    for layer, fast in zip(layers, vec):
        slow = simulator.simulate_layer(layer, layer_by_layer=False)
        assert canonical(slow) == canonical(fast), layer.name


def test_overflow_sieve_identical():
    """A dimension past int64 cannot enter an int64 column at all.

    The lane sieve routes that lane to the scalar oracle (exact Python
    ints) while the surviving lane still runs as a one-row grid.
    """
    layers = [
        ConvLayer(name="astronomical", c=2**64, k=2, r=1, s=1, h=4, w=4),
        ConvLayer(name="small", c=8, k=8, r=3, s=3, h=8, w=8),
    ]
    simulator = spacx_simulator()
    simulator.strict = False
    reasons = []
    vec = simulate_layers_vectorized(
        simulator, layers, on_fallback=reasons.append
    )
    assert not reasons
    assert [
        fast.__dict__.get(_PREAUDIT_ATTR) is simulator.spec for fast in vec
    ] == [False, True]
    for layer, fast in zip(layers, vec):
        slow = simulator.simulate_layer(layer, layer_by_layer=False)
        assert canonical(slow) == canonical(fast), layer.name


# ----------------------------------------------------------------------
# Zero-bandwidth links: inf propagation + warning dedup
# ----------------------------------------------------------------------
def _dead_dram_simulator() -> Simulator:
    # Spec validation rejects an exact 0; any bandwidth below the
    # simulator's _MIN_BANDWIDTH_GBPS (1e-12) is a dead link.
    base = spacx_simulator()
    spec = replace(base.spec, dram_bandwidth_gbps=1e-15)
    return Simulator(
        spec, base.compute_energy, base.network_energy, strict=False
    )


def test_zero_bandwidth_inf_propagation_and_warning_dedup():
    """A dead DRAM link declines the grid row: the scalar path yields
    inf (never nan), with exactly one ReproWarning shared through the
    per-(spec, link) memo."""
    simulator = _dead_dram_simulator()
    assert coverage_gap(simulator) is None
    layers = zoo_union_layers()[:6]
    reasons = []
    with warnings.catch_warnings(record=True) as vec_caught:
        warnings.simplefilter("always")
        vec = simulate_layers_vectorized(
            simulator, layers, layer_by_layer=True,
            on_fallback=reasons.append,
        )
    assert len(reasons) == 1 and "dead link" in reasons[0]
    dead_link = [
        w
        for w in vec_caught
        if issubclass(w.category, ReproWarning) and "dram" in str(w.message)
    ]
    assert len(dead_link) == 1, "dead-link warning must fire exactly once"

    # The scalar pass on the same spec drains the same dedup memo:
    # no second warning, and bit-identical inf propagation.
    with warnings.catch_warnings(record=True) as scalar_caught:
        warnings.simplefilter("always")
        scalar = [
            simulator.simulate_layer(layer, layer_by_layer=True)
            for layer in layers
        ]
    assert not [w for w in scalar_caught if "dram" in str(w.message)]
    for layer, slow, fast in zip(layers, scalar, vec):
        fast_json = canonical(fast)
        assert canonical(slow) == fast_json, layer.name
        assert "NaN" not in fast_json, "0 * inf leaked a nan"
        assert math.isinf(fast.execution_time_s)


# ----------------------------------------------------------------------
# Golden drift guard
# ----------------------------------------------------------------------
def test_vectorized_drift_golden(golden):
    """Worst-case per-metric drift across the zoo, pinned as golden.

    Today every entry is exactly zero (bit identity).  If a future
    kernel change introduces per-metric drift, this fails twice over:
    against :data:`METRIC_TOLERANCES` (hard bound, widen consciously)
    and against ``tests/golden/vectorized_drift.json`` (regenerate
    with ``--update-golden`` and justify the diff in review).
    """
    layers = zoo_union_layers()
    total: dict = {}
    for name, simulator in zoo_machines().items():
        simulator.strict = False
        vec = _kernel(simulator, layers)
        for layer, fast in zip(layers, vec):
            slow = simulator.simulate_layer(layer, layer_by_layer=False)
            merge_drift(total, drift_report(slow, fast))
    assert "mismatched_fields" not in total
    for metric, entry in sorted(total.items()):
        bound = METRIC_TOLERANCES[metric]
        assert entry["max_rel_error"] <= bound, (
            f"{metric}: drift {entry} exceeds tolerance {bound}"
        )
    golden.check("vectorized_drift", total)
