"""Property-based tests for the validation and invariant subsystems.

Four guarantees, each exercised with Hypothesis:

(a) every machine and model shipped in the zoo passes
    :mod:`repro.validate` without a single diagnostic;
(b) randomly corrupted simulation results are *always* flagged by the
    invariant auditor -- negative energies, inflated op counts and
    sub-lower-bound communication times can never slip through;
(c) random-but-valid SPACX configurations simulate cleanly under
    strict mode -- the auditor has no false positives on sound
    machines;
(d) the memoized O(n) crosstalk channel ceiling equals a brute-force
    walk over ``CrosstalkModel.total_leakage_ratio``.
"""

import dataclasses
import functools
import math

import pytest

try:
    from hypothesis import example, given, settings, strategies as st
except ImportError:  # pragma: no cover - hypothesis is a baked-in dep
    pytest.skip("hypothesis unavailable", allow_module_level=True)

from repro.core.invariants import audit_layer_result, audit_model_result
from repro.models.zoo import EXTENDED_MODELS, get_model
from repro.spacx.architecture import spacx_simulator
from repro.photonics.crosstalk import CrosstalkModel
from repro.validate import (
    crosstalk_limited_channels,
    machine_zoo,
    validate_model,
    validate_simulator,
)

_MACHINE_NAMES = sorted(machine_zoo())
_MODEL_NAMES = sorted(EXTENDED_MODELS)


@functools.lru_cache(maxsize=None)
def _machine(name):
    simulator = machine_zoo()[name]()
    simulator.strict = False
    return simulator


@functools.lru_cache(maxsize=None)
def _reference_result(machine_name):
    """A known-good layer result for corruption experiments."""
    simulator = _machine(machine_name)
    layer = get_model("MobileNetV2").unique_layers[0]
    return simulator.simulate_layer(layer)


# ----------------------------------------------------------------------
# (a) the shipped zoo is spotless
# ----------------------------------------------------------------------
@given(name=st.sampled_from(_MACHINE_NAMES))
@settings(max_examples=len(_MACHINE_NAMES), deadline=None)
def test_every_zoo_machine_validates_cleanly(name):
    report = validate_simulator(_machine(name), subject=name)
    assert report.clean, report.describe()


@given(name=st.sampled_from(_MODEL_NAMES))
@settings(max_examples=len(_MODEL_NAMES), deadline=None)
def test_every_zoo_model_validates_cleanly(name):
    report = validate_model(get_model(name))
    assert report.clean, report.describe()


# ----------------------------------------------------------------------
# (b) corrupted results never slip through the auditor
# ----------------------------------------------------------------------
@given(
    machine=st.sampled_from(_MACHINE_NAMES),
    energy_mj=st.floats(
        min_value=-1e6, max_value=-1e-9, allow_nan=False, allow_infinity=False
    ),
)
@settings(max_examples=40, deadline=None)
def test_negative_energy_always_flagged(machine, energy_mj):
    result = _reference_result(machine)
    bad = dataclasses.replace(
        result, energy=dataclasses.replace(result.energy, mac_mj=energy_mj)
    )
    violations = audit_layer_result(bad, _machine(machine).spec)
    assert any(v.code == "INV-ENERGY-NEG" for v in violations)


@given(
    machine=st.sampled_from(_MACHINE_NAMES),
    shrink=st.integers(min_value=2, max_value=10_000),
)
@settings(max_examples=40, deadline=None)
def test_inflated_op_count_always_flagged(machine, shrink):
    # Shrinking the compute-cycle budget below what the MAC count
    # needs is equivalent to inflating the op count: conservation must
    # catch it whatever the corruption factor.
    result = _reference_result(machine)
    cycles = max(1, result.mapping.compute_cycles // shrink)
    spec = _machine(machine).spec
    if result.layer.macs <= cycles * spec.peak_macs_per_cycle:
        return  # this shrink factor keeps the mapping feasible
    bad = dataclasses.replace(
        result,
        mapping=dataclasses.replace(result.mapping, compute_cycles=cycles),
    )
    violations = audit_layer_result(bad, spec)
    assert any(v.code == "INV-OPS" for v in violations)


@given(
    machine=st.sampled_from(_MACHINE_NAMES),
    fraction=st.floats(min_value=0.0, max_value=0.5),
)
@settings(max_examples=40, deadline=None)
def test_sub_bound_communication_always_flagged(machine, fraction):
    # Communication time forced below half the GB serialisation floor
    # must always trip the lower-bound check.
    result = _reference_result(machine)
    spec = _machine(machine).spec
    if spec.gb_weight_egress_gbps and spec.gb_ifmap_egress_gbps:
        floor = max(
            result.traffic.gb_weight_send_bytes
            * 8
            / (spec.gb_weight_egress_gbps * 1e9),
            result.traffic.gb_ifmap_send_bytes
            * 8
            / (spec.gb_ifmap_egress_gbps * 1e9),
        )
    else:
        floor = (
            result.traffic.gb_send_bytes * 8 / (spec.gb_egress_gbps * 1e9)
        )
    if floor <= 0:
        return
    bad = dataclasses.replace(result, communication_time_s=floor * fraction)
    violations = audit_layer_result(bad, spec)
    assert any(v.code == "INV-COMM-LB" for v in violations)


@given(
    machine=st.sampled_from(_MACHINE_NAMES),
    field=st.sampled_from(
        [
            "computation_time_s",
            "communication_time_s",
            "exposed_communication_s",
            "packet_latency_s",
        ]
    ),
    value=st.floats(
        max_value=-1e-12, min_value=-1e9, allow_nan=False, allow_infinity=False
    ),
)
@settings(max_examples=40, deadline=None)
def test_negative_times_always_flagged(machine, field, value):
    result = _reference_result(machine)
    bad = dataclasses.replace(result, **{field: value})
    violations = audit_layer_result(bad, _machine(machine).spec)
    assert any(v.code == "INV-TIME-NEG" for v in violations)


# ----------------------------------------------------------------------
# (c) valid configs never false-positive under strict
# ----------------------------------------------------------------------
_DIVISORS_32 = [1, 2, 4, 8, 16, 32]


@given(
    ef_granularity=st.sampled_from(_DIVISORS_32),
    k_granularity=st.sampled_from(_DIVISORS_32),
    bandwidth_allocation=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_valid_spacx_configs_pass_strict(
    ef_granularity, k_granularity, bandwidth_allocation
):
    simulator = spacx_simulator(
        ef_granularity=ef_granularity,
        k_granularity=k_granularity,
        bandwidth_allocation=bandwidth_allocation,
    )
    simulator.strict = True
    # Strict mode raises on the first violation; completing the run is
    # the assertion.
    result = simulator.simulate_model(get_model("MobileNetV2"))
    assert audit_model_result(result, simulator.spec) == []


# ----------------------------------------------------------------------
# (d) the channel ceiling equals the brute-force leakage walk
# ----------------------------------------------------------------------
def _brute_force_ceiling(crosstalk, search_limit):
    """Recompute the full leakage sum for every candidate count."""
    feasible = 1
    for n_channels in range(2, search_limit + 1):
        if crosstalk.total_leakage_ratio(n_channels) >= 0.5:
            return feasible
        feasible = n_channels
    return feasible


@given(
    suppression_db=st.floats(
        min_value=0.0, max_value=30.0, exclude_min=True, allow_nan=False
    ),
    rolloff_db=st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
    search_limit=st.integers(min_value=1, max_value=256),
)
@example(suppression_db=8.0, rolloff_db=0.0, search_limit=256)
@example(suppression_db=12.0, rolloff_db=3.0, search_limit=256)
@example(suppression_db=25.0, rolloff_db=3.0, search_limit=256)
@example(suppression_db=1e-9, rolloff_db=0.0, search_limit=2)
@settings(max_examples=200, deadline=None)
def test_channel_ceiling_matches_brute_force(
    suppression_db, rolloff_db, search_limit
):
    model = CrosstalkModel(suppression_db, rolloff_db)
    expected = _brute_force_ceiling(model, search_limit)
    crosstalk_limited_channels.cache_clear()
    assert crosstalk_limited_channels(model, search_limit) == expected  # cold
    assert crosstalk_limited_channels(model, search_limit) == expected  # warm


@pytest.mark.parametrize("rolloff_db", [0.0, 0.5, 3.0])
@pytest.mark.parametrize("n_channels", [2, 3, 5, 17, 40])
def test_channel_ceiling_at_the_rounding_edge(n_channels, rolloff_db):
    # Bisect the suppression down to adjacent doubles that put the
    # brute-force leakage at ``n_channels`` on either side of 0.5:
    # a walk that rounded one partial sum differently, or compared
    # with the wrong sense, would split from the reference here.
    def leaks(suppression_db):
        model = CrosstalkModel(suppression_db, rolloff_db)
        return model.total_leakage_ratio(n_channels) >= 0.5

    lo, hi = 1e-3, 30.0
    assert leaks(lo) and not leaks(hi)
    while math.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            mid = math.nextafter(lo, hi)
        if leaks(mid):
            lo = mid
        else:
            hi = mid
    crosstalk_limited_channels.cache_clear()
    for suppression_db in (lo, hi):
        model = CrosstalkModel(suppression_db, rolloff_db)
        assert crosstalk_limited_channels(model, 64) == _brute_force_ceiling(
            model, 64
        )
