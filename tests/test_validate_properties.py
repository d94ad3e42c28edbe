"""Property-based tests for the validation and invariant subsystems.

Four guarantees, each exercised with Hypothesis:

(a) every machine and model shipped in the zoo passes
    :mod:`repro.validate` without a single diagnostic;
(b) randomly corrupted simulation results are *always* flagged by the
    invariant auditor -- negative energies, inflated op counts and
    sub-lower-bound communication times can never slip through -- and
    the grid's array audit of cache hits never marks one clean: it
    agrees with the scalar audit on every value it can judge and leaves
    every other value (non-numeric, ``bool``, past 2**53, a stand-in
    energy object) to the scalar audit;
(c) random-but-valid SPACX configurations simulate cleanly under
    strict mode -- the auditor has no false positives on sound
    machines;
(d) the memoized O(n) crosstalk channel ceiling equals a brute-force
    walk over ``CrosstalkModel.total_leakage_ratio``.
"""

import dataclasses
import functools
import json
import math
import types

import pytest

try:
    from hypothesis import example, given, settings, strategies as st
except ImportError:  # pragma: no cover - hypothesis is a baked-in dep
    pytest.skip("hypothesis unavailable", allow_module_level=True)

from repro.core import grid
from repro.core.invariants import (
    _PREAUDIT_ATTR,
    audit_layer_result,
    audit_model_result,
)
from repro.core.layer import ConvLayer
from repro.core.metrics import EnergyBreakdown
from repro.models.zoo import EXTENDED_MODELS, get_model
from repro.serialization import pack_block, unpack_block
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


def _array_marks(result, machine_name) -> bool:
    """Whether the grid's array audit of cache hits marks ``result``
    clean for the machine (the marker is set on ``result`` itself)."""
    spec = _machine(machine_name).spec
    grid.preaudit_hits([spec], [[result]], [[result.layer]])
    return result.__dict__.get(_PREAUDIT_ATTR) is spec


def _with_value(obj, path, value):
    """Copy of ``obj`` with the attribute at dotted ``path`` set to
    ``value``, unvalidated -- as a hand-edited cache record would be."""
    head, _, rest = path.partition(".")
    copy = object.__new__(type(obj))
    copy.__dict__.update(obj.__dict__)
    copy.__dict__.pop(_PREAUDIT_ATTR, None)
    copy.__dict__[head] = (
        _with_value(getattr(obj, head), rest, value) if rest else value
    )
    return copy


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
    assert not _array_marks(bad, machine)


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
    assert not _array_marks(bad, machine)


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
    assert not _array_marks(bad, machine)


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
    assert not _array_marks(bad, machine)


# Every field ``audit_layer_result`` reads, written out from its checks
# rather than taken from the array audit's own field table, so a field
# that table left out would show up as a disagreement.  (The layer's
# MAC count is derived from its dimensions, so it is left out.)
_FLOAT_PATHS = [
    # times
    "computation_time_s", "communication_time_s",
    "exposed_communication_s", "packet_latency_s",
    # energy components
    "energy.mac_mj", "energy.pe_buffer_mj", "energy.gb_mj",
    "energy.dram_mj", "energy.network.eo_mj", "energy.network.oe_mj",
    "energy.network.heating_mj", "energy.network.laser_mj",
    "energy.network.electrical_mj",
]
_INT_PATHS = [
    # byte counts
    "delivered_bytes", "traffic.gb_weight_send_bytes",
    "traffic.gb_ifmap_send_bytes", "traffic.pe_weight_receive_bytes",
    "traffic.pe_ifmap_receive_bytes", "traffic.chiplet_weight_cross_bytes",
    "traffic.chiplet_ifmap_cross_bytes", "traffic.output_bytes",
    "traffic.psum_bytes", "traffic.dram_read_bytes",
    "traffic.dram_write_bytes",
    # mapping fit and op conservation
    "mapping.chiplets_active", "mapping.pes_active_per_chiplet",
    "mapping.compute_cycles",
]


@st.composite
def _judgeable_corruption(draw):
    """A dotted field path and a value the array audit can judge: any
    float for a float field, an integer below 2**53 for an integer one
    (small ones too, so a mapping just past the machine shows up)."""
    path = draw(st.sampled_from(_FLOAT_PATHS + _INT_PATHS))
    if path in _FLOAT_PATHS:
        return path, draw(st.floats())
    return path, draw(
        st.one_of(
            st.integers(-8, 4096), st.integers(-(2**53) + 1, 2**53 - 1)
        )
    )


@given(
    machine=st.sampled_from(_MACHINE_NAMES),
    corruption=_judgeable_corruption(),
)
@example(machine="spacx", corruption=("mapping.chiplets_active", 4096))
@example(machine="simba", corruption=("mapping.pes_active_per_chiplet", 4096))
@example(machine="spacx", corruption=("computation_time_s", 0.0))
@example(machine="popstar", corruption=("traffic.output_bytes", -1))
@settings(max_examples=300, deadline=None)
def test_array_audit_agrees_on_judgeable_values(machine, corruption):
    # The array audit marks the hit exactly when the scalar audit finds
    # nothing.
    bad = _with_value(_reference_result(machine), *corruption)
    clean = audit_layer_result(bad, _machine(machine).spec) == []
    assert _array_marks(bad, machine) == clean


#: A layer with enough cycles per MAC slot that a relative change of
#: 1e-7 in its compute cycles is representable.
_BIG_LAYER = ConvLayer("big", c=4096, k=4096, r=3, s=3, h=64, w=64)


@functools.lru_cache(maxsize=None)
def _big_result(machine_name):
    return _machine(machine_name).simulate_layer(_BIG_LAYER)


@given(
    machine=st.sampled_from(_MACHINE_NAMES),
    cycles_rel=st.floats(min_value=-3e-6, max_value=3e-6),
    comp_rel=st.floats(min_value=-3e-6, max_value=3e-6),
)
@example(machine="spacx", cycles_rel=-2e-6, comp_rel=1e-6)  # INV-OPS only
@example(machine="spacx", cycles_rel=-9e-7, comp_rel=-1e-6)  # roofline only
@example(machine="spacx", cycles_rel=-9e-7, comp_rel=0.0)  # clean
@settings(max_examples=200, deadline=None)
def test_array_audit_agrees_at_the_compute_bounds(
    machine, cycles_rel, comp_rel
):
    # Compute cycles and computation time within a few 1e-6 of the
    # op-conservation, core-clock and roofline bounds, the exposed
    # time kept consistent: each check alone decides some of these.
    spec = _machine(machine).spec
    ref = _big_result(machine)
    cycles = round(_BIG_LAYER.macs / spec.peak_macs_per_cycle * (1 + cycles_rel))
    comp = cycles * spec.cycle_time_s * (1 + comp_rel)
    diff = ref.communication_time_s - comp
    bad = _with_value(ref, "mapping.compute_cycles", cycles)
    bad = _with_value(bad, "computation_time_s", comp)
    bad = _with_value(bad, "exposed_communication_s", max(0.0, diff))
    clean = audit_layer_result(bad, spec) == []
    assert _array_marks(bad, machine) == clean


@given(
    machine=st.sampled_from(_MACHINE_NAMES),
    path=st.sampled_from(_FLOAT_PATHS + _INT_PATHS),
    value=st.one_of(
        st.booleans(),
        st.none(),
        st.text(max_size=3),
        st.lists(st.integers(), max_size=2),
        st.integers(min_value=2**53, max_value=2**80),
        st.integers(min_value=-(2**80), max_value=-(2**53)),
    ),
)
@example(machine="spacx", path="traffic.output_bytes", value=2**63)
@example(machine="spacx", path="mapping.compute_cycles", value=2**53)
@example(machine="simba", path="delivered_bytes", value=True)
@settings(max_examples=200, deadline=None)
def test_unjudgeable_values_stay_unmarked(machine, path, value):
    bad = _with_value(_reference_result(machine), path, value)
    assert not _array_marks(bad, machine)


@dataclasses.dataclass(frozen=True)
class _SkewedEnergy(EnergyBreakdown):
    """An energy subclass whose total disagrees with its parts."""

    skew: float = 0.0

    @property
    def total_mj(self) -> float:
        return super().total_mj + self.skew


@given(
    machine=st.sampled_from(_MACHINE_NAMES),
    skew=st.floats(allow_nan=False),
    duck=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_stand_in_energy_stays_unmarked(machine, skew, duck):
    result = _reference_result(machine)
    energy = result.energy
    parts = {name: getattr(energy, name) for name in
             ("mac_mj", "pe_buffer_mj", "gb_mj", "dram_mj", "network")}
    if duck:
        stand_in = types.SimpleNamespace(
            **parts, total_mj=energy.total_mj + skew
        )
    else:
        stand_in = _SkewedEnergy(**parts, skew=skew)
    bad = _with_value(result, "energy", stand_in)
    if skew and abs(skew) > 1e-6 * abs(energy.total_mj) + 1e-18:
        codes = {v.code for v in audit_layer_result(bad, _machine(machine).spec)}
        assert "INV-ENERGY-SUM" in codes
    assert not _array_marks(bad, machine)


def test_result_served_for_two_layers_needs_both_clean():
    # One cached object looked up for its own layer and for a layer of
    # another MAC count: clean for the first, not judged for the second,
    # so it stays unmarked (a rebound copy would carry the mark).
    result = _with_value(_reference_result("spacx"), "accelerator", "spacx")
    own = result.layer
    other = next(
        layer for layer in get_model("MobileNetV2").unique_layers
        if layer.macs != own.macs
    )
    spec = _machine("spacx").spec
    grid.preaudit_hits([spec], [[result, result]], [[own, other]])
    assert _PREAUDIT_ATTR not in result.__dict__
    grid.preaudit_hits([spec], [[result]], [[own]])
    assert result.__dict__[_PREAUDIT_ATTR] is spec


def test_unreadable_hit_leaves_its_group_to_the_scalar_audit():
    # One hit the array cannot read (a bool byte count) keeps every hit
    # of its group unmarked, the clean one of another machine too.
    clean = _with_value(_reference_result("spacx"), "accelerator", "spacx")
    odd = _with_value(clean, "delivered_bytes", True)
    spec = _machine("spacx").spec
    grid.preaudit_hits(
        [spec, spec], [[clean], [odd]], [[clean.layer], [odd.layer]]
    )
    assert _PREAUDIT_ATTR not in clean.__dict__
    assert _PREAUDIT_ATTR not in odd.__dict__
    grid.preaudit_hits([spec], [[clean]], [[clean.layer]])
    assert clean.__dict__[_PREAUDIT_ATTR] is spec


def test_array_audit_marks_every_clean_zoo_lane():
    # Non-vacuity: every lane of the zoo machines x the extended zoo,
    # read back from its cache block, is judged -- marked
    # exactly when the scalar audit passes it (all of them).
    layers = list(
        {
            layer.shape_key: layer
            for name in _MODEL_NAMES
            for layer in get_model(name).unique_layers
        }.values()
    )
    for name in _MACHINE_NAMES:
        simulator = _machine(name)
        packed = pack_block([simulator.simulate_layer(lay) for lay in layers])
        block = unpack_block(json.loads(json.dumps(packed)), len(layers))
        hits = [block.result(row) for row in range(len(layers))]
        grid.preaudit_hits([simulator.spec], [hits], [layers])
        for hit in hits:
            clean = audit_layer_result(hit, simulator.spec) == []
            assert clean, name
            assert hit.__dict__.get(_PREAUDIT_ATTR) is simulator.spec, name


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
