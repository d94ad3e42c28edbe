"""Differential oracle: the multi-machine grid vs the scalar simulator.

Satellite suite of the grid kernel (:mod:`repro.core.grid`).  The
scalar :class:`Simulator` stays the oracle; every test here asserts
that the grid's lanes equal it bit for bit -- see
``tests/core/oracle.py`` for the shared harness and the (all-zero)
per-metric tolerance table.  The one-machine entry (a one-row grid)
is pinned in ``test_vectorized_oracle.py``.

Coverage map:

* the zoo's family partition itself (which machines may share a
  megabatch is a load-bearing planner input);
* zoo-wide scalar-vs-grid bit identity, per family, both timing
  modes, and the grid declining rows of a foreign family;
* the golden drift report pinning worst-case grid-vs-scalar ULP
  error (all zeros) across every family;
* hypothesis-randomised mixed-coverage grids: random granularity
  siblings x random layer subsets, with uncovered shapes sieved to
  the scalar path exactly as the planner does;
* campaign digest invariance under every ``--exec-plan`` value,
  composed with process pools, crash injection and manifest resume;
* planner routing on mixed fleets: every machine the grid declines
  (dead link, exactness screen, coverage gap) runs on the scalar
  simulator with one ``grid_fallbacks`` entry while clean families
  still grid, results unchanged;
* grid lanes are plain ``LayerResult`` objects that carry the
  pre-audit marker, and disk hits earn it from the grid's array audit,
  so grid-served campaigns skip the per-layer audit; a corrupted hit
  still fails its job with the scalar audit's violations.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crashkit import CrashingSimulator
from oracle import (
    METRIC_TOLERANCES,
    canonical,
    covered_union_layers,
    drift_report,
    grid_mismatches,
    merge_drift,
    zoo_grid_families,
    zoo_machines,
)
from repro.core import invariants, store
from repro.core.batch import (
    NullCache,
    ResultCache,
    SweepJob,
    SweepRunner,
    layer_cache_key,
    simulator_fingerprint,
)
from repro.core.campaign import CampaignManifest
from repro.core.grid import (
    evaluate_grid,
    family_key,
    grid_gap,
    lane_covered,
    search_grid,
)
from repro.core.invariants import audit_layer_result
from repro.core.layer import ConvLayer, LayerSet
from repro.core.metrics import LayerResult
from repro.core.simulator import Simulator
from repro.models.zoo import get_model
from repro.serialization import layer_result_pack, layer_result_unpack
from repro.spacx.architecture import spacx_simulator

#: Granularity settings shared with the ablation figures (divisors
#: of M = 32) -- granularity siblings stay in one grid family.
_DIVISORS_32 = [1, 2, 4, 8, 16, 32]


# ----------------------------------------------------------------------
# The family partition: who may share a megabatch
# ----------------------------------------------------------------------
def test_zoo_family_partition():
    """Every zoo machine is grid-eligible and the partition matches
    the architecture table: the electrical baseline pairs with the
    photonic mesh it shares a dataflow with, the SPACX pair shares
    the output-stationary family, and the bandwidth-allocation
    variant stands alone (its capability bit changes the kernel)."""
    families = zoo_grid_families()
    names = sorted(
        tuple(sorted(name for name, _ in members))
        for members in families.values()
    )
    assert names == [
        ("popstar", "simba"),
        ("spacx", "spacx-aggressive"),
        ("spacx-ba",),
    ]


def test_family_key_is_timing_mode_sensitive():
    """layer_by_layer is part of the key: a whole-model batch must
    never share a lowering with a layer-by-layer one."""
    simulator = spacx_simulator()
    assert grid_gap(simulator) is None
    assert family_key(simulator, False) != family_key(simulator, True)


# ----------------------------------------------------------------------
# Zoo-wide bit identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("layer_by_layer", [False, True])
def test_zoo_three_way_bit_identical(layer_by_layer):
    """scalar == grid for every family x covered union shape, under
    strict simulators, both timing modes."""
    layers = covered_union_layers()
    assert layers, "zoo union unexpectedly outside lane coverage"
    for members in zoo_grid_families(layer_by_layer).values():
        simulators = [simulator for _, simulator in members]
        for simulator in simulators:
            simulator.strict = True
        mismatches = grid_mismatches(
            simulators, layers, layer_by_layer=layer_by_layer
        )
        assert not mismatches, (
            f"{len(mismatches)} divergent lanes (layer_by_layer="
            f"{layer_by_layer}): {mismatches[:5]}"
        )


def test_grid_declines_rows_of_a_foreign_family():
    """The kernel takes dataflow, capabilities and split links from
    its first row: a machine of another family is declined, never
    evaluated with the wrong branches -- on both kernels."""
    machines = zoo_machines()
    layers = covered_union_layers()[:5]
    fleet = [machines["spacx"], machines["simba"]]
    outcome = evaluate_grid(fleet, layers)
    assert outcome.reasons[0] is None
    assert outcome.by_machine[1] is None
    assert "family" in outcome.reasons[1]
    floors, scorers = search_grid(fleet, layers, [range(len(layers))] * 2)
    assert floors[0] is not None and scorers[0] is not None
    assert floors[1] is None and scorers[1] is None


def test_grid_drift_golden(golden):
    """Worst-case grid-vs-scalar drift across the zoo: all zeros."""
    layers = covered_union_layers()
    total: dict = {}
    for members in zoo_grid_families().values():
        simulators = [simulator for _, simulator in members]
        outcome = evaluate_grid(simulators, layers)
        for simulator, row in zip(simulators, outcome.by_machine):
            assert row is not None, simulator.spec.name
            for layer in layers:
                slow = simulator.simulate_layer(layer, layer_by_layer=False)
                total = merge_drift(
                    total, drift_report(slow, row[layer.shape_key])
                )
    assert "mismatched_fields" not in total
    for metric, entry in sorted(total.items()):
        bound = METRIC_TOLERANCES[metric]
        assert entry["max_rel_error"] <= bound, (
            f"{metric}: drift {entry} exceeds tolerance {bound}"
        )
    golden.check("grid_drift", total)


# ----------------------------------------------------------------------
# Hypothesis: mixed-coverage grids
# ----------------------------------------------------------------------
@st.composite
def maybe_covered_layers(draw):
    """Shapes the lane sieve may accept or reject -- huge channel
    counts push MAC products past the exactness screen's comfort
    zone while small ones stay covered."""
    c = draw(st.sampled_from([1, 3, 16, 2**17]))
    k = draw(st.sampled_from([1, 4, 32, 2**17]))
    r = draw(st.integers(min_value=1, max_value=3))
    h = draw(st.integers(min_value=r, max_value=12))
    return ConvLayer(
        name="mix",
        c=c,
        k=k,
        r=r,
        s=r,
        h=h,
        w=h,
        stride=draw(st.integers(min_value=1, max_value=2)),
        batch=draw(st.integers(min_value=1, max_value=2)),
    )


@given(
    layers=st.lists(maybe_covered_layers(), min_size=1, max_size=5),
    granularities=st.lists(
        st.tuples(
            st.sampled_from(_DIVISORS_32), st.sampled_from([1, 8, 32])
        ),
        min_size=2,
        max_size=4,
        unique=True,
    ),
    layer_by_layer=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_property_mixed_coverage_grid(layers, granularities, layer_by_layer):
    """Random granularity siblings x random shapes: the lane sieve
    splits the batch, the covered part grids bit-identically, and
    the sieved-out shapes take the scalar path -- together covering
    every (machine, layer) pair exactly once."""
    simulators = [
        spacx_simulator(ef_granularity=ef, k_granularity=k)
        for ef, k in granularities
    ]
    keys = {family_key(s, layer_by_layer) for s in simulators}
    assert len(keys) == 1, "granularity siblings left the family"

    covered = [layer for layer in layers if lane_covered(layer)]
    sieved = [layer for layer in layers if not lane_covered(layer)]
    if covered:
        mismatches = grid_mismatches(
            simulators, covered, layer_by_layer=layer_by_layer
        )
        assert not mismatches, mismatches[:5]
    for simulator in simulators:
        for layer in sieved:
            # The sieve only ever excludes, never corrupts: the
            # scalar path still owns these shapes outright.
            result = simulator.simulate_layer(
                layer, layer_by_layer=layer_by_layer
            )
            assert result.computation_time_s > 0


# ----------------------------------------------------------------------
# Campaign digests under exec-plan toggles x pool x resume
# ----------------------------------------------------------------------
def _layer(name, **kw):
    shape = dict(c=4, k=4, r=3, s=3, h=6, w=6)
    shape.update(kw)
    return ConvLayer(name=name, **shape)


def _models(n=3):
    return [
        LayerSet(
            f"net-{i}",
            [
                _layer(f"l{i}a", c=2 + i, k=4 + i),
                _layer(f"l{i}b", c=2 + i, k=4 + i),
                _layer(f"l{i}c", c=3 + i, k=2 + i, h=8, w=8),
            ],
        )
        for i in range(n)
    ]


def _family_pair():
    """Two distinctly-named same-family machines -- the smallest
    fleet the auto planner will megabatch.  Distinct names matter:
    the result cache and manifest key on ``(accelerator, model)``."""
    sibling = spacx_simulator(ef_granularity=2)
    sibling.spec = replace(sibling.spec, name="SPACX-ef2")
    return [spacx_simulator(), sibling]


def _digest(results) -> str:
    from repro.serialization import model_result_to_dict

    return json.dumps(
        [None if r is None else model_result_to_dict(r) for r in results],
        sort_keys=True,
    )


def _jobs(simulators, models):
    return [SweepJob(sim, m) for m in models for sim in simulators]


@pytest.fixture(scope="module")
def serial_baseline():
    models = _models(3)
    results = SweepRunner(
        max_workers=1,
        cache=NullCache(),
        manifest=False,
        exec_plan="serial",
    ).run(_jobs(_family_pair(), models))
    return _digest(results)


@pytest.mark.parametrize("exec_plan", ["auto", "pool", "serial"])
def test_exec_plan_digest_invariant(exec_plan, serial_baseline):
    """Every plan value produces the byte-identical campaign."""
    runner = SweepRunner(
        max_workers=2,
        cache=NullCache(),
        manifest=False,
        exec_plan=exec_plan,
    )
    results = runner.run(_jobs(_family_pair(), _models(3)))
    assert _digest(results) == serial_baseline
    assert not runner.failures and not runner.grid_fallbacks
    assert runner.plan_decisions, "planner recorded no decision"
    if exec_plan == "auto":
        assert [d.plan for d in runner.plan_decisions] == ["grid"]
        assert runner.grid_lanes > 0 and runner.grid_machines == 2


@pytest.mark.parametrize("exec_plan", ["auto", "pool"])
def test_exec_plan_crash_resume_digest_invariant(
    exec_plan, serial_baseline, tmp_path
):
    """A crashed campaign resumed under any plan converges to the
    uninterrupted serial digest -- the planner choice composes with
    the manifest/cache machinery without touching results."""
    models = _models(3)
    machines = _family_pair()
    cache_dir = tmp_path / f"campaign-{exec_plan}"

    first = SweepRunner(
        max_workers=2,
        cache=ResultCache(cache_dir=cache_dir),
        manifest=CampaignManifest(cache_dir),
        on_error="skip",
        exec_plan=exec_plan,
    )
    broken = _jobs(machines, models)
    crash_at = len(broken) // 2
    broken[crash_at] = SweepJob(
        CrashingSimulator(broken[crash_at].simulator),
        broken[crash_at].model,
    )
    partial = first.run(broken)
    assert partial[crash_at] is None
    assert first.manifest.completed == len(broken) - 1

    second = SweepRunner(
        max_workers=2,
        cache=ResultCache(cache_dir=cache_dir),
        manifest=CampaignManifest(cache_dir),
        exec_plan=exec_plan,
    )
    resumed = second.run(_jobs(machines, models), resume=True)
    assert second.resumed_jobs == len(broken) - 1
    assert _digest(resumed) == serial_baseline


def _declined_fleet(tmp_path):
    """One machine per grid decline reason, each distinctly named,
    paired with the reason text its ``grid_fallbacks`` entry carries."""
    base = spacx_simulator()

    class TracingSimulator(Simulator):
        pass

    crash = CrashingSimulator(
        spacx_simulator(), fail_times=0, counter_path=tmp_path / "counter"
    )
    crash.spec = replace(crash.spec, name="SPACX-crashkit")
    dead = Simulator(
        replace(base.spec, name="SPACX-dead", dram_bandwidth_gbps=1e-15),
        base.compute_energy,
        base.network_energy,
        strict=False,
    )
    traced = TracingSimulator(
        replace(base.spec, name="SPACX-traced"),
        base.compute_energy,
        base.network_energy,
    )
    # Its own family (split links without bandwidth allocation), so
    # its oversized model cannot drag the clean pair's union off the
    # grid.
    screened = spacx_simulator(bandwidth_allocation=False)
    return [
        (crash, "CrashingSimulator"),
        (dead, "dead link"),
        (traced, "TracingSimulator"),
        (screened, "exactness screen"),
    ]


def test_mixed_fleet_gap_machines_ride_serial_lanes(tmp_path):
    """A fleet mixing declined machines into a clean family: auto
    still grids the family, runs each declined machine on the scalar
    simulator with exactly one ``grid_fallbacks`` entry, and the
    digest matches serial."""
    models = _models(2)
    clean = _family_pair()
    declined = _declined_fleet(tmp_path)
    for simulator, _ in declined[:3]:
        assert grid_gap(simulator) is not None
    big = LayerSet(
        "big-net",
        [
            *models[0].all_layers,
            ConvLayer(name="huge", c=4096, k=4096, r=3, s=3, h=2048,
                      w=2048, batch=2),
        ],
    )

    def jobs():
        machines = [*clean, *(simulator for simulator, _ in declined)]
        return [
            *_jobs(machines, models),
            SweepJob(declined[-1][0], big),
        ]

    auto = SweepRunner(
        max_workers=1, cache=NullCache(), manifest=False, exec_plan="auto"
    )
    fast = auto.run(jobs())
    serial = SweepRunner(
        max_workers=1,
        cache=NullCache(),
        manifest=False,
        exec_plan="serial",
        vectorize=False,
    ).run(jobs())
    assert _digest(fast) == _digest(serial)
    assert not auto.failures
    plans = [d.plan for d in auto.plan_decisions]
    assert "grid" in plans, plans
    assert any(p in ("serial", "pool") for p in plans), plans
    assert auto.grid_machines == 2
    assert len(auto.grid_fallbacks) == len(declined), auto.grid_fallbacks
    for (simulator, reason), (name, recorded) in zip(
        declined, auto.grid_fallbacks
    ):
        assert name == simulator.spec.name
        assert reason in recorded, recorded


# ----------------------------------------------------------------------
# The pre-audit marker: grid results skip the per-layer audit
# ----------------------------------------------------------------------
def test_grid_results_skip_the_per_layer_audit(tmp_path, monkeypatch):
    """Grid lanes carry the pre-audit marker, so the runner's audit of a
    grid-served campaign never walks its layers -- neither when the
    lanes are fresh nor when a rerun is served from the memory tier.
    Hits unpacked from a disk tier are judged by the grid's array audit
    once per machine, so clean ones skip the per-layer audit too."""
    audited = []
    audit_layer_result = invariants.audit_layer_result

    def counting(result, *args, **kwargs):
        audited.append(result)
        return audit_layer_result(result, *args, **kwargs)

    monkeypatch.setattr(invariants, "audit_layer_result", counting)
    models = [get_model("ResNet-50"), get_model("VGG-16")]

    def audits(cache, jobs=None):
        jobs = jobs or _jobs(list(zoo_machines().values()), models)
        audited.clear()
        runner = SweepRunner(max_workers=1, cache=cache, manifest=False)
        runner.run(jobs)
        assert not runner.failures and not runner.grid_fallbacks
        return len(audited), jobs

    assert audits(NullCache())[0] == 0
    memory = ResultCache()
    count, jobs = audits(memory)
    assert count == 0
    assert audits(memory, jobs)[0] == 0
    audits(ResultCache(cache_dir=tmp_path))
    disk = ResultCache(cache_dir=tmp_path)
    assert audits(disk)[0] == 0
    assert disk.stats.disk_hits > 0


def test_corrupt_disk_hit_fails_its_job_alone(tmp_path):
    """A record corrupted under a valid frame (a negative communication
    time) fails the one job that uses it with the scalar audit's
    violation codes; every other job is served."""
    machines = list(zoo_machines().values())
    resnet, vgg = get_model("ResNet-50"), get_model("VGG-16")
    jobs = _jobs(machines, [resnet, vgg])
    SweepRunner(
        max_workers=1, cache=ResultCache(cache_dir=tmp_path), manifest=False
    ).run(jobs)

    victim = machines[0]
    resnet_shapes = {layer.shape_key for layer in resnet.unique_layers}
    layer = next(
        layer for layer in vgg.unique_layers
        if layer.shape_key not in resnet_shapes
    )
    key = layer_cache_key(simulator_fingerprint(victim), layer, False)
    shard = tmp_path / f"{key[0]}.jsonl"
    entries = [json.loads(r) for r in store.parse_log(shard.read_bytes()).records]
    (entry,) = [e for e in entries if e[1] == key]
    good = layer_result_unpack(entry[2])
    bad = replace(good, communication_time_s=-1e-3)
    entry[2] = layer_result_pack(bad)
    assert store.rewrite_log(
        shard, [json.dumps(e, separators=(",", ":")).encode() for e in entries]
    )
    expected = {v.code for v in audit_layer_result(bad, victim.spec)}
    assert "INV-TIME-NEG" in expected

    runner = SweepRunner(
        max_workers=1,
        cache=ResultCache(cache_dir=tmp_path),
        manifest=False,
        on_error="skip",
    )
    results = runner.run(jobs)
    failed = jobs.index(SweepJob(victim, vgg))
    (failure,) = runner.failures
    assert failure.index == failed
    assert failure.error_type == "InvariantViolationError"
    assert {v["code"] for v in failure.violations} == expected
    assert [i for i, r in enumerate(results) if r is None] == [failed]


def test_grid_lanes_are_plain_layer_results():
    """The kernel returns ordinary results, and so does the runner's
    stitch, including the lanes it rebinds to a same-shape layer of
    another name."""
    simulators = _family_pair()
    models = [*_models(3), LayerSet("renamed", [_layer("x", c=2, k=4)])]
    layers = [layer for model in models[:3] for layer in model.unique_layers]
    outcome = evaluate_grid(simulators, layers)
    assert outcome.lanes == len(simulators) * len(layers)
    assert {
        type(lane) for row in outcome.by_machine for lane in row.values()
    } == {LayerResult}
    runner = SweepRunner(max_workers=1, cache=NullCache(), manifest=False)
    results = runner.run(_jobs(simulators, models))
    assert [d.plan for d in runner.plan_decisions] == ["grid"]
    assert {type(lane) for r in results for lane in r.layers} == {LayerResult}
    # "x" shares l0a's shape, so its lane is l0a's, rebound to "x".
    assert [r.layers[0].layer.name for r in results[-2:]] == ["x", "x"]
