"""The cache/runner seam: one lookup, per-simulator keys, counted rejects.

* every route resolves shapes through ``ResultCache.lookup`` (or
  ``NullCache.lookup``) and keeps the cache accounting it always had;
* cache keys are memoised on their simulator object and die with it;
  the memo entry follows in-place component swaps;
* a framed record the unpacker rejects is a counted storage event.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import sys

import pytest

from repro.core import batch, store
from repro.core.batch import (
    NullCache,
    ResultCache,
    SweepJob,
    SweepRunner,
    layer_cache_key,
    simulate_model_cached,
    simulator_fingerprint,
)
from repro.core.layer import ConvLayer, LayerSet
from repro.core.simulator import Simulator
from repro.serialization import model_result_to_dict
from repro.spacx.architecture import spacx_simulator


def _layer(name, c=8, k=8) -> ConvLayer:
    return ConvLayer(name=name, c=c, k=k, r=3, s=3, h=8, w=8)


def _models() -> tuple[LayerSet, LayerSet]:
    """Two models sharing one shape under different names; the first
    also repeats a shape within itself."""
    net_a = LayerSet(
        "net-a", [_layer("a1"), _layer("b1", c=12), _layer("a2")]
    )
    net_b = LayerSet("net-b", [_layer("b2", c=12), _layer("c1", k=16)])
    return net_a, net_b


# ----------------------------------------------------------------------
# Accounting: pinned at the numbers the routes produced before they
# shared one lookup.
# ----------------------------------------------------------------------
#: route, cache -> per run (two runs on one runner):
#: ((hits, misses, disk_hits, puts) cumulative, per-job (hits, misses)).
_ACCOUNTING = {
    ("grid", "disk"): [
        ((4, 2, 4, 2), [(0, 0)] * 4),
        ((10, 2, 4, 2), [(0, 0)] * 4),
    ],
    # Capacity 4 evicts: disk hits the memory tier drops are not
    # served again, so the second run recomputes them.
    ("grid", "disk-capacity-4"): [
        ((4, 2, 4, 2), [(0, 0)] * 4),
        ((8, 4, 4, 4), [(0, 0)] * 4),
    ],
    ("grid", "null"): [
        ((0, 6, 0, 0), [(0, 0)] * 4),
        ((0, 12, 0, 0), [(0, 0)] * 4),
    ],
    ("serial", "disk"): [
        ((6, 2, 4, 2), [(2, 0), (2, 0), (1, 1), (1, 1)]),
        ((14, 2, 4, 2), [(2, 0)] * 4),
    ],
    ("serial", "disk-capacity-4"): [
        ((6, 2, 4, 2), [(2, 0), (2, 0), (1, 1), (1, 1)]),
        ((10, 6, 4, 6), [(1, 1)] * 4),
    ],
    ("serial", "null"): [
        ((0, 8, 0, 0), [(0, 2)] * 4),
        ((0, 16, 0, 0), [(0, 2)] * 4),
    ],
}


@pytest.mark.parametrize(
    "route, kind", list(_ACCOUNTING), ids=["-".join(k) for k in _ACCOUNTING]
)
def test_warm_campaign_accounting_is_unchanged(tmp_path, route, kind):
    """2 machines x 2 models over a disk tier warmed by the first
    model: disk hits, memory hits, a shape shared across models, and
    misses, counted per route exactly as before."""
    net_a, net_b = _models()
    sims = [spacx_simulator(), spacx_simulator(ef_granularity=2)]
    if kind == "null":
        cache = NullCache()
    else:
        cold = ResultCache(cache_dir=tmp_path)
        with SweepRunner(max_workers=1, cache=cold, manifest=False) as runner:
            runner.run([SweepJob(s, net_a) for s in sims])
        capacity = 4 if kind == "disk-capacity-4" else 4096
        cache = ResultCache(capacity=capacity, cache_dir=tmp_path)
    jobs = [SweepJob(s, m) for m in (net_a, net_b) for s in sims]
    plan = {"serial": "serial", "grid": "auto"}[route]
    seen = []
    with SweepRunner(
        max_workers=1, cache=cache, manifest=False, exec_plan=plan
    ) as runner:
        for _ in range(2):
            results = runner.run(jobs)
            assert {d.plan for d in runner.plan_decisions} == {route}
            assert [model_result_to_dict(r) for r in results] == [
                model_result_to_dict(j.simulator.simulate_model(j.model))
                for j in jobs
            ]
            stats = cache.stats
            seen.append(
                (
                    (stats.hits, stats.misses, stats.disk_hits, stats.puts),
                    [(s.cache_hits, s.cache_misses) for s in runner.stats],
                )
            )
    assert seen == _ACCOUNTING[route, kind]


# ----------------------------------------------------------------------
# Key lifetime
# ----------------------------------------------------------------------
def test_keys_die_with_their_simulator():
    simulator = spacx_simulator(ef_granularity=4)
    net_a, _ = _models()
    need = {layer.shape_key: layer for layer in net_a.unique_layers}
    ResultCache().lookup(simulator, need, False)
    entry = batch._SIMULATOR_MEMO[simulator]
    assert set(entry.keys[False]) == set(need)
    # The entry must not point back at its weak key.
    assert all(ref is not simulator for ref in gc.get_referents(entry))
    del simulator
    gc.collect()
    assert all(other is not entry for other in batch._SIMULATOR_MEMO.values())
    assert sys.getrefcount(entry) == 2  # this frame and the call's argument


def test_value_equal_simulators_get_equal_pure_keys():
    first, second = spacx_simulator(), spacx_simulator()
    _, net_b = _models()
    need = {layer.shape_key: layer for layer in net_b.unique_layers}
    fingerprint = simulator_fingerprint(first)
    for layer_by_layer in (False, True):
        keys = [
            ResultCache().lookup(sim, need, layer_by_layer)[1]
            for sim in (first, second)
        ]
        assert keys[0] == keys[1] == {
            shape: layer_cache_key(fingerprint, layer, layer_by_layer)
            for shape, layer in need.items()
        }
    assert batch._SIMULATOR_MEMO[first] is not batch._SIMULATOR_MEMO[second]


def test_double_swapped_spec_never_reuses_a_stale_fingerprint():
    """Swapping a live simulator's spec twice frees the first spec
    while the second is alive, so the third can land at the first
    one's address: a memo validated by ``id()`` then handed back the
    first machine's fingerprint, and its cached results.  Frequency is
    outside the mapping slice, so these swaps need no
    ``_mapping_params`` refresh."""
    simulator = spacx_simulator()
    net_a, _ = _models()
    cache = ResultCache()
    simulate_model_cached(simulator, net_a, cache=cache)
    for i in range(50):
        simulator_fingerprint(simulator)
        simulator.spec = dataclasses.replace(simulator.spec, frequency_ghz=1.0)
        simulator.spec = dataclasses.replace(
            simulator.spec, frequency_ghz=2.0 + i
        )
        clone = Simulator(
            simulator.spec, simulator.compute_energy, simulator.network_energy
        )
        assert simulator_fingerprint(simulator) == simulator_fingerprint(
            clone
        ), i
        del clone
    oracle = Simulator(
        simulator.spec, simulator.compute_energy, simulator.network_energy
    ).simulate_model(net_a)
    served = simulate_model_cached(simulator, net_a, cache=cache)
    assert model_result_to_dict(served) == model_result_to_dict(oracle)


# ----------------------------------------------------------------------
# Rejected records
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "path, value",
    [
        pytest.param((5,), [99, 1.0], id="float-exception-out-of-range"),
        pytest.param((1, 1), "x", id="layer-c-str"),
    ],
)
def test_rejected_record_is_counted(tmp_path, path, value):
    """A framed record of this schema that fails to unpack is counted
    as rejected -- in the cache stats, the storage health and the
    campaign report -- and recomputed."""
    simulator = spacx_simulator()
    net_a, _ = _models()
    job = SweepJob(simulator, net_a)
    SweepRunner(
        max_workers=1, cache=ResultCache(cache_dir=tmp_path), manifest=False
    ).run([job])
    shard = sorted(tmp_path.glob("*.jsonl"))[0]
    entries = [
        json.loads(r) for r in store.parse_log(shard.read_bytes()).records
    ]
    target = entries[0][2]
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    assert store.rewrite_log(shard, [json.dumps(e).encode() for e in entries])

    cache = ResultCache(cache_dir=tmp_path)
    runner = SweepRunner(max_workers=1, cache=cache, manifest=False)
    (result,) = runner.run([job])
    assert model_result_to_dict(result) == model_result_to_dict(
        simulator.simulate_model(net_a)
    )
    stats = cache.stats
    assert (stats.misses, stats.puts) == (1, 1)
    assert stats.rejected_records == stats.skipped_records == 1
    health = cache.health
    assert health.rejected_records == 1 and health.noteworthy
    assert "1 rejected record(s) recomputed" in health.describe()
    assert health.to_dict()["rejected_records"] == 1
    assert store.StorageHealth.merged([health, health]).rejected_records == 2
    assert "rejected record(s)" in runner.campaign_report()
    assert (
        runner.campaign_report(as_dict=True)["storage"]["rejected_records"]
        == 1
    )
    # The recomputed entry went in after the rejected one: last wins.
    again = ResultCache(cache_dir=tmp_path)
    SweepRunner(max_workers=1, cache=again, manifest=False).run([job])
    assert again.stats.misses == 0 and again.health.rejected_records == 0
