"""The cache/runner seam: one lookup, per-simulator keys, counted rejects.

* every route resolves shapes through ``ResultCache.lookup`` (or
  ``NullCache.lookup``) and keeps the cache accounting it always had;
* cache keys are memoised on their simulator object and die with it;
  the memo entry follows in-place component swaps;
* a framed block that fails its checks is a counted storage event;
* a disk entry the memory tier dropped is rebuilt from its block.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import struct
import sys
import warnings

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
from repro.serialization import BLOCK_COLUMNS, model_result_to_dict
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
    # Capacity 4 evicts: disk hits the memory tier drops are rebuilt
    # from their block (4 more disk hits in the second run).  Only the
    # evicted entries this cache computed itself miss again: a cache
    # indexes the blocks it read, not the ones it wrote.
    ("grid", "disk-capacity-4"): [
        ((4, 2, 4, 2), [(0, 0)] * 4),
        ((9, 3, 8, 3), [(0, 0)] * 4),
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
        ((12, 4, 8, 4), [(2, 0), (2, 0), (1, 1), (1, 1)]),
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
        pytest.param(
            ("float_exceptions",), [99, 1.0], id="float-exception-out-of-range"
        ),
        pytest.param(("layer.c", 0), "x", id="layer-c-str"),
    ],
)
def test_rejected_record_is_counted(tmp_path, path, value):
    """A framed block of this schema that fails its checks is counted
    once as rejected -- in the cache stats, the storage health and the
    campaign report -- and every key of it is recomputed."""
    simulator = spacx_simulator()
    net_a, _ = _models()
    job = SweepJob(simulator, net_a)
    SweepRunner(
        max_workers=1, cache=ResultCache(cache_dir=tmp_path), manifest=False
    ).run([job])
    shard = sorted(tmp_path.glob("*.jsonl"))[0]
    (record,) = store.read_log(shard)
    rows = len(record[1])
    column = 2 + BLOCK_COLUMNS.index(path[0])
    if len(path) == 1:
        record[column] = value
    else:
        record[column][path[1]] = value
    assert store.rewrite_log(shard, [json.dumps(record).encode()])

    cache = ResultCache(cache_dir=tmp_path)
    runner = SweepRunner(max_workers=1, cache=cache, manifest=False)
    (result,) = runner.run([job])
    assert model_result_to_dict(result) == model_result_to_dict(
        simulator.simulate_model(net_a)
    )
    stats = cache.stats
    assert (stats.misses, stats.puts) == (rows, rows) == (2, 2)
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


# ----------------------------------------------------------------------
# Evicted disk entries and older schemas
# ----------------------------------------------------------------------
def _shard_bytes(directory) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.jsonl"))}


def test_evicted_disk_hits_are_rebuilt_from_their_block(tmp_path):
    """ResNet-50 on SPACX over a filled disk tier with room for 4
    results in memory: the memory tier evicts disk hits, and a second
    pass -- and a pass after ``clear()`` -- rebuilds them from their
    block: no miss, no put, not a byte appended."""
    from repro.models.zoo import get_model

    simulator = spacx_simulator()
    job = SweepJob(simulator, get_model("ResNet-50"))
    SweepRunner(
        max_workers=1, cache=ResultCache(cache_dir=tmp_path), manifest=False
    ).run([job])
    before = _shard_bytes(tmp_path)
    expected = model_result_to_dict(simulator.simulate_model(job.model))
    unique = len(batch._model_structure(job.model)[0])
    cache = ResultCache(capacity=4, cache_dir=tmp_path)
    with SweepRunner(max_workers=1, cache=cache, manifest=False) as runner:
        for _ in range(2):
            (result,) = runner.run([job])
            assert model_result_to_dict(result) == expected
        stats = cache.stats
        assert (stats.misses, stats.puts) == (0, 0)
        assert stats.disk_hits > unique  # the second pass rebuilt some
        cache.clear()
        (result,) = runner.run([job])
    assert model_result_to_dict(result) == expected
    stats = cache.stats
    assert (stats.misses, stats.puts, stats.disk_hits) == (0, 0, unique)
    assert _shard_bytes(tmp_path) == before


def _schema_1_packed(result) -> list:
    """A result in the schema-1 per-entry positional form."""

    def fields(obj, skip=()) -> list:
        return [
            getattr(obj, f.name)
            for f in dataclasses.fields(obj)
            if f.name not in skip
        ]

    mapping = fields(result.mapping, ("layer", "dataflow"))
    energy = result.energy
    floats = [
        result.computation_time_s,
        result.communication_time_s,
        result.exposed_communication_s,
        result.packet_latency_s,
        *fields(energy, ("network",)),
        *fields(energy.network),
    ]
    return [
        [result.accelerator, result.delivered_bytes],
        fields(result.layer),
        [None, result.mapping.dataflow.value, *mapping],
        fields(result.traffic),
        struct.pack(f"<{len(floats)}d", *floats).hex(),
        [],
    ]


def test_schema_1_directory_reads_as_misses(tmp_path, monkeypatch):
    """16 key-prefix shards of schema-1 per-entry records: a sweep over
    them misses every shape, raises and warns nothing, counts no
    rejection or quarantine, and leaves every file as it was."""
    simulator = spacx_simulator()
    with monkeypatch.context() as patch:
        patch.setattr(batch, "CACHE_SCHEMA_VERSION", 1)
        old_fingerprint = simulator_fingerprint(spacx_simulator())
    layers: list = []
    shards: dict = {}
    for c in range(1, 400):
        layer = _layer(f"s{c}", c=c)
        key = hashlib.sha256(
            f"1|{old_fingerprint}|{layer.shape_key!r}|0".encode()
        ).hexdigest()
        result = simulator.simulate_layer(layer, layer_by_layer=False)
        shards.setdefault(key[:1], []).append(
            json.dumps([1, key, _schema_1_packed(result)]).encode()
        )
        layers.append(layer)
        if len(shards) == 16 and len(layers) >= 48:
            break
    for shard, payloads in shards.items():
        assert store.append_record(tmp_path / f"{shard}.jsonl", *payloads)
    before = _shard_bytes(tmp_path)
    assert len(before) == 16

    model = LayerSet("schema-1", layers)
    cache = ResultCache(cache_dir=tmp_path, disk_puts=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runner = SweepRunner(max_workers=1, cache=cache, manifest=False)
        (result,) = runner.run([SweepJob(simulator, model)])
        old_keys = [json.loads(p)[1] for ps in shards.values() for p in ps]
        assert [cache.get(key) for key in old_keys] == [None] * len(old_keys)
    assert model_result_to_dict(result) == model_result_to_dict(
        simulator.simulate_model(model)
    )
    stats = cache.stats
    assert stats.misses == len(layers) + len(old_keys)
    assert stats.disk_hits == stats.skipped_records == 0
    assert not cache.health.noteworthy
    assert not list(tmp_path.glob("*.quarantine"))
    assert _shard_bytes(tmp_path) == before
