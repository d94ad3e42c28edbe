"""Sweep-engine invariants: cache, keys, runner and disk tier.

Property-based (hypothesis) and example-based checks of the contracts
:mod:`repro.core.batch` promises:

* a cache hit returns a result identical to a fresh simulation;
* cache keys are shape-addressed, mode-sensitive and spec-sensitive;
* the parallel runner reproduces serial results exactly and falls
  back to the serial path when the pool cannot be used;
* the disk tier round-trips bit-exactly and shrugs off torn or
  corrupt lines.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import batch, store
from repro.core.batch import (
    NullCache,
    ResultCache,
    SweepJob,
    SweepRunner,
    layer_cache_key,
    simulate_layer_cached,
    simulate_model_cached,
    simulator_fingerprint,
)
from repro.core.layer import ConvLayer, LayerSet
from repro.errors import ReproWarning
from repro.serialization import (
    layer_result_pack,
    layer_result_to_dict,
    layer_result_unpack,
)
from repro.spacx.architecture import spacx_simulator


@pytest.fixture(scope="module")
def simulator():
    return spacx_simulator()


@pytest.fixture(scope="module")
def fingerprint(simulator):
    return simulator_fingerprint(simulator)


def _layer(name="probe", c=8, k=8, r=3, s=3, h=8, w=8, **kw) -> ConvLayer:
    return ConvLayer(name=name, c=c, k=k, r=r, s=s, h=h, w=w, **kw)


# ----------------------------------------------------------------------
# Cache-hit identity (property-based)
# ----------------------------------------------------------------------
@st.composite
def layer_shapes(draw):
    r = draw(st.integers(1, 3))
    s = draw(st.integers(1, 3))
    return dict(
        c=draw(st.integers(1, 12)),
        k=draw(st.integers(1, 12)),
        r=r,
        s=s,
        h=draw(st.integers(r, 10)),
        w=draw(st.integers(s, 10)),
        stride=draw(st.integers(1, 2)),
        batch=draw(st.integers(1, 2)),
    )


@settings(max_examples=25, deadline=None)
@given(shape=layer_shapes())
def test_cache_hit_is_identical_to_fresh_simulation(simulator, shape):
    layer = _layer(**shape)
    cache = ResultCache()
    first = simulate_layer_cached(simulator, layer, cache=cache)
    second = simulate_layer_cached(simulator, layer, cache=cache)
    fresh = simulator.simulate_layer(layer, layer_by_layer=True)
    assert second == first == fresh
    assert layer_result_to_dict(second) == layer_result_to_dict(fresh)
    assert cache.stats.hits == 1 and cache.stats.misses == 1


@settings(max_examples=25, deadline=None)
@given(shape=layer_shapes())
def test_packed_disk_encoding_round_trips_exactly(simulator, shape):
    result = simulator.simulate_layer(_layer(**shape), layer_by_layer=True)
    # Through JSON, as the disk tier stores it.
    packed = json.loads(json.dumps(layer_result_pack(result)))
    restored = layer_result_unpack(packed)
    assert restored == result
    assert layer_result_to_dict(restored) == layer_result_to_dict(result)


# ----------------------------------------------------------------------
# Key semantics
# ----------------------------------------------------------------------
def test_key_is_shape_addressed_and_mode_sensitive(fingerprint):
    a = _layer("conv_a")
    b = _layer("conv_b")  # same shape, different name
    c = _layer("conv_c", c=16)  # different shape
    key_a = layer_cache_key(fingerprint, a, False)
    assert key_a == layer_cache_key(fingerprint, b, False)
    assert key_a != layer_cache_key(fingerprint, c, False)
    assert key_a != layer_cache_key(fingerprint, a, True)


def test_fifo_memos_survive_concurrent_eviction(simulator, monkeypatch):
    """``repro serve``'s runner slots share the kernel's FIFO
    shared-lowering memo, and may resolve one simulator's shapes at
    once.  Four threads, each with its own cache (as each slot has),
    looking shapes up through ``ResultCache.lookup`` and inserting into
    the lowering memo at capacity, with the interpreter switching
    threads as often as it can, must never raise, and every key the
    simulator's memo hands out must be the pure key."""
    from repro.core import vectorized

    monkeypatch.setattr(vectorized, "_SHARED_MEMO", {})
    monkeypatch.setattr(vectorized, "_SHARED_MEMO_LIMIT", 4)
    fingerprint = simulator_fingerprint(simulator)
    errors: list[BaseException] = []
    wrong: list[tuple] = []
    start = threading.Barrier(4)

    def resolve(thread: int) -> None:
        try:
            cache = ResultCache()
            start.wait(timeout=60)
            for i in range(3000):
                # Two threads per channel count: half the shapes are
                # looked up by two threads at once.
                layer = ConvLayer(
                    name="m", c=1 + thread % 2, k=1 + i, r=1, s=1, h=1, w=1
                )
                _, misses = cache.lookup(
                    simulator, {layer.shape_key: layer}, False
                )
                key = misses[layer.shape_key]
                if key != layer_cache_key(fingerprint, layer, False):
                    wrong.append((thread, i))
                vectorized._shared_lower([layer])
        except BaseException as exc:  # noqa: BLE001 -- reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=resolve, args=(t,)) for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert wrong == []
    assert len(vectorized._SHARED_MEMO) <= 4


def test_fingerprint_tracks_every_numeric_spec_field(simulator):
    """Perturbing any one spec field must change the cache keyspace."""
    import dataclasses

    spec = simulator.spec
    base = simulator_fingerprint(simulator)
    perturbed_fields = []
    for field in dataclasses.fields(spec):
        value = getattr(spec, field.name)
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            continue  # nested structures are covered by their own specs
        new_value = value + "x" if isinstance(value, str) else value * 2 + 1
        try:
            new_spec = dataclasses.replace(spec, **{field.name: new_value})
            clone = type(simulator)(
                new_spec, simulator.compute_energy, simulator.network_energy
            )
        except ValueError:
            continue  # perturbation violates spec/mapping validation
        assert simulator_fingerprint(clone) != base, field.name
        perturbed_fields.append(field.name)
    assert len(perturbed_fields) >= 10  # the spec is genuinely covered


def test_fingerprint_tracks_energy_models(simulator):
    """Same spec, different energy model state => different key space."""

    class Tweaked(type(simulator.compute_energy)):
        pass

    tweaked = Tweaked.__new__(Tweaked)
    tweaked.__dict__.update(vars(simulator.compute_energy))
    clone = type(simulator)(
        simulator.spec, tweaked, simulator.network_energy
    )
    assert simulator_fingerprint(clone) != simulator_fingerprint(simulator)


def test_fingerprint_memo_is_per_object(simulator):
    assert simulator_fingerprint(simulator) == simulator_fingerprint(simulator)
    other = spacx_simulator(chiplets=16)
    assert simulator_fingerprint(other) != simulator_fingerprint(simulator)


# ----------------------------------------------------------------------
# Memory tier
# ----------------------------------------------------------------------
def test_lru_eviction_and_stats(simulator, fingerprint):
    cache = ResultCache(capacity=2)
    layers = [_layer(f"l{i}", c=2 ** i) for i in range(3)]
    keys = [layer_cache_key(fingerprint, layer, True) for layer in layers]
    results = [
        simulator.simulate_layer(layer, layer_by_layer=True) for layer in layers
    ]
    cache.put(keys[0], results[0])
    cache.put(keys[1], results[1])
    assert cache.get(keys[0]) == results[0]  # refresh 0 => 1 is now LRU
    cache.put(keys[2], results[2])  # evicts 1
    assert cache.get(keys[1]) is None
    assert cache.get(keys[0]) == results[0]
    assert cache.get(keys[2]) == results[2]
    assert len(cache) == 2
    stats = cache.stats
    assert (stats.hits, stats.misses, stats.puts) == (3, 1, 3)
    cache.clear()
    assert len(cache) == 0 and cache.stats.hits == 0


def test_null_cache_never_hits(simulator):
    cache = NullCache()
    layer = _layer()
    first = simulate_layer_cached(simulator, layer, cache=cache)
    second = simulate_layer_cached(simulator, layer, cache=cache)
    assert first == second
    assert cache.stats.hits == 0 and cache.stats.misses == 2
    assert len(cache) == 0


# ----------------------------------------------------------------------
# Disk tier
# ----------------------------------------------------------------------
def test_disk_tier_round_trip(tmp_path, simulator):
    layer = _layer()
    writer = ResultCache(cache_dir=tmp_path)
    written = simulate_layer_cached(simulator, layer, cache=writer)

    reader = ResultCache(cache_dir=tmp_path)
    restored = simulate_layer_cached(simulator, layer, cache=reader)
    assert restored == written
    assert reader.stats.disk_hits == 1 and reader.stats.misses == 0


def test_disk_tier_survives_torn_and_corrupt_lines(tmp_path, simulator):
    layer = _layer()
    writer = ResultCache(cache_dir=tmp_path)
    written = simulate_layer_cached(simulator, layer, cache=writer)

    # Mangle every shard file: prepend garbage, a truncated line and a
    # well-framed entry with a corrupt float blob, then keep the good
    # framed record last.
    for shard in tmp_path.glob("*.jsonl"):
        good = shard.read_bytes()
        key = json.loads(store.parse_log(good).records[0])[1]
        corrupt = store.frame_record(
            json.dumps(
                [batch.CACHE_SCHEMA_VERSION, key, [[], [], [], [], "zz", []]]
            ).encode()
        )
        shard.write_bytes(b'not json\n{"torn": \n' + corrupt + good)

    reader = ResultCache(cache_dir=tmp_path)
    with pytest.warns(ReproWarning, match="quarantined"):
        restored = simulate_layer_cached(simulator, layer, cache=reader)
    assert restored == written  # last valid line wins
    assert reader.stats.disk_hits == 1
    # The two unparseable mid-file lines were preserved, not dropped.
    assert reader.stats.quarantined_records == 2
    quarantine = next(tmp_path.glob("*.jsonl")).with_suffix(
        ".jsonl" + store.QUARANTINE_SUFFIX
    )
    assert quarantine.read_bytes() == b'not json\n{"torn": \n'


def test_corrupt_only_entry_is_a_miss(tmp_path, simulator, fingerprint):
    layer = _layer()
    writer = ResultCache(cache_dir=tmp_path)
    simulate_layer_cached(simulator, layer, cache=writer)
    key = layer_cache_key(fingerprint, layer, True)
    for shard in tmp_path.glob("*.jsonl"):
        entry = json.loads(store.parse_log(shard.read_bytes()).records[0])
        entry[2] = entry[2][:3]  # truncate the packed payload
        shard.write_bytes(
            store.frame_record(json.dumps(entry).encode())
        )
    reader = ResultCache(cache_dir=tmp_path)
    assert reader.get(key) is None
    assert reader.stats.misses == 1 and reader.stats.disk_hits == 0


@pytest.mark.parametrize(
    "exceptions", [[99, 1.0], [0], [-1, 5.0], [True, 1.0]]
)
def test_malformed_float_exceptions_are_a_miss(
    tmp_path, simulator, exceptions
):
    """A record whose float exceptions are not in-range ``[index,
    value]`` pairs -- under a valid frame -- is a miss: the runner
    recomputes it instead of raising or serving an overwritten slot."""
    jobs = [SweepJob(simulator, model) for model in _tiny_models()]
    SweepRunner(
        max_workers=1, cache=ResultCache(cache_dir=tmp_path), manifest=False
    ).run(jobs)
    shard = sorted(tmp_path.glob("*.jsonl"))[0]
    entries = [
        json.loads(r) for r in store.parse_log(shard.read_bytes()).records
    ]
    entries[0][2][5] = exceptions
    assert store.rewrite_log(shard, [json.dumps(e).encode() for e in entries])

    cache = ResultCache(cache_dir=tmp_path)
    results = SweepRunner(max_workers=1, cache=cache, manifest=False).run(jobs)
    assert [r.layers for r in results] == [
        simulator.simulate_model(job.model).layers for job in jobs
    ]
    assert cache.stats.misses == 1
    with pytest.raises(ValueError, match="float exceptions"):
        layer_result_unpack(entries[0][2])


@pytest.mark.parametrize(
    "path, value",
    [
        pytest.param((1, 1), "x", id="layer-c-str"),
        pytest.param((1, 1), 64.0, id="layer-c-float"),
        pytest.param((1, 1), True, id="layer-c-bool"),
        pytest.param((2, 2), "x", id="mapping-compute-cycles-str"),
        pytest.param((3, 0), "x", id="traffic-count-str"),
        pytest.param((3, 0), None, id="traffic-count-null"),
        pytest.param((0, 1), "x", id="delivered-bytes-str"),
        pytest.param((5,), [0, "x"], id="exception-value-str"),
        pytest.param((5,), [0, None], id="exception-value-null"),
    ],
)
def test_wrong_typed_record_is_recomputed(tmp_path, simulator, path, value):
    """A record holding a value of the wrong type for its field --
    under a valid frame -- is a miss: the runner recomputes it and
    returns what an uncached run returns, instead of raising out of
    ``run``, failing the job or serving the wrong value."""
    from repro.models.zoo import get_model
    from repro.serialization import model_result_to_dict

    job = SweepJob(simulator, get_model("VGG-16"))
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
    (result,) = SweepRunner(
        max_workers=1, cache=cache, manifest=False, on_error="skip"
    ).run([job])
    assert result is not None
    assert model_result_to_dict(result) == model_result_to_dict(
        simulator.simulate_model(job.model)
    )
    assert cache.stats.misses == 1
    with pytest.raises(ValueError):
        layer_result_unpack(entries[0][2])


def test_legacy_unframed_shards_still_readable(tmp_path, simulator):
    """Pre-store caches (bare JSON lines) keep serving warm hits."""
    layer = _layer()
    writer = ResultCache(cache_dir=tmp_path)
    written = simulate_layer_cached(simulator, layer, cache=writer)
    for shard in tmp_path.glob("*.jsonl"):
        records = store.parse_log(shard.read_bytes()).records
        shard.write_bytes(b"".join(r + b"\n" for r in records))  # unframe
    reader = ResultCache(cache_dir=tmp_path)
    restored = simulate_layer_cached(simulator, layer, cache=reader)
    assert restored == written
    assert reader.stats.disk_hits == 1
    assert reader.health.legacy_records == 1


# ----------------------------------------------------------------------
# Model-level caching and the runner
# ----------------------------------------------------------------------
def _tiny_models() -> list[LayerSet]:
    shared = dict(c=4, k=4, r=3, s=3, h=6, w=6)
    net_a = LayerSet(
        "net-a",
        [
            _layer("a1", **shared),
            _layer("a2", **shared),  # duplicate shape, distinct name
            _layer("a3", c=8, k=4, r=1, s=1, h=4, w=4),
        ],
    )
    net_b = LayerSet(
        "net-b",
        [
            _layer("b1", **shared),  # same shape as a1 across models
            _layer("b2", c=2, k=6, r=3, s=3, h=8, w=8),
        ],
    )
    return [net_a, net_b]


def test_model_caching_matches_uncached_run(simulator):
    cache = ResultCache()
    for model in _tiny_models():
        plain = simulator.simulate_model(model)
        cached_cold = simulate_model_cached(simulator, model, cache=cache)
        cached_warm = simulate_model_cached(simulator, model, cache=cache)
        for a, b, c in zip(plain.layers, cached_cold.layers, cached_warm.layers):
            assert a == b == c
            assert a.layer.name == b.layer.name == c.layer.name


def test_cross_model_hit_rebinds_layer_name(simulator):
    cache = ResultCache()
    net_a, net_b = _tiny_models()
    simulate_model_cached(simulator, net_a, cache=cache)
    hits_before = cache.stats.hits
    result_b = simulate_model_cached(simulator, net_b, cache=cache)
    assert cache.stats.hits > hits_before  # b1 reused a1's entry ...
    assert result_b.layers[0].layer.name == "b1"  # ... under b's name
    assert result_b.layers[0].layer == net_b.all_layers[0]


def test_runner_parallel_matches_serial(simulator):
    models = _tiny_models()
    sims = [simulator, spacx_simulator(chiplets=16)]
    serial = SweepRunner(max_workers=1, cache=NullCache()).run_models(sims, models)
    runner = SweepRunner(max_workers=2, cache=NullCache())
    parallel = runner.run_models(sims, models)
    assert {
        m: {a: [layer_result_to_dict(r) for r in res.layers] for a, res in per.items()}
        for m, per in parallel.items()
    } == {
        m: {a: [layer_result_to_dict(r) for r in res.layers] for a, res in per.items()}
        for m, per in serial.items()
    }
    assert len(runner.stats) == len(models) * len(sims)


def test_runner_falls_back_when_jobs_do_not_pickle(simulator, caplog):
    unpicklable = spacx_simulator()
    unpicklable.poison = lambda: None  # lambdas cannot be pickled
    models = _tiny_models()
    # Force the pool plan: the auto planner would (correctly) keep a
    # tiny single-machine campaign in-process and never hit pickling.
    runner = SweepRunner(max_workers=2, cache=NullCache(), exec_plan="pool")
    with caplog.at_level("WARNING", logger="repro.core.batch"):
        results = runner.run(
            [SweepJob(unpicklable, model) for model in models]
        )
    assert runner.used_fallback
    # The reason is recorded (exception repr) and a warning was logged.
    assert runner.fallback_reason is not None
    assert "pickle" in runner.fallback_reason.lower()
    assert any(
        "falling back to serial" in record.getMessage()
        for record in caplog.records
    )
    assert [r.model for r in results] == [m.name for m in models]
    assert all(stat.mode == "serial" for stat in runner.stats)


def test_fallback_reason_clear_on_clean_runs(simulator):
    runner = SweepRunner(max_workers=1, cache=NullCache())
    runner.run([SweepJob(simulator, _tiny_models()[0])])
    assert not runner.used_fallback
    assert runner.fallback_reason is None


def test_parallel_run_seeds_parent_cache(simulator):
    models = _tiny_models()
    cache = ResultCache()
    runner = SweepRunner(max_workers=2, cache=cache)
    runner.run([SweepJob(simulator, model) for model in models])
    if runner.used_fallback:
        pytest.skip("pool unavailable on this platform")
    # A follow-up serial pass should be fully warm.
    follow_up = SweepRunner(max_workers=1, cache=cache)
    follow_up.run([SweepJob(simulator, model) for model in models])
    assert all(stat.cache_misses == 0 for stat in follow_up.stats)
