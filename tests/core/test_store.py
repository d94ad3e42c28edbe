"""Chaos suite for the crash-consistent storage layer (repro.core.store).

Proves the tentpole guarantees the sweep engine's durability story
rests on:

* framed records survive truncation at **every byte offset** -- the
  valid prefix is always recovered, the torn tail is skipped and
  counted, and nothing mid-file is misclassified (hypothesis-driven);
* mid-file corruption is detected by CRC/length validation and
  quarantined to ``*.quarantine`` verbatim, never silently dropped;
* advisory locks exclude concurrent writers, and the non-flock
  fallback breaks stale locks (dead owner + expired heartbeat) while
  leaving live ones alone;
* ENOSPC/EIO on the write path (injected via
  :class:`crashkit.WriteErrorInjector`) degrades to memory-only
  operation with exactly one :class:`~repro.errors.ReproWarning` per
  path -- campaigns keep running and report ``storage: DEGRADED``;
* four concurrent writer processes sharing one append log -- and four
  concurrent SweepRunner processes sharing one cache directory --
  produce no lost, duplicated or corrupt records;
* a campaign SIGKILLed mid-run whose cache *and* manifest are then
  deliberately damaged still resumes to the full-zoo golden digest,
  byte-for-byte, with the pool and vectorized paths composed in;
* ``repro doctor --cache`` finds damage (exit 1), repairs it, and a
  rescan comes back clean (exit 0).
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crashkit import CrashingSimulator, WriteErrorInjector
from repro.baselines.simba import simba_simulator
from repro.cli import main
from repro.core import batch, store
from repro.core.batch import NullCache, ResultCache, SweepJob, SweepRunner
from repro.core.campaign import CampaignManifest
from repro.core.layer import ConvLayer, LayerSet
from repro.errors import ConfigError, ReproWarning
from repro.serialization import unpack_block
from repro.spacx.architecture import spacx_simulator

SRC_DIR = Path(__file__).resolve().parents[2] / "src"
GOLDEN_DIGEST = (
    Path(__file__).resolve().parents[1] / "golden" / "full_sweep_digest.json"
)


@pytest.fixture(autouse=True)
def _fresh_warning_dedup():
    """Each test gets its own once-per-path warning budget."""
    store.reset_warnings()
    yield
    store.reset_warnings()


@pytest.fixture(scope="module")
def simulator():
    return spacx_simulator()


def _layer(name, **kw):
    shape = dict(c=4, k=4, r=3, s=3, h=6, w=6)
    shape.update(kw)
    return ConvLayer(name=name, **shape)


def _models(n=3):
    return [
        LayerSet(f"net-{i}", [_layer(f"l{i}", c=2 + i, k=4 + i)])
        for i in range(n)
    ]


def _digest(results) -> str:
    from repro.serialization import model_result_to_dict

    canonical = json.dumps(
        {
            model: {
                acc: model_result_to_dict(res)
                for acc, res in per_acc.items()
            }
            for model, per_acc in results.items()
        },
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_round_trip(self):
        payloads = [b'{"a":1}', b"[]", b'{"b":[1,2,3]}']
        data = b"".join(store.frame_record(p) for p in payloads)
        scan = store.parse_log(data)
        assert scan.records == payloads
        assert scan.legacy == 0 and scan.torn == 0 and not scan.corrupt

    def test_newline_payload_is_rejected(self):
        with pytest.raises(ValueError):
            store.frame_record(b'{"a":\n1}')

    def test_missing_final_newline_still_validates(self):
        # A complete frame whose trailing newline was cut: the CRC
        # proves integrity, so the record is served, not skipped.
        frame = store.frame_record(b'{"a":1}')
        scan = store.parse_log(frame[:-1])
        assert scan.records == [b'{"a":1}'] and scan.torn == 0

    def test_legacy_bare_json_lines_accepted(self):
        data = b'{"old":1}\n' + store.frame_record(b'{"new":2}')
        scan = store.parse_log(data)
        assert scan.records == [b'{"old":1}', b'{"new":2}']
        assert scan.legacy == 1

    def test_legacy_garbage_is_not_accepted(self):
        data = b"not json at all\n" + store.frame_record(b'{"a":1}')
        scan = store.parse_log(data)
        assert scan.records == [b'{"a":1}']
        assert scan.corrupt == [b"not json at all"]

    def test_flipped_bit_mid_file_is_corrupt_not_torn(self):
        frames = [store.frame_record(p) for p in (b'{"a":1}', b'{"b":2}')]
        bad = bytearray(frames[0])
        bad[-3] ^= 0x01  # flip one payload bit; CRC now mismatches
        scan = store.parse_log(bytes(bad) + frames[1])
        assert scan.records == [b'{"b":2}']
        assert scan.torn == 0 and len(scan.corrupt) == 1

    def test_blank_lines_are_ignored(self):
        data = b"\n" + store.frame_record(b'{"a":1}') + b"\n\n"
        scan = store.parse_log(data)
        assert scan.records == [b'{"a":1}']
        assert scan.torn == 0 and not scan.corrupt

    def test_deeply_nested_legacy_line_is_corrupt_not_raised(self):
        deep = b"[" * 100_000 + b"]" * 100_000
        scan = store.parse_log(deep + b"\n" + store.frame_record(b'{"a":1}'))
        assert scan.records == [b'{"a":1}'] and scan.corrupt == [deep]

    @settings(max_examples=30, deadline=None)
    @given(
        payloads=st.lists(
            st.binary(max_size=24).filter(lambda b: b"\n" not in b),
            min_size=1,
            max_size=4,
        )
    )
    def test_truncation_at_every_offset_recovers_the_prefix(self, payloads):
        """For ANY payloads and ANY cut point: the complete prefix is
        recovered, at most one torn tail is counted, nothing is ever
        misclassified as corruption and nothing raises."""
        frames = [store.frame_record(p) for p in payloads]
        data = b"".join(frames)
        ends, pos = [], 0
        for frame in frames:
            pos += len(frame)
            ends.append(pos)
        for cut in range(len(data) + 1):
            scan = store.parse_log(data[:cut])
            # Frame k is complete once its payload is fully present;
            # the trailing newline is optional for the final frame.
            expected = [
                p for p, end in zip(payloads, ends) if cut >= end - 1
            ]
            assert scan.records == expected, cut
            assert not scan.corrupt, cut
            consumed = ends[len(expected) - 1] if expected else 0
            assert scan.torn == (1 if cut > consumed else 0), cut


# ----------------------------------------------------------------------
# The one reader
# ----------------------------------------------------------------------
class TestReadLog:
    @pytest.mark.parametrize(
        "payload",
        [
            b"not json",
            b"\xff\xfe",
            b'{"a":1},{"b":2}',
            b"",
            b"[" * 100_000 + b"]" * 100_000,
        ],
        ids=["not-json", "not-utf8", "two-values", "empty", "too-deep"],
    )
    def test_a_frame_not_holding_one_json_value_is_corrupt(
        self, tmp_path, payload
    ):
        path = tmp_path / "a.jsonl"
        store.append_record(path, b'{"k":0}', payload, b'{"k":1}')
        quarantine = Path(store.quarantine_path(path))
        # An observer gets the records and writes nothing.
        assert store.read_log(path) == [{"k": 0}, {"k": 1}]
        assert not quarantine.exists()
        health = store.StorageHealth()
        with pytest.warns(ReproWarning, match="quarantined"):
            records = store.read_log(path, health=health)
        assert records == [{"k": 0}, {"k": 1}]
        assert health.quarantined_records == 1
        assert quarantine.read_bytes() == store.frame_record(payload)


# ----------------------------------------------------------------------
# Advisory locking
# ----------------------------------------------------------------------
class TestFileLock:
    def test_exclusive_excludes_and_counts_contention(self, tmp_path):
        path = tmp_path / "log.jsonl.lock"
        health = store.StorageHealth()
        first = store.FileLock(path)
        second = store.FileLock(path, health=health)
        assert first.acquire(timeout_s=1.0)
        assert not second.acquire(timeout_s=0.05)
        assert health.lock_contention == 1
        first.release()
        assert second.acquire(timeout_s=1.0)
        assert health.lock_acquires == 1
        second.release()

    @pytest.mark.skipif(
        not hasattr(store, "fcntl") or store.fcntl is None,
        reason="flock not available",
    )
    def test_shared_locks_coexist_but_exclude_exclusive(self, tmp_path):
        path = tmp_path / "log.jsonl.lock"
        a = store.FileLock(path)
        b = store.FileLock(path)
        c = store.FileLock(path)
        assert a.acquire(timeout_s=1.0, shared=True)
        assert b.acquire(timeout_s=1.0, shared=True)
        assert not c.acquire(timeout_s=0.05)  # exclusive must wait
        a.release()
        b.release()
        assert c.acquire(timeout_s=1.0)
        c.release()

    def test_fallback_breaks_stale_lock_of_dead_owner(self, tmp_path):
        path = tmp_path / "log.jsonl.lock"
        # A pid that is certainly dead: a child we already reaped.
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        path.write_bytes(
            json.dumps({"pid": child.pid, "time": 0.0}).encode()
        )
        old = 0  # epoch: far beyond any staleness bound
        os.utime(path, (old, old))
        health = store.StorageHealth()
        lock = store.FileLock(
            path, use_flock=False, stale_s=1.0, health=health
        )
        with pytest.warns(ReproWarning, match="stale lock"):
            assert lock.acquire(timeout_s=2.0)
        assert health.stale_locks_broken == 1
        lock.release()
        assert not path.exists()

    def test_fallback_respects_live_owner(self, tmp_path):
        path = tmp_path / "log.jsonl.lock"
        path.write_bytes(
            json.dumps({"pid": os.getpid(), "time": 0.0}).encode()
        )
        os.utime(path, (0, 0))  # ancient heartbeat, but the owner lives
        lock = store.FileLock(path, use_flock=False, stale_s=1.0)
        assert not lock.acquire(timeout_s=0.1)
        assert path.exists()

    def test_fallback_respects_fresh_heartbeat(self, tmp_path):
        path = tmp_path / "log.jsonl.lock"
        # Dead owner but a fresh heartbeat: a paused-but-alive holder
        # on another host would look exactly like this; do not break.
        path.write_bytes(json.dumps({"pid": 2**31 - 1}).encode())
        lock = store.FileLock(path, use_flock=False, stale_s=60.0)
        assert not lock.acquire(timeout_s=0.1)
        assert path.exists()


# ----------------------------------------------------------------------
# Atomic rewrite
# ----------------------------------------------------------------------
class TestRewrite:
    def test_rewrite_replaces_contents_atomically(self, tmp_path):
        path = tmp_path / "log.jsonl"
        store.append_record(path, b'{"old":1}')
        assert store.rewrite_log(path, [b'{"new":1}', b'{"new":2}'])
        scan = store.parse_log(path.read_bytes())
        assert scan.records == [b'{"new":1}', b'{"new":2}']
        assert not list(tmp_path.glob("*.tmp.*"))  # no droppings

    def test_rewrite_refuses_without_the_lock(self, tmp_path):
        path = tmp_path / "log.jsonl"
        store.append_record(path, b'{"a":1}')
        holder = store.FileLock(f"{path}.lock")
        assert holder.acquire()
        try:
            with pytest.warns(ReproWarning, match="skipped rewriting"):
                assert not store.rewrite_log(
                    path, [b'{"b":2}'], timeout_s=0.05
                )
            # The original content is untouched.
            assert store.parse_log(path.read_bytes()).records == [b'{"a":1}']
        finally:
            holder.release()


# ----------------------------------------------------------------------
# ENOSPC / EIO degradation
# ----------------------------------------------------------------------
class TestWriteDegradation:
    def test_enospc_degrades_cache_to_memory_with_one_warning(
        self, tmp_path, simulator
    ):
        from repro.core.batch import simulate_layer_cached

        cache = ResultCache(cache_dir=tmp_path)
        layer = _layer("probe")
        with WriteErrorInjector(errno.ENOSPC) as injector:
            with pytest.warns(ReproWarning, match="storage degraded"):
                result = simulate_layer_cached(simulator, layer, cache=cache)
            # Same shard again: the warning must NOT repeat.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                again = simulate_layer_cached(simulator, layer, cache=cache)
        assert injector.injected >= 1
        assert again == result  # memory tier still serves
        assert cache.storage_degraded and cache.health.degraded
        # Nothing half-written: the O_APPEND write failed atomically.
        assert all(p.stat().st_size == 0 for p in tmp_path.glob("*.jsonl"))

    def test_eio_degrades_manifest_but_campaign_state_survives(
        self, tmp_path, simulator
    ):
        manifest = CampaignManifest(tmp_path)
        jobs = [SweepJob(simulator, m) for m in _models(2)]
        manifest.begin(jobs)
        with WriteErrorInjector(errno.EIO):
            with pytest.warns(ReproWarning, match="storage degraded"):
                manifest.mark_done(0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                manifest.mark_done(1)  # same path: no second warning
        assert manifest.is_done(0) and manifest.is_done(1)
        assert manifest.health.storage_degraded

    def test_campaign_completes_and_reports_degraded_storage(
        self, tmp_path, simulator
    ):
        models = _models(3)
        baseline = SweepRunner(
            max_workers=1, cache=NullCache(), manifest=False
        ).run([SweepJob(simulator, m) for m in models])
        runner = SweepRunner(
            max_workers=1,
            cache=ResultCache(cache_dir=tmp_path / "cache"),
            manifest=CampaignManifest(tmp_path / "cache"),
        )
        with WriteErrorInjector(errno.ENOSPC):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ReproWarning)
                results = runner.run([SweepJob(simulator, m) for m in models])
        # A full disk never costs correctness, only persistence.
        assert [r.execution_time_s for r in results] == [
            r.execution_time_s for r in baseline
        ]
        assert runner.storage_degraded
        report = runner.campaign_report()
        assert "storage:" in report and "DEGRADED" in report

    def test_healthy_run_reports_no_storage_line(self, tmp_path, simulator):
        runner = SweepRunner(
            max_workers=1,
            cache=ResultCache(cache_dir=tmp_path / "cache"),
            manifest=CampaignManifest(tmp_path / "cache"),
        )
        runner.run([SweepJob(simulator, m) for m in _models(2)])
        assert not runner.storage_degraded
        assert "storage:" not in runner.campaign_report()

    def test_short_write_degrades_the_shard_without_gluing(
        self, tmp_path, simulator, monkeypatch
    ):
        """A write that lands only part of a shard's group (ENOSPC part
        way, EFBIG) is a degradation: one warning, the remainder is
        never written, and later puts skip the shard, so no complete
        frame is ever appended onto the partial one."""
        layers = _layers_in_one_shard(simulator, 4)
        keys, results = _keyed_results(simulator, layers)
        cache = ResultCache(cache_dir=tmp_path)
        cache.put(keys[0], results[0])  # one complete block
        [shard] = tmp_path.glob("*.jsonl")
        landed = shard.stat().st_size
        real_write = store._os_write
        calls = []

        def short_write(fd, data):
            calls.append(len(data))
            return real_write(fd, data[: len(data) // 2])

        monkeypatch.setattr(store, "_os_write", short_write)
        with pytest.warns(ReproWarning, match="short write") as caught:
            cache.put_many(zip(keys[1:3], results[1:3]))
        assert len(caught) == 1 and len(calls) == 1
        assert shard.stat().st_size == landed + calls[0] // 2
        assert str(shard) in cache.health.degraded
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache.put(keys[3], results[3])  # memory-only: no write
        assert len(calls) == 1
        assert shard.stat().st_size == landed + calls[0] // 2
        assert [cache.get(key) for key in keys] == results
        # The partial block reads as one torn tail after the complete
        # one; nothing is quarantined.
        monkeypatch.setattr(store, "_os_write", real_write)
        reader = ResultCache(cache_dir=tmp_path, disk_puts=False)
        served = [reader.get(key) for key in keys]
        assert len(store.parse_log(shard.read_bytes()).records) == 1
        assert served == [results[0], None, None, None]
        assert reader.stats.torn_records == 1
        assert not list(tmp_path.glob("*.quarantine"))

    def test_short_rewrite_keeps_the_original_log(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "log.jsonl"
        assert store.append_record(path, b'{"k":1}', b'{"k":2}')
        before = path.read_bytes()
        real_write = store._os_write
        monkeypatch.setattr(
            store, "_os_write", lambda fd, data: real_write(fd, data[:5])
        )
        with pytest.warns(ReproWarning, match="short write"):
            assert not store.rewrite_log(path, [b'{"k":3}'])
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp.*"))  # no temporary left

    def test_enospc_on_a_grid_sweep_warns_once_per_shard(
        self, tmp_path, simulator
    ):
        sims = [simulator, spacx_simulator(ef_granularity=2)]
        runner = SweepRunner(
            max_workers=1,
            cache=ResultCache(cache_dir=tmp_path),
            manifest=False,
        )
        first, second = _models(3), _models(6)[3:]
        baseline = SweepRunner(
            max_workers=1, cache=NullCache(), manifest=False
        ).run([SweepJob(s, m) for m in first + second for s in sims])
        with WriteErrorInjector(errno.ENOSPC) as injector:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                results = runner.run(
                    [SweepJob(s, m) for m in first for s in sims]
                )
                # New shapes: only shards not degraded yet are tried.
                results += runner.run(
                    [SweepJob(s, m) for m in second for s in sims]
                )
                misses = runner.cache.stats.misses
                again = runner.run(
                    [SweepJob(s, m) for m in first + second for s in sims]
                )
        degraded = runner.cache.health.degraded
        messages = [
            str(w.message)
            for w in caught
            if issubclass(w.category, ReproWarning)
        ]
        assert len(messages) == len(degraded) > 1
        assert all("storage degraded" in m for m in messages)
        # One write attempt per degraded shard, over both campaigns.
        assert injector.calls == len(degraded)
        assert _plan_of(runner) == ["grid"]
        # The memory tier still serves, and no partial bytes landed.
        assert runner.cache.stats.misses == misses
        assert results == again == baseline
        assert all(p.stat().st_size == 0 for p in tmp_path.glob("*.jsonl"))


def _layers_in_one_shard(simulator, n: int) -> list:
    """``n`` distinct layers whose cache keys share one shard."""
    fingerprint = batch.simulator_fingerprint(simulator)
    by_shard: dict = {}
    for c in range(1, 400):
        layer = _layer(f"s{c}", c=c)
        key = batch.layer_cache_key(fingerprint, layer, True)
        group = by_shard.setdefault(key[:1], [])
        group.append(layer)
        if len(group) == n:
            return group
    raise AssertionError("no shard collected enough layers")


def _keyed_results(simulator, layers) -> tuple[list, list]:
    fingerprint = batch.simulator_fingerprint(simulator)
    keys = [
        batch.layer_cache_key(fingerprint, layer, True) for layer in layers
    ]
    results = [
        simulator.simulate_layer(layer, layer_by_layer=True)
        for layer in layers
    ]
    return keys, results


def _plan_of(runner) -> list:
    return sorted({decision.plan for decision in runner.plan_decisions})


# ----------------------------------------------------------------------
# Group commit: one write per shard per dispatch
# ----------------------------------------------------------------------
class _WriteCounter:
    """Counts ``store._os_write`` calls (and passes them through)."""

    def __init__(self, monkeypatch):
        self.calls = 0
        real = store._os_write

        def write(fd, data):
            self.calls += 1
            return real(fd, data)

        monkeypatch.setattr(store, "_os_write", write)


def _frames(directory: Path) -> dict:
    """``{file name: framed records}`` of every log in a directory."""
    return {
        p.name: store.parse_log(p.read_bytes()).records
        for p in sorted(directory.glob("*.jsonl"))
    }


def _stored_keys(directory: Path) -> list:
    """Every cache key in the block records of a directory's shards."""
    return [
        key
        for name, records in _frames(directory).items()
        if name != "campaign.jsonl"
        for record in records
        for key in json.loads(record)[1]
    ]


def _machine_in_another_shard(simulator):
    """A machine whose cache keys name another shard than
    ``simulator``'s."""
    shard = batch.simulator_fingerprint(simulator)[:1]
    for candidate in (
        simba_simulator(),
        *(spacx_simulator(ef_granularity=g) for g in (2, 4, 8, 16)),
    ):
        if batch.simulator_fingerprint(candidate)[:1] != shard:
            return candidate
    raise AssertionError("no candidate machine in another shard")


class TestGroupCommit:
    def test_cold_trio_sweep_writes_each_shard_once_per_dispatch(
        self, tmp_path, monkeypatch
    ):
        """The paper trio over the paper suite with a manifest: 531
        cache entries and 13 manifest events, which took 544 writes
        when every entry landed on its own and 16 + 13 when each
        key-prefix shard took one write per dispatch.  A machine's
        entries now land as one block in its own shard."""
        from repro.experiments.harness import default_trio, run_models

        counter = _WriteCounter(monkeypatch)
        runner = SweepRunner(
            max_workers=1,
            cache=ResultCache(cache_dir=tmp_path),
            manifest=CampaignManifest(tmp_path),
        )
        cold = run_models(default_trio(), runner=runner)
        frames = _frames(tmp_path)
        events = len(frames.pop("campaign.jsonl"))
        entries = len(_stored_keys(tmp_path))
        assert len(runner.plan_decisions) == 2  # two grid groups
        assert _plan_of(runner) == ["grid"]
        assert (entries, events) == (runner.cache.stats.puts, 1 + 12)
        assert entries + events == 544
        # Manifest events stay one write each; the cache writes at
        # most one block per trio machine, whatever the group count.
        assert sum(map(len, frames.values())) <= 3
        assert counter.calls - events <= 3
        assert counter.calls <= 16
        # A warm rerun serves the same results from disk.
        reader = ResultCache(cache_dir=tmp_path)
        warm = run_models(
            default_trio(),
            runner=SweepRunner(max_workers=1, cache=reader, manifest=False),
        )
        assert _digest(warm) == _digest(cold)
        assert reader.stats.misses == 0

    def test_put_many_keeps_item_order_within_each_shard(
        self, tmp_path, simulator, monkeypatch
    ):
        """Two machines' entries, interleaved: each shard takes one
        write holding one block, whose keys and rebuilt results keep
        the put order; single puts land the same entries one block
        each, in the same order."""
        other = _machine_in_another_shard(simulator)
        items = [
            (keys[0], results[0])
            for c in range(1, 21)
            for sim in (simulator, other)
            for keys, results in [_keyed_results(sim, [_layer(f"o{c}", c=c)])]
        ]
        assert len({key[:1] for key, _ in items}) == 2  # spans shards
        counter = _WriteCounter(monkeypatch)
        cache = ResultCache(cache_dir=tmp_path)
        cache.put_many(items)
        frames = _frames(tmp_path)
        assert counter.calls == len(frames) == 2  # one write per shard
        for name, records in frames.items():
            in_shard = [(k, r) for k, r in items if f"{k[:1]}.jsonl" == name]
            (record,) = map(json.loads, records)  # one block
            assert record[1] == [key for key, _ in in_shard]
            block = unpack_block(record[2:], len(record[1]))
            assert [block.result(row) for row in range(len(in_shard))] == [
                result for _, result in in_shard
            ]
        single = tmp_path / "single"
        one_by_one = ResultCache(cache_dir=single)
        for key, result in items:
            one_by_one.put(key, result)
        for name, records in _frames(single).items():
            assert [json.loads(record)[1] for record in records] == [
                [key] for key in json.loads(frames[name][0])[1]
            ]

    @pytest.mark.parametrize(
        "route",
        [
            {},
            {"exec_plan": "serial"},
            {"max_workers": 2, "exec_plan": "pool"},
            {"families": 2},
        ],
        ids=["grid", "serial", "pool", "grid-two-families"],
    )
    def test_entries_land_before_their_job_is_marked_done(
        self, tmp_path, simulator, route
    ):
        """When a job's done mark is written -- and so at every progress
        callback, which follows it -- every cache key the job needs is
        already in its shard file, so a kill loses only unmarked jobs.
        Two SPACX machines are one grid family; SPACX and Simba are two,
        whose lanes land in the dispatch's one write."""
        route = dict(route)
        families = route.pop("families", 1)
        if families == 2:
            sims = [simulator, simba_simulator()]
        else:
            sims = [simulator, spacx_simulator(ef_granularity=2)]
        jobs = [SweepJob(s, m) for m in _models(4) for s in sims]
        manifest = CampaignManifest(tmp_path)
        mark_done = manifest.mark_done
        marked: list = []
        missing: list = []

        def checked_mark_done(index: int) -> None:
            job = jobs[index]
            fingerprint = batch.simulator_fingerprint(job.simulator)
            on_disk = set(_stored_keys(tmp_path))
            missing.extend(
                key
                for layer in job.model.unique_layers
                if (key := batch.layer_cache_key(fingerprint, layer, False))
                not in on_disk
            )
            marked.append(index)
            mark_done(index)

        manifest.mark_done = checked_mark_done
        runner = SweepRunner(
            max_workers=route.pop("max_workers", 1),
            cache=ResultCache(cache_dir=tmp_path),
            manifest=manifest,
            progress=lambda stats: marked.remove(stats.index),
            **route,
        )
        with runner:
            runner.run(jobs)
        assert len(runner.stats) == len(jobs)
        assert marked == []  # every progress callback followed its mark
        assert missing == []
        if families == 2:
            assert _plan_of(runner) == ["grid"]
            assert len(runner.plan_decisions) == 2

    def test_stop_inside_a_later_kernel_keeps_every_computed_lane(
        self, tmp_path, monkeypatch
    ):
        """A stop requested from inside the second grid group's kernel
        launch: the lanes both groups computed are on disk although no
        job was marked done, and the resume serves every one of them as
        a hit -- no kernel launch, no miss -- to the golden digest."""
        from repro.core import grid
        from repro.experiments.harness import default_trio, run_models

        real_evaluate = grid.evaluate_grid
        launches: list = []
        computed: set = set()  # cache keys of every lane the kernel built

        def evaluate(simulators, layers, **kwargs):
            launches.append(len(simulators))
            if len(launches) == 2:
                runner.request_stop("signal", "stop inside the 2nd kernel")
            outcome = real_evaluate(simulators, layers, **kwargs)
            for simulator, lanes in zip(simulators, outcome.by_machine):
                if lanes is not None:
                    fingerprint = batch.simulator_fingerprint(simulator)
                    computed.update(
                        batch.layer_cache_key(fingerprint, layer, False)
                        for layer in layers
                    )
            return outcome

        monkeypatch.setattr(grid, "evaluate_grid", evaluate)
        runner = SweepRunner(
            max_workers=1,
            cache=ResultCache(cache_dir=tmp_path),
            manifest=CampaignManifest(tmp_path),
        )
        assert run_models(default_trio(), runner=runner) == {}
        assert len(launches) == 2
        assert runner.outcome.stop_reason == "signal"
        assert runner.outcome.skipped == 12
        assert runner.manifest.completed == 0
        on_disk = set(_stored_keys(tmp_path))
        assert len(computed) == 531  # every entry of the sweep
        assert on_disk == computed

        launches.clear()
        reader = ResultCache(cache_dir=tmp_path)
        resumed = SweepRunner(
            max_workers=1,
            cache=reader,
            manifest=CampaignManifest(tmp_path),
            resume=True,
        )
        results = run_models(default_trio(), runner=resumed)
        assert launches == []
        assert reader.stats.misses == 0
        assert resumed.outcome.done == 12
        golden = json.loads(GOLDEN_DIGEST.read_text())
        assert _digest(results) == golden["sha256"]

    def test_torn_group_write_loses_only_its_incomplete_frame(
        self, tmp_path, simulator
    ):
        """Truncate a shard at every offset inside its last block: a
        fresh reader serves the complete block before it, counts one
        torn record (none once only the newline is missing) and
        recomputes the torn block's entries equal to the scalar
        oracle."""
        from repro.core.batch import simulate_model_cached

        layers = _layers_in_one_shard(simulator, 3)
        keys, results = _keyed_results(simulator, layers)
        writer = ResultCache(cache_dir=tmp_path)
        writer.put(keys[0], results[0])
        [shard] = tmp_path.glob("*.jsonl")
        start = shard.stat().st_size
        writer.put_many(zip(keys[1:], results[1:]))  # the last block
        data = shard.read_bytes()
        assert data.count(b"\n") == 2  # one frame per block
        model = LayerSet("torn", layers)
        oracle = simulator.simulate_model(model, layer_by_layer=True)
        for cut in range(start + 1, len(data)):
            shard.write_bytes(data[:cut])
            reader = ResultCache(cache_dir=tmp_path, disk_puts=False)
            served = simulate_model_cached(
                simulator, model, layer_by_layer=True, cache=reader
            )
            whole = cut == len(data) - 1
            assert served == oracle, cut
            assert reader.stats.disk_hits == (3 if whole else 1), cut
            assert reader.stats.torn_records == (0 if whole else 1), cut
            assert reader.stats.quarantined_records == 0, cut


# ----------------------------------------------------------------------
# Shard recovery (torn tails, quarantine)
# ----------------------------------------------------------------------
class TestShardRecovery:
    def test_torn_final_line_is_skipped_and_counted(
        self, tmp_path, simulator
    ):
        from repro.core.batch import simulate_layer_cached

        layer = _layer("probe")
        writer = ResultCache(cache_dir=tmp_path)
        simulate_layer_cached(simulator, layer, cache=writer)
        [shard] = tmp_path.glob("*.jsonl")
        shard.write_bytes(shard.read_bytes()[:-7])  # tear the tail

        reader = ResultCache(cache_dir=tmp_path)
        fresh = simulate_layer_cached(simulator, layer, cache=reader)
        assert fresh == simulator.simulate_layer(layer, layer_by_layer=True)
        stats = reader.stats
        assert stats.disk_hits == 0 and stats.misses == 1
        assert stats.torn_records == 1
        assert stats.skipped_records == 1
        # No quarantine for a torn tail: it is expected kill residue.
        assert not list(tmp_path.glob("*.quarantine"))

    def test_mid_file_corruption_is_quarantined_exactly_once(
        self, tmp_path, simulator
    ):
        from repro.core.batch import simulate_layer_cached

        layer = _layer("probe")
        writer = ResultCache(cache_dir=tmp_path)
        written = simulate_layer_cached(simulator, layer, cache=writer)
        [shard] = tmp_path.glob("*.jsonl")
        shard.write_bytes(b"}}corrupted{{\n" + shard.read_bytes())

        for _ in range(2):  # reloading twice must not grow quarantine
            reader = ResultCache(cache_dir=tmp_path)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ReproWarning)
                restored = simulate_layer_cached(
                    simulator, layer, cache=reader
                )
            assert restored == written  # the good record still serves
            assert reader.stats.quarantined_records == 1
        quarantine = Path(f"{shard}{store.QUARANTINE_SUFFIX}")
        assert quarantine.read_bytes() == b"}}corrupted{{\n"


    def test_append_after_a_torn_tail_starts_on_a_fresh_line(
        self, tmp_path, simulator
    ):
        """Cut the last frame of every shard by 10 bytes: the next run
        recomputes the torn entries and lands them on a fresh line, so
        the run after it serves every entry.  Glued onto the torn bytes,
        the recomputed block was lost with them and missed again."""
        from repro.models.zoo import get_model

        job = SweepJob(simulator, get_model("VGG-16"))

        def run():
            cache = ResultCache(cache_dir=tmp_path)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ReproWarning)
                SweepRunner(max_workers=1, cache=cache, manifest=False).run(
                    [job]
                )
            return cache.stats

        cold = run()
        assert cold.misses == cold.puts > 1
        for shard in tmp_path.glob("*.jsonl"):
            shard.write_bytes(shard.read_bytes()[:-10])
        after_cut = run()
        assert after_cut.misses == after_cut.puts == cold.misses
        assert after_cut.torn_records == 1
        healed = run()
        assert healed.misses == healed.puts == 0
        assert healed.disk_hits == cold.misses
        # The torn bytes now end mid-file: preserved, not dropped.
        assert (healed.torn_records, healed.quarantined_records) == (0, 1)

    def test_resume_after_a_torn_manifest_tail_keeps_its_marks(
        self, tmp_path, simulator
    ):
        """Jobs 0 and 1 done, the last frame cut: a resume finds job 0
        done and marks 1 and 2, and the next resume finds all three."""
        jobs = [SweepJob(simulator, m) for m in _models(3)]
        first = CampaignManifest(tmp_path)
        first.begin(jobs)
        first.mark_done(0)
        first.mark_done(1)
        path = tmp_path / "campaign.jsonl"
        path.write_bytes(path.read_bytes()[:-10])

        resumed = CampaignManifest(tmp_path)
        resumed.begin(jobs, resume=True)
        assert resumed.resumed and resumed.health.torn_records == 1
        assert [resumed.is_done(i) for i in range(3)] == [True, False, False]
        resumed.mark_done(1)
        resumed.mark_done(2)

        again = CampaignManifest(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ReproWarning)
            again.begin(jobs, resume=True)
        assert again.resumed
        assert [again.is_done(i) for i in range(3)] == [True, True, True]
        assert again.health.quarantined_records == 1  # the torn bytes


# ----------------------------------------------------------------------
# Manifest preservation (satellite: never clobber a foreign ledger)
# ----------------------------------------------------------------------
class TestManifestPreservation:
    def test_foreign_manifest_is_preserved_not_clobbered(
        self, tmp_path, simulator
    ):
        first = CampaignManifest(tmp_path)
        first.begin([SweepJob(simulator, m) for m in _models(2)])
        first.mark_done(0)
        original = (tmp_path / "campaign.jsonl").read_bytes()

        second = CampaignManifest(tmp_path)
        with pytest.warns(ReproWarning, match="different campaign"):
            second.begin([SweepJob(simulator, m) for m in _models(3)])
        stale = list(tmp_path.glob("campaign.jsonl.stale-*"))
        assert len(stale) == 1
        assert stale[0].name.endswith((first.campaign_id or "")[:12])
        assert stale[0].read_bytes() == original  # byte-for-byte intact

    def test_same_campaign_restart_is_silent(self, tmp_path, simulator):
        jobs = [SweepJob(simulator, m) for m in _models(2)]
        first = CampaignManifest(tmp_path)
        first.begin(jobs)
        first.mark_done(0)
        second = CampaignManifest(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            second.begin(jobs)  # deliberate fresh restart, no warning
        assert not list(tmp_path.glob("campaign.jsonl.stale-*"))
        assert not second.is_done(0)  # genuinely fresh

    def test_corrupt_manifest_event_is_quarantined_on_resume(
        self, tmp_path, simulator
    ):
        jobs = [SweepJob(simulator, m) for m in _models(3)]
        manifest = CampaignManifest(tmp_path)
        manifest.begin(jobs)
        manifest.mark_done(0)
        manifest.mark_done(1)
        path = tmp_path / "campaign.jsonl"
        frames = path.read_bytes().splitlines(keepends=True)
        # Damage the middle event; keep header and the last event.
        frames[1] = b"=deadbeef" + frames[1][9:]
        path.write_bytes(b"".join(frames))

        resumed = CampaignManifest(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ReproWarning)
            resumed.begin(jobs, resume=True)
        assert resumed.resumed
        assert not resumed.is_done(0)  # its record was the damaged one
        assert resumed.is_done(1)
        assert resumed.health.quarantined_records == 1
        assert Path(f"{path}{store.QUARANTINE_SUFFIX}").exists()

    def test_non_json_manifest_event_is_quarantined_on_resume(
        self, tmp_path, simulator
    ):
        jobs = [SweepJob(simulator, m) for m in _models(3)]
        manifest = CampaignManifest(tmp_path)
        manifest.begin(jobs)
        path = tmp_path / "campaign.jsonl"
        assert store.append_record(path, b"not json")
        manifest.mark_done(1)

        resumed = CampaignManifest(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ReproWarning)
            resumed.begin(jobs, resume=True)
        assert resumed.resumed and resumed.is_done(1)
        assert resumed.health.quarantined_records == 1
        quarantine = Path(f"{path}{store.QUARANTINE_SUFFIX}")
        assert quarantine.read_bytes() == store.frame_record(b"not json")


# ----------------------------------------------------------------------
# Concurrency (satellite: 4 writers, no lost/dup/corrupt records)
# ----------------------------------------------------------------------
_APPEND_SCRIPT = """
import json, os, sys
from repro.core import store

path, writer, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
for j in range(count):
    payload = json.dumps({"w": writer, "n": j}, separators=(",", ":"))
    assert store.append_record(path, payload.encode())
"""

_SWEEP_SCRIPT = """
import hashlib, json, os, sys
from repro.core import batch
from repro.core.layer import ConvLayer, LayerSet
from repro.serialization import model_result_to_dict
from repro.spacx.architecture import spacx_simulator

cache_dir = os.environ["CAMPAIGN_DIR"]
models = [
    LayerSet(
        f"net-{i}",
        [ConvLayer(name=f"l{i}", c=2 + i, k=4 + i, r=3, s=3, h=6, w=6)],
    )
    for i in range(3)
]
runner = batch.SweepRunner(
    max_workers=1,
    cache=batch.ResultCache(cache_dir=cache_dir),
    manifest=False,
)
results = runner.run(
    [batch.SweepJob(spacx_simulator(), m) for m in models]
)
canonical = json.dumps(
    [model_result_to_dict(r) for r in results], sort_keys=True
)
print(hashlib.sha256(canonical.encode()).hexdigest())
"""


def _env_with_src(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra)
    return env


class TestConcurrentWriters:
    def test_four_processes_lose_no_records(self, tmp_path):
        path = tmp_path / "shared.jsonl"
        writers, per_writer = 4, 100
        procs = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    _APPEND_SCRIPT,
                    str(path),
                    str(w),
                    str(per_writer),
                ],
                env=_env_with_src(),
                stderr=subprocess.PIPE,
            )
            for w in range(writers)
        ]
        for proc in procs:
            assert proc.wait(timeout=120) == 0, proc.stderr.read().decode()
        scan = store.parse_log(path.read_bytes())
        assert scan.torn == 0 and not scan.corrupt
        entries = [json.loads(r) for r in scan.records]
        assert len(entries) == writers * per_writer  # nothing lost
        seen = {(e["w"], e["n"]) for e in entries}
        assert len(seen) == len(entries)  # nothing duplicated
        assert seen == {
            (w, n) for w in range(writers) for n in range(per_writer)
        }

    def test_four_sweep_runners_share_one_cache_dir(self, tmp_path):
        cache_dir = tmp_path / "shared-cache"
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _SWEEP_SCRIPT],
                env=_env_with_src(CAMPAIGN_DIR=str(cache_dir)),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
            for _ in range(4)
        ]
        digests = []
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err.decode()
            digests.append(out.decode().strip())
        # Every concurrent run computed identical results ...
        assert len(set(digests)) == 1
        # ... every shard the racing writers produced is valid ...
        health, scans = store.scan_directory(cache_dir, repair=False)
        assert scans and all(s.clean for s in scans)
        # ... and a fresh reader warm-starts entirely from disk.
        reader = ResultCache(cache_dir=cache_dir)
        runner = SweepRunner(max_workers=1, cache=reader, manifest=False)
        runner.run(
            [SweepJob(spacx_simulator(), m) for m in _models(3)]
        )
        assert reader.stats.misses == 0


# ----------------------------------------------------------------------
# SIGKILL + deliberate damage + resume == golden digest (slow)
# ----------------------------------------------------------------------
_KILL_SCRIPT = """
import os, signal
from repro.core import batch
from repro.core.campaign import CampaignManifest
from repro.experiments.harness import default_trio, run_models

cache_dir = os.environ["CAMPAIGN_DIR"]
state = {"jobs": 0}

def progress(stats):
    state["jobs"] += 1
    if state["jobs"] >= 4:
        os.kill(os.getpid(), signal.SIGKILL)

runner = batch.SweepRunner(
    max_workers=2,
    cache=batch.ResultCache(cache_dir=cache_dir),
    manifest=CampaignManifest(cache_dir),
    progress=progress,
)
run_models(default_trio(), runner=runner)
raise SystemExit("unreachable: the campaign should have been killed")
"""


@pytest.mark.slow
def test_killed_then_damaged_campaign_resumes_byte_identical(tmp_path):
    """SIGKILL under the pool, then corrupt a shard AND tear the
    manifest tail; a pooled, vectorized resume must still reproduce
    the full-zoo golden digest byte-for-byte."""
    from repro.experiments.harness import default_trio, run_models

    cache_dir = tmp_path / "campaign"
    proc = subprocess.run(
        [sys.executable, "-c", _KILL_SCRIPT],
        env=_env_with_src(CAMPAIGN_DIR=str(cache_dir)),
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()

    # Deliberate post-mortem damage on top of the kill: corrupt one
    # cache shard mid-file and tear the manifest's final record.
    shards = sorted(
        p for p in cache_dir.glob("*.jsonl") if p.name != "campaign.jsonl"
    )
    assert shards, "the killed campaign wrote no shards"
    shards[0].write_bytes(b"<<bitrot>>\n" + shards[0].read_bytes())
    manifest_file = cache_dir / "campaign.jsonl"
    manifest_file.write_bytes(manifest_file.read_bytes()[:-9])

    runner = batch.SweepRunner(
        max_workers=2,
        cache=batch.ResultCache(cache_dir=cache_dir),
        manifest=CampaignManifest(cache_dir),
        resume=True,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ReproWarning)
        results = run_models(default_trio(), runner=runner)
    assert runner.manifest.resumed
    assert runner.resumed_jobs >= 1
    golden = json.loads(GOLDEN_DIGEST.read_text())
    assert _digest(results) == golden["sha256"]
    # The corruption was detected and preserved, never dropped.
    assert Path(f"{shards[0]}{store.QUARANTINE_SUFFIX}").exists()
    assert runner.cache.stats.quarantined_records == 1


# ----------------------------------------------------------------------
# repro doctor --cache
# ----------------------------------------------------------------------
class TestDoctorCache:
    def _damaged_dir(self, tmp_path) -> Path:
        cache_dir = tmp_path / "cache"
        path = cache_dir / "a.jsonl"
        store.append_record(path, b'{"k":1}')
        store.append_record(path, b'{"k":2}')
        data = path.read_bytes()
        path.write_bytes(b"<<damage>>\n" + data + b"=f00dfeed")
        return cache_dir

    def test_scan_finds_repairs_then_rescan_is_clean(self, tmp_path, capsys):
        cache_dir = self._damaged_dir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ReproWarning)
            assert main(["doctor", "--cache", str(cache_dir)]) == 1
        out = capsys.readouterr().out
        assert "ISSUES" in out and "repaired" in out
        assert (cache_dir / f"a.jsonl{store.QUARANTINE_SUFFIX}").exists()

        assert main(["doctor", "--cache", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "0 issue(s)" in out
        # Both valid records survived the repair, now re-framed.
        assert [
            r["k"] for r in store.read_log(cache_dir / "a.jsonl")
        ] == [1, 2]

    def test_non_json_frame_is_found_and_repaired(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        path = cache_dir / "a.jsonl"
        store.append_record(path, b"not json")
        store.append_record(path, b'{"k":1}')
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ReproWarning)
            assert main(["doctor", "--cache", str(cache_dir)]) == 1
        assert "1 corrupt" in capsys.readouterr().out
        quarantine = cache_dir / f"a.jsonl{store.QUARANTINE_SUFFIX}"
        assert quarantine.read_bytes() == store.frame_record(b"not json")
        assert main(["doctor", "--cache", str(cache_dir)]) == 0
        capsys.readouterr()
        assert store.read_log(path) == [{"k": 1}]

    def test_no_repair_reports_without_touching(self, tmp_path, capsys):
        cache_dir = self._damaged_dir(tmp_path)
        before = (cache_dir / "a.jsonl").read_bytes()
        assert (
            main(["doctor", "--cache", str(cache_dir), "--no-repair"]) == 1
        )
        assert (cache_dir / "a.jsonl").read_bytes() == before
        assert not (cache_dir / f"a.jsonl{store.QUARANTINE_SUFFIX}").exists()
        # Still damaged on rescan: no silent repair happened.
        assert (
            main(["doctor", "--cache", str(cache_dir), "--no-repair"]) == 1
        )
        capsys.readouterr()

    def test_json_schema(self, tmp_path, capsys):
        cache_dir = self._damaged_dir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ReproWarning)
            code = main(["doctor", "--cache", str(cache_dir), "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False and payload["repair"] is True
        assert payload["issues"] == 2  # one corrupt + one torn line
        [entry] = payload["files"]
        assert entry["corrupt"] == 1 and entry["torn"] == 1
        assert payload["health"]["fsync_policy"] in ("always", "never", "auto")

    def test_missing_directory_is_a_usage_error(self, tmp_path):
        with pytest.raises(ConfigError):
            store.scan_directory(tmp_path / "nope")
