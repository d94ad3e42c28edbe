"""Campaign-level sweep engine: result caching + process parallelism.

Every experiment module and benchmark script used to rebuild
simulators and re-simulate the same ``(AcceleratorSpec, layer shape)``
pairs from scratch, making a full-evaluation regeneration serial and
quadratically redundant.  This module provides the two standard fixes
(cf. SCALE-Sim's batched config sweeps and CHIPSIM's campaign
harness):

1. a **content-addressed result cache** -- :class:`ResultCache` keys a
   :class:`LayerResult` by a stable SHA-256 of ``(simulator
   fingerprint, layer.shape_key, layer_by_layer)`` -- the fingerprint
   covers every spec field *and* the attached energy-model state --
   with an in-memory LRU tier and
   an optional on-disk JSON tier (via :mod:`repro.serialization`), so
   repeated benchmark runs are near-instant;
2. a **sweep runner** -- :class:`SweepRunner` plans each campaign
   (grid kernel, in-process serial loop or the persistent warm-worker
   pool of :mod:`repro.core.pool`) with deterministic result ordering,
   graceful fallback to serial execution when ``max_workers == 1`` or
   worker processes cannot be used, and per-job wall-clock statistics.

The runner is *fault tolerant*: a job that raises, crashes, hangs or
breaches its memory budget in a pool worker is charged alone -- its
batch-mates are requeued free and the worker respawns -- so it can
never poison its siblings.  Failures are retried with exponential
backoff up to a configurable bound, optionally time-limited per
attempt, and surfaced as structured :class:`JobFailure` records;
``on_error="skip"`` returns the surviving results (``None`` in failed
slots) instead of aborting the campaign.  Together with a
:class:`repro.core.campaign.CampaignManifest` the runner checkpoints
completion state as jobs finish, so a campaign killed mid-run resumes
and reproduces an uninterrupted run byte for byte.

Determinism guarantee: the analytical models are pure functions of
``(spec, layer shape, layer_by_layer)``, so cached, parallel, resumed
and serial runs produce *bit-identical* floats.  The golden-regression
tests (``tests/test_golden_regression.py``) pin this down.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import logging
import operator
import os
import random
import threading
import time
import traceback
import weakref
from collections import OrderedDict
from enum import Enum
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing-only (campaign imports us)
    from .campaign import CampaignManifest

from ..errors import ConfigError, InvariantViolationError
from . import store
from .accelerator import AcceleratorSpec
from .budget import CampaignBudget, CampaignOutcome, CircuitBreaker
from .budget import global_stop as _global_stop
from .invariants import _PREAUDIT_ATTR, audit_model_result
from .layer import ConvLayer, LayerSet
from .mapping import Mapping
from .metrics import LayerResult, ModelResult
from .simulator import Simulator

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "spec_fingerprint",
    "simulator_fingerprint",
    "layer_cache_key",
    "CacheStats",
    "ResultCache",
    "NullCache",
    "simulate_layer_cached",
    "simulate_model_cached",
    "SweepJob",
    "JobStats",
    "JobFailure",
    "PlanDecision",
    "SweepJobError",
    "SweepRunner",
    "CampaignBudget",
    "CampaignOutcome",
    "RunConfig",
    "configure",
    "run_config",
    "default_cache",
    "default_manifest",
    "last_campaign_outcome",
    "clear_last_outcome",
]

#: Attempt failure kinds that indicate the *worker* was killed rather
#: than the job merely raising: these count toward a job's poison
#: quarantine threshold (a job that keeps taking workers down must not
#: be allowed to grind through the whole retry budget forever).
_CRASH_KINDS = frozenset(
    {"WorkerCrashed", "TimeoutError", "MemoryBudgetExceeded"}
)

#: Valid campaign execution plans (see :attr:`SweepRunner.exec_plan`).
_EXEC_PLANS = ("auto", "pool", "serial")

#: Upper bound on (machines x union shapes) lanes evaluated per grid
#: kernel launch.  Beyond it the machine axis is chunked: each float64
#: grid column is ``lanes * 8`` bytes and the kernel holds a few dozen
#: columns live, so 1Mi lanes keeps the transient peak around 300 MB.
_GRID_LANE_BUDGET = 1 << 20

logger = logging.getLogger(__name__)

#: Bump whenever the simulator's numerical behaviour or the cached
#: payload layout changes; stale disk entries are then ignored.
CACHE_SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# Content-addressed keys
# ----------------------------------------------------------------------
def _jsonable(value):
    """Canonical JSON-compatible form of a spec field value."""
    if isinstance(value, Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return value


def spec_fingerprint(spec: AcceleratorSpec) -> str:
    """Stable content hash of *every* field of an accelerator spec.

    Any change to any field (including nested latency/capability
    descriptors) changes the fingerprint, so cached results can never
    be served to a different machine.
    """
    payload = json.dumps(
        {"schema": CACHE_SCHEMA_VERSION, "spec": _jsonable(spec)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _object_state(value, depth: int = 0):
    """Canonical plain form of an arbitrary model object's state.

    Recurses through dataclasses, containers and ``__dict__``-bearing
    objects, tagging each object with its class name so two models
    with coincidentally equal state still hash apart.  Falls back to
    ``repr`` past the depth guard.
    """
    if depth > 8:
        return repr(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__class__": type(value).__qualname__,
            **{
                f.name: _object_state(getattr(value, f.name), depth + 1)
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, (tuple, list)):
        return [_object_state(v, depth + 1) for v in value]
    if isinstance(value, dict):
        return {str(k): _object_state(v, depth + 1) for k, v in value.items()}
    if hasattr(value, "__dict__"):
        return {
            "__class__": type(value).__qualname__,
            **{
                k: _object_state(v, depth + 1)
                for k, v in sorted(vars(value).items())
            },
        }
    return repr(value)


class _SimulatorMemo(NamedTuple):
    """One simulator's fingerprint and the cache keys derived from it.

    ``parts`` are the spec and energy models the fingerprint hashed,
    never the simulator: a value pointing back at its weak key would
    keep the entry alive forever.  The entry holds while the simulator
    holds those very objects; ``is`` on live objects cannot be fooled
    by a freed component's recycled address, as a stored ``id()`` can.
    """

    parts: tuple
    fingerprint: str
    keys: tuple  # shape key -> cache key, one dict per layer_by_layer


#: The components a simulator's output depends on.
_components = operator.attrgetter("spec", "compute_energy", "network_energy")

#: Per-simulator-object memo (weak: an entry, keys included, dies with
#: its simulator).  In-place mutation of a component is not tracked:
#: specs are frozen and the energy models are treated as immutable.
_SIMULATOR_MEMO: "weakref.WeakKeyDictionary[Simulator, _SimulatorMemo]" = (
    weakref.WeakKeyDictionary()
)


def _simulator_memo(
    simulator: Simulator, fingerprint: str | None = None
) -> _SimulatorMemo:
    """The simulator's memo entry, rebuilt when a component changed.

    ``fingerprint`` seeds a rebuilt entry with a value the caller
    already knows (a pool worker's value-keyed memo) instead of
    hashing the components again.
    """
    parts = _components(simulator)
    entry = _SIMULATOR_MEMO.get(simulator)
    if entry is not None and all(map(operator.is_, entry.parts, parts)):
        return entry
    if fingerprint is None:
        payload = json.dumps(
            {
                "schema": CACHE_SCHEMA_VERSION,
                "spec": _jsonable(parts[0]),
                "compute_energy": _object_state(parts[1]),
                "network_energy": _object_state(parts[2]),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        fingerprint = hashlib.sha256(payload.encode()).hexdigest()
    entry = _SimulatorMemo(parts, fingerprint, ({}, {}))
    _SIMULATOR_MEMO[simulator] = entry
    return entry


def simulator_fingerprint(simulator: Simulator) -> str:
    """Content hash of everything that shapes a simulator's output.

    The spec alone is *not* enough: e.g. the moderate and aggressive
    photonic parameter sets share one :class:`AcceleratorSpec` and
    differ only in the attached energy models, so the fingerprint
    folds in the full state of both energy models as well.
    """
    return _simulator_memo(simulator).fingerprint


#: Per-model dedup structure, computed once per :class:`LayerSet`
#: object and dropped with it (weak keys -- ``LayerSet`` hashes by
#: identity, so mutating-free reuse is safe by construction).
_MODEL_STRUCT: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _model_structure(model: LayerSet) -> tuple:
    """``(unique layers, their shape keys, occurrence -> unique index)``.

    ``unique`` holds the *first occurrence* of each distinct shape in
    network order (the object whose name a fresh simulation would
    report); ``occ[i]`` maps ``model.all_layers[i]`` to its slot in
    ``unique``.  The cached-simulation hot paths walk shapes once per
    model object instead of re-hashing every occurrence per job.
    """
    entry = _MODEL_STRUCT.get(model)
    if entry is None:
        unique: list[ConvLayer] = []
        shapes: list[tuple] = []
        index: dict[tuple, int] = {}
        index_get = index.get
        occ: list[int] = []
        append_occ = occ.append
        for layer in model.all_layers:
            shape = layer.shape_key
            i = index_get(shape)
            if i is None:
                index[shape] = i = len(unique)
                unique.append(layer)
                shapes.append(shape)
            append_occ(i)
        _MODEL_STRUCT[model] = entry = (unique, shapes, occ)
    return entry


def layer_cache_key(
    fingerprint: str, layer: ConvLayer, layer_by_layer: bool
) -> str:
    """Content-addressed key of one (machine, layer shape, mode) job.

    Deliberately *shape*-keyed (``layer.shape_key``): two layers with
    identical dimensions cost the same regardless of their names,
    mirroring the de-duplication :meth:`Simulator.simulate_model`
    already performs within one model.

    The key text is a flat ``|``-joined string (not JSON): hashing a
    short f-string is several times cheaper than ``json.dumps``.
    :meth:`ResultCache.lookup` memoises the keys per simulator object.
    """
    payload = (
        f"{CACHE_SCHEMA_VERSION}|{fingerprint}"
        f"|{layer.shape_key!r}|{int(bool(layer_by_layer))}"
    )
    return hashlib.sha256(payload.encode()).hexdigest()


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    puts: int = 0
    #: Invalid final shard line(s) skipped on load -- the expected
    #: remains of a killed writer; the entry is simply recomputed.
    torn_records: int = 0
    #: Mid-file corrupt lines preserved in ``*.quarantine`` on load.
    quarantined_records: int = 0
    #: Well-framed records whose payload failed to unpack; recomputed.
    rejected_records: int = 0

    @property
    def skipped_records(self) -> int:
        """Disk records that failed validation and were not served."""
        return (
            self.torn_records + self.quarantined_records + self.rejected_records
        )

    @property
    def lookups(self) -> int:
        """Total keys probed (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from either tier."""
        return self.hits / self.lookups if self.lookups else 0.0


class ResultCache:
    """Two-tier (memory LRU + optional disk) ``LayerResult`` cache.

    :meth:`lookup` is the one probe the sweep engine makes: it resolves
    a simulator's layer shapes to hits and to the cache keys of its
    misses, memoising the keys on the simulator object (they die with
    it).  Keys it does not find in memory go through :meth:`get`.

    Disk layout: 16 append-only shard files ``<cache_dir>/<key[0]>.jsonl``
    managed by :mod:`repro.core.store` -- each entry is one framed
    (CRC32 + length-prefixed) line holding the positional JSON array
    ``[schema, key, packed_result]`` with the result in the packed form
    of :func:`repro.serialization.layer_result_pack`; unframed lines
    from pre-store caches are still accepted.  A shard is parsed
    wholesale on first touch (hundreds of tiny per-entry files would
    make a warm start open-bound), and duplicate keys resolve
    last-wins.  Writes are group-committed: :meth:`put_many` lands
    each shard's new entries with a single ``O_APPEND`` write carrying
    all their frames, in put order, and the runner calls it once per
    dispatch, before any job of that dispatch is marked done.  A torn
    final line (killed writer) is skipped and counted, so a torn group
    write loses only its incomplete last frame; corrupt mid-file lines
    are quarantined to ``<shard>.quarantine`` rather than dropped, and
    a well-framed record that fails to unpack is counted as rejected;
    either way concurrent writers sharing a directory degrade to extra
    misses, never to wrong results.  Write errors (full disk,
    read-only mounts, short writes) raise one deduped
    :class:`~repro.errors.ReproWarning` per shard and drop the cache
    to memory-only for that shard, tracked in ``health``.

    ``disk_puts=False`` makes the disk tier read-only: pool workers
    share the campaign's shards for warm starts without every worker
    appending duplicate entries.
    """

    def __init__(
        self,
        capacity: int = 4096,
        cache_dir: str | Path | None = None,
        *,
        disk_puts: bool = True,
    ):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.health = store.StorageHealth()
        self._disk_puts = disk_puts
        self._memory: OrderedDict[str, LayerResult] = OrderedDict()
        #: Parsed-but-not-yet-reconstructed disk payloads, per key.
        self._disk_index: dict[str, list] = {}
        self._loaded_shards: set[str] = set()
        # Plain-int counters (the hot path runs once per layer per
        # lookup; attribute arithmetic on a nested dataclass is
        # measurably slower).  ``stats`` assembles them on demand.
        self._hits = 0
        self._misses = 0
        self._disk_hits = 0
        self._puts = 0
        #: Recency tracking engages lazily: below half capacity the
        #: LRU order cannot influence eviction, so ``get`` skips the
        #: per-hit ``move_to_end``.
        self._lru_active = False

    @property
    def stats(self) -> CacheStats:
        """Current hit/miss accounting (assembled on demand)."""
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            disk_hits=self._disk_hits,
            puts=self._puts,
            torn_records=self.health.torn_records,
            quarantined_records=self.health.quarantined_records,
            rejected_records=self.health.rejected_records,
        )

    # -- memory tier ---------------------------------------------------
    def _memory_put(self, key: str, result: LayerResult) -> None:
        memory = self._memory
        memory[key] = result
        if len(memory) * 2 >= self.capacity:
            self._lru_active = True
            memory.move_to_end(key)
            while len(memory) > self.capacity:
                memory.popitem(last=False)

    # -- disk tier -----------------------------------------------------
    def _shard_path(self, shard: str) -> str:
        assert self.cache_dir is not None
        return os.path.join(str(self.cache_dir), f"{shard}.jsonl")

    def _load_shard(self, shard: str) -> None:
        """Parse one shard file into the payload index (idempotent)."""
        self._loaded_shards.add(shard)
        path = self._shard_path(shard)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return
        if not data:
            return
        scan = store.parse_log(data)
        health = self.health
        health.torn_records += scan.torn
        health.legacy_records += scan.legacy
        corrupt = list(scan.corrupt)
        payloads = []
        if scan.records:
            try:
                # One C-level parse of the whole shard; falls back to
                # per-line parsing when any record's payload is bad.
                payloads = json.loads(b"[" + b",".join(scan.records) + b"]")
            except json.JSONDecodeError:
                payloads = []
                for line in scan.records:
                    try:
                        payloads.append(json.loads(line))
                    except json.JSONDecodeError:
                        corrupt.append(line)  # framed but non-JSON payload
        if corrupt:
            health.quarantined_records += len(corrupt)
            store.quarantine_records(path, corrupt, health=health)
        index = self._disk_index
        for payload in payloads:
            # Positional entry: ``[schema, key, packed_result]``.
            if (
                type(payload) is list
                and len(payload) == 3
                and payload[0] == CACHE_SCHEMA_VERSION
                and isinstance(payload[1], str)
            ):
                index[payload[1]] = payload[2]

    def _disk_get(self, key: str) -> LayerResult | None:
        if self.cache_dir is None:
            return None
        shard = key[:1]
        if shard not in self._loaded_shards:
            self._load_shard(shard)
        payload = self._disk_index.pop(key, None)
        if payload is None:
            return None
        from ..serialization import layer_result_unpack

        try:
            return layer_result_unpack(payload)
        except (KeyError, TypeError, ValueError):
            self.health.rejected_records += 1  # recomputed as a miss
            return None

    def _disk_put(self, shards: dict) -> None:
        """Append each shard's ``(key, result)`` entries in one write."""
        from ..serialization import layer_result_pack

        # Positional entry (schema tag first): arrays parse measurably
        # faster than objects and drop three field-name strings per
        # line from every warm start.  The store layer frames every
        # line (CRC32 + length) and lands the shard's group with one
        # O_APPEND write.  A failed or short write degrades the shard
        # to memory-only with one ReproWarning instead of vanishing
        # silently; later puts skip it, so no frame is ever appended
        # onto a partial one.  Shards are encoded one at a time.
        degraded = self.health.degraded
        for shard, entries in shards.items():
            path = self._shard_path(shard)
            if path in degraded:
                continue
            store.append_record(
                path,
                *[
                    json.dumps(
                        [CACHE_SCHEMA_VERSION, key, layer_result_pack(result)],
                        separators=(",", ":"),
                    ).encode()
                    for key, result in entries
                ],
                health=self.health,
            )

    @property
    def storage_degraded(self) -> bool:
        """Whether any shard write has failed this run."""
        return self.health.storage_degraded

    # -- public API ----------------------------------------------------
    def lookup(
        self,
        simulator: Simulator,
        need: "dict[tuple, ConvLayer]",
        layer_by_layer: bool,
    ) -> tuple[dict, dict]:
        """Resolve ``need`` (shape key -> layer) for one machine.

        Returns ``(hits, misses)``: shape key -> cached result, and
        shape key -> the cache key a computed result goes under.  The
        keys come from the simulator's memo entry; a memory-tier hit
        is one dict probe (plus its LRU touch), and every other key
        goes through :meth:`get`, which counts it and reads the disk.
        """
        entry = _simulator_memo(simulator)
        keys = entry.keys[bool(layer_by_layer)]
        memory = self._memory
        memory_get = memory.get
        hits: dict = {}
        misses: dict = {}
        memory_hits = 0
        for shape, layer in need.items():
            key = keys.get(shape)
            if key is None:
                # Unlocked: threads that race here store the same pure
                # key, so a lost write only costs a recomputation.
                keys[shape] = key = layer_cache_key(
                    entry.fingerprint, layer, layer_by_layer
                )
            result = memory_get(key)
            if result is not None:
                memory_hits += 1
                if self._lru_active:
                    memory.move_to_end(key)
                hits[shape] = result
            elif (result := self.get(key)) is not None:
                hits[shape] = result
            else:
                misses[shape] = key
        self._hits += memory_hits
        return hits, misses

    def get(self, key: str) -> LayerResult | None:
        """Look a key up (memory first, then disk; promotes to memory)."""
        result = self._memory.get(key)
        if result is not None:
            self._hits += 1
            if self._lru_active:
                self._memory.move_to_end(key)
            return result
        result = self._disk_get(key)
        if result is not None:
            self._hits += 1
            self._disk_hits += 1
            self._memory_put(key, result)
            return result
        self._misses += 1
        return None

    def put(self, key: str, result: LayerResult) -> None:
        """Store a result in both tiers."""
        self.put_many(((key, result),))

    def put_many(self, items: Iterable[tuple[str, LayerResult]]) -> None:
        """Store ``(key, result)`` pairs in both tiers.

        The memory tier takes them one by one; the disk tier groups
        them by shard, keeping their order, and writes each shard once
        (:meth:`_disk_put`).  Callers pass everything one dispatch
        computed before any of its jobs is marked done.
        """
        memory_put = self._memory_put
        shards: dict[str, list] | None = (
            {} if self.cache_dir is not None and self._disk_puts else None
        )
        for key, result in items:
            self._puts += 1
            memory_put(key, result)
            if shards is not None:
                shards.setdefault(key[:1], []).append((key, result))
        if shards:
            self._disk_put(shards)

    def clear(self) -> None:
        """Drop the memory tier (disk entries are left untouched)."""
        self._memory.clear()
        self._hits = self._misses = self._disk_hits = self._puts = 0
        self._lru_active = False

    def __len__(self) -> int:
        return len(self._memory)


class NullCache:
    """A cache that never hits -- the ``--no-cache`` implementation."""

    cache_dir = None

    def __init__(self):
        self._misses = 0

    @property
    def stats(self) -> CacheStats:
        """Current accounting (only misses can ever be non-zero)."""
        return CacheStats(misses=self._misses)

    def lookup(self, simulator, need, layer_by_layer):  # noqa: ARG002
        """Every shape misses; no key is computed (``put`` drops it)."""
        self._misses += len(need)
        return {}, dict.fromkeys(need)

    def get(self, key: str) -> LayerResult | None:  # noqa: ARG002
        self._misses += 1
        return None

    def put(self, key: str, result: LayerResult) -> None:  # noqa: ARG002
        pass

    def put_many(self, items) -> None:  # noqa: ARG002
        pass

    def clear(self) -> None:
        self._misses = 0

    def __len__(self) -> int:
        return 0


# ----------------------------------------------------------------------
# Cached simulation entry points
# ----------------------------------------------------------------------
def _rebind_layer(result: LayerResult, layer: ConvLayer) -> LayerResult:
    """Re-attach a shape-keyed result (a cache hit or a grid lane) to a
    specific layer.

    Two layers with the same shape key cost the same but may carry
    different names; rebinding keeps the reported layer identity
    exactly what a fresh simulation would have produced.  The copy
    keeps the source's pre-audit marker, so a rebound grid lane still
    skips the per-layer audit.

    Only the *name* is compared: the cache key already pins every
    shape field (``layer.shape_key`` covers all nine dimensions), so
    two layers reaching the same key can differ in name alone.  The
    copies are made by duplicating ``__dict__`` rather than via
    :func:`dataclasses.replace`: rebinding happens for every shape a
    campaign shares across models, the replaced values are taken from
    an already-validated result, and skipping the generated
    ``__init__`` is several times cheaper.
    """
    if result.layer is layer or result.layer.name == layer.name:
        return result
    mapping = object.__new__(Mapping)
    mapping.__dict__.update(result.mapping.__dict__)
    mapping.__dict__["layer"] = layer
    rebound = object.__new__(LayerResult)
    rebound.__dict__.update(result.__dict__)
    rebound.__dict__["layer"] = layer
    rebound.__dict__["mapping"] = mapping
    return rebound


def simulate_layer_cached(
    simulator: Simulator,
    layer: ConvLayer,
    *,
    layer_by_layer: bool = True,
    cache: "ResultCache | NullCache | None" = None,
) -> LayerResult:
    """``Simulator.simulate_layer`` through the content-addressed cache."""
    if cache is None:
        cache = default_cache()
    shape = layer.shape_key
    hits, misses = cache.lookup(simulator, {shape: layer}, layer_by_layer)
    if hits:
        return _rebind_layer(hits[shape], layer)
    result = simulator.simulate_layer(layer, layer_by_layer=layer_by_layer)
    cache.put(misses[shape], result)
    return result


def simulate_model_cached(
    simulator: Simulator,
    model: LayerSet,
    *,
    layer_by_layer: bool = False,
    cache: "ResultCache | NullCache | None" = None,
    vectorize: bool = True,
    on_fallback: Callable[[str], None] | None = None,
) -> ModelResult:
    """``Simulator.simulate_model`` through the content-addressed cache.

    Mirrors the plain method exactly: within one model, duplicate
    shapes share one :class:`LayerResult` object carrying the *first*
    occurrence's name, so the output is indistinguishable from an
    uncached run.

    The model's unique shapes are resolved in one
    :meth:`ResultCache.lookup`; the misses are then evaluated as one
    batch through the kernel's one-machine entry
    (:func:`repro.core.vectorized.simulate_layers_vectorized`), which
    is bit-identical to the scalar path, and put in one call.  A
    machine the kernel declines runs on the scalar simulator, and
    ``on_fallback(reason)`` hears why.  ``vectorize=False`` evaluates
    the misses on the scalar simulator only (a :class:`SweepRunner`
    built with ``vectorize=False``).
    """
    if cache is None:
        cache = default_cache()
    unique, shapes, _ = _model_structure(model)
    need = dict(zip(shapes, unique))
    hits, misses = cache.lookup(simulator, need, layer_by_layer)
    if misses:
        layers = [need[shape] for shape in misses]
        if vectorize:
            # Looked up per call, so an instrumented entry is honoured.
            from . import vectorized

            built = vectorized.simulate_layers_vectorized(
                simulator,
                layers,
                layer_by_layer=layer_by_layer,
                on_fallback=on_fallback,
            )
        else:
            built = [
                simulator.simulate_layer(layer, layer_by_layer=layer_by_layer)
                for layer in layers
            ]
        hits.update(zip(misses, built))
        cache.put_many(zip(misses.values(), built))
    return _stitch(simulator.spec, model, hits)


def _stitch(
    spec: AcceleratorSpec, model: LayerSet, by_shape: dict
) -> ModelResult:
    """One job's :class:`ModelResult` from shape-keyed layer results.

    Each unique shape's result is rebound to the model's first layer
    of that shape and shared by every occurrence, as
    :meth:`Simulator.simulate_model` shares it.  When every unique
    result carries the per-layer pre-audit marker for this exact spec
    object, the model gets the marker too, and ``audit_model_result``
    skips the whole per-occurrence walk; any scalar-fallback or
    foreign-cache entry breaks the chain and the audit runs in full.
    """
    unique, shapes, occ = _model_structure(model)
    resolved = [
        _rebind_layer(by_shape[shape], layer)
        for layer, shape in zip(unique, shapes)
    ]
    result = ModelResult(accelerator=spec.name, model=model.name)
    result.layers.extend(map(resolved.__getitem__, occ))
    if all(r.__dict__.get(_PREAUDIT_ATTR) is spec for r in resolved):
        result.__dict__[_PREAUDIT_ATTR] = spec
    return result


# ----------------------------------------------------------------------
# The sweep runner
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepJob:
    """One (machine, model) unit of work in a campaign."""

    simulator: Simulator
    model: LayerSet
    layer_by_layer: bool = False


@dataclass(frozen=True)
class JobStats:
    """Per-job execution accounting from one :meth:`SweepRunner.run`."""

    model: str
    accelerator: str
    wall_time_s: float
    n_layers: int
    n_unique_layers: int
    cache_hits: int
    cache_misses: int
    mode: str  # "serial" | "pool" | "resumed" | "grid"
    attempts: int = 1
    failed: bool = False
    index: int = -1


@dataclass(frozen=True)
class PlanDecision:
    """One execution-planner choice for a group of campaign jobs.

    ``plan`` is the mechanism the group was routed to (``"grid"``:
    in-process grid kernel, ``"pool"``: the warm-worker pool,
    ``"serial"``: in-process per-job loop); ``reason``
    says why in one human-readable clause.  Grid decisions also carry
    the evaluated lane count (machines x union shapes).
    """

    plan: str
    jobs: int
    reason: str
    lanes: int = 0

    def describe(self) -> str:
        text = f"{self.plan} x{self.jobs} ({self.reason})"
        if self.lanes:
            text += f" [{self.lanes} lanes]"
        return text


@dataclass(frozen=True)
class JobFailure:
    """Structured record of one job that exhausted its retry budget."""

    index: int
    model: str
    accelerator: str
    error_type: str
    message: str
    traceback_summary: str
    attempts: int
    phase: str  # "serial" | "grid" | "parallel" (a pool worker)
    #: Structured invariant-violation payloads (dicts from
    #: :meth:`repro.core.invariants.InvariantViolation.to_dict`) when
    #: the job failed the post-run result audit; empty otherwise.
    violations: tuple = ()
    #: Wall-clock seconds of each attempt, in attempt order.
    attempt_wall_times_s: tuple = ()
    #: Total backoff seconds waited between this job's attempts.
    backoff_slept_s: float = 0.0
    #: The job was quarantined as poison (its attempts kept killing
    #: workers); it is never re-attempted this run and stays skipped
    #: on a plain resume until ``retry_quarantined`` is requested.
    quarantined: bool = False

    def describe(self) -> str:
        """One-line human-readable failure summary."""
        text = (
            f"job #{self.index} ({self.accelerator} / {self.model}) failed "
            f"after {self.attempts} attempt(s): "
            f"{self.error_type}: {self.message}"
        )
        if self.quarantined:
            text += " [quarantined]"
        return text


class SweepJobError(RuntimeError):
    """A job failed permanently and the runner runs ``on_error='raise'``."""

    def __init__(self, failure: JobFailure):
        super().__init__(failure.describe())
        self.failure = failure


def _traceback_summary(exc: BaseException, limit: int = 4) -> str:
    """Compact single-line tail of an exception's traceback."""
    frames = traceback.extract_tb(exc.__traceback__)[-limit:]
    parts = [
        f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"
        for frame in frames
    ]
    return " <- ".join(reversed(parts)) if parts else ""


def _attempt_error(exc: BaseException) -> tuple:
    """A failed attempt as ``(type name, message, traceback summary,
    violation dicts)``.  The dicts are ``None`` unless ``exc`` is an
    :class:`InvariantViolationError`, whose verdict is deterministic."""
    violations = (
        tuple(v.to_dict() for v in exc.violations)
        if isinstance(exc, InvariantViolationError)
        else None
    )
    return type(exc).__name__, str(exc), _traceback_summary(exc), violations


#: ``JobFailure.phase`` of each ``JobStats.mode``.
_PHASES = {
    "serial": "serial",
    "resumed": "serial",
    "grid": "grid",
    "pool": "parallel",
}


class SweepRunner:
    """Runs a campaign of sweep jobs with deterministic result order.

    * results come back in exactly the submission order, whatever the
      completion order was;
    * the planner (:attr:`exec_plan`) picks where jobs run.  By
      default every machine-family group is evaluated in-process
      through the grid kernel.  Per-job dispatch (``"serial"`` /
      ``"pool"``, a scalar-mode runner, machines the kernel declines)
      runs the in-process serial loop with one worker or a lone job,
      and otherwise the **persistent warm-worker pool**
      (:class:`repro.core.pool.WorkerPool`), the only way a job leaves
      the parent process.  A *structural* pool failure (fork refusal,
      unpicklable job) falls back to the serial loop transparently,
      records :attr:`fallback_reason` and sets :attr:`used_fallback`;
    * **fault isolation:** a raising, crashing, hanging or
      memory-budget-breaching pool job never takes sibling jobs'
      results down with it (a worker that dies, hangs or breaches the
      budget is terminated and respawned; batch-mates that never
      started are re-queued without being charged an attempt, and a
      budget casualty retries solo);
    * every route settles a finished attempt through one policy
      (:meth:`_settle`).  Failed attempts are retried up to
      :attr:`retries` times with jittered exponential backoff (at most
      ``backoff_s * 2**(attempt-1)``), pool attempts optionally
      time-limited by :attr:`timeout_s`; an invariant violation is
      never retried.  Exhausted jobs become :class:`JobFailure`
      records in :attr:`failures`; ``on_error="raise"`` (default)
      turns the first permanent failure into :class:`SweepJobError`,
      while ``on_error="skip"`` keeps going and returns ``None`` in
      the failed slots;
    * pool results seed the parent cache *as they arrive*, and a
      :class:`~repro.core.campaign.CampaignManifest` (when attached)
      is checkpointed per job, so a killed campaign can resume;
    * on resume, jobs the manifest already marks done are replayed
      through the (disk) cache -- byte-identical by construction.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        cache: "ResultCache | NullCache | None" = None,
        *,
        timeout_s: float | None = None,
        retries: int | None = None,
        backoff_s: float = 0.25,
        on_error: str | None = None,
        manifest: "CampaignManifest | None | bool" = None,
        resume: bool | None = None,
        progress: Callable[[JobStats], None] | None = None,
        audit: bool | None = None,
        vectorize: bool | None = None,
        budget: "CampaignBudget | None | bool" = None,
        retry_quarantined: bool | None = None,
        exec_plan: str = "auto",
    ):
        # Every argument not given comes from the process record; the
        # replace re-runs its validation over the explicit ones.
        config = run_config()
        explicit = {
            name: value
            for name, value in (
                ("workers", max_workers),
                ("timeout_s", timeout_s),
                ("retries", retries),
                ("on_error", on_error),
                ("resume", resume),
                ("audit", audit),
                ("retry_quarantined", retry_quarantined),
            )
            if value is not None
        }
        if budget is not None:
            explicit["budget"] = None if budget is False else budget
        if explicit:
            config = dataclasses.replace(config, **explicit)
        self.max_workers = config.workers
        self.cache = default_cache() if cache is None else cache
        self.timeout_s = config.timeout_s
        self.retries = config.retries
        self.backoff_s = backoff_s
        self.on_error = config.on_error
        if manifest is None:
            self.manifest = default_manifest()
        elif manifest is False:
            self.manifest = None
        else:
            self.manifest = manifest
        self.resume = config.resume
        self.progress = progress
        #: Post-run invariant audit of every accepted job result
        #: (:func:`repro.core.invariants.audit_model_result`).  A
        #: violating result is never returned, cached or marked done:
        #: it becomes a :class:`JobFailure` carrying the structured
        #: violations.  Audit failures are deterministic, so they are
        #: never retried.
        self.audit = config.audit
        #: Evaluate cache misses through the NumPy kernel
        #: (:func:`repro.core.grid.evaluate_grid`) -- bit-identical to
        #: the scalar path by construction, ~an order of magnitude
        #: faster on full-zoo sweeps.  ``vectorize=False`` runs the
        #: scalar oracle on every dispatch path: in-process and in
        #: pool workers alike.
        self.vectorize = True if vectorize is None else bool(vectorize)
        #: Campaign execution plan: ``"auto"`` groups jobs by machine
        #: family and evaluates each group through the grid kernel
        #: (:mod:`repro.core.grid`), sending machines the kernel
        #: declines to the scalar simulator; ``"pool"``/``"serial"``
        #: force per-job dispatch.  All plans are bit-identical -- the
        #: planner only moves where the same floats are computed.
        self.exec_plan = exec_plan
        if self.exec_plan not in _EXEC_PLANS:
            raise ValueError(
                f"exec_plan must be one of {_EXEC_PLANS}, "
                f"got {self.exec_plan!r}"
            )
        #: :class:`PlanDecision` records of the last :meth:`run`.
        self.plan_decisions: list[PlanDecision] = []
        #: ``(accelerator, reason)`` records, one per machine the grid
        #: kernel declined during the last :meth:`run`; that machine's
        #: evaluations ran on the scalar simulator (still exact).
        self.grid_fallbacks: list[tuple[str, str]] = []
        self._declined: set[int] = set()
        #: Total (machine x shape) lanes the grid kernel evaluated /
        #: machines it served during the last :meth:`run`.
        self.grid_lanes = 0
        self.grid_machines = 0
        self._pool = None  # lazily-built repro.core.pool.WorkerPool
        # Guards pool teardown: the campaign service closes runners
        # from HTTP/signal threads while scheduler threads may race
        # the same teardown, and close() must stay a silent no-op
        # however many times (or from however many threads) it runs.
        self._close_lock = threading.Lock()
        #: Lifetime :class:`repro.core.pool.PoolStats` of the current /
        #: most recent pool (survives pool teardown for reporting).
        self.pool_stats = None
        #: Monotonic task-id source: ids stay unique across runs so a
        #: stale reply can never be mistaken for a live job.
        self._task_counter = 0
        self.stats: list[JobStats] = []
        self.failures: list[JobFailure] = []
        self.used_fallback = False
        self.fallback_reason: str | None = None
        self.resumed_jobs = 0
        #: Campaign budget (``None``: the record's; ``False``:
        #: explicitly none, mirroring the ``manifest`` convention).
        self.budget = config.budget
        #: Make jobs a prior run quarantined eligible again on resume.
        self.retry_quarantined = bool(config.retry_quarantined)
        #: Structured summary of the last :meth:`run` (also built when
        #: the run raised): see :class:`~repro.core.budget.CampaignOutcome`.
        self.outcome: "CampaignOutcome | None" = None
        # Sticky stop state: a budget breach or drain signal stops
        # *the campaign* -- i.e. the runner's lifetime, which may span
        # several run() calls (chunked DSE loops, availability phases).
        self._stop_reason: str | None = None
        self._stop_diagnosis = ""
        self._campaign_started: float | None = None
        self._deadline: float | None = None
        self._breaker = (
            CircuitBreaker(
                self.budget.breaker_window, self.budget.breaker_threshold
            )
            if self.budget is not None and self.budget.breaker_window > 0
            else None
        )
        self._budget_failures = 0
        self._budget_consec = 0
        #: Worker-killing attempt counts per campaign job index (the
        #: poison-quarantine counter); reset per run().
        self._crash_counts: dict[int, int] = {}
        #: ``index -> (wall times, backoff slept)`` of the failed
        #: attempts of a job awaiting its next attempt; reset per run().
        self._attempt_history: dict[int, tuple[tuple, float]] = {}
        #: Full-jitter backoff RNG; re-seeded deterministically per
        #: run() (from the manifest's campaign id when one is bound).
        self._jitter_rng = random.Random(0)
        # Time-lost-to-retries accounting for the last run().
        self._retry_attempts = 0
        self._retry_wall_s = 0.0
        self._retry_backoff_s = 0.0

    # -- shared helpers ------------------------------------------------
    def _backoff_delay(self, attempt: int) -> float:
        """Full-jitter backoff before retry number ``attempt + 1``.

        Uniform in ``[0, backoff_s * 2**(attempt-1)]`` -- the classic
        exponential envelope stays the *maximum*, while the jitter
        stops parallel workers retrying after a shared-cause failure
        from thundering back in lockstep.  The RNG is seeded from the
        campaign id, so a fixed campaign replays identical delays.
        """
        envelope = self.backoff_s * (2.0 ** (attempt - 1))
        return self._jitter_rng.uniform(0.0, envelope)

    def request_stop(self, reason: str, diagnosis: str = "") -> None:
        """Stop the campaign: no new dispatch, drain, flush, return.

        Idempotent -- the first stop reason wins.  In-flight attempts
        are drained normally; undispatched jobs stay *pending* in the
        manifest (no failure record), so a later ``--resume`` finishes
        the campaign byte-identically.
        """
        if self._stop_reason is not None:
            return
        self._stop_reason = reason
        self._stop_diagnosis = diagnosis
        logger.warning(
            "sweep campaign stopping (%s)%s",
            reason,
            f": {diagnosis}" if diagnosis else "",
        )

    @property
    def stopped(self) -> bool:
        """Whether a budget or signal has stopped this campaign."""
        return self._stop_reason is not None

    def _check_stop(self, now: float | None = None) -> bool:
        """Consult every stop source; ``True`` when dispatch must end."""
        if self._stop_reason is not None:
            return True
        pending = _global_stop()
        if pending is not None:
            self.request_stop(*pending)
            return True
        if self._deadline is not None:
            if (time.monotonic() if now is None else now) >= self._deadline:
                self.request_stop(
                    "deadline",
                    f"the {self.budget.deadline_s}s campaign deadline "
                    "expired",
                )
                return True
        return False

    def _note_attempt(self, ok: bool, error_type: str | None = None) -> None:
        """Feed one attempt outcome to the budget circuit breaker."""
        if ok:
            self._budget_consec = 0
        if self._breaker is not None and not self._breaker.tripped:
            if self._breaker.record(ok, error_type):
                self.request_stop(
                    "breaker",
                    "circuit breaker tripped: " + self._breaker.diagnosis(),
                )

    def _poisoned(self, index: int, error_type: str) -> bool:
        """Count a worker-killing attempt; ``True`` once the job at
        ``index`` has crossed the poison threshold and must be
        quarantined instead of retried (even with budget left)."""
        budget = self.budget
        if (
            budget is None
            or budget.poison_threshold is None
            or error_type not in _CRASH_KINDS
        ):
            return False
        count = self._crash_counts.get(index, 0) + 1
        self._crash_counts[index] = count
        return count >= budget.poison_threshold

    def _settle(
        self,
        index: int,
        job: SweepJob,
        attempt: int,
        started: float,
        mode: str,
        result: "ModelResult | None" = None,
        error: "tuple | None" = None,
        hits: int = 0,
        misses: int = 0,
    ) -> "ModelResult | float | None":
        """Settle one finished attempt of the job at campaign ``index``.

        Every route -- grid stitch, serial loop, pool event loop --
        calls this once per attempt it ran (``attempt`` counts from 1,
        ``started`` is its ``time.perf_counter()`` start) with either
        the attempt's ``result`` or its ``error`` (see
        :func:`_attempt_error`).  A result is audited first.  A
        violation, whether the audit found it or the attempt raised
        it, is deterministic: the job fails at once with its violation
        payload, is never retried, and its result is neither cached
        nor marked done.  Any other error is retried with
        jittered backoff while :attr:`retries` lasts, unless the job
        has become poison.  A settled job gets one :class:`JobStats`
        (and progress call) and one manifest record; a failed one also
        a :class:`JobFailure` carrying every attempt's wall time and
        the backoff slept between them.

        Returns the accepted result; a ``float``, the backoff delay
        after which the route must run the next attempt; or ``None``
        when the job failed for good (``on_error="skip"``) or a stop
        left it pending for a resume.  ``mode="resumed"`` replays
        neither re-mark the manifest done nor check for a stop.
        """
        resumed = mode == "resumed"
        if result is not None and self.audit:
            found = audit_model_result(result, job.simulator.spec)
            if found:
                result = None
                error = (
                    InvariantViolationError.__name__,
                    f"{len(found)} invariant violation(s): "
                    + "; ".join(v.describe() for v in found[:3]),
                    "",
                    tuple(v.to_dict() for v in found),
                )
        wall = time.perf_counter() - started
        failure = None
        if result is not None:
            self._note_attempt(True)
            if attempt > 1:
                self._attempt_history.pop(index, None)
            if mode == "pool":
                # Results computed out of process warm the parent
                # cache, before the manifest counts the job as done.
                self._seed_job(job, result)
            if self.manifest is not None and not resumed:
                self.manifest.mark_done(index)
        else:
            error_type, message, tb, violations = error
            self._note_attempt(False, error_type)
            walls, slept = (
                self._attempt_history.pop(index, ((), 0.0))
                if attempt > 1
                else ((), 0.0)
            )
            walls += (wall,)
            quarantined = self._poisoned(index, error_type)
            if (
                violations is None
                and not quarantined
                and attempt <= self.retries
            ):
                if not resumed and self._check_stop():
                    # Stopped mid-retry: the job stays pending
                    # (unrecorded) so a resume re-attempts it.
                    return None
                delay = self._backoff_delay(attempt)
                self._retry_attempts += 1
                self._retry_wall_s += wall
                self._retry_backoff_s += delay
                self._attempt_history[index] = (walls, slept + delay)
                return delay
            failure = JobFailure(
                index=index,
                model=job.model.name,
                accelerator=job.simulator.spec.name,
                error_type=error_type,
                message=message,
                traceback_summary=tb,
                attempts=attempt,
                phase=_PHASES[mode],
                violations=violations or (),
                attempt_wall_times_s=walls,
                backoff_slept_s=slept,
                quarantined=quarantined,
            )
            self.failures.append(failure)
            logger.warning("sweep %s", failure.describe())
            if self.manifest is not None:
                if quarantined:
                    self.manifest.mark_quarantined(index, failure)
                else:
                    self.manifest.mark_failed(index, failure)
            # Failure-count budgets: stop the campaign (graceful drain,
            # not an abort) once too many jobs failed permanently.
            self._budget_failures += 1
            self._budget_consec += 1
            budget = self.budget
            if budget is not None and self._stop_reason is None:
                if (
                    budget.max_failures is not None
                    and self._budget_failures >= budget.max_failures
                ):
                    self.request_stop(
                        "max-failures",
                        f"{self._budget_failures} permanent job failure(s) "
                        "reached the max_failures budget",
                    )
                elif (
                    budget.max_consecutive_failures is not None
                    and self._budget_consec >= budget.max_consecutive_failures
                ):
                    self.request_stop(
                        "max-consecutive-failures",
                        f"{self._budget_consec} permanent job failure(s) in "
                        "a row reached the max_consecutive_failures budget",
                    )
        stats = JobStats(
            model=job.model.name,
            accelerator=job.simulator.spec.name,
            wall_time_s=wall,
            n_layers=len(result.layers) if result is not None else 0,
            n_unique_layers=len(job.model.unique_layers),
            cache_hits=hits,
            cache_misses=misses,
            mode=mode,
            attempts=attempt,
            failed=result is None,
            index=index,
        )
        self.stats.append(stats)
        if self.progress is not None:
            self.progress(stats)
        if failure is not None and self.on_error == "raise":
            raise SweepJobError(failure)
        return result

    def _seed_job(self, job: SweepJob, result: ModelResult) -> None:
        """Warm the parent cache from one completed job's results."""
        fingerprint = simulator_fingerprint(job.simulator)
        unique = {id(r): r for r in result.layers}.values()
        self.cache.put_many(
            (layer_cache_key(fingerprint, r.layer, job.layer_by_layer), r)
            for r in unique
        )

    def _grid_declined(self, simulator: Simulator, reason: str) -> None:
        """Record one :attr:`grid_fallbacks` entry per declined machine."""
        if id(simulator) not in self._declined:
            self._declined.add(id(simulator))
            self.grid_fallbacks.append((simulator.spec.name, reason))

    # -- serial path ---------------------------------------------------
    def _run_serial(
        self,
        jobs: Sequence[SweepJob],
        indexes: Sequence[int] | None = None,
        mode: str = "serial",
        vectorize: bool | None = None,
    ) -> list[ModelResult | None]:
        """In-process per-job loop; ``vectorize`` (default: the
        runner's mode) picks the kernel or the scalar simulator.  A
        retry waits here, in-line."""
        if vectorize is None:
            vectorize = self.vectorize
        results: list[ModelResult | None] = []
        # Resumed replays are exempt from stop checks: they are cheap
        # cache reads that materialise already-earned results.
        check_stop = mode != "resumed"
        for index, job in zip(
            range(len(jobs)) if indexes is None else indexes, jobs
        ):
            if check_stop and self._check_stop():
                # Budget/signal stop: remaining jobs stay pending in
                # the manifest (no record), resumable later.
                break
            attempt = 1
            while True:
                before = self.cache.stats
                start = time.perf_counter()
                result = error = None
                try:
                    result = simulate_model_cached(
                        job.simulator,
                        job.model,
                        layer_by_layer=job.layer_by_layer,
                        cache=self.cache,
                        vectorize=vectorize,
                        on_fallback=functools.partial(
                            self._grid_declined, job.simulator
                        ),
                    )
                except Exception as exc:
                    error = _attempt_error(exc)
                after = self.cache.stats
                outcome = self._settle(
                    index,
                    job,
                    attempt,
                    start,
                    mode,
                    result,
                    error,
                    hits=after.hits - before.hits,
                    misses=after.misses - before.misses,
                )
                if type(outcome) is not float:
                    break
                time.sleep(outcome)
                attempt += 1
            results.append(outcome)
        return results

    # -- execution planner / grid path ---------------------------------
    def _dispatch(self, sub: Sequence[SweepJob], todo: Sequence[int]):
        """Route the pending jobs per :attr:`exec_plan`.

        ``serial``/``pool`` force per-job dispatch; ``auto`` grids
        every machine-family group (a scalar-mode runner has no kernel
        to plan for and dispatches per job).  Every route computes
        bit-identical results.
        """
        plan = self.exec_plan
        if plan == "serial":
            self.plan_decisions.append(
                PlanDecision(
                    plan="serial",
                    jobs=len(sub),
                    reason="forced by exec_plan='serial'",
                )
            )
            return self._run_serial(sub, indexes=todo)
        if plan == "pool":
            return self._dispatch_pool(
                sub, todo, reason="forced by exec_plan='pool'"
            )
        if not self.vectorize:
            return self._dispatch_pool(sub, todo)
        return self._run_planned(sub, todo)

    def _dispatch_pool(
        self,
        sub: Sequence[SweepJob],
        todo: Sequence[int],
        *,
        reason: str | None = None,
        vectorize: bool | None = None,
    ):
        """Per-job dispatch: serial with one worker -- or for a lone
        job, unless a ``reason`` asks for worker processes -- otherwise
        the warm-worker pool with structural fallback to serial.
        ``vectorize`` (default: the runner's mode) travels with every
        dispatched job."""
        if vectorize is None:
            vectorize = self.vectorize
        if self.max_workers <= 1 or (len(sub) <= 1 and reason is None):
            self.plan_decisions.append(
                PlanDecision(
                    plan="serial",
                    jobs=len(sub),
                    reason=(
                        "single job" if len(sub) <= 1 else "max_workers=1"
                    ),
                )
            )
            return self._run_serial(sub, indexes=todo, vectorize=vectorize)
        decision = PlanDecision(
            plan="pool",
            jobs=len(sub),
            reason=reason
            or f"{len(sub)} job(s) across {self.max_workers} worker(s)",
        )
        self.plan_decisions.append(decision)
        try:
            out = self._run_pool(sub, indexes=todo, vectorize=vectorize)
            self.pool_stats.plan = decision.describe()
            return out
        except SweepJobError:
            raise  # a *job* failed permanently: not structural
        except Exception as exc:  # pool refused / pickling failed
            self.used_fallback = True
            self.fallback_reason = repr(exc)
            logger.warning(
                "sweep pool unavailable (%s); falling back to "
                "serial execution",
                self.fallback_reason,
            )
            # Drop only this dispatch's partial records: stats and
            # failures earned by resumed replays or by grid groups
            # that ran before this leftover dispatch must survive.
            keep = set(todo)
            self.stats = [s for s in self.stats if s.index not in keep]
            self.failures = [
                f for f in self.failures if f.index not in keep
            ]
            return self._run_serial(sub, indexes=todo, vectorize=vectorize)

    def _run_planned(
        self, sub: Sequence[SweepJob], todo: Sequence[int]
    ) -> "list[ModelResult | None]":
        """Plan and execute: every machine-family group in-process
        through the grid kernel; jobs of machines the kernel declines
        run on the scalar simulator through the per-job dispatch --
        in worker processes whenever there are several workers, so a
        crashing declined job cannot take the grid results with it.

        Every group's lanes are computed first and land in one
        :meth:`ResultCache.put_many`, so each shard takes one write
        per dispatch and every entry is on disk before any grid job
        is marked done; the grid jobs are then stitched and settled in
        group order.  A stop is checked before each group and before
        each job's settle: the lanes already computed still land, and
        the unsettled jobs stay pending in the manifest, to be served
        as hits on resume.
        """
        groups, leftover = self._plan_grid_groups(sub)
        results: list[ModelResult | None] = [None] * len(sub)
        staged: list = []  # (cache key, lane) of every group, in put order
        stitched: list = []  # (sub position, hits, launch share)
        for key, machines in groups.items():
            if self._check_stop():
                break
            declined, jobs, elapsed = self._grid_group_lanes(
                key, machines, sub, staged
            )
            leftover.extend(declined)
            stitched.extend(
                (pos, hits, elapsed / len(jobs)) for pos, hits in jobs
            )
        t0 = time.perf_counter()
        self.cache.put_many(staged)
        put_share = (
            (time.perf_counter() - t0) / len(stitched) if stitched else 0.0
        )
        for pos, hits, share in stitched:
            if self._check_stop():
                break
            job = sub[pos]
            start = time.perf_counter()
            result = _stitch(job.simulator.spec, job.model, hits)
            # Each job is charged its share of its group's launch time
            # and of the dispatch's one cache write.
            results[pos] = self._settle(
                todo[pos], job, 1, start - share - put_share, "grid", result
            )
        if leftover and not self._check_stop():
            leftover.sort()
            lout = self._dispatch_pool(
                [sub[p] for p in leftover],
                [todo[p] for p in leftover],
                reason=f"{len(leftover)} declined job(s) isolated across "
                f"{self.max_workers} worker(s)",
                vectorize=False,
            )
            for p, result in zip(leftover, lout):
                results[p] = result
        return results

    def _plan_grid_groups(self, sub: Sequence[SweepJob]) -> tuple:
        """Partition jobs into machine-family groups + scalar leftovers.

        Groups map :func:`repro.core.grid.family_key` to ``{machine id:
        (simulator, [sub positions])}`` in order of first appearance;
        a group of one machine grids like any other.  A job whose
        machine fails :func:`repro.core.grid.grid_gap`, or whose model
        has a layer outside :func:`repro.core.grid.lane_covered`, is
        left over for the scalar simulator, and its machine gets a
        :attr:`grid_fallbacks` entry.
        """
        from . import grid as grid_mod

        leftover: list[int] = []
        gaps: dict[int, str | None] = {}
        uncovered: dict[int, ConvLayer | None] = {}
        groups: dict[tuple, dict] = {}
        for pos, job in enumerate(sub):
            simulator = job.simulator
            sim_id = id(simulator)
            if sim_id not in gaps:
                gaps[sim_id] = grid_mod.grid_gap(simulator)
            reason = gaps[sim_id]
            if reason is None:
                model_id = id(job.model)
                if model_id not in uncovered:
                    uncovered[model_id] = next(
                        (
                            layer
                            for layer in _model_structure(job.model)[0]
                            if not grid_mod.lane_covered(layer)
                        ),
                        None,
                    )
                layer = uncovered[model_id]
                if layer is not None:
                    reason = (
                        f"layer {layer.name!r} is outside the grid's "
                        "lane coverage"
                    )
            if reason is not None:
                self._grid_declined(simulator, reason)
                leftover.append(pos)
                continue
            key = grid_mod.family_key(simulator, job.layer_by_layer)
            machines = groups.setdefault(key, {})
            entry = machines.get(sim_id)
            if entry is None:
                machines[sim_id] = entry = (simulator, [])
            entry[1].append(pos)
        return groups, leftover

    def _grid_group_lanes(
        self,
        key: tuple,
        group: dict,
        sub: Sequence[SweepJob],
        staged: list,
    ) -> tuple:
        """Resolve one machine-family group's lanes through the grid.

        Lowers the union of the group's layer shapes once and evaluates
        the whole (machines x shapes) grid in one kernel launch
        (chunked along the machine axis under :data:`_GRID_LANE_BUDGET`).
        Each machine resolves the union shapes it needs in one
        :meth:`ResultCache.lookup`, and the group's hits are audited in
        one array pass (:func:`repro.core.grid.preaudit_hits`).  New
        lanes are appended to ``staged`` as ``(cache key, lane)`` for
        the dispatch's one put.  Returns ``(declined, jobs, elapsed)``:
        the sub-positions of jobs whose machine the kernel declined
        (they run on the scalar simulator, bit-identically), ``(sub
        position, shape -> result)`` for every job to stitch, in
        submission order, and the seconds spent.  Stitched jobs'
        ``JobStats`` carry ``mode="grid"`` with zero cache counts (the
        probes are charged to the runner-level cache stats).
        """
        from . import grid as grid_mod

        layer_by_layer = bool(key[1])
        machines = list(group.values())
        t0 = time.perf_counter()
        cache = self.cache

        # Union shapes across the whole group + per-machine need maps.
        # Built from per-model shape dicts so the inner merge runs at
        # C speed (dict.update) instead of one Python loop per lane.
        union: dict[tuple, ConvLayer] = {}
        needs: list[dict] = []
        model_shapes: dict[int, dict] = {}
        for simulator, positions in machines:
            need: dict[tuple, ConvLayer] = {}
            for pos in positions:
                model = sub[pos].model
                shapes_map = model_shapes.get(id(model))
                if shapes_map is None:
                    unique, shapes, _ = _model_structure(model)
                    model_shapes[id(model)] = shapes_map = dict(
                        zip(shapes, unique)
                    )
                need.update(shapes_map)
            union.update(need)
            needs.append(need)

        # Cache probes: hits resolve now, misses ride the grid.  Hits
        # not yet audited against their machine's spec are judged
        # together by the grid's array audit; the clean ones carry the
        # pre-audit marker into the stitch below.
        resolved: list = []  # per machine: shape -> LayerResult, or None
        missing: list = []  # per machine: shape -> cache key
        audit_specs: list = []  # per machine with unaudited hits: its spec,
        audit_hits: list = []  # the hits not yet marked for that spec,
        audit_layers: list = []  # and the layer each was looked up for
        for (simulator, positions), need in zip(machines, needs):
            hits, miss = cache.lookup(simulator, need, layer_by_layer)
            spec = simulator.spec
            unaudited = [
                shape
                for shape, hit in hits.items()
                if hit.__dict__.get(_PREAUDIT_ATTR) is not spec
            ]
            if unaudited:
                audit_specs.append(spec)
                audit_hits.append([hits[shape] for shape in unaudited])
                audit_layers.append([need[shape] for shape in unaudited])
            resolved.append(hits)
            missing.append(miss)
        if audit_hits and self.audit:
            grid_mod.preaudit_hits(audit_specs, audit_hits, audit_layers)

        # One kernel launch per machine chunk over the union shapes.
        # Every chunk's new lanes are staged for the dispatch's put.
        leftover: list[int] = []
        grid_rows = [j for j, miss in enumerate(missing) if miss]
        if grid_rows:
            union_layers = list(union.values())
            rows_per_chunk = max(
                1, _GRID_LANE_BUDGET // max(1, len(union_layers))
            )
            for start in range(0, len(grid_rows), rows_per_chunk):
                chunk = grid_rows[start : start + rows_per_chunk]
                sims = [machines[j][0] for j in chunk]
                try:
                    outcome = grid_mod.evaluate_grid(
                        sims, union_layers, layer_by_layer=layer_by_layer
                    )
                except Exception as exc:
                    # Defensive: a kernel fault must never lose jobs --
                    # the whole chunk runs on the scalar simulator.
                    reason = f"grid kernel error: {exc!r}"
                    logger.warning("sweep grid chunk declined: %s", reason)
                    for j in chunk:
                        simulator, positions = machines[j]
                        self._grid_declined(simulator, reason)
                        leftover.extend(positions)
                        resolved[j] = None
                    continue
                self.grid_lanes += outcome.lanes
                for row, j in enumerate(chunk):
                    lanes = outcome.by_machine[row]
                    simulator, positions = machines[j]
                    if lanes is None:
                        self._grid_declined(simulator, outcome.reasons[row])
                        leftover.extend(positions)
                        resolved[j] = None
                        continue
                    self.grid_machines += 1
                    hits = resolved[j]
                    for shape, ckey in missing[j].items():
                        lane = lanes[shape]
                        hits[shape] = lane
                        staged.append((ckey, lane))

        # The jobs to stitch from the shared lanes, in submission order
        # (positions are unique, so the sort never compares the dicts).
        jobs = sorted(
            (pos, hits)
            for hits, (simulator, positions) in zip(resolved, machines)
            if hits is not None
            for pos in positions
        )
        if jobs:
            served = sum(1 for hits in resolved if hits is not None)
            self.plan_decisions.append(
                PlanDecision(
                    plan="grid",
                    jobs=len(jobs),
                    reason=f"{served} machine(s) x {len(union)} shape(s) "
                    "share one kernel family",
                    lanes=served * len(union),
                )
            )
        return leftover, jobs, time.perf_counter() - t0

    # -- persistent warm-worker pool path ------------------------------
    def _ensure_pool(self):
        """The runner's live :class:`~repro.core.pool.WorkerPool`.

        Built lazily on first parallel dispatch and kept across
        :meth:`run` calls, so e.g. the DSE engine's chunked evaluation
        loop reuses warm workers from chunk to chunk.  A finalizer
        tears the workers down when the runner is garbage-collected;
        call :meth:`close` (or use the runner as a context manager)
        for deterministic shutdown.
        """
        if self._pool is None or self._pool.closed:
            from .pool import WorkerPool

            # Workers mount the campaign's disk tier read-only: warm
            # shards serve hits, but only the parent appends, so N
            # workers cannot write N duplicate entries per result.
            budget = self.budget
            self._pool = WorkerPool(
                self.max_workers,
                cache_dir=getattr(self.cache, "cache_dir", None),
                rss_limit_mb=(
                    budget.max_rss_mb if budget is not None else None
                ),
                rlimit_as_mb=(
                    budget.worker_rlimit_mb if budget is not None else None
                ),
            )
            self.pool_stats = self._pool.stats
            weakref.finalize(self, _close_pool, self._pool)
        self._pool.ensure_workers()
        return self._pool

    def _discard_pool(self) -> None:
        """Tear the pool down (used when in-flight state went stale).

        Thread-safe and idempotent: the pool reference is taken under
        a lock, so concurrent closers (a service draining on SIGTERM
        while a campaign teardown closes the same runner) cannot race
        each other into closing a ``None`` pool, and an
        already-drained runner closes as a silent no-op.
        """
        with self._close_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def close(self) -> None:
        """Shut the warm-worker pool down (idempotent, thread-safe)."""
        self._discard_pool()

    def begin_campaign(
        self,
        *,
        manifest: "CampaignManifest | None | bool" = None,
        budget: "CampaignBudget | None | bool" = None,
        progress: "Callable[[JobStats], None] | None | bool" = None,
    ) -> None:
        """Rebind this runner to a *new* campaign, keeping warm state.

        A runner's stop state, deadline anchor and circuit breaker are
        deliberately sticky across :meth:`run` calls -- one *campaign*
        may span several runs (chunked DSE, availability phases).  A
        long-lived service, however, reuses one runner (and its warm
        worker pool, caches and fingerprint memos) for many unrelated
        campaigns back to back; this method draws the campaign
        boundary: campaign-scoped policy state is reset, execution
        machinery survives.

        For ``manifest`` / ``budget`` / ``progress``: ``None`` keeps
        the current binding, ``False`` clears it, anything else
        becomes the new binding (mirroring the constructor's
        ``manifest=False`` convention).  A pending *process-wide* stop
        (:func:`repro.core.budget.global_stop`) is not cleared -- a
        draining process stops every campaign, including fresh ones.
        """
        if manifest is not None:
            self.manifest = None if manifest is False else manifest
        if budget is not None:
            self.budget = None if budget is False else budget
        if progress is not None:
            self.progress = None if progress is False else progress
        self._stop_reason = None
        self._stop_diagnosis = ""
        self._campaign_started = None
        self._deadline = None
        self._breaker = (
            CircuitBreaker(
                self.budget.breaker_window, self.budget.breaker_threshold
            )
            if self.budget is not None and self.budget.breaker_window > 0
            else None
        )
        self._budget_failures = 0
        self._budget_consec = 0
        self._crash_counts = {}
        self.outcome = None
        self.stats = []
        self.failures = []
        self.resumed_jobs = 0
        self.grid_fallbacks = []
        self._declined = set()

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _run_pool(
        self,
        jobs: Sequence[SweepJob],
        indexes: Sequence[int] | None = None,
        vectorize: bool = True,
    ) -> list[ModelResult | None]:
        """Parallel execution over the persistent warm-worker pool.

        Jobs ship as adaptively-chunked batches to long-lived workers,
        each under the per-job timeout; every finished attempt is
        settled by :meth:`_settle`.  What stays here is where attempts
        run and when they may run again: a retry re-enters the queue
        with a not-before time, a memory-budget casualty re-dispatches
        solo, and only the job a worker was *executing* when it died,
        hung or breached the memory budget is charged an attempt --
        queued batch-mates re-enter the queue untouched.
        """
        from .pool import adaptive_batch_size

        indexes = list(range(len(jobs))) if indexes is None else list(indexes)
        pool = self._ensure_pool()
        n = len(jobs)
        results: list[ModelResult | None] = [None] * n
        #: (pos, attempt, not_before) attempts awaiting dispatch.
        pending: list[tuple[int, int, float]] = [
            (pos, 1, 0.0) for pos in range(n)
        ]
        #: task_id -> (pos, attempt, perf_counter at dispatch).
        active: dict[int, tuple[int, int, float]] = {}
        #: Positions whose last attempt breached the memory budget:
        #: they re-dispatch *solo* (batch size 1) so a leaner retry
        #: cannot take batch-mates down with it again.
        solo: set[int] = set()

        def requeue(task_ids) -> None:
            """Batch-mates that never started: no attempt is charged."""
            for task_id in task_ids:
                pos, attempt, _ = active.pop(task_id)
                pending.append((pos, attempt, 0.0))

        try:
            while pending or active:
                now = time.monotonic()
                if pending and self._check_stop(now):
                    # Budget/signal stop: drop queued attempts (their
                    # jobs stay pending in the manifest -> resumable)
                    # and keep polling until the in-flight ones drain.
                    pending = []
                    if not active:
                        break
                ready = [e for e in pending if e[2] <= now]
                waiting = [e for e in pending if e[2] > now]
                if ready:
                    for worker in pool.idle_workers():
                        if not ready:
                            break
                        size = adaptive_batch_size(
                            len(ready), pool.max_workers
                        )
                        if solo:
                            if ready[0][0] in solo:
                                # A memory-budget casualty retries in a
                                # batch of exactly one.
                                size = 1
                            else:
                                for j in range(1, min(size, len(ready))):
                                    if ready[j][0] in solo:
                                        size = j
                                        break
                        batch, ready = ready[:size], ready[size:]
                        started = time.perf_counter()
                        items = []
                        for pos, attempt, _ in batch:
                            task_id = self._task_counter
                            self._task_counter += 1
                            active[task_id] = (pos, attempt, started)
                            items.append((task_id, jobs[pos]))
                        # ``dispatch`` pickles lazily, per batch.  An
                        # unpicklable job raises here -- a structural
                        # failure :meth:`run` turns into the serial
                        # fallback (the ``finally`` below discards the
                        # pool's now-stale in-flight state).
                        if not pool.dispatch(
                            worker,
                            items,
                            vectorize=vectorize,
                            timeout_s=self.timeout_s,
                        ):
                            # The idle worker had died; it was respawned
                            # and nothing shipped -- just re-dispatch.
                            for task_id, _ in items:
                                pos, attempt, _ = active.pop(task_id)
                                ready.append((pos, attempt, 0.0))
                    pending = ready + waiting
                if not active:
                    # Only backed-off attempts remain: sleep until the
                    # earliest becomes runnable.
                    next_start = min(e[2] for e in pending)
                    time.sleep(
                        min(max(next_start - time.monotonic(), 0.0), 0.5)
                        or 0.001
                    )
                    continue
                wait_s = 0.5
                next_deadline = pool.next_deadline()
                if next_deadline is not None:
                    wait_s = min(wait_s, max(next_deadline - now, 0.0))
                if pending:
                    wait_s = min(
                        wait_s, max(min(e[2] for e in pending) - now, 0.0)
                    )
                events = pool.poll(max(wait_s, 0.005))
                events.extend(pool.expire())
                events.extend(pool.sample_rss())
                for event in events:
                    kind, task_id = event[0], event[1]
                    result = error = None
                    hits = misses = 0
                    if kind == "ok":
                        _, _, result, hits, misses, elapsed = event
                    elif kind == "err":
                        error = event[2:]
                    else:
                        # A worker died, hung or breached the memory
                        # budget: only the job it was executing is
                        # charged an attempt; batch-mates requeue free.
                        requeue(event[2])
                        if task_id is None:
                            continue
                        if kind == "crashed":
                            error = (
                                "WorkerCrashed",
                                "worker process died without reporting "
                                f"(exit code {event[3]})",
                            )
                        elif kind == "timeout":
                            error = (
                                "TimeoutError",
                                f"job attempt exceeded the {self.timeout_s}s "
                                "timeout and was terminated",
                            )
                        else:
                            # "oom": the parent's RSS watchdog turned a
                            # host-level OOM kill into a retryable failure.
                            error = (
                                "MemoryBudgetExceeded",
                                f"worker resident set {event[3]:.0f} MB "
                                f"exceeded the {pool.rss_limit_mb:.0f} MB "
                                "memory budget; worker terminated",
                            )
                        error += ("", None)  # no traceback, no violations
                    pos, attempt, started = active.pop(task_id)
                    if error is None:
                        # The worker timed a finished attempt itself.
                        started = time.perf_counter() - elapsed
                    elif error[0] == "MemoryBudgetExceeded":
                        solo.add(pos)
                    outcome = self._settle(
                        indexes[pos],
                        jobs[pos],
                        attempt,
                        started,
                        "pool",
                        result,
                        error,
                        hits=hits,
                        misses=misses,
                    )
                    if type(outcome) is float:
                        pending.append(
                            (pos, attempt + 1, time.monotonic() + outcome)
                        )
                    elif outcome is not None:
                        results[pos] = outcome
        finally:
            if active or pool.inflight_jobs:
                # Abnormal exit (structural failure or SweepJobError)
                # with jobs still in flight: their eventual replies
                # would be stale, so the pool is torn down -- the next
                # run starts from fresh workers.
                self._discard_pool()
        return results

    # -- public API ----------------------------------------------------
    def run(
        self, jobs: Iterable[SweepJob], *, resume: bool | None = None
    ) -> list[ModelResult | None]:
        """Execute jobs; results are in submission order.

        With ``on_error="skip"`` failed jobs yield ``None`` in their
        slot; everything else is a real :class:`ModelResult`.  Pass
        ``resume=True`` (with a manifest attached) to replay jobs a
        previous -- possibly killed -- run already completed.
        """
        jobs = list(jobs)
        n = len(jobs)
        run_started = time.monotonic()
        if self._campaign_started is None:
            # The campaign clock (and deadline) anchors at the first
            # run() of this runner's lifetime: a chunked search or a
            # multi-phase study shares one deadline across its runs.
            self._campaign_started = run_started
            if self.budget is not None and self.budget.deadline_s is not None:
                self._deadline = run_started + self.budget.deadline_s
        self.stats = []
        self.failures = []
        self.used_fallback = False
        self.fallback_reason = None
        self.resumed_jobs = 0
        self.plan_decisions = []
        self.grid_fallbacks = []
        self._declined = set()
        self.grid_lanes = 0
        self.grid_machines = 0
        self._crash_counts = {}
        self._attempt_history = {}
        self._retry_attempts = 0
        self._retry_wall_s = 0.0
        self._retry_backoff_s = 0.0
        resume = self.resume if resume is None else resume
        done_indexes: list[int] = []
        quarantined_indexes: set[int] = set()
        jitter_seed = 0
        if self.manifest is not None:
            self.manifest.begin(
                jobs,
                resume=resume,
                retry_quarantined=self.retry_quarantined,
            )
            if self.manifest.campaign_id:
                jitter_seed = int(self.manifest.campaign_id[:16], 16)
            if resume:
                done_indexes = [
                    i for i in range(n) if self.manifest.is_done(i)
                ]
                # Poison jobs a prior run quarantined stay skipped on a
                # plain resume (retry_quarantined already cleared them
                # from the manifest when requested).
                quarantined_indexes = {
                    i for i in range(n) if self.manifest.is_quarantined(i)
                }
        self._jitter_rng = random.Random(jitter_seed)
        results: list[ModelResult | None] = [None] * n
        try:
            if done_indexes:
                # Replay completed jobs through the cache: byte-identical
                # (disk hit or pure recomputation), and cheap when the
                # cache directory survived the kill.
                replayed = self._run_serial(
                    [jobs[i] for i in done_indexes],
                    indexes=done_indexes,
                    mode="resumed",
                )
                for i, result in zip(done_indexes, replayed):
                    results[i] = result
                self.resumed_jobs = len(done_indexes)
            skip = set(done_indexes) | quarantined_indexes
            todo = (
                [i for i in range(n) if i not in skip]
                if skip
                else list(range(n))
            )
            if todo:
                sub = [jobs[i] for i in todo]
                out = self._dispatch(sub, todo)
                for i, result in zip(todo, out):
                    results[i] = result
        finally:
            # The outcome is assembled whatever the exit path (normal,
            # budget-stopped, SweepJobError), so a caller catching the
            # raise still sees the structured partial-result summary.
            self.stats.sort(key=lambda s: s.index)
            self.failures.sort(key=lambda f: f.index)
            self._build_outcome(n, results, quarantined_indexes, run_started)
        return results

    def _build_outcome(
        self,
        n: int,
        results: "list[ModelResult | None]",
        quarantined_indexes: set,
        run_started: float,
    ) -> None:
        """Assemble :attr:`outcome` for the run that just ended."""
        global _LAST_OUTCOME
        done = sum(1 for result in results if result is not None)
        failed = sum(1 for f in self.failures if not f.quarantined)
        quarantined = (
            sum(1 for f in self.failures if f.quarantined)
            + len(quarantined_indexes)
        )
        self.outcome = _LAST_OUTCOME = CampaignOutcome(
            total_jobs=n,
            done=done,
            failed=failed,
            quarantined=quarantined,
            skipped=max(0, n - done - failed - quarantined),
            resumed=self.resumed_jobs,
            stop_reason=self._stop_reason,
            diagnosis=self._stop_diagnosis,
            elapsed_s=time.monotonic() - run_started,
            retry_attempts=self._retry_attempts,
            retry_time_lost_s=self._retry_wall_s + self._retry_backoff_s,
        )

    def run_models(
        self,
        simulators: Iterable[Simulator],
        models: Iterable[LayerSet],
        layer_by_layer: bool = False,
    ) -> dict[str, dict[str, ModelResult]]:
        """Every simulator over every model, in reporting order.

        Jobs that failed permanently under ``on_error="skip"`` are
        simply absent from the returned tree (inspect
        :attr:`failures` / :meth:`campaign_report` for the post-mortem).
        """
        simulators = list(simulators)
        models = list(models)
        jobs = [
            SweepJob(simulator, model, layer_by_layer)
            for model in models
            for simulator in simulators
        ]
        flat = self.run(jobs)
        results: dict[str, dict[str, ModelResult]] = {}
        for job, result in zip(jobs, flat):
            if result is None:
                continue  # permanent failure under on_error="skip"
            results.setdefault(job.model.name, {})[
                job.simulator.spec.name
            ] = result
        return results

    def campaign_report(self, *, as_dict: bool = False) -> "str | dict":
        """Post-mortem of the last :meth:`run`.

        Lists every job with its mode, attempt count and outcome, then
        details each permanent failure (type, message, traceback
        summary) -- the record of *why* a partial campaign is partial.

        ``as_dict=True`` returns the same information as one
        JSON-ready dictionary instead of rendered text; the campaign
        service's status endpoint and the CLI's ``--json`` modes share
        this single serialization path.
        """
        if as_dict:
            return self._campaign_report_dict()
        total = len(self.stats)
        succeeded = sum(1 for s in self.stats if not s.failed)
        quarantined = sum(1 for f in self.failures if f.quarantined)
        lines = [
            f"campaign: {succeeded}/{total} jobs succeeded"
            + (f", {len(self.failures)} failed" if self.failures else "")
            + (f" ({quarantined} quarantined)" if quarantined else "")
            + (f", {self.resumed_jobs} resumed" if self.resumed_jobs else "")
        ]
        if self.outcome is not None and self.outcome.stopped:
            line = (
                f"  stopped: {self.outcome.stop_reason} -- "
                f"{self.outcome.done}/{self.outcome.total_jobs} done "
                f"({self.outcome.completeness:.0%}), "
                f"{self.outcome.skipped} skipped (resumable)"
            )
            if self.outcome.diagnosis:
                line += f"; {self.outcome.diagnosis}"
            lines.append(line)
        if self.used_fallback:
            lines.append(
                f"  (parallel pool unavailable: {self.fallback_reason}; "
                "ran serially)"
            )
        if self.plan_decisions:
            lines.append(
                "  plan: "
                + "; ".join(d.describe() for d in self.plan_decisions)
            )
        if self.pool_stats is not None and any(
            s.mode == "pool" for s in self.stats
        ):
            lines.append(f"  pool: {self.pool_stats.describe()}")
        for accelerator, reason in self.grid_fallbacks:
            lines.append(f"  grid fallback: {accelerator}: {reason}")
        for stat in self.stats:
            status = "FAILED" if stat.failed else "ok"
            lines.append(
                f"  [{status:>6}] {stat.accelerator} / {stat.model}: "
                f"{stat.mode}, {stat.attempts} attempt(s), "
                f"{stat.wall_time_s * 1e3:.1f} ms"
            )
        if self._retry_attempts:
            lines.append(
                f"  retries: {self._retry_attempts} retried attempt(s), "
                f"{self._retry_wall_s + self._retry_backoff_s:.2f} s lost "
                f"({self._retry_backoff_s:.2f} s backoff)"
            )
        storage = self._storage_health()
        if storage.noteworthy:
            lines.append(f"  storage: {storage.describe()}")
        for failure in self.failures:
            label = "quarantined" if failure.quarantined else "failure"
            lines.append(f"  {label}: {failure.describe()}")
            if failure.traceback_summary:
                lines.append(f"    at {failure.traceback_summary}")
        return "\n".join(lines)

    def _campaign_report_dict(self) -> dict:
        """Machine-readable twin of the textual :meth:`campaign_report`."""
        report: dict = {
            "jobs_total": len(self.stats),
            "jobs_succeeded": sum(1 for s in self.stats if not s.failed),
            "jobs_failed": len(self.failures),
            "jobs_quarantined": sum(
                1 for f in self.failures if f.quarantined
            ),
            "jobs_resumed": self.resumed_jobs,
            "outcome": (
                self.outcome.to_dict() if self.outcome is not None else None
            ),
            "used_fallback": self.used_fallback,
            "fallback_reason": self.fallback_reason,
            "jobs": [dataclasses.asdict(stat) for stat in self.stats],
            "failures": [
                dataclasses.asdict(failure) for failure in self.failures
            ],
            "plan": {
                "exec_plan": self.exec_plan,
                "decisions": [
                    dataclasses.asdict(d) for d in self.plan_decisions
                ],
                "grid_lanes": self.grid_lanes,
                "grid_machines": self.grid_machines,
                "grid_fallbacks": [
                    {"accelerator": accelerator, "reason": reason}
                    for accelerator, reason in self.grid_fallbacks
                ],
            },
            "retries": {
                "attempts": self._retry_attempts,
                "time_lost_s": self._retry_wall_s + self._retry_backoff_s,
                "backoff_s": self._retry_backoff_s,
            },
        }
        if self.pool_stats is not None and any(
            s.mode == "pool" for s in self.stats
        ):
            report["pool"] = dataclasses.asdict(self.pool_stats)
        storage = self._storage_health()
        if storage.noteworthy:
            report["storage"] = storage.to_dict()
        return report

    def _storage_health(self) -> "store.StorageHealth":
        """Combined cache + manifest storage condition."""
        return store.StorageHealth.merged(
            (
                getattr(self.cache, "health", None),
                getattr(self.manifest, "health", None),
            )
        )

    @property
    def storage_degraded(self) -> bool:
        """Whether any cache-shard or manifest write failed this run."""
        return self._storage_health().storage_degraded

    @property
    def total_wall_time_s(self) -> float:
        """Accumulated per-job wall time of the last :meth:`run`."""
        return sum(s.wall_time_s for s in self.stats)


# ----------------------------------------------------------------------
# Process-wide run configuration (CLI / env knobs)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunConfig:
    """How campaigns run, never what they compute: the record every
    :class:`SweepRunner` takes the arguments it is not given from.

    :meth:`from_env` resolves it from the environment plus explicit
    overrides (the CLI's global flags); :func:`configure` installs one
    process-wide.  ``__post_init__`` is the one validation of the
    retry policy, whether a value comes from a flag, the record or a
    constructor argument, and of the worker count.
    """

    workers: int = 1
    cache_enabled: bool = True
    cache_dir: str | None = None
    #: Per-attempt limit of pool attempts (None: unlimited).
    timeout_s: float | None = None
    retries: int = 0
    on_error: str = "raise"
    resume: bool = False
    audit: bool = True
    budget: "CampaignBudget | None" = None
    retry_quarantined: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        # "not > 0" rather than "<= 0": a NaN timeout must not pass.
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ConfigError("timeout_s must be positive (or None)")
        if self.retries < 0:
            raise ConfigError("retries must be >= 0")
        if self.on_error not in ("raise", "skip"):
            raise ConfigError("on_error must be 'raise' or 'skip'")

    @classmethod
    def from_env(cls, **flags) -> "RunConfig":
        """The environment's record with every non-``None`` flag on top.

        The only reader of ``$REPRO_SWEEP_WORKERS`` (an integer, at
        least 1), ``$REPRO_SWEEP_CACHE`` (``0`` or ``1``) and
        ``$REPRO_SWEEP_CACHE_DIR``; a malformed value raises
        :class:`~repro.errors.ConfigError` naming the variable.
        """
        raw = os.environ.get("REPRO_SWEEP_WORKERS", "1")
        try:
            # ``__post_init__`` holds the rule; this names the variable.
            workers = cls(workers=int(raw)).workers
        except ValueError:  # not an integer, or below 1
            raise ConfigError(
                f"$REPRO_SWEEP_WORKERS must be an integer worker count of "
                f"at least 1, got {raw!r}"
            ) from None
        cache = os.environ.get("REPRO_SWEEP_CACHE", "1")
        if cache.strip() not in ("0", "1"):
            raise ConfigError(
                f"$REPRO_SWEEP_CACHE must be 0 or 1, got {cache!r}"
            )
        fields = dict(
            workers=workers,
            cache_enabled=cache.strip() == "1",
            cache_dir=os.environ.get("REPRO_SWEEP_CACHE_DIR") or None,
        )
        fields.update(
            (name, value) for name, value in flags.items() if value is not None
        )
        return cls(**fields)


#: The installed record (None: :func:`run_config` reads the environment).
_CONFIG: RunConfig | None = None
#: ``((cache_enabled, cache_dir), cache)`` of the shared default cache.
_default_cache: "tuple[tuple, ResultCache | NullCache] | None" = None
#: Outcome of the most recent SweepRunner.run() in this process --
#: the CLI reads it after a command returns to decide whether the
#: campaign was budget-stopped (exit code 3).
_LAST_OUTCOME: "CampaignOutcome | None" = None


def last_campaign_outcome() -> "CampaignOutcome | None":
    """The most recent run's :class:`CampaignOutcome` (process-wide)."""
    return _LAST_OUTCOME


def clear_last_outcome() -> None:
    """Forget the last outcome (CLI dispatch boundaries, tests)."""
    global _LAST_OUTCOME
    _LAST_OUTCOME = None


def configure(config: RunConfig | None) -> RunConfig | None:
    """Install ``config`` process-wide and return the previous record.

    ``None`` uninstalls it, so :func:`run_config` reads the
    environment again.  Installing the returned record restores the
    state before the call.
    """
    global _CONFIG
    previous, _CONFIG = _CONFIG, config
    return previous


def run_config() -> RunConfig:
    """The installed record, else the environment's
    (:meth:`RunConfig.from_env`, parsed on every call)."""
    return _CONFIG if _CONFIG is not None else RunConfig.from_env()


def _close_pool(pool) -> None:
    """Finalizer body: tear a runner's worker pool down at GC time."""
    try:
        pool.close()
    except Exception:  # pragma: no cover - interpreter teardown races
        pass


def default_cache() -> "ResultCache | NullCache":
    """The process-wide shared cache (amortises across experiments).

    A :class:`NullCache` when the record's ``cache_enabled`` is off,
    else a :class:`ResultCache` with a disk tier under its
    ``cache_dir`` (if any); rebuilt when either changes.
    """
    global _default_cache
    config = run_config()
    key = (config.cache_enabled, config.cache_dir)
    if _default_cache is None or _default_cache[0] != key:
        cache = (
            ResultCache(cache_dir=config.cache_dir)
            if config.cache_enabled
            else NullCache()
        )
        _default_cache = (key, cache)
    return _default_cache[1]


def default_manifest() -> "CampaignManifest | None":
    """A campaign manifest co-located with the record's disk cache.

    ``None`` when no cache directory is configured (a manifest without
    a surviving result store would still resume correctly -- results
    are recomputed -- but adds bookkeeping for no benefit).
    """
    cache_dir = run_config().cache_dir
    if not cache_dir:
        return None
    from .campaign import CampaignManifest

    return CampaignManifest(cache_dir)
