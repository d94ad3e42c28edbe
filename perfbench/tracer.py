"""Outside-in per-layer tracer for the whole-campaign benchmark.

The tracer replaces each layer's public entry points with timing
wrappers for the duration of a traced block and restores the originals
afterwards.  Nothing inside ``repro`` knows it is being traced: every
span is opened either by a wrapper installed here or by the benchmark's
own code (``materialize``, ``digest``).

A function is wrapped where its caller looks it up.  Callers that bound
a name at import time (``from .invariants import audit_model_result``)
keep their own reference, so the wrapper goes onto *their* module;
callers that go through the module at call time
(``store.append_record``, ``grid_mod.evaluate_grid``, ``from
..validate import validate_simulator`` inside a function) see a wrapper
placed on the defining module.

Spans nest per thread: service campaigns run on runner-slot threads
while their HTTP handling runs on server threads, so each thread keeps
its own span stack and its own tallies.  A span's *self* time is its
duration minus the durations of the spans it directly encloses.  A
call into a layer from inside the same layer (``validate_simulator``
calling ``validate_spec``) stays part of the outer span.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: Every layer the benchmark attributes time to, in report order.
LAYERS = (
    "runner",
    "kernel.vec",
    "kernel.grid",
    "materialize",
    "cache.get",
    "cache.put",
    "store.append",
    "store.parse",
    "manifest",
    "audit",
    "validate",
    "bounds",
    "serialize",
    "digest",
    "protocol",
    "scheduler.submit",
)

#: Route counters gathered at the runner and store boundaries.
COUNTERS = (
    "plan.grid_jobs",
    "plan.serial_jobs",
    "plan.pool_jobs",
    "grid.lanes",
    "grid.fallbacks",
    "cache.hits",
    "cache.lookups",
    "cache.disk_hits",
    "store.append_bytes",
)

_PLAN_COUNTER = {
    "grid": "plan.grid_jobs",
    "serial": "plan.serial_jobs",
    "pool": "plan.pool_jobs",
    "spawn": "plan.pool_jobs",
}


class Tracer:
    """Span and counter recorder over temporarily wrapped functions."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Every thread's tallies: ``{name: [calls, self_s]}`` for
        #: spans, ``{name: [value, 0]}`` for counters.
        self._tallies: list[dict] = []
        self._targets = self._resolve_targets()
        self._installed: list[tuple] = []

    # -- per-thread state -------------------------------------------------
    def _state(self):
        local = self._local
        try:
            return local.stack, local.tally
        except AttributeError:
            local.stack = []
            local.tally = defaultdict(lambda: [0, 0.0])
            with self._lock:
                self._tallies.append(local.tally)
            return local.stack, local.tally

    def snapshot(self) -> dict:
        """Totals over every thread so far: ``{name: (calls, seconds)}``."""
        totals: dict = defaultdict(lambda: [0, 0.0])
        with self._lock:
            tallies = list(self._tallies)
        for tally in tallies:
            for name, (calls, seconds) in list(tally.items()):
                total = totals[name]
                total[0] += calls
                total[1] += seconds
        return {name: tuple(value) for name, value in totals.items()}

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to a counter (thread-local, merged on read)."""
        self._state()[1][name][0] += value

    # -- spans --------------------------------------------------------------
    def _enter(self, layer: str):
        stack, _ = self._state()
        if stack and stack[-1][0] == layer:
            return None  # re-entrant call: stays in the enclosing span
        frame = [layer, 0.0, time.perf_counter()]
        stack.append(frame)
        return frame

    def _exit(self, frame) -> None:
        elapsed = time.perf_counter() - frame[2]
        stack, tally = self._state()
        stack.pop()
        entry = tally[frame[0]]
        entry[0] += 1
        entry[1] += elapsed - frame[1]
        if stack:
            stack[-1][1] += elapsed

    @contextmanager
    def span(self, layer: str):
        """A span opened by the benchmark's own code."""
        frame = self._enter(layer)
        try:
            yield
        finally:
            if frame is not None:
                self._exit(frame)

    def _wrap(self, fn, layer: str, hook=None):
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(layer)
            if frame is None:
                return fn(*args, **kwargs)
            token = hook(args, None) if hook is not None else None
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)
                if hook is not None:
                    hook(args, token)

        return traced

    # -- counters read at layer boundaries -----------------------------------
    def _runner_hook(self, args, token):
        """Route and cache counters of one ``SweepRunner.run`` call.

        Hits come from ``cache.stats``: the grid path probes the memory
        tier directly, so counting ``ResultCache.get`` calls would miss
        them.
        """
        runner = args[0]
        stats = runner.cache.stats
        now = (stats.hits, stats.lookups, stats.disk_hits)
        if token is None:
            return now
        for name, after, before in zip(
            ("cache.hits", "cache.lookups", "cache.disk_hits"), now, token
        ):
            self.count(name, after - before)
        for decision in runner.plan_decisions:
            self.count(_PLAN_COUNTER[decision.plan], decision.jobs)
        self.count("grid.lanes", runner.grid_lanes)
        self.count("grid.fallbacks", len(runner.grid_fallbacks))
        return None

    def _append_hook(self, args, token):
        if token is None:
            self.count("store.append_bytes", len(args[1]))
            return True
        return None

    # -- installation ---------------------------------------------------------
    def _resolve_targets(self) -> list[tuple]:
        """``(owner, attribute, layer, hook)`` for every wrapped entry."""
        from repro import serialization, validate
        from repro.core import batch, campaign, grid, store, vectorized
        from repro.dse import search
        from repro.service import protocol, scheduler

        return [
            (batch.SweepRunner, "run", "runner", self._runner_hook),
            (vectorized, "simulate_layers_vectorized", "kernel.vec", None),
            (grid, "evaluate_grid", "kernel.grid", None),
            (batch.ResultCache, "get", "cache.get", None),
            (batch.ResultCache, "put", "cache.put", None),
            (store, "append_record", "store.append", self._append_hook),
            (store, "parse_log", "store.parse", None),
            (campaign.CampaignManifest, "begin", "manifest", None),
            (campaign.CampaignManifest, "mark_done", "manifest", None),
            (batch, "audit_model_result", "audit", None),
            (validate, "validate_simulator", "validate", None),
            (validate, "validate_spec", "validate", None),
            (search, "frontier_bounds", "bounds", None),
            (serialization, "model_result_to_dict", "serialize", None),
            (scheduler, "results_digest", "digest", None),
            (scheduler, "payload_digest", "digest", None),
            (protocol.CampaignSpec, "from_dict", "protocol", None),
            (scheduler.CampaignService, "submit", "scheduler.submit", None),
        ]

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for owner, name, layer, hook in self._targets:
            original = owner.__dict__[name]
            if isinstance(original, classmethod):
                replacement = classmethod(
                    self._wrap(original.__func__, layer, hook)
                )
            else:
                replacement = self._wrap(original, layer, hook)
            setattr(owner, name, replacement)
            self._installed.append((owner, name, original))

    def uninstall(self) -> None:
        """Put every original back and check that it is back."""
        installed, self._installed = self._installed, []
        for owner, name, original in reversed(installed):
            setattr(owner, name, original)
        for owner, name, original in installed:
            if owner.__dict__[name] is not original:
                raise RuntimeError(f"{owner.__name__}.{name} not restored")
