"""The campaign scheduler: executions, dedupe, runner slots, restarts.

:class:`CampaignService` owns everything between the HTTP layer and
the sweep engine:

**Submissions vs executions.**  A *submission* is one tenant's request
(a ticket with an id like ``sub-000003``); an *execution* is the
deduplicated unit of work, keyed by the campaign spec's content id
(:attr:`~repro.service.protocol.CampaignSpec.content_id`).  Two
tenants submitting byte-identical campaigns get two submissions
attached to **one** execution -- one set of evaluations, one manifest,
one results payload, digest-equal answers for both.  Dedupe composes
with the content-addressed :class:`~repro.core.batch.ResultCache`
below it: even campaigns that only *overlap* share per-layer results
through the service-wide cache directory.

**Runner slots.**  ``runner_slots`` scheduler threads each own one
long-lived :class:`~repro.core.batch.SweepRunner` (warm worker pool,
own cache handle onto the shared ``cache/`` directory) and call
:meth:`~repro.core.batch.SweepRunner.begin_campaign` to rebind it per
execution -- campaign-scoped policy state resets, warm machinery
survives.  Job-level parallelism stays inside the runner; the service
only schedules whole campaigns.

**Durability.**  Submissions are appended (framed, fsync'd) to
``submissions.jsonl`` *before* they are acknowledged; each sweep
execution checkpoints through its own
:class:`~repro.core.campaign.CampaignManifest` under
``campaigns/<exec-id>/``; terminal states append a second ledger
record; results payloads land via atomic replace.  A killed server
therefore restores to exactly: acknowledged submissions, terminal
results, and every unfinished execution re-queued -- which resumes
from its manifest and replays to the same digest.

**Drain.**  :meth:`shutdown` stops admission, closes the queue and
(politely) stops in-flight runners with the same ``"signal"`` reason a
:class:`~repro.core.budget.GracefulDrain` would deliver: in-flight
attempts finish, manifests flush, undispatched jobs stay pending.
Interrupted executions carry state ``"stopped"`` and are the reason
``repro serve`` exits with the resumable status code 3.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..core import store
from ..core.batch import RunConfig
from ..core.budget import compose_budgets
from ..core.campaign import read_manifest_events
from ..errors import ConfigError, QuotaExceededError, ReproError
# Sweeps digest through ``encode_results``; ``results_digest`` stays
# importable here because ``perfbench/tracer.py`` looks it up by name.
from .protocol import (  # noqa: F401
    CampaignSpec,
    encode_results,
    payload_digest,
    results_digest,
)
from .queue import FairQueue
from .tenants import TenantRegistry

__all__ = ["CampaignService", "Execution", "ResultsNotReadyError"]

logger = logging.getLogger(__name__)

#: Execution states.  ``stopped`` means interrupted-but-resumable (a
#: drain or budget stop); it leaves no terminal ledger record, so a
#: restarted service re-queues the execution and its manifest resumes.
QUEUED, RUNNING, DONE, FAILED, STOPPED = (
    "queued",
    "running",
    "done",
    "failed",
    "stopped",
)
TERMINAL_STATES = (DONE, FAILED, STOPPED)

LEDGER_FILENAME = "submissions.jsonl"


class ResultsNotReadyError(ReproError):
    """Results were requested for an execution that has not finished."""


def _payload_bytes(payload: dict, results: bytes | None = None) -> bytes:
    """``json.dumps(payload, sort_keys=True)``, encoded: the bytes of a
    ``results.json``.

    ``results``, when given, is the payload's ``"results"`` member
    already encoded with sorted keys (:func:`encode_results`).  That
    key sorts after every other key of a payload, so its text is
    spliced in as the last member instead of dumping the tree again;
    the bytes are the same as dumping the whole payload.
    """
    data = json.dumps(payload, sort_keys=True).encode()
    if results is None:
        return data
    return b'%s, "results": %s}' % (data[:-1], results)


@dataclass
class Execution:
    """One deduplicated campaign (all mutation under the service lock)."""

    exec_id: str
    spec: CampaignSpec
    n_jobs: int
    state: str = QUEUED
    #: Submitting tenants in attach order (duplicates collapsed).
    tenants: list = field(default_factory=list)
    submissions: list = field(default_factory=list)
    priority: int = 0
    events: list = field(default_factory=list)
    created_s: float = 0.0
    started_s: float | None = None
    finished_s: float | None = None
    digest: str | None = None
    error: str | None = None
    outcome: dict | None = None
    #: How many submissions attached to an already-known execution.
    dedupe_hits: int = 0
    #: How many times this execution went through the running state
    #: (> 1 after a stop + resume or a restart).
    attempts: int = 0
    #: Tenants whose fair-share meter already paid for this execution
    #: -- a resumed attempt replays cached work and charges nothing.
    charged_tenants: set = field(default_factory=set)


@dataclass
class Submission:
    """One tenant's ticket onto an execution."""

    submission_id: str
    tenant: str
    exec_id: str
    priority: int
    created_s: float
    deduplicated: bool
    #: Whether this submission's tenant accounting has been released
    #: (active slot freed, completed counted).  A submission settles
    #: exactly once, even when its execution is requeued and reaches a
    #: terminal state again.
    settled: bool = False


class CampaignService:
    """The multi-tenant campaign scheduler behind ``repro serve``."""

    def __init__(
        self,
        data_dir: str | Path,
        *,
        runner_slots: int = 2,
        workers: int | None = None,
        registry: TenantRegistry | None = None,
        default_budget=None,
        resume: bool = True,
    ):
        if runner_slots < 1:
            raise ConfigError("runner_slots must be >= 1")
        if workers is not None:
            # The sweep engine's worker-count rule, checked here rather
            # than later inside a runner slot's thread.
            RunConfig(workers=workers)
        self.data_dir = Path(data_dir)
        self.cache_dir = self.data_dir / "cache"
        self.campaigns_dir = self.data_dir / "campaigns"
        self.ledger_path = self.data_dir / LEDGER_FILENAME
        for directory in (self.data_dir, self.cache_dir, self.campaigns_dir):
            directory.mkdir(parents=True, exist_ok=True)
        self.runner_slots = runner_slots
        self.workers = workers
        self.registry = registry or TenantRegistry()
        #: Server-wide per-campaign budget layer (tightest-wins with
        #: the tenant quota's layer and the submission's request).
        self.default_budget = default_budget

        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._queue = FairQueue()
        self._executions: dict[str, Execution] = {}
        self._submissions: dict[str, Submission] = {}
        self._threads: list[threading.Thread] = []
        self._runners: dict[int, Any] = {}
        self._active: dict[int, str] = {}
        self._draining = False
        self._started = False
        self._sub_counter = 0
        self.started_s = time.time()
        if resume:
            self._restore()

    # -- paths and persistence -----------------------------------------
    def _campaign_dir(self, exec_id: str) -> Path:
        return self.campaigns_dir / exec_id[:24]

    def _append_ledger(self, record: dict) -> None:
        store.append_record(
            self.ledger_path,
            json.dumps(record, sort_keys=True).encode(),
            fsync=True,
        )

    def _persist_results(self, execution: Execution, data: bytes) -> None:
        """Write ``results.json`` with atomic replace + fsync.

        A failed or short write raises ``OSError`` after removing the
        temporary file, so a truncated payload never replaces
        ``results.json``, and the runner slot ends the execution
        ``failed`` instead of ``done``.
        """
        directory = self._campaign_dir(execution.exec_id)
        directory.mkdir(parents=True, exist_ok=True)
        target = directory / "results.json"
        tmp = directory / ".results.json.tmp"
        try:
            fd = os.open(tmp, os.O_CREAT | os.O_WRONLY | os.O_TRUNC, 0o644)
            try:
                store.write_whole(fd, data)
                os.fsync(fd)
            finally:
                os.close(fd)
            os.replace(tmp, target)
        except OSError:
            tmp.unlink(missing_ok=True)
            raise

    def _restore(self) -> None:
        """Rebuild submissions/executions from the ledger on startup.

        Executions with a terminal record keep their recorded state
        (results are reloaded lazily from ``results.json``); everything
        else goes back on the queue, where its manifest -- if the
        campaign had started -- makes the re-run an incremental resume.
        """
        try:
            data = self.ledger_path.read_bytes()
        except OSError:
            return
        scan = store.parse_log(data)
        restored = 0
        for raw in scan.records:
            try:
                record = json.loads(raw)
            except json.JSONDecodeError:
                continue
            if not isinstance(record, dict):
                continue
            if record.get("type") == "submission":
                try:
                    spec = CampaignSpec.from_dict(record["spec"])
                except (ConfigError, KeyError):
                    logger.warning(
                        "ledger submission %r no longer validates; skipped",
                        record.get("submission"),
                    )
                    continue
                exec_id = record.get("exec") or spec.content_id
                execution = self._executions.get(exec_id)
                if execution is None:
                    execution = Execution(
                        exec_id=exec_id,
                        spec=spec,
                        n_jobs=spec.n_jobs,
                        priority=int(record.get("priority", 0)),
                        created_s=float(record.get("created_s", 0.0)),
                    )
                    self._executions[exec_id] = execution
                else:
                    execution.dedupe_hits += 1
                tenant = record.get("tenant", "anonymous")
                if tenant not in execution.tenants:
                    execution.tenants.append(tenant)
                execution.priority = max(
                    execution.priority, int(record.get("priority", 0))
                )
                sid = record.get("submission", f"sub-{self._sub_counter:06d}")
                self._submissions[sid] = Submission(
                    submission_id=sid,
                    tenant=tenant,
                    exec_id=exec_id,
                    priority=int(record.get("priority", 0)),
                    created_s=float(record.get("created_s", 0.0)),
                    deduplicated=execution.dedupe_hits > 0,
                )
                execution.submissions.append(sid)
                state = self.registry.state(tenant)
                state.submitted += 1
                restored += 1
                try:
                    number = int(sid.rsplit("-", 1)[-1])
                except ValueError:
                    number = self._sub_counter
                self._sub_counter = max(self._sub_counter, number + 1)
            elif record.get("type") == "terminal":
                execution = self._executions.get(record.get("exec", ""))
                if execution is None:
                    continue
                execution.state = (
                    DONE if record.get("state") == DONE else FAILED
                )
                execution.digest = record.get("digest")
                execution.error = record.get("error")
                execution.finished_s = record.get("finished_s")
        for execution in self._executions.values():
            if execution.state in (DONE, FAILED):
                # Terminal before the restart: the submissions are
                # settled (never re-occupy an active slot) and the
                # tenants already paid pre-restart, so the fresh
                # fair-share meter does not re-bill them.
                execution.charged_tenants.update(execution.tenants)
                for sid in execution.submissions:
                    submission = self._submissions[sid]
                    submission.settled = True
                    if execution.state == DONE:
                        self.registry.state(submission.tenant).completed += 1
                continue
            # Unfinished: back on the queue.  Seed the event stream
            # from the on-disk manifest so observers see how far the
            # killed run had progressed.
            execution.state = QUEUED
            for payload in read_manifest_events(
                self._campaign_dir(execution.exec_id)
            ):
                self._append_event(
                    execution, {**payload, "restored": True}, notify=False
                )
            for sid in execution.submissions:
                tenant = self._submissions[sid].tenant
                self.registry.state(tenant).active += 1
            self._queue.put(
                execution.exec_id,
                tenants=execution.tenants,
                priority=execution.priority,
                n_jobs=execution.n_jobs,
            )
        if restored:
            logger.info(
                "restored %d submission(s), %d execution(s) (%d re-queued)",
                restored,
                len(self._executions),
                len(self._queue),
            )

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Spawn the runner-slot threads (idempotent)."""
        with self._lock:
            if self._started:
                return
            self._started = True
        for slot in range(self.runner_slots):
            thread = threading.Thread(
                target=self._runner_loop,
                args=(slot,),
                name=f"repro-runner-{slot}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def shutdown(self, *, timeout_s: float = 60.0) -> int:
        """Drain: reject new work, stop in-flight campaigns politely.

        Running campaigns get the same ``"signal"`` stop a
        :class:`~repro.core.budget.GracefulDrain` delivers: in-flight
        attempts drain, manifests flush, pending jobs stay pending.
        Returns the number of executions left resumable (stopped or
        still queued) -- non-zero means the caller should exit with
        :data:`~repro.errors.EXIT_BUDGET_STOPPED`.
        """
        with self._lock:
            self._draining = True
            runners = list(self._runners.values())
        self._queue.close()
        for runner in runners:
            runner.request_stop("signal", "service drain")
        for thread in self._threads:
            thread.join(timeout=timeout_s)
        with self._cond:
            interrupted = sum(
                1
                for execution in self._executions.values()
                if execution.state in (STOPPED, QUEUED, RUNNING)
            )
            self._cond.notify_all()
        return interrupted

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    # -- events ---------------------------------------------------------
    def _append_event(
        self, execution: Execution, payload: dict, *, notify: bool = True
    ) -> None:
        with self._cond:
            event = {"seq": len(execution.events), **payload}
            execution.events.append(event)
            if notify:
                self._cond.notify_all()

    # -- submission -----------------------------------------------------
    def submit(
        self, raw: Any, *, tenant: str = "anonymous", priority: int = 0
    ) -> dict:
        """Validate, dedupe, admit, persist and enqueue one campaign.

        Returns the submission ticket.  Raises
        :class:`~repro.errors.ConfigError` (HTTP 400) on an invalid
        campaign, :class:`~repro.errors.QuotaExceededError` (429) on
        quota violations, and ``RuntimeError`` (503) while draining.
        """
        spec = CampaignSpec.from_dict(raw)
        n_jobs = spec.n_jobs
        with self._lock:
            if self._draining:
                raise RuntimeError("service is draining; not accepting work")
            self.registry.admit(tenant, n_jobs=n_jobs, priority=priority)
            state = self.registry.state(tenant)
            exec_id = spec.content_id
            execution = self._executions.get(exec_id)
            now = time.time()
            deduplicated = execution is not None
            if execution is None:
                execution = Execution(
                    exec_id=exec_id,
                    spec=spec,
                    n_jobs=n_jobs,
                    priority=priority,
                    created_s=now,
                )
                self._executions[exec_id] = execution
            else:
                execution.dedupe_hits += 1
                state.deduplicated += 1
                if priority > execution.priority:
                    execution.priority = priority
            new_tenant = tenant not in execution.tenants
            if new_tenant:
                execution.tenants.append(tenant)
            self._sub_counter += 1
            sid = f"sub-{self._sub_counter:06d}"
            submission = Submission(
                submission_id=sid,
                tenant=tenant,
                exec_id=exec_id,
                priority=priority,
                created_s=now,
                deduplicated=deduplicated,
            )
            self._submissions[sid] = submission
            execution.submissions.append(sid)
            state.submitted += 1
            if execution.state == DONE:
                # Attaching to a finished campaign settles instantly:
                # the results already exist and no _finish will ever
                # run for this submission, so it must not occupy an
                # active-quota slot it could never release.
                submission.settled = True
                state.completed += 1
            else:
                state.active += 1
            # Late attach to a running/finished execution still pays
            # its fair share (dedupe must not be a fairness loophole);
            # queued executions charge every tenant at dispatch.
            if new_tenant and execution.state in (RUNNING, DONE):
                self._charge_attached_tenants(execution)
            self._append_ledger(
                {
                    "type": "submission",
                    "submission": sid,
                    "tenant": tenant,
                    "priority": priority,
                    "exec": exec_id,
                    "spec": spec.params,
                    "n_jobs": n_jobs,
                    "created_s": now,
                }
            )
            requeue = execution.state in (FAILED, STOPPED)
            if execution.state == QUEUED and execution.dedupe_hits == 0:
                self._queue.put(
                    exec_id,
                    tenants=execution.tenants,
                    priority=execution.priority,
                    n_jobs=n_jobs,
                )
                self._append_event(execution, {"event": "queued"})
            elif requeue:
                # A stopped (drained) or failed execution gets another
                # chance; its manifest turns the re-run into a resume.
                execution.state = QUEUED
                execution.error = None
                self._queue.put(
                    exec_id,
                    tenants=execution.tenants,
                    priority=execution.priority,
                    n_jobs=n_jobs,
                )
                self._append_event(execution, {"event": "requeued"})
            elif execution.state == QUEUED:
                # Dedupe attach onto a still-queued execution: refresh
                # the live queue entry so the new tenant (or a raised
                # priority) affects scheduling, not just the copies
                # taken at the original put().
                self._queue.update(
                    exec_id,
                    tenants=execution.tenants,
                    priority=execution.priority,
                )
            return self._status_locked(sid)

    # -- status / results ----------------------------------------------
    def _resolve(self, submission_id: str):
        submission = self._submissions.get(submission_id)
        if submission is None:
            raise KeyError(f"unknown submission {submission_id!r}")
        return submission, self._executions[submission.exec_id]

    def _status_locked(self, submission_id: str) -> dict:
        submission, execution = self._resolve(submission_id)
        return {
            "submission": submission.submission_id,
            "tenant": submission.tenant,
            "campaign": execution.exec_id,
            "kind": execution.spec.kind,
            "summary": execution.spec.summary(),
            "state": execution.state,
            "priority": execution.priority,
            "n_jobs": execution.n_jobs,
            "deduplicated": submission.deduplicated,
            "tenants": sorted(execution.tenants),
            "events": len(execution.events),
            "attempts": execution.attempts,
            "digest": execution.digest,
            "error": execution.error,
            "outcome": execution.outcome,
            "created_s": execution.created_s,
            "started_s": execution.started_s,
            "finished_s": execution.finished_s,
        }

    def status(self, submission_id: str) -> dict:
        with self._lock:
            return self._status_locked(submission_id)

    def results_bytes(self, submission_id: str) -> bytes:
        """The stored ``results.json`` bytes of a finished submission.

        Served as stored: the file is written with ``sort_keys=True``,
        so a parse-and-dump would reproduce it byte for byte.  The
        bytes must still parse as a JSON object; a missing, truncated
        or non-object file raises :class:`ResultsNotReadyError`.
        """
        with self._lock:
            submission, execution = self._resolve(submission_id)
            state = execution.state
            exec_id = execution.exec_id
            error = execution.error
        if state != DONE:
            raise ResultsNotReadyError(
                f"submission {submission_id!r} is {state}"
                + (f": {error}" if error else "")
            )
        target = self._campaign_dir(exec_id) / "results.json"
        try:
            data = target.read_bytes()
            valid = isinstance(json.loads(data), dict)
        except (OSError, ValueError):
            valid = False
        if not valid:
            raise ResultsNotReadyError(
                f"results payload for {submission_id!r} is missing or "
                "unreadable on disk"
            )
        return data

    def results(self, submission_id: str) -> dict:
        """The persisted results payload of a finished submission."""
        return json.loads(self.results_bytes(submission_id))

    def events_since(
        self,
        submission_id: str,
        start: int = 0,
        *,
        wait_s: float | None = None,
    ) -> tuple[list, bool]:
        """Events from ``start`` on; blocks up to ``wait_s`` for news.

        Returns ``(events, finished)`` where ``finished`` means the
        execution reached a terminal state and the stream can close.
        """
        deadline = (
            time.monotonic() + wait_s if wait_s is not None else None
        )
        with self._cond:
            while True:
                _, execution = self._resolve(submission_id)
                events = [dict(e) for e in execution.events[start:]]
                finished = execution.state in TERMINAL_STATES
                if events or finished or deadline is None:
                    return events, finished
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._draining:
                    return [], finished
                self._cond.wait(remaining)

    def wait(self, submission_id: str, timeout_s: float = 60.0) -> dict:
        """Block until the submission is terminal (test convenience)."""
        deadline = time.monotonic() + timeout_s
        with self._cond:
            while True:
                _, execution = self._resolve(submission_id)
                if execution.state in TERMINAL_STATES:
                    return self._status_locked(submission_id)
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"submission {submission_id!r} still "
                        f"{execution.state} after {timeout_s:g}s"
                    )
                self._cond.wait(remaining)

    def stats(self) -> dict:
        with self._lock:
            by_state: dict[str, int] = {}
            for execution in self._executions.values():
                by_state[execution.state] = (
                    by_state.get(execution.state, 0) + 1
                )
            return {
                "uptime_s": round(time.time() - self.started_s, 3),
                "draining": self._draining,
                "runner_slots": self.runner_slots,
                "executions": by_state,
                "submissions": len(self._submissions),
                "queue": self._queue.snapshot(),
                "tenants": self.registry.to_dict(),
                "slots": {
                    str(slot): {
                        "plan": [
                            decision.describe()
                            for decision in list(runner.plan_decisions)
                        ],
                        "grid_lanes": runner.grid_lanes,
                        "grid_machines": runner.grid_machines,
                    }
                    for slot, runner in sorted(self._runners.items())
                },
                "data_dir": str(self.data_dir),
            }

    def list_submissions(self, tenant: str | None = None) -> list:
        with self._lock:
            return [
                self._status_locked(sid)
                for sid, submission in sorted(self._submissions.items())
                if tenant is None or submission.tenant == tenant
            ]

    # -- execution ------------------------------------------------------
    def _runner_loop(self, slot: int) -> None:
        runner = None
        try:
            while True:
                entry = self._queue.pop(
                    consumed=self.registry.consumed, timeout=0.2
                )
                if entry is None:
                    if self._queue.closed:
                        return
                    continue
                with self._lock:
                    execution = self._executions[entry.item]
                    if self._draining or execution.state != QUEUED:
                        # Drained entries stay queued on disk (no
                        # terminal record) and restore on restart.
                        continue
                    execution.state = RUNNING
                    execution.started_s = time.time()
                    execution.attempts += 1
                    self._active[slot] = execution.exec_id
                    self._charge_attached_tenants(execution)
                    if runner is None:
                        runner = self._build_runner()
                        self._runners[slot] = runner
                self._append_event(
                    execution,
                    {"event": "started", "slot": slot,
                     "attempt": execution.attempts},
                )
                try:
                    self._execute(execution, runner)
                except Exception as exc:  # noqa: BLE001 -- slot survives
                    logger.exception(
                        "execution %s crashed", execution.exec_id[:12]
                    )
                    self._finish(execution, FAILED, error=repr(exc))
                finally:
                    with self._lock:
                        self._active.pop(slot, None)
        finally:
            if runner is not None:
                runner.close()

    def _charge_attached_tenants(self, execution: Execution) -> None:
        """Fair-share charge, exactly once per (tenant, execution).

        Every tenant pays an equal split of the campaign's nominal job
        count no matter when it attached.  A stopped or drained
        campaign that is later resumed (or restored after a restart)
        replays cached work, so resumed attempts charge nothing extra.
        Called under the service lock.
        """
        share = execution.n_jobs / max(1, len(execution.tenants))
        for tenant in execution.tenants:
            if tenant not in execution.charged_tenants:
                execution.charged_tenants.add(tenant)
                self.registry.state(tenant).jobs_consumed += share

    def _build_runner(self):
        """One long-lived runner per slot: own cache handle, shared
        cache directory (disk-tier dedupe across slots), no default
        manifest/budget -- both are rebound per campaign."""
        from ..core.batch import ResultCache, SweepRunner

        return SweepRunner(
            max_workers=self.workers,
            cache=ResultCache(cache_dir=self.cache_dir),
            manifest=False,
            budget=False,
            on_error="skip",
        )

    def _campaign_budget(self, execution: Execution):
        """server default + owning tenant's quota + submission request,
        composed tightest-wins."""
        owner = execution.tenants[0] if execution.tenants else None
        tenant_layer = (
            self.registry.quota(owner).budget() if owner else None
        )
        return compose_budgets(
            self.default_budget,
            tenant_layer,
            execution.spec.requested_budget(),
        )

    def _progress_callback(self, execution: Execution):
        def on_progress(stats) -> None:
            self._append_event(
                execution,
                {
                    "event": "job",
                    "index": stats.index,
                    "model": stats.model,
                    "accelerator": stats.accelerator,
                    "failed": stats.failed,
                    "mode": stats.mode,
                    "wall_time_s": round(stats.wall_time_s, 6),
                    "cache_hits": stats.cache_hits,
                    "cache_misses": stats.cache_misses,
                },
            )

        return on_progress

    def _execute(self, execution: Execution, runner) -> None:
        budget = self._campaign_budget(execution)
        progress = self._progress_callback(execution)
        spec = execution.spec
        if spec.kind == "sweep":
            data, digest, stopped, error = self._execute_sweep(
                execution, runner, budget, progress
            )
        elif spec.kind == "faults":
            data, digest, stopped, error = self._execute_faults(
                execution, runner, budget, progress
            )
        else:
            data, digest, stopped, error = self._execute_search(
                execution, runner, budget, progress
            )
        outcome = (
            runner.outcome.to_dict() if runner.outcome is not None else None
        )
        if stopped:
            self._finish(execution, STOPPED, outcome=outcome)
            return
        if error is not None:
            self._finish(execution, FAILED, error=error, outcome=outcome)
            return
        self._persist_results(execution, data)
        self._finish(execution, DONE, digest=digest, outcome=outcome)

    def _execute_sweep(self, execution, runner, budget, progress):
        from ..core.campaign import CampaignManifest

        jobs, labels = execution.spec.build_sweep_jobs()
        directory = self._campaign_dir(execution.exec_id)
        directory.mkdir(parents=True, exist_ok=True)
        runner.begin_campaign(
            manifest=CampaignManifest(directory),
            budget=budget if budget is not None else False,
            progress=progress,
        )
        results = runner.run(jobs, resume=True)
        if runner.stopped:
            return None, None, True, None
        tree: dict[str, dict] = {}
        missing = []
        for (model, machine), result in zip(labels, results):
            if result is None:
                missing.append(f"{machine}/{model}")
            else:
                tree.setdefault(model, {})[machine] = result
        if missing:
            failures = "; ".join(
                failure.describe() for failure in runner.failures
            )
            return (
                None,
                None,
                False,
                f"{len(missing)} job(s) failed ({', '.join(missing)})"
                + (f": {failures}" if failures else ""),
            )
        # The tree is encoded once: its digest and the file share it.
        text, digest = encode_results(tree)
        payload = {
            "kind": "sweep",
            "campaign": execution.exec_id,
            "digest": digest,
            "report": runner.campaign_report(as_dict=True),
        }
        return _payload_bytes(payload, text), digest, False, None

    def _execute_faults(self, execution, runner, budget, progress):
        from ..experiments.resilience import availability_study
        from ..models.zoo import get_model

        params = execution.spec.params
        runner.begin_campaign(
            manifest=False,
            budget=budget if budget is not None else False,
            progress=progress,
        )
        points = availability_study(
            model=get_model(params["model"]),
            rates=tuple(params["rates"]),
            samples=params["samples"],
            seed=params["seed"],
            slowdown_threshold=params["threshold"],
            chiplets=params["chiplets"],
            pes_per_chiplet=params["pes_per_chiplet"],
            runner=runner,
        )
        if runner.stopped:
            return None, None, True, None
        serialized = [point.to_dict() for point in points]
        digest = payload_digest(serialized)
        payload = {
            "kind": "faults",
            "campaign": execution.exec_id,
            "digest": digest,
            "points": serialized,
            "report": runner.campaign_report(as_dict=True),
        }
        return _payload_bytes(payload), digest, False, None

    def _execute_search(self, execution, runner, budget, progress):
        from ..dse.presets import PRESETS
        from ..dse.search import SearchEngine
        from ..dse.space import SearchSpace

        params = execution.spec.params
        space = params["space"]
        space = (
            PRESETS[space].space()
            if isinstance(space, str)
            else SearchSpace.from_dict(space)
        )
        runner.begin_campaign(
            manifest=False,
            budget=budget if budget is not None else False,
            progress=progress,
        )
        engine = SearchEngine(
            space,
            objective=params["objective"],
            validation=params["validation"],
            runner=runner,
        )
        result = engine.search(strategy=params["strategy"])
        if runner.stopped:
            return None, None, True, None
        body = result.to_dict(top=params["top"])
        digest = payload_digest(body)
        payload = {
            "kind": "search",
            "campaign": execution.exec_id,
            "digest": digest,
            "result": body,
            "report": runner.campaign_report(as_dict=True),
        }
        return _payload_bytes(payload), digest, False, None

    def _finish(
        self,
        execution: Execution,
        state: str,
        *,
        digest: str | None = None,
        error: str | None = None,
        outcome: dict | None = None,
    ) -> None:
        now = time.time()
        with self._cond:
            execution.state = state
            execution.digest = digest
            execution.error = error
            execution.outcome = outcome
            execution.finished_s = now
            for sid in execution.submissions:
                submission = self._submissions[sid]
                # Settle exactly once: a requeued execution reaches a
                # terminal state again, and releasing the old, already
                # settled submissions a second time would eat active
                # slots belonging to the tenant's other live work.
                if submission.settled:
                    continue
                submission.settled = True
                tenant_state = self.registry.state(submission.tenant)
                if tenant_state.active > 0:
                    tenant_state.active -= 1
                if state == DONE:
                    tenant_state.completed += 1
            # Terminal event lands under the same notification as the
            # state change: a woken poller always sees both.
            self._append_event(
                execution,
                {
                    "event": "terminal",
                    "state": state,
                    "digest": digest,
                    "error": error,
                },
            )
        if state in (DONE, FAILED):
            # ``stopped`` deliberately writes no terminal record: the
            # execution must restore as queued and resume.
            self._append_ledger(
                {
                    "type": "terminal",
                    "exec": execution.exec_id,
                    "state": state,
                    "digest": digest,
                    "error": error,
                    "finished_s": now,
                }
            )
