"""Persistent warm-worker execution pool for the sweep engine.

The only way a sweep job leaves the parent process: a pool of
**long-lived worker processes** looping over a job queue, so
many-small-job campaigns (DSE candidate evaluation, per-trial degraded
configurations in ``repro faults``) pay process spawn once per worker
rather than once per job, with the isolation semantics the resilience
layer promises:

* **Warm workers.**  Each worker keeps an in-process
  :class:`~repro.core.batch.ResultCache` memory tier and a memo of
  simulator fingerprints across jobs, so repeated ``(machine, layer
  shape)`` points become dict hits instead of fresh simulations, and
  repeated machines skip the fingerprint hash.
* **Compact batches.**  Jobs ship as small adaptively-sized batches,
  pickled lazily per dispatch -- peak payload memory is O(active
  workers x batch), never O(campaign).  Workers stream one result
  message back per job as it completes, so a mid-batch death only
  loses the job that was actually executing.
* **Crash containment.**  A worker that dies (``os._exit``, signal,
  interpreter abort) is detected as EOF on its result pipe; the pool
  respawns a replacement and reports which job was in flight (a
  *failed attempt* -- it re-enters the caller's retry/backoff path)
  and which batch-mates never started (they are re-queued without
  being charged an attempt).
* **Hang containment.**  Every dispatched batch carries a per-job
  *heartbeat deadline*: the deadline covers the job currently
  executing and is re-armed each time a result arrives.  A worker that
  blows the deadline is terminated and replaced, and the running job
  is reported as a timed-out attempt.
* **Memory containment.**  Each worker installs an ``RLIMIT_AS``
  self-limit and the parent samples every worker's RSS: a breaching
  job becomes a structured ``MemoryBudgetExceeded`` attempt (the
  runner retries it in a batch of one) instead of a host-level OOM.

The pool is deliberately policy-free: retries, backoff, ``on_error``
semantics, invariant auditing and campaign manifests all live in
:class:`repro.core.batch.SweepRunner`, which drives this pool whenever
it dispatches jobs to worker processes.  Determinism is untouched:
workers execute the same pure analytical model, so pooled and serial
campaigns produce bit-identical results (pinned by
``tests/core/test_pool.py`` and ``benchmarks/bench_pool.py``).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "PoolStats",
    "WorkerPool",
    "adaptive_batch_size",
]

#: Largest number of jobs shipped to one worker in one message.  Small
#: enough that a crashed batch re-queues little work and the per-job
#: heartbeat stays meaningful, large enough to amortise the IPC
#: round-trip over many tiny jobs.
MAX_BATCH_SIZE = 16


def adaptive_batch_size(n_ready: int, n_workers: int) -> int:
    """Batch size for one dispatch.

    Targets roughly four waves of batches per worker so late batches
    can still load-balance, clamped to ``[1, MAX_BATCH_SIZE]``.  Tiny
    campaigns therefore keep per-job dispatch (maximum isolation
    granularity); 200-job campaigns ship ~16-job batches.
    """
    waves = max(1, n_workers) * 4
    return max(1, min(MAX_BATCH_SIZE, -(-n_ready // waves)))


# ----------------------------------------------------------------------
# Worker-side body
# ----------------------------------------------------------------------
def _warm_fingerprint(simulator, memo: dict) -> str:
    """Simulator fingerprint through the worker's cross-job memo.

    Every job arrives as a fresh unpickled object, so the object-keyed
    memo in :mod:`repro.core.batch` never hits inside a worker.  Specs
    and energy models are frozen (hashable) dataclasses, so their
    *values* key a worker-lifetime memo instead; anything unhashable
    falls back to recomputing the hash.
    """
    from .batch import simulator_fingerprint

    try:
        key = (
            simulator.spec,
            simulator.compute_energy,
            simulator.network_energy,
        )
        fingerprint = memo.get(key)
    except TypeError:
        return simulator_fingerprint(simulator)
    if fingerprint is None:
        fingerprint = simulator_fingerprint(simulator)
        memo[key] = fingerprint
    return fingerprint


def _install_rlimit_as(limit_mb) -> None:
    """Best-effort address-space self-limit for a pool worker.

    Turns a runaway allocation into a worker-local :class:`MemoryError`
    (reported as a structured ``MemoryBudgetExceeded`` attempt) instead
    of a host-level OOM kill.  Silently inert where the platform lacks
    ``resource``/``RLIMIT_AS`` or refuses the bound.
    """
    if not limit_mb:
        return
    try:
        import resource

        limit = int(limit_mb * 1024 * 1024)
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        if hard != resource.RLIM_INFINITY:
            limit = min(limit, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    except (ImportError, AttributeError, OSError, ValueError):
        pass


def _pool_worker_main(
    job_conn,
    result_conn,
    close_conns,
    cache_dir=None,
    rlimit_as_mb=None,
):
    """Long-lived worker body: loop over job batches until told to stop.

    Protocol (all parent -> worker messages are ``pickle.dumps``'d by
    the parent and shipped as raw bytes so the parent controls -- and
    can catch -- pickling failures):

    * ``("batch", [(task_id, SweepJob), ...], vectorize)`` -- execute
      in order in the dispatching runner's mode (``vectorize=False``:
      scalar simulator only), streaming one reply per job: ``("ok",
      task_id, result, hits, misses, elapsed_s)`` or ``("err",
      task_id, type, message, tb, violations)``, where
      ``violations`` holds an invariant violation's dicts (``None``
      for any other error).
    * ``("stop",)`` -- exit cleanly.

    A worker that dies without replying is seen by the parent as EOF
    on ``result_conn``.  ``close_conns`` carries the parent-side pipe
    ends a forked child inherited; closing them immediately makes
    parent death propagate as EOF so orphaned workers exit instead of
    blocking forever.
    """
    for conn in close_conns:
        try:
            conn.close()
        except OSError:  # pragma: no cover - platform-specific
            pass
    _install_rlimit_as(rlimit_as_mb)
    from .batch import ResultCache, _attempt_error, _simulate_model_cached

    # The campaign's disk tier (when present) is mounted read-only:
    # workers serve warm hits from shared shards, but only the parent
    # appends results, so N workers never write N duplicate entries.
    cache = ResultCache(cache_dir=cache_dir, disk_puts=False)
    fingerprints: dict = {}
    while True:
        try:
            payload = job_conn.recv_bytes()
        except (EOFError, OSError):
            break  # parent died: exit instead of leaking
        try:
            message = pickle.loads(payload)
        except Exception:  # pragma: no cover - defensive
            break  # undecodable dispatch: die loudly (parent sees EOF)
        if message[0] != "batch":
            break  # ("stop",) or unknown: exit cleanly
        _, items, vectorize = message
        for task_id, job in items:
            start = time.perf_counter()
            try:
                fingerprint = _warm_fingerprint(job.simulator, fingerprints)
                hits_before = cache._hits
                misses_before = cache._misses
                # Kernel declines are silent here (bit-identical
                # results either way); the parent's in-process paths
                # are where fallback reasons are surfaced.
                result = _simulate_model_cached(
                    job.simulator,
                    job.model,
                    layer_by_layer=job.layer_by_layer,
                    cache=cache,
                    fingerprint=fingerprint,
                    vectorize=vectorize,
                )
                result_conn.send(
                    (
                        "ok",
                        task_id,
                        result,
                        cache._hits - hits_before,
                        cache._misses - misses_before,
                        time.perf_counter() - start,
                    )
                )
            except BaseException as exc:  # noqa: BLE001 - shipped to parent
                error = _attempt_error(exc)
                if isinstance(exc, MemoryError):
                    # An allocation refused under the RLIMIT_AS
                    # self-limit is a *memory budget* breach, not an
                    # arbitrary crash: name it so the runner can retry
                    # the job solo.
                    error = ("MemoryBudgetExceeded",) + error[1:]
                try:
                    result_conn.send(("err", task_id) + error)
                except Exception:
                    return  # cannot report: parent sees EOF
    try:
        result_conn.close()
    except OSError:  # pragma: no cover
        pass


# ----------------------------------------------------------------------
# Parent-side pool
# ----------------------------------------------------------------------
@dataclass
class PoolStats:
    """Lifetime accounting of one :class:`WorkerPool`."""

    workers_spawned: int = 0
    workers_respawned: int = 0
    workers_oom_killed: int = 0
    batches_dispatched: int = 0
    jobs_dispatched: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    jobs_requeued: int = 0
    payload_bytes: int = 0
    worker_cache_hits: int = 0
    worker_cache_misses: int = 0
    #: The execution planner's decision that routed jobs here last
    #: (one-line summary set by the sweep runner; "" when the pool was
    #: driven outside a planned campaign).
    plan: str = ""

    @property
    def worker_cache_hit_rate(self) -> float:
        """Fraction of worker-side layer lookups served warm."""
        lookups = self.worker_cache_hits + self.worker_cache_misses
        return self.worker_cache_hits / lookups if lookups else 0.0

    def describe(self) -> str:
        """One-line summary for campaign reports."""
        text = (
            f"{self.jobs_completed} ok / {self.jobs_failed} failed over "
            f"{self.batches_dispatched} batch(es), "
            f"{self.workers_spawned} worker(s) spawned "
            f"({self.workers_respawned} respawned), warm cache "
            f"{self.worker_cache_hits}/"
            f"{self.worker_cache_hits + self.worker_cache_misses} hits "
            f"({self.worker_cache_hit_rate:.0%})"
        )
        if self.workers_oom_killed:
            text += f", {self.workers_oom_killed} worker(s) over RSS budget"
        if self.plan:
            text += f", plan: {self.plan}"
        return text


@dataclass
class _PoolWorker:
    """Parent-side handle of one live worker process."""

    process: multiprocessing.process.BaseProcess
    job_conn: multiprocessing.connection.Connection
    result_conn: multiprocessing.connection.Connection
    #: Task ids in dispatch (= execution = reply) order; the head is
    #: the job the worker is currently executing.
    inflight: deque = field(default_factory=deque)
    #: Heartbeat deadline covering ``inflight[0]`` (None: no timeout).
    deadline: float | None = None
    #: Per-job timeout used to re-arm the deadline on each reply.
    timeout_s: float | None = None

    @property
    def idle(self) -> bool:
        return not self.inflight


class WorkerPool:
    """A fixed-size pool of persistent warm worker processes.

    Pure mechanism: :meth:`dispatch` ships batches, :meth:`poll`
    returns per-job events, :meth:`expire` enforces heartbeat
    deadlines, and dead workers are transparently respawned.  All
    *policy* (retries, backoff, failure records, manifests) belongs to
    the caller.

    Event tuples returned by :meth:`poll` / :meth:`expire`:

    * ``("ok", task_id, result, hits, misses, elapsed_s)``
    * ``("err", task_id, error_type, message, traceback_summary,
      violation dicts | None)``
    * ``("crashed", current_task_id | None, [queued ids], exitcode)``
    * ``("timeout", current_task_id, [queued ids])``
    * ``("oom", current_task_id | None, [queued ids], rss_mb)``
      (parent RSS watchdog killed a worker over ``rss_limit_mb``)
    """

    def __init__(
        self,
        max_workers: int,
        *,
        cache_dir=None,
        context: multiprocessing.context.BaseContext | None = None,
        rss_limit_mb: float | None = None,
        rlimit_as_mb: float | None = None,
    ):
        if max_workers < 1:
            raise ValueError("pool needs at least one worker")
        self.max_workers = max_workers
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.rss_limit_mb = rss_limit_mb
        self.rlimit_as_mb = rlimit_as_mb
        self._ctx = context if context is not None else multiprocessing.get_context()
        self.workers: list[_PoolWorker] = []
        self.stats = PoolStats()
        self._closed = False
        self._close_lock = threading.Lock()
        self._last_rss_sweep = 0.0

    # -- lifecycle -----------------------------------------------------
    def _spawn(self) -> _PoolWorker:
        job_reader, job_writer = self._ctx.Pipe(duplex=False)
        result_reader, result_writer = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_pool_worker_main,
            # The child closes the parent-side ends it inherited (or
            # received) first thing, so a SIGKILLed parent propagates
            # as EOF instead of leaving orphans blocked on recv.
            args=(
                job_reader,
                result_writer,
                (job_writer, result_reader),
                self.cache_dir,
                self.rlimit_as_mb,
            ),
            daemon=True,
        )
        process.start()
        # Parent-side copies of the child's ends must go away so the
        # child's death EOFs the result pipe.
        job_reader.close()
        result_writer.close()
        self.stats.workers_spawned += 1
        return _PoolWorker(
            process=process, job_conn=job_writer, result_conn=result_reader
        )

    def ensure_workers(self) -> None:
        """Top the pool back up to ``max_workers`` live processes."""
        if self._closed:
            raise RuntimeError("pool is closed")
        while len(self.workers) < self.max_workers:
            self.workers.append(self._spawn())

    def _retire(self, worker: _PoolWorker, *, respawn: bool = True) -> None:
        """Tear one worker down (and top the pool back up)."""
        if worker in self.workers:
            self.workers.remove(worker)
        try:
            worker.process.terminate()
        except Exception:  # pragma: no cover - already dead
            pass
        worker.process.join(timeout=5.0)
        for conn in (worker.job_conn, worker.result_conn):
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        if respawn and not self._closed:
            self.stats.workers_respawned += 1
            self.workers.append(self._spawn())

    def close(self) -> None:
        """Stop every worker (graceful, then forceful).

        Idempotent *and* thread-safe: exactly one caller tears the
        workers down; every other (concurrent or later) call returns
        immediately.  A service draining on a signal closes runners
        from its handler thread while campaign teardowns close the
        same pools from scheduler threads -- both must be no-ops when
        they lose the race.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            workers, self.workers = self.workers, []
        stop = pickle.dumps(("stop",))
        for worker in workers:
            try:
                worker.job_conn.send_bytes(stop)
            except (OSError, ValueError):
                pass  # already dead: terminated below
        for worker in workers:
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            for conn in (worker.job_conn, worker.result_conn):
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass

    def __enter__(self) -> "WorkerPool":
        self.ensure_workers()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- dispatch ------------------------------------------------------
    def idle_workers(self) -> list[_PoolWorker]:
        """Workers with no in-flight jobs (safe dispatch targets)."""
        return [worker for worker in self.workers if worker.idle]

    def dispatch(
        self,
        worker: _PoolWorker,
        items: list,
        *,
        vectorize: bool,
        timeout_s: float | None = None,
    ) -> bool:
        """Ship ``[(task_id, job), ...]`` to one idle worker, to run in
        the dispatching runner's mode (``vectorize``).

        The batch is pickled *here*, lazily -- a job that cannot be
        pickled raises immediately (the caller treats that as a
        structural pool failure and runs the jobs serially).
        Returns ``False`` when the worker turned out to be dead (it is
        respawned and nothing was dispatched -- the caller simply
        retries on a fresh worker); ``True`` on success.
        """
        if not items:
            return True
        payload = pickle.dumps(("batch", items, vectorize))
        try:
            worker.job_conn.send_bytes(payload)
        except (OSError, ValueError):
            # The worker died while idle (e.g. a stray kill): replace
            # it; no job was charged an attempt.
            self._retire(worker)
            return False
        now = time.monotonic()
        worker.inflight.extend(task_id for task_id, _ in items)
        worker.timeout_s = timeout_s
        worker.deadline = now + timeout_s if timeout_s is not None else None
        self.stats.batches_dispatched += 1
        self.stats.jobs_dispatched += len(items)
        self.stats.payload_bytes += len(payload)
        return True

    # -- event collection ----------------------------------------------
    def _crash_event(self, worker: _PoolWorker) -> tuple:
        lost = list(worker.inflight)
        worker.inflight.clear()
        exitcode = worker.process.exitcode
        self._retire(worker)
        current = lost[0] if lost else None
        queued = lost[1:]
        self.stats.jobs_requeued += len(queued)
        if current is not None:
            self.stats.jobs_failed += 1
        return ("crashed", current, queued, exitcode)

    def _reply_event(self, worker: _PoolWorker, message: tuple) -> tuple:
        task_id = message[1]
        if worker.inflight and worker.inflight[0] == task_id:
            worker.inflight.popleft()
        else:  # pragma: no cover - defensive (protocol guarantees order)
            try:
                worker.inflight.remove(task_id)
            except ValueError:
                pass
        # Heartbeat: the worker advanced to the next job, re-arm.
        if worker.inflight and worker.timeout_s is not None:
            worker.deadline = time.monotonic() + worker.timeout_s
        elif not worker.inflight:
            worker.deadline = None
        if message[0] == "ok":
            self.stats.jobs_completed += 1
            self.stats.worker_cache_hits += message[3]
            self.stats.worker_cache_misses += message[4]
        else:
            self.stats.jobs_failed += 1
        return message

    def poll(self, timeout: float) -> list[tuple]:
        """Wait up to ``timeout`` seconds and drain all ready events."""
        busy = {
            worker.result_conn: worker
            for worker in self.workers
            if worker.inflight
        }
        if not busy:
            return []
        events: list[tuple] = []
        ready = multiprocessing.connection.wait(
            list(busy), timeout=max(timeout, 0.0)
        )
        for conn in ready:
            worker = busy[conn]
            while True:
                try:
                    if not conn.poll(0):
                        break
                    message = conn.recv()
                except (EOFError, OSError):
                    events.append(self._crash_event(worker))
                    break
                events.append(self._reply_event(worker, message))
        return events

    def expire(self, now: float | None = None) -> list[tuple]:
        """Terminate workers whose heartbeat deadline has passed."""
        now = time.monotonic() if now is None else now
        events: list[tuple] = []
        for worker in list(self.workers):
            if worker.deadline is None or now <= worker.deadline:
                continue
            # One last drain: a reply racing the deadline sweep wins.
            raced = False
            while True:
                try:
                    if not worker.result_conn.poll(0):
                        break
                    message = worker.result_conn.recv()
                except (EOFError, OSError):
                    events.append(self._crash_event(worker))
                    raced = True
                    break
                events.append(self._reply_event(worker, message))
                raced = True
            if raced and (
                worker not in self.workers
                or worker.deadline is None
                or now <= worker.deadline
            ):
                continue
            lost = list(worker.inflight)
            worker.inflight.clear()
            self._retire(worker)
            if lost:
                self.stats.jobs_failed += 1
                self.stats.jobs_requeued += len(lost) - 1
                events.append(("timeout", lost[0], lost[1:]))
        return events

    def sample_rss(self, now: float | None = None) -> list[tuple]:
        """Kill workers whose resident set exceeds ``rss_limit_mb``.

        The parent-side complement of the worker's ``RLIMIT_AS``
        self-limit: address-space limits miss shared/lazy mappings and
        cannot be installed on every platform, so the heartbeat loop
        also samples each worker's actual RSS (via ``/proc``).  A
        breaching worker is terminated and replaced and the event
        ``("oom", current, queued, rss_mb)`` reports the job that was
        executing (charged a ``MemoryBudgetExceeded`` attempt by the
        runner) plus the batch-mates to requeue free of charge.

        Throttled to ~4 sweeps/s; a no-op without a limit or ``/proc``.
        """
        if self.rss_limit_mb is None:
            return []
        now = time.monotonic() if now is None else now
        if now - self._last_rss_sweep < 0.25:
            return []
        self._last_rss_sweep = now
        from .budget import process_rss_mb

        events: list[tuple] = []
        for worker in list(self.workers):
            rss = process_rss_mb(worker.process.pid)
            if rss is None or rss <= self.rss_limit_mb:
                continue
            # Drain replies racing the kill: finished jobs win.
            raced_dead = False
            while True:
                try:
                    if not worker.result_conn.poll(0):
                        break
                    message = worker.result_conn.recv()
                except (EOFError, OSError):
                    events.append(self._crash_event(worker))
                    raced_dead = True
                    break
                events.append(self._reply_event(worker, message))
            if raced_dead or worker not in self.workers:
                continue
            lost = list(worker.inflight)
            worker.inflight.clear()
            self._retire(worker)
            self.stats.workers_oom_killed += 1
            if lost:
                self.stats.jobs_failed += 1
                self.stats.jobs_requeued += len(lost) - 1
            current = lost[0] if lost else None
            events.append(("oom", current, lost[1:], rss))
        return events

    def next_deadline(self) -> float | None:
        """The earliest live heartbeat deadline (None when untimed)."""
        deadlines = [
            worker.deadline
            for worker in self.workers
            if worker.deadline is not None
        ]
        return min(deadlines) if deadlines else None

    @property
    def inflight_jobs(self) -> int:
        """Jobs currently dispatched and not yet resolved."""
        return sum(len(worker.inflight) for worker in self.workers)
