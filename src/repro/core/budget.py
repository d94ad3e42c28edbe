"""Campaign budgets and graceful degradation primitives.

PRs 2/5/7 made individual job attempts and the storage layer
crash-safe, but a *campaign* still had no notion of resource budgets:
a SIGINT mid-sweep aborted ungracefully, an OOM-prone configuration
could take the host down, and a systemically broken environment (dead
cache disk, every job failing) burned the full ``retries x backoff``
budget per job instead of failing fast.  This module provides the
policy objects the execution layer (:mod:`repro.core.batch` /
:mod:`repro.core.pool`) enforces:

* :class:`CampaignBudget` -- declarative limits (wall-clock deadline,
  per-worker RSS, failure counts, poison threshold, breaker window)
  threaded through :class:`~repro.core.batch.SweepRunner`,
  :class:`~repro.dse.search.SearchEngine` and
  :func:`~repro.experiments.resilience.availability_study`;
* :class:`CampaignOutcome` -- the structured partial result a
  budget-stopped campaign returns *instead of raising*: per-job
  done/skipped/failed counts, a ``completeness`` fraction and the stop
  diagnosis.  The manifest is flushed on the way out, so ``--resume``
  later finishes the remainder byte-identically;
* :class:`CircuitBreaker` -- a sliding window over recent attempt
  outcomes that trips on systemic failure (default: >= 90% of the
  last 20 attempts failed) and converts the campaign to fail-fast
  with a diagnosis, bounding wall-clock on a 100%-failing campaign to
  O(window) attempts rather than O(jobs x retries x backoff);
* :class:`GracefulDrain` -- the two-stage SIGINT/SIGTERM handler:
  the first signal stops dispatch, drains in-flight attempts and
  flushes the manifest (the CLI then exits with
  :data:`EXIT_BUDGET_STOPPED`); the second aborts immediately.

The module is deliberately dependency-free (stdlib only) so both the
runner and the pool can import it without cycles.
"""

from __future__ import annotations

import os
import sys
import signal
import threading
from collections import Counter, deque
from dataclasses import dataclass, field

# Canonical home of the exit-code contract is repro.errors; the alias
# here predates it and is kept for the many existing import sites.
from ..errors import EXIT_BUDGET_STOPPED, ConfigError

__all__ = [
    "EXIT_BUDGET_STOPPED",
    "CampaignBudget",
    "CampaignOutcome",
    "CircuitBreaker",
    "GracefulDrain",
    "clear_global_stop",
    "compose_budgets",
    "global_stop",
    "process_rss_mb",
    "request_global_stop",
]


@dataclass(frozen=True)
class CampaignBudget:
    """Declarative resource limits for one campaign.

    Every field is optional; an all-``None`` budget (the default when
    no budget is attached at all) changes nothing.  On any breach the
    runner stops dispatching, drains in-flight attempts, flushes the
    manifest and returns a partial result described by
    :class:`CampaignOutcome` -- it never raises for a budget stop.

    Parameters
    ----------
    deadline_s:
        Wall-clock budget for the campaign, anchored at the runner's
        *first* :meth:`~repro.core.batch.SweepRunner.run` call (so a
        chunked search under one runner shares one deadline).
    max_rss_mb:
        Per-pool-worker resident-set bound, sampled by the parent's
        heartbeat sweep; a breaching worker is terminated and the job
        charged a retryable ``MemoryBudgetExceeded`` attempt that is
        re-dispatched solo (batch size 1).
    worker_rlimit_mb:
        Address-space self-limit (``resource.setrlimit(RLIMIT_AS)``)
        installed inside every pool worker, so a runaway allocation
        fails as a worker-local :class:`MemoryError` instead of a
        host-level OOM kill.  Best-effort where the platform lacks
        ``RLIMIT_AS``.
    max_failures / max_consecutive_failures:
        Stop the campaign after this many permanent job failures
        (total / in a row), cumulative over the runner's lifetime.
    poison_threshold:
        Quarantine a job after this many *worker-killing* attempts
        (crash, hang/timeout, memory breach).  ``None`` disables.
    breaker_window / breaker_threshold:
        Sliding-window circuit breaker over recent attempt outcomes;
        trips when the window is full and the failed fraction reaches
        the threshold.  ``breaker_window=0`` disables.
    """

    deadline_s: float | None = None
    max_rss_mb: float | None = None
    worker_rlimit_mb: float | None = None
    max_failures: int | None = None
    max_consecutive_failures: int | None = None
    poison_threshold: int | None = 3
    breaker_window: int = 20
    breaker_threshold: float = 0.9

    def __post_init__(self) -> None:
        for name in ("deadline_s", "max_rss_mb", "worker_rlimit_mb"):
            value = getattr(self, name)
            # "not > 0" rather than "<= 0": a NaN limit must not pass
            # as a limit that never trips.
            if value is not None and not value > 0:
                raise ConfigError(
                    f"{name} must be positive (or None), got {value!r}"
                )
        for name in (
            "max_failures",
            "max_consecutive_failures",
            "poison_threshold",
        ):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1 (or None)")
        if self.breaker_window < 0:
            raise ValueError("breaker_window must be >= 0")
        if not 0.0 < self.breaker_threshold <= 1.0:
            raise ValueError("breaker_threshold must be in (0, 1]")


@dataclass
class CampaignOutcome:
    """Structured result summary of one :meth:`SweepRunner.run`.

    Built for every run (``stop_reason`` is ``None`` on a healthy
    campaign), but its purpose is the *partial* case: a budget- or
    signal-stopped campaign returns normally with the per-job
    accounting below and a resumable manifest instead of raising.
    """

    total_jobs: int = 0
    #: Jobs with a real result this run (includes resumed replays).
    done: int = 0
    #: Jobs that failed permanently (quarantined ones counted apart).
    failed: int = 0
    #: Jobs quarantined as poison (this run or skipped on resume).
    quarantined: int = 0
    #: Jobs never attempted because the campaign stopped first; they
    #: stay pending in the manifest and complete under ``--resume``.
    skipped: int = 0
    #: Done jobs that were replayed from a prior run's manifest.
    resumed: int = 0
    #: ``None`` | ``deadline`` | ``breaker`` | ``signal`` |
    #: ``max-failures`` | ``max-consecutive-failures``.
    stop_reason: str | None = None
    diagnosis: str = ""
    elapsed_s: float = 0.0
    #: Failed attempts that were re-dispatched (not permanent).
    retry_attempts: int = 0
    #: Wall-clock spent on failed attempts plus backoff waits.
    retry_time_lost_s: float = 0.0

    @property
    def stopped(self) -> bool:
        """Whether a budget or signal cut this campaign short."""
        return self.stop_reason is not None

    @property
    def completeness(self) -> float:
        """Fraction of jobs with a real result (1.0 when empty)."""
        if self.total_jobs <= 0:
            return 1.0
        return self.done / self.total_jobs

    def describe(self) -> str:
        """One-line human-readable summary."""
        text = (
            f"{self.done}/{self.total_jobs} jobs done "
            f"({self.completeness:.0%}), {self.failed} failed, "
            f"{self.quarantined} quarantined, {self.skipped} skipped"
        )
        if self.stopped:
            text += f" -- stopped: {self.stop_reason}"
            if self.diagnosis:
                text += f" ({self.diagnosis})"
        return text

    def to_dict(self) -> dict:
        """JSON-ready form (the partial-result schema)."""
        return {
            "total_jobs": self.total_jobs,
            "done": self.done,
            "failed": self.failed,
            "quarantined": self.quarantined,
            "skipped": self.skipped,
            "resumed": self.resumed,
            "completeness": self.completeness,
            "stopped": self.stopped,
            "stop_reason": self.stop_reason,
            "diagnosis": self.diagnosis,
            "elapsed_s": self.elapsed_s,
            "retry_attempts": self.retry_attempts,
            "retry_time_lost_s": self.retry_time_lost_s,
        }


@dataclass
class CircuitBreaker:
    """Sliding-window breaker over recent attempt outcomes.

    Record every attempt (success or failure); once the window is full
    and the failed fraction reaches ``threshold`` the breaker trips
    and stays tripped -- systemic failure (a dead cache disk, a broken
    environment) should fail the campaign fast with a diagnosis, not
    grind through ``retries x backoff`` on every remaining job.
    """

    window: int = 20
    threshold: float = 0.9
    _outcomes: deque = field(default_factory=deque, repr=False)
    _errors: Counter = field(default_factory=Counter, repr=False)
    _tripped: bool = field(default=False, repr=False)

    def record(self, ok: bool, error_type: str | None = None) -> bool:
        """Feed one attempt outcome; returns :attr:`tripped`."""
        if self.window <= 0 or self._tripped:
            return self._tripped
        outcomes = self._outcomes
        if len(outcomes) >= self.window:
            old_ok, old_error = outcomes.popleft()
            if not old_ok:
                self._errors[old_error] -= 1
        outcomes.append((ok, error_type))
        if not ok:
            self._errors[error_type] += 1
        if len(outcomes) >= self.window:
            failed = sum(1 for item_ok, _ in outcomes if not item_ok)
            if failed >= self.threshold * self.window:
                self._tripped = True
        return self._tripped

    @property
    def tripped(self) -> bool:
        return self._tripped

    def diagnosis(self) -> str:
        """Why the breaker is (or would be) concerned, with dominant errors."""
        failed = sum(1 for ok, _ in self._outcomes if not ok)
        text = (
            f"{failed}/{len(self._outcomes)} recent attempts failed "
            f"(threshold {self.threshold:.0%} of {self.window})"
        )
        dominant = [
            f"{name} x{count}"
            for name, count in self._errors.most_common(3)
            if count > 0
        ]
        if dominant:
            text += "; dominant: " + ", ".join(dominant)
        return text


def compose_budgets(*budgets: "CampaignBudget | None") -> "CampaignBudget | None":
    """The tightest combination of several budget layers.

    The campaign service stacks up to three policy layers on one
    campaign -- the server-wide default, the tenant's quota budget and
    the limits the submission itself requested -- and the effective
    budget must never be *looser* than any layer.  Field by field:

    * limit fields (deadline, RSS, rlimit, failure counts, poison
      threshold): the smallest non-``None`` value wins;
    * the circuit breaker: among layers that enable one
      (``breaker_window > 0``), the smallest window and threshold win
      (both make it trip sooner).

    ``None`` layers are ignored; with no non-``None`` layer the result
    is ``None`` (no budget at all).
    """
    layers = [budget for budget in budgets if budget is not None]
    if not layers:
        return None
    if len(layers) == 1:
        return layers[0]

    def tightest(name: str):
        values = [
            value
            for layer in layers
            if (value := getattr(layer, name)) is not None
        ]
        return min(values) if values else None

    windows = [layer.breaker_window for layer in layers if layer.breaker_window > 0]
    thresholds = [
        layer.breaker_threshold for layer in layers if layer.breaker_window > 0
    ]
    return CampaignBudget(
        deadline_s=tightest("deadline_s"),
        max_rss_mb=tightest("max_rss_mb"),
        worker_rlimit_mb=tightest("worker_rlimit_mb"),
        max_failures=tightest("max_failures"),
        max_consecutive_failures=tightest("max_consecutive_failures"),
        poison_threshold=tightest("poison_threshold"),
        breaker_window=min(windows) if windows else 0,
        breaker_threshold=min(thresholds) if thresholds else 0.9,
    )


def process_rss_mb(pid: int) -> float | None:
    """Resident set size of ``pid`` in MB via ``/proc`` (None elsewhere).

    Linux-only by design: the parent's RSS watchdog samples *other*
    processes (its pool workers), which the portable :mod:`resource`
    module cannot do.  On platforms without ``/proc`` the watchdog is
    simply inert -- workers still self-limit via ``RLIMIT_AS`` where
    available.
    """
    try:
        with open(f"/proc/{pid}/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        return None
    return None


# ----------------------------------------------------------------------
# Process-wide drain state (signal handler -> every live runner)
# ----------------------------------------------------------------------
_GLOBAL_STOP: tuple[str, str] | None = None
_GLOBAL_STOP_LOCK = threading.Lock()


def request_global_stop(reason: str, diagnosis: str = "") -> None:
    """Ask every live (and future) runner in this process to drain.

    Async-signal-safe by construction (one tuple assignment); the
    first request wins.  Runners consult this flag in their dispatch
    loops, so a stop requested from a signal handler takes effect at
    the next loop iteration: no new attempts launch, in-flight
    attempts drain, the manifest is flushed.
    """
    global _GLOBAL_STOP
    with _GLOBAL_STOP_LOCK:
        if _GLOBAL_STOP is None:
            _GLOBAL_STOP = (reason, diagnosis)


def global_stop() -> tuple[str, str] | None:
    """The pending process-wide stop request, if any."""
    return _GLOBAL_STOP


def clear_global_stop() -> None:
    """Reset the process-wide stop flag (tests, long-lived services)."""
    global _GLOBAL_STOP
    with _GLOBAL_STOP_LOCK:
        _GLOBAL_STOP = None


class GracefulDrain:
    """Two-stage SIGINT/SIGTERM drain handler (context manager).

    * **First signal**: request a process-wide stop.  Every runner
      stops dispatching, drains in-flight attempts, flushes its
      manifest and returns a partial :class:`CampaignOutcome`; the
      CLI then exits :data:`EXIT_BUDGET_STOPPED` with a resumable
      manifest on disk.
    * **Second signal**: immediate abort via ``os._exit(128+signum)``.
      Pool workers are daemonic and exit on the EOF their pipes see
      when the parent dies, so no orphan processes are left behind.

    The previous handlers are restored (and the global stop flag
    cleared) on exit, so the context can be nested in tests.
    """

    def __init__(self, signals: tuple = (signal.SIGINT, signal.SIGTERM)):
        self.signals = tuple(signals)
        self.signalled = 0
        self._previous: dict = {}

    def _handle(self, signum, frame) -> None:  # noqa: ARG002
        self.signalled += 1
        name = signal.Signals(signum).name
        if self.signalled == 1:
            request_global_stop(
                "signal", f"{name} received; draining in-flight attempts"
            )
            sys.stderr.write(
                f"repro: {name} received -- draining (manifest stays "
                "resumable); send again to abort immediately\n"
            )
            return
        sys.stderr.write(f"repro: second {name} -- aborting now\n")
        os._exit(128 + signum)

    def __enter__(self) -> "GracefulDrain":
        for signum in self.signals:
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except (ValueError, OSError):  # non-main thread / platform
                pass
        return self

    def __exit__(self, *exc_info) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):  # pragma: no cover
                pass
        self._previous = {}
        clear_global_stop()
