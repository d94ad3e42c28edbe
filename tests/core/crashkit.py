"""Crash-injection helpers for the fault-tolerance test suite.

:class:`CrashingSimulator` wraps a real simulator and injects a
failure -- an exception, an abrupt worker death or a hang -- into a
configurable number of execution attempts, then behaves normally.
The wrapper is picklable (so it travels into sweep worker processes)
and counts attempts through a **file-based counter**, so "fail the
first K attempts, then succeed" works whichever worker process runs
each attempt.

The wrapper forwards everything else (``spec``, energy models, ...)
to the inner simulator, so its cache fingerprint -- and therefore its
cache entries and campaign manifest keys -- are identical to the
healthy machine's.

:class:`WriteErrorInjector` attacks the storage layer instead of the
simulator: it swaps :mod:`repro.core.store`'s patchable os-level
shims (``_os_write`` / ``_os_fsync``) for wrappers that raise a
chosen ``OSError`` (ENOSPC by default), so full-disk and I/O-error
behaviour -- degradation warnings, memory-only fallback, campaign
survival -- is testable without actually filling a disk.

:class:`BalloonSimulator` inflates a worker's resident set on injected
attempts (touching every page so the RSS actually grows), exercising
the memory-budget machinery: the worker's ``RLIMIT_AS`` self-limit or
the parent's RSS watchdog must convert the balloon into a structured
``MemoryBudgetExceeded`` failure instead of letting the host OOM.
:func:`sigint_after` builds a progress callback that delivers a signal
to the *current* process after N completed jobs -- the in-process way
to test two-stage draining shutdown.
"""

from __future__ import annotations

import errno
import os
import signal
import time

__all__ = [
    "BalloonSimulator",
    "CrashingSimulator",
    "WriteErrorInjector",
    "sigint_after",
]


class CrashingSimulator:
    """Simulator proxy that fails injected attempts.

    Parameters
    ----------
    inner:
        The real simulator to delegate to once injection is spent.
    mode:
        ``"raise"`` raises :class:`RuntimeError`, ``"violate"`` raises
        :class:`~repro.errors.InvariantViolationError` with one
        ``INV-TIME-NEG`` violation (what a strict-mode ``Simulator``
        raises for a corrupt result), ``"exit"`` kills the
        process via ``os._exit`` (a worker crash the parent only sees
        as EOF), ``"hang"`` sleeps for ``hang_s`` seconds (long enough
        to trip any configured timeout).
    fail_times:
        Fail this many *attempts* then succeed.  ``None`` fails every
        attempt.  Counted in ``counter_path`` (required when
        ``fail_times`` is set) so the count survives process
        boundaries.
    """

    def __init__(
        self,
        inner,
        *,
        mode: str = "raise",
        fail_times: int | None = None,
        counter_path: str | None = None,
        hang_s: float = 60.0,
    ):
        if mode not in ("raise", "violate", "exit", "hang"):
            raise ValueError(
                "mode must be 'raise', 'violate', 'exit' or 'hang'"
            )
        if fail_times is not None and counter_path is None:
            raise ValueError("fail_times needs a counter_path")
        self.inner = inner
        self.mode = mode
        self.fail_times = fail_times
        self.counter_path = str(counter_path) if counter_path else None
        self.hang_s = hang_s

    # -- injection machinery -------------------------------------------
    def _strike(self) -> bool:
        """Count one execution attempt; ``True`` iff it must fail."""
        if self.fail_times is None:
            return True
        with open(self.counter_path, "ab") as handle:
            handle.seek(0, os.SEEK_END)
            prior = handle.tell()
            handle.write(b"x")
            handle.flush()
        return prior < self.fail_times

    def _fail(self) -> None:
        if self.mode == "violate":
            from repro.core.invariants import (
                InvariantViolation,
                raise_on_violations,
            )

            name = self.inner.spec.name
            raise_on_violations(
                [
                    InvariantViolation(
                        code="INV-TIME-NEG",
                        message="injected negative computation time",
                        accelerator=name,
                    )
                ],
                subject=name,
            )
        if self.mode == "exit":
            os._exit(17)
        if self.mode == "hang":
            time.sleep(self.hang_s)
        raise RuntimeError("injected crash")

    # -- simulator interface -------------------------------------------
    def simulate_model(self, model, layer_by_layer: bool = False):
        if self._strike():
            self._fail()
        return self.inner.simulate_model(model, layer_by_layer=layer_by_layer)

    def simulate_layer(self, layer, layer_by_layer: bool = False):
        if self._strike():
            self._fail()
        return self.inner.simulate_layer(layer, layer_by_layer=layer_by_layer)

    def __getattr__(self, name: str):
        if name.startswith("_") or name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)


class BalloonSimulator:
    """Simulator proxy that inflates its RSS on injected attempts.

    On a striking attempt it allocates ``balloon_mb`` megabytes,
    touches every page (so the kernel actually commits resident
    memory, not just address space), lingers ``linger_s`` seconds to
    give a parent-side RSS watchdog time to sample it, then raises --
    unless ``RLIMIT_AS`` already turned the allocation itself into a
    :class:`MemoryError`, which is the worker-side detection path.
    Strike counting matches :class:`CrashingSimulator`: file-based, so
    "balloon the first K attempts then behave" survives process
    boundaries.
    """

    def __init__(
        self,
        inner,
        *,
        balloon_mb: float,
        touch: bool = True,
        linger_s: float = 5.0,
        fail_times: int | None = None,
        counter_path: str | None = None,
    ):
        if balloon_mb <= 0:
            raise ValueError("balloon_mb must be > 0")
        if fail_times is not None and counter_path is None:
            raise ValueError("fail_times needs a counter_path")
        self.inner = inner
        self.balloon_mb = float(balloon_mb)
        self.touch = touch
        self.linger_s = float(linger_s)
        self.fail_times = fail_times
        self.counter_path = str(counter_path) if counter_path else None

    def _strike(self) -> bool:
        if self.fail_times is None:
            return True
        with open(self.counter_path, "ab") as handle:
            handle.seek(0, os.SEEK_END)
            prior = handle.tell()
            handle.write(b"x")
            handle.flush()
        return prior < self.fail_times

    def _inflate(self) -> None:
        # MemoryError raised here (RLIMIT_AS) propagates as the
        # worker-side detection path; otherwise the balloon stays
        # referenced while we linger so the watchdog can catch it.
        balloon = bytearray(int(self.balloon_mb * 1024 * 1024))
        if self.touch:
            for i in range(0, len(balloon), 4096):
                balloon[i] = 1
        deadline = time.monotonic() + self.linger_s
        while time.monotonic() < deadline:
            time.sleep(0.05)
        raise RuntimeError(
            f"balloon of {self.balloon_mb:g} MB survived "
            f"{self.linger_s:g} s without tripping a memory budget"
        )

    def simulate_model(self, model, layer_by_layer: bool = False):
        if self._strike():
            self._inflate()
        return self.inner.simulate_model(model, layer_by_layer=layer_by_layer)

    def simulate_layer(self, layer, layer_by_layer: bool = False):
        if self._strike():
            self._inflate()
        return self.inner.simulate_layer(layer, layer_by_layer=layer_by_layer)

    def __getattr__(self, name: str):
        if name.startswith("_") or name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)


def sigint_after(n: int, signum: int = signal.SIGINT):
    """Progress callback delivering ``signum`` to *this* process after
    ``n`` completed jobs -- pair with
    :class:`repro.core.budget.GracefulDrain` to exercise the draining
    shutdown path without a subprocess."""
    state = {"seen": 0}

    def callback(stats) -> None:
        state["seen"] += 1
        if state["seen"] == n:
            os.kill(os.getpid(), signum)

    return callback


class WriteErrorInjector:
    """Context manager failing store-level writes with an ``OSError``.

    Patches ``repro.core.store._os_write`` and ``_os_fsync`` (the
    indirection every store write funnels through) so that, after
    ``fail_after`` successful calls, each further call raises
    ``OSError(code)``.  Reads are untouched, so callers keep serving
    warm data while their write path is "out of disk".  The number of
    injected failures is available as :attr:`injected`.
    """

    def __init__(self, code: int = errno.ENOSPC, *, fail_after: int = 0):
        self.code = code
        self.fail_after = fail_after
        self.calls = 0
        self.injected = 0
        self._saved = None

    def _maybe_fail(self, op: str) -> None:
        self.calls += 1
        if self.calls > self.fail_after:
            self.injected += 1
            raise OSError(self.code, f"{os.strerror(self.code)} [injected {op}]")

    def __enter__(self) -> "WriteErrorInjector":
        from repro.core import store

        real_write, real_fsync = store._os_write, store._os_fsync

        def write(fd, data):
            self._maybe_fail("write")
            return real_write(fd, data)

        def fsync(fd):
            self._maybe_fail("fsync")
            return real_fsync(fd)

        self._saved = (real_write, real_fsync)
        store._os_write = write
        store._os_fsync = fsync
        return self

    def __exit__(self, *exc_info) -> None:
        from repro.core import store

        store._os_write, store._os_fsync = self._saved
        self._saved = None
