"""Crash-consistent, multi-process-safe append-log storage layer.

:class:`repro.core.batch.ResultCache` (disk tier) and
:class:`repro.core.campaign.CampaignManifest` both persist state as
append-only JSONL files inside a shared cache directory.  Before this
module existed they wrote bare ``json.dumps`` lines through buffered
``open(..., "a")`` handles with no locking and no integrity metadata:
two processes sharing a directory could interleave torn lines, a
mid-run kill could leave an undetectably truncated tail, and every
write error vanished into ``except OSError: pass``.  This module is
the storage substrate that makes multi-hour, multi-process campaigns
(ROADMAP item 4, the multi-tenant campaign service) safe:

* **Framed records.**  Every record is one line,
  ``=<crc32:8 hex><length:8 hex>:<payload>\\n``, written -- alone or
  with the rest of its group -- with a single ``os.write`` to an
  ``O_APPEND`` descriptor.  Concurrent appenders can therefore only
  interleave *whole* frames on a local filesystem, and any byte-level
  damage -- torn writes, bit rot, interleaving on exotic mounts -- is
  caught by the length/CRC check on read.
* **Torn-tail vs corruption.**  A record that fails validation at the
  *end* of a file is a torn tail (the expected remains of a kill
  mid-append): it is skipped and counted, never fatal.  A record that
  fails validation *mid-file* is corruption: it is appended verbatim
  to ``<file>.quarantine`` (deduplicated) so nothing is ever silently
  dropped, and counted in :class:`StorageHealth`.
* **Advisory locking.**  :class:`FileLock` uses ``fcntl.flock`` where
  available (kernel-released on process death, so it can never go
  stale) and falls back to ``O_EXCL`` lock files carrying the owner
  pid plus a heartbeat mtime, broken when the owner is dead and the
  heartbeat is older than ``stale_s``.  Appends take the lock shared;
  atomic rewrites (:func:`rewrite_log`) take it exclusive, so a
  compaction can never race an appender into losing a record.
* **Atomic rewrites.**  :func:`rewrite_log` writes a temporary file in
  the same directory, fsyncs it and ``os.replace``\\ s it into place
  under the exclusive lock -- a reader sees either the old or the new
  file, never a partial one.
* **Degradation, not silence.**  Every write error (ENOSPC, EIO, a
  read-only mount) is recorded in :class:`StorageHealth` and surfaced
  as exactly one deduped :class:`~repro.errors.ReproWarning` per path
  per process; callers degrade to memory-only operation and keep
  running.

``repro doctor --cache DIR`` drives :func:`scan_directory` to audit
and repair a cache directory offline; the chaos suite
(``tests/core/test_store.py``) proves the layer against injected
SIGKILL, truncation at every byte offset, ENOSPC/EIO shims and
concurrent writer processes.

Fsync policy: callers pass their per-file default (the campaign
manifest fsyncs every event, cache shards do not) and the
``REPRO_STORE_FSYNC`` environment variable overrides it globally --
``always`` fsyncs everything, ``never`` nothing, ``auto`` (default)
keeps the per-call defaults.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path

try:  # pragma: no cover - exercised implicitly on POSIX
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from ..errors import ConfigError, ReproWarning

__all__ = [
    "FRAME_HEADER_LEN",
    "QUARANTINE_SUFFIX",
    "StorageHealth",
    "FileLock",
    "FileScan",
    "LogScan",
    "append_record",
    "frame_record",
    "fsync_policy",
    "iter_json_records",
    "parse_log",
    "quarantine_path",
    "quarantine_records",
    "record_degradation",
    "reset_warnings",
    "resolve_fsync",
    "rewrite_log",
    "scan_directory",
    "scan_log",
    "warn_once",
    "write_whole",
]

#: ``=`` + 8 hex CRC32 chars + 8 hex length chars + ``:``.
FRAME_HEADER_LEN = 18

#: Quarantined (corrupt / torn) raw lines live next to their log.
QUARANTINE_SUFFIX = ".quarantine"

#: Default staleness bound before a fallback lock may be broken.
DEFAULT_STALE_S = 30.0

# Patchable OS shims: the chaos harness (tests/core/crashkit.py)
# swaps these for ENOSPC/EIO injectors without touching the global
# ``os`` module.
_os_open = os.open
_os_write = os.write
_os_fsync = os.fsync
_os_replace = os.replace


# ----------------------------------------------------------------------
# Fsync policy
# ----------------------------------------------------------------------
_FSYNC_POLICIES = ("always", "never", "auto")


def fsync_policy() -> str:
    """Process-wide fsync override: ``$REPRO_STORE_FSYNC`` or ``auto``.

    Any value but ``always``/``never``/``auto`` raises
    :class:`~repro.errors.ConfigError`: a typo must not silently
    downgrade a requested ``always`` to the lenient default.
    """
    raw = os.environ.get("REPRO_STORE_FSYNC", "auto")
    policy = raw.strip().lower()
    if policy not in _FSYNC_POLICIES:
        raise ConfigError(
            "$REPRO_STORE_FSYNC must be one of "
            f"{', '.join(_FSYNC_POLICIES)}, got {raw!r}"
        )
    return policy


def resolve_fsync(default: bool) -> bool:
    """Apply the global policy to one call site's fsync default."""
    policy = fsync_policy()
    if policy == "always":
        return True
    if policy == "never":
        return False
    return default


# ----------------------------------------------------------------------
# Deduplicated warnings + degradation accounting
# ----------------------------------------------------------------------
#: Warning keys already emitted by this process (one warning per key).
_WARNED: set[tuple] = set()


def warn_once(key: tuple, message: str) -> None:
    """Emit one :class:`ReproWarning` per ``key`` per process."""
    if key in _WARNED:
        return
    _WARNED.add(key)
    warnings.warn(message, ReproWarning, stacklevel=3)


def reset_warnings() -> None:
    """Forget which warnings were emitted (test isolation)."""
    _WARNED.clear()


@dataclass
class StorageHealth:
    """Observed condition of one storage client (cache or manifest).

    ``degraded`` maps each path whose write path failed to the first
    error seen there -- once a path appears the client is running
    memory-only for that file and results may need recomputation on
    the next run.  The remaining counters record recovered-from
    events: they never imply data loss (torn tails and rejected
    records are recomputed, quarantined records are preserved
    verbatim), only that the storage layer had to intervene.
    """

    degraded: dict[str, str] = field(default_factory=dict)
    quarantined_records: int = 0
    torn_records: int = 0
    #: Well-framed records whose payload failed to unpack (recomputed).
    rejected_records: int = 0
    legacy_records: int = 0
    lock_acquires: int = 0
    lock_contention: int = 0
    stale_locks_broken: int = 0

    @property
    def storage_degraded(self) -> bool:
        """Whether any write path has failed this run."""
        return bool(self.degraded)

    @property
    def noteworthy(self) -> bool:
        """Whether there is anything worth surfacing in a report."""
        return bool(
            self.degraded
            or self.quarantined_records
            or self.torn_records
            or self.rejected_records
            or self.lock_contention
            or self.stale_locks_broken
        )

    def merge(self, other: "StorageHealth") -> "StorageHealth":
        """Fold another health record into this one (returns self)."""
        for path, error in other.degraded.items():
            self.degraded.setdefault(path, error)
        self.quarantined_records += other.quarantined_records
        self.torn_records += other.torn_records
        self.rejected_records += other.rejected_records
        self.legacy_records += other.legacy_records
        self.lock_acquires += other.lock_acquires
        self.lock_contention += other.lock_contention
        self.stale_locks_broken += other.stale_locks_broken
        return self

    @classmethod
    def merged(cls, healths) -> "StorageHealth":
        """A fresh record combining ``healths`` (Nones are skipped)."""
        total = cls()
        for health in healths:
            if health is not None:
                total.merge(health)
        return total

    def describe(self) -> str:
        """One-line summary for campaign reports."""
        parts = []
        if self.degraded:
            worst = next(iter(self.degraded.items()))
            parts.append(
                f"DEGRADED ({len(self.degraded)} path(s); first: "
                f"{os.path.basename(worst[0])}: {worst[1]})"
            )
        if self.quarantined_records:
            parts.append(f"{self.quarantined_records} record(s) quarantined")
        if self.torn_records:
            parts.append(f"{self.torn_records} torn record(s) skipped")
        if self.rejected_records:
            parts.append(
                f"{self.rejected_records} rejected record(s) recomputed"
            )
        if self.lock_contention:
            parts.append(f"lock contention x{self.lock_contention}")
        if self.stale_locks_broken:
            parts.append(f"{self.stale_locks_broken} stale lock(s) broken")
        if not parts:
            parts.append("ok")
        parts.append(f"fsync={fsync_policy()}")
        return ", ".join(parts)

    def to_dict(self) -> dict:
        """JSON-ready form (``repro doctor --cache --json``)."""
        return {
            "degraded": dict(self.degraded),
            "quarantined_records": self.quarantined_records,
            "torn_records": self.torn_records,
            "rejected_records": self.rejected_records,
            "legacy_records": self.legacy_records,
            "lock_acquires": self.lock_acquires,
            "lock_contention": self.lock_contention,
            "stale_locks_broken": self.stale_locks_broken,
            "fsync_policy": fsync_policy(),
        }


def record_degradation(
    path: str, exc: BaseException, health: StorageHealth | None
) -> None:
    """Note a failed write path: health entry + one warning per path."""
    description = f"{type(exc).__name__}: {exc}"
    if health is not None:
        health.degraded.setdefault(str(path), description)
    warn_once(
        ("degraded", str(path)),
        f"storage degraded at {path} ({description}); continuing "
        "without persistence for this file -- results stay correct but "
        "may be recomputed on the next run",
    )


# ----------------------------------------------------------------------
# Record framing
# ----------------------------------------------------------------------
def frame_record(payload: bytes) -> bytes:
    """One framed log line: ``=<crc32><length>:<payload>\\n``."""
    if b"\n" in payload:
        raise ValueError("framed payloads must not contain newlines")
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return b"=%08x%08x:%s\n" % (crc, len(payload), payload)


def _validate_line(line: bytes) -> tuple[bool, bytes | None, bool]:
    """``(valid, payload, framed)`` for one newline-stripped log line.

    Unframed lines are *legacy* records from the pre-store JSONL
    layout; they are accepted iff they parse as JSON (both log users
    store JSON payloads), so arbitrary garbage is still rejected.
    """
    if line[:1] == b"=":
        if len(line) >= FRAME_HEADER_LEN and line[17:18] == b":":
            try:
                crc = int(line[1:9], 16)
                length = int(line[9:17], 16)
            except ValueError:
                return False, None, True
            payload = line[FRAME_HEADER_LEN:]
            if (
                len(payload) == length
                and zlib.crc32(payload) & 0xFFFFFFFF == crc
            ):
                return True, payload, True
        return False, None, True
    try:
        json.loads(line)
    except ValueError:
        return False, None, False
    return True, line, False


@dataclass
class LogScan:
    """Outcome of parsing one append log's bytes."""

    #: Validated payloads in file order (framed payloads and accepted
    #: legacy lines, indistinguishable to callers).
    records: list[bytes] = field(default_factory=list)
    #: How many of ``records`` came from unframed legacy lines.
    legacy: int = 0
    #: Raw invalid line(s) at the very end of the file -- the expected
    #: remains of a write interrupted by a kill; skip and recompute.
    torn_lines: list[bytes] = field(default_factory=list)
    #: Raw invalid lines *before* the tail -- real corruption; callers
    #: quarantine these instead of dropping them.
    corrupt: list[bytes] = field(default_factory=list)

    @property
    def torn(self) -> int:
        return len(self.torn_lines)


def parse_log(data: bytes) -> LogScan:
    """Classify every line of an append log (pure, no I/O).

    Never raises on any input: arbitrary truncation or corruption
    degrades to skipped/quarantinable lines, proven by the
    truncate-at-every-offset suite in ``tests/core/test_store.py``.
    """
    scan = LogScan()
    if not data:
        return scan
    lines = data.split(b"\n")
    if data.endswith(b"\n"):
        lines.pop()
    last = len(lines) - 1
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        valid, payload, framed = _validate_line(line)
        if valid:
            scan.records.append(payload)  # type: ignore[arg-type]
            if not framed:
                scan.legacy += 1
        elif i == last:
            scan.torn_lines.append(line)
        else:
            scan.corrupt.append(line)
    return scan


def iter_json_records(path):
    """Yield each valid record of an append log parsed as JSON."""
    try:
        data = Path(path).read_bytes()
    except OSError:
        return
    for record in parse_log(data).records:
        try:
            yield json.loads(record)
        except ValueError:
            continue


# ----------------------------------------------------------------------
# Quarantine
# ----------------------------------------------------------------------
def quarantine_path(path) -> str:
    """Where a log's quarantined raw lines live."""
    return f"{path}{QUARANTINE_SUFFIX}"


def quarantine_records(
    path, lines, *, health: StorageHealth | None = None
) -> int:
    """Preserve corrupt raw lines next to their log (idempotent).

    Lines already present in the quarantine file are not appended
    again, so re-reading a damaged shard does not grow the quarantine
    without bound.  Returns the number of newly quarantined lines.
    """
    target = quarantine_path(path)
    existing: set[bytes] = set()
    try:
        with open(target, "rb") as handle:
            existing = set(handle.read().split(b"\n"))
    except OSError:
        pass
    fresh = [
        line for line in dict.fromkeys(lines) if line and line not in existing
    ]
    if not fresh:
        return 0
    blob = b"".join(line + b"\n" for line in fresh)
    try:
        fd = _os_open(target, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
        try:
            write_whole(fd, blob)
        finally:
            os.close(fd)
    except OSError as exc:
        record_degradation(target, exc, health)
        return 0
    warn_once(
        ("quarantine", str(path)),
        f"{len(fresh)} corrupt record(s) in {path} were quarantined to "
        f"{os.path.basename(target)}; run 'repro doctor --cache' to "
        "repair the log",
    )
    return len(fresh)


# ----------------------------------------------------------------------
# Advisory file locking
# ----------------------------------------------------------------------
def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe of another process."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, other user
        return True
    except OSError:  # pragma: no cover - platform oddities
        return False
    return True


class FileLock:
    """Advisory lock guarding one log file.

    Where ``fcntl`` exists the lock is a ``flock`` on ``<path>`` --
    released by the kernel the instant the owner dies, so it can never
    go stale; the owner pid and a heartbeat mtime are still written
    into the lock file for diagnostics.  Without ``fcntl`` (or with
    ``use_flock=False``) the lock is the *existence* of the file,
    created with ``O_EXCL``; a leftover lock whose recorded owner is
    dead **and** whose heartbeat mtime is older than ``stale_s`` is
    broken so one crashed process can never wedge a campaign forever.

    ``acquire`` never raises on contention -- it returns ``False`` at
    the timeout so callers can choose between degrading (appends
    proceed; ``O_APPEND`` framing is the real safety net) and skipping
    the operation entirely (rewrites refuse to run unlocked).
    """

    def __init__(
        self,
        path,
        *,
        stale_s: float = DEFAULT_STALE_S,
        poll_s: float = 0.01,
        use_flock: bool | None = None,
        health: StorageHealth | None = None,
    ):
        self.path = str(path)
        self.stale_s = stale_s
        self.poll_s = poll_s
        self.use_flock = (fcntl is not None) if use_flock is None else (
            bool(use_flock) and fcntl is not None
        )
        self.health = health
        self._fd: int | None = None
        self._owned = False

    @property
    def locked(self) -> bool:
        return self._fd is not None or self._owned

    # -- acquisition ---------------------------------------------------
    def acquire(self, timeout_s: float = 10.0, *, shared: bool = False) -> bool:
        """Take the lock; ``False`` when the timeout expires."""
        deadline = time.monotonic() + max(timeout_s, 0.0)
        contended = False
        while True:
            if self._try_acquire(shared):
                if self.health is not None:
                    self.health.lock_acquires += 1
                return True
            if not contended:
                contended = True
                if self.health is not None:
                    self.health.lock_contention += 1
            if time.monotonic() >= deadline:
                return False
            time.sleep(self.poll_s)

    def _metadata(self) -> bytes:
        return json.dumps(
            {"pid": os.getpid(), "time": time.time()},
            separators=(",", ":"),
        ).encode()

    def _try_acquire(self, shared: bool) -> bool:
        if self.use_flock:
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
            except OSError:
                return False
            try:
                fcntl.flock(
                    fd,
                    (fcntl.LOCK_SH if shared else fcntl.LOCK_EX)
                    | fcntl.LOCK_NB,
                )
            except OSError:
                os.close(fd)
                return False
            self._fd = fd
            if not shared:
                try:
                    os.ftruncate(fd, 0)
                    os.write(fd, self._metadata())
                except OSError:  # pragma: no cover - diagnostics only
                    pass
            return True
        # O_EXCL fallback: existence is the lock (shared degenerates
        # to exclusive -- correctness over concurrency off-POSIX).
        try:
            fd = os.open(
                self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
            )
        except FileExistsError:
            self._break_stale()
            return False
        except OSError:
            return False
        try:
            os.write(fd, self._metadata())
        except OSError:  # pragma: no cover - metadata is best-effort
            pass
        finally:
            os.close(fd)
        self._owned = True
        return True

    def _break_stale(self) -> bool:
        """Remove a fallback lock whose owner is dead and heart stopped."""
        try:
            stat = os.stat(self.path)
        except OSError:
            return True  # vanished underneath us: next attempt races it
        if time.time() - stat.st_mtime <= self.stale_s:
            return False
        pid = 0
        try:
            with open(self.path, "rb") as handle:
                meta = json.loads(handle.read() or b"{}")
            pid = int(meta.get("pid", 0))
        except (OSError, ValueError, TypeError):
            pid = 0  # unreadable metadata: stale by age alone
        if pid and _pid_alive(pid):
            return False
        try:
            os.unlink(self.path)
        except OSError:
            return False
        if self.health is not None:
            self.health.stale_locks_broken += 1
        warn_once(
            ("stale-lock", self.path),
            f"broke stale lock {self.path} (owner pid {pid or 'unknown'} "
            f"is gone and the heartbeat is older than {self.stale_s:g}s)",
        )
        return True

    def heartbeat(self) -> None:
        """Refresh the lock's mtime so holders aren't declared stale."""
        try:
            os.utime(self.path)
        except OSError:  # pragma: no cover - lock broken underneath us
            pass

    def release(self) -> None:
        """Drop the lock (idempotent)."""
        if self._fd is not None:
            try:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
            except OSError:  # pragma: no cover
                pass
            try:
                os.close(self._fd)
            except OSError:  # pragma: no cover
                pass
            self._fd = None
        if self._owned:
            self._owned = False
            try:
                os.unlink(self.path)
            except OSError:
                pass

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
def write_whole(fd: int, blob: bytes) -> None:
    """One ``os.write`` of ``blob``; a short write raises ``OSError``.

    The remainder is never written after the fact: on an ``O_APPEND``
    descriptor another appender could land between the two writes.
    """
    written = _os_write(fd, blob)
    if written != len(blob):
        raise OSError(f"short write: {written} of {len(blob)} bytes landed")


def append_record(
    path,
    *payloads: bytes,
    fsync: bool = False,
    health: StorageHealth | None = None,
    lock: bool = True,
) -> bool:
    """Append framed records with a single ``O_APPEND`` write.

    Takes the file's advisory lock *shared* (so an in-progress atomic
    rewrite cannot swap the file out between our open and our write),
    frames each payload, writes all the frames in one ``os.write`` call
    and optionally fsyncs, honouring the global policy.  Concurrent
    appenders therefore interleave only whole groups of frames, and a
    write torn by a kill loses only its incomplete last frame.  Any
    ``OSError`` (ENOSPC, EIO, read-only mounts) or short write is
    converted into a degradation record plus one deduped warning; the
    caller keeps running memory-only.  Returns ``True`` iff every
    record hit the file.
    """
    path = str(path)
    frames = b"".join(map(frame_record, payloads))
    do_fsync = resolve_fsync(fsync)
    guard = None
    try:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        if lock and fcntl is not None:
            guard = FileLock(f"{path}.lock", health=health)
            guard.acquire(timeout_s=5.0, shared=True)
        fd = _os_open(path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
        try:
            write_whole(fd, frames)
            if do_fsync:
                _os_fsync(fd)
        finally:
            os.close(fd)
        return True
    except OSError as exc:
        record_degradation(path, exc, health)
        return False
    finally:
        if guard is not None:
            guard.release()


def rewrite_log(
    path,
    payloads,
    *,
    fsync: bool = True,
    health: StorageHealth | None = None,
    timeout_s: float = 10.0,
) -> bool:
    """Atomically replace a log with freshly framed ``payloads``.

    The exclusive advisory lock is mandatory: without it a concurrent
    appender could write to the doomed inode between our rename and
    its ``open``, silently losing a record -- so an unobtainable lock
    aborts the rewrite (``False``) rather than risking one.  The new
    content is written to a same-directory temporary file, fsynced and
    ``os.replace``\\ d over the original, so readers only ever see a
    complete file.
    """
    path = str(path)
    parent = os.path.dirname(path)
    try:
        if parent:
            os.makedirs(parent, exist_ok=True)
    except OSError as exc:
        record_degradation(path, exc, health)
        return False
    guard = FileLock(f"{path}.lock", health=health)
    if not guard.acquire(timeout_s=timeout_s):
        warn_once(
            ("rewrite-contended", path),
            f"skipped rewriting {path}: could not take its lock within "
            f"{timeout_s:g}s (another process holds it)",
        )
        return False
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        blob = b"".join(frame_record(payload) for payload in payloads)
        fd = _os_open(tmp, os.O_CREAT | os.O_WRONLY | os.O_TRUNC, 0o644)
        try:
            if blob:
                write_whole(fd, blob)
            if resolve_fsync(fsync):
                _os_fsync(fd)
        finally:
            os.close(fd)
        _os_replace(tmp, path)
        return True
    except OSError as exc:
        record_degradation(path, exc, health)
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return False
    finally:
        guard.release()


# ----------------------------------------------------------------------
# Scan / repair (repro doctor --cache)
# ----------------------------------------------------------------------
@dataclass
class FileScan:
    """Audit result of one append log."""

    path: str
    records: int = 0
    legacy: int = 0
    torn: int = 0
    corrupt: int = 0
    quarantined: int = 0
    repaired: bool = False
    unreadable: str | None = None

    @property
    def clean(self) -> bool:
        """No torn, corrupt or unreadable content (legacy is fine)."""
        return not (self.torn or self.corrupt or self.unreadable)

    def describe(self) -> str:
        name = os.path.basename(self.path)
        if self.unreadable:
            return f"{name}: UNREADABLE ({self.unreadable})"
        bits = [f"{self.records} record(s)"]
        if self.legacy:
            bits.append(f"{self.legacy} legacy")
        if self.torn:
            bits.append(f"{self.torn} torn")
        if self.corrupt:
            bits.append(f"{self.corrupt} corrupt")
        if self.quarantined:
            bits.append(f"{self.quarantined} newly quarantined")
        status = "ok" if self.clean else "ISSUES"
        if self.repaired:
            status += ", repaired"
        return f"{name}: {status} ({', '.join(bits)})"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "records": self.records,
            "legacy": self.legacy,
            "torn": self.torn,
            "corrupt": self.corrupt,
            "quarantined": self.quarantined,
            "repaired": self.repaired,
            "clean": self.clean,
            "unreadable": self.unreadable,
        }


def scan_log(
    path, *, repair: bool = False, health: StorageHealth | None = None
) -> FileScan:
    """Audit one append log; optionally quarantine + rewrite it.

    With ``repair=True`` every invalid line (mid-file corruption *and*
    the torn tail -- nothing is discarded) is moved to the quarantine
    file and the log is atomically rewritten from its valid records,
    re-framing any legacy lines along the way.  Pure-legacy files with
    no damage are left untouched.
    """
    path = str(path)
    result = FileScan(path=path)
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        result.unreadable = f"{type(exc).__name__}: {exc}"
        return result
    scan = parse_log(data)
    result.records = len(scan.records)
    result.legacy = scan.legacy
    result.torn = scan.torn
    result.corrupt = len(scan.corrupt)
    if health is not None:
        health.torn_records += scan.torn
        health.legacy_records += scan.legacy
        health.quarantined_records += len(scan.corrupt)
    if repair and (scan.corrupt or scan.torn_lines):
        result.quarantined = quarantine_records(
            path, scan.corrupt + scan.torn_lines, health=health
        )
        result.repaired = rewrite_log(
            path, scan.records, fsync=True, health=health
        )
    return result


def scan_directory(
    cache_dir, *, repair: bool = True
) -> tuple[StorageHealth, list[FileScan]]:
    """Audit every append log (``*.jsonl``) under a cache directory.

    Covers both the result-cache shards and the campaign manifest(s);
    quarantine files and lock files are skipped.  Raises
    :class:`~repro.errors.ConfigError` for a missing directory so the
    CLI reports a user error (exit 2) instead of a clean scan.
    """
    directory = Path(cache_dir)
    if not directory.is_dir():
        raise ConfigError(
            f"cache directory {str(directory)!r} does not exist or is "
            "not a directory"
        )
    health = StorageHealth()
    scans = [
        scan_log(path, repair=repair, health=health)
        for path in sorted(directory.glob("*.jsonl"))
    ]
    return health, scans


def _stale_id(data: bytes, existing_id) -> str:
    """Short identity tag for preserving a foreign manifest."""
    if isinstance(existing_id, str) and existing_id:
        return existing_id[:12]
    return hashlib.sha256(data).hexdigest()[:12]
