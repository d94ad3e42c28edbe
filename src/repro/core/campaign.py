"""Campaign manifests: checkpointed, resumable sweep runs.

A *campaign* is one ordered job list handed to
:meth:`repro.core.batch.SweepRunner.run`.  The manifest is a small
append-only JSONL file written alongside the disk result cache:

* a **header** line pins the manifest schema and a campaign id (the
  SHA-256 of the ordered per-job content keys), so a manifest can
  never be replayed against a *different* campaign;
* one **event** line per completed or failed job, flushed as the job
  finishes, so a campaign killed mid-run (SIGKILL included) keeps an
  exact record of what was already done.

Resume semantics are deliberately conservative: the manifest never
stores results itself.  Completed jobs are *replayed* through the
content-addressed result cache (:class:`repro.core.batch.ResultCache`)
on resume -- served from disk when the cache directory survived, or
recomputed when it did not.  Either way the analytical models are
pure functions of the job key, so a resumed campaign is byte-identical
to an uninterrupted run; the manifest only decides which jobs may skip
the (parallel) execution machinery and how progress is reported.

Storage goes through :mod:`repro.core.store`: every line is a framed
(CRC32 + length) record appended with a single ``O_APPEND`` write and
fsynced, so concurrent writers cannot interleave partial lines and a
kill mid-append leaves a detectable torn tail instead of a corrupt
ledger.  Unframed lines from pre-store manifests are still accepted
on resume.  Starting fresh never silently clobbers a *different*
campaign's ledger: a non-matching ``campaign.jsonl`` is preserved as
``campaign.jsonl.stale-<id12>`` with a warning first, so a mistyped
``--cache-dir`` cannot destroy another run's resume state.  Write
failures (full disk, read-only mounts) degrade the manifest to
in-memory operation with one :class:`~repro.errors.ReproWarning` per
path, tracked in :attr:`CampaignManifest.health`.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from . import store

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (batch imports us lazily)
    from .batch import JobFailure, SweepJob

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "MANIFEST_FILENAME",
    "model_content_key",
    "job_content_key",
    "read_manifest_events",
    "CampaignManifest",
]

#: Bump when the manifest layout changes; stale manifests are ignored.
MANIFEST_SCHEMA_VERSION = 1

#: Default manifest file name inside a cache directory.
MANIFEST_FILENAME = "campaign.jsonl"


def model_content_key(model) -> str:
    """Stable content hash of a workload (name + every layer shape)."""
    payload = "|".join(
        [model.name] + [repr(layer.shape_key) for layer in model.all_layers]
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def job_content_key(job: "SweepJob") -> str:
    """Stable content hash of one sweep job.

    Folds the simulator fingerprint (spec + energy-model state), the
    model content and the simulation mode, so a manifest entry can
    only ever mark *this* exact job as done.
    """
    from .batch import simulator_fingerprint

    payload = (
        f"{simulator_fingerprint(job.simulator)}"
        f"|{model_content_key(job.model)}"
        f"|{int(bool(job.layer_by_layer))}"
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def read_manifest_events(path: str | Path) -> list[dict]:
    """Tail a campaign manifest into its ordered event dictionaries.

    Read-only companion to :class:`CampaignManifest` for observers
    that are *not* the runner writing the ledger -- the campaign
    service's progress-streaming endpoint polls this to turn the
    append-only ``campaign.jsonl`` into incremental NDJSON events, and
    a restarted service uses it to report how far a killed campaign
    had progressed before re-queueing it.

    Returns the header first (``{"event": "header", "schema": ...,
    "campaign": ..., "jobs": N}``) followed by every well-formed
    ``done`` / ``failed`` / ``quarantined`` event in append order.  A
    torn final record (the writer may be mid-append right now) is
    silently skipped, exactly like the resume path; a missing or empty
    manifest yields ``[]``.
    """
    path = Path(path)
    if path.suffix != ".jsonl":
        path = path / MANIFEST_FILENAME
    try:
        data = path.read_bytes()
    except OSError:
        return []
    scan = store.parse_log(data)
    events: list[dict] = []
    for position, line in enumerate(scan.records):
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not isinstance(payload, dict):
            continue
        if position == 0:
            if "campaign" in payload:
                events.append({"event": "header", **payload})
            continue
        if payload.get("event") in ("done", "failed", "quarantined"):
            events.append(payload)
    return events


class CampaignManifest:
    """Append-only completion ledger for one sweep campaign.

    ``path`` may be a directory (the manifest lives at
    ``<path>/campaign.jsonl``, next to the cache shards) or an explicit
    ``*.jsonl`` file path.
    """

    def __init__(self, path: str | Path):
        path = Path(path)
        if path.suffix == ".jsonl":
            self.path = path
        else:
            self.path = path / MANIFEST_FILENAME
        self.campaign_id: str | None = None
        self.resumed = False
        self.health = store.StorageHealth()
        self._keys: list[str] = []
        self._done: set[int] = set()
        self._failed: set[int] = set()
        self._quarantined: set[int] = set()

    # -- lifecycle -----------------------------------------------------
    def begin(
        self,
        jobs: Sequence["SweepJob"],
        *,
        resume: bool = False,
        retry_quarantined: bool = False,
    ) -> None:
        """Bind the manifest to a job list; load prior state on resume.

        Without ``resume`` (or when the on-disk manifest belongs to a
        different campaign or schema) the file is started fresh and
        every job counts as pending.  ``retry_quarantined`` makes jobs
        quarantined by a *prior* run eligible again on resume (their
        quarantine records stay in the ledger; a later success simply
        supersedes them).
        """
        self._keys = [job_content_key(job) for job in jobs]
        self.campaign_id = hashlib.sha256(
            "|".join(self._keys).encode()
        ).hexdigest()
        self._done = set()
        self._failed = set()
        self._quarantined = set()
        self.resumed = False
        if resume and self._load_existing():
            self.resumed = True
            if retry_quarantined:
                self._quarantined = set()
            return
        self._start_fresh()

    def _load_existing(self) -> bool:
        """Parse a prior manifest; ``True`` iff it matches this campaign."""
        try:
            data = self.path.read_bytes()
        except OSError:
            return False
        scan = store.parse_log(data)
        self.health.torn_records += scan.torn
        self.health.legacy_records += scan.legacy
        if scan.corrupt:
            self.health.quarantined_records += len(scan.corrupt)
            store.quarantine_records(str(self.path), scan.corrupt)
        if not scan.records:
            return False
        try:
            header = json.loads(scan.records[0])
        except json.JSONDecodeError:
            return False
        if (
            not isinstance(header, dict)
            or header.get("schema") != MANIFEST_SCHEMA_VERSION
            or header.get("campaign") != self.campaign_id
        ):
            return False
        for line in scan.records[1:]:
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue  # unparseable record (should not survive framing)
            if not isinstance(event, dict):
                continue
            index = event.get("index")
            if (
                not isinstance(index, int)
                or not 0 <= index < len(self._keys)
                or event.get("key") != self._keys[index]
            ):
                continue  # stale / reordered entry: ignore
            if event.get("event") == "done":
                self._done.add(index)
                self._failed.discard(index)
                self._quarantined.discard(index)
            elif event.get("event") == "failed":
                self._failed.add(index)
            elif event.get("event") == "quarantined":
                self._failed.add(index)
                self._quarantined.add(index)
        return True

    def _start_fresh(self) -> None:
        header = json.dumps(
            {
                "schema": MANIFEST_SCHEMA_VERSION,
                "campaign": self.campaign_id,
                "jobs": len(self._keys),
            },
            separators=(",", ":"),
        ).encode()
        self._preserve_foreign()
        # Atomic header write (tmp + os.replace under the exclusive
        # lock): a reader never sees a half-started manifest, and a
        # same-campaign restart replaces its own ledger in one step.
        store.rewrite_log(str(self.path), [header], health=self.health)

    def _preserve_foreign(self) -> None:
        """Move aside an existing manifest from a *different* campaign.

        Restarting the *same* campaign without ``--resume`` rewrites its
        own ledger silently (that is an explicit user choice), but a
        ledger bound to another campaign id -- typically a mistyped
        ``--cache-dir`` -- is renamed to ``campaign.jsonl.stale-<id12>``
        and warned about, never destroyed.
        """
        try:
            data = self.path.read_bytes()
        except OSError:
            return
        if not data.strip():
            return
        existing_id = None
        scan = store.parse_log(data)
        if scan.records:
            try:
                header = json.loads(scan.records[0])
                if isinstance(header, dict):
                    existing_id = header.get("campaign")
            except json.JSONDecodeError:
                pass
        if existing_id == self.campaign_id:
            return
        stale_id = store._stale_id(data, existing_id)
        target = self.path.with_name(f"{self.path.name}.stale-{stale_id}")
        try:
            os.replace(self.path, target)
        except OSError as exc:
            store.record_degradation(str(self.path), exc, self.health)
            return
        store.warn_once(
            ("stale-manifest", str(target)),
            f"existing manifest {self.path} belongs to a different "
            f"campaign; preserved as {target.name} instead of "
            "overwriting it (check your --cache-dir)",
        )

    # -- event log -----------------------------------------------------
    def _append(self, event: dict) -> None:
        # Framed single-write O_APPEND append via the store layer;
        # bookkeeping failures degrade to memory with one warning per
        # path instead of taking the campaign down.
        try:
            payload = json.dumps(event, separators=(",", ":")).encode()
        except (TypeError, ValueError) as exc:
            store.record_degradation(str(self.path), exc, self.health)
            return
        store.append_record(
            str(self.path), payload, fsync=True, health=self.health
        )

    def mark_done(self, index: int) -> None:
        """Record one job as completed (idempotent), flushed to disk."""
        if index in self._done:
            return
        self._done.add(index)
        self._failed.discard(index)
        self._quarantined.discard(index)
        self._append(
            {"event": "done", "index": index, "key": self._keys[index]}
        )

    def mark_failed(self, index: int, failure: "JobFailure | None" = None) -> None:
        """Record one job as failed (kept pending for a future resume)."""
        self._failed.add(index)
        event = {"event": "failed", "index": index, "key": self._keys[index]}
        if failure is not None:
            event["error"] = f"{failure.error_type}: {failure.message}"
            event["attempts"] = failure.attempts
        self._append(event)

    def mark_quarantined(
        self, index: int, failure: "JobFailure | None" = None
    ) -> None:
        """Record one job as quarantined poison (a distinct entry kind).

        Unlike ``failed``, a quarantined job is *not* re-attempted on a
        plain ``--resume``; it takes an explicit ``--retry-quarantined``
        to make it eligible again.
        """
        self._failed.add(index)
        self._quarantined.add(index)
        event = {
            "event": "quarantined",
            "index": index,
            "key": self._keys[index],
        }
        if failure is not None:
            event["error"] = f"{failure.error_type}: {failure.message}"
            event["attempts"] = failure.attempts
        self._append(event)

    # -- queries -------------------------------------------------------
    def is_done(self, index: int) -> bool:
        """Whether the job at ``index`` completed in this campaign."""
        return index in self._done

    def is_quarantined(self, index: int) -> bool:
        """Whether the job at ``index`` is quarantined as poison."""
        return index in self._quarantined

    @property
    def total_jobs(self) -> int:
        """Number of jobs in the bound campaign."""
        return len(self._keys)

    @property
    def completed(self) -> int:
        """Number of jobs recorded as done."""
        return len(self._done)

    @property
    def failed(self) -> int:
        """Number of jobs whose latest record is a failure."""
        return len(self._failed)

    @property
    def quarantined(self) -> int:
        """Number of jobs quarantined as poison."""
        return len(self._quarantined)

    def summary(self) -> str:
        """One-line campaign progress description."""
        state = "resumed" if self.resumed else "fresh"
        text = (
            f"campaign {(self.campaign_id or 'unbound')[:12]} ({state}): "
            f"{self.completed}/{self.total_jobs} done, {self.failed} failed"
        )
        if self._quarantined:
            text += f" ({len(self._quarantined)} quarantined)"
        return text
