"""End-to-end campaign service tests: dedupe, HTTP, drain, restart.

Everything runs in-process (threads, ephemeral ports) -- no
subprocesses -- so the suite stays fast and deterministic while still
exercising the real HTTP layer and the real sweep engine.
"""

from __future__ import annotations

import json
import socket
import threading
import urllib.request
from unittest import mock
from urllib.parse import urlsplit

import pytest

from repro.core.batch import NullCache, SweepRunner
from repro.errors import QuotaExceededError
from repro.service import (
    CampaignService,
    ServiceClient,
    ServiceHTTPServer,
)
from repro.service import server as server_mod
from repro.service.client import ServiceError
from repro.service.protocol import CampaignSpec, results_digest
from repro.service.scheduler import (
    DONE,
    FAILED,
    RUNNING,
    ResultsNotReadyError,
)
from repro.service.tenants import TenantQuota, TenantRegistry

#: Small but non-trivial: two machines, one model, three jobs total
#: would be 2 -- enough to observe per-job progress events.
CAMPAIGN = {
    "kind": "sweep",
    "machines": ["spacx", "simba"],
    "models": ["MobileNetV2"],
}


def direct_digest(campaign: dict) -> str:
    """The ground truth: the same campaign through a bare SweepRunner
    with no cache, no manifest, no service."""
    spec = CampaignSpec.from_dict(campaign)
    jobs, labels = spec.build_sweep_jobs()
    runner = SweepRunner(cache=NullCache(), manifest=False, budget=False)
    try:
        results = runner.run(jobs)
    finally:
        runner.close()
    tree: dict = {}
    for (model, machine), result in zip(labels, results):
        tree.setdefault(model, {})[machine] = result
    return results_digest(tree)


@pytest.fixture(scope="module")
def golden_digest():
    return direct_digest(CAMPAIGN)


@pytest.fixture()
def service(tmp_path):
    svc = CampaignService(tmp_path / "data", runner_slots=1)
    svc.start()
    yield svc
    svc.shutdown(timeout_s=60)


@pytest.fixture()
def http_service(service):
    server = ServiceHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]
    yield service, f"http://127.0.0.1:{port}"
    server.shutdown()
    server.server_close()


class TestEndToEnd:
    def test_http_submit_poll_results_digest_parity(
        self, http_service, golden_digest
    ):
        """A campaign over HTTP produces the byte-identical digest of
        a direct in-process SweepRunner run of the same jobs."""
        _, url = http_service
        client = ServiceClient(url, tenant="alice")
        assert client.healthz()["ok"] is True
        ticket = client.submit(CAMPAIGN)
        assert ticket["submission"].startswith("sub-")
        assert ticket["deduplicated"] is False
        final = client.wait(ticket["submission"], timeout_s=300)
        assert final["state"] == "done"
        assert final["digest"] == golden_digest
        payload = client.results(ticket["submission"])
        assert payload["digest"] == golden_digest
        assert set(payload["results"]["MobileNetV2"]) == {"spacx", "simba"}
        report = payload["report"]
        assert report["jobs_total"] == 2
        assert report["jobs_failed"] == 0

    def test_sweep_results_serialized_once(self, service, golden_digest):
        """The digest is taken over the dicts ``results.json`` holds,
        so each result goes through ``model_result_to_dict`` once."""
        from repro import serialization

        with mock.patch.object(
            serialization,
            "model_result_to_dict",
            wraps=serialization.model_result_to_dict,
        ) as spy:
            ticket = service.submit(CAMPAIGN, tenant="alice")
            final = service.wait(ticket["submission"], timeout_s=300)
        assert final["digest"] == golden_digest
        assert spy.call_count == 2  # one (model, machine) pair each

    def test_results_are_served_as_stored(self, http_service):
        """The ``/results`` body is the stored ``results.json`` bytes,
        identical to the parse-and-dump the route used to send."""
        service, url = http_service
        ticket = service.submit(CAMPAIGN, tenant="alice")
        sub = ticket["submission"]
        assert service.wait(sub, timeout_s=300)["state"] == "done"
        with urllib.request.urlopen(
            f"{url}/v1/campaigns/{sub}/results", timeout=30
        ) as reply:
            body = reply.read()
            assert reply.headers["Content-Type"] == "application/json"
        stored = service._campaign_dir(ticket["campaign"]) / "results.json"
        assert body == stored.read_bytes() == service.results_bytes(sub)
        assert body == json.dumps(service.results(sub)).encode()

    def test_sweep_results_tree_is_dumped_once(
        self, service, golden_digest, monkeypatch
    ):
        """The digest and ``results.json`` share one dump of the
        results tree, and the file is still byte-identical to dumping
        the whole payload with sorted keys."""
        real_dumps = json.dumps
        dumped: list = []

        def dumps(obj, *args, **kwargs):
            # The tree itself, or a payload holding it.
            if isinstance(obj, dict) and "MobileNetV2" in obj.get(
                "results", obj
            ):
                dumped.append(obj)
            return real_dumps(obj, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", dumps)
        ticket = service.submit(CAMPAIGN, tenant="alice")
        final = service.wait(ticket["submission"], timeout_s=300)
        monkeypatch.undo()
        assert final["state"] == DONE
        assert len(dumped) == 1
        stored = service._campaign_dir(ticket["campaign"]) / "results.json"
        data = stored.read_bytes()
        payload = json.loads(data)
        assert data == json.dumps(payload, sort_keys=True).encode()
        assert list(payload) == [
            "campaign", "digest", "kind", "report", "results"
        ]
        assert payload["digest"] == results_digest(payload["results"])
        assert payload["digest"] == final["digest"] == golden_digest

    def test_short_results_write_fails_the_execution(
        self, service, golden_digest, monkeypatch
    ):
        """A ``results.json`` write that lands short (a disk filling up
        mid-write) is an error, not a done campaign: the temporary file
        is removed, no truncated file replaces ``results.json``, the
        execution ends failed, and a resubmission runs it again."""
        from repro.core import store

        real_write = store._os_write

        def short_write(fd, data):
            if data.startswith(b"{"):  # the payload; store frames start "="
                return real_write(fd, data[: len(data) // 2])
            return real_write(fd, data)

        monkeypatch.setattr(store, "_os_write", short_write)
        ticket = service.submit(CAMPAIGN, tenant="alice")
        final = service.wait(ticket["submission"], timeout_s=300)
        monkeypatch.undo()
        assert final["state"] == FAILED
        assert "short write" in final["error"]
        directory = service._campaign_dir(ticket["campaign"])
        assert not (directory / "results.json").exists()
        assert not (directory / ".results.json.tmp").exists()
        with pytest.raises(ResultsNotReadyError):
            service.results(ticket["submission"])
        again = service.submit(CAMPAIGN, tenant="alice")
        rerun = service.wait(again["submission"], timeout_s=300)
        assert rerun["state"] == DONE
        assert rerun["digest"] == golden_digest
        assert service.results(again["submission"])["digest"] == golden_digest

    @pytest.mark.parametrize(
        "damage",
        [
            lambda data: data[: len(data) // 2],  # truncated
            lambda data: b"[1, 2]",  # JSON, but not an object
            None,  # missing
        ],
        ids=["truncated", "non-object", "missing"],
    )
    def test_unreadable_results_are_409(self, http_service, damage):
        service, url = http_service
        ticket = service.submit(CAMPAIGN, tenant="alice")
        sub = ticket["submission"]
        assert service.wait(sub, timeout_s=300)["state"] == "done"
        stored = service._campaign_dir(ticket["campaign"]) / "results.json"
        if damage is None:
            stored.unlink()
        else:
            stored.write_bytes(damage(stored.read_bytes()))
        with pytest.raises(ServiceError) as err:
            ServiceClient(url, tenant="alice").results(sub)
        assert err.value.status == 409
        assert "missing or unreadable" in str(err.value)
        with pytest.raises(ResultsNotReadyError):
            service.results(sub)

    def test_stream_yields_progress_then_terminal(self, http_service):
        _, url = http_service
        client = ServiceClient(url, tenant="alice")
        ticket = client.submit(CAMPAIGN)
        events = list(client.stream(ticket["submission"]))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "queued"
        assert kinds[-1] == "terminal"
        assert kinds.count("job") == 2
        assert events[-1]["state"] == "done"
        # seq numbers are dense from 0 -- the resume offset contract
        assert [event["seq"] for event in events] == list(range(len(events)))
        # ?from= skips already-seen events
        tail = list(client.stream(ticket["submission"], start=len(events) - 1))
        assert [event["seq"] for event in tail] == [len(events) - 1]

    def test_http_error_mapping(self, http_service):
        _, url = http_service
        client = ServiceClient(url, tenant="alice")
        with pytest.raises(ServiceError) as err:
            client.submit({"kind": "sweep", "machines": ["warp"], "models": ["MobileNetV2"]})
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            client.status("sub-999999")
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            client.results("sub-999999")
        assert err.value.status == 404

    @pytest.mark.parametrize("field", ["deadline_s", "max_rss_mb"])
    def test_zero_budget_is_400(self, http_service, field):
        # Refused at submission, not accepted (202) and then failed
        # inside the runner slot.
        service, url = http_service
        client = ServiceClient(url, tenant="alice")
        with pytest.raises(ServiceError) as err:
            client.submit({**CAMPAIGN, "budget": {field: 0}})
        assert err.value.status == 400
        assert field in str(err.value)
        assert service.stats()["submissions"] == 0

    def test_quota_violation_maps_to_429(self, tmp_path):
        registry = TenantRegistry(TenantQuota(max_jobs_per_campaign=1))
        svc = CampaignService(
            tmp_path / "data", runner_slots=1, registry=registry
        )
        svc.start()
        server = ServiceHTTPServer(("127.0.0.1", 0), svc)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{server.server_address[1]}",
                tenant="alice",
            )
            with pytest.raises(QuotaExceededError):
                client.submit(CAMPAIGN)  # two jobs > quota of one
        finally:
            server.shutdown()
            server.server_close()
            svc.shutdown(timeout_s=30)


class TestCrossTenantDedupe:
    def test_concurrent_identical_submissions_share_one_execution(
        self, tmp_path, golden_digest
    ):
        """Two tenants submitting the identical campaign concurrently:
        exactly one execution runs (one set of evaluations -- zero
        duplicate work), and both get digest-equal results."""
        svc = CampaignService(tmp_path / "data", runner_slots=2)
        barrier = threading.Barrier(2)
        tickets: dict = {}

        def submit(tenant: str) -> None:
            barrier.wait()
            tickets[tenant] = svc.submit(CAMPAIGN, tenant=tenant)

        threads = [
            threading.Thread(target=submit, args=(tenant,))
            for tenant in ("alice", "bob")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Submissions race before the scheduler starts: dedupe must
        # happen at admission, not execution.
        assert tickets["alice"]["campaign"] == tickets["bob"]["campaign"]
        assert len(svc._executions) == 1
        assert sorted(
            [tickets["alice"]["deduplicated"], tickets["bob"]["deduplicated"]]
        ) == [False, True]
        svc.start()
        try:
            digests = set()
            for tenant in ("alice", "bob"):
                final = svc.wait(
                    tickets[tenant]["submission"], timeout_s=300
                )
                assert final["state"] == "done"
                digests.add(final["digest"])
            assert digests == {golden_digest}
            execution = next(iter(svc._executions.values()))
            # One set of evaluations: the shared execution ran once,
            # and its report covers exactly the campaign's own jobs.
            assert execution.attempts == 1
            payload = svc.results(tickets["alice"]["submission"])
            assert payload["report"]["jobs_total"] == 2
            stats = svc.stats()["tenants"]
            assert (
                stats["alice"]["deduplicated"]
                + stats["bob"]["deduplicated"]
                == 1
            )
            # Fair-share accounting splits the shared execution.
            assert stats["alice"]["jobs_consumed"] == pytest.approx(1.0)
            assert stats["bob"]["jobs_consumed"] == pytest.approx(1.0)
        finally:
            svc.shutdown(timeout_s=60)

    def test_resubmission_after_done_returns_instantly(
        self, service, golden_digest
    ):
        first = service.submit(CAMPAIGN, tenant="alice")
        service.wait(first["submission"], timeout_s=300)
        again = service.submit(CAMPAIGN, tenant="carol")
        assert again["deduplicated"] is True
        assert again["state"] == "done"
        assert again["digest"] == golden_digest

    def test_dedupe_attach_refreshes_queued_entry(self, tmp_path):
        """A duplicate with a higher priority (or a fresh tenant) must
        update the already-queued entry, not just the execution."""
        svc = CampaignService(tmp_path / "data", runner_slots=1)
        try:
            svc.submit(CAMPAIGN, tenant="alice", priority=0)
            svc.submit(CAMPAIGN, tenant="bob", priority=3)
            (entry,) = svc._queue.snapshot()
            assert entry["priority"] == 3
            assert entry["tenants"] == ["alice", "bob"]
        finally:
            svc.shutdown(timeout_s=10)


class TestTenantAccounting:
    """Regression tests: each submission settles (releases its active
    slot, counts completed, pays fair share) exactly once."""

    #: Distinct from CAMPAIGN -- its own execution.
    OTHER = {
        "kind": "sweep",
        "machines": ["spacx"],
        "models": ["MobileNetV2"],
    }

    def test_duplicates_of_done_campaign_do_not_leak_active_slots(
        self, tmp_path
    ):
        """Resubmitting a completed campaign settles instantly and
        must never consume an active-quota slot (there is no _finish
        left to release it)."""
        registry = TenantRegistry(TenantQuota(max_active=2))
        svc = CampaignService(
            tmp_path / "data", runner_slots=1, registry=registry
        )
        svc.start()
        try:
            first = svc.submit(CAMPAIGN, tenant="alice")
            svc.wait(first["submission"], timeout_s=300)
            # Far more duplicates than max_active: every one must be
            # admitted and none may occupy a slot.
            for _ in range(5):
                again = svc.submit(CAMPAIGN, tenant="alice")
                assert again["state"] == "done"
            state = svc.registry.state("alice")
            assert state.active == 0
            assert state.completed == 6
        finally:
            svc.shutdown(timeout_s=60)

    def test_requeued_execution_settles_each_submission_once(
        self, tmp_path
    ):
        """The second _finish of a requeued execution must not
        re-release the old submissions' active slots -- that would eat
        slots belonging to the tenant's other live work."""
        svc = CampaignService(tmp_path / "data", runner_slots=1)
        # Never started: state transitions are driven by hand.
        first = svc.submit(CAMPAIGN, tenant="alice")
        execution = svc._executions[first["campaign"]]
        execution.state = RUNNING
        svc._finish(execution, FAILED, error="boom")
        assert svc.registry.state("alice").active == 0
        # An unrelated live submission whose slot must survive.
        svc.submit(self.OTHER, tenant="alice")
        assert svc.registry.state("alice").active == 1
        # The duplicate requeues the failed execution...
        again = svc.submit(CAMPAIGN, tenant="alice")
        assert again["state"] == "queued"
        assert svc.registry.state("alice").active == 2
        # ...and its next finish settles only the new submission.
        execution.state = RUNNING
        svc._finish(execution, DONE, digest="d")
        state = svc.registry.state("alice")
        assert state.active == 1
        assert state.completed == 1

    def test_restore_counts_completed_only_for_done(self, tmp_path):
        """A restart must not count FAILED submissions as completed."""
        svc = CampaignService(tmp_path / "data", runner_slots=1)
        ticket = svc.submit(CAMPAIGN, tenant="alice")
        execution = svc._executions[ticket["campaign"]]
        execution.state = RUNNING
        svc._finish(execution, FAILED, error="boom")

        restarted = CampaignService(tmp_path / "data", runner_slots=1)
        state = restarted.registry.state("alice")
        assert state.completed == 0
        assert state.active == 0
        assert restarted.status(ticket["submission"])["state"] == "failed"


class _StopAfterFirstJob(CampaignService):
    """Test double: injects the drain stop (reason ``signal``) from
    the first progress event -- deterministic stand-in for a SIGTERM
    arriving mid-campaign."""

    def _progress_callback(self, execution):
        inner = super()._progress_callback(execution)

        def on_progress(stats) -> None:
            inner(stats)
            for runner in self._runners.values():
                runner.request_stop("signal", "injected drain")

        return on_progress


class _StopOnceAfterFirstJob(CampaignService):
    """Like :class:`_StopAfterFirstJob`, but only the first progress
    event injects the stop -- so a requeued execution can run to
    completion in the same process."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._injected = False

    def _progress_callback(self, execution):
        inner = super()._progress_callback(execution)

        def on_progress(stats) -> None:
            inner(stats)
            if not self._injected:
                self._injected = True
                for runner in self._runners.values():
                    runner.request_stop("signal", "injected drain")

        return on_progress


class TestDrainAndRestart:
    def test_in_process_resume_charges_fair_share_once(
        self, tmp_path, golden_digest
    ):
        """Stop mid-campaign, requeue via a duplicate, resume in the
        same process: the tenant pays the campaign's fair share once,
        not once per attempt."""
        svc = _StopOnceAfterFirstJob(tmp_path / "data", runner_slots=1)
        svc.start()
        try:
            ticket = svc.submit(CAMPAIGN, tenant="alice")
            stopped = svc.wait(ticket["submission"], timeout_s=300)
            assert stopped["state"] == "stopped"
            state = svc.registry.state("alice")
            assert state.jobs_consumed == pytest.approx(2.0)
            again = svc.submit(CAMPAIGN, tenant="alice")
            final = svc.wait(again["submission"], timeout_s=300)
            assert final["state"] == "done"
            assert final["digest"] == golden_digest
            assert final["attempts"] == 2
            # The resume replayed cached work: no second charge, every
            # slot released, exactly one completed submission.
            assert state.jobs_consumed == pytest.approx(2.0)
            assert state.active == 0
            assert state.completed == 1
        finally:
            svc.shutdown(timeout_s=60)

    def test_drain_restart_resumes_to_identical_digest(
        self, tmp_path, golden_digest
    ):
        """Kill mid-campaign (after one job), restart on the same data
        dir: the execution restores as queued, resumes from its
        manifest (first job replayed, not recomputed) and lands on the
        exact direct-runner digest."""
        svc = _StopAfterFirstJob(tmp_path / "data", runner_slots=1)
        svc.start()
        ticket = svc.submit(CAMPAIGN, tenant="alice")
        stopped = svc.wait(ticket["submission"], timeout_s=300)
        assert stopped["state"] == "stopped"
        assert stopped["outcome"]["stop_reason"] == "signal"
        assert stopped["outcome"]["done"] == 1
        with pytest.raises(ResultsNotReadyError):
            svc.results(ticket["submission"])
        interrupted = svc.shutdown(timeout_s=60)
        assert interrupted == 1

        restarted = CampaignService(tmp_path / "data", runner_slots=1)
        status = restarted.status(ticket["submission"])
        assert status["state"] == "queued"
        # Progress restored from the append-only manifest.
        assert status["events"] >= 2  # header + the one done job
        restarted.start()
        try:
            final = restarted.wait(ticket["submission"], timeout_s=300)
            assert final["state"] == "done"
            assert final["digest"] == golden_digest
            payload = restarted.results(ticket["submission"])
            assert payload["report"]["jobs_resumed"] == 1
            assert payload["report"]["jobs_total"] == 2
        finally:
            assert restarted.shutdown(timeout_s=60) == 0

    def test_idle_drain_reports_zero_interrupted(self, tmp_path):
        svc = CampaignService(tmp_path / "data", runner_slots=1)
        svc.start()
        ticket = svc.submit(CAMPAIGN, tenant="alice")
        svc.wait(ticket["submission"], timeout_s=300)
        assert svc.shutdown(timeout_s=60) == 0
        with pytest.raises(RuntimeError):
            svc.submit(CAMPAIGN, tenant="alice")

    def test_restart_preserves_terminal_results(self, tmp_path):
        svc = CampaignService(tmp_path / "data", runner_slots=1)
        svc.start()
        ticket = svc.submit(CAMPAIGN, tenant="alice")
        done = svc.wait(ticket["submission"], timeout_s=300)
        svc.shutdown(timeout_s=60)

        restarted = CampaignService(tmp_path / "data", runner_slots=1)
        status = restarted.status(ticket["submission"])
        assert status["state"] == "done"
        assert status["digest"] == done["digest"]
        payload = restarted.results(ticket["submission"])
        assert payload["digest"] == done["digest"]
        # No runner threads were even started -- results came straight
        # from the ledger + persisted payload.
        restarted.shutdown(timeout_s=10)


class TestOtherKinds:
    def test_faults_campaign_round_trip(self, service):
        ticket = service.submit(
            {
                "kind": "faults",
                "model": "MobileNetV2",
                "samples": 4,
                "rates": [0.001],
                "chiplets": 4,
                "pes_per_chiplet": 4,
            },
            tenant="alice",
        )
        final = service.wait(ticket["submission"], timeout_s=300)
        assert final["state"] == "done"
        payload = service.results(ticket["submission"])
        assert payload["kind"] == "faults"
        assert len(payload["points"]) == 3  # three machines x one rate
        # Payload is strict JSON end to end.
        json.dumps(payload)

    def test_search_campaign_round_trip(self, service):
        ticket = service.submit(
            {"kind": "search", "space": "tiny", "strategy": "exhaustive"},
            tenant="alice",
        )
        final = service.wait(ticket["submission"], timeout_s=300)
        assert final["state"] == "done"
        payload = service.results(ticket["submission"])
        assert payload["kind"] == "search"
        assert payload["result"]["best"] is not None


class TestGridPlan:
    #: simba and popstar share one grid family: the auto planner must
    #: serve their four jobs through the 2-D megabatch kernel (spacx
    #: is a lone family and stays on the per-machine path).
    DENSE_CAMPAIGN = {
        "kind": "sweep",
        "machines": ["spacx", "simba", "popstar"],
        "models": ["MobileNetV2", "ResNet-50"],
    }

    def test_dense_sweep_is_served_by_the_grid_plan(self, http_service):
        _, url = http_service
        client = ServiceClient(url, tenant="alice")
        ticket = client.submit(self.DENSE_CAMPAIGN)
        final = client.wait(ticket["submission"], timeout_s=300)
        assert final["state"] == "done"

        # The service's grid-planned digest matches a forced-serial
        # in-process run bit for bit.
        spec = CampaignSpec.from_dict(self.DENSE_CAMPAIGN)
        jobs, labels = spec.build_sweep_jobs()
        runner = SweepRunner(
            cache=NullCache(), manifest=False, budget=False,
            exec_plan="serial",
        )
        try:
            results = runner.run(jobs)
        finally:
            runner.close()
        tree: dict = {}
        for (model, machine), result in zip(labels, results):
            tree.setdefault(model, {})[machine] = result
        assert final["digest"] == results_digest(tree)

        # The campaign report records the grid decisions and lanes.
        payload = client.results(ticket["submission"])
        plan = payload["report"]["plan"]
        grid_decisions = [
            decision for decision in plan["decisions"]
            if decision["plan"] == "grid"
        ]
        # One per machine family: spacx alone, simba with popstar.
        assert len(grid_decisions) == 2, plan
        assert plan["grid_lanes"] > 0
        assert not plan["grid_fallbacks"]

        # /v1/stats surfaces the slot's plan choices and lane counts.
        stats = client.stats()
        slots = stats["slots"]
        assert any(
            slot["grid_lanes"] > 0
            and any(line.startswith("grid") for line in slot["plan"])
            for slot in slots.values()
        ), slots


def _raw_post(url: str, headers: str, body: bytes = b"") -> tuple:
    """POST hand-written headers over a raw socket; read the reply until
    the server hangs up.  Returns ``(status, headers, json body)``; a
    server that never answers or never closes times the read out."""
    parts = urlsplit(url)
    request = (
        "POST /v1/campaigns HTTP/1.1\r\n"
        f"Host: {parts.hostname}\r\n{headers}\r\n"
    ).encode() + body
    with socket.create_connection(
        (parts.hostname, parts.port), timeout=10.0
    ) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, payload = reply.partition(b"\r\n\r\n")
    assert head, "the server hung up without answering"
    status_line, *lines = head.decode().split("\r\n")
    fields = {
        name.lower(): value.strip()
        for name, _, value in (line.partition(":") for line in lines)
    }
    return int(status_line.split()[1]), fields, json.loads(payload)


class TestHTTPBoundary:
    """A malformed or oversized ``Content-Length`` and a stalled body
    each get an error reply and a closed connection -- never an
    escaped exception, a giant read or a pinned handler thread."""

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_length_is_400(self, http_service, length):
        _, url = http_service
        status, fields, body = _raw_post(url, f"Content-Length: {length}\r\n")
        assert status == 400
        assert "Content-Length" in body["error"]
        assert fields["connection"] == "close"

    def test_oversized_length_is_413_without_reading(self, http_service):
        _, url = http_service
        status, fields, body = _raw_post(
            url, "Content-Length: 99999999999\r\n"
        )
        assert status == 413
        assert str(server_mod.MAX_BODY_BYTES) in body["error"]
        assert fields["connection"] == "close"

    def test_stalled_body_is_408(self, http_service, monkeypatch):
        monkeypatch.setattr(server_mod._Handler, "timeout", 0.5)
        _, url = http_service
        status, fields, body = _raw_post(
            url, "Content-Length: 1000\r\n", b"{}"
        )
        assert status == 408
        assert "not received" in body["error"]
        assert fields["connection"] == "close"


def test_finished_campaigns_leave_no_cache_keys(tmp_path):
    """A long-lived service builds fresh simulators per campaign; their
    cache keys live in each simulator's memo entry, so once ten
    campaigns have finished on two runner slots none of their
    simulators -- and so none of their keys -- is still alive."""
    import gc
    import weakref

    built: list = []
    build = CampaignSpec.build_sweep_jobs

    def recording(spec):
        jobs, labels = build(spec)
        built.extend(weakref.ref(job.simulator) for job in jobs)
        return jobs, labels

    service = CampaignService(tmp_path / "data", runner_slots=2)
    with mock.patch.object(CampaignSpec, "build_sweep_jobs", recording):
        service.start()
        try:
            tickets = [
                service.submit(
                    {
                        "kind": "sweep",
                        "machines": ["spacx", "simba"],
                        "models": ["MobileNetV2"],
                        "batch": batch_size,
                    },
                    tenant="alice",
                )
                for batch_size in range(1, 11)
            ]
            for ticket in tickets:
                final = service.wait(ticket["submission"], timeout_s=300)
                assert final["state"] == DONE
            gc.collect()
            assert len(built) == 20
            assert [ref for ref in built if ref() is not None] == []
        finally:
            service.shutdown(timeout_s=60)
