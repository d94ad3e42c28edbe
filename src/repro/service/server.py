"""The stdlib HTTP/JSON front of the campaign service.

``http.server.ThreadingHTTPServer`` -- one thread per connection, no
dependencies -- over the :class:`~repro.service.scheduler.CampaignService`.
The API surface (all JSON):

========  ===============================  ====================================
method    path                             meaning
========  ===============================  ====================================
GET       ``/healthz``                     liveness (also reports draining)
GET       ``/v1/stats``                    queue / tenants / executions summary
POST      ``/v1/campaigns``                submit a campaign spec
GET       ``/v1/campaigns``                list submissions (``?tenant=`` filter)
GET       ``/v1/campaigns/<sub>``          one submission's status
GET       ``/v1/campaigns/<sub>/results``  the persisted results payload
GET       ``/v1/campaigns/<sub>/stream``   chunked NDJSON progress events
========  ===============================  ====================================

The tenant is the ``X-Repro-Tenant`` header (or ``"tenant"`` in the
POST body; header wins), defaulting to ``anonymous``.  Error mapping
is uniform: invalid campaign or malformed ``Content-Length`` -> 400,
unknown submission -> 404, body not received within
:data:`REQUEST_TIMEOUT_S` -> 408, results not ready -> 409, body over
:data:`MAX_BODY_BYTES` -> 413, quota violation -> 429, draining ->
503; every error body is ``{"error": ...}``.  After a 400 for a
malformed length, a 408 or a 413 the server closes the connection:
the body was not read, so the stream cannot carry another request.

``/stream`` long-polls the scheduler's event list and writes each
event as one NDJSON line in a chunked response (``?from=N`` skips
already-seen events), closing when the execution reaches a terminal
state -- the poll interval only bounds how quickly a closed stream
notices a drain, not event latency.

:func:`serve_forever` is the ``repro serve`` body: it installs the
two-stage :class:`~repro.core.budget.GracefulDrain`, serves until the
first SIGINT/SIGTERM, drains the scheduler, and returns the CLI exit
code -- 0 for a clean idle shutdown, 3 (``EXIT_BUDGET_STOPPED``) when
interrupted campaigns remain resumable on disk.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from ..core.budget import GracefulDrain, global_stop
from ..errors import (
    EXIT_BUDGET_STOPPED,
    EXIT_OK,
    ConfigError,
    QuotaExceededError,
)
from .scheduler import CampaignService, ResultsNotReadyError

__all__ = ["ServiceHTTPServer", "serve_forever"]

logger = logging.getLogger(__name__)

#: Longest single long-poll inside a /stream response; bounds how long
#: a quiet stream holds the scheduler condition before re-checking for
#: drain/disconnect.
_STREAM_POLL_S = 2.0

#: Largest request body read (413 above it, unread).  A campaign spec
#: the protocol accepts is a few KiB.
MAX_BODY_BYTES = 1 << 20

#: Socket timeout of every connection: a client that stalls this long
#: mid-body gets a 408 instead of pinning a handler thread.
REQUEST_TIMEOUT_S = 30.0


class _BodyError(Exception):
    """A request body refused before it was fully read."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service reference."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service: CampaignService):
        super().__init__(address, _Handler)
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-service/1"
    # HTTP/1.1 enables keep-alive and chunked transfer for /stream.
    protocol_version = "HTTP/1.1"
    timeout = REQUEST_TIMEOUT_S

    # -- plumbing -------------------------------------------------------
    @property
    def service(self) -> CampaignService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:
        logger.debug("%s - %s", self.address_string(), format % args)

    def _send_json(self, status: int, payload) -> None:
        self._send_bytes(status, json.dumps(payload).encode())

    def _send_bytes(self, status: int, body: bytes) -> None:
        """Send an encoded JSON body as it is."""
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _tenant(self, body: dict | None = None) -> str:
        header = self.headers.get("X-Repro-Tenant")
        if header:
            return header.strip()
        if body and isinstance(body.get("tenant"), str):
            return body["tenant"]
        return "anonymous"

    def _read_body(self) -> dict:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            raise _BodyError(
                400,
                "Content-Length must be a non-negative integer, "
                f"got {header[:32]!r}",
            )
        if length > MAX_BODY_BYTES:
            raise _BodyError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        if length == 0:
            raise ConfigError("request body required")
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            raise _BodyError(
                408,
                f"request body not received within {self.timeout:g}s",
            ) from None
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"request body is not valid JSON: {exc}")
        if not isinstance(body, dict):
            raise ConfigError("request body must be a JSON object")
        return body

    # -- routes ---------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 -- http.server API
        url = urlsplit(self.path)
        parts = [part for part in url.path.split("/") if part]
        query = parse_qs(url.query)
        try:
            if parts == ["healthz"]:
                self._send_json(
                    200,
                    {"ok": True, "draining": self.service.draining},
                )
            elif parts == ["v1", "stats"]:
                self._send_json(200, self.service.stats())
            elif parts == ["v1", "campaigns"]:
                tenant = query.get("tenant", [None])[0]
                self._send_json(
                    200,
                    {"submissions": self.service.list_submissions(tenant)},
                )
            elif len(parts) == 3 and parts[:2] == ["v1", "campaigns"]:
                self._send_json(200, self.service.status(parts[2]))
            elif (
                len(parts) == 4
                and parts[:2] == ["v1", "campaigns"]
                and parts[3] == "results"
            ):
                self._send_bytes(200, self.service.results_bytes(parts[2]))
            elif (
                len(parts) == 4
                and parts[:2] == ["v1", "campaigns"]
                and parts[3] == "stream"
            ):
                start = int(query.get("from", ["0"])[0])
                self._stream(parts[2], start)
            else:
                self._error(404, f"no route for GET {url.path}")
        except KeyError as exc:
            self._error(404, str(exc.args[0]) if exc.args else "not found")
        except ResultsNotReadyError as exc:
            self._error(409, str(exc))
        except ValueError as exc:
            self._error(400, str(exc))
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream

    def do_POST(self) -> None:  # noqa: N802 -- http.server API
        url = urlsplit(self.path)
        parts = [part for part in url.path.split("/") if part]
        try:
            if parts == ["v1", "campaigns"]:
                body = self._read_body()
                tenant = self._tenant(body)
                priority = body.pop("priority", 0)
                body.pop("tenant", None)
                if not isinstance(priority, int) or isinstance(
                    priority, bool
                ):
                    raise ConfigError("'priority' must be an integer")
                ticket = self.service.submit(
                    body, tenant=tenant, priority=priority
                )
                self._send_json(202, ticket)
            else:
                self._error(404, f"no route for POST {url.path}")
        except _BodyError as exc:
            self.close_connection = True
            self._error(exc.status, str(exc))
        except ConfigError as exc:
            self._error(400, str(exc))
        except QuotaExceededError as exc:
            self._error(429, str(exc))
        except RuntimeError as exc:
            self._error(503, str(exc))

    # -- streaming ------------------------------------------------------
    def _write_chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):x}\r\n".encode() + data + b"\r\n")

    def _stream(self, submission_id: str, start: int) -> None:
        service = self.service
        # Resolve before committing to a 200: unknown ids must 404.
        service.status(submission_id)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        seq = start
        try:
            while True:
                events, finished = service.events_since(
                    submission_id, seq, wait_s=_STREAM_POLL_S
                )
                for event in events:
                    self._write_chunk(
                        json.dumps(event, sort_keys=True).encode() + b"\n"
                    )
                seq += len(events)
                if events:
                    self.wfile.flush()
                if (finished and not events) or service.draining:
                    break
        finally:
            self._write_chunk(b"")  # terminating chunk
            self.wfile.flush()


def serve_forever(
    service: CampaignService,
    *,
    host: str = "127.0.0.1",
    port: int = 8023,
    poll_s: float = 0.2,
    ready: "threading.Event | None" = None,
) -> int:
    """Run the HTTP service until SIGINT/SIGTERM, then drain.

    Blocks the calling thread.  ``ready`` (if given) is set once the
    socket is bound and accepting -- tests and the CI job use it
    instead of sleeping.  Returns the process exit code: ``EXIT_OK``
    after an idle drain, ``EXIT_BUDGET_STOPPED`` when interrupted
    campaigns remain resumable in the service's data directory.
    """
    server = ServiceHTTPServer((host, port), service)
    service.start()
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": poll_s},
        name="repro-http",
        daemon=True,
    )
    with GracefulDrain():
        thread.start()
        logger.info(
            "serving on http://%s:%d (data: %s)",
            host,
            port,
            service.data_dir,
        )
        if ready is not None:
            ready.set()
        try:
            while global_stop() is None:
                time.sleep(poll_s)
        except KeyboardInterrupt:
            pass  # drain below either way
        logger.info("drain requested; stopping scheduler")
        interrupted = service.shutdown()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
    logger.info(
        "drained: %d interrupted campaign(s) left resumable", interrupted
    )
    return EXIT_BUDGET_STOPPED if interrupted else EXIT_OK
