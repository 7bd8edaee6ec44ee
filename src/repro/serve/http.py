"""The stdlib HTTP skin over :class:`~repro.serve.service.QueryService`.

``ThreadingHTTPServer`` gives one thread per connection; every thread
shares one :class:`QueryService` (hence one index cache and one graph
store), which is exactly the concurrency shape the cache was built for.
No dependencies beyond the standard library.

Routes (all JSON unless negotiated otherwise)::

    POST /v1/test       {graph spec, "query", "tuple"}       -> {"value": bool}
    POST /v1/next       {graph spec, "query", "tuple"}       -> {"solution": [...]|null}
    POST /v1/enumerate  {graph spec, "query", "cursor"?, "cursor_version"?,
                         "limit"?}   -> {"items": [...], "next_cursor"}
                                        (409 StaleCursor when cursor_version
                                         no longer matches the index)
    POST /v1/count      {graph spec, "query"}                -> {"count": int}
    POST /v1/explain    {"query"}                            -> {"decomposable": ...}
    POST /v1/update     {graph spec, "query", "op": "insert"|"delete",
                         "edge": [u, v]}         -> {"applied", "version"}
    POST /v1/batch      {graph spec, "query", "calls": [{"op", "tuple"} |
                         {"op": "update", "action", "edge"}, ...]}
                                                 -> {"results": [...]}
    GET  /metrics       registry dump + cache stats (JSON), or Prometheus
                        text exposition via ``Accept: text/plain`` /
                        ``?format=prom``
    GET  /v1/traces     recent request traces; ``?trace_id=`` for one tree
    GET  /v1/export     mergeable metrics/watchdog wire format (pool fan-in)
    GET  /v1/profile    sampling-profiler run (``?seconds=&hz=``), collapsed stacks
    GET  /v1/stats      knobs + cache occupancy (+ watchdog state)
    GET  /healthz       liveness

Every response is ``{"ok": true, ...}`` or
``{"ok": false, "error": {"type", "message"}}`` with a matching status
code; input problems are 400/503, never 500s with tracebacks.

**Request tracing.** Every request is assigned a trace id — a valid
inbound ``X-Trace-Id`` header is honored, otherwise one is generated —
and the id is returned on the response.  Span *recording* happens when
the client sent ``X-Trace-Id`` explicitly (an opt-in) or the request won
the ``trace_sample`` coin flip; recorded traces land in the server's
:class:`~repro.trace.buffer.TraceBuffer`, readable at ``/v1/traces``.
A valid ``X-Parent-Span`` header (set by the pool's routing parent)
parents the request's root span under that remote span, so the pool
parent's ``/v1/traces`` can stitch one cross-process tree.
A :class:`~repro.trace.watchdog.Watchdog`, when configured, consumes the
recorded enumeration-step spans live.
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import random
import re
import time
from collections.abc import Iterator
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
import socket
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro import __version__
from repro.errors import ReproError
from repro.metrics.prometheus import CONTENT_TYPE as _PROM_CONTENT_TYPE
from repro.metrics.prometheus import flatten_gauges, render_prometheus
from repro.metrics.runtime import active as _metrics_active
from repro.metrics.runtime import observe as _metrics_observe
from repro.serve.service import QueryService, ServeError
from repro.trace.buffer import DEFAULT_CAPACITY, TraceBuffer
from repro.trace.core import new_trace_id
from repro.trace.logging import log_event
from repro.trace.profiler import DEFAULT_HZ, MAX_PROFILE_SECONDS, profile_for
from repro.trace.runtime import annotate as _trace_annotate
from repro.trace.runtime import tracing
from repro.trace.watchdog import Watchdog

logger = logging.getLogger("repro.serve")

#: Accepted inbound ``X-Trace-Id`` values (hex, 8-64 chars).
_TRACE_ID_RE = re.compile(r"^[0-9a-fA-F]{8,64}$")

#: Reject request bodies larger than this (a graph belongs in a file or a
#: generator family, not a megabyte of inline JSON — tune via create_server).
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024

_POST_ROUTES = {
    "/v1/test": "handle_test",
    "/v1/next": "handle_next",
    "/v1/enumerate": "handle_enumerate",
    "/v1/count": "handle_count",
    "/v1/explain": "handle_explain",
    "/v1/update": "handle_update",
    "/v1/batch": "handle_batch",
}


def read_request_body(
    handler: BaseHTTPRequestHandler, max_body_bytes: int
) -> bytes:
    """Read and return one request body, keep-alive-safely.

    Raises :class:`~repro.serve.service.BadRequest` on a missing, invalid,
    negative or oversized ``Content-Length``.  On every path that leaves
    body bytes unread (including a short read from a lying client), the
    connection is marked ``close_connection`` first — replying 400 and
    then reusing the socket would make the parser treat the unread body
    as the next request line, corrupting every later request on that
    connection.  A negative length is rejected outright: ``rfile.read(-5)``
    reads until EOF, pinning the thread until the request timeout.
    """
    from repro.serve.service import BadRequest

    length_header = handler.headers.get("Content-Length")
    try:
        length = int(length_header or "")
    except ValueError:
        handler.close_connection = True
        raise BadRequest("missing or invalid Content-Length header") from None
    if length < 0:
        handler.close_connection = True
        raise BadRequest(
            f"Content-Length must be non-negative, got {length}"
        ) from None
    if length > max_body_bytes:
        handler.close_connection = True
        raise BadRequest(
            f"request body of {length} bytes exceeds the "
            f"{max_body_bytes}-byte cap"
        )
    body = handler.rfile.read(length)
    if len(body) != length:
        # client hung up (or lied about the length) mid-body; the stream
        # position is unknowable, so the connection cannot be reused
        handler.close_connection = True
        raise BadRequest(
            f"request body truncated: Content-Length promised {length} "
            f"bytes, got {len(body)}"
        )
    return body


@contextlib.contextmanager
def hold_response(handler: BaseHTTPRequestHandler) -> Iterator[None]:
    """Buffer everything ``handler`` writes back until the block exits.

    A traced request's trace enters the trace buffer only after its root
    span closes, which is after the handler has written the response.
    Holding the bytes until the trace is buffered means a client that
    has read the response always finds the trace at ``/v1/traces``.
    """
    wfile, handler.wfile = handler.wfile, io.BytesIO()
    try:
        yield
    finally:
        held, handler.wfile = handler.wfile, wfile
        try:
            wfile.write(held.getvalue())
        except (BrokenPipeError, ConnectionResetError):  # client went away
            handler.close_connection = True


class RequestHandler(BaseHTTPRequestHandler):
    """One request; the class attributes are filled in by create_server."""

    service: QueryService
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    trace_buffer: TraceBuffer | None = None
    trace_sample: float = 0.0
    slow_ms: float | None = None
    watchdog: Watchdog | None = None
    server_version = f"repro-serve/{__version__}"
    protocol_version = "HTTP/1.1"

    #: Per-request trace id, set in do_POST and echoed by _reply.
    _trace_id: str | None = None

    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        path = urlsplit(self.path).path
        if path == "/metrics":
            self._get_metrics()
        elif path == "/v1/traces":
            self._get_traces()
        elif path == "/v1/export":
            self._get_export()
        elif path == "/v1/profile":
            self._get_profile()
        elif path == "/v1/stats":
            payload = self.service.stats()
            if self.watchdog is not None:
                payload["watchdog"] = self.watchdog.snapshot()
            self._reply(200, payload)
        elif path in ("/", "/healthz"):
            self._reply(200, {"ok": True, "service": "repro-serve"})
        else:
            self._error(404, "not_found", f"no such route: GET {path}")

    def _get_metrics(self) -> None:
        """``/metrics``: JSON by default, Prometheus text when negotiated."""
        query = parse_qs(urlsplit(self.path).query)
        accept = self.headers.get("Accept", "")
        wants_prom = query.get("format", [""])[0] == "prom" or (
            "text/plain" in accept and "application/json" not in accept
        )
        if not wants_prom:
            self._reply(200, self.service.metrics_snapshot())
            return
        gauges = {"serve.cache": self.service.cache.snapshot_stats()}
        if self.watchdog is not None:
            gauges["watchdog"] = self.watchdog.snapshot()
        if self.trace_buffer is not None:
            gauges["trace.buffered"] = len(self.trace_buffer)
        registry = _metrics_active()
        body = render_prometheus(
            registry.export() if registry is not None else None,
            flatten_gauges(gauges),
        )
        self._reply_text(200, body, _PROM_CONTENT_TYPE)

    def _get_export(self) -> None:
        """``/v1/export``: the mergeable observability wire format.

        Everything the pool parent needs to aggregate this process into
        the pool-wide picture: the active registry's exact mergeable
        metrics export, the watchdog snapshot, and gauge-ready local
        stats.  Plain JSON — merging happens on the parent with
        :func:`repro.metrics.core.merge_snapshots`.
        """
        registry = _metrics_active()
        gauges = {"serve.cache": self.service.cache.snapshot_stats()}
        if self.trace_buffer is not None:
            gauges["trace.buffered"] = len(self.trace_buffer)
        self._reply(
            200,
            {
                "ok": True,
                "metrics": registry.export() if registry is not None else None,
                "watchdog": (
                    self.watchdog.snapshot() if self.watchdog is not None else None
                ),
                "gauges": flatten_gauges(gauges),
            },
        )

    def _get_profile(self) -> None:
        """``/v1/profile?seconds=N&hz=H``: sample this process's stacks.

        Blocks the *handler* thread for ``seconds`` (capped) while the
        sampler watches every other thread, so concurrent request work
        shows up.  Returns the collapsed-stack wire payload; the pool
        parent fans this out to all workers and merges the counts.
        """
        query = parse_qs(urlsplit(self.path).query)
        try:
            seconds = float(query.get("seconds", ["1.0"])[0])
            hz = float(query.get("hz", [str(DEFAULT_HZ)])[0])
        except ValueError:
            self._error(400, "BadRequest", "'seconds' and 'hz' must be numbers")
            return
        if not 0.0 < seconds <= MAX_PROFILE_SECONDS:
            self._error(
                400,
                "BadRequest",
                f"'seconds' must be in (0, {MAX_PROFILE_SECONDS:g}], got {seconds:g}",
            )
            return
        if not 1.0 <= hz <= 1000.0:
            self._error(400, "BadRequest", f"'hz' must be in [1, 1000], got {hz:g}")
            return
        self._reply(200, {"ok": True, "profile": profile_for(seconds, hz=hz)})

    def _get_traces(self) -> None:
        """``/v1/traces``: recent summaries, or one full tree by trace id."""
        if self.trace_buffer is None:
            self._error(
                404, "tracing_disabled", "serve started without request tracing"
            )
            return
        query = parse_qs(urlsplit(self.path).query)
        trace_id = query.get("trace_id", [None])[0]
        if trace_id:
            payload = self.trace_buffer.get(trace_id.lower())
            if payload is None:
                self._error(
                    404,
                    "not_found",
                    f"no recorded trace {trace_id!r} (buffer keeps the last "
                    f"{self.trace_buffer.capacity})",
                )
            else:
                self._reply(200, {"ok": True, "trace": payload})
            return
        try:
            limit = int(query.get("limit", ["20"])[0])
        except ValueError:
            self._error(400, "BadRequest", "'limit' must be an integer")
            return
        self._reply(
            200,
            {
                "ok": True,
                "sample_rate": self.trace_sample,
                "capacity": self.trace_buffer.capacity,
                "traces": self.trace_buffer.recent(max(1, limit)),
            },
        )

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        path = urlsplit(self.path).path
        handler_name = _POST_ROUTES.get(path)
        if handler_name is None:
            self._error(404, "not_found", f"no such route: POST {path}")
            return
        inbound = self.headers.get("X-Trace-Id")
        if inbound is not None and _TRACE_ID_RE.match(inbound):
            self._trace_id = inbound.lower()
        else:
            self._trace_id = new_trace_id()
            inbound = None
        # the pool's routing parent names its pool.route span so the
        # worker's request span nests under it when stitched
        parent_span = self.headers.get("X-Parent-Span")
        if parent_span is None or not _TRACE_ID_RE.match(parent_span):
            parent_span = None
        else:
            parent_span = parent_span.lower()
        # record spans when the client opted in (explicit X-Trace-Id) or the
        # request won the sampling coin flip; otherwise the span hooks stay
        # no-ops and the request costs exactly what it did before tracing
        recording = self.trace_buffer is not None and (
            inbound is not None
            or (self.trace_sample > 0 and random.random() < self.trace_sample)
        )
        started = time.perf_counter()
        if recording:
            observers = (
                () if self.watchdog is None else (self.watchdog.on_span,)
            )
            with hold_response(self):
                with tracing(
                    f"POST {path}",
                    trace_id=self._trace_id,
                    observers=observers,
                    parent_span_id=parent_span,
                    endpoint=path,
                ) as tracer:
                    info = self._dispatch(path, handler_name)
                    index_meta = info.get("index") or {}
                    # the current span here is the request's root span
                    _trace_annotate(
                        http_status=info.get("status"),
                        cache=index_meta.get("status"),
                        fingerprint=index_meta.get("fingerprint"),
                    )
                self.trace_buffer.add(tracer)
        else:
            info = self._dispatch(path, handler_name)
        elapsed_ms = (time.perf_counter() - started) * 1000
        # per-endpoint latency in the mergeable histogram the pool's SLO
        # layer aggregates (no-op without an active registry)
        _metrics_observe(f"serve.request_seconds.{path}", elapsed_ms / 1000)
        if self.slow_ms is not None and elapsed_ms > self.slow_ms:
            index_meta = info.get("index") or {}
            log_event(
                logger,
                "slow request",
                level=logging.WARNING,
                endpoint=path,
                ms=round(elapsed_ms, 3),
                slow_ms=self.slow_ms,
                trace_id=self._trace_id,
                traced=recording,
                status=info.get("status"),
                fingerprint=index_meta.get("fingerprint"),
                cache=index_meta.get("status"),
            )

    def _dispatch(self, path: str, handler_name: str) -> dict[str, Any]:
        """Run one POST handler and send the response; returns outcome info."""
        try:
            payload = self._read_json()
        except ServeError as exc:
            self._error(exc.http_status, type(exc).__name__, str(exc))
            return {"status": exc.http_status}
        try:
            result = getattr(self.service, handler_name)(payload)
        except ServeError as exc:
            self._error(exc.http_status, type(exc).__name__, str(exc))
            return {"status": exc.http_status}
        except ReproError as exc:
            # any other library-level input error is still the client's fault
            self._error(400, type(exc).__name__, str(exc))
            return {"status": 400}
        except Exception:
            logger.exception("internal error handling %s", path)
            self._error(500, "internal_error", "internal server error")
            return {"status": 500}
        self._reply(200, {"ok": True, **result})
        return {"status": 200, "index": result.get("index")}

    # ------------------------------------------------------------------

    def _read_json(self) -> dict[str, Any]:
        from repro.serve.service import BadRequest

        body = read_request_body(self, self.max_body_bytes)
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequest(f"request body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        return payload

    def _reply(self, status: int, payload: dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._send(status, body, "application/json")

    def _reply_text(self, status: int, text: str, content_type: str) -> None:
        self._send(status, text.encode("utf-8"), content_type)

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self._trace_id is not None:
            self.send_header("X-Trace-Id", self._trace_id)
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):  # client went away
            self.close_connection = True

    def _error(self, status: int, error_type: str, message: str) -> None:
        self._reply(
            status,
            {"ok": False, "error": {"type": error_type, "message": message}},
        )

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        logger.debug("%s - %s", self.address_string(), format % args)


def build_handler(
    service: QueryService,
    request_timeout: float = 30.0,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    trace_buffer: TraceBuffer | None = None,
    trace_capacity: int | None = None,
    trace_sample: float = 0.0,
    slow_ms: float | None = None,
    watchdog: Watchdog | None = None,
) -> type[RequestHandler]:
    """A :class:`RequestHandler` subclass bound to one service + knobs.

    :func:`create_server` uses this for the classic single-process server;
    :mod:`repro.serve.pool` uses it directly so each forked worker can
    hang the same handler off a socket it inherited from the parent.
    """
    if not 0.0 <= trace_sample <= 1.0:
        raise ValueError(f"trace_sample must be in [0, 1], got {trace_sample}")
    if trace_buffer is None and trace_capacity != 0:
        trace_buffer = TraceBuffer(trace_capacity or DEFAULT_CAPACITY)
    return type(
        "BoundRequestHandler",
        (RequestHandler,),
        {
            "service": service,
            "timeout": request_timeout,
            "max_body_bytes": max_body_bytes,
            "trace_buffer": trace_buffer,
            "trace_sample": trace_sample,
            "slow_ms": slow_ms,
            "watchdog": watchdog,
        },
    )


def create_server(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 0,
    request_timeout: float = 30.0,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    trace_buffer: TraceBuffer | None = None,
    trace_capacity: int | None = None,
    trace_sample: float = 0.0,
    slow_ms: float | None = None,
    watchdog: Watchdog | None = None,
) -> ThreadingHTTPServer:
    """A ready-to-run threading server bound to ``host:port``.

    ``port=0`` binds an ephemeral port — read it back from
    ``server.server_address``.  ``request_timeout`` bounds how long a
    connection thread blocks reading a request (slow-loris protection);
    it does not interrupt an index build (bound those with the service's
    ``build_wait_seconds`` / ``max_in_flight_builds`` knobs instead).

    ``trace_buffer`` retains recorded request traces for ``/v1/traces``;
    when omitted, a fresh :class:`TraceBuffer` holding ``trace_capacity``
    traces is created (``trace_capacity=0`` disables request tracing
    entirely).  ``trace_sample`` is the probability an *unsolicited*
    request is recorded — requests carrying an ``X-Trace-Id`` header are
    always recorded.  ``slow_ms`` turns on the structured slow-request
    log.  ``watchdog`` consumes recorded enumeration-step spans live.
    """
    handler = build_handler(
        service,
        request_timeout=request_timeout,
        max_body_bytes=max_body_bytes,
        trace_buffer=trace_buffer,
        trace_capacity=trace_capacity,
        trace_sample=trace_sample,
        slow_ms=slow_ms,
        watchdog=watchdog,
    )
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


def wait_until_ready(
    host: str, port: int, deadline_seconds: float = 10.0
) -> bool:
    """Poll until the server accepts TCP connections (for scripts/tests)."""
    import time

    deadline = time.monotonic() + deadline_seconds
    while time.monotonic() < deadline:
        try:
            with socket.create_connection((host, port), timeout=0.5):
                return True
        except OSError:
            time.sleep(0.05)
    return False
