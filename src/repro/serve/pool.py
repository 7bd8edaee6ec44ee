"""Pre-fork sharded serving: N worker processes, one mmap-shared arena.

CPython's GIL caps the single-process server at one core no matter how
many connection threads it runs — the constant-delay guarantee survives,
aggregate throughput does not.  :class:`PoolServer` takes the classic
pre-fork shape instead:

* the **parent** builds one :class:`~repro.serve.service.QueryService`,
  preloads every ``.rpx`` snapshot from the cache directory and re-homes
  their arena buffers into shared ``memfd`` mappings
  (:func:`repro.storage.shared.share_index`) *before* forking — so the
  multi-megabyte register files exist once in physical memory no matter
  how many workers serve them;
* each **worker** is a fork that inherits a pre-bound loopback socket
  and runs the ordinary threaded HTTP server
  (:func:`repro.serve.http.build_handler`) against the pre-seeded,
  copy-on-write-shared service — CPU-bound ``test``/``next`` calls now
  run on as many cores as there are workers;
* the parent then serves the public port as a thin **router**: it reads
  each request, computes a cheap (graph, query) routing key *without
  loading anything*, and relays the request to ``shard % workers`` as
  re-framed bytes over pooled raw keep-alive sockets
  (:meth:`PoolServer.forward`).  Requests for the same key always land
  on the same worker, so post-fork index builds shard the warm LRU
  instead of duplicating it in every process.

Every response, the router's own and the relayed ones, reaches the
client in one write (:func:`repro.serve.http.send_reply`).

The routing key deliberately mirrors :meth:`GraphStore._spec` (family
tuple, content digests, path string) rather than the persist fingerprint
— computing the real fingerprint needs the loaded graph, which is
exactly the work the router must not do.  The two keys agree on "same
request", which is all routing needs.

Lifecycle: SIGTERM each worker on :meth:`close`, reap, respawn dead
workers (a monitor thread waits on ``waitpid``), ``X-Repro-Worker`` on
every proxied response, aggregated ``/v1/stats`` + ``/metrics`` from the
router.  ``/healthz`` answers from the router itself — liveness of the
pool, not of any one worker.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import select
import signal
import socket
import threading
import time
import zlib
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro import __version__
from repro.metrics.core import merge_snapshots
from repro.metrics.prometheus import CONTENT_TYPE as _PROM_CONTENT_TYPE
from repro.metrics.prometheus import flatten_gauges, render_prometheus
from repro.obs.slo import aggregate_guarantee, endpoint_latency_summary
from repro.obs.stitch import stitch_traces
from repro.persist import SNAPSHOT_SUFFIX, SnapshotError, load_index, read_header
from repro.serve.http import (
    DEFAULT_MAX_BODY_BYTES,
    _POST_ROUTES,
    _TRACE_ID_RE,
    build_handler,
    hold_response,
    profile_params,
    read_request_body,
    send_reply,
    traces_limit,
    wants_prometheus,
)
from repro.serve.service import BadRequest, QueryService, ServeError
from repro.storage.shared import SharedArena, share_index, shared_map_stats
from repro.trace.buffer import DEFAULT_CAPACITY, TraceBuffer
from repro.trace.logging import log_event
from repro.trace.profiler import merge_profiles
from repro.trace.runtime import current_span as _current_span
from repro.trace.runtime import span as _span
from repro.trace.runtime import tracing

logger = logging.getLogger("repro.serve.pool")

#: Extra LRU headroom beyond the preloaded snapshots, so serving traffic
#: cannot evict what the parent deliberately warmed.
_PRELOAD_SLACK = 4

#: Bounds on a worker reply's head, the standard library HTTP client's:
#: a longer line or more header lines is a transport error, not a wait.
_MAX_LINE = 65536
_MAX_HEADERS = 100

#: Worker reply headers the router passes back to its client.
_RELAYED_HEADERS = (b"content-type", b"x-trace-id")


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------


def routing_key(payload: Any) -> bytes:
    """A stable (graph, query, method) key for shard routing.

    Mirrors the service's graph-spec cache key without loading graphs:
    family requests key on ``(family, n, seed)``, inline graphs on their
    content digest, path requests on the path string.  Unroutable
    payloads (not a dict, no graph spec) key on their JSON — the worker
    that receives them produces the canonical 400.
    """
    if not isinstance(payload, dict):
        return repr(payload).encode("utf-8", "replace")
    parts: list[str] = [
        str(payload.get("query", "")),
        str(payload.get("method", "auto")),
    ]
    if "family" in payload:
        parts += [
            "family",
            str(payload.get("family")),
            str(payload.get("n")),
            str(payload.get("seed", 0)),
        ]
    elif "edge_list" in payload:
        import hashlib

        text = payload.get("edge_list")
        raw = text.encode("utf-8", "replace") if isinstance(text, str) else repr(text).encode()
        parts += ["edge_list", hashlib.sha256(raw).hexdigest()]
    elif "graph" in payload:
        import hashlib

        try:
            canon = json.dumps(
                payload["graph"], sort_keys=True, separators=(",", ":")
            )
        except (TypeError, ValueError):
            canon = repr(payload.get("graph"))
        parts += ["graph", hashlib.sha256(canon.encode()).hexdigest()]
    elif "graph_path" in payload:
        parts += ["path", str(payload.get("graph_path"))]
    return "\x1f".join(parts).encode("utf-8", "replace")


def shard_for(key: bytes, shards: int) -> int:
    """The shard a routing key belongs to (stable across runs/processes)."""
    return zlib.crc32(key) % shards


# ----------------------------------------------------------------------
# adopted-socket server
# ----------------------------------------------------------------------


class _AdoptedHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server on an already-bound, already-listening
    socket (a worker's inherited fd, or the router's public socket)."""

    def __init__(self, sock: socket.socket, handler: type) -> None:
        host, port = sock.getsockname()[:2]
        super().__init__((host, port), handler, bind_and_activate=False)
        self.socket = sock
        # what server_bind would have filled in
        self.server_address = sock.getsockname()
        self.server_name = host
        self.server_port = port
        self.daemon_threads = True


class _BadReply(Exception):
    """A worker reply the relay cannot frame (a transport error)."""


class _Relay:
    """One raw keep-alive socket to a worker, with its read buffer."""

    __slots__ = ("sock", "reader")

    def __init__(self, port: int, timeout: float | None) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def stale(self) -> bool:
        """Readable while idle: the worker has closed it (its EOF is queued)."""
        poller = select.poll()
        poller.register(self.sock, select.POLLIN)
        return bool(poller.poll(0))

    def exchange(self, request: bytes) -> tuple[int, list[tuple[str, str]], bytes, bool]:
        """Send one framed request, read one reply.

        Returns ``(status, relayed headers, body, reusable)``.  Raises
        ``OSError`` (including the socket timeout) or :class:`_BadReply`:
        a garbage status line, an over-long line, more than
        ``_MAX_HEADERS`` headers, no valid ``Content-Length``, or a short
        body.  ``reusable`` is False after an HTTP/1.0 or
        ``Connection: close`` reply.
        """
        self.sock.sendall(request)
        reader = self.reader
        line = reader.readline(_MAX_LINE + 1)
        if not line:
            raise _BadReply("worker closed the connection without replying")
        parts = line.split(None, 2)
        if (
            len(line) > _MAX_LINE
            or len(parts) < 2
            or not parts[0].startswith(b"HTTP/")
            or len(parts[1]) != 3
            or not parts[1].isdigit()
        ):
            raise _BadReply(f"bad status line {line[:64]!r}")
        reusable = parts[0] == b"HTTP/1.1"
        relayed: list[tuple[str, str]] = []
        length = None
        for _ in range(_MAX_HEADERS + 1):
            line = reader.readline(_MAX_LINE + 1)
            if line in (b"\r\n", b"\n"):
                break
            if len(line) > _MAX_LINE or not line.endswith(b"\n"):
                raise _BadReply("reply header line too long or cut off")
            name, sep, value = line.partition(b":")
            if not sep:
                raise _BadReply(f"bad reply header line {line[:64]!r}")
            key = name.strip().lower()
            value = value.strip()
            if key == b"content-length":
                if length is not None or not value.isdigit():
                    raise _BadReply(f"bad Content-Length {value[:64]!r}")
                length = int(value)
            elif key == b"connection":
                if b"close" in (token.strip() for token in value.lower().split(b",")):
                    reusable = False
            elif key in _RELAYED_HEADERS:
                relayed.append((name.decode("latin-1"), value.decode("latin-1")))
        else:
            raise _BadReply(f"more than {_MAX_HEADERS} reply headers")
        if length is None:
            raise _BadReply("reply without a Content-Length")
        body = reader.read(length)
        if len(body) != length:
            raise _BadReply(f"reply body cut off at {len(body)} of {length} bytes")
        return int(parts[1]), relayed, body, reusable

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _frame(
    method: str, path: str, port: int, headers: dict[str, str], body: bytes | None
) -> bytes:
    """One request as a worker reads it: request line, ``Host``, the
    passed-through headers, ``Content-Length``, body."""
    payload = body or b""
    head = [f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n"]
    head += [f"{name}: {value}\r\n" for name, value in headers.items()]
    head.append(f"Content-Length: {len(payload)}\r\n\r\n")
    return "".join(head).encode("latin-1") + payload


class _WorkerLink:
    """Parent-side handle on one worker: socket, pid, relay-socket pool."""

    def __init__(self, wid: int, sock: socket.socket) -> None:
        self.wid = wid
        self.sock = sock
        self.port: int = sock.getsockname()[1]
        self.pid: int | None = None
        # LIFO, so the warmest socket goes out first; a relay belongs to
        # one router thread between get_conn and put_conn
        self._conns: deque[_Relay] = deque()

    def get_conn(self, timeout: float | None) -> _Relay:
        """A pooled relay socket, or a fresh one when none is usable.

        A pooled socket the worker has closed since (its idle
        ``request_timeout`` ran out, or it died) is discarded here, so
        the request it would have carried never meets the dead socket.
        """
        while True:
            try:
                relay = self._conns.pop()
            except IndexError:
                return _Relay(self.port, timeout)
            if not relay.stale():
                return relay
            relay.close()

    def put_conn(self, relay: _Relay) -> None:
        self._conns.append(relay)

    def drain_conns(self) -> None:
        while True:
            try:
                self._conns.pop().close()
            except IndexError:
                return


# ----------------------------------------------------------------------
# the pool
# ----------------------------------------------------------------------


class PoolServer:
    """A pre-fork worker pool plus its routing front-end.

    Call :meth:`start` (binds, preloads, forks, spins the monitor), then
    :meth:`serve_forever` from the main thread; :meth:`close` tears the
    whole family down.  Needs ``os.fork`` — Linux/macOS only.
    """

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        shards: int | None = None,
        request_timeout: float = 30.0,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        trace_capacity: int | None = None,
        trace_sample: float = 0.0,
        slow_ms: float | None = None,
        watchdog_factory: Any = None,
        preload: bool = True,
    ) -> None:
        if not hasattr(os, "fork"):
            raise RuntimeError("PoolServer needs os.fork (POSIX only)")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if shards is None:
            shards = workers
        if shards < workers:
            raise ValueError(
                f"shards ({shards}) must be >= workers ({workers}); each "
                f"worker owns shards s with s % workers == worker id"
            )
        self.service = service
        self.host = host
        self.port = port
        self.workers = workers
        self.shards = shards
        self.request_timeout = request_timeout
        self.max_body_bytes = max_body_bytes
        self.trace_capacity = trace_capacity
        self.trace_sample = trace_sample
        # the parent's own ring of pool.route traces — stitched against
        # the workers' buffers by /v1/traces (same 0-disables convention
        # as build_handler)
        self.trace_buffer: TraceBuffer | None = (
            None
            if trace_capacity == 0
            else TraceBuffer(trace_capacity or DEFAULT_CAPACITY)
        )
        self.slow_ms = slow_ms
        self.watchdog_factory = watchdog_factory
        self.preload = preload
        self.preloaded: list[str] = []
        self.arenas: list[SharedArena] = []
        self.shared_bytes = 0
        self._links: list[_WorkerLink] = []
        self._by_pid: dict[int, _WorkerLink] = {}
        self._lock = threading.Lock()
        self._respawns = 0
        self._started_at: float | None = None
        self._shutting_down = False
        self._public_sock: socket.socket | None = None
        self._router: ThreadingHTTPServer | None = None
        self._monitor: threading.Thread | None = None

    # -- public lifecycle ---------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        assert self._public_sock is not None, "start() first"
        return self._public_sock.getsockname()[:2]

    def start(self) -> None:
        """Bind, preload + share snapshots, fork workers, start the monitor."""
        self._public_sock = socket.create_server(
            (self.host, self.port), backlog=128
        )
        if self.preload:
            self._preload_snapshots()
        for wid in range(self.workers):
            self._links.append(
                _WorkerLink(wid, socket.create_server(("127.0.0.1", 0)))
            )
        self._started_at = time.monotonic()
        for link in self._links:
            link.pid = self._spawn(link)
            self._by_pid[link.pid] = link
        self._monitor = threading.Thread(
            target=self._reap_loop, name="pool-reaper", daemon=True
        )
        self._monitor.start()
        router_handler = type(
            "BoundRouterHandler",
            (RouterHandler,),
            {"pool": self, "timeout": self.request_timeout},
        )
        self._router = _AdoptedHTTPServer(self._public_sock, router_handler)
        log_event(
            logger,
            "pool started",
            workers=self.workers,
            shards=self.shards,
            preloaded=len(self.preloaded),
            shared_arena_bytes=self.shared_bytes,
            port=self.address[1],
        )

    def serve_forever(self) -> None:
        assert self._router is not None, "start() first"
        self._router.serve_forever()

    def shutdown(self) -> None:
        """Stop accepting (callable from another thread)."""
        if self._router is not None:
            self._router.shutdown()

    def close(self) -> None:
        """SIGTERM the workers, reap them, release every socket."""
        self._shutting_down = True
        with self._lock:
            pids = list(self._by_pid)
        for pid in pids:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            with self._lock:
                if not self._by_pid:
                    break
            time.sleep(0.05)
        with self._lock:
            stragglers = list(self._by_pid)
        for pid in stragglers:  # pool teardown must not hang the parent
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        if self._router is not None:
            self._router.server_close()
            self._router = None
            self._public_sock = None
        elif self._public_sock is not None:
            self._public_sock.close()
            self._public_sock = None
        for link in self._links:
            link.drain_conns()
            link.sock.close()
        for arena in self.arenas:
            arena.close()

    # -- pre-fork warmup ----------------------------------------------------

    def _preload_snapshots(self) -> None:
        """Load every snapshot once, re-home its arenas into shared memory,
        and seed the LRU — all before ``fork()``, so workers share pages.

        Every worker gets every preloaded index: the router's key routes
        *requests*, but a snapshot's fingerprint is not computable from a
        request without loading the graph, so pinning snapshots to single
        workers could strand a request on a worker without its index.
        Sharing makes that correct *and* cheap — the arena pages are
        mapped, not copied, no matter how many workers touch them.
        """
        directory = self.service.cache.snapshot_dir
        if directory is None or not directory.is_dir():
            return
        for path in sorted(directory.glob(f"*{SNAPSHOT_SUFFIX}")):
            try:
                header = read_header(path)
                fingerprint = str(header["fingerprint"])
                index = load_index(path, expected_fingerprint=fingerprint)
            except (SnapshotError, KeyError) as exc:
                logger.warning("preload skipped %s: %s", path.name, exc)
                continue
            arena = share_index(index, tag=fingerprint[:8])
            if arena is not None:
                self.arenas.append(arena)
                self.shared_bytes += arena.nbytes
            cache = self.service.cache
            cache.max_entries = max(
                cache.max_entries, len(self.preloaded) + 1 + _PRELOAD_SLACK
            )
            cache.seed(fingerprint, index)
            self.preloaded.append(fingerprint)
        log_event(
            logger,
            "preloaded snapshots",
            count=len(self.preloaded),
            shared_arena_bytes=self.shared_bytes,
            arenas=len(self.arenas),
        )

    # -- worker side --------------------------------------------------------

    def _spawn(self, link: _WorkerLink) -> int:
        pid = os.fork()
        if pid:
            return pid
        code = 1
        try:
            code = self._worker_main(link)
        except BaseException:  # noqa: BLE001 — a worker must never return
            import traceback

            traceback.print_exc()
        finally:
            os._exit(code)

    def _worker_main(self, link: _WorkerLink) -> int:
        """The forked child: adopt the socket, serve until SIGTERM."""
        from repro import metrics

        if self._public_sock is not None:
            self._public_sock.close()
        for other in self._links:
            if other is not link:
                other.sock.close()

        def _terminate(signum: int, frame: Any) -> None:
            # raising unwinds serve_forever from inside its select; calling
            # shutdown() here would deadlock the only thread
            raise SystemExit(0)

        try:
            signal.signal(signal.SIGTERM, _terminate)
            # the parent's ^C (SIGINT to the foreground process group) must
            # not kill workers mid-request; the parent SIGTERMs on close()
            signal.signal(signal.SIGINT, signal.SIG_IGN)
        except ValueError:  # pragma: no cover — non-main-thread fork
            pass
        wid = link.wid
        owned = tuple(s for s in range(self.shards) if s % self.workers == wid)
        for arena in self.arenas:
            arena.touch_pages()  # pre-fault: first request never page-faults
        self.service.worker_stats_fn = lambda: _worker_stats(wid, owned)
        watchdog = (
            self.watchdog_factory() if self.watchdog_factory is not None else None
        )
        handler = build_handler(
            self.service,
            request_timeout=self.request_timeout,
            max_body_bytes=self.max_body_bytes,
            trace_capacity=self.trace_capacity,
            trace_sample=self.trace_sample,
            slow_ms=self.slow_ms,
            watchdog=watchdog,
        )
        server = _AdoptedHTTPServer(link.sock, handler)
        try:
            with metrics.collect(ops=False):
                server.serve_forever()
        except SystemExit:
            pass
        finally:
            server.server_close()
        return 0

    # -- parent-side monitoring --------------------------------------------

    def _reap_loop(self) -> None:
        """Reap dead workers; respawn them unless the pool is closing."""
        while True:
            try:
                pid, status = os.waitpid(-1, 0)
            except ChildProcessError:
                if self._shutting_down:
                    return
                time.sleep(0.2)
                continue
            except InterruptedError:
                continue
            with self._lock:
                link = self._by_pid.pop(pid, None)
            if link is None:
                continue
            if self._shutting_down:
                continue
            link.drain_conns()  # its keep-alive connections died with it
            with self._lock:
                self._respawns += 1
            log_event(
                logger,
                "worker died, respawning",
                level=logging.WARNING,
                worker=link.wid,
                pid=pid,
                status=status,
            )
            link.pid = self._spawn(link)
            with self._lock:
                self._by_pid[link.pid] = link

    # -- routing / proxying -------------------------------------------------

    def worker_for(self, payload: Any) -> int:
        return shard_for(routing_key(payload), self.shards) % self.workers

    def forward(
        self,
        wid: int,
        method: str,
        path: str,
        body: bytes | None,
        headers: dict[str, str],
        idempotent: bool = True,
    ) -> tuple[int, list[tuple[str, str]], bytes]:
        """Relay one request to worker ``wid`` over a pooled raw socket.

        The request is re-framed (request line, ``Host``, ``headers``,
        ``Content-Length``, body) and sent in one ``sendall``.  The reply's
        status line and headers are parsed within fixed bounds (65,536-byte
        lines, 100 headers, ``request_timeout`` per read) and its body is
        read by ``Content-Length``.  Returns ``(status, headers, body)``
        where ``headers`` are the reply's ``Content-Type`` and
        ``X-Trace-Id``.  The socket goes back to the worker's pool unless
        the reply was HTTP/1.0 or said ``Connection: close``; after any
        transport error it is closed.  A pooled socket that is already
        readable before use (the worker closed it while it sat idle) is
        discarded, not sent on (:meth:`_WorkerLink.get_conn`).

        Retries exactly once on a transport error (a worker respawn kills
        its keep-alive connections; reads retry safely).  Callers relaying
        a request that mutates worker state — ``/v1/update``, which bumps
        the index version — pass ``idempotent=False``: a request that may
        already have been *applied* before the transport error must not be
        replayed, so those fail fast with a 503 instead.
        """
        link = self._links[wid]
        request = _frame(method, path, link.port, headers, body)
        last_error: Exception | None = None
        attempts = (0, 1) if idempotent else (0,)
        for _ in attempts:
            relay = None
            try:
                relay = link.get_conn(self.request_timeout)
                status, reply_headers, data, reusable = relay.exchange(request)
            except (OSError, _BadReply) as exc:
                if relay is not None:
                    relay.close()
                last_error = exc
                continue
            if reusable:
                link.put_conn(relay)
            else:
                relay.close()
            return status, reply_headers, data
        raise PoolWorkerUnavailable(
            f"worker {wid} unreachable after retry: {last_error}"
        )

    # -- aggregation --------------------------------------------------------

    def pool_stats(self) -> dict[str, Any]:
        with self._lock:
            live = {link.wid: link.pid for link in self._links}
            respawns = self._respawns
        return {
            "pid": os.getpid(),
            "workers": self.workers,
            "shards": self.shards,
            "respawns": respawns,
            "worker_pids": live,
            "preloaded": len(self.preloaded),
            "shared_arena_bytes": self.shared_bytes,
            "uptime_seconds": (
                None
                if self._started_at is None
                else round(time.monotonic() - self._started_at, 3)
            ),
        }

    def _fan_in(self, path: str) -> list[dict[str, Any]]:
        """GET ``path`` from every worker; errors become error entries."""
        out: list[dict[str, Any]] = []
        for link in self._links:
            try:
                status, _, data = self.forward(link.wid, "GET", path, None, {})
                payload = json.loads(data.decode("utf-8"))
            except (PoolWorkerUnavailable, ValueError) as exc:
                out.append({"worker": link.wid, "error": str(exc)})
                continue
            payload["worker_id"] = link.wid
            out.append(payload)
        return out

    def aggregate_stats(self) -> dict[str, Any]:
        """Pool + per-worker stats, plus the pool-wide ``guarantee`` block.

        The guarantee block folds every worker's watchdog snapshot into
        one verdict (did the constant-delay budget hold across the whole
        family), violation burn rates, and per-endpoint p50/p95/p99 from
        the merged request-latency histograms.
        """
        workers = self._fan_in("/v1/stats")
        exports = self._fan_in_exports()
        watchdogs: dict[str, dict[str, Any] | None] = {
            str(entry["worker_id"]): entry.get("watchdog")
            for entry in exports
            if "worker_id" in entry
        }
        merged = merge_snapshots(
            [e["metrics"] for e in exports if e.get("metrics") is not None]
        )
        return {
            "ok": True,
            "pool": self.pool_stats(),
            "guarantee": aggregate_guarantee(watchdogs),
            "endpoints": endpoint_latency_summary(merged),
            "workers": workers,
        }

    def aggregate_metrics(self) -> dict[str, Any]:
        exports = self._fan_in_exports()
        merged = merge_snapshots(
            [e["metrics"] for e in exports if e.get("metrics") is not None]
        )
        return {
            "ok": True,
            "pool": self.pool_stats(),
            "merged": merged,
            "workers": self._fan_in("/metrics"),
        }

    def _fan_in_exports(self) -> list[dict[str, Any]]:
        """Every worker's ``/v1/export`` payload (errors become entries)."""
        return self._fan_in("/v1/export")

    def merged_prometheus(self) -> str:
        """One pool-wide Prometheus exposition from the worker exports.

        Each family carries a merged unlabeled series plus per-worker
        ``{worker="N"}`` series; histograms come out as true Prometheus
        histograms with ``le`` buckets from the exact merged log-2
        bucket counts.  Pool-level stats become gauges; worker gauges
        (cache occupancy etc.) keep the worker label.
        """
        exports = self._fan_in_exports()
        worker_exports: dict[str, dict[str, Any]] = {}
        worker_gauges: dict[str, dict[str, float]] = {}
        for entry in exports:
            wid = entry.get("worker_id")
            if wid is None or "error" in entry:
                continue
            label = str(wid)
            if entry.get("metrics") is not None:
                worker_exports[label] = entry["metrics"]
            gauges = dict(entry.get("gauges") or {})
            if entry.get("watchdog") is not None:
                gauges.update(flatten_gauges(entry["watchdog"], "watchdog"))
            if gauges:
                worker_gauges[label] = gauges
        pool_gauges = flatten_gauges(
            {k: v for k, v in self.pool_stats().items() if k != "worker_pids"},
            "pool",
        )
        return render_prometheus(
            merge_snapshots(list(worker_exports.values())),
            gauges=pool_gauges,
            workers=worker_exports,
            worker_gauges=worker_gauges,
        )

    # -- cross-process traces / profiles ------------------------------------

    def stitched_trace(self, trace_id: str) -> dict[str, Any] | None:
        """One stitched tree for ``trace_id`` across parent + workers.

        Collects the parent's own ``pool.route`` trace (if recorded) and
        every worker's buffered payload for the id, then stitches them
        onto one timeline.  Returns None when no process recorded it.
        """
        payloads: list[dict[str, Any]] = []
        if self.trace_buffer is not None:
            own = self.trace_buffer.get(trace_id)
            if own is not None:
                own = dict(own)
                own["source"] = "parent"
                payloads.append(own)
        for link in self._links:
            try:
                status, _, data = self.forward(
                    link.wid, "GET", f"/v1/traces?trace_id={trace_id}", None, {}
                )
                payload = json.loads(data.decode("utf-8"))
            except (PoolWorkerUnavailable, ValueError):
                continue
            if status != 200 or not payload.get("ok"):
                continue
            trace = dict(payload["trace"])
            trace["source"] = f"worker:{link.wid}"
            payloads.append(trace)
        if not payloads:
            return None
        return stitch_traces(payloads)

    def aggregate_traces(self, limit: int) -> dict[str, Any]:
        """Recent-trace summaries across parent + all workers.

        Entries for the same trace id (the parent's ``pool.route`` hop
        and the worker's request trace) are folded into one summary with
        a ``sources`` list; fetch ``?trace_id=`` for the stitched tree.
        """
        grouped: dict[str, dict[str, Any]] = {}

        def fold(entries: list[dict[str, Any]], source: str) -> None:
            for entry in entries:
                tid = entry.get("trace_id")
                if tid is None:
                    continue
                slot = grouped.setdefault(
                    tid,
                    {
                        "trace_id": tid,
                        "name": entry.get("name"),
                        "started_at": entry.get("started_at"),
                        "spans": 0,
                        "sources": [],
                    },
                )
                if source == "parent":
                    slot["name"] = entry.get("name", slot["name"])
                slot["spans"] += int(entry.get("spans", 0))
                if source not in slot["sources"]:
                    slot["sources"].append(source)
                started = entry.get("started_at")
                if started is not None and (
                    slot["started_at"] is None or started < slot["started_at"]
                ):
                    slot["started_at"] = started

        if self.trace_buffer is not None:
            fold(self.trace_buffer.recent(limit), "parent")
        for link in self._links:
            try:
                status, _, data = self.forward(
                    link.wid, "GET", f"/v1/traces?limit={limit}", None, {}
                )
                payload = json.loads(data.decode("utf-8"))
            except (PoolWorkerUnavailable, ValueError):
                continue
            if status != 200 or not payload.get("ok"):
                continue
            fold(payload.get("traces", []), f"worker:{link.wid}")
        traces = sorted(
            grouped.values(), key=lambda t: t.get("started_at") or 0.0, reverse=True
        )[:limit]
        return {"ok": True, "worker": "all", "traces": traces}

    def aggregate_profile(self, seconds: float, hz: float) -> dict[str, Any]:
        """Profile every worker concurrently and merge the stacks.

        Each worker samples its own threads for ``seconds``; the fan-out
        runs on parallel threads over *fresh* relay sockets (the pooled
        ones time out sooner than a long profile run), so wall clock is
        ~``seconds``, not ``workers * seconds``.
        """
        results: dict[int, dict[str, Any]] = {}
        lock = threading.Lock()
        path = f"/v1/profile?seconds={seconds:g}&hz={hz:g}"

        def one(link: _WorkerLink) -> None:
            try:
                with contextlib.closing(_Relay(link.port, seconds + 10.0)) as relay:
                    _, _, data, _ = relay.exchange(
                        _frame("GET", path, link.port, {}, None)
                    )
                payload = json.loads(data.decode("utf-8"))
            except (OSError, _BadReply, ValueError):
                return
            if payload.get("ok"):
                with lock:
                    results[link.wid] = payload["profile"]

        threads = [
            threading.Thread(target=one, args=(link,), daemon=True)
            for link in self._links
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        merged = merge_profiles([results[wid] for wid in sorted(results)])
        return {
            "ok": True,
            "profile": merged,
            "workers": {
                str(wid): results[wid].get("samples", 0) for wid in sorted(results)
            },
        }


class PoolWorkerUnavailable(ServeError):
    """A worker could not be reached even after a retry (HTTP 503)."""

    http_status = 503


def _worker_stats(wid: int, owned_shards: tuple[int, ...]) -> dict[str, Any]:
    """One worker's ``/v1/stats`` block: identity, shards, memory."""
    return {
        "id": wid,
        "pid": os.getpid(),
        "shards": list(owned_shards),
        "rss_kb": _rss_kb(),
        "arena_maps": shared_map_stats(),
    }


def _rss_kb() -> int | None:
    try:
        with open("/proc/self/status", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


# ----------------------------------------------------------------------
# the router's HTTP face
# ----------------------------------------------------------------------


def _mutates_index(path: str, payload: Any) -> bool:
    """Does this routed request bump an index version on its worker?

    ``/v1/update`` always does; ``/v1/batch`` does when any call is an
    update.  Such requests must not be transparently retried by the
    router — a replay after a transport error could apply the same edge
    update twice.
    """
    if path == "/v1/update":
        return True
    if path == "/v1/batch" and isinstance(payload, dict):
        calls = payload.get("calls")
        if isinstance(calls, list):
            return any(
                isinstance(call, dict) and call.get("op") == "update"
                for call in calls
            )
    return False


class RouterHandler(BaseHTTPRequestHandler):
    """The parent's public-port handler: route, relay, aggregate.

    All JSON work on this path is one ``json.loads`` per request (for the
    routing key) — index lookups, graph loads and oracle calls happen in
    the workers.  A routed request reaches its worker through
    :meth:`PoolServer.forward`'s byte relay.  Every response — relayed
    (with ``X-Repro-Worker``), the router's own, or its 503 when a worker
    cannot be reached — goes back in one write through
    :func:`~repro.serve.http.send_reply`.

    ``/healthz`` answers locally; ``/v1/stats`` fans in and adds the
    pool-wide ``guarantee`` block; ``/metrics`` fans in (JSON) or serves
    one *merged* Prometheus exposition (``Accept: text/plain`` /
    ``?format=prom``); ``/v1/traces`` stitches one cross-process tree per
    trace id (``?worker=N`` filters to one worker's local view);
    ``/v1/profile`` samples every worker at once and merges the collapsed
    stacks.  Requests carrying ``X-Trace-Id`` get a ``pool.route`` span
    recorded here, with the span id propagated to the worker via
    ``X-Parent-Span``.
    """

    pool: PoolServer
    server_version = f"repro-pool/{__version__}"
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        path = urlsplit(self.path).path
        if path in ("/", "/healthz"):
            self._reply_json(
                200,
                {
                    "ok": True,
                    "service": "repro-serve-pool",
                    "workers": self.pool.workers,
                },
            )
        elif path == "/v1/stats":
            self._reply_json(200, self.pool.aggregate_stats())
        elif path == "/metrics":
            self._get_metrics()
        elif path == "/v1/export":
            self._reply_json(200, self.pool.aggregate_metrics())
        elif path == "/v1/traces":
            self._get_traces()
        elif path == "/v1/profile":
            self._get_profile()
        else:
            self._reply_error(404, "not_found", f"no such route: GET {path}")

    def _get_metrics(self) -> None:
        """``/metrics``: same negotiation as a single worker.

        JSON by default (pool + merged + per-worker payloads); Prometheus
        text via ``Accept: text/plain`` or ``?format=prom`` — one merged
        exposition with a ``worker`` label on per-worker series, so a
        scraper pointed at the parent sees the whole pool as one target.
        """
        if wants_prometheus(self):
            self._reply_text(200, self.pool.merged_prometheus(), _PROM_CONTENT_TYPE)
        else:
            self._reply_json(200, self.pool.aggregate_metrics())

    def _get_traces(self) -> None:
        """``/v1/traces``: stitched across the pool by default.

        ``?worker=N`` keeps the old single-worker proxy as a filter;
        ``?worker=all`` (or no ``worker``) fans in — with ``trace_id``
        the reply is one stitched cross-process tree, without it a
        merged recent-summary list.
        """
        query = parse_qs(urlsplit(self.path).query)
        worker = query.get("worker", ["all"])[0]
        if worker != "all":
            self._proxy_to_worker("GET", body=None)
            return
        trace_id = query.get("trace_id", [None])[0]
        if trace_id:
            if not _TRACE_ID_RE.match(trace_id):
                self._reply_error(
                    400, "BadRequest", "'trace_id' must be 8-64 hex chars"
                )
                return
            stitched = self.pool.stitched_trace(trace_id.lower())
            if stitched is None:
                self._reply_error(
                    404,
                    "not_found",
                    f"no process recorded trace {trace_id!r}",
                )
                return
            self._reply_json(200, {"ok": True, "trace": stitched})
            return
        try:
            limit = traces_limit(query)
        except BadRequest as exc:
            self._reply_error(exc.http_status, type(exc).__name__, str(exc))
            return
        self._reply_json(200, self.pool.aggregate_traces(limit))

    def _get_profile(self) -> None:
        """``/v1/profile``: profile every worker at once, merge the stacks."""
        try:
            seconds, hz = profile_params(parse_qs(urlsplit(self.path).query))
        except BadRequest as exc:
            self._reply_error(exc.http_status, type(exc).__name__, str(exc))
            return
        self._reply_json(200, self.pool.aggregate_profile(seconds, hz))

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        path = urlsplit(self.path).path
        if path not in _POST_ROUTES:
            self.close_connection = True  # its body stays unread
            self._reply_error(404, "not_found", f"no such route: POST {path}")
            return
        try:
            body = read_request_body(self, self.pool.max_body_bytes)
        except ServeError as exc:
            self._reply_error(exc.http_status, type(exc).__name__, str(exc))
            return
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            payload = None  # worker 0 renders the canonical 400
        wid = self.pool.worker_for(payload)
        idempotent = not _mutates_index(path, payload)
        # the router records a pool.route span when the client opted in
        # with a valid X-Trace-Id; the root span's id is propagated to
        # the worker (X-Parent-Span) so its request span nests under it
        # in the stitched tree.  Without the header the router does no
        # trace work at all.
        inbound = self.headers.get("X-Trace-Id")
        recording = (
            self.pool.trace_buffer is not None
            and inbound is not None
            and _TRACE_ID_RE.match(inbound) is not None
        )
        if not recording:
            self._proxy(wid, "POST", body, idempotent=idempotent)
            return
        with hold_response(self):
            with tracing(
                "pool.route",
                trace_id=inbound.lower(),
                endpoint=path,
                worker=wid,
                shards=self.pool.shards,
            ) as tracer:
                # the still-open pool.route root span is the worker's parent
                current = _current_span()
                parent_id = current.span_id if current is not None else None
                self._proxy(
                    wid,
                    "POST",
                    body,
                    idempotent=idempotent,
                    extra_headers=(
                        {"X-Parent-Span": parent_id} if parent_id is not None else {}
                    ),
                )
            self.pool.trace_buffer.add(tracer)

    def _proxy_to_worker(self, method: str, body: bytes | None) -> None:
        query = parse_qs(urlsplit(self.path).query)
        raw = query.get("worker", ["0"])[0]
        try:
            wid = int(raw)
        except ValueError:
            self._reply_error(
                400, "BadRequest", "'worker' must be an integer or 'all'"
            )
            return
        if not 0 <= wid < self.pool.workers:
            self._reply_error(
                400,
                "BadRequest",
                f"'worker' must be in [0, {self.pool.workers}), got {wid}",
            )
            return
        self._proxy(wid, method, body)

    def _proxy(
        self,
        wid: int,
        method: str,
        body: bytes | None,
        idempotent: bool = True,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        headers: dict[str, str] = {}
        for name in ("Content-Type", "X-Trace-Id"):
            value = self.headers.get(name)
            if value is not None:
                headers[name] = value
        if extra_headers:
            headers.update(extra_headers)
        try:
            with _span("pool.forward", worker=wid):
                status, reply_headers, data = self.pool.forward(
                    wid, method, self.path, body, headers, idempotent=idempotent
                )
        except PoolWorkerUnavailable as exc:
            self._reply_error(503, "PoolWorkerUnavailable", str(exc))
            return
        reply_headers += [("X-Repro-Worker", str(wid)), ("Content-Length", str(len(data)))]
        send_reply(self, status, reply_headers, data)

    def _reply_json(self, status: int, payload: dict[str, Any]) -> None:
        data = json.dumps(payload).encode("utf-8")
        self._send_raw(status, data, "application/json")

    def _reply_text(self, status: int, text: str, content_type: str) -> None:
        self._send_raw(status, text.encode("utf-8"), content_type)

    def _send_raw(self, status: int, data: bytes, content_type: str) -> None:
        send_reply(
            self,
            status,
            [("Content-Type", content_type), ("Content-Length", str(len(data)))],
            data,
        )

    def _reply_error(self, status: int, kind: str, message: str) -> None:
        self._reply_json(
            status, {"ok": False, "error": {"type": kind, "message": message}}
        )

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        logger.debug("%s - %s", self.address_string(), format % args)


__all__ = [
    "PoolServer",
    "PoolWorkerUnavailable",
    "RouterHandler",
    "routing_key",
    "shard_for",
]
