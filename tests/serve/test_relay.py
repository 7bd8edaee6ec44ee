"""The pool router's byte relay: retry, no-replay and framing rules.

A ``_WorkerLink`` points at an in-test socket server that plays a
worker by script, so each rule is pinned without forking:

* an idempotent request (``/v1/test``) is delivered at most twice, then
  answered 503 — or with the second delivery's reply;
* a request that mutates an index (``/v1/update``, or a ``/v1/batch``
  carrying an update call) is delivered exactly once, then answered 503;
* a reply the relay cannot frame is a transport error under the same
  rules, and an over-long reply head fails at its bound, not at the read
  timeout.

The last two tests run a real one-worker pool: through an idle period
longer than the worker's ``request_timeout``, and under many concurrent
router threads sharing the link's socket pool.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import ThreadingHTTPServer

import pytest

from repro.core.engine import open_index
from repro.graphs.generators import FAMILIES
from repro.serve.client import ServiceClient, family_spec
from repro.serve.pool import PoolServer, RouterHandler, _WorkerLink
from repro.serve.service import QueryService

SPEC = family_spec("path", 8)
QUERY = "E(x, y)"
TEST = {**SPEC, "query": QUERY, "tuple": [0, 1]}
UPDATE = {**SPEC, "query": QUERY, "op": "insert", "edge": [0, 2]}
BATCH_UPDATE = {
    **SPEC,
    "query": QUERY,
    "calls": [
        {"op": "test", "tuple": [0, 1]},
        {"op": "update", "action": "insert", "edge": [0, 2]},
    ],
}

GOOD = (
    b"HTTP/1.1 200 OK\r\n"
    b"Content-Type: application/json\r\n"
    b"Content-Length: 11\r\n"
    b"X-Trace-Id: 0123456789abcdef\r\n"
    b"\r\n"
    b'{"ok":true}'
)


class Reply:
    """One scripted answer: bytes to send, then close or keep serving."""

    def __init__(self, data: bytes, close: bool = False) -> None:
        self.data = data
        self.close = close


#: Read the request, then close without replying.
HANG_UP = None


class FakeWorker:
    """A loopback server that reads whole requests and answers by script.

    Each delivered request consumes the next script entry (``HANG_UP``
    once the script runs out).  The request paths land in ``deliveries``.
    """

    def __init__(self, script: list[Reply | None]) -> None:
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.script = list(script)
        self.deliveries: list[str] = []
        self._lock = threading.Lock()
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:  # listener closed at teardown
                return
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn: socket.socket) -> None:
        with conn, conn.makefile("rb") as reader:
            while True:
                path = _read_request(reader)
                if path is None:
                    return
                with self._lock:
                    self.deliveries.append(path)
                    step = self.script.pop(0) if self.script else HANG_UP
                if step is HANG_UP:
                    return
                conn.sendall(step.data)
                if step.close:
                    return


def _read_request(reader) -> str | None:
    """Consume one request; its path, or None at EOF."""
    line = reader.readline()
    if not line:
        return None
    length = 0
    while True:
        header = reader.readline()
        if header in (b"\r\n", b""):
            break
        name, _, value = header.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    reader.read(length)
    return line.split()[1].decode()


@pytest.fixture
def router():
    """``start(fake)`` serves a router whose one worker link is ``fake``."""
    started: list[tuple[ThreadingHTTPServer, threading.Thread, PoolServer]] = []

    def start(fake: FakeWorker, request_timeout: float = 5.0) -> tuple[str, int]:
        pool = PoolServer(
            QueryService(), workers=1, request_timeout=request_timeout, preload=False
        )
        pool._links = [_WorkerLink(0, fake.listener)]
        handler = type(
            "TestRouter", (RouterHandler,), {"pool": pool, "timeout": request_timeout}
        )
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        server.daemon_threads = True
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        started.append((server, thread, pool))
        return server.server_address[:2]

    yield start
    for server, thread, pool in started:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()
        pool.close()


def _post(addr, path: str, payload: dict) -> tuple[int, dict, http.client.HTTPResponse]:
    # a router that waited on the relay's read timeout would trip this
    # client's much shorter one
    conn = http.client.HTTPConnection(*addr, timeout=10.0)
    try:
        conn.request(
            "POST", path, body=json.dumps(payload),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read()), response
    finally:
        conn.close()


@pytest.mark.parametrize(
    "path,payload",
    [("/v1/update", UPDATE), ("/v1/batch", BATCH_UPDATE)],
    ids=["update", "batch-with-update"],
)
def test_index_mutating_request_is_delivered_once(router, path, payload):
    fake = FakeWorker([HANG_UP, HANG_UP])
    status, body, _ = _post(router(fake), path, payload)
    assert status == 503
    assert body["error"]["type"] == "PoolWorkerUnavailable"
    assert fake.deliveries == [path]


def test_idempotent_request_is_delivered_twice(router):
    fake = FakeWorker([HANG_UP, HANG_UP])
    status, body, _ = _post(router(fake), "/v1/test", TEST)
    assert status == 503
    assert body["error"]["type"] == "PoolWorkerUnavailable"
    assert fake.deliveries == ["/v1/test", "/v1/test"]


def test_idempotent_retry_relays_the_second_reply(router):
    fake = FakeWorker([HANG_UP, Reply(GOOD)])
    status, body, response = _post(router(fake), "/v1/test", TEST)
    assert status == 200
    assert body == {"ok": True}
    assert fake.deliveries == ["/v1/test", "/v1/test"]
    assert response.getheader("Content-Type") == "application/json"
    assert response.getheader("X-Trace-Id") == "0123456789abcdef"
    assert response.getheader("X-Repro-Worker") == "0"


UNFRAMEABLE = {
    "garbage-status-line": Reply(b"SPDY/9 banana\r\n\r\n"),
    "no-content-length": Reply(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{}"
    ),
    "short-body": Reply(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{}", close=True),
}


@pytest.mark.parametrize("reply", UNFRAMEABLE.values(), ids=UNFRAMEABLE.keys())
@pytest.mark.parametrize(
    "path,payload,deliveries",
    [("/v1/test", TEST, 2), ("/v1/update", UPDATE, 1)],
    ids=["test", "update"],
)
def test_unframeable_reply_is_a_transport_error(router, reply, path, payload, deliveries):
    fake = FakeWorker([reply, reply])
    status, body, _ = _post(router(fake), path, payload)
    assert status == 503
    assert body["error"]["type"] == "PoolWorkerUnavailable"
    assert fake.deliveries == [path] * deliveries


OVERSIZED_HEADS = {
    "long-header-line": Reply(b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 70_000),
    "101-headers": Reply(b"HTTP/1.1 200 OK\r\n" + b"X-Many: 1\r\n" * 101),
}


@pytest.mark.parametrize("reply", OVERSIZED_HEADS.values(), ids=OVERSIZED_HEADS.keys())
def test_oversized_reply_head_fails_at_its_bound(router, reply):
    """The fake keeps the connection open after the oversized head, so a
    relay that kept reading would wait out its 60 s read timeout; the
    client's 10 s timeout would fail the test first."""
    fake = FakeWorker([reply, reply])
    status, body, _ = _post(router(fake, request_timeout=60.0), "/v1/test", TEST)
    assert status == 503
    assert body["error"]["type"] == "PoolWorkerUnavailable"
    assert fake.deliveries == ["/v1/test", "/v1/test"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="PoolServer needs os.fork")
def test_update_after_idle_pool_is_applied_once():
    """The worker closes a keep-alive connection idle past its
    ``request_timeout``; the router must not send the next (unreplayable)
    update down that dead socket."""
    pool = PoolServer(
        QueryService(), port=0, workers=1, shards=1, request_timeout=1.0, preload=False
    )
    pool.start()
    thread = threading.Thread(target=pool.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = pool.address
        client = ServiceClient(f"http://{host}:{port}", timeout=30.0)
        assert client.update(SPEC, QUERY, "insert", (0, 2)) == 1
        time.sleep(2.0)  # idle past the worker's 1 s request_timeout
        assert client.update(SPEC, QUERY, "insert", (0, 3)) == 2
        assert client.update(SPEC, QUERY, "insert", (0, 4)) == 3
    finally:
        pool.shutdown()
        pool.close()
        thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="PoolServer needs os.fork")
def test_concurrent_relays_never_cross_replies():
    """Router threads share each link's socket pool; a socket handed to two
    threads at once would cross their replies.  Eight clients (more than
    cores) each check every answer against an in-process index, with the
    interpreter switching threads as often as it can."""
    spec = family_spec("grid", 64, seed=1)
    oracle = open_index(FAMILIES["grid"](64, seed=1), QUERY)
    pool = PoolServer(QueryService(), port=0, workers=1, preload=False)
    pool.start()
    thread = threading.Thread(target=pool.serve_forever, daemon=True)
    thread.start()
    host, port = pool.address

    def client(cid: int) -> bool:
        mine = ServiceClient(f"http://{host}:{port}", timeout=30.0)
        return all(
            mine.next_solution(spec, QUERY, (cid, k)) == oracle.next_solution((cid, k))
            for k in range(0, 64, 2)
        )

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as executor:
            agreed = list(executor.map(client, range(8)))
    finally:
        sys.setswitchinterval(switch)
        pool.shutdown()
        pool.close()
        thread.join(timeout=10)
    assert agreed == [True] * 8
    assert not thread.is_alive()
