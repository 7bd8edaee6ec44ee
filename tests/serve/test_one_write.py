"""Each response reaches the socket in one write, on both servers.

Headers and body in two writes meet Nagle's algorithm and the client's
delayed ACK, so on a keep-alive connection the body waits for the ACK
timer.  That stall depends on the host's TCP timers, so nothing here is
timed.  Instead a counting wrapper around each handler's ``wfile`` logs
every write per connection, and each response must be exactly one write
of exactly the bytes the client read.  Every case sends its request twice
on one keep-alive connection.  The header names and their order are
pinned as well (``Date``'s value aside).
"""

from __future__ import annotations

import json
import os
import socket
import threading
from http.server import ThreadingHTTPServer

import pytest

from repro.serve.client import family_spec
from repro.serve.http import build_handler
from repro.serve.service import QueryService

TRACE_ID = "00000000feedface"
TEST = json.dumps({**family_spec("path", 8), "query": "E(x, y)", "tuple": [0, 1]}).encode()

SINGLE = ["Server", "Date", "Content-Type", "Content-Length", "X-Trace-Id"]
OWN = ["Server", "Date", "Content-Type", "Content-Length"]
RELAYED = ["Server", "Date", "Content-Type", "X-Trace-Id", "X-Repro-Worker", "Content-Length"]


def _post(path: str, body: bytes, trace: bool = False) -> bytes:
    head = (
        f"POST {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
    )
    if trace:
        head += f"X-Trace-Id: {TRACE_ID}\r\n"
    return (head + "\r\n").encode() + body


def _get(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode()


CASES = [
    # (server, case, request, status, header names)
    ("single", "200", _post("/v1/test", TEST), 200, SINGLE),
    ("single", "200-traced", _post("/v1/test", TEST, trace=True), 200, SINGLE),
    ("single", "400", _post("/v1/test", b"{oops"), 400, SINGLE),
    ("single", "404", _get("/v1/nope"), 404, OWN),
    ("single", "metrics-text", _get("/metrics?format=prom"), 200, OWN),
    ("router", "200", _post("/v1/test", TEST), 200, RELAYED),
    ("router", "200-traced", _post("/v1/test", TEST, trace=True), 200, RELAYED),
    ("router", "400-relayed", _post("/v1/test", b"{oops"), 400, RELAYED),
    ("router", "404", _get("/v1/nope"), 404, OWN),
    ("router", "metrics-text", _get("/metrics?format=prom"), 200, OWN),
    ("dead-router", "503", _post("/v1/test", TEST), 503, OWN),
    ("dead-router", "503-traced", _post("/v1/test", TEST, trace=True), 503, OWN),
]


class _CountedWriter:
    """A handler's ``wfile``, logging the size of every write."""

    def __init__(self, wfile, writes: list[int]) -> None:
        self._wfile = wfile
        self._writes = writes

    def write(self, data: bytes) -> int:
        self._writes.append(len(data))
        return self._wfile.write(data)

    def __getattr__(self, name: str):
        return getattr(self._wfile, name)


def _counting(handler_cls: type, writes: dict[int, list[int]], **attrs) -> type:
    """``handler_cls`` logging each connection's writes by client port."""

    def setup(self) -> None:
        handler_cls.setup(self)
        log = writes.setdefault(self.client_address[1], [])
        self.wfile = _CountedWriter(self.wfile, log)

    return type(f"Counting{handler_cls.__name__}", (handler_cls,), {"setup": setup, **attrs})


@pytest.fixture(scope="module")
def servers():
    """``{name: (address, writes by client port)}`` for the three servers."""
    if not hasattr(os, "fork"):
        pytest.skip("PoolServer needs os.fork")
    from repro.serve.pool import PoolServer, RouterHandler, _WorkerLink

    pool = PoolServer(QueryService(), port=0, workers=1, preload=False)
    pool.start()  # forks the worker; the counting router below fronts it
    dead = PoolServer(QueryService(), workers=1, preload=False)
    refused = socket.create_server(("127.0.0.1", 0))
    dead._links = [_WorkerLink(0, refused)]
    refused.close()  # connecting to the worker's port is now refused
    handlers = {
        "single": lambda writes: _counting(build_handler(QueryService()), writes),
        "router": lambda writes: _counting(RouterHandler, writes, pool=pool, timeout=30.0),
        "dead-router": lambda writes: _counting(
            RouterHandler, writes, pool=dead, timeout=30.0
        ),
    }
    running = {}
    try:
        for name, make in handlers.items():
            writes: dict[int, list[int]] = {}
            server = ThreadingHTTPServer(("127.0.0.1", 0), make(writes))
            server.daemon_threads = True
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            running[name] = (server, thread, writes)
        yield {
            name: (server.server_address[:2], writes)
            for name, (server, _, writes) in running.items()
        }
    finally:
        for server, thread, _ in running.values():
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        pool.close()
        dead.close()


def _read_response(reader) -> tuple[bytes, int, list[tuple[str, str]]]:
    """One whole response: its raw bytes, status and headers."""
    raw = reader.readline()
    status = int(raw.split()[1])
    headers: list[tuple[str, str]] = []
    while True:
        line = reader.readline()
        raw += line
        if line == b"\r\n":
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers.append((name, value.strip()))
    raw += reader.read(int(dict(headers)["Content-Length"]))
    return raw, status, headers


@pytest.mark.parametrize(
    "server,request_bytes,status,names",
    [pytest.param(s, r, st, n, id=f"{s}-{c}") for s, c, r, st, n in CASES],
)
def test_each_response_is_one_write(servers, server, request_bytes, status, names):
    addr, writes = servers[server]
    with socket.create_connection(addr, timeout=30.0) as sock, sock.makefile("rb") as reader:
        port = sock.getsockname()[1]
        responses = []
        for _ in range(2):
            sock.sendall(request_bytes)
            responses.append(_read_response(reader))
    for raw, got_status, headers in responses:
        assert got_status == status
        assert [name for name, _ in headers] == names
        values = dict(headers)
        if b"X-Trace-Id" in request_bytes and "X-Trace-Id" in values:
            assert values["X-Trace-Id"] == TRACE_ID
        if "X-Repro-Worker" in values:
            assert values["X-Repro-Worker"] == "0"
            assert values["Content-Type"] == "application/json"
    assert writes[port] == [len(raw) for raw, _, _ in responses]
