"""Keep-alive correctness under malformed request framing.

HTTP/1.1 connection reuse only works when request boundaries stay in
sync.  Every body-read error path must therefore either consume the
declared body or close the connection — otherwise the unread bytes get
parsed as the *next* request line and the client sees garbage responses
for correct requests (the PR-8 bug class these tests pin down):

* oversized ``Content-Length`` — rejected without reading the body, so
  the connection MUST close;
* negative ``Content-Length`` — must be a 400, never ``read(-5)`` (which
  reads to EOF and stalls the connection until the client gives up);
* non-integer / missing ``Content-Length`` — 400 plus close;
* short bodies (client died mid-send) — 400 plus close;
* a POST to an unknown route — 404, body unread, so close.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading

import pytest

from repro.graphs.generators import random_tree
from repro.serve.client import inline_spec
from repro.serve.http import create_server
from repro.serve.service import QueryService

QUERY = "E(x, y)"
GRAPH = random_tree(30, seed=7)
MAX_BODY = 4096


@pytest.fixture(scope="module")
def addr():
    service = QueryService()
    server = create_server(service, port=0, max_body_bytes=MAX_BODY)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield host, port
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def _body() -> bytes:
    return json.dumps(
        {**inline_spec(GRAPH), "query": QUERY, "tuple": [0, 1]}
    ).encode("utf-8")


def _raw_request(headers: str, payload: bytes = b"") -> bytes:
    """One hand-rolled POST; returns everything the server sends back."""
    return headers.encode("ascii") + payload


def _exchange(addr, raw: bytes, half_close: bool = False) -> tuple[bytes, bool]:
    """Send raw bytes, read to EOF; (response bytes, connection closed?).

    ``closed`` is True when the server hung up — reading hit EOF rather
    than a timeout.  All the error paths under test must close.
    """
    host, port = addr
    with socket.create_connection((host, port), timeout=5.0) as sock:
        sock.sendall(raw)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        chunks: list[bytes] = []
        closed = False
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    closed = True
                    break
                chunks.append(chunk)
        except TimeoutError:
            closed = False
    return b"".join(chunks), closed


def test_connection_reused_across_requests(addr):
    """The happy path: N requests, one TCP connection, same socket."""
    host, port = addr
    conn = http.client.HTTPConnection(host, port, timeout=10.0)
    try:
        first_sock = None
        for _ in range(3):
            conn.request(
                "POST", "/v1/test", body=_body(),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read().decode("utf-8"))
            assert response.status == 200
            assert payload["ok"] is True
            if first_sock is None:
                first_sock = conn.sock
            assert conn.sock is first_sock  # no silent reconnect
    finally:
        conn.close()


def test_oversized_body_rejected_and_connection_closed(addr):
    """A too-large declared body is refused *unread* — the connection must
    close, or the unread body would be parsed as the next request."""
    payload = b"x" * (MAX_BODY + 100)
    raw = _raw_request(
        "POST /v1/test HTTP/1.1\r\n"
        "Host: t\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "\r\n",
        payload,
    )
    response, closed = _exchange(addr, raw)
    assert b"400" in response.split(b"\r\n", 1)[0]
    assert closed, "server must close after refusing to read the body"


def test_oversized_body_does_not_poison_pipelined_request(addr):
    """The desync scenario itself: oversized request immediately followed
    by a valid one on the same socket.  The server must never interpret
    the unread body bytes as that second request."""
    junk = b"A" * (MAX_BODY + 50)
    good = _body()
    raw = (
        _raw_request(
            "POST /v1/test HTTP/1.1\r\n"
            "Host: t\r\n"
            f"Content-Length: {len(junk)}\r\n"
            "\r\n",
            junk,
        )
        + _raw_request(
            "POST /v1/test HTTP/1.1\r\n"
            "Host: t\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(good)}\r\n"
            "\r\n",
            good,
        )
    )
    response, closed = _exchange(addr, raw)
    assert closed
    # exactly one response came back, and it is the 400 for the first
    # request — the pipelined request died with the connection instead of
    # being answered from desynced bytes
    assert response.count(b"HTTP/1.1") == 1
    assert b"400" in response.split(b"\r\n", 1)[0]


def test_negative_content_length_rejected(addr):
    raw = _raw_request(
        "POST /v1/test HTTP/1.1\r\n"
        "Host: t\r\n"
        "Content-Length: -5\r\n"
        "\r\n",
    )
    response, closed = _exchange(addr, raw)
    assert b"400" in response.split(b"\r\n", 1)[0]
    assert closed


def test_non_integer_content_length_rejected(addr):
    raw = _raw_request(
        "POST /v1/test HTTP/1.1\r\n"
        "Host: t\r\n"
        "Content-Length: banana\r\n"
        "\r\n",
    )
    response, closed = _exchange(addr, raw)
    assert b"400" in response.split(b"\r\n", 1)[0]
    assert closed


def test_missing_content_length_rejected(addr):
    raw = _raw_request(
        "POST /v1/test HTTP/1.1\r\nHost: t\r\n\r\n",
    )
    response, closed = _exchange(addr, raw)
    assert b"400" in response.split(b"\r\n", 1)[0]
    assert closed


def test_short_body_rejected_and_closed(addr):
    """Client dies mid-body: declared 100 bytes, sent 10, half-closed."""
    raw = _raw_request(
        "POST /v1/test HTTP/1.1\r\n"
        "Host: t\r\n"
        "Content-Length: 100\r\n"
        "\r\n",
        b"0123456789",
    )
    response, closed = _exchange(addr, raw, half_close=True)
    assert b"400" in response.split(b"\r\n", 1)[0]
    assert closed


def test_unknown_post_route_does_not_poison_pipelined_request(addr):
    """A 404'd POST leaves its body unread, so the connection must close
    rather than parse that body as the next request line."""
    good = _body()
    raw = _raw_request(
        "POST /v1/nope HTTP/1.1\r\n"
        "Host: t\r\n"
        f"Content-Length: {len(good)}\r\n"
        "\r\n",
        good,
    ) + _raw_request(
        "POST /v1/test HTTP/1.1\r\n"
        "Host: t\r\n"
        f"Content-Length: {len(good)}\r\n"
        "\r\n",
        good,
    )
    response, closed = _exchange(addr, raw)
    assert closed
    assert response.count(b"HTTP/1.1") == 1
    assert b"404" in response.split(b"\r\n", 1)[0]


def _read_response(sock: socket.socket) -> tuple[str, dict[str, str]]:
    """Read exactly one response off a keep-alive socket: (status, headers)."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, "server closed mid-response"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status, *lines = head.decode("latin-1").split("\r\n")
    headers = {
        name.lower(): value for name, value in (line.split(": ", 1) for line in lines)
    }
    remaining = int(headers["content-length"]) - len(body)
    while remaining > 0:
        chunk = sock.recv(remaining)
        assert chunk, "server closed mid-body"
        remaining -= len(chunk)
    return status, headers


def test_trace_id_is_not_echoed_on_later_replies(addr):
    """One handler object serves the whole keep-alive connection, so a
    traced POST's ``X-Trace-Id`` must not ride on the replies after it: a
    GET (through the pool, ``/v1/traces?worker=0`` is relayed to the
    worker over a reused socket) or a 404 for an unknown POST route."""
    trace_id = "0123456789abcdef"
    good = _body()
    with socket.create_connection(addr, timeout=10.0) as sock:
        sock.sendall(_raw_request(
            "POST /v1/test HTTP/1.1\r\n"
            "Host: t\r\n"
            "Content-Type: application/json\r\n"
            f"X-Trace-Id: {trace_id}\r\n"
            f"Content-Length: {len(good)}\r\n"
            "\r\n",
            good,
        ))
        status, headers = _read_response(sock)
        assert " 200 " in status
        assert headers.get("x-trace-id") == trace_id
        for path in ("/v1/traces?worker=0", "/healthz"):
            sock.sendall(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode("ascii"))
            status, headers = _read_response(sock)
            assert " 200 " in status, path
            assert "x-trace-id" not in headers, path
        sock.sendall(_raw_request(
            "POST /v1/nope HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\n", b"{}"
        ))
        status, headers = _read_response(sock)
        assert " 404 " in status
        assert "x-trace-id" not in headers
