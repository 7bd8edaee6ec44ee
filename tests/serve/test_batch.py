"""``/v1/batch`` oracle tests plus client-side decode hardening."""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.core.engine import open_index
from repro.graphs.generators import grid
from repro.serve.client import ServiceClient, ServiceClientError, inline_spec
from repro.serve.http import create_server
from repro.serve.service import BadRequest, QueryService

QUERY = "E(x, y)"
GRAPH = grid(6, 6, seed=2)
ORACLE = open_index(GRAPH, QUERY)


@pytest.fixture(scope="module")
def server_url():
    service = QueryService(max_batch_calls=16)
    server = create_server(service, port=0)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


@pytest.fixture
def client(server_url):
    return ServiceClient(server_url, timeout=30.0)


@pytest.fixture
def spec():
    return inline_spec(GRAPH)


def test_batch_matches_oracle(client, spec):
    hit = next(ORACLE.enumerate())
    calls = [
        ("test", hit),
        ("test", (0, 0)),
        ("next", (0, 0)),
        ("next", hit),
        ("next", (10**6, 10**6)),
    ]
    results = client.batch(spec, QUERY, calls)
    assert results == [
        ORACLE.test(hit),
        ORACLE.test((0, 0)),
        ORACLE.next_solution((0, 0)),
        ORACLE.next_solution(hit),
        None,
    ]


def test_batch_resolves_index_once(client, spec):
    client.batch(spec, QUERY, [("test", (0, 1))] * 4)
    before = client.stats()["cache"]["hits"]
    client.batch(spec, QUERY, [("test", (0, 1))] * 4)
    # one more batch = exactly one more cache hit, not one per call
    assert client.stats()["cache"]["hits"] == before + 1


def test_batch_rejects_empty_calls(client, spec):
    with pytest.raises(ServiceClientError) as err:
        client.batch(spec, QUERY, [])
    assert err.value.status == 400


def test_batch_rejects_unknown_op(client, spec):
    with pytest.raises(ServiceClientError) as err:
        client.batch(spec, QUERY, [("count", (0, 1))])
    assert err.value.status == 400


def test_batch_enforces_call_cap(client, spec):
    with pytest.raises(ServiceClientError) as err:
        client.batch(spec, QUERY, [("test", (0, 1))] * 17)
    assert err.value.status == 400


def test_batch_rejects_wrong_arity(client, spec):
    with pytest.raises(ServiceClientError) as err:
        client.batch(spec, QUERY, [("test", (0, 1, 2))])
    assert err.value.status == 400


def test_service_validates_calls_shape():
    service = QueryService(max_batch_calls=4)
    payload = {**inline_spec(GRAPH), "query": QUERY, "calls": "nope"}
    with pytest.raises(BadRequest):
        service.handle_batch(payload)


# ----------------------------------------------------------------------
# client decode hardening: a 200 with a garbage body must surface as a
# typed client error, not an anonymous json.JSONDecodeError


def _one_shot_garbage_server() -> tuple[str, int, threading.Thread]:
    """A server that answers any request with 200 and a non-JSON body."""
    listener = socket.create_server(("127.0.0.1", 0))
    host, port = listener.getsockname()[:2]

    def serve() -> None:
        with listener:
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(5.0)
                buffered = b""
                while b"\r\n\r\n" not in buffered:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    buffered += chunk
                body = b"<html>proxy error</html>"
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: text/html\r\n"
                    b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                    b"Connection: close\r\n\r\n" + body
                )

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return host, port, thread


def test_client_raises_on_non_json_200():
    host, port, thread = _one_shot_garbage_server()
    client = ServiceClient(f"http://{host}:{port}", timeout=5.0)
    with pytest.raises(ServiceClientError) as err:
        client.stats()
    thread.join(timeout=5)
    assert err.value.status == 200
    assert "not valid JSON" in str(err.value)
    # the offending payload rides along for debugging, capped
    assert b"proxy error" in err.value.payload
