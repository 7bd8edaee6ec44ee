"""End-to-end HTTP tests: in-process server, stdlib client, real sockets."""

from __future__ import annotations

import json
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from urllib.error import HTTPError
from urllib.request import Request, urlopen

import pytest

from repro import metrics
from repro.core.engine import build_index
from repro.graphs.generators import random_tree
from repro.serve.client import ServiceClient, ServiceClientError, inline_spec
from repro.serve.http import create_server
from repro.serve.service import QueryService

QUERY = "E(x, y)"
GRAPH = random_tree(40, seed=3)
ORACLE = build_index(GRAPH, QUERY)


@pytest.fixture(scope="module")
def server_url():
    service = QueryService(max_page_size=100, default_page_size=25)
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


def test_health_and_stats(client):
    assert client.health() is True
    stats = client.stats()
    assert stats["max_page_size"] == 100


def test_test_endpoint(client, spec):
    hit = next(ORACLE.enumerate())
    assert client.test(spec, QUERY, hit) is True
    assert client.test(spec, QUERY, (0, 0)) is False
    assert client.last_index_meta["method"] == "indexed"


def test_next_endpoint(client, spec):
    assert client.next_solution(spec, QUERY, (0, 0)) == ORACLE.next_solution((0, 0))
    assert client.next_solution(spec, QUERY, (10**6, 0)) is None


def test_enumerate_paginates_transparently(client, spec):
    got = list(client.enumerate(spec, QUERY, page_size=7))
    assert got == list(ORACLE.enumerate())


def test_enumerate_page_cursor_roundtrip(client, spec):
    oracle = list(ORACLE.enumerate())
    items, cursor = client.enumerate_page(spec, QUERY, limit=10)
    assert items == oracle[:10]
    assert cursor == oracle[10]
    rest, end = client.enumerate_page(spec, QUERY, cursor=cursor, limit=100)
    assert rest == oracle[10:]
    assert end is None


def test_count_endpoint(client, spec):
    assert client.count(spec, QUERY) == ORACLE.count()


def test_explain_endpoint(client):
    report = client.explain(QUERY)
    assert report["decomposable"] is True


def test_cold_miss_then_warm_hit(client):
    # a query text nobody else in this module uses -> a guaranteed cold key
    query = "E(x, y) & E(y, x)"
    spec = inline_spec(GRAPH)
    client.count(spec, query)
    first = client.last_index_meta["status"]
    client.count(spec, query)
    second = client.last_index_meta["status"]
    assert first == "built" and second == "hit"


def test_metrics_endpoint(client, spec):
    with metrics.collect(ops=False):
        client.count(spec, QUERY)
        dump = client.metrics()
    assert dump["collecting"] is True
    assert dump["cache"]["hits"] >= 1
    assert "serve.cache_hits" in dump["registry"]["counters"]


def test_metrics_percentiles_are_the_export_bucket_estimates(client, spec):
    """One histogram model: /metrics JSON quantiles come from /v1/export's buckets."""
    with metrics.collect(ops=False):
        list(client.enumerate(spec, QUERY, page_size=50))
        before = client.export()["metrics"]["histograms"]
        dump = client.metrics()["registry"]["histograms"]
        after = client.export()["metrics"]["histograms"]
    # a request's latency lands just after its response, so compare only
    # histograms no request touched between the three reads
    stable = [name for name in dump if before.get(name) == after.get(name)]
    assert "enumeration.delay_seconds" in stable
    for name in stable:
        for q in (50, 95, 99):
            assert dump[name][f"p{q}"] == metrics.percentile_from_buckets(after[name], q)
        assert dump[name]["count"] == after[name]["count"]
        assert dump[name]["max"] == after[name]["max"]


def test_prometheus_histograms_are_cumulative(client, spec):
    with metrics.collect(ops=False):
        list(client.enumerate(spec, QUERY, page_size=50))
        text = client.prometheus()
    families = re.findall(r"^# TYPE (\S+) (\w+)$", text, re.M)
    histograms = [name for name, kind in families if kind == "histogram"]
    assert "summary" not in {kind for _, kind in families}
    assert "repro_enumeration_delay_seconds" in histograms
    for metric in histograms:
        buckets = re.findall(
            rf'^{metric}_bucket\{{le="([^"]+)"\}} (\d+)$', text, re.M
        )
        counts = [int(count) for _, count in buckets]
        assert counts == sorted(counts)  # cumulative
        assert buckets[-1][0] == "+Inf"
        total = re.search(rf"^{metric}_count (\d+)$", text, re.M)
        assert total is not None and int(total.group(1)) == counts[-1]


# ----------------------------------------------------------------------
# HTTP-level failure modes


def test_unknown_route_404(client, server_url):
    with pytest.raises(ServiceClientError) as err:
        client._get("/v1/nope")
    assert err.value.status == 404
    request = Request(server_url + "/v1/nope", data=b"{}", method="POST")
    with pytest.raises(HTTPError) as raw:
        urlopen(request, timeout=10)
    assert raw.value.code == 404


def test_invalid_json_body_400(server_url):
    request = Request(
        server_url + "/v1/test",
        data=b"this is not json",
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(HTTPError) as err:
        urlopen(request, timeout=10)
    assert err.value.code == 400
    payload = json.loads(err.value.read())
    assert payload["ok"] is False and "JSON" in payload["error"]["message"]


def test_non_object_body_400(server_url):
    request = Request(
        server_url + "/v1/test", data=b"[1, 2, 3]", method="POST"
    )
    with pytest.raises(HTTPError) as err:
        urlopen(request, timeout=10)
    assert err.value.code == 400


def test_bad_query_400(client, spec):
    with pytest.raises(ServiceClientError) as err:
        client.count(spec, "E(x,")
    assert err.value.status == 400
    assert err.value.payload["error"]["type"] == "BadRequest"


def test_wrong_arity_400(client, spec):
    with pytest.raises(ServiceClientError) as err:
        client.test(spec, QUERY, (0, 1, 2))
    assert err.value.status == 400 and "arity" in str(err.value)


def test_oversized_page_400(client, spec):
    with pytest.raises(ServiceClientError) as err:
        client.enumerate_page(spec, QUERY, limit=101)
    assert err.value.status == 400 and "cap" in str(err.value)


def test_oversized_body_rejected():
    service = QueryService()
    server = create_server(service, port=0, max_body_bytes=64)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        body = json.dumps({"edge_list": "x" * 200, "query": QUERY}).encode()
        request = Request(f"http://{host}:{port}/v1/test", data=body, method="POST")
        with pytest.raises(HTTPError) as err:
            urlopen(request, timeout=10)
        assert err.value.code == 400
        assert b"cap" in err.value.read()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def test_connection_refused_is_client_error():
    client = ServiceClient("http://127.0.0.1:1", timeout=2.0)
    with pytest.raises(ServiceClientError) as err:
        client.count(inline_spec(GRAPH), QUERY)
    assert err.value.status == 0
    assert client.health() is False


# ----------------------------------------------------------------------
# concurrency through real sockets


def test_eight_concurrent_clients_agree_with_oracle(server_url):
    """The acceptance-criteria smoke: 8 clients, one shared index, no lies."""
    query = "exists z. E(x, z) & E(z, y)"  # cold key for this test
    oracle = build_index(GRAPH, query)
    solutions = list(oracle.enumerate())
    before = ServiceClient(server_url).stats()["cache"]["builds"]
    barrier = threading.Barrier(8)

    def hammer(worker: int) -> list[str]:
        client = ServiceClient(server_url, timeout=60.0)
        spec = inline_spec(GRAPH)
        barrier.wait()  # all 8 arrive at the cold cache together
        errors = []
        if client.count(spec, query) != len(solutions):
            errors.append("count disagreed")
        probe = solutions[worker % len(solutions)]
        if client.test(spec, query, probe) is not True:
            errors.append(f"test{probe} disagreed")
        if client.next_solution(spec, query, probe) != probe:
            errors.append(f"next{probe} disagreed")
        page, _ = client.enumerate_page(spec, query, limit=5)
        if page != solutions[:5]:
            errors.append("first page disagreed")
        return errors

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(hammer, range(8)))
    assert [msg for worker in results for msg in worker] == []

    # dedup held: the 8 simultaneous cold misses produced exactly one build
    after = ServiceClient(server_url).stats()["cache"]["builds"]
    assert after - before == 1
