"""The pool observability plane over a live pre-fork pool.

One module-scoped pool (fork + sockets) exercises the whole tentpole:
merged Prometheus exposition with per-worker labels, cross-process
trace stitching via ``X-Trace-Id``/``X-Parent-Span``, the pool-wide
``guarantee`` block, and the fan-in sampling profiler.
"""

from __future__ import annotations

import json
import os
import re
import threading
import urllib.request

import pytest

from repro.graphs.generators import FAMILIES
from repro.serve.client import ServiceClient, family_spec
from repro.serve.service import QueryService
from repro.trace import new_trace_id

QUERY = "E(x, y)"
N = 100
SEED = 3

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="PoolServer needs os.fork"
)


@pytest.fixture(scope="module")
def pool():
    if not hasattr(os, "fork"):
        pytest.skip("PoolServer needs os.fork")
    from repro.serve.pool import PoolServer
    from repro.trace.watchdog import Watchdog

    server = PoolServer(
        QueryService(),
        port=0,
        workers=2,
        shards=4,
        watchdog_factory=lambda: Watchdog(budget_seconds=5.0),
    )
    server.start()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.close()
        thread.join(timeout=10)


@pytest.fixture(scope="module")
def client(pool):
    host, port = pool.address
    client = ServiceClient(f"http://{host}:{port}", timeout=30.0)
    # traffic for both workers so every observability surface has data:
    # distinct graph specs hash to distinct shards
    for seed in range(6):
        spec = family_spec("grid", N, seed=seed)
        client.test(spec, QUERY, (0, 1))
        list(client.enumerate(spec, QUERY, page_size=50))
    return client


def _request(client, path, headers=None, data=None):
    request = urllib.request.Request(
        client.base_url + path, data=data, headers=headers or {}
    )
    with urllib.request.urlopen(request, timeout=30.0) as response:
        return response.status, dict(response.headers), response.read()


# ----------------------------------------------------------------------
# /metrics: negotiation + the merged exposition


def test_pool_metrics_defaults_to_json(client):
    payload = client.metrics()
    assert payload["ok"] is True
    assert payload["merged"]["version"] == 1
    assert len(payload["workers"]) == 2
    histograms = payload["merged"]["histograms"]
    assert any(name.startswith("serve.request_seconds.") for name in histograms)


def test_pool_metrics_negotiates_prometheus_via_accept(client):
    """Regression: the pooled /metrics used to ignore prom negotiation."""
    status, headers, body = _request(
        client, "/metrics", headers={"Accept": "text/plain"}
    )
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
    assert b"# TYPE" in body

    status, headers, _ = _request(client, "/metrics?format=prom")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain; version=0.0.4")

    # explicit JSON accept keeps JSON even with text/plain also listed
    status, headers, body = _request(
        client, "/metrics", headers={"Accept": "application/json, text/plain"}
    )
    assert headers["Content-Type"].startswith("application/json")
    assert json.loads(body)["ok"] is True


def test_pool_merged_histogram_count_is_sum_of_workers(client):
    text = client.prometheus()
    metric = "repro_serve_request_seconds__v1_test"
    merged = re.search(rf"^{metric}_count (\d+)$", text, re.M)
    assert merged is not None, text
    per_worker = re.findall(rf'^{metric}_count\{{worker="(\d+)"\}} (\d+)$', text, re.M)
    assert {wid for wid, _ in per_worker} == {"0", "1"}
    assert int(merged.group(1)) == sum(int(count) for _, count in per_worker)
    assert int(merged.group(1)) >= 6

    # real histogram type with cumulative le buckets ending at +Inf
    assert f"# TYPE {metric} histogram" in text
    buckets = re.findall(rf"^{metric}_bucket\{{le=\"([^\"]+)\"\}} (\d+)$", text, re.M)
    assert buckets and buckets[-1][0] == "+Inf"
    counts = [int(count) for _, count in buckets]
    assert counts == sorted(counts)  # cumulative
    assert counts[-1] == int(merged.group(1))

    # pool-level gauges are unlabeled; worker gauges carry the label
    assert re.search(r"^repro_pool_workers 2$", text, re.M)
    assert re.search(r'^repro_serve_cache_\w+\{worker="0"\}', text, re.M)


# ----------------------------------------------------------------------
# /v1/traces: worker filter, fan-in, stitching


def test_pool_traces_worker_filter_still_proxies(client):
    status, _, body = _request(client, "/v1/traces?worker=0&limit=5")
    payload = json.loads(body)
    assert payload["ok"] is True
    assert "capacity" in payload  # a single worker's local view


def test_pool_traces_fan_in_all_workers(client):
    trace_id = new_trace_id()
    spec = family_spec("grid", N, seed=1)
    body = json.dumps({**spec, "query": QUERY, "tuple": [0, 1]}).encode()
    _request(
        client,
        "/v1/test",
        headers={"Content-Type": "application/json", "X-Trace-Id": trace_id},
        data=body,
    )
    status, _, raw = _request(client, "/v1/traces?limit=10")
    payload = json.loads(raw)
    assert payload["ok"] is True
    assert payload["worker"] == "all"
    ours = [t for t in payload["traces"] if t["trace_id"] == trace_id]
    assert len(ours) == 1  # parent + worker folded into one summary
    assert ours[0]["name"] == "pool.route"
    assert set(ours[0]["sources"]) >= {"parent"}
    assert any(s.startswith("worker:") for s in ours[0]["sources"])


def test_pool_stitches_cross_process_tree(client):
    trace_id = new_trace_id()
    spec = family_spec("grid", N, seed=2)
    body = json.dumps({**spec, "query": QUERY, "tuple": [0, 1]}).encode()
    status, headers, _ = _request(
        client,
        "/v1/test",
        headers={"Content-Type": "application/json", "X-Trace-Id": trace_id},
        data=body,
    )
    assert headers["X-Trace-Id"] == trace_id  # round-trips through the proxy

    status, _, raw = _request(client, f"/v1/traces?trace_id={trace_id}")
    stitched = json.loads(raw)["trace"]
    assert stitched["stitched"] is True
    assert stitched["trace_id"] == trace_id
    assert "parent" in stitched["sources"]
    assert any(s.startswith("worker:") for s in stitched["sources"])

    # one tree: pool.route at the root, the worker's request span under it
    assert len(stitched["tree"]) == 1
    root = stitched["tree"][0]
    assert root["name"] == "pool.route"
    names = {child["name"] for child in root["children"]}
    assert "POST /v1/test" in names
    assert "pool.forward" in names
    request_span = next(
        child for child in root["children"] if child["name"] == "POST /v1/test"
    )
    assert request_span["source"].startswith("worker:")
    assert request_span["parent_id"] == root["span_id"]


def test_pool_untraced_requests_record_nothing(client, pool):
    before = len(pool.trace_buffer)
    spec = family_spec("grid", N, seed=1)
    client.test(spec, QUERY, (0, 1))  # no X-Trace-Id
    assert len(pool.trace_buffer) == before


def test_pool_traces_rejects_bad_trace_id(client):
    with pytest.raises(urllib.request.HTTPError) as err:
        _request(client, "/v1/traces?trace_id=not-hex!")
    assert err.value.code == 400


# ----------------------------------------------------------------------
# /v1/stats: the pool-wide guarantee block


def test_pool_stats_carries_guarantee_and_endpoints(client):
    stats = client.stats()
    guarantee = stats["guarantee"]
    assert guarantee["workers"] == 2
    assert guarantee["reporting"] == 2
    assert guarantee["held"] is True  # generous 5s budget: no violations
    assert guarantee["violations"] == {"delay": 0, "ops": 0}
    assert guarantee["burn_rate"] == {"delay": 0.0, "ops": 0.0}
    assert guarantee["budget_seconds"]["min"] == 5.0
    assert set(guarantee["per_worker"]) == {"0", "1"}

    endpoints = stats["endpoints"]
    assert "/v1/test" in endpoints
    assert endpoints["/v1/test"]["count"] >= 6
    assert 0.0 < endpoints["/v1/test"]["p95"] <= 2 * endpoints["/v1/test"]["max"]

    # the original shape is intact for existing consumers
    assert stats["pool"]["workers"] == 2
    assert len(stats["workers"]) == 2


# ----------------------------------------------------------------------
# /v1/profile: pool-wide sampling


def test_pool_profile_merges_all_workers(client):
    payload = client.profile(seconds=0.4, hz=500)
    assert payload["ok"] is True
    assert set(payload["workers"]) == {"0", "1"}
    profile = payload["profile"]
    assert profile["samples"] > 0
    assert profile["stacks"]
    assert all(count > 0 for count in profile["stacks"].values())


def test_profile_rejects_bad_params_on_both_servers(pool):
    """The router and a single server share one copy of the
    ``/v1/profile`` checks: each bad input gets the same 400 body."""
    from repro.serve.http import create_server

    cases = {
        "seconds=99": "'seconds' must be in (0, 30], got 99",
        "seconds=0.2&hz=9999": "'hz' must be in [1, 1000], got 9999",
        "seconds=abc": "'seconds' and 'hz' must be numbers",
    }
    single = create_server(QueryService(), port=0)
    thread = threading.Thread(target=single.serve_forever, daemon=True)
    thread.start()
    try:
        for host, port in (pool.address, single.server_address[:2]):
            for query, message in cases.items():
                with pytest.raises(urllib.request.HTTPError) as err:
                    urllib.request.urlopen(
                        f"http://{host}:{port}/v1/profile?{query}", timeout=30.0
                    )
                assert err.value.code == 400
                assert json.loads(err.value.read()) == {
                    "ok": False,
                    "error": {"type": "BadRequest", "message": message},
                }
    finally:
        single.shutdown()
        single.server_close()
        thread.join(timeout=10)
