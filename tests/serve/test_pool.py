"""Pre-fork pool: routing determinism and a live worker-pool lifecycle."""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import urllib.request

import pytest

from repro.core.engine import build_index
from repro.graphs.generators import FAMILIES
from repro.persist import cache_path, index_fingerprint, save_index
from repro.serve.client import ServiceClient, family_spec
from repro.serve.pool import routing_key, shard_for
from repro.serve.service import QueryService

QUERY = "E(x, y)"


# ----------------------------------------------------------------------
# routing (pure functions, no processes)


def test_routing_key_is_deterministic():
    payload = {"family": "grid", "n": 100, "seed": 1, "query": QUERY}
    assert routing_key(payload) == routing_key(dict(payload))
    assert routing_key(payload) == routing_key(
        {"query": QUERY, "seed": 1, "n": 100, "family": "grid"}  # order-free
    )


def test_routing_key_separates_graph_specs():
    keys = {
        routing_key({"family": "grid", "n": 100, "query": QUERY}),
        routing_key({"family": "grid", "n": 200, "query": QUERY}),
        routing_key({"family": "path", "n": 100, "query": QUERY}),
        routing_key({"edge_list": "0 1\n1 2\n", "query": QUERY}),
        routing_key({"graph_path": "g.el", "query": QUERY}),
        routing_key({"family": "grid", "n": 100, "query": "E(x, y) & E(y, x)"}),
    }
    assert len(keys) == 6


def test_routing_key_tolerates_garbage():
    # unroutable payloads still get a stable key (worker 0 renders the 400)
    assert routing_key(None) == routing_key(None)
    assert routing_key([1, 2]) == routing_key([1, 2])
    assert routing_key({"graph": {"a": object()}}) is not None


def test_shard_for_is_stable_and_in_range():
    for shards in (1, 2, 7, 64):
        for n in range(50):
            key = routing_key({"family": "grid", "n": n, "query": QUERY})
            shard = shard_for(key, shards)
            assert 0 <= shard < shards
            assert shard == shard_for(key, shards)


def test_shards_spread_across_workers():
    hits = {
        shard_for(
            routing_key({"family": "grid", "n": n, "query": QUERY}), 8
        ) % 4
        for n in range(64)
    }
    assert len(hits) > 1  # not everything lands on one worker


# ----------------------------------------------------------------------
# a live pool (fork + sockets); one heavier module-scoped fixture


pytestmark_pool = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="PoolServer needs os.fork"
)

N = 144
SEED = 5


@pytest.fixture(scope="module")
def pool():
    if not hasattr(os, "fork"):
        pytest.skip("PoolServer needs os.fork")
    import tempfile

    from repro.serve.pool import PoolServer

    with tempfile.TemporaryDirectory(prefix="repro-pool-test-") as tmp:
        graph = FAMILIES["grid"](N, seed=SEED)
        index = build_index(graph, QUERY)
        fingerprint = index_fingerprint(graph, QUERY)
        save_index(index, cache_path(tmp, fingerprint), fingerprint)

        service = QueryService(snapshot_dir=tmp)
        server = PoolServer(service, port=0, workers=2, shards=4)
        server.start()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server
        finally:
            server.shutdown()
            server.close()
            thread.join(timeout=10)


@pytest.fixture
def pool_client(pool):
    host, port = pool.address
    return ServiceClient(f"http://{host}:{port}", timeout=30.0)


ORACLE = None


def _oracle():
    global ORACLE
    if ORACLE is None:
        ORACLE = build_index(FAMILIES["grid"](N, seed=SEED), QUERY)
    return ORACLE


@pytestmark_pool
def test_pool_answers_match_oracle(pool_client):
    oracle = _oracle()
    spec = family_spec("grid", N, seed=SEED)
    hit = next(oracle.enumerate())
    assert pool_client.test(spec, QUERY, hit) is True
    assert pool_client.test(spec, QUERY, (0, 0)) is False
    assert pool_client.next_solution(spec, QUERY, (0, 0)) == (
        oracle.next_solution((0, 0))
    )
    results = pool_client.batch(
        spec, QUERY, [("test", hit), ("next", (0, 0))]
    )
    assert results == [True, oracle.next_solution((0, 0))]


@pytestmark_pool
def test_pool_preload_serves_warm(pool_client):
    """The preloaded snapshot means the very first request is a cache hit."""
    spec = family_spec("grid", N, seed=SEED)
    pool_client.test(spec, QUERY, (0, 0))
    assert pool_client.last_index_meta["status"] == "hit"


@pytestmark_pool
def test_pool_stats_aggregate(pool, pool_client):
    stats = pool_client.stats()
    assert stats["pool"]["workers"] == 2
    assert stats["pool"]["shards"] == 4
    assert stats["pool"]["preloaded"] == 1
    assert stats["pool"]["shared_arena_bytes"] > 0
    workers = stats["workers"]
    assert len(workers) == 2
    owned = sorted(tuple(w["worker"]["shards"]) for w in workers)
    assert owned == [(0, 2), (1, 3)]
    for w in workers:
        assert w["worker"]["pid"] != stats["pool"]["pid"]


@pytestmark_pool
def test_pool_worker_header_and_affinity(pool):
    """Same request spec -> same worker, reported via X-Repro-Worker."""
    host, port = pool.address
    body = json.dumps(
        {**family_spec("grid", N, seed=SEED), "query": QUERY, "tuple": [0, 0]}
    ).encode()
    seen = set()
    for _ in range(3):
        request = urllib.request.Request(
            f"http://{host}:{port}/v1/test", data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30.0) as response:
            seen.add(response.headers["X-Repro-Worker"])
    assert len(seen) == 1


@pytestmark_pool
def test_pool_respawns_dead_worker(pool, pool_client):
    stats = pool_client.stats()
    victim = int(stats["workers"][0]["worker"]["pid"])
    os.kill(victim, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if pool.pool_stats()["respawns"] >= 1:
            break
        time.sleep(0.05)
    assert pool.pool_stats()["respawns"] >= 1
    # and the pool still answers — the router retries across the respawn
    spec = family_spec("grid", N, seed=SEED)
    assert pool_client.test(spec, QUERY, (0, 0)) is False
    pids = {
        w["worker"]["pid"]
        for w in pool_client.stats()["workers"]
        if "worker" in w
    }
    assert victim not in pids
