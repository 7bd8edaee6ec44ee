"""IndexCache: LRU behavior, snapshot tier, and build deduplication."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.engine import open_index
from repro.graphs.generators import random_tree
from repro.serve.cache import BuildWaitTimeout, IndexCache, TooManyBuilds


@pytest.fixture
def graph():
    return random_tree(30, seed=5)


class CountingBuild:
    """A build_fn wrapper that counts calls and can stall on an event."""

    def __init__(self, gate: threading.Event | None = None, error: Exception | None = None):
        self.calls = 0
        self.gate = gate
        self.error = error
        self._lock = threading.Lock()

    def __call__(self, graph, query, *, free_order=None, method="auto", config=None):
        with self._lock:
            self.calls += 1
        if self.gate is not None:
            assert self.gate.wait(10.0)
        if self.error is not None:
            raise self.error
        return open_index(graph, query, free_order=free_order, method=method)


def test_miss_then_hit(graph):
    cache = IndexCache(max_entries=4)
    ix1, status1 = cache.get(graph, "E(x, y)")
    ix2, status2 = cache.get(graph, "E(x, y)")
    assert status1 == "built" and status2 == "hit"
    assert ix1 is ix2
    assert cache.stats["builds"] == 1 and cache.stats["hits"] == 1


def test_distinct_queries_distinct_entries(graph):
    cache = IndexCache(max_entries=4)
    ix1, _ = cache.get(graph, "E(x, y)")
    ix2, _ = cache.get(graph, "dist(x, y) <= 2")
    assert ix1 is not ix2
    assert len(cache) == 2


def test_lru_eviction(graph):
    cache = IndexCache(max_entries=2)
    cache.get(graph, "E(x, y)")
    cache.get(graph, "dist(x, y) <= 2")
    cache.get(graph, "E(x, y) & E(y, x)")  # evicts the oldest
    assert len(cache) == 2
    assert cache.stats["evictions"] == 1
    # the evicted key rebuilds; the survivors still hit
    _, status = cache.get(graph, "E(x, y)")
    assert status == "built"


def test_concurrent_misses_build_exactly_once(graph):
    """The tentpole dedup guarantee: N cold misses, one build."""
    gate = threading.Event()
    builds = CountingBuild(gate=gate)
    cache = IndexCache(max_entries=4, build_fn=builds)
    started = threading.Barrier(8 + 1)

    def fetch(_):
        started.wait()
        return cache.get(graph, "E(x, y)")

    with ThreadPoolExecutor(max_workers=8) as pool:
        futures = [pool.submit(fetch, i) for i in range(8)]
        started.wait()  # all 8 requests are in flight before the build finishes
        gate.set()
        results = [f.result(timeout=30) for f in futures]

    assert builds.calls == 1
    statuses = sorted(status for _, status in results)
    assert statuses.count("built") == 1
    assert statuses.count("joined") + statuses.count("hit") == 7
    first = results[0][0]
    assert all(ix is first for ix, _ in results)


def test_snapshot_cold_start(graph, tmp_path):
    warm = IndexCache(max_entries=4, snapshot_dir=tmp_path)
    _, status = warm.get(graph, "E(x, y)")
    assert status == "built"
    assert list(tmp_path.glob("*.rpx"))  # the build wrote a snapshot
    # a fresh process (new cache) loads from disk instead of rebuilding
    cold = IndexCache(max_entries=4, snapshot_dir=tmp_path)
    ix, status = cold.get(graph, "E(x, y)")
    assert status == "snapshot"
    assert ix.count() == warm.get(graph, "E(x, y)")[0].count()
    assert cold.stats["snapshot_loads"] == 1 and cold.stats["builds"] == 0


def test_corrupt_snapshot_falls_back_to_build(graph, tmp_path):
    IndexCache(max_entries=4, snapshot_dir=tmp_path).get(graph, "E(x, y)")
    snapshot = next(tmp_path.glob("*.rpx"))
    snapshot.write_bytes(snapshot.read_bytes()[:-20])
    cold = IndexCache(max_entries=4, snapshot_dir=tmp_path)
    _, status = cold.get(graph, "E(x, y)")
    assert status == "built"


def test_too_many_builds_rejected(graph):
    gate = threading.Event()
    cache = IndexCache(
        max_entries=4, max_in_flight_builds=1, build_fn=CountingBuild(gate=gate)
    )
    blocked = threading.Thread(
        target=lambda: cache.get(graph, "E(x, y)"), daemon=True
    )
    blocked.start()
    # wait until the owner registered its in-flight ticket
    deadline = threading.Event()
    for _ in range(200):
        if cache.snapshot_stats()["in_flight_builds"] == 1:
            break
        deadline.wait(0.01)
    with pytest.raises(TooManyBuilds):
        cache.get(graph, "dist(x, y) <= 2")  # a *distinct* key must build
    assert cache.stats["busy_rejections"] == 1
    gate.set()
    blocked.join(timeout=10)


def test_waiter_timeout(graph):
    gate = threading.Event()
    cache = IndexCache(
        max_entries=4, build_wait_seconds=0.05, build_fn=CountingBuild(gate=gate)
    )
    owner = threading.Thread(target=lambda: cache.get(graph, "E(x, y)"), daemon=True)
    owner.start()
    for _ in range(200):
        if cache.snapshot_stats()["in_flight_builds"] == 1:
            break
        threading.Event().wait(0.01)
    with pytest.raises(BuildWaitTimeout):
        cache.get(graph, "E(x, y)")  # same key -> waiter path -> timeout
    assert cache.stats["wait_timeouts"] == 1
    gate.set()
    owner.join(timeout=10)


def test_build_error_propagates_and_is_not_cached(graph):
    boom = RuntimeError("kaboom")
    failing = CountingBuild(error=boom)
    cache = IndexCache(max_entries=4, build_fn=failing)
    with pytest.raises(RuntimeError, match="kaboom"):
        cache.get(graph, "E(x, y)")
    assert len(cache) == 0
    # the failed build released its ticket: a retry attempts a fresh build
    with pytest.raises(RuntimeError, match="kaboom"):
        cache.get(graph, "E(x, y)")
    assert failing.calls == 2


def test_waiters_share_the_owners_error(graph):
    """Errors are not cached, so only provably-joined waiters share them."""
    gate = threading.Event()
    failing = CountingBuild(gate=gate, error=RuntimeError("kaboom"))
    cache = IndexCache(max_entries=4, build_fn=failing)

    def fetch(_):
        cache.get(graph, "E(x, y)")

    with ThreadPoolExecutor(max_workers=4) as pool:
        owner = pool.submit(fetch, 0)
        for _ in range(500):  # the owner holds its ticket while stuck on the gate
            if cache.snapshot_stats()["in_flight_builds"] == 1:
                break
            threading.Event().wait(0.01)
        waiters = [pool.submit(fetch, i) for i in range(1, 4)]
        threading.Event().wait(0.2)  # let the waiters block on the ticket
        gate.set()
        outcomes = [f.exception(timeout=30) for f in [owner, *waiters]]
    assert failing.calls == 1
    assert all(isinstance(exc, RuntimeError) for exc in outcomes)


def test_drop_and_clear(graph):
    cache = IndexCache(max_entries=4)
    cache.get(graph, "E(x, y)")
    key = cache.fingerprint(graph, "E(x, y)")
    assert cache.drop(key) is True
    assert cache.drop(key) is False
    cache.get(graph, "E(x, y)")
    cache.clear()
    assert len(cache) == 0


def test_rejects_bad_max_entries():
    with pytest.raises(ValueError, match="max_entries"):
        IndexCache(max_entries=0)
