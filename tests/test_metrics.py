"""Unit tests for the repro.metrics observability subsystem."""

import pytest

from repro.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    active,
    collect,
    count,
)
from repro.trace.runtime import span


# ----------------------------------------------------------------------
# core primitives


def test_counter_increments():
    counter = Counter("ops")
    counter.inc()
    counter.inc(5)
    assert counter.value == 6


def test_histogram_percentiles():
    hist = Histogram("delay")
    for value in [1.0, 2.0, 3.0, 4.0, 100.0]:
        hist.record(value)
    assert hist.count == 5
    assert hist.min == 1.0
    assert hist.max == 100.0
    assert hist.mean == pytest.approx(22.0)
    # percentiles are the upper edge of the nearest-rank sample's log-2
    # bucket, clamped to the exact max
    assert hist.p50 == 4.0  # nearest-rank sample 3.0 lies in [2, 4)
    assert hist.percentile(0) == 2.0  # 1.0 lies in [1, 2)
    assert hist.percentile(100) == 100.0  # edge 128, clamped


def test_histogram_record_after_percentile():
    hist = Histogram("delay")
    hist.record(8.0)
    assert hist.p50 == 8.0
    hist.record(1.0)  # nothing cached, so the next query sees it
    assert hist.percentile(0) == 2.0


def test_empty_histogram():
    hist = Histogram("delay")
    assert hist.count == 0
    assert hist.p50 == 0.0  # empty histograms summarize as zero
    assert hist.min == hist.max == 0.0
    with pytest.raises(ValueError):
        hist.percentile(150)


def test_histogram_summary_keys():
    hist = Histogram("delay")
    hist.record(1.0)
    summary = hist.summary()
    assert set(summary) == {"count", "mean", "p50", "p95", "p99", "max"}


def test_registry_creates_on_first_use():
    registry = MetricsRegistry()
    registry.counter("a").inc()
    registry.counter("a").inc()
    registry.histogram("h").record(1.0)
    assert registry.counters["a"].value == 2
    snapshot = registry.snapshot()
    assert snapshot["counters"]["a"] == 2
    assert snapshot["histograms"]["h"]["count"] == 1


# ----------------------------------------------------------------------
# runtime hooks


def test_hooks_are_noops_without_collect():
    assert active() is None
    count("x")  # must not raise
    with span("y"), span("z", "z_seconds"):
        pass
    assert active() is None


def test_collect_gathers_counts_and_observations():
    with collect(ops=False) as registry:
        assert active() is registry
        count("calls")
        count("calls", 2)
        with span("block") as sp:
            assert sp is None  # not tracing: no live span to annotate
        with span("timed", "delay") as sp:
            assert sp is None
        with span("timed", "delay"):
            pass
        with pytest.raises(KeyError):
            with span("timed", "delay"):
                raise KeyError("a block that raises adds no duration")
    assert active() is None
    assert registry.counters["calls"].value == 3
    assert registry.counters["block"].value == 1
    assert "timed" not in registry.counters  # a named metric replaces the counter
    assert registry.histograms["delay"].count == 2


def test_traced_spans_feed_the_registry_too():
    from repro.trace.runtime import tracing

    with collect(ops=False) as registry:
        with tracing("root", metric="root_seconds") as tracer:
            with span("block"):
                pass
            with span("timed", "delay"):
                pass
    assert registry.counters["block"].value == 1
    assert registry.histograms["delay"].count == 1
    assert registry.histograms["root_seconds"].count == 1
    assert "root" not in registry.counters
    timed = next(s for s in tracer.spans if s.name == "timed")
    assert registry.histograms["delay"].total == timed.duration


def test_collect_nests_and_restores():
    with collect(ops=False) as outer:
        count("op")
        with collect(ops=False) as inner:
            count("op")
        assert active() is outer
        count("op")
    assert outer.counters["op"].value == 2
    assert inner.counters["op"].value == 1


def test_collect_ops_counts_contracted_calls():
    from repro.storage.trie import TrieStore

    store = TrieStore(64, 1, eps=0.5)
    with collect(ops=True) as registry:
        store.insert((3,), 0)
        store.lookup((3,))
    assert any(".RegisterFile." in name for name in registry.op_counts)
    assert registry.op_counts["repro.storage.trie.TrieStore.insert"] == 1
    assert registry.op_counts["repro.storage.trie.TrieStore.lookup"] == 1


# ----------------------------------------------------------------------
# hot-path integration


def test_hot_paths_report_metrics():
    from repro.core.engine import open_index
    from repro.graphs.generators import random_planar_like_graph

    g = random_planar_like_graph(64, seed=1)
    with collect(ops=False) as registry:
        index = open_index(g, "dist(x, y) > 2 & Blue(y)")
        solutions = sum(1 for _ in index.enumerate())
        page = index.enumerate_page((0, 0), 7)
        index.test((0, 1))
        index.test((0, g.n))  # out of domain: still one facade call
        index.next_solution((0, 0))
        u, v = next(iter(g.edges()))
        index.delete_edge(u, v)
    counters = registry.counters
    # per-operation counts come from collect(ops=True), not from counters
    removed = {
        "trie.lookup", "trie.successor", "trie.insert", "trie.remove",
        "distance.test", "distance.distance",
        "next_solution.calls", "next_solution.test",
        "cover.next_member", "cover.builds", "cover.bags",
    }
    assert not removed & set(counters)
    # build spans count their own entries
    assert counters["cover.build"].value >= 1
    assert counters["trie.create"].value >= 1
    assert counters["engine.test"].value == 2
    assert counters["engine.next_solution"].value == 1
    # one step per answer, plus the step that finds no further answer;
    # a full page computes limit + 1 steps (the last one is next_cursor)
    assert len(page) == 7 and page.next_cursor is not None
    delays = registry.histograms["enumeration.delay_seconds"]
    assert delays.count == (solutions + 1) + (7 + 1)
    assert delays.p95 >= delays.p50
    prep = registry.histograms["engine.preprocessing_seconds"]
    assert prep.count == 1
    assert registry.histograms["engine.update_seconds"].count == 1


def test_enumeration_unmetered_without_collect():
    """Outside collect() the enumeration takes the no-clock fast path."""
    from repro.core.engine import open_index
    from repro.graphs.generators import random_tree

    g = random_tree(48, seed=2)
    index = open_index(g, "E(x, y)")
    assert list(index.enumerate())  # no active registry, still correct
    assert active() is None


# ----------------------------------------------------------------------
# bounded histograms: exact aggregates, bucketed quantiles


def test_bounded_histogram_keeps_exact_aggregates():
    hist = Histogram("delay")
    for i in range(1000):
        hist.record(float(i))
    assert hist.count == 1000
    assert hist.total == sum(range(1000))
    assert hist.mean == 499.5
    assert hist.min == 0.0
    assert hist.max == 999.0
    # memory is one count per occupied log-2 bucket (zero, then [1, 2) up
    # to [512, 1024)), not one slot per sample
    assert len(hist.to_mergeable()["buckets"]) == 11


def test_bounded_histogram_quantiles_are_plausible():
    hist = Histogram("delay")
    for i in range(1, 10_001):
        hist.record(float(i))
    # never below the true nearest-rank value, at most one doubling above
    assert 5000 <= hist.p50 <= 10_000
    assert hist.p95 == 10_000  # edge 16384, clamped to the exact max
    assert hist.p95 >= hist.p50
