"""Unit tests for the repro.metrics observability subsystem."""

import pytest

from repro.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    active,
    collect,
    count,
    delay_recorder,
    observe,
)


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
    observe("y", 1.0)
    assert delay_recorder("z") is None
    assert active() is None


def test_collect_gathers_counts_and_observations():
    with collect(ops=False) as registry:
        assert active() is registry
        count("calls")
        count("calls", 2)
        observe("delay", 0.5)
        recorder = delay_recorder("delay")
        assert recorder is not None
        recorder(1.5)
    assert active() is None
    assert registry.counters["calls"].value == 3
    assert registry.histograms["delay"].count == 2


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
    assert registry.counters["trie.insert"].value == 1
    assert registry.counters["trie.lookup"].value == 1


# ----------------------------------------------------------------------
# hot-path integration


def test_hot_paths_report_metrics():
    from repro.core.engine import build_index
    from repro.graphs.generators import random_planar_like_graph

    g = random_planar_like_graph(64, seed=1)
    with collect(ops=False) as registry:
        index = build_index(g, "dist(x, y) > 2 & Blue(y)")
        solutions = sum(1 for _ in index.enumerate())
        index.test((0, 1))
        index.next_solution((0, 0))
    assert registry.counters["cover.builds"].value >= 1
    assert registry.counters["engine.test"].value == 1
    assert registry.counters["engine.next_solution"].value == 1
    assert registry.counters["next_solution.calls"].value >= solutions
    delays = registry.histograms["enumeration.delay_seconds"]
    assert delays.count == solutions
    assert delays.p95 >= delays.p50
    prep = registry.histograms["engine.preprocessing_seconds"]
    assert prep.count == 1


def test_enumeration_unmetered_without_collect():
    """Outside collect() the enumeration takes the no-clock fast path."""
    from repro.core.engine import build_index
    from repro.graphs.generators import random_tree

    g = random_tree(48, seed=2)
    index = build_index(g, "E(x, y)")
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
