"""Mergeable metrics: property tests for the pool's fan-in algebra.

The pool parent reconstructs one logical registry from N worker exports
(:func:`repro.metrics.merge_snapshots`).  The claims that make the merged
``/metrics`` exposition trustworthy:

* splitting a sample stream across processes and merging the snapshots
  loses nothing — bucket counts, counts, min and max come back *exactly*,
  totals up to float-summation reordering (~1 ulp);
* a histogram's count, total, mean, min and max are exact, whatever the
  samples;
* a percentile estimated from the log-2 buckets — merged, or a single
  histogram's own :meth:`Histogram.percentile` — is within one bucket
  width of the true sample percentile (``v <= estimate <= 2v``);
* concurrent recording on one histogram is linearizable — 8 threads'
  worth of records all land, exactly.
"""

from __future__ import annotations

import functools
import math
import operator
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    Histogram,
    MetricsRegistry,
    bucket_exponent,
    bucket_upper_edge,
    merge_snapshots,
    percentile_from_buckets,
)

positive_samples = st.lists(
    st.floats(
        min_value=1e-9,
        max_value=1e9,
        allow_nan=False,
        allow_infinity=False,
    ),
    min_size=1,
    max_size=200,
)


def _split(samples: list[float], ways: int) -> list[list[float]]:
    return [samples[i::ways] for i in range(ways)]


# ----------------------------------------------------------------------
# bucket mapping basics


def test_bucket_exponent_brackets_value():
    for value in (1e-9, 0.1, 0.5, 1.0, 1.5, 2.0, 3.7, 1024.0, 1e9):
        exp = bucket_exponent(value)
        assert 2.0 ** (exp - 1) <= value <= bucket_upper_edge(exp)


def test_bucket_upper_edge_saturates_to_inf():
    assert bucket_upper_edge(1024) == math.inf
    assert bucket_upper_edge(2000) == math.inf


# ----------------------------------------------------------------------
# exact aggregates


@given(
    samples=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, min_value=-1e9, max_value=1e9),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=200, deadline=None)
def test_histogram_aggregates_are_exact(samples):
    h = Histogram("h")
    for value in samples:
        h.record(value)
    # a left-to-right fold is record()'s own summation order; the builtin
    # sum() compensates float rounding on Python >= 3.12 and may differ
    expected = functools.reduce(operator.add, samples, 0.0)
    assert h.count == len(samples)
    assert h.total == expected
    assert h.mean == expected / len(samples)
    assert h.min == min(samples)
    assert h.max == max(samples)


# ----------------------------------------------------------------------
# merge(split(samples)) == unsplit


@given(samples=positive_samples, ways=st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_merge_of_split_equals_unsplit(samples, ways):
    whole = Histogram("h")
    for value in samples:
        whole.record(value)
    parts = []
    for chunk in _split(samples, ways):
        h = Histogram("h")
        for value in chunk:
            h.record(value)
        parts.append(h.to_mergeable())
    merged = Histogram.merge(parts)
    reference = whole.to_mergeable()
    # exact: the bucket counts, count, min and max are integer/compare
    # aggregates, immune to summation order
    assert merged["buckets"] == reference["buckets"]
    assert merged["count"] == reference["count"]
    assert merged["min"] == reference["min"]
    assert merged["max"] == reference["max"]
    # totals differ only by float-summation reordering (~1 ulp)
    assert math.isclose(merged["total"], reference["total"], rel_tol=1e-9)


@given(samples=positive_samples, ways=st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_merge_is_associative(samples, ways):
    parts = []
    for chunk in _split(samples, ways):
        h = Histogram("h")
        for value in chunk:
            h.record(value)
        parts.append(h.to_mergeable())
    left_fold = parts[0]
    for part in parts[1:]:
        left_fold = Histogram.merge([left_fold, part])
    flat = Histogram.merge(parts)
    assert left_fold["buckets"] == flat["buckets"]
    assert left_fold["count"] == flat["count"]
    assert math.isclose(left_fold["total"], flat["total"], rel_tol=1e-9)


# ----------------------------------------------------------------------
# percentile error is bounded by one bucket width


@given(samples=positive_samples, q=st.sampled_from([50.0, 90.0, 95.0, 99.0]))
@settings(max_examples=200, deadline=None)
def test_bucket_percentile_within_one_bucket_width(samples, q):
    h = Histogram("h")
    for value in samples:
        h.record(value)
    snapshot = h.to_mergeable()
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    exact = ordered[rank - 1]
    # the estimate is the inclusive upper edge of exact's bucket (clamped
    # to max), so it never undershoots and overshoots by <= one doubling
    # (== only when exact sits exactly on a power-of-two edge); the
    # histogram's own percentile() is the same estimator
    for estimate in (percentile_from_buckets(snapshot, q), h.percentile(q)):
        assert exact <= estimate <= 2 * exact
        assert estimate <= snapshot["max"]
    assert h.percentile(q) == percentile_from_buckets(snapshot, q)


def test_percentile_from_empty_snapshot_is_zero():
    assert percentile_from_buckets(Histogram("h").to_mergeable(), 95) == 0.0


# ----------------------------------------------------------------------
# registry-level merge


def test_registry_merge_adds_everything():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("hits").inc(3)
    b.counter("hits").inc(4)
    b.counter("only_b").inc(1)
    for value in (0.5, 3.0):
        a.histogram("lat").record(value)
    b.histogram("lat").record(8.0)
    merged = merge_snapshots([a.export(), b.export()])
    assert merged["counters"] == {"hits": 7, "only_b": 1}
    lat = merged["histograms"]["lat"]
    assert lat["count"] == 3
    assert lat["min"] == 0.5
    assert lat["max"] == 8.0
    oracle = Histogram("lat")
    for value in (0.5, 3.0, 8.0):
        oracle.record(value)
    assert lat["buckets"] == oracle.to_mergeable()["buckets"]


def test_merge_snapshots_of_nothing_is_empty():
    merged = merge_snapshots([])
    assert merged["counters"] == {}
    assert merged["histograms"] == {}


# ----------------------------------------------------------------------
# concurrency: 8 threads hammering one histogram


def test_concurrent_records_all_land():
    h = Histogram("h")
    threads = 8
    per_thread = 2_000
    values = [1.0 + (i % 7) for i in range(per_thread)]

    barrier = threading.Barrier(threads)

    def hammer():
        barrier.wait()
        for value in values:
            h.record(value)

    workers = [threading.Thread(target=hammer) for _ in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()

    snapshot = h.to_mergeable()
    assert snapshot["count"] == threads * per_thread
    assert math.isclose(
        snapshot["total"], threads * sum(values), rel_tol=1e-9
    )
    assert snapshot["min"] == 1.0
    assert snapshot["max"] == 7.0
    oracle = Histogram("h")
    for value in values:
        oracle.record(value)
    expected = {
        exp: n * threads for exp, n in oracle.to_mergeable()["buckets"].items()
    }
    assert snapshot["buckets"] == expected
