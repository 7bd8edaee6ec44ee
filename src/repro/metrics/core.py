"""Metric primitives: counters and mergeable delay histograms.

These are the value types behind :mod:`repro.metrics`.  They are plain
mutable objects with O(1) update operations — a :class:`Counter` is one
integer add, a :class:`Histogram` record is one ``frexp`` and a few
locked adds — so they can sit on the paper's constant-time hot paths
without changing any asymptotics.

A histogram stores no samples: it keeps exact running aggregates
(count, total, min, max) and one count per log-2 bucket, so its memory
is bounded by the number of distinct magnitudes and snapshots from
different processes merge by plain addition.  Percentiles come from the
buckets (:func:`percentile_from_buckets`): within one bucket width of
the true nearest-rank sample, and never above the exact max.
"""

from __future__ import annotations

import math
import threading
from typing import Any

from repro.contracts import guarded_by

#: Bucket key for non-positive samples (below every frexp exponent of a
#: positive float, whose range is [-1073, 1024]).
ZERO_BUCKET = -1075


def bucket_exponent(value: float) -> int:
    """The log-2 bucket key of ``value``: ``2**(e-1) <= value < 2**e``.

    Non-positive values land in :data:`ZERO_BUCKET`.  One ``frexp`` call —
    O(1), no log/pow, exact for every finite float.
    """
    if value <= 0.0:
        return ZERO_BUCKET
    return math.frexp(value)[1]


def bucket_upper_edge(exponent: int) -> float:
    """The inclusive upper edge ``2**e`` of a bucket (``inf``-safe)."""
    if exponent == ZERO_BUCKET:
        return 0.0
    if exponent >= 1024:  # 2.0 ** 1024 overflows a double
        return math.inf
    return 2.0**exponent


class Counter:
    """A named monotonically-increasing operation counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (one integer add — O(1))."""
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


@guarded_by("_lock", "_count", "_total", "_max", "_min", "_buckets")
class Histogram:
    """A named sample distribution with p50/p95/p99/max summaries.

    Records samples (typically per-answer delays in seconds) into exact
    running aggregates — ``count``, ``total``, ``mean``, ``min`` and
    ``max`` — and into **fixed log-2 buckets** (one ``frexp`` per record):
    bucket ``e`` counts samples in ``[2**(e-1), 2**e)``.  No sample is
    stored, so memory stays flat in a long-lived ``repro serve`` process.

    Percentiles are estimated from the buckets with
    :func:`percentile_from_buckets`, the same estimator the pool's merged
    ``/metrics``, the SLO block and ``/v1/export`` consumers use: for a
    true nearest-rank sample ``v > 0`` the estimate lies in ``[v, 2v]``
    and never exceeds the exact ``max``.  Bucket counts are exact and
    mergeable — :meth:`to_mergeable` exports them and :meth:`merge` adds
    snapshots from different processes bucket-by-bucket.  Callers that
    need exact quantiles (experiment E9) keep their own sample list.

    All mutation happens under ``_lock`` so concurrent server threads
    never lose a record (a bare ``+=`` on an attribute is not atomic in
    CPython).  The lock is uncontended on single-threaded bench runs.
    """

    __slots__ = ("name", "_count", "_total", "_max", "_min", "_buckets", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._count = 0
        self._total = 0.0
        self._max = -math.inf
        self._min = math.inf
        #: frexp exponent -> exact sample count (see :func:`bucket_exponent`).
        self._buckets: dict[int, int] = {}
        self._lock = threading.Lock()

    def record(self, value: float) -> None:
        """Add one sample (O(1) time; no sample is stored)."""
        exp = bucket_exponent(value)
        with self._lock:
            self._count += 1
            self._total += value
            if value > self._max:
                self._max = value
            if value < self._min:
                self._min = value
            self._buckets[exp] = self._buckets.get(exp, 0) + 1

    @property
    def count(self) -> int:
        """Exact number of recorded samples."""
        return self._count

    @property
    def total(self) -> float:
        """Exact running sum."""
        return self._total

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        """Exact running minimum (0.0 before the first record)."""
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        """Exact running maximum (0.0 before the first record)."""
        return self._max if self._count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0 <= q <= 100), estimated from the buckets."""
        return percentile_from_buckets(self.to_mergeable(), q)

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def summary(self) -> dict[str, float]:
        """The reporting payload: count, mean, p50, p95, p99, max.

        All six values come from one locked snapshot, so they describe
        the same set of samples even while other threads record.
        """
        snap = self.to_mergeable()
        count = snap["count"]
        return {
            "count": float(count),
            "mean": snap["total"] / count if count else 0.0,
            "p50": percentile_from_buckets(snap, 50),
            "p95": percentile_from_buckets(snap, 95),
            "p99": percentile_from_buckets(snap, 99),
            "max": snap["max"],
        }

    def to_mergeable(self) -> dict[str, Any]:
        """A JSON-safe, *mergeable* snapshot of the exact aggregates.

        The snapshot carries no raw samples — only the running count /
        total / min / max and the exact log-2 bucket counts — so two
        snapshots from different processes merge losslessly with
        :meth:`merge`.  Bucket keys are stringified exponents (JSON
        object keys must be strings).
        """
        with self._lock:
            return {
                "name": self.name,
                "count": self._count,
                "total": self._total,
                "min": self._min if self._count else 0.0,
                "max": self._max if self._count else 0.0,
                "buckets": {str(exp): n for exp, n in sorted(self._buckets.items())},
            }

    @staticmethod
    def merge(snapshots: list[dict[str, Any]]) -> dict[str, Any]:
        """Merge :meth:`to_mergeable` snapshots (same shape back out).

        Counts, totals and bucket counts add exactly; min/max combine.
        An empty input merges to an empty histogram snapshot.
        """
        name = snapshots[0]["name"] if snapshots else ""
        count = 0
        total = 0.0
        low = math.inf
        high = -math.inf
        buckets: dict[int, int] = {}
        for snap in snapshots:
            count += int(snap["count"])
            total += float(snap["total"])
            if snap["count"]:
                low = min(low, float(snap["min"]))
                high = max(high, float(snap["max"]))
            for key, n in snap["buckets"].items():
                exp = int(key)
                buckets[exp] = buckets.get(exp, 0) + int(n)
        return {
            "name": name,
            "count": count,
            "total": total,
            "min": low if count else 0.0,
            "max": high if count else 0.0,
            "buckets": {str(exp): n for exp, n in sorted(buckets.items())},
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count})"


def percentile_from_buckets(snapshot: dict[str, Any], q: float) -> float:
    """Estimate the ``q``-th percentile from a mergeable snapshot.

    Walks the cumulative bucket counts to the nearest-rank bucket and
    returns its inclusive upper edge ``2**e`` — so for a true sample
    ``v > 0`` the estimate lies in ``[v, 2v]`` (one bucket width; ``2v``
    only when ``v`` is a power of two), and is clamped to the
    snapshot's exact ``max``.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    count = int(snapshot["count"])
    if count == 0:
        return 0.0
    rank = max(1, math.ceil(q / 100 * count))
    seen = 0
    for exp in sorted(int(key) for key in snapshot["buckets"]):
        seen += int(snapshot["buckets"][str(exp)])
        if seen >= rank:
            return min(bucket_upper_edge(exp), float(snapshot["max"]))
    return float(snapshot["max"])


@guarded_by("_create_lock", "counters", "histograms")
class MetricsRegistry:
    """One measurement run's worth of counters and histograms.

    Instances are handed out by :func:`repro.metrics.collect`; named
    children are created on first use so hot paths never need to
    pre-register anything.  ``op_counts`` is filled by the contracts
    instrumentation hook (calls per contracted function) when the
    registry was activated with ``ops=True``.
    """

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.histograms: dict[str, Histogram] = {}
        #: qualified contracted-function name -> call count (see
        #: :func:`repro.contracts.decorators.instrument`).
        self.op_counts: dict[str, int] = {}
        # Guards first-use child creation only (a long-lived registry is
        # shared by every server thread; without it two threads could
        # each create "the" counter and one's increments would vanish).
        # The hit path stays a lock-free dict.get.
        self._create_lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        found = self.counters.get(name)
        if found is None:
            with self._create_lock:
                found = self.counters.setdefault(name, Counter(name))
        return found

    def histogram(self, name: str) -> Histogram:
        found = self.histograms.get(name)
        if found is None:
            with self._create_lock:
                found = self.histograms.setdefault(name, Histogram(name))
        return found

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict view of everything measured (JSON-serializable)."""
        return {
            "counters": {name: c.value for name, c in sorted(self.counters.items())},
            "histograms": {
                name: h.summary() for name, h in sorted(self.histograms.items())
            },
            "op_counts": dict(sorted(self.op_counts.items())),
        }

    def export(self) -> dict[str, Any]:
        """The *mergeable* wire format of this registry.

        Unlike :meth:`snapshot` (summaries for humans), ``export``
        carries exact, additive state: counter values, op counts, and per-histogram :meth:`Histogram.to_mergeable`
        bucket snapshots.  ``merge_snapshots`` combines any number of
        these (one per pool worker) into a single equivalent export.
        """
        return {
            "version": 1,
            "counters": {name: c.value for name, c in sorted(self.counters.items())},
            "histograms": {
                name: h.to_mergeable() for name, h in sorted(self.histograms.items())
            },
            "op_counts": dict(sorted(self.op_counts.items())),
        }


def merge_snapshots(exports: list[dict[str, Any]]) -> dict[str, Any]:
    """Merge :meth:`MetricsRegistry.export` payloads into one.

    Counters and op counts add; histograms merge
    bucket-by-bucket via :meth:`Histogram.merge`.  The result has the
    same shape as a single export, so merging is associative and the
    pool parent can treat N workers as one logical process.
    """
    counters: dict[str, int] = {}
    histogram_parts: dict[str, list[dict[str, Any]]] = {}
    op_counts: dict[str, int] = {}
    for export in exports:
        for name, value in export.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + int(value)
        for name, snap in export.get("histograms", {}).items():
            histogram_parts.setdefault(name, []).append(snap)
        for name, calls in export.get("op_counts", {}).items():
            op_counts[name] = op_counts.get(name, 0) + int(calls)
    return {
        "version": 1,
        "counters": dict(sorted(counters.items())),
        "histograms": {
            name: Histogram.merge(parts)
            for name, parts in sorted(histogram_parts.items())
        },
        "op_counts": dict(sorted(op_counts.items())),
    }
