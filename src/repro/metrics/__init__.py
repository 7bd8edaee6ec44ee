"""Observability for the paper's complexity claims (``repro.metrics``).

The contracts layer (PR 1) states the bounds *statically*; this package
measures them *empirically*.  Two primitives —

* :class:`~repro.metrics.core.Counter` — operation counts,
* :class:`~repro.metrics.core.Histogram` — delay distributions as exact
  count/total/min/max plus mergeable log-2 buckets, with p50/p95/p99
  estimates within one bucket width —

live in a :class:`~repro.metrics.core.MetricsRegistry` activated by
:func:`~repro.metrics.runtime.collect`::

    from repro import metrics

    with metrics.collect() as registry:
        index = build_index(graph, "dist(x, y) > 2 & Blue(y)")
        list(index.enumerate())

    registry.histograms["enumeration.delay_seconds"].p95
    registry.op_counts["repro.storage.registers.RegisterFile.read"]

The hot paths are threaded with zero-cost hooks (a single ``None`` check
when no registry is active), and ``ops=True`` additionally counts every
contracted-function call via the PR-1 ``instrument()`` patch — so
"constant time" is checked in primitive operations, not just wall-clock.
The ``repro bench-suite`` runner (:mod:`repro.benchrunner`) counts E1's
register operations per lookup through this package; E9 keeps its own
per-answer delay list, so its gated percentiles are exact rather than
bucket estimates.  Servers expose a registry's ``export()`` payload as
Prometheus text through :func:`~repro.metrics.prometheus.render_prometheus`.
"""

from repro.metrics.core import (
    Counter,
    Histogram,
    MetricsRegistry,
    bucket_exponent,
    bucket_upper_edge,
    merge_snapshots,
    percentile_from_buckets,
)
from repro.metrics.prometheus import flatten_gauges, render_prometheus
from repro.metrics.runtime import (
    active,
    collect,
    count,
    delay_recorder,
    observe,
)

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "active",
    "bucket_exponent",
    "bucket_upper_edge",
    "collect",
    "count",
    "delay_recorder",
    "flatten_gauges",
    "merge_snapshots",
    "observe",
    "percentile_from_buckets",
    "render_prometheus",
]
