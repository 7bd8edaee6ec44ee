"""Hierarchical span tracing for the preprocessing and query pipelines.

The paper's claims are per-operation time bounds; :mod:`repro.metrics`
counts and times them in aggregate, and this package answers the other
production question — *where did this particular run spend its time* —
with the same zero-cost-when-off discipline:

* :func:`~repro.trace.runtime.span` — the one instrumentation hook,
  threaded through the pipelines (cover/kernel/trie builds, splitter
  games, distance index, next-solution tower, persistence, serve request
  handling).  It feeds both a :func:`~repro.trace.runtime.tracing`
  context and an active :mod:`repro.metrics` registry; with neither it
  is one context-variable read plus one global read.
* :mod:`~repro.trace.export` — JSONL, Chrome ``chrome://tracing``
  trace-event files, ASCII trees, per-stage totals (``repro trace``).
* :mod:`~repro.trace.logging` — structured JSON logs with
  trace/span-id correlation.
* :class:`~repro.trace.watchdog.Watchdog` — the live guarantee checker
  turning Corollary 2.5's constant delay into a runtime SLO.
* :class:`~repro.trace.buffer.TraceBuffer` — the ring of recent traces
  behind ``GET /v1/traces``.

Quick start::

    from repro import trace
    from repro.core.engine import open_index

    with trace.tracing("experiment") as tracer:
        index = open_index(graph, "E(x, y)")
        list(index.enumerate())

    print(trace.render_tree(tracer))
    trace.write_chrome_trace(tracer, "trace.json")
"""

from repro.trace.buffer import TraceBuffer
from repro.trace.core import DEFAULT_MAX_SPANS, Span, Tracer, new_span_id, new_trace_id
from repro.trace.export import (
    render_stage_totals,
    render_tree,
    stage_totals,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.trace.logging import JsonFormatter, configure, log_event
from repro.trace.profiler import (
    SamplingProfiler,
    flamegraph_text,
    merge_collapsed,
    merge_profiles,
    profile_for,
)
from repro.trace.runtime import (
    active_tracer,
    annotate,
    current_span,
    current_trace_id,
    span,
    tracing,
)
from repro.trace.watchdog import (
    DELAY_VIOLATION,
    OPS_VIOLATION,
    STEP_SPAN,
    STEPS_OBSERVED,
    Watchdog,
)

__all__ = [
    "DEFAULT_MAX_SPANS",
    "DELAY_VIOLATION",
    "JsonFormatter",
    "OPS_VIOLATION",
    "STEPS_OBSERVED",
    "STEP_SPAN",
    "SamplingProfiler",
    "Span",
    "TraceBuffer",
    "Tracer",
    "Watchdog",
    "active_tracer",
    "annotate",
    "configure",
    "current_span",
    "current_trace_id",
    "flamegraph_text",
    "log_event",
    "merge_collapsed",
    "merge_profiles",
    "new_span_id",
    "new_trace_id",
    "profile_for",
    "render_stage_totals",
    "render_tree",
    "span",
    "stage_totals",
    "to_chrome_trace",
    "to_jsonl",
    "tracing",
    "write_chrome_trace",
    "write_jsonl",
]
