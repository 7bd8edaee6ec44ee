"""The one instrumentation hook: spans that feed the tracer and the registry.

The preprocessing and query pipelines call :func:`span` unconditionally.
With neither a :func:`tracing` context nor a
:func:`repro.metrics.collect` registry active, the call is one
context-variable read plus one global read returning a shared no-op
context manager — the paper's constant-time guarantees are unaffected,
which is why the hooks carry ``@constant_time`` contracts of their own.

Every span has two sinks, and this module is the only code that knows
how an event reaches either:

* **the registry** (inside ``collect()``): a span whose call site names
  a histogram (``span("enumerate.step", "enumeration.delay_seconds")``)
  adds its duration there when the block completes; a block that raises
  adds nothing.  Any other span adds 1 to the counter named like the
  span as it opens.  Without a tracer, the first kind is a small slotted
  timer and the second returns the shared no-op.
* **the tracer** (inside ``tracing()``): every ``with span("name", k=v):``
  block records one :class:`~repro.trace.core.Span` with the correct
  parent (nesting follows the dynamic call structure).  The state lives
  in a :class:`contextvars.ContextVar`, so concurrent server threads
  each see only their own trace, with no cross-request leakage
  (verified by ``tests/trace/test_concurrency.py``).  Threads started
  inside a traced block begin with no active trace: their spans are not
  recorded rather than mis-parented.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any

from repro.contracts import constant_time
from repro.metrics import runtime as _metrics
from repro.metrics.core import Histogram
from repro.trace.core import DEFAULT_MAX_SPANS, Span, Tracer, new_span_id

#: (tracer, current span) for this context, or None (the zero-cost case).
_STATE: ContextVar[tuple[Tracer, Span | None] | None] = ContextVar(
    "repro_trace_state", default=None
)


class _NoopSpan:
    """The shared do-nothing context manager handed out when not tracing
    and not timing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NOOP = _NoopSpan()


class _Timer:
    """An untraced span with a metric: adds its block's duration to a histogram."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram

    def __enter__(self) -> None:
        self._start = time.perf_counter()
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self._histogram.record(time.perf_counter() - self._start)
        return False


class _SpanHandle:
    """A live span context: opens on enter; on exit records into the
    tracer and, when the call site named a metric, into its histogram."""

    __slots__ = ("_tracer", "_name", "_attributes", "_histogram", "_span", "_token")

    def __init__(
        self,
        tracer: Tracer,
        name: str,
        attributes: dict[str, Any],
        histogram: Histogram | None,
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._attributes = attributes
        self._histogram = histogram
        self._span: Span | None = None

    def __enter__(self) -> Span:
        state = _STATE.get()
        parent = state[1] if state is not None else None
        if parent is not None:
            parent_id = parent.span_id
        else:
            # Root span of this tracer: parent under a *remote* span when
            # the pool's routing parent propagated one (X-Parent-Span).
            parent_id = self._tracer.parent_span_id
        self._span = Span(
            trace_id=self._tracer.trace_id,
            span_id=new_span_id(),
            parent_id=parent_id,
            name=self._name,
            start=time.perf_counter(),
            attributes=self._attributes,
        )
        self._token = _STATE.set((self._tracer, self._span))
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        assert span is not None
        span.end = time.perf_counter()
        if exc_type is not None:
            span.status = "error"
            span.attributes.setdefault("error", exc_type.__name__)
        elif self._histogram is not None:
            self._histogram.record(span.end - span.start)
        _STATE.reset(self._token)
        self._tracer.add(span)
        return False


@constant_time(note="one context-var and one global read; O(1) sink work when on")
def span(name: str, metric: str | None = None, **attributes: Any):
    """A context manager around one named block: the one instrumentation hook.

    Inside :func:`repro.metrics.collect`, the block adds its duration to
    the histogram ``metric`` when the call site names one (only if it
    completes), and otherwise adds 1 to the counter ``name`` as it
    opens.  Inside :func:`tracing` it also records a span with the given
    attributes.  ``s`` is the live :class:`Span` (or None when not
    tracing) so the block can attach result attributes::

        with span("cover.build", radius=r) as s:
            cover = ...
            if s is not None:
                s.attributes["bags"] = cover.num_bags
    """
    state = _STATE.get()
    registry = _metrics._ACTIVE
    histogram = None
    if registry is not None:
        if metric is None:
            registry.counter(name).inc()
        else:
            histogram = registry.histogram(metric)
    if state is None:
        return _NOOP if histogram is None else _Timer(histogram)
    return _SpanHandle(state[0], name, attributes, histogram)


@constant_time(note="one context-var read + dict update when tracing")
def annotate(**attributes: Any) -> None:
    """Merge attributes into the current span, if any."""
    state = _STATE.get()
    if state is not None and state[1] is not None:
        state[1].attributes.update(attributes)


@constant_time(note="one context-var read")
def active_tracer() -> Tracer | None:
    """The tracer currently collecting, or None outside :func:`tracing`."""
    state = _STATE.get()
    return None if state is None else state[0]


@constant_time(note="one context-var read")
def current_span() -> Span | None:
    """The innermost open span, or None."""
    state = _STATE.get()
    return None if state is None else state[1]


@constant_time(note="one context-var read")
def current_trace_id() -> str | None:
    """The active trace id, or None (what the log formatter injects)."""
    state = _STATE.get()
    return None if state is None else state[0].trace_id


@contextmanager
def tracing(
    name: str = "trace",
    trace_id: str | None = None,
    max_spans: int = DEFAULT_MAX_SPANS,
    observers: tuple = (),
    parent_span_id: str | None = None,
    metric: str | None = None,
    **attributes: Any,
) -> Iterator[Tracer]:
    """Collect spans from everything that runs inside the context.

    Opens a root span named ``name`` covering the whole block, yields the
    :class:`Tracer`, and restores the previous state on exit (contexts
    nest; an inner ``tracing`` shadows the outer one, as the request
    handler relies on).  ``parent_span_id`` parents the root span under a
    remote span from another process (cross-process stitching).  The
    root span feeds the registry like any :func:`span`: into the
    histogram ``metric`` if given, else the counter ``name``.
    """
    tracer = Tracer(
        name=name,
        trace_id=trace_id,
        max_spans=max_spans,
        observers=observers,
        parent_span_id=parent_span_id,
    )
    token = _STATE.set((tracer, None))
    try:
        with span(name, metric, **attributes):
            yield tracer
    finally:
        _STATE.reset(token)
