"""The active-trace plumbing: zero-cost span hooks for the hot paths.

Same pattern as :mod:`repro.metrics.runtime`: the preprocessing and
query pipelines call :func:`span` unconditionally, and outside a
:func:`tracing` context the call is a single context-variable read
returning a shared no-op context manager — the paper's constant-time
guarantees are unaffected, which is why the hooks carry
``@constant_time`` contracts of their own.

Inside ``with tracing() as tracer:`` every ``with span("name", k=v):``
block records one :class:`~repro.trace.core.Span` with the correct
parent (nesting follows the dynamic call structure), and the state lives
in a :class:`contextvars.ContextVar` — so concurrent server threads each
see only their own trace, with no cross-request leakage (verified by
``tests/trace/test_concurrency.py``).  Worker threads spawned *inside* a
traced block start with no active trace: their spans are simply not
recorded rather than mis-parented.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any

from repro.contracts import constant_time
from repro.trace.core import DEFAULT_MAX_SPANS, Span, Tracer, new_span_id

#: (tracer, current span) for this context, or None (the zero-cost case).
_STATE: ContextVar[tuple[Tracer, Span | None] | None] = ContextVar(
    "repro_trace_state", default=None
)


class _NoopSpan:
    """The shared do-nothing context manager handed out when not tracing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NOOP = _NoopSpan()


class _SpanHandle:
    """A live span context: opens on enter, records into the tracer on exit."""

    __slots__ = ("_tracer", "_name", "_attributes", "_span", "_token")

    def __init__(self, tracer: Tracer, name: str, attributes: dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attributes = attributes
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
        _STATE.reset(self._token)
        self._tracer.add(span)
        return False


@constant_time(note="one context-var read; span bookkeeping only when tracing")
def span(name: str, **attributes: Any):
    """A context manager timing one named block (no-op outside tracing).

    ``with span("cover.build", radius=r) as s:`` records a span with the
    given attributes; ``s`` is the live :class:`Span` (or None when not
    tracing) so the block can attach result attributes::

        with span("cover.build", radius=r) as s:
            cover = ...
            if s is not None:
                s.attributes["bags"] = cover.num_bags
    """
    state = _STATE.get()
    if state is None:
        return _NOOP
    return _SpanHandle(state[0], name, attributes)


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
    **attributes: Any,
) -> Iterator[Tracer]:
    """Collect spans from everything that runs inside the context.

    Opens a root span named ``name`` covering the whole block, yields the
    :class:`Tracer`, and restores the previous state on exit (contexts
    nest; an inner ``tracing`` shadows the outer one, as the request
    handler relies on).  ``parent_span_id`` parents the root span under a
    remote span from another process (cross-process stitching).
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
        with span(name, **attributes):
            yield tracer
    finally:
        _STATE.reset(token)
