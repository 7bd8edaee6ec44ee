"""Unit tests for spans, tracers, and the context-var runtime."""

from __future__ import annotations

import pytest

from repro.trace import (
    Span,
    Tracer,
    active_tracer,
    current_span,
    current_trace_id,
    new_span_id,
    new_trace_id,
    span,
    tracing,
)


def test_ids_are_hex_and_distinct():
    a, b = new_trace_id(), new_trace_id()
    assert a != b
    assert len(a) == 32
    int(a, 16)  # must be hex
    s = new_span_id()
    assert len(s) == 16
    int(s, 16)


def test_hooks_are_noops_outside_tracing():
    assert active_tracer() is None
    assert current_span() is None
    assert current_trace_id() is None
    with span("anything", key=1) as sp:
        assert sp is None  # the shared no-op handle yields None
    # with neither a tracer nor a metrics registry, a span that names a
    # histogram is the same shared no-op: nothing to time into
    shared = span("anything")
    assert span("timed", metric="timed_seconds") is shared
    assert span("timed", "timed_seconds", key=1) is shared


def test_tracing_records_a_root_span():
    with tracing("job", answer=42) as tracer:
        assert active_tracer() is tracer
        assert current_trace_id() == tracer.trace_id
        root = current_span()
        assert root is not None and root.name == "job"
        assert root.attributes["answer"] == 42
    assert active_tracer() is None
    spans = tracer.spans
    assert [s.name for s in spans] == ["job"]
    assert spans[0].parent_id is None
    assert spans[0].end is not None


def test_nesting_sets_parent_ids():
    with tracing("root") as tracer:
        with span("outer") as outer:
            with span("inner") as inner:
                assert inner.parent_id == outer.span_id
            assert current_span() is outer
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["outer"].parent_id == by_name["root"].span_id
    assert by_name["inner"].parent_id == by_name["outer"].span_id
    assert by_name["inner"].trace_id == tracer.trace_id


def test_tree_is_well_nested():
    with tracing("root") as tracer:
        with span("a"):
            with span("a1"):
                pass
        with span("b"):
            pass
    (root,) = tracer.tree()
    assert root["name"] == "root"
    assert [n["name"] for n in root["children"]] == ["a", "b"]
    assert [n["name"] for n in root["children"][0]["children"]] == ["a1"]


def test_span_error_status_and_reraise():
    with pytest.raises(ValueError):
        with tracing("root") as tracer:
            with span("boom"):
                raise ValueError("nope")
    boom = next(s for s in tracer.spans if s.name == "boom")
    assert boom.status == "error"
    assert boom.attributes["error"] == "ValueError"
    assert boom.end is not None


def test_durations_are_monotone_and_contained():
    with tracing("root") as tracer:
        with span("child"):
            sum(range(1000))
    by_name = {s.name: s for s in tracer.spans}
    child, root = by_name["child"], by_name["root"]
    assert child.duration >= 0
    assert root.duration >= child.duration
    assert root.start <= child.start
    assert child.end <= root.end


def test_max_spans_cap_counts_drops():
    with tracing("root", max_spans=3) as tracer:
        for i in range(10):
            with span(f"s{i}"):
                pass
    assert len(tracer.spans) == 3
    # 7 overflow child spans plus the root (recorded last, over the cap)
    assert tracer.dropped == 8
    assert tracer.to_dict()["dropped"] == 8


def test_to_dict_shape():
    with tracing("root", tag="x") as tracer:
        with span("child"):
            pass
    payload = tracer.to_dict()
    assert payload["trace_id"] == tracer.trace_id
    assert payload["spans"] == 2
    assert payload["duration_seconds"] >= 0
    (root,) = payload["tree"]
    assert root["name"] == "root"
    assert root["attributes"] == {"tag": "x"}
    assert [c["name"] for c in root["children"]] == ["child"]


def test_explicit_trace_id_is_used():
    with tracing("root", trace_id="deadbeefdeadbeef") as tracer:
        pass
    assert tracer.trace_id == "deadbeefdeadbeef"
    assert tracer.spans[0].trace_id == "deadbeefdeadbeef"


def test_orphan_spans_are_rerooted():
    tracer = Tracer(name="manual")
    orphan = Span(
        trace_id=tracer.trace_id,
        span_id=new_span_id(),
        parent_id="feedfacefeedface",  # never recorded
        name="lost",
        start=0.0,
    )
    orphan.end = 1.0
    tracer.add(orphan)
    (root,) = tracer.tree()
    assert root["name"] == "lost"


def test_observers_see_spans_and_exceptions_are_swallowed():
    seen = []

    def good(sp):
        seen.append(sp.name)

    def bad(sp):
        raise RuntimeError("observer bug")

    with tracing("root", observers=(bad, good)):
        with span("child"):
            pass
    assert seen == ["child", "root"]
