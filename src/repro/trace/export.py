"""Trace exporters: JSONL, Chrome trace-event format, ASCII trees.

Three consumers, three shapes:

* :func:`to_jsonl` — one JSON object per span per line, for grep/jq and
  log shipping;
* :func:`to_chrome_trace` — the ``chrome://tracing`` / Perfetto
  trace-event format (complete ``"ph": "X"`` events, microsecond
  timestamps), so a ``repro trace -o trace.json`` file drops straight
  into a flame-graph viewer;
* :func:`render_tree` — a human-readable span tree with durations and
  attributes, what ``repro trace`` prints.

:func:`stage_totals` aggregates spans by name into per-stage totals —
the table behind ``repro trace``'s summary and the ``explain --graph``
per-stage timings.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.trace.core import Span, Tracer


def to_jsonl(tracer: Tracer) -> str:
    """One JSON object per span, ordered by start time."""
    spans = sorted(tracer.spans, key=lambda s: s.start)
    return "\n".join(
        json.dumps(s.to_dict(tracer.origin), sort_keys=True) for s in spans
    )


def to_chrome_trace(tracer: Tracer) -> dict[str, Any]:
    """The trace as a Chrome trace-event document (JSON-ready dict).

    Every span becomes one complete event (``"ph": "X"``) with
    microsecond ``ts``/``dur`` relative to the trace origin; span
    attributes ride along in ``args``.  Thread ids map to tracks, so
    spans recorded on different threads show as separate lanes.
    """
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": f"repro trace {tracer.trace_id[:12]}"},
        }
    ]
    for span in sorted(tracer.spans, key=lambda s: s.start):
        events.append(
            {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": (span.start - tracer.origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": span.thread_id % 1_000_000,
                "args": {
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                    "status": span.status,
                    **span.attributes,
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, path: str | Path) -> None:
    """Write :func:`to_chrome_trace` output to ``path``."""
    Path(path).write_text(json.dumps(to_chrome_trace(tracer)) + "\n")


def write_jsonl(tracer: Tracer, path: str | Path) -> None:
    """Write :func:`to_jsonl` output to ``path``."""
    Path(path).write_text(to_jsonl(tracer) + "\n")


def _format_attributes(attributes: dict[str, Any]) -> str:
    if not attributes:
        return ""
    parts = []
    for key in sorted(attributes):
        value = attributes[key]
        if isinstance(value, float):
            value = f"{value:.4g}"
        parts.append(f"{key}={value}")
    return "  [" + " ".join(parts) + "]"


def render_tree(tracer: Tracer, max_children: int = 40) -> str:
    """An ASCII span tree with per-span durations and attributes.

    Sibling runs longer than ``max_children`` are elided with a count
    (a traced enumeration can have thousands of identical step spans).
    """
    lines = [
        f"trace {tracer.trace_id}  ({tracer.name}, "
        f"{len(tracer.spans)} spans"
        + (f", {tracer.dropped} dropped" if tracer.dropped else "")
        + ")"
    ]

    def walk(node: dict[str, Any], prefix: str, is_last: bool) -> None:
        connector = "`-- " if is_last else "|-- "
        mark = "" if node["status"] == "ok" else f" !{node['status']}"
        lines.append(
            f"{prefix}{connector}{node['name']}  "
            f"{node['duration_seconds'] * 1000:.3f} ms{mark}"
            f"{_format_attributes(node['attributes'])}"
        )
        child_prefix = prefix + ("    " if is_last else "|   ")
        children = node["children"]
        shown = children[:max_children]
        for i, child in enumerate(shown):
            last = i == len(shown) - 1 and len(children) <= max_children
            walk(child, child_prefix, last)
        if len(children) > max_children:
            lines.append(
                f"{child_prefix}`-- ... {len(children) - max_children} more"
            )

    roots = tracer.tree()
    for i, root in enumerate(roots):
        walk(root, "", i == len(roots) - 1)
    return "\n".join(lines)


def stage_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Aggregate spans by name: count, total/max seconds per stage.

    Keyed by span name, ordered by descending total time — the
    "where did this run spend its time" table.
    """
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(
            span.name, {"count": 0.0, "total_seconds": 0.0, "max_seconds": 0.0}
        )
        entry["count"] += 1
        entry["total_seconds"] += span.duration
        entry["max_seconds"] = max(entry["max_seconds"], span.duration)
    return dict(
        sorted(totals.items(), key=lambda kv: kv[1]["total_seconds"], reverse=True)
    )


def render_stage_totals(spans: list[Span]) -> str:
    """The :func:`stage_totals` table as aligned text."""
    totals = stage_totals(spans)
    if not totals:
        return "(no spans recorded)"
    width = max(len(name) for name in totals)
    lines = [f"{'stage'.ljust(width)}  {'count':>7}  {'total':>10}  {'max':>10}"]
    for name, entry in totals.items():
        lines.append(
            f"{name.ljust(width)}  {int(entry['count']):>7}  "
            f"{entry['total_seconds'] * 1000:>8.2f}ms  "
            f"{entry['max_seconds'] * 1000:>8.2f}ms"
        )
    return "\n".join(lines)
