"""Prometheus text exposition (format 0.0.4) for metrics exports.

``repro serve`` exposes ``GET /metrics`` as JSON by default; this module
renders the same state in the Prometheus text format so a standard
scraper can poll the server directly (``Accept: text/plain`` or
``?format=prom`` selects it).  One renderer serves both servers: its
input is a :meth:`~repro.metrics.core.MetricsRegistry.export` payload —
a single server's own, or the pool parent's merge of its workers' — plus,
for the pool, each worker's export for ``{worker="N"}`` attribution.
Mapping:

* counters  -> ``repro_<name>_total`` (TYPE counter)
* histograms-> ``repro_<name>`` (TYPE histogram): cumulative
  ``_bucket{le="2**e"}`` series from the exact log-2 bucket counts, a
  ``+Inf`` bucket equal to ``_count``, and ``_sum``
* op_counts -> ``repro_contract_calls_total{function="..."}``
* extra gauges (cache sizes etc.) -> ``repro_<name>`` (TYPE gauge)

No client library is involved — the format is plain text and the
export is already a dict of numbers.
"""

from __future__ import annotations

import re
from typing import Any

from repro.metrics.core import bucket_upper_edge

#: Content type a compliant scraper expects.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_INVALID = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str, suffix: str = "") -> str:
    """Mangle a dotted repro metric name into a valid Prometheus name."""
    base = _INVALID.sub("_", name).strip("_")
    if base and base[0].isdigit():
        base = "_" + base
    return f"repro_{base}{suffix}"


def _label_value(value: str) -> str:
    """Escape a label value per the exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: float) -> str:
    """Render a sample value (integers without trailing .0)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(float(value))


def _worker_order(label: str) -> tuple[int, str]:
    """Numeric order for worker labels ("2" before "10")."""
    return (len(label), label)


def render_prometheus(
    export: dict[str, Any] | None,
    gauges: dict[str, float] | None = None,
    workers: dict[str, dict[str, Any]] | None = None,
    worker_gauges: dict[str, dict[str, float]] | None = None,
) -> str:
    """An export payload (and optional extra gauges) in text exposition format.

    ``export`` is one :meth:`MetricsRegistry.export` payload — or a
    :func:`~repro.metrics.core.merge_snapshots` of several — rendered as
    unlabeled series; it may be ``None`` (server running without
    ``collect()``), and the gauges are still emitted so the endpoint
    never 404s mid-scrape.

    ``workers`` maps a worker label (``"0"``, ``"1"``, ...) to that
    worker's own export.  When given (the pre-fork pool), ``export`` is
    their merge and every counter family, plus each histogram's
    ``_count``/``_sum``, also gets one ``{worker="N"}`` series per worker
    — so a scraper's ``sum(rate(..._count[1m]))`` works across the pool
    and ``histogram_quantile`` sees the pool-wide buckets.
    ``worker_gauges`` get the ``worker`` label too.
    """
    lines: list[str] = []
    merged_note = " (pool-merged)" if workers is not None else ""
    workers = workers or {}

    def per_worker(section: str, name: str) -> list[tuple[str, Any]]:
        pairs = []
        for wid in sorted(workers, key=_worker_order):
            value = workers[wid].get(section, {}).get(name)
            if value is not None:
                pairs.append((f'worker="{_label_value(wid)}"', value))
        return pairs

    if export is not None:
        for name, value in export["counters"].items():
            metric = _metric_name(name, "_total")
            lines.append(f"# HELP {metric} repro counter {name}{merged_note}")
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {_fmt(value)}")
            for label, wval in per_worker("counters", name):
                lines.append(f"{metric}{{{label}}} {_fmt(wval)}")

        for name, snap in export["histograms"].items():
            metric = _metric_name(name)
            lines.append(f"# HELP {metric} repro histogram {name}{merged_note}")
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for exp in sorted(int(key) for key in snap["buckets"]):
                edge = bucket_upper_edge(exp)
                if edge == float("inf"):
                    break  # folded into the final +Inf bucket
                cumulative += int(snap["buckets"][str(exp)])
                lines.append(f'{metric}_bucket{{le="{_fmt(edge)}"}} {_fmt(cumulative)}')
            lines.append(f'{metric}_bucket{{le="+Inf"}} {_fmt(snap["count"])}')
            lines.append(f"{metric}_count {_fmt(snap['count'])}")
            lines.append(f"{metric}_sum {_fmt(snap['total'])}")
            for label, wsnap in per_worker("histograms", name):
                lines.append(f"{metric}_count{{{label}}} {_fmt(wsnap['count'])}")
                lines.append(f"{metric}_sum{{{label}}} {_fmt(wsnap['total'])}")

        if export["op_counts"]:
            metric = "repro_contract_calls_total"
            lines.append(f"# HELP {metric} calls per contracted function{merged_note}")
            lines.append(f"# TYPE {metric} counter")
            for function, calls in export["op_counts"].items():
                lines.append(
                    f'{metric}{{function="{_label_value(function)}"}} {_fmt(calls)}'
                )

    for name, value in sorted((gauges or {}).items()):
        metric = _metric_name(name)
        lines.append(f"# HELP {metric} repro gauge {name}")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt(value)}")

    worker_gauges = worker_gauges or {}
    for wid in sorted(worker_gauges, key=_worker_order):
        for name, value in sorted(worker_gauges[wid].items()):
            metric = _metric_name(name)
            lines.append(
                f'{metric}{{worker="{_label_value(wid)}"}} {_fmt(value)}'
            )

    return "\n".join(lines) + "\n" if lines else ""


def flatten_gauges(payload: dict[str, Any], prefix: str = "") -> dict[str, float]:
    """Flatten a nested stats dict into dotted-name numeric gauges.

    Non-numeric leaves are dropped (strings, None); bools become 0/1.
    Used to turn ``/v1/stats``-style payloads (cache sizes, watchdog
    state) into Prometheus gauges without a schema.
    """
    flat: dict[str, float] = {}
    for key, value in payload.items():
        name = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            flat.update(flatten_gauges(value, name))
        elif isinstance(value, bool):
            flat[name] = 1.0 if value else 0.0
        elif isinstance(value, (int, float)):
            flat[name] = float(value)
    return flat
