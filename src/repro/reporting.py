"""Benchmark reporting: turn benchmark JSON into experiment tables.

``python -m repro bench-suite`` produces a machine-readable record;
:func:`render_report` groups it by experiment group (the ``<group>`` of
each record's ``benchmarks/<group>.py::<name>`` id — a group name kept
for format stability, not a file), sorts each group by the swept
parameter, and emits the markdown tables EXPERIMENTS.md embeds.
:data:`EXPERIMENTS` titles every group the suite records, in report
order.

Malformed input — a missing file, an empty/truncated write, or invalid
JSON — raises :exc:`ReportError`; the CLI turns that into a one-line
message on stderr and exit code 2, never a traceback.

Usage::

    python -m repro.reporting BENCH_results.json > report.md
"""

from __future__ import annotations

import json
import re
import sys
from collections import defaultdict
from pathlib import Path

from repro.errors import ReproError


class ReportError(ReproError):
    """A benchmark results file could not be read or parsed."""

    exit_code = 2

#: experiment group -> (experiment id, the claim the series checks)
EXPERIMENTS = {
    "bench_storing": ("E1", "Storing Theorem: O(1) lookup, O(n^eps) update (Thm 3.1)"),
    "bench_distance": ("E3", "Distance testing O(1) after pseudo-linear prep (Prop 4.2)"),
    "bench_cover": ("E4", "Neighborhood covers: pseudo-linear, small degree (Thm 4.4)"),
    "bench_splitter": ("E5", "Splitter wins in rounds independent of n (Thm 4.6)"),
    "bench_skip": ("E6", "Skip pointers: O(1) queries (Lemma 5.8)"),
    "bench_next_solution": ("E7", "Next-solution O(1) after pseudo-linear prep (Thm 2.3)"),
    "bench_testing": ("E8", "Testing O(1), baseline grows (Cor 2.4)"),
    "bench_delay": ("E9", "Constant-delay enumeration (Cor 2.5)"),
    "bench_sparsity": ("E10", "Nowhere dense density exponent -> 1 (Thm 2.1)"),
    "bench_db_reduction": ("E11", "Relational reduction is linear (Lemma 2.2)"),
    "bench_crossover": ("E12", "Index vs materialize-everything crossover"),
    "bench_counting": ("E13", "Counting without enumerating ([18])"),
    "bench_dynamic": ("E14", "Color flips through the versioned index (Sec. 6 direction)"),
    "bench_persist": ("E15", "Snapshot warm load beats cold preprocessing (persistence)"),
    "bench_serving": ("E16", "Pre-fork pool: throughput, open-loop p99, shared arenas"),
    "bench_updates": ("E17", "Edge updates: ball-local repair equals a rebuild (Sec. 6)"),
    "bench_profiler": ("E18", "Sampling-profiler overhead on enumeration (observability)"),
    "bench_ablation": ("EA", "Ablations of the engineering knobs"),
}

_PARAM_ORDER_RE = re.compile(r"\[(.*)\]")


def _param_sort_key(name: str):
    match = _PARAM_ORDER_RE.search(name)
    if not match:
        return (name,)
    parts = match.group(1).split("-")
    key = []
    for part in parts:
        try:
            key.append((0, int(part)))
        except ValueError:
            key.append((1, part))
    return tuple(key)


def load_results(path: str | Path) -> list[dict]:
    """The benchmark entries of a results JSON file.

    Raises :exc:`ReportError` (with a one-line, actionable message) when
    the file is missing, empty, truncated, or not a benchmark document —
    the usual leftovers of an interrupted benchmark run.
    """
    source = Path(path)
    try:
        text = source.read_text()
    except FileNotFoundError:
        raise ReportError(f"{source}: no such file") from None
    except OSError as exc:
        raise ReportError(f"{source}: {exc.strerror or exc}") from None
    if not text.strip():
        raise ReportError(
            f"{source}: file is empty — the benchmark run that wrote it was "
            "interrupted; re-run `python -m repro bench-suite`"
        )
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReportError(
            f"{source}: invalid JSON at line {exc.lineno} column {exc.colno} "
            f"({exc.msg}) — likely a truncated benchmark run"
        ) from None
    if not isinstance(data, dict) or "benchmarks" not in data:
        raise ReportError(
            f"{source}: not a benchmark results document (no 'benchmarks' key)"
        )
    benchmarks = data["benchmarks"]
    if not isinstance(benchmarks, list):
        raise ReportError(f"{source}: 'benchmarks' should be a list")
    return benchmarks


def group_by_experiment(benchmarks: list[dict]) -> dict[str, list[dict]]:
    """Bucket benchmark entries by experiment group, sorted by parameter."""
    groups: dict[str, list[dict]] = defaultdict(list)
    for bench in benchmarks:
        stem = Path(bench.get("fullname", "")).name.split(".py")[0]
        groups[stem].append(bench)
    for group in groups.values():
        group.sort(key=lambda b: (_base_name(b["name"]), _param_sort_key(b["name"])))
    return dict(groups)


def _base_name(name: str) -> str:
    return name.split("[")[0]


def _format_seconds(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1:
        return f"{seconds * 1e3:.1f} ms"
    return f"{seconds:.2f} s"


def render_group(stem: str, benchmarks: list[dict]) -> str:
    """One experiment's markdown section (claim header + measurement table)."""
    experiment, claim = EXPERIMENTS.get(stem, ("?", stem))
    lines = [f"### {experiment} — {claim}", ""]
    lines.append("| benchmark | mean | extra |")
    lines.append("|---|---|---|")
    for bench in benchmarks:
        mean = _format_seconds(bench["stats"]["mean"])
        extra = bench.get("extra_info", {})
        extra_text = ", ".join(f"{k}={v}" for k, v in sorted(extra.items()))
        lines.append(f"| `{bench['name']}` | {mean} | {extra_text} |")
    lines.append("")
    return "\n".join(lines)


def _experiment_sort_key(stem: str) -> tuple:
    experiment = EXPERIMENTS.get(stem, ("Z",))[0]
    match = re.fullmatch(r"E(\d+)", experiment)
    if match:
        return (0, int(match.group(1)))
    return (1, experiment)


def render_benchmarks(benchmarks: list[dict]) -> str:
    """The full markdown report for a list of benchmark entries."""
    groups = group_by_experiment(benchmarks)
    ordered = sorted(groups.items(), key=lambda kv: _experiment_sort_key(kv[0]))
    sections = [render_group(stem, group) for stem, group in ordered]
    header = (
        "# Benchmark report\n\n"
        f"{len(benchmarks)} measurements across {len(groups)} experiments.\n"
    )
    return header + "\n" + "\n".join(sections)


def render_report(path: str | Path) -> str:
    """The full markdown report for one benchmark JSON file."""
    return render_benchmarks(load_results(path))


def main(argv: list[str] | None = None) -> int:
    """CLI: render the report for one JSON file to stdout."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.reporting BENCH_results.json", file=sys.stderr)
        return 2
    try:
        report = render_report(argv[0])
    except ReportError as exc:
        print(f"repro.reporting: {exc}", file=sys.stderr)
        return 2
    try:
        print(report)
    except BrokenPipeError:  # e.g. `... | head` closed the pipe early
        sys.stderr.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
