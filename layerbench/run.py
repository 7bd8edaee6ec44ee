"""Layer-ledger benchmark: one command, three workloads, every metric by name.

Usage (from the repository root)::

    python3 layerbench/run.py --workload enum-inproc --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` replays the
workload's payloads down the layer ladder and prints the per-layer
metrics instead (see ``layerbench/README.md``).  Human-readable lines
come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 when the run completed, whatever the answer checks said.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from layerbench.common import ROOT, SRC, WORK, machine_info, scrub_env  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=["enum-inproc", "serve-probe", "live-updates"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--scale", choices=["full", "tiny"], default="full",
        help="graph sizes; 'tiny' is for the harness self-test",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"layerbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    removed = scrub_env()
    sys.path.insert(0, str(SRC))

    from layerbench.workloads import WORKLOADS, Context

    run_dir = WORK / f"run-{args.workload}-{args.seed}-{args.trace}-{int(time.time() * 1e3)}"
    run_dir.mkdir(parents=True)
    spans = None
    if args.trace:
        from layerbench.ladder import SpanLog

        spans = SpanLog()
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        traced=bool(args.trace),
        scale=args.scale,
        run_dir=run_dir,
        spans=spans,
    )
    try:
        outcome = WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    config = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "repro_env_cleared": removed,
        **machine_info(),
        **outcome.notes,
    }
    if spans is not None:
        span_file = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        config["span_file"] = str(span_file.relative_to(ROOT))
        config["spans"] = spans.write(span_file)
    print(f"# config {json.dumps(config, sort_keys=True)}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:36s} {value:14.6f} {unit}")
    for name, (value, unit) in outcome.raw.items():
        if value != outcome.metrics[name][0]:
            print(f"# raw {name:30s} {value:14.6f} {unit} (before scaling to reference speed)")
    error_rate = outcome.failed / outcome.attempted
    print(f"{'error_rate':36s} {error_rate:14.6f} ratio "
          f"({outcome.failed} failed of {outcome.attempted} attempted)")
    for name in ("update_p50_ms", "update_p90_ms"):
        if outcome.notes.get(name) is not None:
            print(f"{name:36s} {outcome.notes[name]:14.6f} ms "
                  f"({outcome.notes['updates_acked']} acknowledged updates)")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
