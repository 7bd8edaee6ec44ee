"""A waiver that waives nothing — the merged lint's LNT001 self-test subject.

Never imported by the library; ``tests/contracts/test_cli_lint.py`` lints
this file and asserts that LNT001 fires at the stale waiver's line and
nowhere else.
"""

from __future__ import annotations

from repro.contracts import constant_time
from repro.graphs.colored_graph import ColoredGraph


@constant_time(note="waived: loop is over a constant-size sample")
def waived_loop(graph: ColoredGraph) -> int:
    total = 0
    # contract: samples a fixed pilot subset, not the whole graph
    for v in graph.vertices():  # CTC001 fires here, but waived
        total += v
        break
    return total


@constant_time(note="constant: the waiver below excuses nothing")
def vertex_count(graph: ColoredGraph) -> int:
    # contract: amortized — built lazily on first use
    return graph.n
