"""Constant-delay enumeration (Corollary 2.5).

The paper's loop outputs a solution, forms its lexicographic successor
tuple and asks Theorem 2.3's index for the next solution at or above it.
Consecutive answers share their prefix, though, and each source the
Lemma 5.2 minimum is taken over is already sorted, so the loop here
pulls one answer at a time from the index's stream
(:meth:`~repro.core.next_solution.NextSolutionIndex.solutions`): a
constant set-up per prefix, then one merge step per answer where the
paper's loop makes a whole next-solution call.  The bound is
Corollary 2.5's.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator

from repro.contracts import constant_time, delay
from repro.core.next_solution import NextSolutionIndex
from repro.metrics.runtime import active as _metrics_active
from repro.trace.runtime import span as _trace_span


@constant_time(note="sum over the fixed set of contracted functions; data-independent")
def _ops_total() -> int | None:
    """Total contracted-function calls so far, or None without ``ops=True``.

    The per-step *difference* of this total is the ``ops`` attribute on
    ``enumerate.step`` spans — the machine-independent delay the guarantee
    watchdog judges.  The sum runs over the codebase's contracted
    functions (a fixed set, independent of the input graph).
    """
    registry = _metrics_active()
    if registry is None or not registry.op_counts:
        return None
    return sum(registry.op_counts.values())


@delay("O(1)", note="Corollary 2.5: one answer of the index's stream per step")
def enumerate_solutions(
    index: NextSolutionIndex,
    start: tuple[int, ...] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Solutions ``>= start`` in increasing lexicographic order, constant delay.

    ``start`` defaults to the all-zero tuple (i.e. everything).  Resuming
    an enumeration from the middle costs nothing — Theorem 2.3's oracle
    makes every suffix of the stream equally cheap, which is what makes
    pagination over huge result sets practical.

    Each answer's computation is one ``enumerate.step`` span; inside
    ``repro.metrics.collect()`` its duration lands in the
    ``enumeration.delay_seconds`` histogram.  The final step, which finds
    no further answer, is a step too.
    """
    if start is None:
        start = tuple([0] * index.k)
    stream = index.solutions(tuple(start))
    # each span covers exactly one answer's computation (never consumer
    # time between yields) — the unit the guarantee watchdog budgets
    with _trace_span("enumerate.step", "enumeration.delay_seconds", first=True) as sp:
        before = _ops_total() if sp is not None else None
        current = next(stream, None)
        if sp is not None and before is not None:
            sp.attributes["ops"] = _ops_total() - before
    while current is not None:
        yield current
        with _trace_span("enumerate.step", "enumeration.delay_seconds") as sp:
            before = _ops_total() if sp is not None else None
            current = next(stream, None)
            if sp is not None and before is not None:
                sp.attributes["ops"] = _ops_total() - before


def enumerate_with_delays(
    solutions: Iterable[tuple[int, ...]],
) -> tuple[list[tuple[int, ...]], list[float]]:
    """Drain a solution stream, recording the wall-clock delay before each output.

    The delay list is what experiment E9 reports: the paper predicts it is
    flat in ``|G|`` (constant delay), with the first entry covering the
    time-to-first-solution.  E9 takes its exact nearest-rank percentiles
    from this list, not from the bucketed ``enumeration.delay_seconds``
    histogram.  Pass ``enumerate_solutions(index)`` or a built index's
    ``enumerate()``.
    """
    out: list[tuple[int, ...]] = []
    delays: list[float] = []
    tick = time.perf_counter()
    for solution in solutions:
        now = time.perf_counter()
        delays.append(now - tick)
        tick = now
        out.append(solution)
    return out, delays
