"""Constant-delay enumeration (Corollary 2.5).

Once Theorem 2.3's index exists, enumeration is the two-line loop the
paper describes: output a solution, form its lexicographic successor
tuple, and ask the index for the next solution at or above it.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator

from repro.contracts import constant_time, delay
from repro.core.next_solution import NextSolutionIndex, increment_tuple
from repro.metrics.runtime import active as _metrics_active
from repro.metrics.runtime import delay_recorder as _delay_recorder
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


@delay("O(1)", note="Corollary 2.5: one next_solution call per answer")
def enumerate_solutions(
    index: NextSolutionIndex,
    start: tuple[int, ...] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Solutions ``>= start`` in increasing lexicographic order, constant delay.

    ``start`` defaults to the all-zero tuple (i.e. everything).  Resuming
    an enumeration from the middle costs nothing — Theorem 2.3's oracle
    makes every suffix of the stream equally cheap, which is what makes
    pagination over huge result sets practical.

    Inside ``repro.metrics.collect()`` the per-answer delays land in the
    ``enumeration.delay_seconds`` histogram (experiment E9's subject);
    the delay then includes whatever the consumer does between answers,
    so measurement loops should consume tightly.
    """
    if index.k == 0:
        if index.test(()):
            yield ()
        return
    if index.graph.n == 0:
        return
    if start is None:
        start = tuple([0] * index.k)
    record = _delay_recorder("enumeration.delay_seconds")
    tick = time.perf_counter() if record is not None else 0.0
    # each span covers exactly one answer's computation (never consumer
    # time between yields) — the unit the guarantee watchdog budgets
    with _trace_span("enumerate.step", first=True) as sp:
        before = _ops_total() if sp is not None else None
        current = index.next_solution(tuple(start))
        if sp is not None and before is not None:
            sp.attributes["ops"] = _ops_total() - before
    while current is not None:
        if record is not None:
            now = time.perf_counter()
            record(now - tick)
            tick = now
        yield current
        with _trace_span("enumerate.step") as sp:
            before = _ops_total() if sp is not None else None
            bumped = increment_tuple(current, index.graph.n)
            current = (
                None if bumped is None else index.next_solution(bumped)
            )
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
