"""Guard analysis: certified distance implications between variables.

A positively guarded existential (``∃z (E(x,z) ∧ ...)``) confines its
witnesses to a neighborhood of an already-anchored variable.  The guard
may also be *indirect*: in ``∃z ∃t (E(z,t) ∧ E(t,x))`` any witness for
``z`` satisfies ``dist(z, x) <= 2`` through the chain.

:func:`implied_connection` certifies such bounds by collecting the
positive Edge/Dist/Eq atoms along the ∧/∃ spine of a formula (an
existential witness still realizes its guards' distances) and running
Dijkstra on the resulting weighted variable graph.  Both the normal-form
decomposer (Theorem 5.4 stand-in) and the naive evaluator's witness
pruning build on it.
"""

from __future__ import annotations

import heapq
from functools import lru_cache

from repro.logic.syntax import (
    And,
    DistAtom,
    EdgeAtom,
    EqAtom,
    Exists,
    Formula,
    Var,
)

def _collect_guard_edges(block: Formula) -> list[tuple[Var, Var, int]]:
    edges: list[tuple[Var, Var, int]] = []

    def collect(node: Formula) -> None:
        if isinstance(node, EdgeAtom):
            edges.append((node.left, node.right, 1))
        elif isinstance(node, DistAtom):
            edges.append((node.left, node.right, node.bound))
        elif isinstance(node, EqAtom):
            edges.append((node.left, node.right, 0))
        elif isinstance(node, And):
            for part in node.parts:
                collect(part)
        elif isinstance(node, Exists):
            collect(node.body)
        # Or / Forall / Not branches are not guaranteed by a witness

    collect(block)
    return edges


@lru_cache(maxsize=4096)
def implied_connection(block: Formula, x: Var, y: Var) -> int | None:
    """A certified bound ``B`` with ``block ⇒ dist(x, y) <= B`` — or None.

    Sound for any satisfying assignment/witness of ``block``: the
    collected atoms all hold, so the shortest guard-graph path bounds the
    real distance.  Memoized per ``(block, x, y)`` in a bounded,
    thread-safe LRU cache.
    """
    adjacency: dict[Var, list[tuple[Var, int]]] = {}
    for u, v, w in _collect_guard_edges(block):
        adjacency.setdefault(u, []).append((v, w))
        adjacency.setdefault(v, []).append((u, w))
    result: int | None = None
    if x == y:
        result = 0
    elif x in adjacency:
        dist: dict[Var, int] = {x: 0}
        heap = [(0, x.name, x)]
        while heap:
            d, _, u = heapq.heappop(heap)
            if u == y:
                result = d
                break
            if d > dist.get(u, d):
                continue
            for v, w in adjacency.get(u, ()):
                nd = d + w
                if nd < dist.get(v, nd + 1):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v.name, v))
    return result


def deep_counterexample_guard(
    body: Formula, var: Var, anchored: dict[Var, int]
) -> tuple[Var, int] | None:
    """The dual rule for universals: in ``∀var (D_1 ∨ ... ∨ D_m)``, any
    counterexample satisfies every ``¬D_i``, so a certified connection in
    any single negated disjunct confines the counterexamples.

    Returns the best ``(anchor, bound)`` over the disjuncts, or None.
    """
    from repro.logic.syntax import Or
    from repro.logic.transform import negation_normal_form
    from repro.logic.syntax import Not as _Not

    parts = body.parts if isinstance(body, Or) else (body,)
    best: tuple[Var, int] | None = None
    for part in parts:
        negated = negation_normal_form(_Not(part))
        guard = deep_guard(negated, var, anchored)
        if guard is not None and (best is None or guard[1] < best[1]):
            best = guard
    return best


def deep_guard(
    body: Formula, var: Var, anchored: dict[Var, int]
) -> tuple[Var, int] | None:
    """The best certified guard for ``var`` in an existential's ``body``.

    Returns ``(anchor, total_bound)`` minimizing ``anchored[anchor] +
    implied_connection(body, var, anchor)`` — or None when no anchored
    variable is certifiably connected to ``var``.
    """
    best: tuple[Var, int] | None = None
    for anchor, offset in anchored.items():
        if anchor == var:
            continue
        bound = implied_connection(body, var, anchor)
        if bound is None:
            continue
        total = offset + bound
        if best is None or total < best[1]:
            best = (anchor, total)
    return best
