"""Sparsity measurements for nowhere dense classes (Section 2, Theorem 2.1).

The paper characterizes nowhere dense classes via *weak r-accessibility*:
``b`` is weakly r-accessible from ``a`` (under a linear order) if some path
of length <= r connects them on which ``b`` is smaller than ``a`` and all
intermediate vertices.  A class is nowhere dense iff orders exist making
those counts ``<= n^eps``; bounded expansion iff they are constant.

These quantities are not needed by the enumeration algorithms themselves —
they consume covers and splitter strategies — but they are how we *verify*
that generated inputs are sparse (experiment E10) and how we demonstrate
Theorem 2.1's edge bound.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.graphs.colored_graph import ColoredGraph


def degeneracy_order(graph: ColoredGraph) -> list[int]:
    """A degeneracy (smallest-last) order of the vertices.

    Repeatedly removes a minimum-degree vertex; the reverse removal order is
    the classic greedy order witnessing small weak-accessibility counts on
    sparse graphs.  Runs in ``O(n + m)`` with bucket queues.
    """
    n = graph.n
    degree = [graph.degree(v) for v in range(n)]
    max_degree = max(degree, default=0)
    buckets: list[set[int]] = [set() for _ in range(max_degree + 1)]
    for v in range(n):
        buckets[degree[v]].add(v)
    removed = [False] * n
    removal: list[int] = []
    cursor = 0
    for _ in range(n):
        while cursor < len(buckets) and not buckets[cursor]:
            cursor += 1
        v = buckets[cursor].pop()
        removed[v] = True
        removal.append(v)
        for w in graph.neighbors(v):
            if not removed[w]:
                buckets[degree[w]].discard(w)
                degree[w] -= 1
                buckets[degree[w]].add(w)
                if degree[w] < cursor:
                    cursor = degree[w]
    removal.reverse()
    return removal


def weakly_accessible_counts(
    graph: ColoredGraph,
    radius: int,
    order: Sequence[int] | None = None,
) -> list[int]:
    """For each vertex, the number of weakly ``radius``-accessible vertices.

    ``order[i]`` is the vertex at position ``i``; smaller position = smaller
    in the order.  Defaults to a degeneracy order.  Computed by a truncated
    DFS from each vertex that only continues through strictly larger
    intermediate vertices, per the definition in Section 2.
    """
    if order is None:
        order = degeneracy_order(graph)
    position = [0] * graph.n
    for i, v in enumerate(order):
        position[v] = i
    counts = []
    for a in graph.vertices():
        accessible: set[int] = set()
        # frontier holds (vertex, remaining steps); intermediate vertices on
        # the path so far are all > a in the order.
        frontier = [(a, radius)]
        visited = {a}
        while frontier:
            u, budget = frontier.pop()
            if budget == 0:
                continue
            for w in graph.neighbors(u):
                if position[w] < position[a]:
                    accessible.add(w)
                if w not in visited and position[w] > position[a] and budget > 1:
                    visited.add(w)
                    frontier.append((w, budget - 1))
        counts.append(len(accessible))
    return counts


def weak_coloring_number_upper_bound(graph: ColoredGraph, radius: int) -> int:
    """``max_a |weakly r-accessible from a}| + 1`` under the degeneracy order.

    An upper bound on the weak ``r``-coloring number; constant in ``n`` over
    a bounded-expansion class, ``n^{o(1)}`` over a nowhere dense class.
    """
    counts = weakly_accessible_counts(graph, radius)
    return (max(counts) if counts else 0) + 1


def edge_density_exponent(graph: ColoredGraph) -> float:
    """The exponent ``e`` with ``||G|| = |G|^e`` (Theorem 2.1's quantity).

    Nowhere dense classes satisfy ``e <= 1 + eps`` eventually for every
    ``eps > 0``.
    """
    if graph.n <= 1:
        return 0.0
    return math.log(graph.size) / math.log(graph.n)


def is_edgeless(graph: ColoredGraph) -> bool:
    """True iff the graph has no edges (the splitter-recursion base case)."""
    return graph.num_edges == 0


def degeneracy(graph: ColoredGraph) -> int:
    """The degeneracy of the graph (max min-degree over subgraphs)."""
    n = graph.n
    degree = [graph.degree(v) for v in range(n)]
    max_degree = max(degree, default=0)
    buckets: list[set[int]] = [set() for _ in range(max_degree + 1)]
    for v in range(n):
        buckets[degree[v]].add(v)
    removed = [False] * n
    best = 0
    cursor = 0
    for _ in range(n):
        while cursor < len(buckets) and not buckets[cursor]:
            cursor += 1
        best = max(best, cursor)
        v = buckets[cursor].pop()
        removed[v] = True
        for w in graph.neighbors(v):
            if not removed[w]:
                buckets[degree[w]].discard(w)
                degree[w] -= 1
                buckets[degree[w]].add(w)
                if degree[w] < cursor:
                    cursor = degree[w]
    return best
