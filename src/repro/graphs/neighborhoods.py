"""Distances, balls and induced neighborhoods (Section 2 of the paper).

The paper works with the Gaifman graph; for colored graphs the Gaifman
graph *is* the edge relation, so all distance notions reduce to plain BFS.
``N_r(a)`` is the closed ball of radius ``r`` around ``a``; for a tuple,
``N_r(ā)`` is the union of the component balls.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.graphs.colored_graph import ColoredGraph

#: Distance value standing for "unreachable" (the paper leaves it infinite).
INFINITY = float("inf")


def bounded_bfs(graph: ColoredGraph, sources: Iterable[int], radius: int) -> dict[int, int]:
    """Distances up to ``radius`` from the closest of ``sources``.

    This is the workhorse for computing ``N_r`` sets and the recolorings
    ``R_i`` of Example 1-C / preprocessing Step 4 (Section 4.2.1): the result
    maps every vertex within distance ``radius`` of some source to that
    distance.
    """
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    dist: dict[int, int] = {}
    queue: deque[int] = deque()
    for s in sources:
        if s not in dist:
            dist[s] = 0
            queue.append(s)
    while queue:
        u = queue.popleft()
        du = dist[u]
        if du == radius:
            continue
        for v in graph.neighbors(u):
            if v not in dist:
                dist[v] = du + 1
                queue.append(v)
    return dist


def distance(graph: ColoredGraph, a: int, b: int, cutoff: int | None = None) -> int | float:
    """Distance between ``a`` and ``b``; ``INFINITY`` if disconnected.

    With ``cutoff`` given, stops early and returns ``INFINITY`` whenever the
    distance exceeds it — that is all ``dist_<=r`` atoms ever need.
    """
    if a == b:
        return 0
    limit = cutoff if cutoff is not None else graph.n
    dist = bounded_bfs(graph, [a], limit)
    return dist.get(b, INFINITY)


def ball(graph: ColoredGraph, center: int, radius: int) -> set[int]:
    """``N_r(a)``: vertices at distance at most ``radius`` from ``center``."""
    return set(bounded_bfs(graph, [center], radius))


def tuple_ball(graph: ColoredGraph, centers: Iterable[int], radius: int) -> set[int]:
    """``N_r(ā)``: union of the balls of the tuple's components."""
    return set(bounded_bfs(graph, centers, radius))


def induced_subgraph(graph: ColoredGraph, vertices: Iterable[int]) -> ColoredGraph:
    """``G[B]`` as a graph on the *same* vertex ids, isolated outside ``B``.

    The paper's ``G[B]`` has domain ``B``; keeping the ambient vertex ids
    (with vertices outside ``B`` left isolated and colorless) lets indexes
    built on the subgraph answer queries phrased in ambient coordinates.
    Use :meth:`ColoredGraph.relabeled_subgraph` when a compact domain is
    needed instead.
    """
    vertex_set = set(vertices)
    sub = ColoredGraph(graph.n)
    for v in vertex_set:
        for w in graph.neighbors(v):
            if w in vertex_set and v < w:
                sub.add_edge(v, w)
    for name in graph.color_names:
        members = graph.color(name) & vertex_set
        if members:
            sub.set_color(name, members)
    return sub
