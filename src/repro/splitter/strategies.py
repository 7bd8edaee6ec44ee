"""Splitter strategies (Remark 4.7).

The paper needs Splitter's answer ``s_{i+1}`` computable from the previous
moves and ``c_{i+1}`` in time ``O(||N_r^{G_i}(c_{i+1})||)``.  Theorem 4.6
promises a winning strategy *exists* for every nowhere dense class but is
not constructive in general; we provide concrete strategies that win
quickly on the canonical sparse families (see DESIGN.md's substitution
table):

* :class:`TopmostStrategy` — for rooted forests: delete the unique
  shallowest vertex of the arena.  Each round strictly increases the
  minimum depth relative to the ball structure, so Splitter wins in at
  most ``r+1`` rounds on forests (the classic argument).
* :class:`CentroidStrategy` — delete a vertex minimizing the largest
  connected component left behind (a 1/2-balanced separator when one
  exists, e.g. on trees); good general-purpose play on planar-like
  inputs.
* :class:`GreedySeparatorStrategy` — delete the vertex of maximum degree
  inside the arena; cheap (linear in the arena) and effective on
  bounded-degree and bounded-expansion graphs.

All strategies receive the arena as an induced subgraph plus the ball
around Connector's move and must return a member of that ball.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Collection

from repro.graphs.colored_graph import ColoredGraph


class SplitterStrategy:
    """Interface: pick Splitter's vertex inside Connector's ball."""

    def choose(
        self,
        graph: ColoredGraph,
        arena: Collection[int],
        ball: Collection[int],
        connector: int,
        radius: int,
    ) -> int:
        """Return Splitter's move ``s ∈ ball``.

        ``graph`` is the ambient graph; ``arena`` the current arena's
        vertices; ``ball`` is ``N_radius`` of ``connector`` inside the
        arena (the next arena before Splitter's deletion).
        """
        raise NotImplementedError


class TopmostStrategy(SplitterStrategy):
    """Forest play: delete the shallowest vertex of the ball.

    ``depths`` maps every vertex to its depth in a rooted spanning forest;
    build with :func:`forest_depths`.
    """

    def __init__(self, depths: dict[int, int]) -> None:
        self.depths = depths

    def choose(self, graph, arena, ball, connector, radius) -> int:
        return min(ball, key=lambda v: (self.depths.get(v, 0), v))


class GreedySeparatorStrategy(SplitterStrategy):
    """Delete the highest-degree vertex of the ball (degree within the ball)."""

    def choose(self, graph, arena, ball, connector, radius) -> int:
        members = set(ball)

        def inner_degree(v: int) -> int:
            return sum(1 for w in graph.neighbors(v) if w in members)

        return max(ball, key=lambda v: (inner_degree(v), -v))


class CentroidStrategy(SplitterStrategy):
    """Delete the ball vertex minimizing the largest remaining component.

    Exact below ``exact_limit`` ball sizes: every candidate is scored by
    :func:`_removal_scores` in one cut-vertex DFS, linear in the ball and
    its edges, and the minimum ``(score, vertex)`` wins (the smallest
    vertex among equally good separators).  Above the limit it falls
    back to :class:`GreedySeparatorStrategy`, as before.
    """

    def __init__(self, exact_limit: int = 160) -> None:
        self.exact_limit = exact_limit
        self._fallback = GreedySeparatorStrategy()

    def choose(self, graph, arena, ball, connector, radius) -> int:
        members = set(ball)
        if len(members) > self.exact_limit:
            return self._fallback.choose(graph, arena, ball, connector, radius)
        scores = _removal_scores(graph, members)
        return min(members, key=lambda s: (scores[s], s))


def _removal_scores(graph: ColoredGraph, members: set[int]) -> dict[int, int]:
    """For every ``s`` in ``members``: the size of the largest connected
    component of the subgraph induced by ``members - {s}``.

    One iterative DFS per component of ``members`` records discovery
    times, low-links and subtree sizes.  Deleting ``s`` cuts off each DFS
    child ``c`` with ``low[c] >= disc[s]`` as a component of its own; the
    rest of ``s``'s component stays connected to the parent side.  The
    other components survive whole, so the largest of them (the two
    largest sizes suffice) completes the score.  Time
    ``O(|members| + edges among them)``.
    """
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    size: dict[int, int] = {}
    cut_max: dict[int, int] = {}  # largest subtree deleting the vertex cuts off
    cut_sum: dict[int, int] = {}  # total size of those subtrees
    components: list[tuple[int, list[int]]] = []
    for root in members:
        if root in disc:
            continue
        order = [root]
        disc[root] = low[root] = len(disc)
        size[root], cut_max[root], cut_sum[root] = 1, 0, 0
        stack = [(root, iter(graph.neighbors(root)))]
        while stack:
            v, pending = stack[-1]
            for w in pending:
                if w not in members:
                    continue
                if w in disc:
                    low[v] = min(low[v], disc[w])
                    continue
                disc[w] = low[w] = len(disc)
                size[w], cut_max[w], cut_sum[w] = 1, 0, 0
                order.append(w)
                stack.append((w, iter(graph.neighbors(w))))
                break
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    size[parent] += size[v]
                    low[parent] = min(low[parent], low[v])
                    if low[v] >= disc[parent]:
                        cut_sum[parent] += size[v]
                        cut_max[parent] = max(cut_max[parent], size[v])
        components.append((size[root], order))
    sizes = sorted((total for total, _ in components), reverse=True) + [0, 0]
    scores: dict[int, int] = {}
    for total, order in components:
        others = sizes[1] if total == sizes[0] else sizes[0]
        for v in order:
            rest = total - 1 - cut_sum[v]
            scores[v] = max(others, cut_max[v], rest)
    return scores


def forest_depths(graph: ColoredGraph) -> dict[int, int]:
    """BFS depths in a spanning forest rooted at the smallest vertex of
    each component — the labels :class:`TopmostStrategy` plays from."""
    depths: dict[int, int] = {}
    for root in graph.vertices():
        if root in depths:
            continue
        depths[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in graph.neighbors(u):
                if w not in depths:
                    depths[w] = depths[u] + 1
                    queue.append(w)
    return depths


def default_strategy(graph: ColoredGraph) -> SplitterStrategy:
    """Pick a sensible strategy for ``graph``: topmost play on forests,
    centroid play otherwise."""
    if graph.num_edges < graph.n:  # a forest has at most n-1 edges
        if _is_forest(graph):
            return TopmostStrategy(forest_depths(graph))
    return CentroidStrategy()


def _is_forest(graph: ColoredGraph) -> bool:
    seen: set[int] = set()
    for root in graph.vertices():
        if root in seen:
            continue
        seen.add(root)
        queue = deque([(root, -1)])
        while queue:
            u, parent = queue.popleft()
            for w in graph.neighbors(u):
                if w == parent:
                    continue
                if w in seen:
                    return False
                seen.add(w)
                queue.append((w, u))
    return True
