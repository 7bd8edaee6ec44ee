"""Constant-time distance testing (Proposition 4.2, Section 4.2).

After a pseudo-linear preprocessing we can answer ``dist_G(a, b) <= r?``
in constant time.  The construction follows the paper's five steps:

1. small graphs (``n <= naive_threshold``) are handled by a naive
   all-pairs-within-``r`` table — the paper's ``n <= f_C(r, δ)`` cutoff;
2. build an (r, 2r)-neighborhood cover ``X`` with centers ``c_X``;
3. for every bag compute Splitter's answer ``s_X`` to Connector playing
   ``c_X`` (Remark 4.7) — we insist ``s_X ∈ X`` so the recursion strictly
   shrinks;
4. compute ``R_i(X') = {w : dist_{G[X]}(w, s_X) <= i}`` for ``i <= r`` by
   one BFS inside the bag;
5. recurse on ``X' = G[X \\ {s_X}]`` (one fewer splitter round to go).

Answering (Section 4.2.2): ``dist(a,b) <= r`` iff ``b ∈ X(a)`` and, inside
the bag, either the path avoids ``s_X`` (recursive test in ``X'``) or goes
through it (``R_i(a) ∧ R_j(b)`` with ``i+j <= r``), with the ``a = s_X`` /
``b = s_X`` corner cases.
"""

from __future__ import annotations

from repro.contracts import builds, constant_time, frozen_after_build, pseudo_linear, read_only
from repro.covers.neighborhood_cover import build_cover
from repro.graphs.colored_graph import ColoredGraph
from repro.graphs.neighborhoods import bounded_bfs
from repro.splitter.strategies import SplitterStrategy, default_strategy
from repro.trace.runtime import span as _trace_span

#: Default "naive algorithm" size cutoff (the paper's f_C(r, δ) role).
DEFAULT_NAIVE_THRESHOLD = 64

#: Default recursion-depth cap — the stand-in for the constant λ(2r) that
#: Theorem 4.6 guarantees for a true nowhere dense class (see DESIGN.md).
DEFAULT_MAX_DEPTH = 3


@frozen_after_build
class DistanceIndex:
    """Tests ``dist(a, b) <= radius`` in constant time after preprocessing.

    Parameters
    ----------
    graph:
        The colored graph (vertex ids ``0..n-1``).
    radius:
        The distance bound ``r``.
    naive_threshold:
        Graphs at most this large are solved naively (Step 1).
    strategy:
        Splitter strategy; defaults to :func:`default_strategy`.
    """

    def __init__(
        self,
        graph: ColoredGraph,
        radius: int,
        naive_threshold: int = DEFAULT_NAIVE_THRESHOLD,
        strategy: SplitterStrategy | None = None,
        max_depth: int = DEFAULT_MAX_DEPTH,
        _depth: int = 0,
    ) -> None:
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        self.graph = graph
        self.radius = radius
        self.naive_threshold = max(2, naive_threshold)
        self.max_depth = max_depth
        self._depth = _depth
        self._strategy = strategy
        naive = (
            radius == 0
            or graph.n <= self.naive_threshold
            or graph.num_edges == 0
            or _depth >= max_depth
        )
        if _depth == 0:
            # one span for the whole recursive build, not one per child
            with _trace_span("distance.build", radius=radius, n=graph.n) as sp:
                self._build_naive() if naive else self._build_recursive()
                if sp is not None:
                    sp.attributes["mode"] = self._mode
        else:
            self._build_naive() if naive else self._build_recursive()

    # ------------------------------------------------------------------
    # preprocessing
    # ------------------------------------------------------------------
    @pseudo_linear(note="Step 1 cutoff: bounded BFS per vertex, n bounded")
    @builds
    def _build_naive(self) -> None:
        """Step 1: full result for small / edgeless graphs."""
        self._mode = "naive"
        self._pairs: dict[tuple[int, int], int] = {}
        if self.radius == 0 or self.graph.num_edges == 0:
            return  # dist <= 0 and edgeless graphs reduce to equality
        for a in self.graph.vertices():
            for b, d in bounded_bfs(self.graph, [a], self.radius).items():
                self._pairs[(a, b)] = d

    @pseudo_linear(note="Steps 2-5: cover + per-bag splitter recursion")
    @builds
    def _build_recursive(self) -> None:
        self._mode = "cover"
        graph, r = self.graph, self.radius
        strategy = self._strategy or default_strategy(graph)
        self.cover = build_cover(graph, r)  # Step 2
        self._splitter: list[int] = []
        self._dist_to_s: list[dict[int, int]] = []
        self._children: list["DistanceIndex"] = []
        self._to_child: list[dict[int, int]] = []
        for bag_id, bag in enumerate(self.cover.bags):
            center = self.cover.centers[bag_id]
            # Step 3: Splitter's answer inside the bag (a legal move, since
            # the bag sits inside N_2r(center)).
            s = strategy.choose(graph, bag, bag, center, 2 * r)
            self._splitter.append(s)
            # Step 4: R_i sets by BFS from s inside G[X].
            bag_set = set(bag)
            dist_in_bag = _bfs_within(graph, s, bag_set, r)
            self._dist_to_s.append(dist_in_bag)
            # Step 5: recurse on X' = G[X \ {s}].  The paper's recursion is
            # bounded by the constant λ(2r) (Theorem 4.6); our heuristic
            # strategy has no such certificate, so the depth cap plays λ's
            # role — beyond it, the child is solved naively (Step 1 cutoff),
            # which stays exact.  A shrinkage guard prevents degenerate
            # one-vertex-at-a-time chains on stubborn bags.
            sub, original = graph.relabeled_subgraph(bag_set - {s})
            child_depth = self._depth + 1
            if len(bag_set) - 1 > 0.9 * graph.n:
                child_depth = self.max_depth  # barely shrank: go naive below
            child = DistanceIndex(
                sub,
                r,
                self.naive_threshold,
                self._strategy,
                self.max_depth,
                _depth=child_depth,
            )
            self._children.append(child)
            self._to_child.append({v: i for i, v in enumerate(original)})

    # ------------------------------------------------------------------
    # query (Section 4.2.2)
    # ------------------------------------------------------------------
    @constant_time(note="Proposition 4.2 answering phase")
    @read_only
    def test(self, a: int, b: int) -> bool:
        """Is ``dist(a, b) <= radius``?  Constant time."""
        if a == b:
            return True
        if self._mode == "naive":
            if self.radius == 0 or self.graph.num_edges == 0:
                return False
            return (a, b) in self._pairs
        bag_id = self.cover.bag_of(a)
        if not self.cover.contains(bag_id, b):
            return False  # N_r(a) ⊆ X(a), so b out of the bag means too far
        s = self._splitter[bag_id]
        dist_s = self._dist_to_s[bag_id]
        if a == s or b == s:
            other = b if a == s else a
            return dist_s.get(other, self.radius + 1) <= self.radius
        da = dist_s.get(a)
        db = dist_s.get(b)
        if da is not None and db is not None and da + db <= self.radius:
            return True  # a path through s_X
        translate = self._to_child[bag_id]
        # contract: depth-capped recursion — lambda(2r) levels, a constant
        return self._children[bag_id].test(translate[a], translate[b])

    @constant_time(note="graded refinement of Proposition 4.2")
    @read_only
    def distance(self, a: int, b: int) -> int | None:
        """The exact distance when ``<= radius``, else None.  Constant time.

        The graded refinement of Proposition 4.2: the same structure
        answers every atom ``dist(x, y) <= d`` with ``d <= radius``, since
        the ``R_i`` recolorings (Step 4) store distances, not just the
        radius-``r`` threshold.
        """
        if a == b:
            return 0
        if self._mode == "naive":
            if self.radius == 0 or self.graph.num_edges == 0:
                return None
            return self._pairs.get((a, b))
        bag_id = self.cover.bag_of(a)
        if not self.cover.contains(bag_id, b):
            return None
        s = self._splitter[bag_id]
        dist_s = self._dist_to_s[bag_id]
        if a == s or b == s:
            other = b if a == s else a
            through = dist_s.get(other)
            return through if through is not None and through <= self.radius else None
        best: int | None = None
        da, db = dist_s.get(a), dist_s.get(b)
        if da is not None and db is not None and da + db <= self.radius:
            best = da + db  # the best path through s_X
        translate = self._to_child[bag_id]
        # contract: depth-capped recursion — lambda(2r) levels, a constant
        avoiding = self._children[bag_id].distance(translate[a], translate[b])
        if avoiding is not None and (best is None or avoiding < best):
            best = avoiding
        return best

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    @read_only
    def recursion_depth(self) -> int:
        """Maximum depth of splitter recursion (the measured λ of E5)."""
        if self._mode == "naive":
            return 0
        return 1 + max((c.recursion_depth for c in self._children), default=0)

    @read_only
    def index_size(self) -> int:
        """Rough size of the index: stored pairs + per-bag tables."""
        if self._mode == "naive":
            return len(self._pairs)
        total = self.cover.total_bag_size()
        total += sum(len(d) for d in self._dist_to_s)
        total += sum(c.index_size() for c in self._children)
        return total

    @read_only
    def __repr__(self) -> str:
        return (
            f"DistanceIndex(r={self.radius}, mode={self._mode}, n={self.graph.n})"
        )


def _bfs_within(
    graph: ColoredGraph, source: int, members: set[int], radius: int
) -> dict[int, int]:
    """Distances from ``source`` inside the induced subgraph on ``members``."""
    dist = {source: 0}
    frontier = [source]
    for _ in range(radius):
        new_frontier = []
        for u in frontier:
            du = dist[u]
            for w in graph.neighbors(u):
                if w in members and w not in dist:
                    dist[w] = du + 1
                    new_frontier.append(w)
        frontier = new_frontier
    return dist
