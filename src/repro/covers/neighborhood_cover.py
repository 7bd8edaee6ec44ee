"""(r, 2r)-neighborhood covers (Definition 4.3, Theorem 4.4).

Theorem 4.4 guarantees that nowhere dense classes admit (r, 2r)-covers of
degree ``<= n^eps``, computable in pseudo-linear time.  We use the greedy
ball construction (the same scheme underlying [17, Lemma 6.10]):

* scan the vertices in a degeneracy order;
* whenever a vertex ``c`` is not yet covered, emit the bag ``N_2r(c)``
  with center ``c`` and declare every vertex of ``N_r(c)`` covered, with
  canonical bag ``X(a) = X_c``.

Properties (asserted by :meth:`NeighborhoodCover.check_properties`):

* every ``a`` has ``N_r(a) ⊆ X(a)`` — because ``a ∈ N_r(c)`` implies
  ``N_r(a) ⊆ N_2r(c)``;
* every bag is inside ``N_2r(c_X)`` by construction;
* centers are pairwise at distance ``> r``, which is what keeps the degree
  small on sparse graphs.  The degree is *measured*, not assumed; it is
  the quantity experiment E4 reports against the paper's ``n^eps`` bound.

Bag membership (one hash-set probe), canonical-bag assignment and
per-bag vertex lists are retrievable in constant time.  The paper's
``f_X`` encoding (Section 4.1) also gives the ordered successor within a
bag; no step of the pipeline needs it, so no ordered structure is built.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.contracts import constant_time, frozen_after_build, pseudo_linear, read_only
from repro.graphs.colored_graph import ColoredGraph
from repro.graphs.neighborhoods import bounded_bfs
from repro.graphs.sparsity import degeneracy_order
from repro.trace.runtime import span as _trace_span


@frozen_after_build
class NeighborhoodCover:
    """An (r, s)-neighborhood cover of a colored graph.

    Built via :func:`build_cover`; not meant to be constructed directly.
    """

    @pseudo_linear(note="membership sets + per-bag assignment lists")
    def __init__(
        self,
        graph: ColoredGraph,
        radius: int,
        bag_radius: int,
        bags: list[list[int]],
        centers: list[int],
        assignment: list[int],
    ) -> None:
        self.graph = graph
        self.radius = radius
        self.bag_radius = bag_radius
        self.bags = bags  # bag id -> sorted vertex list
        self.centers = centers  # bag id -> center c_X
        self.assignment = assignment  # vertex -> canonical bag id X(a)
        # per-bag list of b with X(b) = X (Step 3 of Section 5.2.1)
        self.assigned: list[list[int]] = [[] for _ in bags]
        for vertex, bag_id in enumerate(assignment):
            if not 0 <= bag_id < len(bags):
                raise ValueError(
                    f"vertex {vertex} has invalid canonical bag id {bag_id} "
                    f"(expected 0..{len(bags) - 1}); the scan order did not "
                    "cover every vertex"
                )
            self.assigned[bag_id].append(vertex)
        # membership sets for O(1) "a in X" tests
        self._member_sets = [set(bag) for bag in bags]

    # ------------------------------------------------------------------
    @property
    @read_only
    def num_bags(self) -> int:
        """``|X|`` — the number of bags."""
        return len(self.bags)

    @constant_time(note="one array read")
    @read_only
    def bag_of(self, vertex: int) -> int:
        """The canonical bag id ``X(a)`` (fixed arbitrarily, as in the paper)."""
        return self.assignment[vertex]

    @constant_time
    @read_only
    def center(self, bag_id: int) -> int:
        """``c_X``: a vertex with ``X ⊆ N_{2r}(c_X)``."""
        return self.centers[bag_id]

    @constant_time(note="one hash-set probe")
    @read_only
    def contains(self, bag_id: int, vertex: int) -> bool:
        """Constant-time bag membership."""
        return vertex in self._member_sets[bag_id]

    @read_only
    def degree(self) -> int:
        """``δ(X)``: the maximum number of bags meeting at one vertex."""
        counts = [0] * self.graph.n
        for bag in self.bags:
            for vertex in bag:
                counts[vertex] += 1
        return max(counts, default=0)

    @read_only
    def total_bag_size(self) -> int:
        """``Σ_X |X|`` — bounded by ``n^{1+eps}`` when the degree is ``n^eps``."""
        return sum(len(bag) for bag in self.bags)

    # ------------------------------------------------------------------
    @read_only
    def check_properties(self) -> None:
        """Verify Definition 4.3 (tests only; costs a BFS per vertex)."""
        for a in self.graph.vertices():
            bag = self._member_sets[self.assignment[a]]
            ball = bounded_bfs(self.graph, [a], self.radius)
            missing = set(ball) - bag
            if missing:
                raise AssertionError(
                    f"N_{self.radius}({a}) not inside its bag; missing {sorted(missing)[:5]}"
                )
        for bag_id, bag in enumerate(self.bags):
            ball = bounded_bfs(self.graph, [self.centers[bag_id]], self.bag_radius)
            outside = set(bag) - set(ball)
            if outside:
                raise AssertionError(
                    f"bag {bag_id} leaves N_{self.bag_radius}(center); extra {sorted(outside)[:5]}"
                )

    @read_only
    def __repr__(self) -> str:
        return (
            f"NeighborhoodCover(r={self.radius}, s={self.bag_radius}, "
            f"bags={len(self.bags)}, degree={self.degree()})"
        )


def _validated_order(graph: ColoredGraph, order: Sequence[int]) -> list[int]:
    """Check a custom scan order and extend it to cover every vertex.

    Entries must be in-range, non-duplicated vertices (``ValueError``
    otherwise).  A *partial* order is legal: the greedy scan continues
    over the remaining vertices in ascending order, so every vertex ends
    up with a canonical bag — previously a partial order silently
    corrupted the last bag via ``assignment[a] == -1``.
    """
    seen: set[int] = set()
    scan: list[int] = []
    for c in order:
        if not isinstance(c, int) or not 0 <= c < graph.n:
            raise ValueError(
                f"scan order entry {c!r} is not a vertex of a graph on "
                f"[0, {graph.n})"
            )
        if c in seen:
            raise ValueError(f"scan order lists vertex {c} twice")
        seen.add(c)
        scan.append(c)
    if len(scan) < graph.n:
        scan.extend(v for v in graph.vertices() if v not in seen)
    return scan


@pseudo_linear(note="Theorem 4.4 greedy ball construction")
def build_cover(
    graph: ColoredGraph,
    radius: int,
    order: Sequence[int] | None = None,
) -> NeighborhoodCover:
    """Build an (r, 2r)-neighborhood cover greedily (Theorem 4.4).

    Parameters
    ----------
    graph:
        The input colored graph.
    radius:
        The cover radius ``r``.
    order:
        Scan order for choosing centers; defaults to a degeneracy order,
        which empirically keeps the degree small on sparse classes.  A
        partial order is completed with the remaining vertices in
        ascending order; invalid entries raise ``ValueError``.
    """
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    with _trace_span("cover.build", radius=radius, n=graph.n) as sp:
        n = graph.n
        if order is None:
            order = degeneracy_order(graph)
        else:
            order = _validated_order(graph, order)
        assignment = [-1] * n
        bags: list[list[int]] = []
        centers: list[int] = []
        for c in order:
            if assignment[c] != -1:
                continue
            # an uncovered vertex becomes a center: its 2r-ball is the
            # bag, and the uncovered part of its r-ball is assigned to it
            big_ball = bounded_bfs(graph, [c], 2 * radius)
            bag_id = len(bags)
            bags.append(sorted(big_ball))
            centers.append(c)
            for a, dist in big_ball.items():
                if dist <= radius and assignment[a] == -1:
                    assignment[a] = bag_id
        if sp is not None:
            sp.attributes["bags"] = len(bags)
        return NeighborhoodCover(graph, radius, 2 * radius, bags, centers, assignment)
