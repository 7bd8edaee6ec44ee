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

Bag membership, canonical-bag assignment and per-bag vertex lists are
retrievable in constant time; ordered membership ("smallest member of bag
X that is >= b") is served by a Theorem 3.1 :class:`StoredFunction` keyed
``(bag, vertex)``, exactly the paper's ``f_X`` encoding (Section 4.1).
"""

from __future__ import annotations

import threading
from collections.abc import Sequence

from repro.contracts import (
    amortized,
    constant_time,
    frozen_after_build,
    pseudo_linear,
    read_only,
)
from repro.graphs.colored_graph import ColoredGraph
from repro.graphs.neighborhoods import bounded_bfs
from repro.graphs.sparsity import degeneracy_order
from repro.metrics.runtime import count as _metrics_count
from repro.storage.function_store import StoredFunction
from repro.trace.runtime import span as _trace_span


@frozen_after_build(cells={"_membership_store": "_memo_lock"})
class NeighborhoodCover:
    """An (r, s)-neighborhood cover of a colored graph.

    Built via :func:`build_cover`; not meant to be constructed directly.
    """

    #: Store lock for the lazily-built membership structure; class-level
    #: so covers stay picklable.
    _memo_lock = threading.Lock()

    @pseudo_linear(note="membership sets + per-bag assignment lists")
    def __init__(
        self,
        graph: ColoredGraph,
        radius: int,
        bag_radius: int,
        bags: list[list[int]],
        centers: list[int],
        assignment: list[int],
        eps: float,
    ) -> None:
        self.graph = graph
        self.radius = radius
        self.bag_radius = bag_radius
        self.bags = bags  # bag id -> sorted vertex list
        self.centers = centers  # bag id -> center c_X
        self.assignment = assignment  # vertex -> canonical bag id X(a)
        self.eps = eps
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
        # ordered membership via the Storing Theorem (f_X of Section 4.1);
        # built lazily: only consumers of ordered queries pay for it
        self._membership_store: StoredFunction | None = None

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

    @property
    @read_only
    def _membership(self) -> StoredFunction:
        if self._membership_store is None:
            universe = max(self.graph.n, len(self.bags), 1)
            store = StoredFunction(
                universe,
                2,
                eps=self.eps,
                items=(
                    ((bag_id, vertex), True)
                    for bag_id, bag in enumerate(self.bags)
                    for vertex in bag
                ),
            )
            with self._memo_lock:
                if self._membership_store is None:
                    self._membership_store = store
        return self._membership_store

    @amortized("O(1)", note="f_X store built lazily on first ordered query")
    @read_only
    def next_member(self, bag_id: int, vertex: int, strict: bool = False) -> int | None:
        """Smallest member of the bag that is ``>= vertex`` (``>`` if strict).

        Constant time via the Storing Theorem structure, as promised after
        Theorem 4.4 in the paper (the structure is built on first use).
        """
        _metrics_count("cover.next_member")
        key = self._membership.successor((bag_id, vertex), strict=strict)
        if key is None or key[0] != bag_id:
            return None
        return key[1]

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


def _scan_sequential(
    graph: ColoredGraph,
    radius: int,
    order: Sequence[int],
    assignment: list[int],
    bags: list[list[int]],
    centers: list[int],
) -> None:
    for c in order:
        if assignment[c] != -1:
            continue
        big_ball = bounded_bfs(graph, [c], 2 * radius)
        _commit_ball(radius, c, big_ball, assignment, bags, centers)


def _scan_parallel(
    graph: ColoredGraph,
    radius: int,
    order: Sequence[int],
    assignment: list[int],
    bags: list[list[int]],
    centers: list[int],
    workers: int,
) -> None:
    """Speculative BFS fan-out: identical output to the sequential scan.

    Candidates still uncovered are taken in scan order in batches; their
    ``N_2r`` balls are computed concurrently (the expensive, independent
    step), then committed strictly in scan order, skipping candidates a
    same-batch predecessor covered.  Whether a vertex becomes a center
    depends only on earlier commits, so the greedy result is reproduced
    exactly; the only waste is the discarded speculative balls.
    """
    from concurrent.futures import ThreadPoolExecutor

    scan = list(order)
    batch = max(4 * workers, 16)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pos = 0
        while pos < len(scan):
            candidates: list[int] = []
            while pos < len(scan) and len(candidates) < batch:
                c = scan[pos]
                pos += 1
                if assignment[c] == -1:
                    candidates.append(c)
            if not candidates:
                continue
            balls = pool.map(
                lambda c: bounded_bfs(graph, [c], 2 * radius), candidates
            )
            for c, big_ball in zip(candidates, balls):
                if assignment[c] != -1:
                    continue
                _commit_ball(radius, c, big_ball, assignment, bags, centers)


def _commit_ball(
    radius: int,
    center: int,
    big_ball: dict[int, int],
    assignment: list[int],
    bags: list[list[int]],
    centers: list[int],
) -> None:
    bag_id = len(bags)
    bags.append(sorted(big_ball))
    centers.append(center)
    for a, dist in big_ball.items():
        if dist <= radius and assignment[a] == -1:
            assignment[a] = bag_id


@pseudo_linear(note="Theorem 4.4 greedy ball construction")
def build_cover(
    graph: ColoredGraph,
    radius: int,
    eps: float = 0.5,
    order: Sequence[int] | None = None,
    workers: int = 1,
) -> NeighborhoodCover:
    """Build an (r, 2r)-neighborhood cover greedily (Theorem 4.4).

    Parameters
    ----------
    graph:
        The input colored graph.
    radius:
        The cover radius ``r``.
    eps:
        Storing-structure exponent for the membership index.
    order:
        Scan order for choosing centers; defaults to a degeneracy order,
        which empirically keeps the degree small on sparse classes.  A
        partial order is completed with the remaining vertices in
        ascending order; invalid entries raise ``ValueError``.
    workers:
        Thread count for the speculative BFS fan-out; ``1`` runs the
        plain sequential scan.  Both paths produce the identical cover.
    """
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    with _trace_span("cover.build", radius=radius, n=graph.n, workers=workers) as sp:
        n = graph.n
        if order is None:
            order = degeneracy_order(graph)
        else:
            order = _validated_order(graph, order)
        assignment = [-1] * n
        bags: list[list[int]] = []
        centers: list[int] = []
        if workers > 1:
            _scan_parallel(graph, radius, order, assignment, bags, centers, workers)
        else:
            _scan_sequential(graph, radius, order, assignment, bags, centers)
        _metrics_count("cover.builds")
        _metrics_count("cover.bags", len(bags))
        if sp is not None:
            sp.attributes["bags"] = len(bags)
        return NeighborhoodCover(
            graph, radius, 2 * radius, bags, centers, assignment, eps
        )
