"""Dynamic color updates — a step toward the paper's open problem.

The conclusion (Section 6) asks for index structures that survive
*updates* without full recomputation, citing the word/tree results
[28, 2]; for nowhere dense graphs the question is open.  We implement the
tractable slice the Storing Theorem already pays for: **unary queries
under color updates**.

When a color flips on vertex ``v``, the only vertices whose answer can
change are those whose certified locality ball contains ``v`` — i.e.
``N_rho(v)`` for the query's guard radius ``rho``.  The update
re-evaluates the query on that ball (bag-local, as in preprocessing) and
edits the Theorem 3.1 structure: ``O(ball * local-eval + n^eps)`` per
update, while queries stay constant time.  Edge updates would change the
cover itself and are out of scope (as the paper suspects they must be,
short of logarithmic-update techniques).
"""

from __future__ import annotations

from repro.contracts import builds, constant_time, delay, pseudo_linear, read_only
from repro.core.normal_form import DecompositionError, locality_radius, normalize
from repro.graphs.colored_graph import ColoredGraph
from repro.graphs.neighborhoods import bounded_bfs
from repro.logic.semantics import DistanceCache, evaluate
from repro.logic.syntax import Formula, Var
from repro.storage.function_store import StoredFunction


class DynamicUnaryIndex:
    """A unary-query index supporting color updates.

    Parameters
    ----------
    graph:
        The colored graph; the index takes ownership of color edits done
        through :meth:`add_color` / :meth:`remove_color`.
    phi:
        A unary query in the guarded fragment (its locality radius must
        be certifiable — :class:`DecompositionError` otherwise).
    var:
        The free variable.

    Examples
    --------
    >>> from repro.graphs.generators import path
    >>> from repro.logic.parser import parse_formula
    >>> from repro.logic.syntax import Var
    >>> g = path(8, palette=())
    >>> index = DynamicUnaryIndex(g, parse_formula("exists y. E(x, y) & Hot(y)"), Var("x"))
    >>> index.solutions()
    []
    >>> index.add_color("Hot", 4)
    >>> index.solutions()
    [3, 5]
    """

    @pseudo_linear(note="one ball-local evaluation per vertex")
    def __init__(
        self,
        graph: ColoredGraph,
        phi: Formula,
        var: Var,
        eps: float = 0.5,
    ) -> None:
        self.graph = graph
        self.var = var
        self.phi = normalize(phi)
        radius = locality_radius(self.phi, frozenset((var,)))
        if radius is None:
            raise DecompositionError(
                f"dynamic maintenance needs a certified locality radius: {phi!r}"
            )
        self.radius = radius
        # the store is the *only* copy of the solution set: a shadow set
        # could drift from it if a store edit raised mid-_refresh
        members = sorted(v for v in graph.vertices() if self._holds(v))
        self._store = StoredFunction(
            max(graph.n, 1),
            1,
            eps=eps,
            items=(((v,), True) for v in members),
        )

    # ------------------------------------------------------------------
    def _holds(self, v: int) -> bool:
        """Evaluate the query on the locality ball of ``v`` (fresh caches —
        the graph mutates between calls).  Ball-sized work: the ball is
        compactly relabeled so no O(n) structures are touched."""
        ball = bounded_bfs(self.graph, [v], self.radius)
        local, original = self.graph.relabeled_subgraph(ball)
        local_v = original.index(v)
        return evaluate(local, self.phi, {self.var: local_v}, DistanceCache(local))

    @builds
    def _refresh(self, center: int) -> None:
        """Re-evaluate every vertex whose ball may contain ``center``.

        Declared ``@builds``: the dynamic index *owns* its Storing
        structure, and the update path is a legitimate re-entry into the
        build phase (the store's own ``@builds`` item methods open the
        phase at runtime, so the freeze tripwire stays quiet).
        """
        for v in bounded_bfs(self.graph, [center], self.radius):
            now = self._holds(v)
            before = (v,) in self._store
            if now and not before:
                self._store[(v,)] = True
            elif before and not now:
                del self._store[(v,)]

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    @delay("O(ball + n^eps)", note="repairs only N_rho(v) plus the store edit")
    def add_color(self, name: str, v: int) -> None:
        """Give ``v`` color ``name`` and repair the index (ball-sized work)."""
        self.graph.add_to_color(name, v)
        self._refresh(v)

    @delay("O(ball + n^eps)", note="repairs only N_rho(v) plus the store edit")
    def remove_color(self, name: str, v: int) -> None:
        """Remove color ``name`` from ``v`` and repair the index."""
        self.graph.discard_from_color(name, v)
        self._refresh(v)

    # ------------------------------------------------------------------
    # queries (constant time, as in the static index)
    # ------------------------------------------------------------------
    @constant_time(note="queries stay constant-time under updates")
    def test(self, v: int) -> bool:
        """Constant-time membership (Corollary 2.4's contract)."""
        return 0 <= v < self.graph.n and (v,) in self._store

    @constant_time(note="one stored-function successor query")
    def next_solution(self, lower: int) -> int | None:
        """Smallest solution >= lower, via the Storing structure."""
        if lower >= self.graph.n:
            return None
        found = self._store.successor((max(lower, 0),))
        return None if found is None else found[0]

    def solutions(self) -> list[int]:
        """The current solution set, sorted."""
        return [v for (v,) in self._store.keys()]

    def __len__(self) -> int:
        return len(self._store)
