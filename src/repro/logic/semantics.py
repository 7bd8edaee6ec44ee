"""Naive FO/FO+ semantics over colored graphs.

This is the textbook recursive evaluator — exponential in quantifier depth
and therefore *the baseline* the paper's indexes are measured against.
Distance atoms are evaluated with cutoff BFS (so a ``dist(x,y) <= d`` atom
costs one bounded BFS, not a full shortest-path computation).

The evaluator caches the solution sets of quantified subformulas per graph
when asked to enumerate, which keeps the baseline honest without making it
an index in disguise.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from itertools import product

from repro.graphs.colored_graph import ColoredGraph
from repro.graphs.neighborhoods import bounded_bfs
from repro.logic.guards import deep_guard
from repro.logic.syntax import (
    And,
    Bottom,
    ColorAtom,
    DistAtom,
    EdgeAtom,
    EqAtom,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    Top,
    Var,
)
from repro.logic.transform import free_variables


def _dist_at_most(graph: ColoredGraph, a: int, b: int, bound: int) -> bool:
    if a == b:
        return True
    if bound == 0:
        return False
    return b in bounded_bfs(graph, [a], bound)


class DistanceCache:
    """Memoizes the balls behind ``dist(x, y) <= d`` atoms for one graph.

    Evaluating a distance atom costs one bounded BFS; inside the engine's
    bag solvers the same sources recur constantly, so the evaluator
    threads one of these caches through the recursion.
    """

    __slots__ = ("graph", "_balls")

    def __init__(self, graph: ColoredGraph) -> None:
        self.graph = graph
        self._balls: dict[tuple[int, int], set[int]] = {}

    def ball(self, source: int, bound: int) -> set[int]:
        """``N_bound(source)``, memoized."""
        key = (source, bound)
        cached = self._balls.get(key)
        if cached is None:
            cached = set(bounded_bfs(self.graph, [source], bound))
            self._balls[key] = cached
        return cached

    def at_most(self, a: int, b: int, bound: int) -> bool:
        """``dist(a, b) <= bound`` via the memoized balls."""
        if a == b:
            return True
        if bound == 0:
            return False
        return b in self.ball(a, bound)


def evaluate(
    graph: ColoredGraph,
    phi: Formula,
    assignment: Mapping[Var, int],
    dist_cache: DistanceCache | None = None,
) -> bool:
    """Does ``graph |= phi[assignment]``?

    ``assignment`` must bind every free variable of ``phi``.  Pass a
    :class:`DistanceCache` to memoize distance-atom BFS runs across calls.
    """
    if isinstance(phi, Top):
        return True
    if isinstance(phi, Bottom):
        return False
    if isinstance(phi, EdgeAtom):
        return graph.has_edge(assignment[phi.left], assignment[phi.right])
    if isinstance(phi, ColorAtom):
        return graph.has_color(assignment[phi.var], phi.color)
    if isinstance(phi, EqAtom):
        return assignment[phi.left] == assignment[phi.right]
    if isinstance(phi, DistAtom):
        a, b = assignment[phi.left], assignment[phi.right]
        if dist_cache is not None:
            return dist_cache.at_most(a, b, phi.bound)
        return _dist_at_most(graph, a, b, phi.bound)
    if isinstance(phi, Not):
        return not evaluate(graph, phi.body, assignment, dist_cache)
    if isinstance(phi, And):
        return all(evaluate(graph, part, assignment, dist_cache) for part in phi.parts)
    if isinstance(phi, Or):
        return any(evaluate(graph, part, assignment, dist_cache) for part in phi.parts)
    if isinstance(phi, Exists):
        extended = dict(assignment)
        for value in _witness_candidates(graph, phi, assignment, dist_cache):
            extended[phi.var] = value
            if evaluate(graph, phi.body, extended, dist_cache):
                return True
        return False
    if isinstance(phi, Forall):
        extended = dict(assignment)
        for value in _counterexample_candidates(graph, phi, assignment, dist_cache):
            extended[phi.var] = value
            if not evaluate(graph, phi.body, extended, dist_cache):
                return False
        return True
    raise TypeError(f"unknown formula node: {phi!r}")


def _guard_candidates(graph, atom, var, assignment, dist_cache):
    """Candidate values for ``var`` allowed by a positive guard atom whose
    other side is already assigned — None when the atom is no guard."""
    if isinstance(atom, EdgeAtom):
        pairs = ((atom.left, atom.right), (atom.right, atom.left))
        for mine, other in pairs:
            if mine == var and other != var and other in assignment:
                return graph.neighbors(assignment[other])
        return None
    if isinstance(atom, DistAtom):
        pairs = ((atom.left, atom.right), (atom.right, atom.left))
        for mine, other in pairs:
            if mine == var and other != var and other in assignment:
                anchor = assignment[other]
                if dist_cache is not None:
                    return dist_cache.ball(anchor, atom.bound)
                return bounded_bfs(graph, [anchor], atom.bound)
        return None
    if isinstance(atom, EqAtom):
        pairs = ((atom.left, atom.right), (atom.right, atom.left))
        for mine, other in pairs:
            if mine == var and other != var and other in assignment:
                return (assignment[other],)
        return None
    return None


def _witness_candidates(graph, phi, assignment, dist_cache):
    """For ``∃z (guard(z, w) ∧ ...)``: only guard-satisfying values can be
    witnesses, so the scan shrinks from the domain to a neighborhood.

    Guards may be indirect (chains through nested existentials); the
    certified connection analysis of :mod:`repro.logic.guards` finds
    those, so e.g. adjacency-graph encodings of relational joins are
    evaluated neighborhood-by-neighborhood instead of domain-by-domain.
    """
    parts = phi.body.parts if isinstance(phi.body, And) else (phi.body,)
    best = None
    for part in parts:
        candidates = _guard_candidates(graph, part, phi.var, assignment, dist_cache)
        if candidates is not None and (best is None or len(candidates) < len(best)):
            best = candidates if hasattr(candidates, "__len__") else list(candidates)
    if best is not None:
        return best
    guard = deep_guard(phi.body, phi.var, {v: 0 for v in assignment})
    if guard is not None:
        anchor_value = assignment[guard[0]]
        if dist_cache is not None:
            return dist_cache.ball(anchor_value, guard[1])
        return bounded_bfs(graph, [anchor_value], guard[1])
    return graph.vertices()


def _counterexample_candidates(graph, phi, assignment, dist_cache):
    """For ``∀z (¬guard(z, w) ∨ ...)``: values violating the guard satisfy
    the disjunct vacuously, so only guard-satisfying values need checking."""
    parts = phi.body.parts if isinstance(phi.body, Or) else (phi.body,)
    best = None
    for part in parts:
        if isinstance(part, Not):
            candidates = _guard_candidates(
                graph, part.body, phi.var, assignment, dist_cache
            )
            if candidates is not None and (
                best is None or len(candidates) < len(best)
            ):
                best = candidates if hasattr(candidates, "__len__") else list(candidates)
    return graph.vertices() if best is None else best


def satisfies(graph: ColoredGraph, phi: Formula, tuple_values: tuple[int, ...], free_order: list[Var]) -> bool:
    """Does ``graph |= phi(tuple_values)`` with free variables in ``free_order``?"""
    if len(tuple_values) != len(free_order):
        raise ValueError(
            f"tuple arity {len(tuple_values)} does not match free variables {free_order}"
        )
    return evaluate(graph, phi, dict(zip(free_order, tuple_values)))


def solutions(
    graph: ColoredGraph,
    phi: Formula,
    free_order: list[Var] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Enumerate ``phi(G)`` in lexicographic order, naively.

    ``free_order`` fixes the coordinate order of output tuples; it defaults
    to the free variables of ``phi`` sorted by name.  This is the
    materialize-everything baseline: ``O(n^k)`` evaluations.
    """
    if free_order is None:
        free_order = sorted(free_variables(phi), key=lambda v: v.name)
    else:
        missing = free_variables(phi) - set(free_order)
        if missing:
            raise ValueError(f"free_order is missing variables: {sorted(v.name for v in missing)}")
    k = len(free_order)
    if k == 0:
        if evaluate(graph, phi, {}):
            yield ()
        return
    for values in product(graph.vertices(), repeat=k):
        if evaluate(graph, phi, dict(zip(free_order, values))):
            yield values


def count_solutions(graph: ColoredGraph, phi: Formula, free_order: list[Var] | None = None) -> int:
    """``|phi(G)|`` by naive enumeration."""
    return sum(1 for _ in solutions(graph, phi, free_order))
