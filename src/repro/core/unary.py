"""Unary queries and sentences (Theorem 5.3's role in the pipeline).

The paper invokes Grohe–Kreutzer–Siebertz's model-checking theorem for
arities 0 and 1.  Our stand-in:

* **unary queries** — decompose (k=1 has a single trivial distance type),
  evaluate the local part of each alternative inside each vertex's
  canonical bag, and conjoin the global sentence.  One bag-local test per
  vertex = pseudo-linear on sparse inputs.  Falls back to a naive scan if
  the query does not decompose.
* **sentences** — peel leading quantifiers into unary sub-queries
  (``∃x ψ`` holds iff the unary index of ``ψ`` is non-empty), recurse
  through Boolean structure, and fall back to naive evaluation otherwise.

Results are stored in a Theorem 3.1 :class:`StoredFunction`, so successor
queries over the solution set are constant time — which is exactly what
the arity-1 case of Theorem 5.1 needs.
"""

from __future__ import annotations

from repro.contracts import constant_time, frozen_after_build, pseudo_linear, read_only
from repro.core.bag_solver import BagSolver
from repro.core.normal_form import DecompositionError, decompose
from repro.covers.neighborhood_cover import build_cover
from repro.graphs.colored_graph import ColoredGraph
from repro.logic.semantics import evaluate
from repro.logic.syntax import And, Exists, Forall, Formula, Not, Or, Var
from repro.logic.transform import free_variables
from repro.storage.function_store import StoredFunction


@pseudo_linear(note="one bag-local column per (bag, alternative)")
def unary_solutions(
    graph: ColoredGraph,
    phi: Formula,
    var: Var,
    eps: float = 0.5,
    bag_threshold: int | None = None,
    on_error: str = "naive",
) -> list[int]:
    """All vertices satisfying the unary query ``phi(var)``, sorted.

    Pseudo-linear when ``phi`` decomposes (bag-local evaluation per
    vertex).  Outside the fragment: with ``on_error="naive"`` (default)
    fall back to a quadratic-ish scan, with ``on_error="raise"`` propagate
    the :class:`DecompositionError` so callers can choose their fallback.
    """
    if graph.n == 0:
        return []
    try:
        decomposition = decompose(phi, (var,))
    except DecompositionError:
        if on_error == "raise":
            raise
        return [
            v for v in graph.vertices() if evaluate(graph, phi, {var: v})
        ]
    [tau] = list(decomposition.per_type)
    alternatives = decomposition.per_type[tau]
    if not alternatives:
        return []
    r = decomposition.radius
    cover = build_cover(graph, r, eps=eps)
    solvers: dict[int, BagSolver] = {}
    bag_maps: dict[int, tuple] = {}
    component = frozenset((0,))
    # evaluate each alternative's sentence once, globally
    live = [
        alt
        for alt in alternatives
        if model_check(graph, alt.sentence, eps=eps)
    ]
    if not live:
        return []
    out = []
    kwargs = {} if bag_threshold is None else {"naive_threshold": bag_threshold}
    for bag_id, assigned in enumerate(cover.assigned):
        if not assigned:
            continue
        solver = solvers.get(bag_id)
        if solver is None:
            sub, original = graph.relabeled_subgraph(cover.bags[bag_id])
            solver = BagSolver(sub, max_bound=r, **kwargs)
            solvers[bag_id] = solver
            bag_maps[bag_id] = {orig: i for i, orig in enumerate(original)}
        # one column per (bag, alternative), not one evaluation per vertex
        satisfied: set[int] = set()
        for alt in live:
            psi = alt.local_for(component)
            satisfied.update(solver.column(psi, (), (), var))
        to_new = bag_maps[bag_id]
        out.extend(v for v in assigned if to_new[v] in satisfied)
    out.sort()
    return out


@frozen_after_build
class UnaryIndex:
    """Constant-time next-solution for a unary query (Theorem 5.1, k=1)."""

    @pseudo_linear(note="solution list + Theorem 3.1 store")
    def __init__(
        self,
        graph: ColoredGraph,
        phi: Formula,
        var: Var,
        eps: float = 0.5,
        solutions: list[int] | None = None,
    ) -> None:
        self.graph = graph
        self.var = var
        if solutions is None:
            # propagate DecompositionError: the engine's method="auto" then
            # falls back to the naive baseline *visibly*
            solutions = unary_solutions(graph, phi, var, eps=eps, on_error="raise")
        self.solutions = solutions
        self._store: StoredFunction | None = None
        if graph.n > 0:
            self._store = StoredFunction(
                graph.n,
                1,
                eps=eps,
                items=(((v,), True) for v in solutions),
            )

    @constant_time(note="one stored-function successor query")
    @read_only
    def next_solution(self, lower: int) -> int | None:
        """Smallest solution ``>= lower`` (None past the end)."""
        if self._store is None or lower >= self.graph.n:
            return None
        key = self._store.successor((max(lower, 0),))
        return None if key is None else key[0]

    @constant_time
    @read_only
    def test(self, v: int) -> bool:
        """Constant-time membership."""
        return self._store is not None and (v,) in self._store

    @read_only
    def __len__(self) -> int:
        return len(self.solutions)


@pseudo_linear(note="Theorem 5.3 stand-in; see docstring for the fallbacks")
def model_check(graph: ColoredGraph, sentence: Formula, eps: float = 0.5) -> bool:
    """Evaluate a sentence — the Theorem 5.3 stand-in.

    (r, q)-independence sentences (Section 5.1.2) are decided via the
    scattered-witness routine; other leading quantifiers peel into unary
    queries (pseudo-linear); Boolean structure recurses; anything else
    falls back to the naive evaluator.
    """
    from repro.core.independence import (
        has_scattered_witnesses,
        match_independence_sentence,
    )

    if free_variables(sentence):
        raise ValueError(f"model_check needs a sentence, got free vars in {sentence!r}")
    matched = match_independence_sentence(sentence)
    if matched is not None:
        count, separation, psi, psi_var = matched
        witnesses = unary_solutions(graph, psi, psi_var, eps=eps)
        return has_scattered_witnesses(graph, witnesses, count, separation)
    if isinstance(sentence, Exists):
        inner_free = free_variables(sentence.body)
        if inner_free <= {sentence.var}:
            return bool(unary_solutions(graph, sentence.body, sentence.var, eps=eps))
    if isinstance(sentence, Forall):
        inner_free = free_variables(sentence.body)
        if inner_free <= {sentence.var}:
            negated = Not(sentence.body)
            return not unary_solutions(graph, negated, sentence.var, eps=eps)
    if isinstance(sentence, Not):
        return not model_check(graph, sentence.body, eps=eps)
    if isinstance(sentence, And):
        return all(model_check(graph, p, eps=eps) for p in sentence.parts)
    if isinstance(sentence, Or):
        return any(model_check(graph, p, eps=eps) for p in sentence.parts)
    return evaluate(graph, sentence, {})
