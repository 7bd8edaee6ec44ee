"""Memoized bag-local evaluation.

Inside a bag (a small induced subgraph), the engine needs to (a) test
local formulas on given tuples and (b) list, in order, the last
coordinates satisfying a local formula for a fixed prefix (its column).
Bags are pseudo-constant sized on sparse inputs, so a memoized naive
evaluator meets the paper's "naive algorithm for small graphs" role
(Step 1 of every preprocessing phase).

Two layers of memoization keep repeated answering-phase queries cheap:

* a :class:`~repro.logic.semantics.DistanceCache` shares the BFS behind
  every distance atom across all evaluations on the bag;
* conjunction columns are *split*: the subformula mentioning only the
  searched variable is materialized once per bag (prefix-independent),
  and the per-prefix residue — typically the ``ρ_tau`` distance
  constraints of the bag query Ψ — is filtered per candidate via the
  cached balls;
* when the residue *guards* the searched variable — it certifies
  ``dist(last, anchor) <= B`` for a prefix variable ``anchor``, as
  ``∃z (E(x,z) ∧ E(z,y))`` does for ``y`` — the candidates are only the
  ball ``N_B(anchor)`` intersected with the unary core, not the whole
  bag (Kazana–Segoufin's "follow the anchor's neighbourhood" for
  guarded quantifiers, applied to the free last variable).
"""

from __future__ import annotations

import threading
from typing import Any

from repro.contracts import builds, frozen_after_build, read_only
from repro.graphs.colored_graph import ColoredGraph
from repro.logic.guards import deep_guard
from repro.logic.semantics import DistanceCache, evaluate
from repro.logic.syntax import And, Formula, Top, Var, conjunction
from repro.logic.transform import free_variables


#: :meth:`LocalEvaluator._plan`'s record: the unary core, the residue, and
#: the guard ``(anchor position, bound, core as a set)`` or None.
_Plan = tuple[list[int], tuple[Formula, ...], tuple[int, int, frozenset[int]] | None]


@frozen_after_build(cells={"_test_cache": "_memo_lock", "_column_cache": "_memo_lock", "_unary_cache": "_memo_lock", "_plan_cache": "_memo_lock"})
class LocalEvaluator:
    """Naive-but-memoized FO+ evaluation on one (small) graph."""

    __slots__ = ("graph", "_dist", "_test_cache", "_column_cache", "_unary_cache", "_plan_cache")

    #: Store lock for the memo cells; a class attribute so it coexists
    #: with ``__slots__`` and never lands in a pickle.
    _memo_lock = threading.Lock()

    def __init__(self, graph: ColoredGraph) -> None:
        self.graph = graph
        self._dist = DistanceCache(graph)
        self._test_cache: dict[tuple, bool] = {}
        self._column_cache: dict[tuple, list[int]] = {}
        self._unary_cache: dict[tuple, list[int]] = {}
        self._plan_cache: dict[tuple, _Plan] = {}

    @read_only
    def __getstate__(self) -> tuple[None, dict[str, Any]]:
        # Plans are derived state, rebuilt on demand, so they stay out of
        # snapshots: the pickled state is the slot state an evaluator
        # without plans had, and snapshots load across that difference.
        slots = {name: getattr(self, name) for name in self.__slots__}
        del slots["_plan_cache"]
        return None, slots

    @builds
    def __setstate__(self, state: tuple[None, dict[str, Any]]) -> None:
        for name, value in state[1].items():
            setattr(self, name, value)
        self._plan_cache = {}

    @read_only
    def test(self, phi: Formula, free_order: tuple[Var, ...], values: tuple[int, ...]) -> bool:
        """``graph |= phi(values)`` with memoization."""
        key = (phi, free_order, values)
        cached = self._test_cache.get(key)
        if cached is None:
            fresh = evaluate(self.graph, phi, dict(zip(free_order, values)), self._dist)
            with self._memo_lock:
                cached = self._test_cache.setdefault(key, fresh)
        return cached

    @read_only
    def unary_column(self, phi: Formula, var: Var) -> list[int]:
        """All ``b`` with ``graph |= phi(b)`` — cached per formula.

        This is the prefix-independent part of bag queries; computing it
        once per bag is what makes repeated answering-phase searches
        constant time.
        """
        key = (phi, var)
        cached = self._unary_cache.get(key)
        if cached is None:
            if isinstance(phi, Top):
                fresh = list(self.graph.vertices())
            else:
                assignment: dict[Var, int] = {}
                fresh = []
                for b in self.graph.vertices():
                    assignment[var] = b
                    if evaluate(self.graph, phi, assignment, self._dist):
                        fresh.append(b)
            with self._memo_lock:
                cached = self._unary_cache.setdefault(key, fresh)
        return cached

    @read_only
    def _plan(self, phi: Formula, prefix_order: tuple[Var, ...], last_var: Var) -> _Plan:
        """The prefix-independent half of :meth:`column`, cached per shape.

        Splits ``phi`` into its unary core (materialized by
        :meth:`unary_column`) and the per-prefix residue, and resolves a
        certified guard for ``last_var`` over the residue: the position
        of the prefix variable ``anchor`` and the bound ``B`` with
        ``residue ⇒ dist(last_var, anchor) <= B`` (see
        :func:`repro.logic.guards.deep_guard`), or None.
        """
        key = (phi, prefix_order, last_var)
        cached = self._plan_cache.get(key)
        if cached is None:
            parts = phi.parts if isinstance(phi, And) else (phi,)
            unary_parts = [p for p in parts if free_variables(p) <= {last_var}]
            residue = tuple(p for p in parts if not (free_variables(p) <= {last_var}))
            base = self.unary_column(conjunction(unary_parts), last_var)
            guard = None
            if residue:
                found = deep_guard(
                    conjunction(residue), last_var, dict.fromkeys(prefix_order, 0)
                )
                if found is not None:
                    anchor, bound = found
                    guard = (prefix_order.index(anchor), bound, frozenset(base))
            fresh = (base, residue, guard)
            with self._memo_lock:
                cached = self._plan_cache.setdefault(key, fresh)
        return cached

    @read_only
    def column(
        self,
        phi: Formula,
        prefix_order: tuple[Var, ...],
        prefix_values: tuple[int, ...],
        last_var: Var,
    ) -> list[int]:
        """All ``b`` with ``graph |= phi(prefix_values, b)``, sorted.

        Conjunctions are split into a cached unary core and a per-prefix
        residue (other shapes are all residue).  When the residue guards
        ``last_var`` from a prefix variable within bound ``B``, only the
        core's members inside ``N_B(anchor)`` are tested, in ascending
        order — every solution lies in that ball, so the column is the
        full scan's.  Unguarded residues (guards only under ``¬``/``∨``
        certify nothing) fall back to testing the whole core.  Either
        way the column is memoized per prefix.
        """
        key = (phi, prefix_order, prefix_values, last_var)
        cached = self._column_cache.get(key)
        if cached is not None:
            return cached
        base, residue, guard = self._plan(phi, prefix_order, last_var)
        if residue:
            if guard is None:
                candidates = base
            else:
                position, bound, members = guard
                ball = self._dist.ball(prefix_values[position], bound)
                candidates = sorted(members.intersection(ball))
            assignment = dict(zip(prefix_order, prefix_values))
            out = []
            for b in candidates:
                assignment[last_var] = b
                if all(evaluate(self.graph, p, assignment, self._dist) for p in residue):
                    out.append(b)
        else:
            out = list(base)
        with self._memo_lock:
            out = self._column_cache.setdefault(key, out)
        return out
