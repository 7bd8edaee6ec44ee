"""Per-bag last-coordinate search (preprocessing Steps 8-11 of Section 5.2.1).

A :class:`BagSolver` owns one bag's induced subgraph and answers, for any
FO+ query ``psi`` on the bag:

* ``test(psi, vars, values)`` — does the bag satisfy ``psi(values)``?
* ``column(psi, prefix_order, prefix, last_var)`` — every last coordinate
  ``b`` with ``bag |= psi(prefix, b)``, sorted; the Lemma 5.2 index
  bisects it for the smallest ``b >= lower`` and streams it from there.

Structure, mirroring the paper:

* **small bags** (``n <= naive_threshold``) are handled by the memoized
  naive evaluator — the Step 1 cutoff.  Columns are computed once per
  ``(psi, prefix)`` and then served from the memo, so repeated queries
  are constant time.
* **larger bags** pick Splitter's vertex ``s`` (Step 8), rewrite every
  incoming query through the Removal Lemma for each subset of variables
  equal to ``s`` (Step 9), and delegate to a child solver on the
  recolored ``bag - s`` (Steps 10/11).  The answer is the minimum of the
  child's answer and ``s`` itself (checked through the ``ȳ ∪ {x_k}``
  rewriting), exactly the two candidates of the answering phase.

The recursion depth is capped (the stand-in for the paper's constant λ);
past the cap the solver is naive regardless of size, which stays exact.
"""

from __future__ import annotations

import threading
from bisect import insort

from repro.contracts import amortized, frozen_after_build, pseudo_linear, read_only
from repro.core.local_eval import LocalEvaluator
from repro.core.removal import RemovalResult, remove_vertex, rewrite_without_vertex
from repro.graphs.colored_graph import ColoredGraph
from repro.logic.syntax import Formula, Var
from repro.splitter.strategies import default_strategy

#: Bags at most this large are solved by the memoized naive evaluator.
DEFAULT_BAG_NAIVE_THRESHOLD = 220

#: Depth cap for the removal recursion (λ's stand-in).
DEFAULT_MAX_REMOVAL_DEPTH = 12


@frozen_after_build(cells={"_rewrites": "_memo_lock", "_test_cache": "_memo_lock", "_column_cache": "_memo_lock"})
class BagSolver:
    """Lemma 5.2's machinery scoped to a single bag.

    Parameters
    ----------
    graph:
        The bag's induced subgraph, compactly relabeled.
    max_bound:
        Largest distance bound any query will mention (fixes the colors
        produced by the Removal Lemma once, at construction).
    """

    #: Store lock for the memo cells declared in ``@frozen_after_build``;
    #: class-level (shared down the child chain) so instances pickle.
    _memo_lock = threading.Lock()

    @pseudo_linear(note="Steps 8-10: splitter choice + removal recursion")
    def __init__(
        self,
        graph: ColoredGraph,
        max_bound: int,
        naive_threshold: int = DEFAULT_BAG_NAIVE_THRESHOLD,
        max_depth: int = DEFAULT_MAX_REMOVAL_DEPTH,
        _depth: int = 0,
    ) -> None:
        self.graph = graph
        self.max_bound = max(1, max_bound)
        self.naive_threshold = naive_threshold
        if graph.n <= naive_threshold or graph.num_edges == 0 or _depth >= max_depth:
            self._mode = "naive"
            self._eval = LocalEvaluator(graph)
        else:
            self._mode = "splitter"
            strategy = default_strategy(graph)
            vertices = list(graph.vertices())
            self._s = strategy.choose(graph, vertices, vertices, vertices[0], 1)
            self._removal: RemovalResult = remove_vertex(graph, self._s, self.max_bound)
            self._rewrites: dict[tuple[Formula, frozenset[Var]], Formula] = {}
            self._test_cache: dict[tuple, bool] = {}
            self._column_cache: dict[tuple, list[int]] = {}
            self.child = BagSolver(
                self._removal.graph,
                self.max_bound,
                naive_threshold,
                max_depth,
                _depth + 1,
            )

    # ------------------------------------------------------------------
    @property
    @read_only
    def mode(self) -> str:
        """"naive" (Step-1 cutoff) or "splitter" (removal recursion)."""
        return self._mode

    @property
    @read_only
    def removal_depth(self) -> int:
        """How many removal levels sit below this solver."""
        if self._mode == "naive":
            return 0
        return 1 + self.child.removal_depth

    @read_only
    def _rewrite(self, psi: Formula, s_vars: frozenset[Var]) -> Formula:
        key = (psi, s_vars)
        cached = self._rewrites.get(key)
        if cached is None:
            fresh = rewrite_without_vertex(
                psi, s_vars, self.graph, self._s, self._removal.color_prefix
            )
            with self._memo_lock:
                cached = self._rewrites.setdefault(key, fresh)
        return cached

    # ------------------------------------------------------------------
    # testing (Step 11 / Corollary 2.4 inside the bag)
    # ------------------------------------------------------------------
    @amortized("O(1)", note="memoized per (psi, values); first query pays the walk")
    @read_only
    def test(self, psi: Formula, free_order: tuple[Var, ...], values: tuple[int, ...]) -> bool:
        """Does the bag satisfy ``psi(values)``?  (Step 11 functionality.)"""
        if self._mode == "naive":
            return self._eval.test(psi, free_order, values)
        key = (psi, free_order, values)
        cached = self._test_cache.get(key)
        if cached is not None:
            return cached
        s = self._s
        s_vars = frozenset(v for v, val in zip(free_order, values) if val == s)
        rewritten = self._rewrite(psi, s_vars)
        reduced_order = tuple(v for v, val in zip(free_order, values) if val != s)
        reduced_values = tuple(self._removal.to_new[val] for val in values if val != s)
        result = self.child.test(rewritten, reduced_order, reduced_values)
        with self._memo_lock:
            result = self._test_cache.setdefault(key, result)
        return result

    # ------------------------------------------------------------------
    # last-coordinate search (Step 10 / the answering-phase candidates)
    # ------------------------------------------------------------------
    @amortized("O(1)", note="memoized per (psi, prefix); served by lookup after")
    @read_only
    def column(
        self,
        psi: Formula,
        prefix_order: tuple[Var, ...],
        prefix_values: tuple[int, ...],
        last_var: Var,
    ) -> list[int]:
        """All bag vertices ``b`` with ``bag |= psi(prefix, b)``, sorted.

        The memoized primitive of the solver: in splitter mode the column
        is the child's column (translated back through the
        order-preserving relabeling) plus possibly the Splitter vertex
        itself, checked through the ``ȳ ∪ {x_k}`` rewriting — the two
        candidate kinds of the answering phase.
        """
        if self._mode == "naive":
            return self._eval.column(psi, prefix_order, prefix_values, last_var)
        key = (psi, prefix_order, prefix_values, last_var)
        cached = self._column_cache.get(key)
        if cached is not None:
            return cached
        s = self._s
        s_vars = frozenset(v for v, val in zip(prefix_order, prefix_values) if val == s)
        reduced_order = tuple(
            v for v, val in zip(prefix_order, prefix_values) if val != s
        )
        reduced_values = tuple(
            self._removal.to_new[val] for val in prefix_values if val != s
        )
        live = self._rewrite(psi, s_vars)
        child_column = self.child.column(live, reduced_order, reduced_values, last_var)
        to_old = self._removal.to_old
        out = [to_old[b] for b in child_column]  # still ascending: order-preserving
        as_s = self._rewrite(psi, s_vars | {last_var})
        if self.child.test(as_s, reduced_order, reduced_values):
            insort(out, s)
        with self._memo_lock:
            out = self._column_cache.setdefault(key, out)
        return out
