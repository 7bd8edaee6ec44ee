"""The Lemma 5.2 index: constant-time smallest-last-coordinate queries.

Given a k-ary FO+ query ``phi(x_1..x_k)``, after pseudo-linear
preprocessing we answer: *for a prefix ``ā`` and a bound ``b``, what is
the smallest ``b' >= b`` with ``G |= phi(ā, b')``?*

Preprocessing (Section 5.2.1's Steps, adapted per DESIGN.md):

* Step 2 — a :class:`DistanceIndex` at the decomposition radius ``r``
  gives constant-time distance-type tests for prefixes;
* Step 3 — a ``(kr, 2kr)``-neighborhood cover with per-bag ``r``-kernels
  (stored as a ``@K`` color on each bag's subgraph);
* Steps 8-11 — one :class:`BagSolver` per bag (lazy), which internally
  performs the splitter-removal recursion;
* Steps 12-13 — for every alternative whose last-variable component is a
  singleton: the unary solution list ``L`` (bag-local evaluation per
  vertex) and the Lemma 5.8 :class:`SkipPointers` over the kernels.

Answering (Section 5.2.2): for each distance type ``tau`` consistent
with the prefix and each alternative: check the global sentence, test the
components not containing ``x_k`` inside their canonical bags, then

* **Case II** (``x_k`` close to some prefix position ``j*``): search the
  kernel of ``X(a_{j*})`` with the bag query
  ``psi_J ∧ @K(x_k) ∧ ρ_tau-constraints ∧ far-from-in-bag-strangers``;
* **Case I** (``x_k`` far from the whole prefix): 2k'+1 candidates — one
  kernel search per distinct prefix bag (the Splitter vertex is handled
  inside the bag solver), plus one ``SKIP`` query for solutions outside
  every kernel.

The final answer is the minimum over all candidates, as in the paper.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

from repro.contracts import (
    amortized,
    builds,
    constant_time,
    frozen_after_build,
    pseudo_linear,
    read_only,
)
from repro.core.bag_solver import BagSolver
from repro.core.config import DEFAULT_CONFIG, EngineConfig
from repro.core.distance_index import DistanceIndex
from repro.core.distance_types import DistanceType, type_of
from repro.core.normal_form import Alternative, Decomposition, decompose
from repro.core.skip_pointers import SkipPointers
from repro.core.unary import model_check
from repro.covers.kernels import kernel_of_bag
from repro.covers.neighborhood_cover import build_cover
from repro.graphs.colored_graph import ColoredGraph
from repro.trace.runtime import span as _trace_span
from repro.logic.syntax import (
    ColorAtom,
    DistAtom,
    Formula,
    Not,
    Top,
    Var,
    conjunction,
)

#: Color marking the r-kernel inside each bag's subgraph.
KERNEL_COLOR = "@K"


@frozen_after_build(cells={"_solvers": "_memo_lock", "_sentence_cache": "_memo_lock", "_bag_query_cache": "_memo_lock", "_far_structures_cache": "_memo_lock"})
class LastCoordinateIndex:
    """Lemma 5.2 for a fixed query; see the module docstring."""

    #: Shared store lock for the memo cells declared in
    #: ``@frozen_after_build``; class-level so instances stay picklable.
    _memo_lock = threading.Lock()

    @pseudo_linear(note="Section 5.2.1 preprocessing, Steps 2-13")
    def __init__(
        self,
        graph: ColoredGraph,
        phi: Formula,
        free_order: tuple[Var, ...],
        config: EngineConfig = DEFAULT_CONFIG,
        decomposition: Decomposition | None = None,
    ) -> None:
        self.graph = graph
        self.phi = phi
        self.free_order = tuple(free_order)
        self.k = len(free_order)
        if self.k < 2:
            raise ValueError("LastCoordinateIndex needs arity >= 2")
        self.config = config
        self.decomp = decomposition or decompose(phi, self.free_order)
        self.r = self.decomp.radius
        # Step 2: distance oracle at the type scale
        with _trace_span("last.distance_index", radius=self.r):
            self.dist = DistanceIndex(
                graph,
                self.r,
                eps=config.eps,
                naive_threshold=config.dist_naive_threshold,
                max_depth=config.dist_max_depth,
            )
        # Step 3: (kr, 2kr)-cover and r-kernels
        self.cover = build_cover(
            graph, self.k * self.r, eps=config.eps, workers=config.workers
        )
        with _trace_span("last.kernels", bags=len(self.cover.bags), radius=self.r):
            if config.workers > 1 and len(self.cover.bags) > 1:
                from concurrent.futures import ThreadPoolExecutor

                with ThreadPoolExecutor(max_workers=config.workers) as pool:
                    self.kernels = list(
                        pool.map(
                            lambda bag: kernel_of_bag(graph, bag, self.r),
                            self.cover.bags,
                        )
                    )
            else:
                self.kernels = [
                    kernel_of_bag(graph, bag, self.r) for bag in self.cover.bags
                ]
        self._solvers: dict[int, tuple[BagSolver, dict[int, int], list[int]]] = {}
        self._sentence_cache: dict[Formula, bool] = {}
        self._bag_query_cache: dict[tuple, tuple[Formula, tuple[Var, ...]]] = {}
        if config.workers > 1:
            self._prebuild_solvers(config.workers)
        # Steps 12-13: Case-I structures per distinct singleton-local psi
        self._far_structures_cache: dict[Formula, tuple[list[int], SkipPointers]] = {}
        if config.precompute_far:
            with _trace_span("last.far_structures"):
                last = self.k - 1
                for tau, alternatives in self.decomp.per_type.items():
                    if tau.component_of(last) != frozenset((last,)):
                        continue
                    for alt in alternatives:
                        self._far_structures(alt.local_for(frozenset((last,))))

    # ------------------------------------------------------------------
    # lazy per-bag machinery
    # ------------------------------------------------------------------
    @amortized("O(1)", note="lazy per-bag build; cached thereafter (Steps 8-11)")
    @read_only
    def _solver(self, bag_id: int) -> tuple[BagSolver, dict[int, int], list[int]]:
        entry = self._solvers.get(bag_id)
        if entry is None:
            built = self._build_solver(bag_id)
            with self._memo_lock:
                entry = self._solvers.setdefault(bag_id, built)
        return entry

    @pseudo_linear(note="Steps 8-11 for one bag")
    @read_only
    def _build_solver(self, bag_id: int) -> tuple[BagSolver, dict[int, int], list[int]]:
        with _trace_span(
            "last.bag_solver", bag=bag_id, size=len(self.cover.bags[bag_id])
        ):
            sub, original = self.graph.relabeled_subgraph(self.cover.bags[bag_id])
            to_new = {v: i for i, v in enumerate(original)}
            sub.set_color(KERNEL_COLOR, [to_new[v] for v in self.kernels[bag_id]])
            solver = BagSolver(
                sub,
                max_bound=self.r,
                naive_threshold=self.config.bag_naive_threshold,
                max_depth=self.config.bag_max_depth,
            )
            return (solver, to_new, original)

    @pseudo_linear(note="independent Steps 8-11 per bag, fanned out on threads")
    @builds
    def _prebuild_solvers(self, workers: int) -> None:
        """Eagerly build the per-bag solvers concurrently (``workers > 1``).

        Each bag's Steps 8-11 are independent of every other bag's, so the
        builds fan out on a thread pool; results are committed in bag-id
        order afterwards, keeping the structure deterministic.  The
        sequential path keeps the lazy one-bag-at-a-time behaviour.
        """
        from concurrent.futures import ThreadPoolExecutor

        pending = [
            bag_id
            for bag_id, assigned in enumerate(self.cover.assigned)
            if assigned and bag_id not in self._solvers
        ]
        if not pending:
            return
        with ThreadPoolExecutor(max_workers=workers) as pool:
            entries = list(pool.map(self._build_solver, pending))
        for bag_id, entry in zip(pending, entries):
            self._solvers[bag_id] = entry

    @amortized("O(1)", note="one model check per distinct sentence, then cached")
    @read_only
    def _sentence_true(self, sentence: Formula) -> bool:
        if isinstance(sentence, Top):
            return True
        cached = self._sentence_cache.get(sentence)
        if cached is None:
            fresh = model_check(self.graph, sentence, eps=self.config.eps)
            with self._memo_lock:
                cached = self._sentence_cache.setdefault(sentence, fresh)
        return cached

    @amortized("O(1)", note="Steps 12-13 built once per psi; precomputable via config")
    @read_only
    def _far_structures(self, psi: Formula) -> tuple[list[int], SkipPointers]:
        """Step 12 (the list ``L``) and Step 13 (skip pointers) for one
        singleton local formula ``psi(x_k)``."""
        cached = self._far_structures_cache.get(psi)
        if cached is None:
            last_var = self.free_order[-1]
            if isinstance(psi, Top):
                targets = list(self.graph.vertices())
            else:
                # Step 12: per-bag unary solution lists L_X, one column per
                # bag (not one evaluation per vertex), then their union
                targets = []
                for bag_id, assigned in enumerate(self.cover.assigned):
                    if not assigned:
                        continue
                    solver, to_new, to_old = self._solver(bag_id)
                    members = set(solver.column(psi, (), (), last_var))
                    targets.extend(v for v in assigned if to_new[v] in members)
                targets.sort()
            skips = SkipPointers(
                self.graph.n,
                targets,
                self.kernels,
                k=max(self.k - 1, 1),
                eps=self.config.eps,
            )
            with self._memo_lock:
                cached = self._far_structures_cache.setdefault(psi, (targets, skips))
        return cached

    # ------------------------------------------------------------------
    # bag queries (the paper's Ψ^i_{τ,J,p}, Step 7)
    # ------------------------------------------------------------------
    @amortized("O(1)", note="query built once per (alt, tau, J, p), then cached")
    @read_only
    def _bag_query(
        self, alt: Alternative, tau: DistanceType, component: frozenset[int], p: int
    ) -> tuple[Formula, tuple[Var, ...]]:
        """Build (and cache) the bag query and its prefix variable order.

        The query is ``psi_J ∧ @K(x_k) ∧ [dist constraints from tau between
        x_k and the J-prefix] ∧ [dist > r to p far in-bag strangers]``."""
        key = (alt, tau, component, p)
        cached = self._bag_query_cache.get(key)
        if cached is not None:
            return cached
        last = self.k - 1
        last_var = self.free_order[-1]
        parts: list[Formula] = [alt.local_for(component), ColorAtom(KERNEL_COLOR, last_var)]
        prefix_vars: list[Var] = []
        for j in sorted(component - {last}):
            var = self.free_order[j]
            prefix_vars.append(var)
            atom = DistAtom(var, last_var, self.r)
            parts.append(atom if tau.has_edge(j, last) else Not(atom))
        for index in range(p):
            stranger = Var(f"@far{index}")
            prefix_vars.append(stranger)
            parts.append(Not(DistAtom(stranger, last_var, self.r)))
        result = (conjunction(parts), tuple(prefix_vars))
        with self._memo_lock:
            result = self._bag_query_cache.setdefault(key, result)
        return result

    # ------------------------------------------------------------------
    # answering phase (Section 5.2.2)
    # ------------------------------------------------------------------
    @constant_time(note="Lemma 5.2: constantly many (tau, alt) candidates")
    @read_only
    def first_last(self, prefix: tuple[int, ...], lower: int) -> int | None:
        """Smallest ``b' >= lower`` with ``G |= phi(prefix, b')``; None if none."""
        if len(prefix) != self.k - 1:
            raise ValueError(
                f"expected a {self.k - 1}-tuple prefix, got {prefix!r}"
            )
        if lower >= self.graph.n:
            return None
        lower = max(lower, 0)
        prefix_type = type_of(prefix, self.dist.test)
        last = self.k - 1
        best: int | None = None
        for tau, alternatives in self.decomp.per_type.items():
            if not alternatives:
                continue
            if tau.restrict(frozenset(range(last))) != prefix_type:
                continue
            for alt in alternatives:
                candidate = self._candidate(tau, alt, prefix, lower)
                if candidate is not None and (best is None or candidate < best):
                    best = candidate
        return best

    @constant_time(note="Corollary 2.4 via one first_last call")
    @read_only
    def test(self, values: tuple[int, ...]) -> bool:
        """Corollary 2.4: is ``values`` a solution?  Constant time."""
        if len(values) != self.k:
            raise ValueError(f"expected a {self.k}-tuple, got {values!r}")
        return self.first_last(values[:-1], values[-1]) == values[-1]

    # -- per-(tau, alternative) candidate ---------------------------------
    @constant_time(note="one candidate per (tau, alternative)")
    @read_only
    def _candidate(
        self,
        tau: DistanceType,
        alt: Alternative,
        prefix: tuple[int, ...],
        lower: int,
    ) -> int | None:
        # contract: amortized — cached after the first check of this sentence
        if not self._sentence_true(alt.sentence):
            return None
        last = self.k - 1
        component_of_last = tau.component_of(last)
        # items (b)/(d): components not containing x_k test directly
        for positions, psi in alt.locals:
            if last in positions or isinstance(psi, Top):
                continue
            if not self._test_component(positions, psi, prefix):
                return None
        if component_of_last == frozenset((last,)):
            return self._case_far(tau, alt, prefix, lower)
        return self._case_near(tau, alt, component_of_last, prefix, lower)

    @constant_time(note="one memoized bag test")
    @read_only
    def _test_component(
        self, positions: frozenset[int], psi: Formula, prefix: tuple[int, ...]
    ) -> bool:
        anchor = prefix[min(positions)]
        bag_id = self.cover.bag_of(anchor)
        # contract: amortized — lazy solver build, cached per bag
        solver, to_new, _ = self._solver(bag_id)
        variables = tuple(self.free_order[i] for i in sorted(positions))
        try:
            values = tuple(to_new[prefix[i]] for i in sorted(positions))
        except KeyError:
            # a component member escaped the bag: impossible for a prefix of
            # this distance type, so the alternative cannot match
            return False
        # contract: amortized — BagSolver.test is memoized per key
        return solver.test(psi, variables, values)

    @constant_time(note="Case II: one kernel search in the j*-bag")
    @read_only
    def _case_near(
        self,
        tau: DistanceType,
        alt: Alternative,
        component: frozenset[int],
        prefix: tuple[int, ...],
        lower: int,
    ) -> int | None:
        """Case II: ``x_k`` close to the prefix part of its component."""
        last = self.k - 1
        j_star = min(j for j in component if j != last and tau.has_edge(j, last))
        bag_id = self.cover.bag_of(prefix[j_star])
        # contract: amortized — lazy solver build, cached per bag
        solver, to_new, to_old = self._solver(bag_id)
        strangers = [
            prefix[i]
            for i in range(last)
            if i not in component and self.cover.contains(bag_id, prefix[i])
        ]
        # contract: amortized — query construction cached per (alt, tau, J, p)
        query, prefix_vars = self._bag_query(alt, tau, component, len(strangers))
        try:
            close_values = [to_new[prefix[j]] for j in sorted(component - {last})]
        except KeyError:
            return None  # a J-member escaped the bag: no solution of this type
        values = tuple(close_values) + tuple(to_new[v] for v in strangers)
        local_lower = bisect_left(to_old, lower)
        if local_lower >= len(to_old):
            return None
        last_var = self.free_order[-1]
        # contract: amortized — served from the memoized column after first use
        found = solver.first_at_least(query, prefix_vars, values, last_var, local_lower)
        return None if found is None else to_old[found]

    @constant_time(note="Case I: 2k'+1 candidates (Section 5.2.2)")
    @read_only
    def _case_far(
        self,
        tau: DistanceType,
        alt: Alternative,
        prefix: tuple[int, ...],
        lower: int,
    ) -> int | None:
        """Case I: ``x_k`` far from every prefix position."""
        last = self.k - 1
        psi = alt.local_for(frozenset((last,)))
        # contract: amortized — Steps 12-13 built once per psi (precomputable)
        _, skips = self._far_structures(psi)
        bag_ids = sorted({self.cover.bag_of(a) for a in prefix})
        last_var = self.free_order[-1]
        best: int | None = None
        for bag_id in bag_ids:
            # contract: amortized — lazy solver build, cached per bag
            solver, to_new, to_old = self._solver(bag_id)
            strangers = [a for a in prefix if self.cover.contains(bag_id, a)]
            # contract: amortized — query construction cached per (alt, tau, J, p)
            query, prefix_vars = self._bag_query(
                alt, tau, frozenset((last,)), len(strangers)
            )
            local_lower = bisect_left(to_old, lower)
            if local_lower >= len(to_old):
                continue
            # contract: amortized — served from the memoized column after first use
            found = solver.first_at_least(
                query,
                prefix_vars,
                tuple(to_new[v] for v in strangers),
                last_var,
                local_lower,
            )
            if found is not None:
                candidate = to_old[found]
                if best is None or candidate < best:
                    best = candidate
        outside = skips.skip(lower, bag_ids)
        if outside is not None and (best is None or outside < best):
            best = outside
        return best
