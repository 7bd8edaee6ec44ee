"""The Lemma 5.2 index: constant-time smallest-last-coordinate queries.

Given a k-ary FO+ query ``phi(x_1..x_k)``, after pseudo-linear
preprocessing we answer: *for a prefix ``ā`` and a bound ``b``, what is
the smallest ``b' >= b`` with ``G |= phi(ā, b')``?*

Preprocessing (Section 5.2.1's Steps, adapted per DESIGN.md):

* Step 2 — a :class:`DistanceIndex` at the decomposition radius ``r``
  gives constant-time distance-type tests for prefixes.  Only ``k >= 3``
  builds one: a 1-tuple prefix has no pair to type, so at ``k = 2``
  every prefix reads the plan's only mask, 0;
* Step 3 — a ``(kr, 2kr)``-neighborhood cover with per-bag ``r``-kernels
  (stored as a ``@K`` color on each bag's subgraph);
* Steps 8-11 — one :class:`BagSolver` per bag, which internally
  performs the splitter-removal recursion;
* Steps 12-13 — for every alternative whose last-variable component is a
  singleton: the unary solution list ``L`` (bag-local evaluation per
  vertex) and the Lemma 5.8 :class:`SkipPointers` over the kernels.

Step 7 and the answering phase's bookkeeping are pure syntax, so
preprocessing resolves them once into the *answer plan*: for each prefix
distance type (a :func:`~repro.core.distance_types.type_mask` bitmask),
one :class:`PlanEntry` per ``(tau, alternative)`` it can extend to, with
the components to test, the case, and the bag query for every stranger
count.  The repaired index shares the plan as it shares the
decomposition.  Each distinct global sentence is model-checked once, and
the *live plan* keeps only the entries whose sentence holds.

Every structure this level reads while answering exists when
preprocessing ends: no bag solver is built and no sentence is checked on
the answer path (a repair builds the damaged bags' solvers and re-checks
the sentences before the new index answers).  Only inside a bag do
memos still fill on first use: the per-prefix columns and per-tuple
tests of :class:`BagSolver` and its evaluator, at arity >= 3.

Answering (Section 5.2.2): mask the prefix with ``k'(k'-1)/2`` distance
tests and walk that mask's live entries; for each: test the components
not containing ``x_k`` inside their canonical bags, then resolve its
sorted sources (:meth:`LastCoordinateIndex._sources`, written once for
both cases):

* **Case II** (``x_k`` close to some prefix position ``j*``): the column
  of the kernel of ``X(a_{j*})`` under the bag query
  ``psi_J ∧ @K(x_k) ∧ ρ_tau-constraints ∧ far-from-in-bag-strangers``;
* **Case I** (``x_k`` far from the whole prefix): 2k'+1 candidates — one
  kernel column per distinct prefix bag (the Splitter vertex is handled
  inside the bag solver), plus the ``SKIP`` chain for solutions outside
  every kernel.

:meth:`~LastCoordinateIndex.first_last` is the minimum of the sources'
heads, as in the paper.  :meth:`~LastCoordinateIndex.last_coordinates`
merges the sources themselves: every column is sorted and the ``SKIP``
chain ascends (Lemma 5.8's pointers, stepped by
:meth:`~repro.core.skip_pointers.SkipPointers.walk`), so a whole prefix's
answers cost one set-up and then one merge step each.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from heapq import merge
from itertools import islice

from repro.contracts import constant_time, delay, frozen_after_build, pseudo_linear, read_only
from repro.core.bag_solver import BagSolver
from repro.core.config import DEFAULT_CONFIG, EngineConfig
from repro.core.distance_index import DistanceIndex
from repro.core.distance_types import DistanceType, type_mask
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

#: One sorted source of :meth:`LastCoordinateIndex._sources`: a bag column
#: (bag ids), the index of its first member at or above the bound, and the
#: bag's map back to graph ids.
_Column = tuple[list[int], int, list[int]]


@dataclass(frozen=True, slots=True, eq=False)
class PlanEntry:
    """One ``(tau, alternative)`` candidate of the answer plan, resolved.

    Every field is syntax (the decomposition and the type scale), never
    graph state, so a repaired index shares its entries.
    """

    #: the alternative's global sentence ``xi^i_tau``
    sentence: Formula
    #: the components without ``x_k`` that carry a local formula, as
    #: ``(anchor position, sorted positions, psi, their variables)``
    tests: tuple[tuple[int, tuple[int, ...], Formula, tuple[Var, ...]], ...]
    #: Case II: the prefix position whose bag is searched; None in Case I
    j_star: int | None
    #: the prefix positions of ``x_k``'s component, sorted (none in Case I)
    close: tuple[int, ...]
    #: the prefix positions outside it, the stranger candidates (every
    #: prefix position in Case I)
    outside: tuple[int, ...]
    #: Case I: the singleton local formula ``psi(x_k)``; None in Case II
    far_psi: Formula | None
    #: the bag query and its prefix-variable order per stranger count p < k
    queries: tuple[tuple[Formula, tuple[Var, ...]], ...]


@pseudo_linear(note="preprocessing: Step 7 for one (tau, alternative, p)")
def _bag_query(
    alt: Alternative,
    tau: DistanceType,
    component: frozenset[int],
    p: int,
    free_order: tuple[Var, ...],
    radius: int,
) -> tuple[Formula, tuple[Var, ...]]:
    """The paper's ``Psi^i_{tau,J,p}`` and its prefix variable order.

    The query is ``psi_J ∧ @K(x_k) ∧ [dist constraints from tau between
    x_k and the J-prefix] ∧ [dist > r to p far in-bag strangers]``."""
    last = len(free_order) - 1
    last_var = free_order[last]
    parts: list[Formula] = [alt.local_for(component), ColorAtom(KERNEL_COLOR, last_var)]
    prefix_vars: list[Var] = []
    for j in sorted(component - {last}):
        var = free_order[j]
        prefix_vars.append(var)
        atom = DistAtom(var, last_var, radius)
        parts.append(atom if tau.has_edge(j, last) else Not(atom))
    for index in range(p):
        stranger = Var(f"@far{index}")
        prefix_vars.append(stranger)
        parts.append(Not(DistAtom(stranger, last_var, radius)))
    return (conjunction(parts), tuple(prefix_vars))


@pseudo_linear(note="preprocessing, independent of the graph: 2^(k choose 2) types")
def resolve_plan(decomp: Decomposition) -> dict[int, tuple[PlanEntry, ...]]:
    """The answer plan: prefix type mask -> its resolved candidates.

    A prefix of mask ``m`` can only complete to a type ``tau`` whose
    restriction to the prefix positions has mask ``m``; each such
    ``tau`` contributes one entry per alternative, in decomposition
    order.
    """
    free_order = decomp.free_order
    k = len(free_order)
    last = k - 1
    singleton = frozenset((last,))
    plan: dict[int, list[PlanEntry]] = {}
    for tau, alternatives in decomp.per_type.items():
        if not alternatives:
            continue
        component = tau.component_of(last)
        close = tuple(sorted(component - singleton))
        outside = tuple(i for i in range(last) if i not in component)
        j_star = min((j for j in close if tau.has_edge(j, last)), default=None)
        entries = plan.setdefault(type_mask(range(last), tau.has_edge), [])
        for alt in alternatives:
            tests = []
            for positions, psi in alt.locals:
                if last in positions or isinstance(psi, Top):
                    continue
                ordered = tuple(sorted(positions))
                tests.append(
                    (ordered[0], ordered, psi, tuple(free_order[i] for i in ordered))
                )
            entries.append(
                PlanEntry(
                    sentence=alt.sentence,
                    tests=tuple(tests),
                    j_star=j_star,
                    close=close,
                    outside=outside,
                    far_psi=alt.local_for(singleton) if j_star is None else None,
                    queries=tuple(
                        _bag_query(alt, tau, component, p, free_order, decomp.radius)
                        for p in range(k)
                    ),
                )
            )
    return {mask: tuple(entries) for mask, entries in plan.items()}


@pseudo_linear(note="preprocessing: one model check per distinct plan sentence")
def live_plan(
    graph: ColoredGraph, plan: dict[int, tuple[PlanEntry, ...]]
) -> dict[int, tuple[PlanEntry, ...]]:
    """The answer plan's entries whose global sentence holds on ``graph``.

    Sentences are the only graph state a plan entry depends on, so the
    answering phase reads this restriction and never model-checks.
    """
    holds: dict[Formula, bool] = {}
    for entries in plan.values():
        for entry in entries:
            if entry.sentence not in holds:
                holds[entry.sentence] = isinstance(entry.sentence, Top) or model_check(
                    graph, entry.sentence
                )
    return {
        mask: tuple(entry for entry in entries if holds[entry.sentence])
        for mask, entries in plan.items()
    }


@frozen_after_build
class LastCoordinateIndex:
    """Lemma 5.2 for a fixed query; see the module docstring."""

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
        # Step 2: distance oracle at the type scale, for prefixes with a
        # pair to type (k >= 3); a 1-tuple prefix has none
        self.dist: DistanceIndex | None = None
        if self.k >= 3:
            with _trace_span("last.distance_index", radius=self.r):
                self.dist = DistanceIndex(
                    graph,
                    self.r,
                    naive_threshold=config.dist_naive_threshold,
                    max_depth=config.dist_max_depth,
                )
        # Step 3: (kr, 2kr)-cover and r-kernels
        self.cover = build_cover(graph, self.k * self.r)
        with _trace_span("last.kernels", bags=len(self.cover.bags), radius=self.r):
            self.kernels = [
                kernel_of_bag(graph, bag, self.r) for bag in self.cover.bags
            ]
        # Steps 8-11: one solver per bag, each with its relabeling both ways
        self.solvers: list[tuple[BagSolver, dict[int, int], list[int]]] = [
            self._build_solver(bag_id) for bag_id in range(self.cover.num_bags)
        ]
        # Step 7 and the candidate bookkeeping, resolved per prefix type;
        # the answering phase reads only the entries whose sentence holds
        self._plan = resolve_plan(self.decomp)
        self.live_plan = live_plan(graph, self._plan)
        # Steps 12-13: Case-I structures per distinct singleton-local psi
        self.far_structures: dict[Formula, tuple[list[int], SkipPointers]] = {}
        with _trace_span("last.far_structures"):
            for entry in self.plan_entries():
                psi = entry.far_psi
                if psi is not None and psi not in self.far_structures:
                    self.far_structures[psi] = self._build_far(
                        psi, range(self.cover.num_bags)
                    )

    @read_only
    def plan_entries(self) -> list[PlanEntry]:
        """Every entry of the answer plan (each ``(tau, alternative)`` once)."""
        return [entry for entries in self._plan.values() for entry in entries]

    # ------------------------------------------------------------------
    # per-bag machinery
    # ------------------------------------------------------------------
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

    @pseudo_linear(note="Steps 12-13 for one psi: a column per bag, then skips")
    @read_only
    def _build_far(
        self, psi: Formula, bag_ids: Iterable[int], kept: Iterable[int] = ()
    ) -> tuple[list[int], SkipPointers]:
        """Step 12 (the list ``L``) and Step 13 (skip pointers) for one
        singleton local formula ``psi(x_k)``: the targets assigned to
        ``bag_ids``, plus ``kept`` (a repair's undamaged targets)."""
        if isinstance(psi, Top):
            targets = list(self.graph.vertices())
        else:
            # Step 12: per-bag unary solution lists L_X, one column per
            # bag (not one evaluation per vertex), then their union
            targets = list(kept)
            last_var = self.free_order[-1]
            for bag_id in bag_ids:
                solver, to_new, _ = self.solvers[bag_id]
                members = set(solver.column(psi, (), (), last_var))
                targets.extend(
                    v for v in self.cover.assigned[bag_id] if to_new[v] in members
                )
            targets.sort()
        skips = SkipPointers(
            self.graph.n,
            targets,
            self.kernels,
            k=max(self.k - 1, 1),
            eps=self.config.eps,
        )
        return (targets, skips)

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
        best: int | None = None
        mask = 0 if self.dist is None else type_mask(prefix, self.dist.test)
        for entry in self.live_plan.get(mask, ()):
            columns, far = self._sources(entry, prefix, lower)
            for column, start, to_old in columns:
                candidate = to_old[column[start]]
                if best is None or candidate < best:
                    best = candidate
            if far is not None:
                skips, bag_ids = far
                candidate = skips.skip(lower, bag_ids)
                if candidate is not None and (best is None or candidate < best):
                    best = candidate
        return best

    @delay("O(1)", note="a constant set-up, then one merge step per element")
    @read_only
    def last_coordinates(self, prefix: tuple[int, ...], lower: int) -> Iterator[int]:
        """Every ``b >= lower`` with ``G |= phi(prefix, b)``, ascending.

        The stream :meth:`first_last` is the head of: the same sources,
        each bag column from its bisect point (mapped back through the
        bag's relabeling) and, in Case I, the chain of ``SKIP`` values,
        merged without repeats.
        """
        if len(prefix) != self.k - 1:
            raise ValueError(
                f"expected a {self.k - 1}-tuple prefix, got {prefix!r}"
            )
        if lower >= self.graph.n:
            return iter(())
        lower = max(lower, 0)
        sources: list[Iterator[int]] = []
        mask = 0 if self.dist is None else type_mask(prefix, self.dist.test)
        for entry in self.live_plan.get(mask, ()):
            columns, far = self._sources(entry, prefix, lower)
            for column, start, to_old in columns:
                sources.append(map(to_old.__getitem__, islice(column, start, None)))
            if far is not None:
                skips, bag_ids = far
                sources.append(skips.walk(lower, bag_ids))
        if len(sources) == 1:
            return sources[0]  # one sorted source has no repeats to drop
        return _distinct(merge(*sources))

    @constant_time(note="Corollary 2.4 via one first_last call")
    @read_only
    def test(self, values: tuple[int, ...]) -> bool:
        """Corollary 2.4: is ``values`` a solution?  Constant time."""
        if len(values) != self.k:
            raise ValueError(f"expected a {self.k}-tuple, got {values!r}")
        return self.first_last(values[:-1], values[-1]) == values[-1]

    # -- per-entry work ----------------------------------------------------
    @constant_time(note="one memoized bag test per component, at most k")
    @read_only
    def _test_components(self, entry: PlanEntry, prefix: tuple[int, ...]) -> bool:
        for anchor, positions, psi, variables in entry.tests:
            solver, to_new, _ = self.solvers[self.cover.bag_of(prefix[anchor])]
            try:
                values = tuple([to_new[prefix[i]] for i in positions])
            except KeyError:
                # a component member escaped the bag: impossible for a
                # prefix of this distance type, so the entry cannot match
                return False
            # contract: amortized — BagSolver.test is memoized per key
            if not solver.test(psi, variables, values):
                return False
        return True

    @constant_time(note="one column per searched bag, at most k - 1 bags")
    @read_only
    def _sources(
        self, entry: PlanEntry, prefix: tuple[int, ...], lower: int
    ) -> tuple[list[_Column], tuple[SkipPointers, list[int]] | None]:
        """The sorted sources whose union is ``entry``'s answers ``>= lower``.

        Returns ``(columns, far)``.  Each column is ``(column, start,
        to_old)``: a bag column in bag ids, the index of its first member
        ``>= lower`` (only columns with one are kept), and the bag's map
        back to graph ids.  ``far`` is Case I's ``(skip pointers, bag
        ids)``, whose ``SKIP`` chain holds the answers outside every
        searched kernel; None in Case II.  An entry whose components fail
        their tests has no sources.

        * **Case II** searches the kernel of ``X(a_{j*})``, with the close
          positions and the in-bag outside positions (strangers) bound;
        * **Case I** searches the kernel of every distinct prefix bag,
          with the prefix positions inside that bag as strangers.
        """
        if entry.tests and not self._test_components(entry, prefix):
            return [], None
        cover = self.cover
        if entry.j_star is None:
            bag_ids = sorted({cover.bag_of(a) for a in prefix})
            close: list[int] = []
            far = (self.far_structures[entry.far_psi][1], bag_ids)
        else:
            bag_ids = [cover.bag_of(prefix[entry.j_star])]
            close = [prefix[j] for j in entry.close]
            far = None
        last_var = self.free_order[-1]
        columns = []
        for bag_id in bag_ids:
            solver, to_new, to_old = self.solvers[bag_id]
            bound = close + [
                prefix[i] for i in entry.outside if cover.contains(bag_id, prefix[i])
            ]
            query, prefix_vars = entry.queries[len(bound) - len(close)]
            try:
                values = tuple(map(to_new.__getitem__, bound))
            except KeyError:
                continue  # a J-member escaped the bag: no solution of this type
            local_lower = bisect_left(to_old, lower)
            if local_lower >= len(to_old):
                continue  # the whole bag lies below lower
            # contract: amortized — BagSolver.column is memoized per prefix
            column = solver.column(query, prefix_vars, values, last_var)
            start = bisect_left(column, local_lower)
            if start < len(column):
                columns.append((column, start, to_old))
        return columns, far


@delay("O(1)", note="one comparison per element")
def _distinct(values: Iterator[int]) -> Iterator[int]:
    """An ascending stream without its repeats."""
    previous = None
    for value in values:
        if value != previous:
            yield value
            previous = value
