"""The public facade: open an index, then test / next / enumerate.

:func:`open_index` is the one function that builds an index.  It accepts
a query as text or as a :class:`~repro.logic.syntax.Formula`, picks the
tuple coordinate order, and builds either the paper's index
(:class:`~repro.core.next_solution.NextSolutionIndex`) or — when the
query falls outside the decomposable fragment and ``method="auto"`` —
the naive baseline, reporting which one it chose.  :mod:`repro.api`,
:mod:`repro.core` and :mod:`repro` re-export it.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from itertools import islice

from repro.baselines.naive import NaiveIndex
from repro.contracts import constant_time, delay, frozen_after_build, pseudo_linear, read_only
from repro.core.config import DEFAULT_CONFIG, EngineConfig
from repro.core.counting import CountingIndex
from repro.core.enumeration import enumerate_solutions
from repro.core.next_solution import NextSolutionIndex, increment_tuple
from repro.core.normal_form import DecompositionError
from repro.graphs.colored_graph import ColoredGraph
from repro.logic.parser import parse_formula
from repro.logic.syntax import Formula, Var
from repro.logic.transform import free_variables
from repro.trace.runtime import span as _trace_span


@dataclass(frozen=True)
class Page:
    """One page of an enumeration (see :meth:`QueryIndex.enumerate_page`).

    ``next_cursor`` is the tuple to resume from — pass it back as
    ``start`` to fetch the following page — or ``None`` when the
    enumeration is exhausted.  It is always a genuine solution (the next
    one after this page), so an immediate resume returns it first.
    """

    items: list[tuple[int, ...]]
    next_cursor: tuple[int, ...] | None

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)


@frozen_after_build
@dataclass
class QueryIndex:
    """A built index with the Theorem 2.3 / Corollaries 2.4-2.5 interface.

    Attributes
    ----------
    method:
        ``"indexed"`` (the paper's pipeline) or ``"naive"`` (baseline
        fallback for undecomposable queries).
    preprocessing_seconds:
        Wall-clock time of the preprocessing phase.

    **Thread safety.** Once built, a ``QueryIndex`` is safe for any
    number of concurrent *reader* threads (``test`` / ``next_solution``
    / ``enumerate`` / ``enumerate_page`` / ``count``) without locks.
    This is not prose: the class is ``@frozen_after_build`` and every
    query entry point is ``@read_only``, so ``repro lint`` statically
    rejects any write to reachable index state on the read path (rules
    CCY101-CCY103; see ``docs/contracts.md``).  Every bag solver,
    sentence verdict and Case-I structure exists once the build returns.
    The only mutations left are the declared memo cells inside a bag
    (:class:`~repro.core.bag_solver.BagSolver` and its evaluator, which
    fill per-prefix columns and per-tuple tests at arity >= 3), filled
    under their store lock with ``setdefault`` so racing readers at
    worst duplicate work, never observe a wrong or partially-built
    value — exercised by ``tests/core/test_concurrent_readers.py`` and
    enforced at runtime under ``repro serve --paranoid``.  Each
    ``enumerate`` iterator carries its own cursor state, so concurrent
    enumerations do not interfere.
    """

    graph: ColoredGraph
    phi: Formula
    free_order: tuple[Var, ...]
    method: str
    preprocessing_seconds: float
    _impl: object
    _static_fingerprint: str
    _version: int = 0

    @property
    @read_only
    def arity(self) -> int:
        """Number of free variables / output tuple width."""
        return len(self.free_order)

    @property
    @read_only
    def version(self) -> int:
        """Monotone update generation: 0 when freshly built, +1 per applied
        edge edit or color flip.  Two indexes answer for
        the same graph state iff their :attr:`fingerprint` pairs match."""
        return self._version

    @property
    @read_only
    def static_fingerprint(self) -> str:
        """The build-request fingerprint (graph at version 0, query, order,
        method, config) — constant across the whole update lineage.

        :func:`open_index` stamps it from the exact request arguments so
        it equals the serve cache's key.
        """
        return self._static_fingerprint

    @property
    @read_only
    def fingerprint(self) -> tuple[str, int]:
        """The generation-aware identity ``(static_fingerprint, version)``.

        The pair distinguishes update generations of one lineage where the
        static fingerprint alone cannot: cursors, snapshots and the serve
        cache compare both components (see ``docs/updates.md``).
        """
        return (self.static_fingerprint, self._version)

    @property
    @read_only
    def exact_delay(self) -> bool:
        """Whether the constant-delay guarantee holds end to end."""
        return getattr(self._impl, "exact_delay", True)

    @constant_time(note="Corollary 2.4 via the chosen implementation")
    @read_only
    def test(self, values: Sequence[int]) -> bool:
        """Corollary 2.4: constant-time membership testing.

        Total over ``int`` tuples of the right arity: values outside the
        vertex domain ``[0, n)`` are simply not solutions (``False``),
        never an internal error.
        """
        with _trace_span("engine.test"):
            probe = tuple(values)
            if len(probe) != self.arity:
                raise ValueError(
                    f"expected a {self.arity}-tuple, got {len(probe)} values"
                )
            n = self.graph.n
            for v in probe:
                if v < 0 or v >= n:
                    return False
            return self._impl.test(probe)

    @constant_time(note="Theorem 2.3 via the chosen implementation")
    @read_only
    def next_solution(self, start: Sequence[int]) -> tuple[int, ...] | None:
        """Theorem 2.3: smallest solution ``>= start`` (lexicographic).

        ``start`` is a lower bound, not necessarily a domain tuple: any
        integer coordinates are accepted and normalized to the smallest
        domain tuple ``>= start`` first (constant time, arity fixed).
        """
        with _trace_span("engine.next_solution"):
            probe = tuple(start)
            if len(probe) != self.arity:
                raise ValueError(
                    f"expected a {self.arity}-tuple, got {len(probe)} values"
                )
            clamped = _clamp_start(probe, self.graph.n)
            if clamped is None:
                return None
            return self._impl.next_solution(clamped)

    @delay("O(1)", note="Corollary 2.5; naive fallback materializes upfront")
    @read_only
    def enumerate(
        self, start: Sequence[int] | None = None
    ) -> Iterator[tuple[int, ...]]:
        """Corollary 2.5: solutions ``>= start``, increasing, constant delay.

        Omitting ``start`` yields the whole result set; passing a tuple
        resumes mid-stream for free (pagination).  Like
        :meth:`next_solution`, ``start`` is any integer lower bound of the
        right arity, normalized once to the smallest domain tuple
        ``>= start``.  On the naive fallback the resume point is found by
        one binary search, never by filtering the materialized list.
        """
        clamped = None
        if start is not None:
            probe = tuple(start)
            if len(probe) != self.arity:
                raise ValueError(
                    f"expected a {self.arity}-tuple, got {len(probe)} values"
                )
            clamped = _clamp_start(probe, self.graph.n)
            if clamped is None:
                return iter(())
        if isinstance(self._impl, NaiveIndex):
            return self._impl.enumerate(clamped)
        return enumerate_solutions(self._impl, clamped)

    @delay("O(1)", note="Corollary 2.5 pagination: the first limit + 1 answers")
    @read_only
    def enumerate_page(
        self, start: Sequence[int] | None = None, limit: int = 100
    ) -> Page:
        """One page of :meth:`enumerate`: up to ``limit`` solutions from ``start``.

        First-class pagination on top of Theorem 2.3's oracle: a page is
        the first ``limit + 1`` answers of :meth:`enumerate`, so it costs
        ``O(limit)`` steps of the index's stream regardless of where in
        the result set it starts, and resuming from
        :attr:`Page.next_cursor` (the extra answer) is exactly as cheap as
        starting over — there is no hidden re-scan.  Raises
        ``ValueError`` on a non-positive ``limit``.
        """
        if limit < 1:
            raise ValueError(f"page limit must be >= 1, got {limit}")
        items = list(islice(self.enumerate(start), limit + 1))
        next_cursor = items.pop() if len(items) > limit else None
        return Page(items, next_cursor)

    @read_only
    def count(self) -> int:
        """``|phi(G)|``, without enumerating ``phi(G)`` wherever the tower allows.

        Through a :class:`~repro.core.counting.CountingIndex` view of this
        index: the Grohe–Schweikardt-style closed form at arity 2
        (pseudo-linear, independent of ``|phi(G)|``), the stored solution
        count at arity 1 and on the naive fallback, one ``test(())`` at
        arity 0.  Only arity >= 3 still enumerates.
        """
        return CountingIndex(self).count()

    @read_only
    def stats(self) -> dict:
        """Observability: what the preprocessing actually built.

        For the indexed method: per induction level, the decomposition
        radius, whether a Prop 4.2 distance index was built (only at
        arity >= 3), the cover shape, the per-bag solver modes and the
        ``{removal depth: bags}`` histogram of the bag solvers.  For the
        naive method: the materialized result size.
        """
        out: dict = {
            "method": self.method,
            "arity": self.arity,
            "preprocessing_seconds": round(self.preprocessing_seconds, 6),
        }
        if isinstance(self._impl, NaiveIndex):
            out["materialized_solutions"] = len(self._impl)
            return out
        out["exact_delay"] = self.exact_delay
        levels = []
        node = self._impl
        while getattr(node, "last", None) is not None:
            last = node.last
            modes = {solver.mode for solver, _, _ in last.solvers}
            depths = Counter(solver.removal_depth for solver, _, _ in last.solvers)
            levels.append(
                {
                    "arity": node.k,
                    "radius": last.r,
                    "distance_index": last.dist is not None,
                    "cover_bags": last.cover.num_bags,
                    "cover_degree": last.cover.degree(),
                    "max_bag_size": max(
                        (len(bag) for bag in last.cover.bags), default=0
                    ),
                    "bag_solver_modes": sorted(modes),
                    "removal_depths": dict(sorted(depths.items())),
                    "far_structures": len(last.far_structures),
                }
            )
            node = getattr(node, "_prefix", None)
            if not hasattr(node, "last"):
                break
        out["levels"] = levels
        return out

    @read_only
    def registers(self) -> dict:
        """The semantically-determined register file, for differential
        testing: a repaired index and a from-scratch rebuild at the same
        graph state dump equal (see :func:`repro.core.repair.register_dump`)."""
        from repro.core.repair import register_dump

        return register_dump(self)

    @pseudo_linear(note="ball-local repair (repro.core.repair); self untouched")
    @read_only
    def insert_edge(self, u: int, v: int) -> "QueryIndex":
        """A new index for ``graph + {u, v}`` at :attr:`version` + 1.

        Updates are *persistent*: ``self`` keeps answering for its own
        generation (readers mid-enumeration are undisturbed) and the
        returned index shares every register the update did not damage —
        only structures whose ``N_rho`` neighborhoods intersect the
        touched ball around ``{u, v}`` are recomputed (Removal-Lemma
        localization; see ``docs/updates.md``).  Raises ``ValueError``
        on self-loops or already-present edges, ``IndexError`` on
        out-of-range vertices.
        """
        return self._with_update(self.graph.with_edge(u, v), u, v, "insert")

    @pseudo_linear(note="ball-local repair (repro.core.repair); self untouched")
    @read_only
    def delete_edge(self, u: int, v: int) -> "QueryIndex":
        """A new index for ``graph - {u, v}`` at :attr:`version` + 1.

        Same persistent-update contract as :meth:`insert_edge`.  Raises
        ``ValueError`` when the edge is absent.
        """
        return self._with_update(self.graph.without_edge(u, v), u, v, "delete")

    @pseudo_linear(note="ball-local repair (repro.core.repair); self untouched")
    @read_only
    def add_color(self, name: str, v: int) -> "QueryIndex":
        """A new index where ``v`` carries color ``name``, at :attr:`version` + 1.

        Same persistent-update contract as :meth:`insert_edge`; a color
        flip moves no edge, so only the cover bags containing ``v`` (and,
        for unary queries, the locality ball of ``v``) are repaired.  A
        flip that changes nothing returns ``self``.  Raises
        ``IndexError`` on an out-of-range vertex.

        >>> from repro.graphs.generators import path
        >>> index = open_index(path(8, palette=()), "exists y. E(x, y) & Hot(y)")
        >>> hot = index.add_color("Hot", 4)
        >>> list(hot.enumerate()), hot.version
        ([(3,), (5,)], 1)
        >>> list(index.enumerate()), hot.add_color("Hot", 4) is hot
        ([], True)
        """
        if self.graph.has_color(v, name):
            return self
        return self._with_update(self.graph.with_color(name, v), v, v, "color")

    @pseudo_linear(note="ball-local repair (repro.core.repair); self untouched")
    @read_only
    def remove_color(self, name: str, v: int) -> "QueryIndex":
        """A new index where ``v`` no longer carries color ``name``.

        The inverse of :meth:`add_color`, with the same contract: a flip
        that changes nothing returns ``self``.
        """
        if not self.graph.has_color(v, name):
            return self
        return self._with_update(self.graph.without_color(name, v), v, v, "color")

    @pseudo_linear(note="delegates to the ball-local repair entry point")
    @read_only
    def _with_update(
        self, new_graph: ColoredGraph, u: int, v: int, kind: str
    ) -> "QueryIndex":
        from repro.core.repair import repaired_impl

        start = time.perf_counter()
        impl = repaired_impl(self.graph, new_graph, self._impl, u, v, kind)
        elapsed = time.perf_counter() - start
        return replace(
            self,
            graph=new_graph,
            _impl=impl,
            preprocessing_seconds=elapsed,
            _version=self._version + 1,
        )


@constant_time(note="one pass over k coordinates, k fixed")
def _clamp_start(start: tuple[int, ...], n: int) -> tuple[int, ...] | None:
    """The smallest tuple in ``[0, n)^k`` that is ``>= start``, or None.

    Makes ``next_solution`` total over integer lower bounds: a negative
    coordinate rounds the suffix up to zeros, a coordinate ``>= n``
    carries into the prefix (there is no tuple with that prefix left).
    """
    out = list(start)
    for i, v in enumerate(out):
        if v < 0:
            for j in range(i, len(out)):
                out[j] = 0
            break
        if v >= n:
            if i == 0:
                return None
            bumped = increment_tuple(tuple(out[:i]), n)
            if bumped is None:
                return None
            return tuple(bumped) + (0,) * (len(out) - i)
    return tuple(out)


@pseudo_linear(note="Theorem 2.3 preprocessing (or naive fallback)")
def open_index(
    graph: ColoredGraph,
    query: Formula | str,
    *,
    free_order: Sequence[Var | str] | None = None,
    method: str = "auto",
    config: EngineConfig = DEFAULT_CONFIG,
) -> QueryIndex:
    """Preprocess ``graph`` for ``query`` (Theorem 2.3's preprocessing).

    Everything past the two data arguments is keyword-only, so a call
    site cannot silently swap ``free_order`` and ``method``.  The
    returned :class:`QueryIndex` carries the versioned identity
    (:attr:`QueryIndex.version`, :attr:`QueryIndex.fingerprint`) and the
    persistent update methods (:meth:`QueryIndex.insert_edge`,
    :meth:`QueryIndex.delete_edge`, :meth:`QueryIndex.add_color`,
    :meth:`QueryIndex.remove_color`).

    Parameters
    ----------
    graph:
        A colored graph (see :class:`~repro.graphs.colored_graph.ColoredGraph`).
    query:
        An FO+ formula or its textual form, e.g.
        ``"dist(x, y) > 2 & Blue(y)"``.
    free_order:
        Coordinate order of output tuples; defaults to the free variables
        sorted by name.
    method:
        ``"auto"`` (indexed with naive fallback), ``"indexed"`` (raise if
        the query does not decompose) or ``"naive"``.
    config:
        Engine thresholds (:class:`~repro.core.config.EngineConfig`).

    Examples
    --------
    >>> from repro.graphs import grid
    >>> index = open_index(grid(8, 8), "exists z. E(x, z) & E(z, y)")
    >>> index.test(next(index.enumerate()))
    True
    """
    phi = parse_formula(query) if isinstance(query, str) else query
    order = _resolve_order(phi, free_order)
    if method not in ("auto", "indexed", "naive"):
        raise ValueError(f"unknown method {method!r}")
    # stamp the static fingerprint from the *request* arguments (raw
    # free_order, requested method) so it equals the serve cache's key
    from repro.persist.fingerprint import index_fingerprint

    static = index_fingerprint(
        graph, phi, free_order=free_order, config=config, method=method
    )
    start = time.perf_counter()
    # the span name is a stable interface: CI, `repro trace` tests and
    # docs/tracing.md look for it
    with _trace_span(
        "engine.build_index",
        "engine.preprocessing_seconds",
        method=method,
        arity=len(order),
    ) as sp:
        if method == "naive":
            impl: object = NaiveIndex(graph, phi, order)
            chosen = "naive"
        else:
            try:
                impl = NextSolutionIndex(graph, phi, order, config)
                chosen = "indexed"
            except DecompositionError:
                if method == "indexed":
                    raise
                impl = NaiveIndex(graph, phi, order)
                chosen = "naive"
        if sp is not None:
            sp.attributes["chosen"] = chosen
    elapsed = time.perf_counter() - start
    return QueryIndex(graph, phi, order, chosen, elapsed, impl, static)


def _resolve_order(
    phi: Formula, free_order: Sequence[Var | str] | None
) -> tuple[Var, ...]:
    actual = free_variables(phi)
    if free_order is None:
        return tuple(sorted(actual, key=lambda v: v.name))
    order = tuple(Var(v) if isinstance(v, str) else v for v in free_order)
    if set(order) != set(actual) or len(order) != len(set(order)):
        raise ValueError(
            f"free_order {sorted(v.name for v in order)} does not match the "
            f"query's free variables {sorted(v.name for v in actual)}"
        )
    return order
