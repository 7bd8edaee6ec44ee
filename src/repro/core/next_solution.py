"""The Theorem 5.1 index: lexicographically-next solution in constant time.

The nested induction of Section 5 ("the first bullet"):

* arity 0 — evaluate the sentence once;
* arity 1 — a :class:`~repro.core.unary.UnaryIndex` (Theorem 5.3's role);
* arity k — a :class:`~repro.core.last_coordinate.LastCoordinateIndex`
  for the last coordinate (Lemma 5.2) plus a next-solution index for the
  (k-1)-ary projection ``∃x_k phi``:

  - ``k = 2``: the projection is unary; its solution list is computed
    exactly by ``n`` constant-time oracle calls to the Lemma 5.2 index —
    the fully faithful case;
  - ``k >= 3``: the projection is decomposed syntactically when possible
    (guarded queries); otherwise a :class:`PrefixScan` fallback iterates
    prefix candidates with constant-time extension tests.  Testing
    (Corollary 2.4) stays exact constant-time for every arity; only the
    worst-case *delay* guarantee weakens in the fallback — see DESIGN.md.

:meth:`NextSolutionIndex.next_solution` answers one probe (Theorem 2.3);
:meth:`NextSolutionIndex.solutions` is the stream whose head it is,
walking each prefix's sorted Lemma 5.2 sources instead of repeating the
probe per answer, and is what enumeration pulls from (Corollary 2.5).
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.contracts import (
    amortized,
    constant_time,
    delay,
    frozen_after_build,
    pseudo_linear,
    read_only,
)
from repro.core.config import DEFAULT_CONFIG, EngineConfig
from repro.core.last_coordinate import LastCoordinateIndex
from repro.core.normal_form import DecompositionError
from repro.core.unary import UnaryIndex, model_check
from repro.graphs.colored_graph import ColoredGraph
from repro.logic.syntax import Exists, Formula, Var
from repro.trace.runtime import span as _trace_span


@constant_time(note="one pass over k digits, k fixed")
def increment_tuple(values: tuple[int, ...], n: int) -> tuple[int, ...] | None:
    """The lexicographic successor of ``values`` in ``[n]^k``; None at the end."""
    out = list(values)
    for i in range(len(out) - 1, -1, -1):
        if out[i] + 1 < n:
            out[i] += 1
            return tuple(out)
        out[i] = 0
    return None


@frozen_after_build
class RelaxedPrefixIndex:
    """Prefix enumeration via a decomposable relaxation plus the oracle.

    For projections outside the syntactic fragment (far-quantified
    witnesses), :func:`~repro.core.normal_form.relax_projection` drops the
    last position's locals from every alternative, giving a (k-1)-ary
    decomposition that over-approximates extendability.  Its solutions
    are streamed and filtered by the constant-time Lemma 5.2 extension
    oracle: every *emitted* prefix is genuinely extendable, every
    extendable prefix is emitted, and the only slack is the (typically
    short) runs of relaxed-but-unextendable prefixes between hits —
    a large practical improvement over scanning all of ``[n]^{k-1}``.
    """

    @pseudo_linear(note="builds the relaxed (k-1)-ary index")
    def __init__(self, graph: ColoredGraph, oracle: LastCoordinateIndex, config) -> None:
        from repro.core.normal_form import relax_projection

        self._oracle = oracle
        self._n = graph.n
        relaxed = relax_projection(oracle.decomp)
        from repro.logic.syntax import Top

        self._inner = NextSolutionIndex(
            graph,
            Top(),
            oracle.free_order[:-1],
            config,
            decomposition=relaxed,
        )

    @amortized("O(1)", note="filtered streaming: delay amortized over emitted prefixes")
    @read_only
    def next_solution(self, start: tuple[int, ...]) -> tuple[int, ...] | None:
        """Smallest extendable prefix >= start."""
        candidate = self._inner.next_solution(tuple(start))
        while candidate is not None:
            if self._oracle.first_last(candidate, 0) is not None:
                return candidate
            bumped = increment_tuple(candidate, self._n)
            if bumped is None:
                return None
            candidate = self._inner.next_solution(bumped)
        return None

    @property
    @read_only
    def exact_delay(self) -> bool:
        """Filtered streaming: amortized, not worst-case, delay."""
        return False


@frozen_after_build
class PrefixScan:
    """Fallback prefix index: iterate candidates, testing extension in O(1).

    Each individual step is constant time (one Lemma 5.2 oracle call), but
    a long run of extension-free prefixes makes the *delay* linear in that
    run — the price of projections outside the decomposable fragment.
    """

    def __init__(self, oracle: LastCoordinateIndex, n: int, arity: int) -> None:
        self._oracle = oracle
        self._n = n
        self._arity = arity

    @amortized("O(1)", note="each step O(1); delay linear in extension-free runs")
    @read_only
    def next_solution(self, start: tuple[int, ...]) -> tuple[int, ...] | None:
        """Scan prefixes from ``start``, each tested by one O(1) oracle call."""
        candidate: tuple[int, ...] | None = start
        while candidate is not None:
            if self._oracle.first_last(candidate, 0) is not None:
                return candidate
            candidate = increment_tuple(candidate, self._n)
        return None

    @property
    @read_only
    def exact_delay(self) -> bool:
        """Prefix scanning only gives amortized delay."""
        return False


@frozen_after_build
class NextSolutionIndex:
    """Theorem 5.1 (and thus Theorem 2.3) for one query.

    After construction, :meth:`next_solution` returns the smallest
    solution ``>= start`` in lexicographic order (None if exhausted) and
    :meth:`test` decides membership — both in constant time for the
    decomposable fragment — and :meth:`solutions` streams every solution
    ``>= start`` with constant delay.
    """

    @pseudo_linear(note="Theorem 2.3 preprocessing")
    def __init__(
        self,
        graph: ColoredGraph,
        phi: Formula,
        free_order: tuple[Var, ...],
        config: EngineConfig = DEFAULT_CONFIG,
        decomposition=None,
    ) -> None:
        self.graph = graph
        self.phi = phi
        self.free_order = tuple(free_order)
        self.k = len(self.free_order)
        self.config = config
        self._holds: bool | None = None
        self._unary: UnaryIndex | None = None
        self.last: LastCoordinateIndex | None = None
        with _trace_span("next_solution.build", k=self.k):
            if self.k == 0:
                self._holds = model_check(graph, phi)
                return
            if self.k == 1:
                self._unary = UnaryIndex(graph, phi, self.free_order[0], eps=config.eps)
                return
            self.last = LastCoordinateIndex(
                graph, phi, self.free_order, config, decomposition=decomposition
            )
            if self.k == 2:
                # exact: n constant-time oracle calls enumerate the projection
                solutions = [
                    a
                    for a in graph.vertices()
                    if self.last.first_last((a,), 0) is not None
                ]
                self._prefix = UnaryIndex(
                    graph,
                    Exists(self.free_order[-1], phi),
                    self.free_order[0],
                    eps=config.eps,
                    solutions=solutions,
                )
            elif decomposition is not None:
                # a synthetic (relaxed) decomposition has no formula to project:
                # relax again and filter by this level's oracle
                self._prefix = RelaxedPrefixIndex(graph, self.last, config)
            else:
                try:
                    self._prefix = NextSolutionIndex(
                        graph,
                        Exists(self.free_order[-1], phi),
                        self.free_order[:-1],
                        config,
                    )
                except DecompositionError:
                    try:
                        self._prefix = RelaxedPrefixIndex(graph, self.last, config)
                    except (DecompositionError, ValueError):
                        self._prefix = PrefixScan(self.last, graph.n, self.k - 1)

    # ------------------------------------------------------------------
    @property
    @read_only
    def exact_delay(self) -> bool:
        """True when the constant-delay guarantee holds end to end."""
        if self.k <= 2:
            return True
        return getattr(self._prefix, "exact_delay", True)

    @constant_time(note="Theorem 5.1 lexicographically-next solution")
    @read_only
    def next_solution(self, start: tuple[int, ...]) -> tuple[int, ...] | None:
        """Theorem 2.3: the smallest solution ``>= start``."""
        if len(start) != self.k:
            raise ValueError(f"expected a {self.k}-tuple, got {start!r}")
        if self.k == 0:
            return () if self._holds else None
        if self.graph.n == 0:
            return None
        if self.k == 1:
            found = self._unary.next_solution(start[0])
            return None if found is None else (found,)
        prefix, lower = start[:-1], start[-1]
        found = self.last.first_last(prefix, lower)
        if found is not None:
            return prefix + (found,)
        bumped = increment_tuple(prefix, self.graph.n)
        if bumped is None:
            return None
        # contract: recursion into the (k-1)-ary prefix index; depth bounded by k
        next_prefix = self._next_prefix(bumped)
        if next_prefix is None:
            return None
        found = self.last.first_last(next_prefix, 0)
        if found is None:  # pragma: no cover - the prefix index promised one
            raise AssertionError(
                f"prefix {next_prefix} advertised an extension but has none"
            )
        return next_prefix + (found,)

    @delay("O(1)", note="Corollary 2.5: one merge step per answer, a constant set-up per prefix")
    @read_only
    def solutions(self, start: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        """The solutions ``>= start`` in increasing order (Corollary 2.5).

        The stream :meth:`next_solution` is the head of.  For ``k >= 2``
        it nests the Lemma 5.2 stream of each prefix
        (:meth:`LastCoordinateIndex.last_coordinates`) over the
        ``(k-1)``-ary level's prefixes, so consecutive answers share their
        prefix's set-up instead of repeating it per answer.
        """
        if len(start) != self.k:
            raise ValueError(f"expected a {self.k}-tuple, got {start!r}")
        if self.k == 0:
            if self._holds:
                yield ()
            return
        if self.graph.n == 0:
            return
        if self.k == 1:
            found = self._unary.next_solution(start[0])
            while found is not None:
                yield (found,)
                found = self._unary.next_solution(found + 1)
            return
        prefix, lower = start[:-1], start[-1]
        for found in self.last.last_coordinates(prefix, lower):
            yield prefix + (found,)
        bumped = increment_tuple(prefix, self.graph.n)
        if bumped is None:
            return
        if isinstance(self._prefix, NextSolutionIndex):
            # contract: recursion into the (k-1)-ary level's stream; depth bounded by k
            prefixes = self._prefix.solutions(bumped)
        else:
            prefixes = self._walk_prefixes(bumped)
        for prefix in prefixes:
            for found in self.last.last_coordinates(prefix, 0):
                yield prefix + (found,)

    @delay("O(1)", note="one prefix-index call per prefix; amortized in the fallback")
    @read_only
    def _walk_prefixes(self, start: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        """The extendable prefixes ``>= start``, in order, one
        :meth:`_next_prefix` call each: the k = 2 prefix
        :class:`UnaryIndex`, or the fallback's ``next_solution`` loop."""
        found = self._next_prefix(start)
        while found is not None:
            yield found
            bumped = increment_tuple(found, self.graph.n)
            found = None if bumped is None else self._next_prefix(bumped)

    @constant_time(note="one prefix-index call; amortized in the fallback")
    @read_only
    def _next_prefix(self, start: tuple[int, ...]) -> tuple[int, ...] | None:
        if self.k == 2:
            # contract: amortized — k=2 dispatches to the exact UnaryIndex branch
            found = self._prefix.next_solution(start[0])
            return None if found is None else (found,)
        # contract: amortized — PrefixScan/RelaxedPrefixIndex fallback; see DESIGN.md
        return self._prefix.next_solution(start)

    @constant_time(note="Corollary 2.4 testing")
    @read_only
    def test(self, values: tuple[int, ...]) -> bool:
        """Corollary 2.4: constant-time membership."""
        if len(values) != self.k:
            raise ValueError(f"expected a {self.k}-tuple, got {values!r}")
        if self.k == 0:
            return bool(self._holds)
        if self.k == 1:
            return self._unary.test(values[0])
        return self.last.test(values)
