"""Counting solutions in pseudo-linear time.

The paper's introduction cites Grohe–Schweikardt [18]: over nowhere
dense classes, ``|q(G)|`` is computable in pseudo-linear time — i.e.
*without* enumerating the (possibly quadratic) result set.

:class:`CountingIndex` is a view over a built (or repaired)
:class:`~repro.core.engine.QueryIndex`'s tower.  For binary queries it
reproduces [18]'s claim on the Lemma 5.2 machinery.  Distance types
partition the tuples, so

    ``|q(G)| = Σ_a ( close(a) + far(a) )``

with, per vertex ``a``:

* ``close(a)`` — solutions ``(a, b)`` with ``b`` near ``a``: the union of
  the per-alternative bag columns inside ``X(a)`` (bag-sized work, cached
  per ``a``);
* ``far(a)`` — solutions with ``b`` far from ``a``: by the kernel
  argument (Section 5.2.2, Case I), every far ``b`` is either outside
  ``K_r(X(a))`` — counted as ``|L| - |L ∩ K_r(X(a))|`` with the kernel
  intersection precomputed per bag — or inside the kernel, counted by a
  bag search.  ``L`` is the union of the live alternatives' unary
  solution lists (cached per live-subset).

Total work: one bag-sized computation per vertex plus one kernel scan
per (live-subset, bag) — pseudo-linear on sparse inputs, and crucially
*independent of* ``|q(G)|``.  Arity <= 1 and the naive fallback count
stored solutions; only arity >= 3 enumerates (``method`` says which).
The caches live on the view, not on the frozen index, so nothing cached
crosses an update.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING

from repro.baselines.naive import NaiveIndex
from repro.contracts import amortized

if TYPE_CHECKING:
    from repro.core.engine import QueryIndex


class CountingIndex:
    """``|q(G)|`` and per-prefix counts of a built index, without
    materializing ``q(G)``.  ``method`` is ``"closed-form"``, ``"stored"``
    or ``"enumerate"``.
    """

    def __init__(self, index: QueryIndex) -> None:
        self.index = index
        self.graph = index.graph
        self.k = index.arity
        impl = index._impl
        if self.k <= 1 or isinstance(impl, NaiveIndex):
            self.method = "stored"
        elif self.k == 2:
            self.method = "closed-form"
            self._last = impl.last
            self._union_l_cache: dict[frozenset[int], list[int]] = {}
            self._kernel_intersection_cache: dict[tuple[frozenset[int], int], int] = {}
            self._column_cache: dict[int, int] = {}
        else:
            self.method = "enumerate"

    # ------------------------------------------------------------------
    def count(self) -> int:
        """``|q(G)|``."""
        impl = self.index._impl
        if self.k == 0:
            return int(self.index.test(()))
        if isinstance(impl, NaiveIndex):
            return len(impl)
        if self.k == 1:
            return len(impl._unary)
        if self.k == 2:
            return sum(self.count_suffixes(a) for a in self.graph.vertices())
        return sum(1 for _ in self.index.enumerate())

    @amortized("O(1)", note="bag-sized work on first query per vertex, then cached")
    def count_suffixes(self, a: int) -> int:
        """``|{b : (a, b) ∈ q(G)}|`` — constant amortized time for k = 2;
        0 for ``a`` outside ``[0, n)``, as :meth:`QueryIndex.test` is total."""
        if self.k != 2:
            raise ValueError("count_suffixes requires a binary query")
        if not 0 <= a < self.graph.n:
            return 0
        if self.method == "stored":
            solutions = self.index._impl.solutions
            return bisect_left(solutions, (a + 1,)) - bisect_left(solutions, (a,))
        cached = self._column_cache.get(a)
        if cached is None:
            cached = self._count_close(a) + self._count_far(a)
            self._column_cache[a] = cached
        return cached

    # ------------------------------------------------------------------
    # the close part: b inside the bag of a
    # ------------------------------------------------------------------
    def _count_close(self, a: int) -> int:
        last = self._last
        total: set[int] = set()
        solver, to_new, to_old = last.solvers[last.cover.bag_of(a)]
        for entry in last.live_plan.get(0, ()):  # k=2: the prefix has one type
            if entry.j_star is None:  # Case II is the close type
                continue
            query, prefix_vars = entry.queries[0]
            column = solver.column(
                query, prefix_vars, (to_new[a],), last.free_order[-1]
            )
            total.update(to_old[b] for b in column)
        return len(total)

    # ------------------------------------------------------------------
    # the far part: b outside the r-ball of a (Case I accounting)
    # ------------------------------------------------------------------
    def _live_far_alternatives(self, a: int):
        last = self._last
        live = []
        for entry_id, entry in enumerate(last.live_plan.get(0, ())):
            if entry.j_star is not None:
                continue
            if not last._test_components(entry, (a,)):
                continue
            live.append((entry_id, entry))
        return live

    def _union_l(self, key: frozenset[int], live) -> list[int]:
        cached = self._union_l_cache.get(key)
        if cached is None:
            union: set[int] = set()
            last = self._last
            for _, entry in live:
                targets, _ = last.far_structures[entry.far_psi]
                union.update(targets)
            cached = sorted(union)
            self._union_l_cache[key] = cached
        return cached

    def _kernel_intersection(self, key: frozenset[int], union_l: list[int], bag_id: int) -> int:
        cache_key = (key, bag_id)
        cached = self._kernel_intersection_cache.get(cache_key)
        if cached is None:
            members = set(union_l)
            cached = sum(1 for v in self._last.kernels[bag_id] if v in members)
            self._kernel_intersection_cache[cache_key] = cached
        return cached

    def _count_far(self, a: int) -> int:
        last = self._last
        live = self._live_far_alternatives(a)
        if not live:
            return 0
        key = frozenset(entry_id for entry_id, _ in live)
        union_l = self._union_l(key, live)
        bag_id = last.cover.bag_of(a)
        # b outside the kernel of X(a): guaranteed far (the Case I argument)
        outside = len(union_l) - self._kernel_intersection(key, union_l, bag_id)
        # b inside the kernel: search the bag with the far constraints
        solver, to_new, to_old = last.solvers[bag_id]
        in_kernel: set[int] = set()
        for _, entry in live:
            query, prefix_vars = entry.queries[1]  # a is the one stranger
            column = solver.column(
                query, prefix_vars, (to_new[a],), last.free_order[-1]
            )
            in_kernel.update(to_old[b] for b in column)
        return outside + len(in_kernel)

