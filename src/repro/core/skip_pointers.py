"""Skip pointers (Lemma 5.8, after [30]).

Given a list ``L ⊆ V``, an ``r``-neighborhood cover ``X`` with kernels
``K_r(X)``, and an arity bound ``k``, we want constant-time queries::

    SKIP(b, S) = min { b' ∈ L : b' >= b  and  b' ∉ ∪_{X∈S} K_r(X) }

for any set ``S`` of at most ``k`` bags.  The full function has a huge
domain, so the preprocessing only materializes it on the inductively
defined family ``SC(b)`` (the proof's *small cases*):

* ``{X} ∈ SC(b)`` whenever ``b ∈ K_r(X)``;
* ``S ∪ {X} ∈ SC(b)`` whenever ``S ∈ SC(b)``, ``|S| < k`` and
  ``SKIP(b, S) ∈ K_r(X)``.

Claim 5.9 then resolves an arbitrary ``(b, S)`` in constantly many steps,
hopping through stored values of larger ``b``.  Pointers are computed for
``b`` from largest to smallest (Claim 5.10) and stored in a Theorem 3.1
:class:`StoredFunction` keyed by ``(b, bag_1, ..., bag_k)`` with a
sentinel padding value — so lookups meet the paper's constant-time bound.
The sweep only reads pointers of larger ``b``, which it has already
computed, so it collects them in a plain dict and bulk-loads the store
once at the end instead of paying per-key trie gap maintenance.
"""

from __future__ import annotations

from collections.abc import Collection, Iterator, Sequence
from typing import Any

from repro.contracts import constant_time, delay, frozen_after_build, pseudo_linear, read_only
from repro.storage.function_store import StoredFunction
from repro.trace.runtime import span as _trace_span

#: Marker stored for "no such element" (must be distinct from any vertex).
_NULL = "null"


@frozen_after_build
class SkipPointers:
    """The Lemma 5.8 structure.

    Parameters
    ----------
    n:
        Vertex universe size (vertices are ``0..n-1``).
    targets:
        The list ``L`` (iterable of vertices).
    kernels:
        ``kernels[i]`` is the kernel vertex set ``K_r(X_i)`` of bag ``i``.
    k:
        Maximum number of bags per query (the query arity bound).
    eps:
        Storing-structure exponent.
    """

    @pseudo_linear(note="Claim 5.10: O(n^{1+k eps}) pointers materialized")
    def __init__(
        self,
        n: int,
        targets: Collection[int],
        kernels: Sequence[Collection[int]],
        k: int,
        eps: float = 0.5,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        self.n = n
        self.k = k
        self.num_bags = len(kernels)
        self._kernel_sets = [set(K) for K in kernels]
        self._in_l = [False] * n
        for b in targets:
            self._in_l[b] = True
        # kernel_bags[v]: bag ids whose kernel contains v (cover-degree many)
        self._kernel_bags: list[list[int]] = [[] for _ in range(n)]
        for bag_id, K in enumerate(self._kernel_sets):
            for v in K:
                self._kernel_bags[v].append(bag_id)
        # next_l[b]: smallest element of L that is >= b (None past the end)
        self._next_l: list[int | None] = [None] * (n + 1)
        nxt: int | None = None
        for b in range(n - 1, -1, -1):
            if self._in_l[b]:
                nxt = b
            self._next_l[b] = nxt
        # the stored pointers: key (b, sorted bag ids padded with sentinel)
        self._sentinel = self.num_bags  # one past the largest bag id
        universe = max(n, self._sentinel + 1)
        with _trace_span("skip_pointers.build", n=n, bags=self.num_bags):
            pointers = self._precompute()
            self._store = StoredFunction(
                universe, k + 1, eps=eps, items=pointers.items()
            )

    # ------------------------------------------------------------------
    # preprocessing (Claim 5.10): b from largest to smallest
    # ------------------------------------------------------------------
    @constant_time(note="sorts at most k bag ids, k fixed")
    @read_only
    def _key(self, b: int, bags: frozenset[int]) -> tuple[int, ...]:
        padded = sorted(bags) + [self._sentinel] * (self.k - len(bags))
        return (b, *padded)

    @pseudo_linear(note="Claim 5.10 sweep, b from largest to smallest")
    @read_only
    def _precompute(self) -> dict[tuple[int, ...], Any]:
        """Every pointer of the small cases ``SC(b)``, keyed like the store."""
        pointers: dict[tuple[int, ...], Any] = {}
        for b in range(self.n - 1, -1, -1):
            # seed SC(b) with singletons, then close under the SKIP rule
            queue = [frozenset((x,)) for x in self._kernel_bags[b]]
            seen = set(queue)
            while queue:
                bag_set = queue.pop()
                value = self._resolve(b, bag_set, pointers)
                pointers[self._key(b, bag_set)] = _NULL if value is None else value
                if value is not None and len(bag_set) < self.k:
                    for x in self._kernel_bags[value]:
                        extended = bag_set | {x}
                        if extended not in seen and len(extended) <= self.k:
                            seen.add(extended)
                            queue.append(extended)
        return pointers

    # ------------------------------------------------------------------
    # Claim 5.9 resolution
    # ------------------------------------------------------------------
    @constant_time(note="at most k kernel membership probes")
    @read_only
    def _in_some_kernel(self, v: int, bags: frozenset[int]) -> bool:
        return any(v in self._kernel_sets[x] for x in bags)

    @constant_time(note="Claim 5.9: constantly many hops")
    @read_only
    def _resolve(self, b: int, bags: frozenset[int], stored_at: Any) -> int | None:
        """Compute SKIP(b, bags) using stored pointers of vertices > b.

        ``stored_at`` maps pointer keys to values through ``.get`` — the
        sweep's dict while :meth:`_precompute` runs, the store afterwards.
        """
        # Case 1: b itself qualifies.
        if self._in_l[b] and not self._in_some_kernel(b, bags):
            return b
        # Case 2: hop to the next L element.
        c = self._next_l[b + 1] if b + 1 <= self.n else None
        if c is None:
            return None
        if not self._in_some_kernel(c, bags):
            return c
        # c sits in some kernel of `bags`; grow a maximal stored subset at c.
        subset = self._maximal_stored_subset(c, bags, stored_at)
        stored = stored_at.get(self._key(c, subset))
        if stored is None:
            raise AssertionError(
                f"missing stored pointer for ({c}, {sorted(subset)})"
            )  # pragma: no cover - would indicate a preprocessing bug
        return None if stored == _NULL else stored

    @constant_time(note="at most k growth steps, k fixed")
    @read_only
    def _maximal_stored_subset(
        self, c: int, bags: frozenset[int], stored_at: Any
    ) -> frozenset[int]:
        """Greedily grow ``S' ⊆ bags`` with ``S' ∈ SC(c)`` until maximal,
        following exactly the Claim 5.9 argument."""
        start = next(x for x in bags if c in self._kernel_sets[x])
        subset = frozenset((start,))
        while len(subset) < len(bags):
            stored = stored_at.get(self._key(c, subset))
            value = None if stored == _NULL else stored
            if value is None:
                break
            extension = next(
                (x for x in bags - subset if value in self._kernel_sets[x]), None
            )
            if extension is None:
                break
            subset = subset | {extension}
        return subset

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @constant_time(note="Lemma 5.8 SKIP query")
    @read_only
    def skip(self, b: int, bags: Collection[int]) -> int | None:
        """``SKIP(b, bags)`` in constant time; ``bags`` has at most ``k`` ids."""
        bag_set = frozenset(bags)
        if len(bag_set) > self.k:
            raise ValueError(f"at most {self.k} bags per query, got {len(bag_set)}")
        if not 0 <= b < self.n:
            raise ValueError(f"vertex {b} out of range [0, {self.n})")
        return self._resolve(b, bag_set, self._store)

    @delay("O(1)", note="Lemma 5.8: one SKIP resolve per element")
    @read_only
    def walk(self, lower: int, bags: Collection[int]) -> Iterator[int]:
        """Every element of ``SKIP``'s range from ``lower`` on, ascending.

        The chain ``SKIP(lower, bags)``, ``SKIP(found + 1, bags)``, ...:
        the members of ``L`` that are ``>= lower`` and outside every
        kernel of ``bags``, one Claim 5.9 resolve each.
        """
        found = self.skip(lower, bags)
        bag_set = frozenset(bags)
        while found is not None:
            yield found
            if found + 1 >= self.n:
                return
            found = self._resolve(found + 1, bag_set, self._store)

    @property
    @read_only
    def stored_pointers(self) -> int:
        """Number of materialized (b, S) pairs — Claim 5.10's O(n^{1+k eps})."""
        return len(self._store)
