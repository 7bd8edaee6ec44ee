"""Distance types (Section 5.1.2).

The *r-distance type* of a tuple ``ā`` is the undirected graph on the
positions ``{0..k-1}`` with an edge ``{i, j}`` iff ``dist(a_i, a_j) <= r``.
The normal form decomposes a query per type: positions in the same
connected component are "close" (they share a bag), components are
pairwise far, and the query factorizes over components.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator

from repro.contracts import constant_time

#: Guard against exponentially many types for silly arities.
MAX_TYPE_ARITY = 6


@dataclass(frozen=True)
class DistanceType:
    """A distance type: a graph on positions ``0..k-1``."""

    k: int
    edges: frozenset[frozenset[int]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        for edge in self.edges:
            if len(edge) != 2 or not all(0 <= i < self.k for i in edge):
                raise ValueError(f"invalid type edge {set(edge)} for arity {self.k}")

    @constant_time(note="one frozenset probe")
    def has_edge(self, i: int, j: int) -> bool:
        """Are positions ``i`` and ``j`` within distance r under this type?"""
        return frozenset((i, j)) in self.edges

    @constant_time(note="union-find over k positions, k fixed")
    def components(self) -> list[frozenset[int]]:
        """Connected components, sorted by smallest member."""
        parent = list(range(self.k))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for edge in self.edges:
            i, j = tuple(edge)
            parent[find(i)] = find(j)
        groups: dict[int, set[int]] = {}
        for i in range(self.k):
            groups.setdefault(find(i), set()).add(i)
        return sorted((frozenset(group) for group in groups.values()), key=min)

    @constant_time
    def component_of(self, position: int) -> frozenset[int]:
        for component in self.components():
            if position in component:
                return component
        raise ValueError(f"position {position} out of range")  # pragma: no cover

    @constant_time(note="induced sub-type on at most k positions")
    def restrict(self, positions: frozenset[int]) -> "DistanceType":
        """The induced sub-type on ``positions``, relabeled to ``0..|P|-1``."""
        order = sorted(positions)
        index = {p: i for i, p in enumerate(order)}
        edges = frozenset(
            frozenset((index[i], index[j]))
            for edge in self.edges
            for i, j in [tuple(edge)]
            if i in positions and j in positions
        )
        return DistanceType(len(order), edges)

    def __repr__(self) -> str:
        pairs = sorted(tuple(sorted(e)) for e in self.edges)
        return f"DistanceType(k={self.k}, edges={pairs})"


def all_types(k: int) -> Iterator[DistanceType]:
    """All ``2^(k choose 2)`` distance types of arity ``k``."""
    if k > MAX_TYPE_ARITY:
        raise ValueError(
            f"arity {k} would enumerate 2^{k*(k-1)//2} distance types; "
            f"the engine supports arity <= {MAX_TYPE_ARITY}"
        )
    pairs = list(combinations(range(k), 2))
    for mask in range(1 << len(pairs)):
        edges = frozenset(
            frozenset(pairs[bit]) for bit in range(len(pairs)) if mask >> bit & 1
        )
        yield DistanceType(k, edges)


@constant_time(note="k(k-1)/2 oracle calls, k fixed")
def type_mask(values, close) -> int:
    """The distance type of ``values`` as a bitmask over position pairs.

    Bit ``j(j-1)/2 + i`` is set iff ``close(values[i], values[j])`` for
    ``i < j``.  The pairs of the first ``m`` positions take the low
    ``m(m-1)/2`` bits, so a prefix's mask is the low bits of a longer
    tuple's.  In the engine ``close`` decides ``dist(a, b) <= r`` through
    the :class:`~repro.core.distance_index.DistanceIndex` of Prop 4.2; the
    answer plan masks each type with ``type_mask(range(k), tau.has_edge)``.
    """
    mask = 0
    bit = 1
    for j in range(1, len(values)):
        right = values[j]
        for i in range(j):
            if close(values[i], right):
                mask |= bit
            bit <<= 1
    return mask
