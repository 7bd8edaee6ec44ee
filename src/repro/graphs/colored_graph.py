"""Colored graphs (Section 2 of the paper).

A *c-colored graph* is a finite structure over the schema
``sigma_c = {E, C_1, ..., C_c}`` where ``E`` is a symmetric binary relation
and each ``C_i`` is a unary relation ("color").  The paper reduces every
relational database to this format (Lemma 2.2), so colored graphs are the
single substrate every index in :mod:`repro.core` is built on.

Vertices are always the integers ``0 .. n-1``.  The linear order the paper
assumes on the domain is the natural order on those integers; the
lexicographic order on tuples is Python's tuple order.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping


class ColoredGraph:
    """An undirected graph on vertices ``0..n-1`` with named vertex colors.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        Iterable of ``(u, v)`` pairs.  Self-loops are rejected; duplicate
        edges (in either orientation) are stored once.
    colors:
        Mapping from color name to an iterable of the vertices carrying it.

    Examples
    --------
    >>> g = ColoredGraph(4, [(0, 1), (1, 2)], colors={"B": [2, 3]})
    >>> g.degree(1)
    2
    >>> g.has_color(2, "B")
    True
    """

    __slots__ = ("_n", "_adj", "_colors", "_edge_count")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        colors: Mapping[str, Iterable[int]] | None = None,
    ) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        self._n = n
        self._adj: list[set[int]] = [set() for _ in range(n)]
        self._edge_count = 0
        for u, v in edges:
            self.add_edge(u, v)
        self._colors: dict[str, set[int]] = {}
        if colors:
            for name, members in colors.items():
                self.set_color(name, members)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices (the paper's ``|G|``)."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._edge_count

    @property
    def size(self) -> int:
        """Encoding size ``||G|| = |V| + |E|`` (Section 2)."""
        return self._n + self._edge_count

    def vertices(self) -> range:
        """The vertex set, in the assumed linear order."""
        return range(self._n)

    def neighbors(self, v: int) -> frozenset[int]:
        """The open neighborhood of ``v``."""
        self._check_vertex(v)
        return frozenset(self._adj[v])

    def degree(self, v: int) -> int:
        """Number of neighbors of ``v``."""
        self._check_vertex(v)
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Is ``{u, v}`` an edge?"""
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over edges as pairs ``(u, v)`` with ``u < v``."""
        for u in range(self._n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> None:
        """Insert the undirected edge ``{u, v}`` (idempotent; no loops)."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loop on vertex {u} not allowed")
        if v not in self._adj[u]:
            self._adj[u].add(v)
            self._adj[v].add(u)
            self._edge_count += 1

    def with_edge(self, u: int, v: int) -> "ColoredGraph":
        """A structurally shared copy with edge ``{u, v}`` added.

        Only the adjacency sets of ``u`` and ``v`` are fresh; every other
        vertex shares its neighbor set with ``self`` (O(n) pointer copies,
        not O(n + m)).  The returned graph must therefore never be mutated
        in place — it exists for the persistent update path in
        :mod:`repro.core.repair`, where each version is frozen on arrival.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loop on vertex {u} not allowed")
        if v in self._adj[u]:
            raise ValueError(f"edge ({u}, {v}) already present")
        adj = list(self._adj)
        adj[u] = self._adj[u] | {v}
        adj[v] = self._adj[v] | {u}
        return self._shared(adj, self._edge_count + 1, dict(self._colors))

    def without_edge(self, u: int, v: int) -> "ColoredGraph":
        """A structurally shared copy with edge ``{u, v}`` removed.

        Same sharing contract as :meth:`with_edge`: treat the result as
        immutable.  Raises :class:`ValueError` when the edge is absent.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if v not in self._adj[u]:
            raise ValueError(f"edge ({u}, {v}) not present")
        adj = list(self._adj)
        adj[u] = self._adj[u] - {v}
        adj[v] = self._adj[v] - {u}
        return self._shared(adj, self._edge_count - 1, dict(self._colors))

    def with_color(self, name: str, v: int) -> "ColoredGraph":
        """A structurally shared copy with ``v`` added to color ``name``.

        The adjacency and every other color's member set are shared with
        ``self``; only the member set of ``name`` is fresh.  Same sharing
        contract as :meth:`with_edge`: treat the result as immutable.

        >>> g = ColoredGraph(3, [(0, 1)], colors={"B": [2]})
        >>> sorted(g.with_color("B", 0).color("B")), sorted(g.color("B"))
        ([0, 2], [2])
        """
        self._check_vertex(v)
        colors = dict(self._colors)
        colors[name] = self._colors.get(name, set()) | {v}
        return self._shared(self._adj, self._edge_count, colors)

    def without_color(self, name: str, v: int) -> "ColoredGraph":
        """A structurally shared copy with ``v`` removed from color ``name``.

        Same sharing contract as :meth:`with_color`.
        """
        self._check_vertex(v)
        colors = dict(self._colors)
        colors[name] = self._colors.get(name, set()) - {v}
        return self._shared(self._adj, self._edge_count, colors)

    def _shared(
        self, adj: list[set[int]], edge_count: int, colors: dict[str, set[int]]
    ) -> "ColoredGraph":
        out = ColoredGraph.__new__(ColoredGraph)
        out._n = self._n
        out._adj = adj
        out._edge_count = edge_count
        out._colors = colors
        return out

    def set_color(self, name: str, members: Iterable[int]) -> None:
        """Define (or replace) the extension of color ``name``."""
        member_set = set(members)
        for v in member_set:
            self._check_vertex(v)
        self._colors[name] = member_set

    def add_to_color(self, name: str, v: int) -> None:
        """Add ``v`` to color ``name`` (creating the color if needed)."""
        self._check_vertex(v)
        self._colors.setdefault(name, set()).add(v)

    # ------------------------------------------------------------------
    # colors
    # ------------------------------------------------------------------
    @property
    def color_names(self) -> frozenset[str]:
        """The declared color names."""
        return frozenset(self._colors)

    def color(self, name: str) -> frozenset[int]:
        """The extension of color ``name`` (empty if undeclared)."""
        return frozenset(self._colors.get(name, ()))

    def has_color(self, v: int, name: str) -> bool:
        """Does ``v`` carry color ``name``?"""
        self._check_vertex(v)
        return v in self._colors.get(name, ())

    def colors_of(self, v: int) -> frozenset[str]:
        """All colors carried by ``v``."""
        self._check_vertex(v)
        return frozenset(name for name, members in self._colors.items() if v in members)

    # ------------------------------------------------------------------
    # derived structures
    # ------------------------------------------------------------------
    def copy(self) -> "ColoredGraph":
        """A deep, independent copy."""
        out = ColoredGraph(self._n)
        for u in range(self._n):
            out._adj[u] = set(self._adj[u])
        out._edge_count = self._edge_count
        out._colors = {name: set(members) for name, members in self._colors.items()}
        return out

    def relabeled_subgraph(self, vertices: Iterable[int]) -> tuple["ColoredGraph", list[int]]:
        """Induced subgraph on ``vertices``, relabeled to ``0..m-1``.

        Returns the subgraph together with the list ``original`` mapping the
        new label ``i`` back to the original vertex ``original[i]``.  The new
        labels preserve the original order, so lexicographic comparisons in
        the subgraph agree with the ambient graph — a property the Section 5
        recursion relies on when diving into bags.
        """
        original = sorted(set(vertices))
        for v in original:
            self._check_vertex(v)
        index = {v: i for i, v in enumerate(original)}
        sub = ColoredGraph(len(original))
        for v in original:
            i = index[v]
            for w in self._adj[v]:
                j = index.get(w)
                if j is not None and i < j:
                    sub.add_edge(i, j)
        # collect colors per member vertex (O(|B| * #colors)), not by
        # scanning whole color extensions (O(n)) — subgraph extraction must
        # stay ball-sized for ball-local update repair
        inside: dict[str, list[int]] = {}
        for v in original:
            for name, members in self._colors.items():
                if v in members:
                    inside.setdefault(name, []).append(index[v])
        for name, vertices in inside.items():
            sub.set_color(name, vertices)
        return sub, original

    # ------------------------------------------------------------------
    # dunder / misc
    # ------------------------------------------------------------------
    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise IndexError(f"vertex {v} out of range [0, {self._n})")

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        return (
            f"ColoredGraph(n={self._n}, edges={self._edge_count}, "
            f"colors={sorted(self._colors)})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColoredGraph):
            return NotImplemented
        return (
            self._n == other._n
            and self._adj == other._adj
            and {k: v for k, v in self._colors.items() if v}
            == {k: v for k, v in other._colors.items() if v}
        )

    def __hash__(self):  # pragma: no cover - mutable, unhashable by design
        raise TypeError("ColoredGraph is mutable and unhashable")
