"""The Removal Lemma (Lemma 5.5, after [18, Lemma 7.8]).

Given a colored graph ``G``, a vertex ``s`` and an FO+ query ``phi``, we
produce a recoloring ``H`` of ``G - s`` and a query ``phi'`` such that

    ``G |= phi(b̄)``  iff  ``H |= phi'(b̄ with the s-components dropped)``

whenever the components of ``b̄`` equal to ``s`` are exactly the declared
ones.  Crucially the rewriting preserves q-rank: distance-atom bounds are
never increased and no quantifiers are added.

Construction:

* **colors** — for every distance bound ``d`` appearing in ``phi`` (and
  ``1`` for edge atoms) add a color ``@s:d`` on ``H`` whose extension is
  ``{w : dist_G(w, s) <= d}`` (one bounded BFS in ``G``);
* **quantifiers** — a quantifier over ``G`` also ranges over ``s``, while
  in ``H`` it does not, so ``∃z ψ`` becomes ``∃z ψ' ∨ ψ'[z := s]`` and
  ``∀z ψ`` becomes ``∀z ψ' ∧ ψ'[z := s]``;
* **atoms** mentioning an ``s``-variable collapse to colors/constants:
  ``E(x, s) -> @s:1(x)`` (minus equality), ``dist(x, s) <= d -> @s:d(x)``,
  ``x = s -> false`` for live variables, colors of ``s`` to constants;
* **distance atoms between live variables** must account for lost paths
  through ``s``: ``dist(x,y) <= d`` becomes
  ``dist(x,y) <= d  ∨  ⋁_{i+j <= d, i,j >= 1} (@s:i(x) ∧ @s:j(y))``
  — the Example 1-C pattern.

``H`` keeps the ambient vertex ids of ``G`` minus ``s`` *relabeled
compactly and order-preservingly* so lexicographic enumeration in the bag
agrees with the ambient order (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graphs.colored_graph import ColoredGraph
from repro.graphs.neighborhoods import bounded_bfs
from repro.logic.syntax import (
    And,
    Bottom,
    ColorAtom,
    DistAtom,
    EdgeAtom,
    EqAtom,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    Top,
    Var,
)


@dataclass(frozen=True)
class RemovalResult:
    """Output of :func:`remove_vertex`.

    Attributes
    ----------
    graph:
        ``H`` — the recoloring of ``G - s`` (compact, order-preserving ids).
    to_new / to_old:
        Vertex translations between ``G`` and ``H``.
    color_prefix:
        The tag used for the fresh distance colors (``f"{prefix}:{d}"``).
    """

    graph: ColoredGraph
    to_new: dict[int, int]
    to_old: list[int]
    color_prefix: str


_removal_counter = [0]


def remove_vertex(graph: ColoredGraph, s: int, max_bound: int) -> RemovalResult:
    """Build the recolored graph ``H`` of Lemma 5.5 for vertex ``s``.

    ``max_bound`` is the largest distance bound any rewritten query will
    mention (take ``max(1, max_distance_bound(phi))``).  Runs in time
    linear in ``||G||`` (one bounded BFS plus the subgraph copy).
    """
    _removal_counter[0] += 1
    prefix = f"@s{_removal_counter[0]}"
    keep = [v for v in graph.vertices() if v != s]
    sub, original = graph.relabeled_subgraph(keep)
    to_new = {v: i for i, v in enumerate(original)}
    dist_to_s = bounded_bfs(graph, [s], max(1, max_bound))
    for d in range(1, max(1, max_bound) + 1):
        members = [to_new[w] for w, dw in dist_to_s.items() if 0 < dw <= d]
        sub.set_color(f"{prefix}:{d}", members)
    return RemovalResult(sub, to_new, original, prefix)


def rewrite_without_vertex(
    phi: Formula,
    s_vars: frozenset[Var],
    graph: ColoredGraph,
    s: int,
    color_prefix: str,
) -> Formula:
    """The query transformation of Lemma 5.5.

    ``s_vars`` are the variables currently standing for the removed vertex
    ``s``; ``graph`` is the *original* graph (needed only for the colors
    of ``s`` itself, which fold to constants).  The result mentions the
    ``f"{color_prefix}:{d}"`` colors produced by :func:`remove_vertex`.
    """

    def color_at_most(var: Var, d: int) -> Formula:
        return ColorAtom(f"{color_prefix}:{d}", var)

    def walk(node: Formula, s_vars: frozenset[Var]) -> Formula:
        if isinstance(node, (Top, Bottom)):
            return node
        if isinstance(node, EqAtom):
            left_s = node.left in s_vars
            right_s = node.right in s_vars
            if left_s and right_s:
                return Top()
            if left_s or right_s:
                return Bottom()  # a live variable never denotes the removed s
            return node
        if isinstance(node, EdgeAtom):
            left_s = node.left in s_vars
            right_s = node.right in s_vars
            if left_s and right_s:
                return Bottom()  # no self-loops
            if left_s:
                return color_at_most(node.right, 1)
            if right_s:
                return color_at_most(node.left, 1)
            return node
        if isinstance(node, ColorAtom):
            if node.var in s_vars:
                return Top() if graph.has_color(s, node.color) else Bottom()
            return node
        if isinstance(node, DistAtom):
            left_s = node.left in s_vars
            right_s = node.right in s_vars
            if left_s and right_s:
                return Top()  # dist(s, s) = 0 <= d
            if left_s or right_s:
                live = node.right if left_s else node.left
                if node.bound == 0:
                    return Bottom()  # live variable equal to s is impossible
                return color_at_most(live, node.bound)
            if node.bound == 0:
                return node
            # account for paths through s: split dist(x,s)=i, dist(s,y)=j
            through = [
                And((color_at_most(node.left, i), color_at_most(node.right, node.bound - i)))
                for i in range(1, node.bound)
            ]
            return Or((node, *through)) if through else node
        if isinstance(node, Not):
            return Not(walk(node.body, s_vars))
        if isinstance(node, And):
            return And(tuple(walk(p, s_vars) for p in node.parts))
        if isinstance(node, Or):
            return Or(tuple(walk(p, s_vars) for p in node.parts))
        if isinstance(node, Exists):
            live = walk(node.body, s_vars - {node.var})
            as_s = walk(node.body, s_vars | {node.var})
            return Or((Exists(node.var, live), as_s))
        if isinstance(node, Forall):
            live = walk(node.body, s_vars - {node.var})
            as_s = walk(node.body, s_vars | {node.var})
            return And((Forall(node.var, live), as_s))
        raise TypeError(f"unknown formula node: {node!r}")

    return walk(phi, s_vars)
