"""Unit tests for the Removal Lemma (Lemma 5.5)."""

import random

import pytest

from repro.core.removal import remove_vertex, rewrite_without_vertex
from repro.graphs.colored_graph import ColoredGraph
from repro.graphs.generators import random_planar_like_graph
from repro.logic.parser import parse_formula
from repro.logic.ranks import max_distance_bound, quantifier_rank
from repro.logic.semantics import evaluate
from repro.logic.syntax import Var
from repro.logic.transform import free_variables

QUERIES = [
    "E(x, y)",
    "x = y",
    "Red(x) & Blue(y)",
    "exists z. E(x, z) & E(z, y)",
    "dist(x, y) <= 2",
    "dist(x, y) > 2 & Blue(y)",
    "forall z. (E(x, z) -> dist(z, y) <= 3)",
    "exists z. dist(z, x) <= 1 & Blue(z) & z != y",
]


def remove_and_rewrite(phi, graph, s, s_vars=frozenset()):
    """Lemma 5.5 through the two calls ``BagSolver`` makes: recolor ``G - s``,
    then rewrite ``phi`` over the fresh distance colors."""
    removal = remove_vertex(graph, s, max(1, max_distance_bound(phi)))
    rewritten = rewrite_without_vertex(phi, s_vars, graph, s, removal.color_prefix)
    return rewritten, removal


def check_equivalence(graph, text, s, rng, samples=60):
    phi = parse_formula(text)
    fv = sorted(free_variables(phi), key=lambda v: v.name)
    for _ in range(samples):
        values = [rng.randrange(graph.n) for _ in fv]
        truth = evaluate(graph, phi, dict(zip(fv, values)))
        s_vars = frozenset(v for v, val in zip(fv, values) if val == s)
        rewritten, removal = remove_and_rewrite(phi, graph, s, s_vars)
        assignment = {
            v: removal.to_new[val] for v, val in zip(fv, values) if val != s
        }
        assert evaluate(removal.graph, rewritten, assignment) == truth, (
            text,
            s,
            values,
        )


@pytest.mark.parametrize("text", QUERIES)
def test_lemma_equivalence(text):
    rng = random.Random(text)
    for seed in range(3):
        graph = random_planar_like_graph(16, seed=seed)
        s = rng.randrange(graph.n)
        check_equivalence(graph, text, s, rng)


def test_rewritten_query_preserves_quantifier_rank():
    graph = random_planar_like_graph(12, seed=0)
    for text in QUERIES:
        phi = parse_formula(text)
        rewritten, _ = remove_and_rewrite(phi, graph, 3)
        assert quantifier_rank(rewritten) <= quantifier_rank(phi)


def test_removed_graph_shape():
    graph = ColoredGraph(4, [(0, 1), (1, 2), (2, 3)], colors={"A": [1, 3]})
    result = remove_vertex(graph, 1, max_bound=2)
    h = result.graph
    assert h.n == 3
    assert result.to_old == [0, 2, 3]
    # edges not through vertex 1 survive, relabeled
    assert sorted(h.edges()) == [(1, 2)]
    # distance colors: dist_G(0, 1) = 1, dist_G(2, 1) = 1, dist_G(3, 1) = 2
    prefix = result.color_prefix
    assert h.color(f"{prefix}:1") == {0, 1}
    assert h.color(f"{prefix}:2") == {0, 1, 2}
    # original colors survive minus the removed vertex
    assert h.color("A") == {2}


def test_order_preserving_relabeling():
    graph = random_planar_like_graph(20, seed=1)
    result = remove_vertex(graph, 7, max_bound=1)
    assert result.to_old == sorted(result.to_old)
    assert all(result.to_new[v] == i for i, v in enumerate(result.to_old))


def test_distance_atom_zero_with_s_variable_is_false():
    # dist(x, s) <= 0 means x = s, impossible for a live variable
    graph = ColoredGraph(3, [(0, 1), (1, 2)])
    phi = parse_formula("dist(x, y) <= 0")
    rewritten, removal = remove_and_rewrite(phi, graph, 2, frozenset({Var("y")}))
    for v in range(2):
        assert not evaluate(removal.graph, rewritten, {Var("x"): v})
