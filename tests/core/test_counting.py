"""Unit tests for the counting view ([18]'s claim, reproduced for k <= 2)."""

import pytest

from repro.baselines.naive import NaiveIndex
from repro.core.config import EngineConfig
from repro.core.counting import CountingIndex
from repro.core.engine import open_index
from repro.graphs.colored_graph import ColoredGraph
from repro.graphs.generators import grid, random_planar_like_graph, random_tree
from repro.logic.parser import parse_formula
from repro.logic.syntax import Var

x, y, z = Var("x"), Var("y"), Var("z")
TINY = EngineConfig(dist_naive_threshold=10, bag_naive_threshold=8)

BINARY_QUERIES = [
    "E(x, y)",
    "dist(x, y) <= 2",
    "dist(x, y) > 2 & Blue(y)",
    "Red(x) & Blue(y) & dist(x, y) > 1",
    "exists z. E(x, z) & E(z, y)",
    "x = y | E(x, y)",
]


@pytest.mark.parametrize("text", BINARY_QUERIES)
def test_binary_count_matches_naive(text):
    for maker in (lambda: random_tree(40, seed=5), lambda: grid(6, 6, seed=5)):
        g = maker()
        phi = parse_formula(text)
        counting = CountingIndex(open_index(g, phi, free_order=(x, y), config=TINY))
        assert counting.method == "closed-form"
        assert counting.count() == len(NaiveIndex(g, phi, (x, y)))


def test_per_prefix_counts():
    g = random_planar_like_graph(40, seed=7)
    phi = parse_formula("dist(x, y) > 2 & Blue(y)")
    counting = CountingIndex(open_index(g, phi, free_order=(x, y), config=TINY))
    naive = NaiveIndex(g, phi, (x, y))
    for a in g.vertices():
        expected = sum(1 for t in naive.solutions if t[0] == a)
        assert counting.count_suffixes(a) == expected, a
    # total like QueryIndex.test: outside [0, n) there are no suffixes
    for a in (-1, g.n, g.n + 5):
        assert counting.count_suffixes(a) == 0, a


def test_unary_count():
    g = random_tree(30, seed=1)
    count = open_index(g, parse_formula("Red(x)"), free_order=(x,)).count()
    assert count == len(g.color("Red"))


def test_sentence_count():
    g = random_tree(10, seed=1)
    assert open_index(g, parse_formula("exists x, y. E(x, y)")).count() == 1
    assert open_index(g, parse_formula("forall x, y. E(x, y)")).count() == 0


def test_arity3_falls_back_to_enumeration():
    g = random_planar_like_graph(24, seed=2)
    phi = parse_formula("E(x, y) & E(y, z)")
    counting = CountingIndex(open_index(g, phi, free_order=(x, y, z), config=TINY))
    assert counting.method == "enumerate"
    assert counting.count() == len(NaiveIndex(g, phi, (x, y, z)))


def test_count_suffixes_rejects_non_binary():
    g = random_tree(10, seed=1)
    counting = CountingIndex(open_index(g, "Red(x)", config=TINY))
    with pytest.raises(ValueError):
        counting.count_suffixes(0)


def test_empty_result():
    g = ColoredGraph(6, [(0, 1)])
    index = open_index(
        g, parse_formula("Purple(x) & E(x, y)"), free_order=(x, y), config=TINY
    )
    assert index.count() == 0


def test_naive_fallback_counts_its_stored_solutions():
    g = random_tree(12, seed=3)
    phi = parse_formula("E(x, y) & Red(y)")
    counting = CountingIndex(open_index(g, phi, free_order=(x, y), method="naive"))
    naive = NaiveIndex(g, phi, (x, y))
    assert counting.method == "stored"
    assert counting.count() == len(naive)
    for a in range(-1, g.n + 1):
        assert counting.count_suffixes(a) == sum(
            1 for t in naive.solutions if t[0] == a
        ), a
