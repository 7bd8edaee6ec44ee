"""Color flips through the versioned index (``QueryIndex.add_color`` /
``remove_color``): every version answers like brute force on its graph."""

import random

import pytest

from repro.baselines.naive import NaiveIndex
from repro.core.engine import open_index
from repro.graphs.generators import grid, path, random_tree
from repro.logic.parser import parse_formula
from repro.logic.semantics import evaluate
from repro.logic.syntax import Var

x = Var("x")

QUERIES = [
    "Hot(x)",
    "exists y. E(x, y) & Hot(y)",
    "exists y. dist(x, y) <= 2 & Hot(y) & ~Cold(y)",
    "Hot(x) | (exists y. E(x, y) & Cold(y))",
]


def brute(graph, phi):
    return [v for v in graph.vertices() if evaluate(graph, phi, {x: v})]


def solutions(index):
    return [v for (v,) in index.enumerate()]


def test_docstring_example():
    g = path(8, palette=())
    index = open_index(g, "exists y. E(x, y) & Hot(y)")
    assert solutions(index) == []
    hot = index.add_color("Hot", 4)
    assert solutions(hot) == [3, 5]
    cold = hot.remove_color("Hot", 4)
    assert solutions(cold) == []
    # persistent: every generation keeps its own answers and graph
    assert solutions(index) == [] and solutions(hot) == [3, 5]
    assert g.color("Hot") == frozenset() and hot.graph.color("Hot") == {4}
    assert (index.version, hot.version, cold.version) == (0, 1, 2)


@pytest.mark.parametrize("text", QUERIES)
def test_random_update_sequences_match_brute_force(text):
    rng = random.Random(text)
    g = random_tree(40, seed=6, palette=())
    phi = parse_formula(text)
    index = open_index(g, phi, free_order=(x,))
    generations = [(index, brute(g, phi))]
    for _ in range(60):
        color = rng.choice(["Hot", "Cold"])
        v = rng.randrange(g.n)
        if rng.random() < 0.5:
            index = index.add_color(color, v)
        else:
            index = index.remove_color(color, v)
        expected = brute(index.graph, phi)
        assert solutions(index) == expected, text
        assert index.count() == len(expected), text
        generations.append((index, expected))
    # no later flip disturbed an earlier generation
    for old, expected in generations:
        assert solutions(old) == expected, text


def test_queries_after_updates():
    g = grid(5, 5, palette=())
    index = open_index(g, "exists y. E(x, y) & Hot(y)").add_color("Hot", 12)
    assert all(index.test((v,)) for v in (7, 11, 13, 17))
    assert not index.test((12,))  # the center itself has no hot *neighbor*
    assert index.next_solution((0,)) == (7,)
    assert index.next_solution((14,)) == (17,)
    assert index.count() == 4


@pytest.mark.parametrize("text", ["Cold(x) & exists y. Hot(y)", "exists y. Hot(y)"])
def test_unguarded_query_escalates(text):
    # no certified locality radius: the unary level is re-solved and the
    # sentence re-model-checked, not patched around the flipped vertex
    g = path(5, palette=())
    index = open_index(g, text).add_color("Cold", 1).add_color("Cold", 3)
    assert index.method == "indexed"
    for step, v in enumerate([4, 2, 4, 0]):
        flip = index.remove_color if index.graph.has_color(v, "Hot") else index.add_color
        index = flip("Hot", v)
        naive = NaiveIndex(index.graph, index.phi, index.free_order)
        assert list(index.enumerate()) == naive.solutions, step


def test_idempotent_updates():
    g = path(6, palette=())
    index = open_index(g, "Hot(x)")
    once = index.add_color("Hot", 2)
    assert once.add_color("Hot", 2) is once
    assert solutions(once) == [2] and once.version == 1
    gone = once.remove_color("Hot", 2)
    assert gone.remove_color("Hot", 2) is gone
    assert solutions(gone) == [] and gone.version == 2
    assert index.remove_color("Hot", 2) is index
