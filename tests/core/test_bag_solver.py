"""Unit tests for the per-bag solver (Steps 8-11 machinery).

The splitter-removal mode must agree exactly with the naive mode on
every query, prefix, and lower bound — that equivalence *is* the content
of Steps 9-11.
"""

import random
from bisect import bisect_left

import pytest

from repro.core.bag_solver import BagSolver
from repro.graphs.generators import grid, random_planar_like_graph
from repro.logic.parser import parse_formula
from repro.logic.syntax import Var
from repro.logic.transform import free_variables

x, y, z = Var("x"), Var("y"), Var("z")

QUERIES = [
    "E(x, y)",
    "dist(x, y) <= 2",
    "dist(x, y) > 2 & Blue(y)",
    "exists z. E(x, z) & E(z, y)",
    "Red(x) & x != y",
]


@pytest.fixture(params=[0, 1])
def bag_graph(request):
    return random_planar_like_graph(36, seed=request.param)


def test_modes(bag_graph):
    naive = BagSolver(bag_graph, max_bound=2, naive_threshold=100)
    recursive = BagSolver(bag_graph, max_bound=2, naive_threshold=6)
    assert naive.mode == "naive"
    assert recursive.mode == "splitter"
    assert recursive.removal_depth >= 1


@pytest.mark.parametrize("text", QUERIES)
def test_recursive_equals_naive_test(bag_graph, text):
    phi = parse_formula(text)
    order = tuple(sorted(free_variables(phi), key=lambda v: v.name))
    naive = BagSolver(bag_graph, max_bound=3, naive_threshold=100)
    recursive = BagSolver(bag_graph, max_bound=3, naive_threshold=6)
    rng = random.Random(42)
    for _ in range(120):
        values = tuple(rng.randrange(bag_graph.n) for _ in order)
        assert recursive.test(phi, order, values) == naive.test(phi, order, values), values


@pytest.mark.parametrize("text", QUERIES)
def test_recursive_equals_naive_first_at_least(bag_graph, text):
    """Equal columns, so every smallest ``b >= lower`` agrees as well; the
    Lemma 5.2 index takes that from the column's bisect point on."""
    phi = parse_formula(text)
    order = tuple(sorted(free_variables(phi), key=lambda v: v.name))
    prefix_order, last = order[:-1], order[-1]
    naive = BagSolver(bag_graph, max_bound=3, naive_threshold=100)
    recursive = BagSolver(bag_graph, max_bound=3, naive_threshold=6)
    rng = random.Random(7)
    for _ in range(80):
        prefix = tuple(rng.randrange(bag_graph.n) for _ in prefix_order)
        lower = rng.randrange(bag_graph.n)
        column = recursive.column(phi, prefix_order, prefix, last)
        assert column == naive.column(phi, prefix_order, prefix, last), prefix
        assert column[bisect_left(column, lower):] == [b for b in column if b >= lower]


def test_column_equals_brute_force(bag_graph):
    phi = parse_formula("dist(x, y) <= 2")
    solver = BagSolver(bag_graph, max_bound=2, naive_threshold=6)
    from repro.logic.semantics import evaluate

    for a in range(0, bag_graph.n, 5):
        column = solver.column(phi, (x,), (a,), y)
        brute = [
            b
            for b in bag_graph.vertices()
            if evaluate(bag_graph, phi, {x: a, y: b})
        ]
        assert column == brute


def test_edgeless_graph_is_naive():
    from repro.graphs.colored_graph import ColoredGraph

    solver = BagSolver(ColoredGraph(30), max_bound=1, naive_threshold=5)
    assert solver.mode == "naive"


def test_depth_cap_forces_naive():
    g = grid(8, 8)
    solver = BagSolver(g, max_bound=2, naive_threshold=4, max_depth=2)
    assert solver.removal_depth <= 2
