"""Unit tests for the Lemma 5.2 index, against brute force."""

import random

import pytest

from repro.core.config import EngineConfig
from repro.core.last_coordinate import LastCoordinateIndex
from repro.graphs.generators import grid, random_planar_like_graph, random_tree
from repro.logic.parser import parse_formula
from repro.logic.semantics import evaluate
from repro.logic.syntax import Var
from repro.logic.transform import free_variables

#: A config with tiny thresholds so the splitter machinery is exercised
TINY = EngineConfig(dist_naive_threshold=12, bag_naive_threshold=8)


def brute_first_last(graph, phi, order, prefix, lower):
    assignment = dict(zip(order[:-1], prefix))
    for b in range(lower, graph.n):
        assignment[order[-1]] = b
        if evaluate(graph, phi, assignment):
            return b
    return None


QUERIES_2 = [
    "E(x, y)",
    "dist(x, y) <= 2",
    "dist(x, y) > 2 & Blue(y)",
    "exists z. E(x, z) & E(z, y)",
    "Red(x) & Blue(y) & dist(x, y) > 1",
]


@pytest.mark.parametrize("text", QUERIES_2)
def test_first_last_matches_brute_force(text):
    g = random_planar_like_graph(45, seed=4)
    phi = parse_formula(text)
    order = tuple(sorted(free_variables(phi), key=lambda v: v.name))
    index = LastCoordinateIndex(g, phi, order, config=TINY)
    rng = random.Random(11)
    for _ in range(100):
        prefix = (rng.randrange(g.n),)
        lower = rng.randrange(g.n + 2) - 1
        expected = brute_first_last(g, phi, order, prefix, max(lower, 0))
        assert index.first_last(prefix, lower) == expected, (text, prefix, lower)


def brute_last_coordinates(graph, phi, order, prefix, lower):
    assignment = dict(zip(order[:-1], prefix))
    out = []
    for b in range(lower, graph.n):
        assignment[order[-1]] = b
        if evaluate(graph, phi, assignment):
            out.append(b)
    return out


@pytest.mark.parametrize(
    "text",
    QUERIES_2
    + [
        "E(x, y) & E(y, z)",
        "E(x, y) & dist(x, z) > 2 & Blue(z)",
        "(Red(x) & E(x, y)) | (Blue(x) & dist(x, y) > 1)",
    ],
)
def test_last_coordinates_matches_brute_force(text):
    """The stream is every solution's last coordinate from the bound on,
    ascending and without repeats, whatever the sources overlap in."""
    g = random_planar_like_graph(40, seed=6)
    phi = parse_formula(text)
    order = tuple(sorted(free_variables(phi), key=lambda v: v.name))
    index = LastCoordinateIndex(g, phi, order, config=TINY)
    rng = random.Random(12)
    for _ in range(60):
        prefix = tuple(rng.randrange(g.n) for _ in order[:-1])
        lower = rng.randrange(g.n + 2) - 1
        expected = brute_last_coordinates(g, phi, order, prefix, max(lower, 0))
        got = list(index.last_coordinates(prefix, lower))
        assert got == expected, (text, prefix, lower)
        assert index.first_last(prefix, lower) == (got[0] if got else None)


def test_arity_2_builds_no_distance_index():
    g = grid(6, 6)
    binary = LastCoordinateIndex(g, parse_formula("E(x, y)"), (Var("x"), Var("y")))
    ternary = LastCoordinateIndex(
        g, parse_formula("E(x, y) & E(y, z)"), (Var("x"), Var("y"), Var("z"))
    )
    assert binary.dist is None and set(binary.live_plan) == {0}
    assert ternary.dist is not None


def test_test_is_exact():
    g = random_tree(40, seed=2)
    phi = parse_formula("dist(x, y) > 2 & Blue(y)")
    order = (Var("x"), Var("y"))
    index = LastCoordinateIndex(g, phi, order, config=TINY)
    rng = random.Random(3)
    for _ in range(150):
        t = (rng.randrange(g.n), rng.randrange(g.n))
        assert index.test(t) == evaluate(g, phi, dict(zip(order, t)))


def test_arity_3_far_query():
    g = random_planar_like_graph(30, seed=1)
    phi = parse_formula("dist(x, y) > 2 & dist(x, z) > 2 & dist(y, z) > 2 & Blue(z)")
    order = (Var("x"), Var("y"), Var("z"))
    index = LastCoordinateIndex(g, phi, order, config=TINY)
    rng = random.Random(5)
    for _ in range(60):
        prefix = (rng.randrange(g.n), rng.randrange(g.n))
        lower = rng.randrange(g.n)
        expected = brute_first_last(g, phi, order, prefix, lower)
        assert index.first_last(prefix, lower) == expected, (prefix, lower)


def test_arity_3_mixed_query():
    g = grid(6, 6)
    phi = parse_formula("E(x, y) & dist(x, z) > 2 & Blue(z)")
    order = (Var("x"), Var("y"), Var("z"))
    index = LastCoordinateIndex(g, phi, order, config=TINY)
    rng = random.Random(6)
    for _ in range(60):
        prefix = (rng.randrange(g.n), rng.randrange(g.n))
        lower = rng.randrange(g.n)
        expected = brute_first_last(g, phi, order, prefix, lower)
        assert index.first_last(prefix, lower) == expected, (prefix, lower)


def test_lower_beyond_domain_returns_none():
    g = random_tree(20, seed=1)
    phi = parse_formula("E(x, y)")
    index = LastCoordinateIndex(g, phi, (Var("x"), Var("y")), config=TINY)
    assert index.first_last((0,), g.n) is None


def test_wrong_prefix_arity_rejected():
    g = random_tree(20, seed=1)
    index = LastCoordinateIndex(
        g, parse_formula("E(x, y)"), (Var("x"), Var("y")), config=TINY
    )
    with pytest.raises(ValueError):
        index.first_last((0, 1), 0)
    with pytest.raises(ValueError):
        index.test((0,))


def test_arity_below_two_rejected():
    g = random_tree(10, seed=0)
    with pytest.raises(ValueError):
        LastCoordinateIndex(g, parse_formula("Red(x)"), (Var("x"),))
