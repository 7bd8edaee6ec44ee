"""Integration: the full pipeline vs the naive baseline.

This is the repository's main correctness battery: for each sparse
family and each query in the supported fragment, the indexed engine's
*test*, *next-solution* and *enumeration* answers must coincide exactly
with brute force — including with deliberately tiny thresholds so the
splitter/removal recursion (not just the naive cutoffs) is exercised.
"""

import random

import pytest

from repro.baselines.naive import NaiveIndex
from repro.core.config import EngineConfig
from repro.core.engine import open_index
from repro.graphs.generators import grid, random_planar_like_graph, random_tree
from repro.logic.parser import parse_formula

QUERIES_ARITY2 = [
    "E(x, y)",
    "exists z. E(x, z) & E(z, y)",
    "dist(x, y) <= 2",
    "dist(x, y) > 2 & Blue(y)",
    "Red(x) & Blue(y) & dist(x, y) > 1",
    "exists z. (dist(z, x) <= 1 & Blue(z)) & dist(x, y) > 2",
    "forall z. (E(x, z) -> dist(z, y) <= 2)",
    "~E(x, y) & dist(x, y) <= 2",
    "(Red(x) & E(x, y)) | (Blue(x) & dist(x, y) > 1)",
    "x = y | E(x, y)",
]

TINY = EngineConfig(dist_naive_threshold=10, bag_naive_threshold=8, dist_max_depth=2)


@pytest.fixture(params=["tree", "grid", "planar"])
def graph(request):
    if request.param == "tree":
        return random_tree(48, seed=21)
    if request.param == "grid":
        return grid(7, 7, seed=21)
    return random_planar_like_graph(48, seed=21)


@pytest.mark.parametrize("text", QUERIES_ARITY2)
def test_indexed_equals_naive(graph, text):
    phi = parse_formula(text)
    index = open_index(graph, phi, config=TINY)
    assert index.method == "indexed", text
    naive = NaiveIndex(graph, phi, index.free_order)
    assert list(index.enumerate()) == naive.solutions
    rng = random.Random(text)
    for _ in range(50):
        t = tuple(rng.randrange(graph.n) for _ in range(index.arity))
        assert index.test(t) == naive.test(t), t
        assert index.next_solution(t) == naive.next_solution(t), t


def test_relational_database_pipeline():
    """Database -> A'(D) -> rewritten query -> index (Lemma 2.2 end to end)."""
    from repro.db.adjacency import adjacency_graph
    from repro.db.database import Database, Schema
    from repro.db.rewrite import RelationAtom, evaluate_db, rewrite_query
    from repro.logic.syntax import Var

    rng = random.Random(5)
    db = Database(Schema({"Friend": 2}), domain_size=8)
    for _ in range(10):
        db.add("Friend", (rng.randrange(8), rng.randrange(8)))
    enc = adjacency_graph(db)
    x, y = Var("x"), Var("y")
    psi = rewrite_query(RelationAtom("Friend", (x, y)))
    index = open_index(enc.graph, psi, free_order=(x, y))
    answers = {t for t in index.enumerate()}
    expected = set(db.relation("Friend"))
    assert answers == expected
    for a in range(8):
        for b in range(8):
            assert index.test((a, b)) == ((a, b) in expected)


def test_disconnected_graph():
    from repro.graphs.colored_graph import ColoredGraph

    g = ColoredGraph(20)
    for i in range(0, 18, 2):
        g.add_edge(i, i + 1)
    g.set_color("Blue", range(0, 20, 3))
    index = open_index(g, "dist(x, y) > 2 & Blue(y)", config=TINY)
    naive = NaiveIndex(g, parse_formula("dist(x, y) > 2 & Blue(y)"), index.free_order)
    assert list(index.enumerate()) == naive.solutions


def test_single_vertex_graph():
    from repro.graphs.colored_graph import ColoredGraph

    g = ColoredGraph(1, colors={"Red": [0]})
    index = open_index(g, "Red(x) & Red(y)")
    assert list(index.enumerate()) == [(0, 0)]
