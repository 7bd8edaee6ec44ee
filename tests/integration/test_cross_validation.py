"""Cross-validation between independent implementations of the same facts.

Different modules compute the same quantities through different
algorithms (enumeration vs closed-form counting; distance index vs BFS vs
naive semantics; a from-scratch unary index vs one repaired through color
flips).  Agreement across them is a strong end-to-end invariant.
"""

import random

import pytest

from repro.core.config import EngineConfig
from repro.core.counting import CountingIndex
from repro.core.distance_index import DistanceIndex
from repro.core.engine import open_index
from repro.core.unary import unary_solutions
from repro.graphs.generators import random_planar_like_graph, random_tree
from repro.logic.parser import parse_formula
from repro.logic.semantics import evaluate
from repro.logic.syntax import Var

x, y = Var("x"), Var("y")
TINY = EngineConfig(dist_naive_threshold=10, bag_naive_threshold=8)


@pytest.mark.parametrize(
    "text",
    ["E(x, y)", "dist(x, y) <= 2", "dist(x, y) > 2 & Blue(y)"],
)
def test_enumerated_count_equals_closed_form(text):
    g = random_planar_like_graph(36, seed=4)
    phi = parse_formula(text)
    index = open_index(g, phi, config=TINY)
    counting = CountingIndex(index)
    assert counting.method == "closed-form"
    assert sum(1 for _ in index.enumerate()) == counting.count() == index.count()


def test_distance_index_agrees_with_query_engine():
    g = random_tree(40, seed=6)
    r = 2
    dist_index = DistanceIndex(g, r, naive_threshold=12)
    query_index = open_index(g, f"dist(x, y) <= {r}", config=TINY)
    rng = random.Random(2)
    for _ in range(200):
        a, b = rng.randrange(g.n), rng.randrange(g.n)
        assert dist_index.test(a, b) == query_index.test((a, b)), (a, b)


def test_unary_paths_agree():
    g = random_tree(35, seed=8)
    phi = parse_formula("exists y. E(x, y) & Hot(y)")
    flipped = open_index(g, phi)
    for v in (3, 7, 20):
        flipped = flipped.add_color("Hot", v)
    g = g.copy()
    g.set_color("Hot", [3, 7, 20])
    static = unary_solutions(g, phi, x)
    naive = [v for v in g.vertices() if evaluate(g, phi, {x: v})]
    assert static == [v for (v,) in flipped.enumerate()] == naive


def test_dynamic_converges_to_static_after_updates():
    g = random_tree(30, seed=10, palette=())
    phi = parse_formula("exists y. E(x, y) & Hot(y)")
    dynamic = open_index(g, phi)
    rng = random.Random(3)
    for _ in range(25):
        v = rng.randrange(g.n)
        if rng.random() < 0.6:
            dynamic = dynamic.add_color("Hot", v)
        else:
            dynamic = dynamic.remove_color("Hot", v)
    # rebuild statically on the final graph: must agree, register for register
    final = dynamic.graph
    assert [v for (v,) in dynamic.enumerate()] == unary_solutions(final, phi, x)
    assert dynamic.registers() == open_index(final, phi).registers()
