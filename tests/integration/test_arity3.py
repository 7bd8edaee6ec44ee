"""Integration tests for arity-3 queries (nested induction, Case I/II)."""

import random

import pytest

from repro.baselines.naive import NaiveIndex
from repro.core.config import EngineConfig
from repro.core.engine import open_index
from repro.graphs.generators import random_planar_like_graph
from repro.logic.parser import parse_formula

TINY = EngineConfig(dist_naive_threshold=10, bag_naive_threshold=8)

QUERIES_ARITY3 = [
    # guarded chains: projection stays decomposable, full constant delay
    ("E(x, y) & E(y, z)", True),
    ("dist(x, y) <= 1 & dist(y, z) <= 1 & Red(z)", True),
    # far components: exact answers, prefix-scan fallback for the delay
    ("E(x, y) & dist(x, z) > 2 & Blue(z)", False),
    ("dist(x, y) > 2 & dist(y, z) > 2 & dist(x, z) > 2 & Red(x) & Blue(y) & Green(z)", False),
]


@pytest.mark.parametrize("text,exact", QUERIES_ARITY3, ids=[q for q, _ in QUERIES_ARITY3])
def test_arity3_indexed_equals_naive(text, exact):
    g = random_planar_like_graph(32, seed=9)
    phi = parse_formula(text)
    index = open_index(g, phi, config=TINY)
    assert index.method == "indexed"
    assert index.exact_delay == exact
    naive = NaiveIndex(g, phi, index.free_order)
    assert list(index.enumerate()) == naive.solutions
    rng = random.Random(1)
    for _ in range(40):
        t = tuple(rng.randrange(g.n) for _ in range(3))
        assert index.test(t) == naive.test(t), t
        assert index.next_solution(t) == naive.next_solution(t), t


def test_repeated_values_in_tuples():
    g = random_planar_like_graph(24, seed=3)
    index = open_index(g, "dist(x, y) <= 1 & dist(y, z) <= 1", config=TINY)
    naive = NaiveIndex(
        g, parse_formula("dist(x, y) <= 1 & dist(y, z) <= 1"), index.free_order
    )
    got = list(index.enumerate())
    assert got == naive.solutions
    assert any(t[0] == t[1] == t[2] for t in got)  # diagonal tuples included
