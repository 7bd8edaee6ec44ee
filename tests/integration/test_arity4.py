"""Arity-4 smoke tests: the nested induction three levels deep.

Kept tiny — the naive oracle is O(n^4) — but exercising both the
all-guarded path (exact delay end to end) and a far component (prefix
scan at some level).
"""

import random

from repro.baselines.naive import NaiveIndex
from repro.core.config import EngineConfig
from repro.core.engine import open_index
from repro.graphs.generators import random_planar_like_graph
from repro.logic.parser import parse_formula

TINY = EngineConfig(dist_naive_threshold=8, bag_naive_threshold=8)


def test_guarded_path_query():
    g = random_planar_like_graph(14, seed=8)
    phi = parse_formula("E(w, x) & E(x, y) & E(y, z)")
    index = open_index(g, phi, free_order=("w", "x", "y", "z"), config=TINY)
    assert index.method == "indexed"
    naive = NaiveIndex(g, phi, index.free_order)
    assert list(index.enumerate()) == naive.solutions
    rng = random.Random(0)
    for _ in range(25):
        t = tuple(rng.randrange(g.n) for _ in range(4))
        assert index.test(t) == naive.test(t)
        assert index.next_solution(t) == naive.next_solution(t)


def test_mixed_far_query():
    g = random_planar_like_graph(12, seed=3)
    phi = parse_formula("E(w, x) & E(y, z) & dist(x, y) > 2")
    index = open_index(g, phi, free_order=("w", "x", "y", "z"), config=TINY)
    assert index.method == "indexed"
    naive = NaiveIndex(g, phi, index.free_order)
    assert list(index.enumerate()) == naive.solutions
    rng = random.Random(1)
    for _ in range(20):
        t = tuple(rng.randrange(g.n) for _ in range(4))
        assert index.test(t) == naive.test(t)
