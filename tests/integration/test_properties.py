"""Property-based integration tests (hypothesis).

Random sparse graphs + queries from the supported fragment: the engine
must agree with brute force on enumeration, testing and next-solution —
the Theorem 2.3 contract, fuzzed.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive import NaiveIndex
from repro.core.config import EngineConfig
from repro.core.engine import open_index
from repro.graphs.colored_graph import ColoredGraph
from repro.logic.parser import parse_formula

TINY = EngineConfig(dist_naive_threshold=10, bag_naive_threshold=8)

QUERY_POOL = [
    "E(x, y)",
    "dist(x, y) <= 2",
    "dist(x, y) > 1 & Blue(y)",
    "exists z. E(x, z) & E(z, y)",
    "Red(x) & ~E(x, y)",
    "x = y | dist(x, y) > 2",
    "forall z. (E(x, z) -> dist(z, y) <= 2)",
]


@st.composite
def sparse_colored_graph(draw):
    """A random graph of bounded degeneracy with random colors."""
    n = draw(st.integers(2, 36))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    g = ColoredGraph(n)
    # random forest backbone + a few short chords: bounded expansion
    for v in range(1, n):
        if rng.random() < 0.9:
            g.add_edge(rng.randrange(v), v)
    for _ in range(n // 4):
        u = rng.randrange(n)
        candidates = [w for w in g.neighbors(u) for w2 in [w]]
        if candidates:
            w = rng.choice(candidates)
            far = [t for t in g.neighbors(w) if t != u]
            if far and not g.has_edge(u, far[0]):
                g.add_edge(u, far[0])
    for name in ("Red", "Blue"):
        g.set_color(name, [v for v in range(n) if rng.random() < 0.35])
    return g


@given(sparse_colored_graph(), st.sampled_from(QUERY_POOL), st.integers(0, 999))
@settings(max_examples=40, deadline=None)
def test_engine_matches_naive_on_random_graphs(g, text, probe_seed):
    phi = parse_formula(text)
    index = open_index(g, phi, config=TINY)
    naive = NaiveIndex(g, phi, index.free_order)
    assert list(index.enumerate()) == naive.solutions
    rng = random.Random(probe_seed)
    for _ in range(10):
        t = tuple(rng.randrange(g.n) for _ in range(index.arity))
        assert index.test(t) == naive.test(t)
        assert index.next_solution(t) == naive.next_solution(t)


@given(sparse_colored_graph())
@settings(max_examples=30, deadline=None)
def test_enumeration_is_strictly_increasing_and_complete(g):
    index = open_index(g, "dist(x, y) <= 2", config=TINY)
    previous = None
    count = 0
    for solution in index.enumerate():
        if previous is not None:
            assert solution > previous
        previous = solution
        count += 1
    assert count == index.count()
