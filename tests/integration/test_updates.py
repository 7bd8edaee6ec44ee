"""Differential fuzzing of live updates (hypothesis).

Random sparse graphs, random queries, random sequences interleaving edge
inserts/deletes with Red/Blue color flips: after every sequence the
ball-locally repaired index must answer ``test`` / ``next_solution`` /
``enumerate_page`` / ``count`` exactly like a from-scratch build on the
final graph (and ``count`` like the naive baseline) — and, stronger, its
Storing-Theorem registers must be *identical* to the rebuild's
(``QueryIndex.registers()``), so the repair is indistinguishable from
re-running the whole Theorem 2.3 preprocessing.
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

#: binary and unary queries: the k >= 2 tower repair (cover / kernels /
#: skip pointers / prefix) and the k = 1 overlay repair are distinct paths
QUERY_POOL = [
    "E(x, y)",
    "dist(x, y) <= 2",
    "dist(x, y) > 1 & Blue(y)",
    "exists z. E(x, z) & E(z, y)",
    "Red(x) & ~E(x, y)",
    "x = y | dist(x, y) > 2",
    "exists y. E(x, y) & Blue(y)",
    "Red(x) & ~Blue(x)",
]


@st.composite
def sparse_colored_graph(draw):
    """A random graph of bounded degeneracy with random colors."""
    n = draw(st.integers(2, 36))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    g = ColoredGraph(n)
    for v in range(1, n):
        if rng.random() < 0.9:
            g.add_edge(rng.randrange(v), v)
    for _ in range(n // 4):
        u = rng.randrange(n)
        candidates = list(g.neighbors(u))
        if candidates:
            w = rng.choice(candidates)
            far = [t for t in g.neighbors(w) if t != u]
            if far and not g.has_edge(u, far[0]):
                g.add_edge(u, far[0])
    for name in ("Red", "Blue"):
        g.set_color(name, [v for v in range(n) if rng.random() < 0.35])
    return g


#: what an update step toggles: the edge ``{u, v}``, or a color at ``u``
OPS = ("edge", "Red", "Blue")


def _apply(index, steps):
    """Toggle each step against the index's *current* graph: an edge
    (loops skipped) or a color flip at ``u``."""
    for op, u, v in steps:
        u, v = u % index.graph.n, v % index.graph.n
        if op != "edge":
            flip = index.remove_color if index.graph.has_color(u, op) else index.add_color
            index = flip(op, u)
        elif u == v:
            continue
        elif index.graph.has_edge(u, v):
            index = index.delete_edge(u, v)
        else:
            index = index.insert_edge(u, v)
    return index


@given(
    sparse_colored_graph(),
    st.sampled_from(QUERY_POOL),
    st.lists(
        st.tuples(
            st.sampled_from(OPS), st.integers(0, 35), st.integers(0, 35)
        ),
        min_size=1, max_size=6,
    ),
    st.integers(0, 999),
)
@settings(max_examples=30, deadline=None)
def test_repaired_index_matches_rebuild(g, text, steps, probe_seed):
    phi = parse_formula(text)
    index = open_index(g, phi, config=TINY)
    updated = _apply(index, steps)
    rebuilt = open_index(updated.graph, phi, config=TINY)

    assert updated.registers() == rebuilt.registers()
    assert list(updated.enumerate()) == list(rebuilt.enumerate())
    naive = NaiveIndex(updated.graph, phi, updated.free_order)
    assert updated.count() == rebuilt.count() == len(naive)
    rng = random.Random(probe_seed)
    for _ in range(10):
        t = tuple(rng.randrange(g.n) for _ in range(updated.arity))
        assert updated.test(t) == rebuilt.test(t)
        assert updated.next_solution(t) == rebuilt.next_solution(t)
    page = updated.enumerate_page(limit=5)
    assert page.items == rebuilt.enumerate_page(limit=5).items


@given(sparse_colored_graph(), st.sampled_from(QUERY_POOL))
@settings(max_examples=20, deadline=None)
def test_updates_are_persistent_and_versioned(g, text):
    """Old generations never change; versions count updates monotonically."""
    index = open_index(g, text, config=TINY)
    before = list(index.enumerate())
    reds_before = g.color("Red")
    fingerprint = index.fingerprint
    assert index.version == 0 and fingerprint[1] == 0

    u = 0
    v = g.n - 1 if g.n > 1 else 0
    if u == v:
        return
    op = index.delete_edge if g.has_edge(u, v) else index.insert_edge
    updated = op(u, v)

    assert updated.version == 1
    # versioned identity: same static component, bumped version
    assert updated.fingerprint == (fingerprint[0], 1)
    # the old generation is copy-on-write, not patched in place
    assert list(index.enumerate()) == before
    assert index.version == 0
    assert index.graph.num_edges != updated.graph.num_edges

    # a color flip is a generation of its own, equally copy-on-write
    reds = updated.graph.color("Red")
    middle = list(updated.enumerate())
    flipped = (
        updated.remove_color("Red", u) if u in reds else updated.add_color("Red", u)
    )
    assert flipped.version == 2 and flipped.fingerprint == (fingerprint[0], 2)
    assert updated.graph.color("Red") == reds
    assert flipped.graph.color("Red") == reds ^ {u}
    assert list(updated.enumerate()) == middle
    assert list(index.enumerate()) == before
    assert index.graph.color("Red") == reds_before
