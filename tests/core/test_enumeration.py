"""Unit tests for constant-delay enumeration (Corollary 2.5)."""

import json
import os
import random
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import repro
from repro.core.config import EngineConfig
from repro.core.engine import open_index
from repro.core.enumeration import enumerate_solutions, enumerate_with_delays
from repro.core.next_solution import NextSolutionIndex, increment_tuple
from repro.graphs.colored_graph import ColoredGraph
from repro.graphs.generators import grid, path, random_tree
from repro.logic.parser import parse_formula
from repro.logic.syntax import Var
from repro.workloads import by_name, indexable

x, y = Var("x"), Var("y")
TINY = EngineConfig(dist_naive_threshold=12, bag_naive_threshold=8)


def test_enumerates_in_lexicographic_order():
    g = random_tree(30, seed=4)
    index = NextSolutionIndex(g, parse_formula("dist(x, y) <= 2"), (x, y), TINY)
    sols = list(enumerate_solutions(index))
    assert sols == sorted(sols)
    assert len(sols) == len(set(sols))  # no repetitions (paper's requirement)


def test_empty_result_set():
    g = path(5, palette=())
    index = NextSolutionIndex(g, parse_formula("Purple(x) & E(x, y)"), (x, y), TINY)
    assert list(enumerate_solutions(index)) == []


def test_sentence_enumeration():
    g = path(5, palette=())
    index = NextSolutionIndex(g, parse_formula("exists x, y. E(x, y)"), ())
    assert list(enumerate_solutions(index)) == [()]


def test_full_relation():
    g = ColoredGraph(3, [(0, 1), (1, 2), (0, 2)])
    index = NextSolutionIndex(g, parse_formula("x != y"), (x, y), TINY)
    sols = list(enumerate_solutions(index))
    assert sols == [(a, b) for a in range(3) for b in range(3) if a != b]


def test_solution_at_very_last_tuple():
    g = path(4, palette=())
    g.set_color("Red", [3])
    index = NextSolutionIndex(g, parse_formula("Red(x) & Red(y)"), (x, y), TINY)
    assert list(enumerate_solutions(index)) == [(3, 3)]


def test_enumerate_with_delays_returns_both():
    g = random_tree(25, seed=1)
    index = NextSolutionIndex(g, parse_formula("E(x, y)"), (x, y), TINY)
    sols, delays = enumerate_with_delays(enumerate_solutions(index))
    assert len(sols) == len(delays) == 2 * g.num_edges
    assert all(d >= 0 for d in delays)


def test_enumeration_resumes_from_start():
    g = random_tree(30, seed=4)
    index = NextSolutionIndex(g, parse_formula("dist(x, y) <= 2"), (x, y), TINY)
    full = list(enumerate_solutions(index))
    middle = full[len(full) // 2]
    resumed = list(enumerate_solutions(index, start=middle))
    assert resumed == full[len(full) // 2:]
    # a start strictly past the last solution yields nothing
    bumped = (full[-1][0], full[-1][1] + 1)
    if bumped[1] < g.n:
        assert list(enumerate_solutions(index, start=bumped)) == []


def test_query_index_enumerate_start_matches_both_methods():
    g = random_tree(25, seed=9)
    indexed = open_index(g, "dist(x, y) <= 2", config=TINY)
    naive = open_index(g, "dist(x, y) <= 2", method="naive")
    start = (5, 0)
    assert list(indexed.enumerate(start=start)) == list(naive.enumerate(start=start))


def test_every_step_span_carries_its_op_count():
    """Pages run the same steps as ``enumerate()``, so they are metered alike."""
    from repro import metrics
    from repro.trace.runtime import tracing

    index = open_index(random_tree(40, seed=2), "dist(x, y) <= 2", config=TINY)
    with metrics.collect(ops=True), tracing("steps") as tracer:
        assert len(list(islice(index.enumerate(), 6))) == 6
        page = index.enumerate_page((7, 0), 5)
    steps = [s for s in tracer.spans if s.name == "enumerate.step"]
    assert len(page) == 5 and page.next_cursor is not None
    assert len(steps) == 6 + (5 + 1)  # a full page also computes next_cursor
    for step in steps:
        ops = step.attributes.get("ops")
        assert isinstance(ops, int) and ops >= 1, step.attributes


# ----------------------------------------------------------------------
# the stream against the Corollary 2.5 loop it replaces

#: answers compared from each seeded start (every answer from the first)
LIMIT = 200
GRAPHS = {"grid": lambda: grid(12, 12), "tree": lambda: random_tree(150)}


def _corollary_loop(index, start, limit=None):
    """Corollary 2.5 as the paper states it: one next_solution per answer."""
    out = []
    current = index.next_solution(start)
    while current is not None and (limit is None or len(out) < limit):
        out.append(current)
        bumped = increment_tuple(current, index.graph.n)
        current = None if bumped is None else index.next_solution(bumped)
    return out


def _starts(rng, n, k, count=30):
    """Seeded starts; every third has one coordinate outside ``[0, n)``."""
    starts = []
    for i in range(count):
        start = [rng.randrange(n) for _ in range(k)]
        if i % 3 == 0:
            start[rng.randrange(k)] = rng.choice([-3, -1, n, n + 2])
        starts.append(tuple(start))
    return starts


def _updates(index, rng):
    """The index, then after one delete_edge, then after one insert_edge."""
    graph = index.graph
    u, v = rng.choice(sorted(graph.edges()))
    deleted = index.delete_edge(u, v)
    while True:
        a, b = rng.randrange(graph.n), rng.randrange(graph.n)
        if a != b and not deleted.graph.has_edge(a, b):
            return [index, deleted, deleted.insert_edge(a, b)]


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("name", [w.name for w in indexable()])
def test_stream_equals_the_corollary_loop(name, graph_name):
    index = open_index(GRAPHS[graph_name](), by_name(name).text)
    assert index.method == "indexed"
    rng = random.Random(f"{name}:{graph_name}")
    for current in _updates(index, rng):
        n, k = current.graph.n, current.arity
        assert list(current.enumerate()) == _corollary_loop(current, (0,) * k)
        for start in _starts(rng, n, k):
            streamed = list(islice(current.enumerate(start), LIMIT))
            assert streamed == _corollary_loop(current, start, LIMIT), (
                current.version,
                start,
            )


#: Largest ``ops`` of an ``enumerate.step`` span over 2,000 answers of the
#: running example, per grid size; printed as JSON by a fresh interpreter.
_MAX_STEP_OPS = """
import json
from itertools import islice
from repro import metrics
from repro.core.engine import open_index
from repro.graphs.generators import grid
from repro.trace.runtime import tracing

out = {}
for side in (24, 48):
    index = open_index(grid(side, side, seed=5), "dist(x, y) > 2 & Blue(y)")
    with metrics.collect(ops=True), tracing("steps") as tracer:
        assert sum(1 for _ in islice(index.enumerate(), 2000)) == 2000
    ops = [s.attributes["ops"] for s in tracer.spans if s.name == "enumerate.step"]
    assert len(ops) == 2000
    out[side * side] = max(ops)
print(json.dumps(out))
"""


def test_step_op_count_is_flat_in_n():
    """Constant delay by count: no step costs more on the larger grid, and
    the counts do not depend on the process's string hashes."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    counts = []
    for seed in (1, 2):
        done = subprocess.run(
            [sys.executable, "-c", _MAX_STEP_OPS],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        counts.append(json.loads(done.stdout.splitlines()[-1]))
    assert counts[0] == counts[1]
    assert counts[0]["2304"] <= counts[0]["576"], counts[0]
