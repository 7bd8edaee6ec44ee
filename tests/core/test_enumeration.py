"""Unit tests for constant-delay enumeration (Corollary 2.5)."""

from repro.core.config import EngineConfig
from repro.core.enumeration import enumerate_solutions, enumerate_with_delays
from repro.core.next_solution import NextSolutionIndex
from repro.graphs.colored_graph import ColoredGraph
from repro.graphs.generators import path, random_tree
from repro.logic.parser import parse_formula
from repro.logic.syntax import Var

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
    from repro.core.engine import build_index

    g = random_tree(25, seed=9)
    indexed = build_index(g, "dist(x, y) <= 2", config=TINY)
    naive = build_index(g, "dist(x, y) <= 2", method="naive")
    start = (5, 0)
    assert list(indexed.enumerate(start=start)) == list(naive.enumerate(start=start))
