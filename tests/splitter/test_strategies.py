"""Unit tests for Splitter strategies."""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.colored_graph import ColoredGraph
from repro.graphs.generators import FAMILIES, grid, path, random_tree
from repro.splitter.game import play_game
from repro.splitter.strategies import (
    CentroidStrategy,
    GreedySeparatorStrategy,
    TopmostStrategy,
    _is_forest,
    _removal_scores,
    default_strategy,
    forest_depths,
)


def test_is_forest_detection():
    assert _is_forest(path(10, palette=()))
    assert _is_forest(random_tree(30, seed=2, palette=()))
    assert _is_forest(ColoredGraph(4))
    cyclic = ColoredGraph(3, [(0, 1), (1, 2), (2, 0)])
    assert not _is_forest(cyclic)


def test_forest_depths_root_at_smallest():
    g = path(5, palette=())
    depths = forest_depths(g)
    assert depths == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}


def test_default_strategy_picks_topmost_on_forests():
    assert isinstance(default_strategy(random_tree(20, seed=1, palette=())), TopmostStrategy)
    assert isinstance(default_strategy(grid(4, 4, palette=())), CentroidStrategy)


def test_topmost_chooses_shallowest():
    g = path(7, palette=())
    strategy = TopmostStrategy(forest_depths(g))
    assert strategy.choose(g, range(7), [3, 4, 5], 4, 1) == 3


def test_greedy_picks_hub():
    g = ColoredGraph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    strategy = GreedySeparatorStrategy()
    assert strategy.choose(g, range(5), [0, 1, 2, 3], 0, 1) == 0


def test_centroid_splits_path_in_middle():
    g = path(9, palette=())
    strategy = CentroidStrategy()
    ball = list(range(9))
    assert strategy.choose(g, ball, ball, 4, 4) == 4


def test_centroid_falls_back_above_limit():
    g = path(40, palette=())
    strategy = CentroidStrategy(exact_limit=10)
    ball = list(range(40))
    choice = strategy.choose(g, ball, ball, 20, 40)
    assert choice in ball


def test_topmost_beats_greedy_on_deep_trees():
    g = random_tree(300, seed=4, palette=())
    topmost = play_game(g, 2, TopmostStrategy(forest_depths(g)))
    greedy = play_game(g, 2, GreedySeparatorStrategy())
    assert topmost <= greedy + 3  # topmost is designed for trees


# ----------------------------------------------------------------------
# the linear-time centroid against the quadratic definition


def _largest_component(graph: ColoredGraph, members: set[int]) -> int:
    """Oracle: the largest component of ``graph[members]``, by BFS."""
    seen: set[int] = set()
    largest = 0
    for start in members:
        if start in seen:
            continue
        size = 0
        queue = deque([start])
        seen.add(start)
        while queue:
            u = queue.popleft()
            size += 1
            for w in graph.neighbors(u):
                if w in members and w not in seen:
                    seen.add(w)
                    queue.append(w)
        largest = max(largest, size)
    return largest


@st.composite
def member_sets(draw):
    """A graph from any generator family and a vertex subset of it: often
    disconnected, sometimes a singleton, usually with neighbours outside."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    n = draw(st.integers(3, 70))
    graph = FAMILIES[family](n, seed=draw(st.integers(0, 50)))
    vertices = list(graph.vertices())
    kind = draw(st.sampled_from(["random", "ball", "singleton", "all"]))
    if kind == "singleton":
        members = {draw(st.sampled_from(vertices))}
    elif kind == "all":
        members = set(vertices)
    elif kind == "ball":
        center = draw(st.sampled_from(vertices))
        radius = draw(st.integers(0, 4))
        members = {center}
        frontier = {center}
        for _ in range(radius):
            frontier = {w for v in frontier for w in graph.neighbors(v)} - members
            members |= frontier
    else:
        members = set(draw(st.lists(st.sampled_from(vertices), min_size=1, max_size=n)))
    return graph, members


@given(member_sets())
@settings(max_examples=200, deadline=None)
def test_removal_scores_match_brute_force(case):
    graph, members = case
    scores = _removal_scores(graph, members)
    assert set(scores) == members
    for s in members:
        assert scores[s] == _largest_component(graph, members - {s}), s


@given(member_sets())
@settings(max_examples=100, deadline=None)
def test_centroid_choice_matches_the_sorted_scan(case):
    """The exact choice is the sorted O(|ball|^2) scan's: the first vertex
    with the smallest score."""
    graph, members = case
    expected = min(sorted(members), key=lambda s: _largest_component(graph, members - {s}))
    ball = sorted(members)
    assert CentroidStrategy().choose(graph, ball, ball, ball[0], 1) == expected


def test_centroid_splits_disconnected_arenas():
    # two paths, 0-...-6 and 7-8: cutting the longer one's middle leaves
    # two halves of 3; cutting the shorter one leaves the whole of 7
    g = ColoredGraph(9, [(i, i + 1) for i in range(6)] + [(7, 8)])
    ball = list(range(9))
    scores = _removal_scores(g, set(ball))
    assert [scores[v] for v in ball] == [6, 5, 4, 3, 4, 5, 6, 7, 7]
    assert CentroidStrategy().choose(g, ball, ball, 0, 2) == 3
