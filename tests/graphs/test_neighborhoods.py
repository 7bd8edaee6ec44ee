"""Unit tests for distances, balls and induced subgraphs."""

from repro.graphs.colored_graph import ColoredGraph
from repro.graphs.generators import grid, path
from repro.graphs.neighborhoods import (
    INFINITY,
    ball,
    bounded_bfs,
    distance,
    induced_subgraph,
    tuple_ball,
)


def test_bounded_bfs_respects_radius():
    g = path(10, palette=())
    dist = bounded_bfs(g, [0], 3)
    assert set(dist) == {0, 1, 2, 3}


def test_bounded_bfs_multi_source():
    g = path(10, palette=())
    dist = bounded_bfs(g, [0, 9], 2)
    assert dist[1] == 1 and dist[8] == 1
    assert 4 not in dist


def test_distance_disconnected_is_infinite():
    g = ColoredGraph(4, [(0, 1), (2, 3)])
    assert distance(g, 0, 3) == INFINITY
    assert distance(g, 0, 1) == 1
    assert distance(g, 2, 2) == 0


def test_distance_cutoff():
    g = path(10, palette=())
    assert distance(g, 0, 5, cutoff=3) == INFINITY
    assert distance(g, 0, 3, cutoff=3) == 3


def test_ball_and_tuple_ball():
    g = grid(5, 5, palette=())
    b = ball(g, 12, 1)  # center of the grid
    assert b == {12, 7, 11, 13, 17}
    tb = tuple_ball(g, [0, 24], 1)
    assert tb == {0, 1, 5, 24, 23, 19}


def test_induced_subgraph_keeps_ambient_ids():
    g = path(6, palette=())
    sub = induced_subgraph(g, [1, 2, 3])
    assert sub.n == g.n
    assert sorted(sub.edges()) == [(1, 2), (2, 3)]
    assert sub.degree(0) == 0


def test_induced_subgraph_keeps_colors_inside_only():
    g = ColoredGraph(4, [(0, 1)], colors={"A": [0, 3]})
    sub = induced_subgraph(g, [0, 1])
    assert sub.color("A") == {0}
