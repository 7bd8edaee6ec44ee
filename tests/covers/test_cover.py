"""Unit tests for neighborhood covers (Definition 4.3 / Theorem 4.4)."""

import pytest

from repro.covers.neighborhood_cover import build_cover
from repro.graphs.colored_graph import ColoredGraph
from repro.graphs.generators import grid, path, random_tree
from repro.graphs.neighborhoods import bounded_bfs


@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_cover_properties_hold(sparse_graph, radius):
    cover = build_cover(sparse_graph, radius)
    cover.check_properties()  # Definition 4.3, both directions


def test_every_vertex_has_a_canonical_bag():
    g = random_tree(50, seed=1)
    cover = build_cover(g, 2)
    for v in g.vertices():
        bag_id = cover.bag_of(v)
        assert cover.contains(bag_id, v)


def test_bag_inside_double_radius_ball_of_center():
    g = grid(7, 7)
    cover = build_cover(g, 2)
    for bag_id, bag in enumerate(cover.bags):
        ball = set(bounded_bfs(g, [cover.center(bag_id)], cover.bag_radius))
        assert set(bag) <= ball


def test_degree_small_on_sparse_families():
    for build in (lambda: random_tree(300, seed=2), lambda: grid(17, 17)):
        g = build()
        cover = build_cover(g, 2)
        # Theorem 4.4's bound is n^eps (up to the class's constants); the
        # greedy cover should stay within a small multiple of sqrt(n)
        assert cover.degree() <= 2 * g.n ** 0.5


def test_total_bag_size_pseudo_linear():
    g = grid(15, 15)
    cover = build_cover(g, 2)
    assert cover.total_bag_size() <= g.n ** 1.5


def test_assigned_lists_partition_vertices():
    g = random_tree(80, seed=5)
    cover = build_cover(g, 1)
    seen = []
    for bag_id, members in enumerate(cover.assigned):
        for v in members:
            assert cover.bag_of(v) == bag_id
            seen.append(v)
    assert sorted(seen) == list(g.vertices())


def test_radius_zero_cover_is_singletons():
    g = path(5, palette=())
    cover = build_cover(g, 0)
    assert all(len(bag) == 1 for bag in cover.bags)
    assert cover.num_bags == 5


def test_edgeless_graph():
    g = ColoredGraph(6)
    cover = build_cover(g, 3)
    cover.check_properties()
    assert cover.num_bags == 6


def test_negative_radius_rejected():
    with pytest.raises(ValueError):
        build_cover(ColoredGraph(2), -1)


# ----------------------------------------------------------------------
# custom scan orders (regression: partial orders silently corrupted bags)


def test_empty_order_on_nonempty_graph():
    """order=[] used to raise IndexError (assignment stayed -1)."""
    g = random_tree(40, seed=3)
    cover = build_cover(g, 1, order=[])
    cover.check_properties()
    assert all(0 <= cover.bag_of(v) < cover.num_bags for v in g.vertices())


def test_partial_order_completes_coverage():
    """A partial order used to leave assignment[a] == -1, silently
    appending the stragglers to the *last* bag via assigned[-1]."""
    g = random_tree(40, seed=3)
    cover = build_cover(g, 1, order=[5, 17])
    cover.check_properties()
    assert min(cover.assignment) >= 0
    # the explicitly listed vertices are scanned first, so they become
    # centers (nothing covered them before)
    assert cover.centers[0] == 5
    seen = [v for assigned in cover.assigned for v in assigned]
    assert sorted(seen) == list(g.vertices())


def test_full_custom_order_still_exact():
    g = path(12, palette=())
    natural = build_cover(g, 1, order=list(range(12)))
    partial = build_cover(g, 1, order=[0])  # completed with 1..11
    assert natural.bags == partial.bags
    assert natural.assignment == partial.assignment


def test_invalid_orders_rejected():
    g = random_tree(10, seed=1)
    with pytest.raises(ValueError, match="twice"):
        build_cover(g, 1, order=[3, 3])
    with pytest.raises(ValueError, match="not a vertex"):
        build_cover(g, 1, order=[10])
    with pytest.raises(ValueError, match="not a vertex"):
        build_cover(g, 1, order=[-1])


def test_constructor_rejects_unassigned_vertices():
    from repro.covers.neighborhood_cover import NeighborhoodCover

    g = path(3, palette=())
    with pytest.raises(ValueError, match="did not cover"):
        NeighborhoodCover(g, 1, 2, [[0, 1, 2]], [1], [0, 0, -1])
