"""Unit tests for the nowhere dense family generators."""

import pytest

from repro.graphs.generators import (
    FAMILIES,
    binary_tree,
    bounded_degree_random_graph,
    caterpillar,
    cycle,
    grid,
    outerplanar_random_graph,
    path,
    random_forest,
    random_planar_like_graph,
    random_tree,
    star,
    subdivided_clique,
)
from repro.graphs.neighborhoods import bounded_bfs


def component_count(g):
    """Connected components, counted by one unbounded BFS per unseen vertex."""
    seen: set[int] = set()
    count = 0
    for v in g.vertices():
        if v not in seen:
            seen.update(bounded_bfs(g, [v], g.n))
            count += 1
    return count


def test_path_shape():
    g = path(5)
    assert g.n == 5 and g.num_edges == 4
    assert g.degree(0) == 1 and g.degree(2) == 2


def test_cycle_shape():
    g = cycle(6)
    assert g.num_edges == 6
    assert all(g.degree(v) == 2 for v in g.vertices())
    with pytest.raises(ValueError):
        cycle(2)


def test_star_shape():
    g = star(7)
    assert g.degree(0) == 6
    assert all(g.degree(v) == 1 for v in range(1, 7))


def test_binary_tree_shape():
    g = binary_tree(3)
    assert g.n == 15
    assert g.num_edges == 14
    assert component_count(g) == 1


def test_random_tree_is_tree():
    g = random_tree(40, seed=3)
    assert g.num_edges == g.n - 1
    assert component_count(g) == 1


def test_random_forest_has_requested_components():
    g = random_forest(40, trees=4, seed=1)
    assert component_count(g) == 4
    assert g.num_edges == g.n - 4


def test_caterpillar_shape():
    g = caterpillar(spine=4, legs=2)
    assert g.n == 12
    assert g.num_edges == 3 + 8


def test_grid_shape():
    g = grid(3, 4)
    assert g.n == 12
    assert g.num_edges == 3 * 3 + 2 * 4  # vertical + horizontal


def test_bounded_degree_respects_bound():
    g = bounded_degree_random_graph(120, degree=3, seed=2)
    assert max(g.degree(v) for v in g.vertices()) <= 3


def test_outerplanar_stays_sparse():
    g = outerplanar_random_graph(50, seed=4)
    # outerplanar graphs have at most 2n - 3 edges
    assert g.num_edges <= 2 * g.n - 3


def test_planar_like_stays_sparse():
    g = random_planar_like_graph(100, seed=5)
    assert g.num_edges <= 2 * g.n


def test_subdivided_clique_negative_control():
    g = subdivided_clique(5, subdivisions=1)
    pairs = 10
    assert g.n == 5 + pairs
    assert g.num_edges == 2 * pairs
    # vertices 0..4 are clique branch vertices with degree k-1
    assert all(g.degree(v) == 4 for v in range(5))


def test_generators_are_deterministic():
    a = random_tree(30, seed=9)
    b = random_tree(30, seed=9)
    assert a == b
    c = random_tree(30, seed=10)
    assert a != c


def test_colors_are_sprinkled():
    g = random_tree(200, seed=0)
    assert g.color("Red")
    assert g.color("Blue")


def test_families_registry_builds_everything():
    for name, build in FAMILIES.items():
        g = build(64, seed=1)
        assert g.n > 0, name


def test_partial_k_tree_bounded_treewidth_proxy():
    from repro.graphs.generators import partial_k_tree
    from repro.graphs.sparsity import degeneracy

    for k in (1, 2, 3):
        g = partial_k_tree(80, k=k, edge_keep=1.0, seed=k)
        # full k-trees are k-degenerate
        assert degeneracy(g) <= k, k


def test_partial_k_tree_validates_arguments():
    from repro.graphs.generators import partial_k_tree

    with pytest.raises(ValueError):
        partial_k_tree(2, k=2)
    with pytest.raises(ValueError):
        partial_k_tree(10, k=0)
    with pytest.raises(ValueError):
        partial_k_tree(10, k=2, edge_keep=1.5)


def test_hex_grid_degree_three():
    from repro.graphs.generators import hex_grid

    g = hex_grid(10, 10)
    assert max(g.degree(v) for v in g.vertices()) <= 3
    assert component_count(g) >= 1


def test_long_cycle_with_chords_local():
    from repro.graphs.generators import long_cycle_with_chords

    n = 80
    g = long_cycle_with_chords(n, chord_span=5, seed=2)
    for u, v in g.edges():
        ring = min((u - v) % n, (v - u) % n)
        assert ring <= 5, (u, v)
