"""Unit tests for sparsity measures (weak accessibility, degeneracy)."""

from repro.graphs.colored_graph import ColoredGraph
from repro.graphs.generators import (
    bounded_degree_random_graph,
    grid,
    path,
    random_planar_like_graph,
    random_tree,
    star,
    subdivided_clique,
)
from repro.graphs.sparsity import (
    average_degree,
    degeneracy,
    degeneracy_order,
    edge_density_exponent,
    is_edgeless,
    weak_coloring_number_upper_bound,
    weakly_accessible_counts,
)


def test_degeneracy_of_basic_graphs():
    assert degeneracy(path(10, palette=())) == 1
    assert degeneracy(random_tree(50, seed=1, palette=())) == 1
    assert degeneracy(grid(5, 5, palette=())) == 2
    assert degeneracy(star(10, palette=())) == 1


def test_degeneracy_order_is_permutation():
    g = grid(4, 4, palette=())
    order = degeneracy_order(g)
    assert sorted(order) == list(range(g.n))


def test_weakly_accessible_counts_bounded_on_trees():
    g = random_tree(100, seed=2, palette=())
    for r in (1, 2, 3):
        counts = weakly_accessible_counts(g, r)
        # trees have bounded expansion: counts stay small
        assert max(counts) <= 2 * r + 2


def test_weak_coloring_number_grows_on_dense_control():
    sparse = random_tree(60, seed=1, palette=())
    dense = subdivided_clique(10, subdivisions=1)
    assert weak_coloring_number_upper_bound(sparse, 2) < (
        weak_coloring_number_upper_bound(dense, 2)
    )


def test_edge_density_exponent_near_one_for_sparse():
    g = grid(20, 20, palette=())
    assert edge_density_exponent(g) < 1.2
    # experiment E10's families and sizes (Theorem 2.1's shape: the
    # exponent log ||G|| / log |G| tends to 1; measured 1.09-1.17 here)
    families = {
        "tree": lambda n: random_tree(n, seed=1),
        "grid": lambda n: grid(int(n**0.5), int(n**0.5), seed=1),
        "planar": lambda n: random_planar_like_graph(n, seed=1),
        "degree3": lambda n: bounded_degree_random_graph(n, degree=3, seed=1),
    }
    for family, make in families.items():
        for n in (512, 2048):
            exponent = edge_density_exponent(make(n))
            assert exponent < 1.35, (family, n, exponent)


def test_is_edgeless():
    assert is_edgeless(ColoredGraph(5))
    assert not is_edgeless(path(3, palette=()))


def test_average_degree():
    assert average_degree(path(5, palette=())) == 8 / 5
    assert average_degree(ColoredGraph(0)) == 0.0


def test_weak_accessibility_respects_given_order():
    # a path ordered left-to-right: each vertex weakly reaches only smaller
    # neighbors within r steps going "up" first
    g = path(6, palette=())
    counts = weakly_accessible_counts(g, 1, order=list(range(6)))
    assert counts[0] == 0
    assert all(c <= 1 for c in counts)
