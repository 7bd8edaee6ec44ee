"""Unit tests for skip pointers (Lemma 5.8) against brute force."""

import random

import pytest

from repro.core.skip_pointers import SkipPointers
from repro.covers.kernels import kernel_of_bag
from repro.covers.neighborhood_cover import build_cover
from repro.graphs.generators import grid, random_tree


def brute_skip(targets, kernels, b, bags):
    excluded = set()
    for bag in bags:
        excluded |= kernels[bag]
    for candidate in sorted(targets):
        if candidate >= b and candidate not in excluded:
            return candidate
    return None


def build_setup(graph, radius, seed, density=0.4):
    cover = build_cover(graph, radius)
    kernels = [kernel_of_bag(graph, bag, radius) for bag in cover.bags]
    rng = random.Random(seed)
    targets = [v for v in graph.vertices() if rng.random() < density]
    return cover, kernels, targets, rng


@pytest.mark.parametrize("k", [1, 2, 3])
def test_matches_brute_force(k):
    g = random_tree(120, seed=3)
    cover, kernels, targets, rng = build_setup(g, 2, seed=k)
    skips = SkipPointers(g.n, targets, kernels, k=k)
    kernel_sets = [set(K) for K in kernels]
    for _ in range(300):
        b = rng.randrange(g.n)
        bags = rng.sample(range(cover.num_bags), min(k, cover.num_bags))
        expected = brute_skip(targets, kernel_sets, b, bags)
        assert skips.skip(b, bags) == expected, (b, bags)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_walk_is_the_skip_chain(k):
    """``walk`` yields the whole range of ``SKIP`` from a bound, in order."""
    g = random_tree(120, seed=5)
    cover, kernels, targets, rng = build_setup(g, 2, seed=10 + k)
    skips = SkipPointers(g.n, targets, kernels, k=k)
    kernel_sets = [set(K) for K in kernels]
    for _ in range(60):
        b = rng.randrange(g.n)
        bags = rng.sample(range(cover.num_bags), min(k, cover.num_bags))
        excluded = set().union(*(kernel_sets[bag] for bag in bags))
        expected = [t for t in sorted(targets) if t >= b and t not in excluded]
        assert list(skips.walk(b, bags)) == expected, (b, bags)


def test_empty_target_list():
    g = grid(6, 6)
    cover, kernels, _, _ = build_setup(g, 1, seed=0)
    skips = SkipPointers(g.n, [], kernels, k=2)
    assert skips.skip(0, [0]) is None


def test_all_vertices_targets():
    g = grid(6, 6)
    cover, kernels, _, rng = build_setup(g, 1, seed=1)
    targets = list(g.vertices())
    skips = SkipPointers(g.n, targets, kernels, k=2)
    kernel_sets = [set(K) for K in kernels]
    for _ in range(100):
        b = rng.randrange(g.n)
        bags = rng.sample(range(cover.num_bags), 2)
        assert skips.skip(b, bags) == brute_skip(targets, kernel_sets, b, bags)


def test_empty_bag_set_returns_next_target():
    g = grid(5, 5)
    cover, kernels, targets, _ = build_setup(g, 1, seed=2)
    skips = SkipPointers(g.n, targets, kernels, k=2)
    for b in range(g.n):
        expected = next((t for t in sorted(targets) if t >= b), None)
        assert skips.skip(b, []) == expected


def test_too_many_bags_rejected():
    g = grid(4, 4)
    cover, kernels, targets, _ = build_setup(g, 1, seed=3)
    skips = SkipPointers(g.n, targets, kernels, k=1)
    with pytest.raises(ValueError):
        skips.skip(0, [0, 1])


def test_out_of_range_vertex_rejected():
    g = grid(4, 4)
    cover, kernels, targets, _ = build_setup(g, 1, seed=4)
    skips = SkipPointers(g.n, targets, kernels, k=1)
    with pytest.raises(ValueError):
        skips.skip(g.n, [0])


def test_stored_pointer_count_is_bounded():
    g = random_tree(150, seed=5)
    cover, kernels, targets, _ = build_setup(g, 2, seed=5)
    skips = SkipPointers(g.n, targets, kernels, k=2)
    degree = max(1, cover.degree())
    # Claim 5.10: |SC(b)| = O(degree^k), so total pointers O(n * degree^k)
    assert skips.stored_pointers <= 4 * g.n * degree ** 2


def test_k_must_be_positive():
    with pytest.raises(ValueError):
        SkipPointers(5, [], [], k=0)
