"""Unit tests for the public facade (open_index / QueryIndex)."""

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import open_index
from repro.core.normal_form import DecompositionError
from repro.graphs.generators import path, random_tree
from repro.logic.parser import parse_formula
from repro.logic.syntax import Var


def test_accepts_text_and_formula():
    g = random_tree(30, seed=1)
    a = open_index(g, "E(x, y)")
    b = open_index(g, parse_formula("E(x, y)"))
    assert list(a.enumerate()) == list(b.enumerate())


def test_default_free_order_is_sorted_names():
    g = random_tree(20, seed=1)
    index = open_index(g, "E(b, a)")
    assert [v.name for v in index.free_order] == ["a", "b"]


def test_explicit_free_order_changes_tuples():
    g = path(5, palette=())
    forward = open_index(g, "E(x, y)", free_order=["x", "y"])
    backward = open_index(g, "E(x, y)", free_order=["y", "x"])
    assert list(forward.enumerate()) == list(backward.enumerate())  # symmetric query
    g.set_color("Red", [0])
    asym = open_index(g, "Red(x) & E(x, y)", free_order=["y", "x"])
    assert list(asym.enumerate()) == [(1, 0)]


def test_one_front_door():
    import inspect

    import repro
    import repro.api
    import repro.core

    assert repro.open_index is repro.api.open_index is repro.core.open_index is open_index
    for module in (repro, repro.api, repro.core):
        builders = [
            name
            for name, value in vars(module).items()
            if name.endswith("_index") and inspect.isfunction(value)
        ]
        assert builders == ["open_index"], module.__name__
    g = random_tree(30, seed=1)
    query = "Red(x) & dist(x, y) <= 2"
    with pytest.raises(TypeError):
        open_index(g, query, ("x", "y"))
    by_name = list(open_index(g, query).enumerate())
    swapped = list(open_index(g, query, free_order=("y", "x")).enumerate())
    assert swapped == sorted((b, a) for a, b in by_name)
    assert swapped != by_name


def test_free_order_mismatch_rejected():
    g = path(4, palette=())
    with pytest.raises(ValueError):
        open_index(g, "E(x, y)", free_order=["x", "z"])
    with pytest.raises(ValueError):
        open_index(g, "E(x, y)", free_order=["x"])


def test_method_naive_forced():
    g = random_tree(25, seed=1)
    index = open_index(g, "E(x, y)", method="naive")
    assert index.method == "naive"


def test_method_indexed_raises_outside_fragment():
    g = random_tree(25, seed=1)
    with pytest.raises(DecompositionError):
        open_index(g, "exists z. Blue(z) & dist(z, x) > 2", method="indexed")


def test_auto_falls_back_to_naive():
    g = random_tree(25, seed=1)
    index = open_index(g, "exists z. Blue(z) & dist(z, x) > 2", method="auto")
    assert index.method == "naive"


def test_unknown_method_rejected():
    g = path(3, palette=())
    with pytest.raises(ValueError):
        open_index(g, "E(x, y)", method="quantum")


def test_count():
    g = path(5, palette=())
    index = open_index(g, "E(x, y)")
    assert index.count() == 8


def test_preprocessing_time_recorded():
    g = random_tree(40, seed=2)
    index = open_index(g, "dist(x, y) <= 2")
    assert index.preprocessing_seconds >= 0


def test_sentence_query():
    g = path(4, palette=())
    index = open_index(g, "exists x, y. E(x, y)")
    assert index.arity == 0
    assert index.test(())
    assert list(index.enumerate()) == [()]


def test_docstring_example():
    from repro.graphs import grid

    index = open_index(grid(8, 8), "exists z. E(x, z) & E(z, y)")
    assert index.test(next(index.enumerate()))


def test_stats_indexed():
    g = random_tree(40, seed=3)
    index = open_index(g, "dist(x, y) > 2 & Blue(y)")
    stats = index.stats()
    assert stats["method"] == "indexed"
    assert stats["arity"] == 2
    assert stats["exact_delay"] is True
    [level] = stats["levels"]
    assert level["radius"] == 2
    assert level["cover_bags"] >= 1
    assert set(level["bag_solver_modes"]) <= {"naive", "splitter"}
    assert level["distance_index"] is False  # a 1-tuple prefix has no pair to type
    assert sum(level["removal_depths"].values()) == level["cover_bags"]


def test_stats_naive():
    g = random_tree(20, seed=3)
    index = open_index(g, "exists z. Blue(z) & dist(z, x) > 2")
    stats = index.stats()
    assert stats["method"] == "naive"
    assert "materialized_solutions" in stats


def test_stats_reports_nested_levels_for_arity3():
    from repro.graphs.generators import random_planar_like_graph

    g = random_planar_like_graph(24, seed=2)
    index = open_index(g, "E(x, y) & E(y, z)")
    stats = index.stats()
    assert [level["arity"] for level in stats["levels"]] == [3, 2]
    assert [level["distance_index"] for level in stats["levels"]] == [True, False]
    small_bags = EngineConfig(bag_naive_threshold=6)
    [outer, _] = open_index(g, "E(x, y) & E(y, z)", config=small_bags).stats()["levels"]
    assert max(outer["removal_depths"]) >= 1
    assert sum(outer["removal_depths"].values()) == outer["cover_bags"]


def test_naive_enumerate_resumes_with_bisect():
    """enumerate(start) on the naive fallback returns the exact suffix."""
    g = random_tree(24, seed=5)
    index = open_index(g, "E(x, y)", method="naive")
    everything = list(index.enumerate())
    assert everything == sorted(set(everything))
    middle = everything[len(everything) // 2]
    assert list(index.enumerate(start=middle)) == everything[len(everything) // 2:]
    # a start between solutions resumes at the next one, not a copy scan
    assert list(index.enumerate(start=(everything[-1][0], everything[-1][1] + 1))) == []
    assert list(index.enumerate(start=(0, 0))) == everything


def test_naive_and_indexed_enumerate_agree_on_start():
    g = random_tree(24, seed=5)
    naive = open_index(g, "E(x, y)", method="naive")
    indexed = open_index(g, "E(x, y)", method="indexed")
    start = (5, 0)
    assert list(naive.enumerate(start=start)) == list(indexed.enumerate(start=start))


def test_naive_count_uses_materialized_length():
    g = random_tree(30, seed=7)
    index = open_index(g, "E(x, y)", method="naive")
    assert index.count() == len(index._impl)
    assert index.count() == len(list(index.enumerate()))
