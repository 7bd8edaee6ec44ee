"""Unit tests for EngineConfig."""

import dataclasses

import pytest

from repro.core.config import DEFAULT_CONFIG, EngineConfig


def test_defaults_are_sane():
    assert 0 < DEFAULT_CONFIG.eps <= 1
    assert DEFAULT_CONFIG.dist_naive_threshold >= 2
    assert DEFAULT_CONFIG.bag_naive_threshold >= 2
    assert DEFAULT_CONFIG.dist_max_depth >= 1
    assert DEFAULT_CONFIG.bag_max_depth >= 1
    assert len(dataclasses.fields(EngineConfig)) == 5


def test_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT_CONFIG.eps = 0.9


def test_replace_produces_new_config():
    tweaked = dataclasses.replace(DEFAULT_CONFIG, eps=0.25)
    assert tweaked.eps == 0.25
    assert DEFAULT_CONFIG.eps != 0.25
    assert tweaked.bag_naive_threshold == DEFAULT_CONFIG.bag_naive_threshold


def test_custom_config_flows_through_engine():
    from repro.core.engine import open_index
    from repro.graphs.generators import random_tree

    g = random_tree(25, seed=1)
    config = EngineConfig(bag_naive_threshold=5, dist_naive_threshold=5)
    index = open_index(g, "dist(x, y) <= 2", config=config)
    assert index._impl.config is config


# ----------------------------------------------------------------------
# knob invariance: every EngineConfig field is a cost dial, never an
# answer dial (the CONTRIBUTING rule)

KNOB_QUERY = "dist(x, y) > 2 & Blue(y)"


@pytest.fixture(scope="module")
def knob_graph_and_answers():
    from repro.baselines.naive import NaiveIndex
    from repro.graphs.generators import random_planar_like_graph
    from repro.logic.parser import parse_formula
    from repro.logic.syntax import Var

    g = random_planar_like_graph(160, seed=1)
    naive = NaiveIndex(g, parse_formula(KNOB_QUERY), (Var("x"), Var("y")))
    return g, naive.solutions


@pytest.mark.parametrize(
    "knobs",
    [
        {"eps": 0.25},
        {"eps": 0.75},
        {"bag_naive_threshold": 8},
        {"bag_naive_threshold": 500},
        {"dist_naive_threshold": 8},
        {"dist_naive_threshold": 500},
        {"dist_max_depth": 1},
        {"bag_max_depth": 1},
    ],
    ids=lambda knobs: "-".join(f"{k}={v}" for k, v in knobs.items()),
)
def test_answers_invariant_under_knobs(knob_graph_and_answers, knobs):
    from repro.core.engine import open_index

    g, expected = knob_graph_and_answers
    index = open_index(g, KNOB_QUERY, config=EngineConfig(**knobs))
    assert index.method == "indexed"
    assert list(index.enumerate()) == expected
