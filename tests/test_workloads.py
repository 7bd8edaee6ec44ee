"""The workload registry's metadata must be truthful."""

import pytest

from repro.core.engine import open_index
from repro.core.config import EngineConfig
from repro.graphs.generators import random_planar_like_graph
from repro.logic.parser import parse_formula
from repro.logic.transform import free_variables
from repro.workloads import WORKLOADS, by_name, indexable

TINY = EngineConfig(dist_naive_threshold=10, bag_naive_threshold=8)


def test_names_unique():
    names = [w.name for w in WORKLOADS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("workload", WORKLOADS, ids=[w.name for w in WORKLOADS])
def test_arity_metadata_is_correct(workload):
    phi = parse_formula(workload.text)
    assert len(free_variables(phi)) == workload.arity


@pytest.mark.parametrize("workload", WORKLOADS, ids=[w.name for w in WORKLOADS])
def test_indexable_metadata_is_correct(workload):
    g = random_planar_like_graph(30, seed=1)
    index = open_index(g, workload.text, config=TINY)
    assert (index.method == "indexed") == workload.indexable


def test_by_name():
    assert by_name("edge").arity == 2
    with pytest.raises(KeyError):
        by_name("nope")


def test_indexable_filter():
    assert all(w.indexable for w in indexable())
    assert all(w.arity == 2 for w in indexable(arity=2))
    assert by_name("unguarded") not in indexable()
