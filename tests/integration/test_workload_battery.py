"""The full workload registry against the full family registry.

The widest correctness sweep in the suite: every indexable arity-2
workload, plus the arity-3 chain and far-witness queries (the only ones
whose prefixes have distance types of their own), on a member of every
generated family (including the newer hex-grid / partial-k-tree /
chord-cycle families), indexed answers vs brute force.
"""

import random

import pytest

from repro.baselines.naive import NaiveIndex
from repro.core.config import EngineConfig
from repro.core.engine import open_index
from repro.core.next_solution import RelaxedPrefixIndex
from repro.graphs.generators import (
    caterpillar,
    hex_grid,
    long_cycle_with_chords,
    outerplanar_random_graph,
    partial_k_tree,
    random_forest,
)
from repro.logic.parser import parse_formula
from repro.workloads import by_name, indexable

TINY = EngineConfig(dist_naive_threshold=10, bag_naive_threshold=12)

FAMILY_SAMPLES = {
    "hex": lambda: hex_grid(6, 7, seed=3),
    "k-tree": lambda: partial_k_tree(42, k=2, seed=3),
    "chords": lambda: long_cycle_with_chords(42, chord_span=4, seed=3),
    "outerplanar": lambda: outerplanar_random_graph(42, seed=3),
    "forest": lambda: random_forest(42, trees=3, seed=3),
    "caterpillar": lambda: caterpillar(spine=12, legs=2, seed=3),
}


WORKLOADS = indexable(arity=2) + [by_name("path-3"), by_name("far-witness-3")]


@pytest.mark.parametrize("family", sorted(FAMILY_SAMPLES), ids=sorted(FAMILY_SAMPLES))
@pytest.mark.parametrize("workload", WORKLOADS, ids=[w.name for w in WORKLOADS])
def test_workloads_on_all_families(family, workload):
    g = FAMILY_SAMPLES[family]()
    phi = parse_formula(workload.text)
    index = open_index(g, phi, config=TINY)
    assert index.method == "indexed", (family, workload.name)
    if workload.name == "far-witness-3":
        assert isinstance(index._impl._prefix, RelaxedPrefixIndex)
    naive = NaiveIndex(g, phi, index.free_order)
    assert list(index.enumerate()) == naive.solutions, (family, workload.name)
    rng = random.Random(f"{family}:{workload.name}")
    for _ in range(15):
        t = tuple(rng.randrange(g.n) for _ in range(index.arity))
        assert index.test(t) == naive.test(t)
        assert index.next_solution(t) == naive.next_solution(t)
