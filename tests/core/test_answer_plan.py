"""The Lemma 5.2 answer plan: type work happens once, at preprocessing.

A prefix's (tau, alternative) candidates depend only on its distance
type, so ``LastCoordinateIndex`` resolves them when it is built
(:func:`~repro.core.last_coordinate.resolve_plan`).  After that, the
answer path builds no :class:`DistanceType`, calls none of its methods,
and neither builds nor looks up a bag query.  Nor does it build anything
else: every bag solver and sentence verdict exists when preprocessing
(or a repair) ends, so no ``@pseudo_linear`` function runs while
answering.
"""

import random

import pytest

from repro.contracts import instrument, registered_contracts
from repro.core.config import EngineConfig
from repro.core.distance_types import DistanceType, type_mask
from repro.core.engine import open_index
from repro.graphs.generators import grid
from repro.workloads import by_name, indexable

#: the dense and sparse running examples, and the arity-3 chain
WORKLOADS = ["far-blue", "two-hop", "path-3"]


def _probe_stream(index, seed: int, rounds: int) -> list:
    """Seeded ``test``/``next_solution``/``enumerate_page`` calls."""
    rng = random.Random(seed)
    n, k = index.graph.n, index.arity
    out = []
    for _ in range(rounds):
        probe = tuple(rng.randrange(n) for _ in range(k))
        out.append(index.test(probe))
        out.append(index.next_solution(probe))
        out.append(index.enumerate_page(probe, limit=4).items)
    return out


def _is_type_work(qualname: str) -> bool:
    return (
        qualname.startswith("repro.core.distance_types.DistanceType.")
        or qualname.endswith("._bag_query")
        or qualname.endswith(".resolve_plan")
    )


@pytest.mark.parametrize("name", WORKLOADS)
def test_answer_path_does_no_type_work(monkeypatch, name):
    index = open_index(grid(12, 12, seed=2), by_name(name).text)
    _probe_stream(index, seed=1, rounds=40)  # the warm pass
    built: list[DistanceType] = []
    post_init = DistanceType.__post_init__

    def counting_post_init(self) -> None:
        built.append(self)
        post_init(self)

    monkeypatch.setattr(DistanceType, "__post_init__", counting_post_init)
    with instrument() as counts:
        answers = _probe_stream(index, seed=2, rounds=40)
    assert counts["repro.core.last_coordinate.LastCoordinateIndex.first_last"] > 0
    assert {q: c for q, c in counts.items() if _is_type_work(q)} == {}
    assert built == []
    naive = open_index(index.graph, by_name(name).text, method="naive")
    assert answers == _probe_stream(naive, seed=2, rounds=40)


@pytest.mark.parametrize("name", WORKLOADS + ["far-witness-3"])
def test_plan_holds_each_type_alternative_once_under_its_prefix_mask(name):
    config = EngineConfig(dist_naive_threshold=10, bag_naive_threshold=12)
    index = open_index(grid(6, 6, seed=1), by_name(name).text, config=config)
    node = index._impl
    while getattr(node, "last", None) is not None:
        last = node.last
        prefix = range(last.k - 1)
        expected = {}
        for tau, alternatives in last.decomp.per_type.items():
            for alt in alternatives:
                mask = type_mask(prefix, tau.has_edge)
                expected.setdefault(mask, []).append(alt.sentence)
        got = {
            mask: [entry.sentence for entry in entries]
            for mask, entries in last._plan.items()
        }
        assert got == expected
        assert len(last.plan_entries()) == sum(map(len, expected.values()))
        for entry in last.plan_entries():
            assert len(entry.queries) == last.k
            assert (entry.j_star is None) == (entry.far_psi is not None)
        node = getattr(node, "_prefix", None)


@pytest.mark.parametrize("name", [w.name for w in indexable()])
def test_answer_path_builds_nothing(name):
    preprocessing = {
        qualname
        for qualname, contract in registered_contracts()
        if contract.kind == "pseudo_linear"
    }
    index = open_index(grid(12, 12, seed=3), by_name(name).text)
    for current in (index, index.insert_edge(0, 13)):
        rng = random.Random(7)
        n, k = current.graph.n, current.arity
        with instrument() as counts:
            for _ in range(150):
                current.test(tuple(rng.randrange(n) for _ in range(k)))
                current.next_solution(tuple(rng.randrange(n) for _ in range(k)))
            current.enumerate_page(tuple(rng.randrange(n) for _ in range(k)), limit=20)
        assert counts["repro.core.engine.QueryIndex.test"] == 150
        built = {q: c for q, c in counts.items() if q in preprocessing and c}
        assert built == {}, (current.version, built)
