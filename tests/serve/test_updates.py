"""``/v1/update``, stale cursors and batch updates, driven directly."""

from __future__ import annotations

import pytest

from repro.core.engine import open_index
from repro.graphs.generators import random_tree
from repro.graphs.io import dumps_edge_list
from repro.serve.service import BadRequest, QueryService, StaleCursor

QUERY = "E(x, y)"


@pytest.fixture(scope="module")
def graph():
    return random_tree(40, seed=3)


@pytest.fixture(scope="module")
def spec(graph):
    return {"edge_list": dumps_edge_list(graph), "query": QUERY}


@pytest.fixture(scope="module")
def non_edge(graph):
    for u in range(graph.n):
        for v in range(u + 1, graph.n):
            if not graph.has_edge(u, v):
                return u, v
    raise AssertionError("graph is complete")


@pytest.fixture
def service():
    return QueryService(max_page_size=50, default_page_size=10)


def test_update_bumps_version_and_changes_answers(service, spec, non_edge):
    u, v = non_edge
    before = service.handle_test({**spec, "tuple": [u, v]})
    assert before["value"] is False
    assert before["index"]["index_version"] == 0

    inserted = service.handle_update({**spec, "op": "insert", "edge": [u, v]})
    assert inserted["applied"] == "insert"
    assert inserted["edge"] == [u, v]
    assert inserted["version"] == 1
    assert inserted["index"]["index_version"] == 1

    after = service.handle_test({**spec, "tuple": [u, v]})
    assert after["value"] is True
    assert after["index"]["index_version"] == 1
    # the static identity survives the update; only the version moved
    assert after["index"]["fingerprint"] == before["index"]["fingerprint"]

    deleted = service.handle_update({**spec, "op": "delete", "edge": [u, v]})
    assert deleted["version"] == 2
    assert service.handle_test({**spec, "tuple": [u, v]})["value"] is False


def test_updated_index_matches_rebuild(service, spec, graph, non_edge):
    u, v = non_edge
    service.handle_update({**spec, "op": "insert", "edge": [u, v]})
    shadow = graph.with_edge(u, v)
    oracle = open_index(shadow, QUERY)
    everything, cursor = [], None
    while True:
        payload = dict(spec)
        if cursor is not None:
            payload["cursor"] = cursor
        reply = service.handle_enumerate(payload)
        everything.extend(tuple(item) for item in reply["items"])
        cursor = reply["next_cursor"]
        if cursor is None:
            break
    assert everything == list(oracle.enumerate())


def test_stale_cursor_is_a_typed_409(service, spec, non_edge):
    u, v = non_edge
    first = service.handle_enumerate({**spec, "limit": 5})
    pinned = first["index"]["index_version"]
    cursor = first["next_cursor"]
    assert pinned == 0 and cursor is not None

    service.handle_update({**spec, "op": "insert", "edge": [u, v]})

    with pytest.raises(StaleCursor, match="minted at index version 0"):
        service.handle_enumerate(
            {**spec, "cursor": cursor, "cursor_version": pinned}
        )
    assert StaleCursor.http_status == 409

    # a fresh cursor minted at the current version completes
    fresh = service.handle_enumerate({**spec, "limit": 5})
    reply = service.handle_enumerate(
        {
            **spec,
            "cursor": fresh["next_cursor"],
            "cursor_version": fresh["index"]["index_version"],
        }
    )
    assert reply["index"]["index_version"] == 1


def test_batch_updates_are_position_aligned(service, spec, non_edge):
    u, v = non_edge
    reply = service.handle_batch(
        {
            **spec,
            "calls": [
                {"op": "test", "tuple": [u, v]},
                {"op": "update", "action": "insert", "edge": [u, v]},
                {"op": "test", "tuple": [u, v]},
                {"op": "next", "tuple": [u, v]},
            ],
        }
    )
    results = reply["results"]
    assert results[0] is False
    assert results[1] == {"applied": "insert", "version": 1}
    assert results[2] is True  # probes after an update see the new generation
    assert tuple(results[3]) == (u, v)
    assert reply["index"]["index_version"] == 1


def test_update_validation_errors(service, spec, graph, non_edge):
    u, v = non_edge
    with pytest.raises(BadRequest, match="'op' must be"):
        service.handle_update({**spec, "op": "upsert", "edge": [u, v]})
    with pytest.raises(BadRequest, match="'edge'"):
        service.handle_update({**spec, "op": "insert", "edge": [u]})
    # deleting an absent edge / inserting a present one: 400, not 500
    with pytest.raises(BadRequest, match="cannot delete"):
        service.handle_update({**spec, "op": "delete", "edge": [u, v]})
    present = next(iter(graph.edges()))
    with pytest.raises(BadRequest, match="cannot insert"):
        service.handle_update({**spec, "op": "insert", "edge": list(present)})
    # a bad batch is rejected up front, before any call runs
    with pytest.raises(BadRequest, match="action"):
        service.handle_batch(
            {
                **spec,
                "calls": [
                    {"op": "update", "action": "toggle", "edge": [u, v]},
                ],
            }
        )
    assert service.handle_test({**spec, "tuple": [u, v]})["index"][
        "index_version"
    ] == 0


def test_updates_compound_across_requests(service, spec, graph):
    edges = list(graph.edges())[:3]
    for i, (u, v) in enumerate(edges):
        reply = service.handle_update({**spec, "op": "delete", "edge": [u, v]})
        assert reply["version"] == i + 1
    stats = service.cache.snapshot_stats()
    assert list(stats["versions"].values()) == [3]
