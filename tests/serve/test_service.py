"""QueryService handlers driven directly (no HTTP), checked vs the oracle."""

from __future__ import annotations

import pytest

from repro.core.engine import build_index
from repro.graphs.generators import random_tree
from repro.graphs.io import dumps_edge_list, write_edge_list, write_json
from repro.serve.service import BadRequest, QueryService

QUERY = "E(x, y)"


@pytest.fixture(scope="module")
def graph():
    return random_tree(40, seed=3)


@pytest.fixture(scope="module")
def oracle(graph):
    return build_index(graph, QUERY)


@pytest.fixture(scope="module")
def spec(graph):
    return {"edge_list": dumps_edge_list(graph)}


@pytest.fixture
def service():
    return QueryService(max_page_size=50, default_page_size=10)


def test_handle_test(service, spec, oracle):
    hit = next(oracle.enumerate())
    reply = service.handle_test({**spec, "query": QUERY, "tuple": list(hit)})
    assert reply["value"] is True
    assert reply["index"]["status"] == "built"
    assert reply["index"]["arity"] == 2
    miss = service.handle_test({**spec, "query": QUERY, "tuple": [0, 0]})
    assert miss["value"] is False
    assert miss["index"]["status"] == "hit"  # same fingerprint, warm now


def test_handle_next(service, spec, oracle):
    reply = service.handle_next({**spec, "query": QUERY, "tuple": [0, 0]})
    assert tuple(reply["solution"]) == oracle.next_solution((0, 0))
    past_end = service.handle_next({**spec, "query": QUERY, "tuple": [10**6, 0]})
    assert past_end["solution"] is None


def test_handle_enumerate_pages_cover_everything(service, spec, oracle):
    everything, cursor, pages = [], None, 0
    while True:
        payload = {**spec, "query": QUERY, "limit": 13}
        if cursor is not None:
            payload["cursor"] = cursor
        reply = service.handle_enumerate(payload)
        everything.extend(tuple(item) for item in reply["items"])
        pages += 1
        cursor = reply["next_cursor"]
        if cursor is None:
            break
    assert everything == list(oracle.enumerate())
    assert pages == -(-len(everything) // 13)


def test_handle_enumerate_default_and_capped_limits(service, spec):
    reply = service.handle_enumerate({**spec, "query": QUERY})
    assert len(reply["items"]) == 10  # default_page_size
    with pytest.raises(BadRequest, match="page-size cap"):
        service.handle_enumerate({**spec, "query": QUERY, "limit": 51})
    with pytest.raises(BadRequest, match="'limit' must be >= 1"):
        service.handle_enumerate({**spec, "query": QUERY, "limit": 0})


def test_handle_count(service, spec, oracle):
    reply = service.handle_count({**spec, "query": QUERY})
    assert reply["count"] == oracle.count() == 78


def test_handle_explain(service):
    good = service.handle_explain({"query": QUERY})
    assert good["decomposable"] is True and good["arity"] == 2
    bad = service.handle_explain({"query": "exists z. Blue(z) & dist(z, x) > 2"})
    assert bad["decomposable"] is False and bad["problems"]


def test_family_spec(service, oracle):
    reply = service.handle_count(
        {"family": "random_tree", "n": 40, "seed": 3, "query": QUERY}
    )
    assert reply["count"] == oracle.count()


def test_graph_json_spec(service, graph, oracle):
    from repro.graphs.io import graph_to_json

    reply = service.handle_count({"graph": graph_to_json(graph), "query": QUERY})
    assert reply["count"] == oracle.count()


def test_graph_path_spec(tmp_path, graph, oracle):
    write_edge_list(graph, tmp_path / "g.txt")
    write_json(graph, tmp_path / "g.json")
    service = QueryService(graph_root=tmp_path)
    for name in ("g.txt", "g.json"):
        reply = service.handle_count({"graph_path": name, "query": QUERY})
        assert reply["count"] == oracle.count()


# ----------------------------------------------------------------------
# 4xx paths


def test_missing_graph_spec(service):
    with pytest.raises(BadRequest, match="exactly one of"):
        service.handle_count({"query": QUERY})


def test_two_graph_specs(service, spec):
    with pytest.raises(BadRequest, match="exactly one of"):
        service.handle_count({**spec, "family": "grid", "n": 9, "query": QUERY})


def test_unknown_family(service):
    with pytest.raises(BadRequest, match="unknown family"):
        service.handle_count({"family": "clique", "n": 9, "query": QUERY})


def test_malformed_edge_list(service):
    with pytest.raises(BadRequest, match="malformed graph"):
        service.handle_count({"edge_list": "n 3\ne 0 banana\n", "query": QUERY})


def test_bad_query_text(service, spec):
    with pytest.raises(BadRequest, match="bad query"):
        service.handle_count({**spec, "query": "E(x,"})


def test_missing_query(service, spec):
    with pytest.raises(BadRequest, match="'query'"):
        service.handle_count(spec)


def test_unknown_method(service, spec):
    with pytest.raises(BadRequest, match="unknown method"):
        service.handle_count({**spec, "query": QUERY, "method": "magic"})


def test_undecomposable_query_with_indexed_method(service, spec):
    with pytest.raises(BadRequest, match="not decomposable"):
        service.handle_count(
            {**spec, "query": "exists z. Blue(z) & dist(z, x) > 2",
             "method": "indexed"}
        )


def test_wrong_arity_tuple(service, spec):
    with pytest.raises(BadRequest, match="arity"):
        service.handle_test({**spec, "query": QUERY, "tuple": [0, 1, 2]})


def test_non_integer_tuple(service, spec):
    with pytest.raises(BadRequest, match="only integers"):
        service.handle_test({**spec, "query": QUERY, "tuple": [0, "one"]})
    with pytest.raises(BadRequest, match="only integers"):
        service.handle_test({**spec, "query": QUERY, "tuple": [0, True]})


def test_graph_path_disabled_without_root(service):
    with pytest.raises(BadRequest, match="disabled"):
        service.handle_count({"graph_path": "g.txt", "query": QUERY})


def test_graph_path_escape_rejected(tmp_path):
    service = QueryService(graph_root=tmp_path)
    with pytest.raises(BadRequest, match="escapes"):
        service.handle_count({"graph_path": "../../etc/passwd", "query": QUERY})


def test_graph_path_missing_file(tmp_path):
    service = QueryService(graph_root=tmp_path)
    with pytest.raises(BadRequest, match="no such graph file"):
        service.handle_count({"graph_path": "nope.txt", "query": QUERY})


def test_json_database_file_rejected(tmp_path):
    from repro.db.database import Database, Schema

    write_json(Database(Schema({"R": 1}), domain_size=2), tmp_path / "db.json")
    service = QueryService(graph_root=tmp_path)
    with pytest.raises(BadRequest, match="database"):
        service.handle_count({"graph_path": "db.json", "query": QUERY})


# ----------------------------------------------------------------------
# observability


def test_stats_and_metrics_snapshot(service, spec):
    service.handle_count({**spec, "query": QUERY})
    stats = service.stats()
    assert stats["cache"]["builds"] == 1
    assert stats["max_page_size"] == 50
    snapshot = service.metrics_snapshot()
    assert snapshot["cache"]["entries"] == 1
    assert snapshot["collecting"] in (True, False)


def test_metrics_snapshot_with_active_registry(service, spec):
    from repro import metrics

    with metrics.collect(ops=False):
        service.handle_count({**spec, "query": QUERY})
        snapshot = service.metrics_snapshot()
    assert snapshot["collecting"] is True
    assert snapshot["registry"]["counters"]["serve.builds"] == 1
    registry = snapshot["registry"]
    engine_keys = [
        name
        for section in ("counters", "histograms")
        for name in registry[section]
        if name.startswith("engine.")
    ]
    assert engine_keys  # the engine's own instrumentation reached the registry
