"""Round-trip and graceful-rebuild tests for the persistence layer.

The property under test: for every (graph family, query) pair in the
tier-1 matrix, ``load(save(index))`` is observationally identical to the
index it snapshotted — same ``enumerate()`` stream, same ``test()``
verdicts, same ``stats()`` — and a snapshot that is corrupted, stale or
version-mismatched is *never served*: ``load_or_build`` logs a warning,
rebuilds, and still answers correctly.
"""

from __future__ import annotations

import json
import logging

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import open_index
from repro.graphs.generators import grid, random_planar_like_graph, random_tree
from repro.metrics.runtime import collect
from repro.persist import (
    FORMAT_VERSION,
    SnapshotCorrupted,
    SnapshotStale,
    SnapshotVersionMismatch,
    cache_path,
    index_fingerprint,
    load_index,
    load_or_build,
    read_header,
    save_index,
)

GRAPHS = {
    "tree": lambda: random_tree(60, seed=11),
    "grid": lambda: grid(8, 8, seed=11),
    "planar": lambda: random_planar_like_graph(60, seed=11),
}

#: The tier-1 query matrix: both answering-phase cases, a guard, an
#: arity-1 query and an undecomposable query (naive fallback).
QUERIES = [
    "E(x, y)",
    "exists z. E(x, z) & E(z, y)",
    "dist(x, y) > 2 & Blue(y)",
    "exists y. E(x, y) & Blue(y)",
]


def _probes(graph, arity):
    return [
        tuple((5 * i + j) % graph.n for j in range(arity)) for i in range(40)
    ]


@pytest.mark.parametrize("family", sorted(GRAPHS))
@pytest.mark.parametrize("query", QUERIES)
def test_roundtrip_is_observationally_identical(tmp_path, family, query):
    graph = GRAPHS[family]()
    built = open_index(graph, query)
    fingerprint = index_fingerprint(graph, query)
    path = tmp_path / "snap.rpx"
    save_index(built, path, fingerprint)
    loaded = load_index(path, expected_fingerprint=fingerprint)
    assert list(loaded.enumerate()) == list(built.enumerate())
    for probe in _probes(graph, built.arity):
        assert loaded.test(probe) == built.test(probe)
        assert loaded.next_solution(probe) == built.next_solution(probe)
    assert loaded.stats() == built.stats()


def test_roundtrip_preserves_naive_fallback(tmp_path):
    graph = random_tree(30, seed=2)
    built = open_index(graph, "exists z. Blue(z) & dist(z, x) > 2")
    assert built.method == "naive"
    path = tmp_path / "naive.rpx"
    save_index(built, path, index_fingerprint(graph, built.phi))
    loaded = load_index(path)
    assert loaded.method == "naive"
    assert list(loaded.enumerate()) == list(built.enumerate())
    assert loaded.count() == built.count()


def test_header_is_inspectable(tmp_path):
    graph = grid(6, 6, seed=1)
    built = open_index(graph, "E(x, y)")
    path = tmp_path / "snap.rpx"
    written = save_index(built, path, index_fingerprint(graph, "E(x, y)"))
    header = read_header(path)
    assert header == written
    assert header["format_version"] == FORMAT_VERSION
    assert header["method"] == "indexed"
    assert header["arity"] == 2
    assert header["graph_n"] == 36


def test_truncated_payload_is_rejected(tmp_path):
    graph = random_tree(25, seed=3)
    path = tmp_path / "snap.rpx"
    save_index(open_index(graph, "E(x, y)"), path, "fp")
    path.write_bytes(path.read_bytes()[:-7])
    with pytest.raises(SnapshotCorrupted, match="checksum"):
        load_index(path)


def test_garbage_file_is_rejected(tmp_path):
    path = tmp_path / "junk.rpx"
    path.write_bytes(b"\x00\x01 not a snapshot\n\xff")
    with pytest.raises(SnapshotCorrupted):
        load_index(path)


def test_version_mismatch_is_rejected(tmp_path):
    graph = random_tree(25, seed=3)
    index, _ = load_or_build(graph, "E(x, y)", cache_dir=tmp_path)
    path = cache_path(tmp_path, index_fingerprint(graph, "E(x, y)"))
    head, _, payload = path.read_bytes().partition(b"\n")
    for version in (FORMAT_VERSION + 1, FORMAT_VERSION - 1):
        header = json.loads(head)
        header["format_version"] = version
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(SnapshotVersionMismatch):
            load_index(path)
        # a newer or an older snapshot is never served: it is rebuilt
        rebuilt, status = load_or_build(graph, "E(x, y)", cache_dir=tmp_path)
        assert status == "rebuilt"
        assert list(rebuilt.enumerate()) == list(index.enumerate())


def test_fingerprint_mismatch_is_stale(tmp_path):
    graph = random_tree(25, seed=3)
    other = random_tree(25, seed=4)
    path = tmp_path / "snap.rpx"
    save_index(open_index(graph, "E(x, y)"), path, index_fingerprint(graph, "E(x, y)"))
    with pytest.raises(SnapshotStale):
        load_index(path, expected_fingerprint=index_fingerprint(other, "E(x, y)"))


# ----------------------------------------------------------------------
# the cache front end


def test_load_or_build_miss_then_hit(tmp_path):
    graph = grid(7, 7, seed=1)
    query = "dist(x, y) > 2 & Blue(y)"
    with collect(ops=False) as registry:
        first, status1 = load_or_build(graph, query, cache_dir=tmp_path)
        second, status2 = load_or_build(graph, query, cache_dir=tmp_path)
    assert (status1, status2) == ("miss", "hit")
    assert list(first.enumerate()) == list(second.enumerate())
    counters = {name: c.value for name, c in registry.counters.items()}
    assert counters["persist.cache_misses"] == 1
    assert counters["persist.cache_hits"] == 1
    # the persist.save / persist.load spans time one save and one load
    assert registry.histograms["persist.save_seconds"].count == 1
    assert registry.histograms["persist.load_seconds"].count == 1


def test_load_or_build_rebuilds_corrupted_snapshot(tmp_path, caplog):
    graph = grid(7, 7, seed=1)
    query = "E(x, y)"
    index, _ = load_or_build(graph, query, cache_dir=tmp_path)
    expected = list(index.enumerate())
    path = cache_path(tmp_path, index_fingerprint(graph, query))
    path.write_bytes(path.read_bytes()[:-20])
    with caplog.at_level(logging.WARNING, logger="repro.persist"):
        rebuilt, status = load_or_build(graph, query, cache_dir=tmp_path)
    assert status == "rebuilt"
    assert list(rebuilt.enumerate()) == expected
    assert any("snapshot rejected" in record.message for record in caplog.records)
    # the replacement snapshot is valid again
    _, status = load_or_build(graph, query, cache_dir=tmp_path)
    assert status == "hit"


def test_load_or_build_detects_graph_change(tmp_path, caplog):
    """A content change to the graph must miss, not serve stale answers."""
    graph = random_tree(40, seed=7)
    _, status1 = load_or_build(graph, "E(x, y)", cache_dir=tmp_path)
    changed = graph.copy()
    changed.add_edge(0, graph.n - 1)
    index, status2 = load_or_build(changed, "E(x, y)", cache_dir=tmp_path)
    assert (status1, status2) == ("miss", "miss")  # different fingerprint file
    assert index.test((0, graph.n - 1))


def test_fingerprint_sensitivity():
    graph = random_tree(30, seed=1)
    base = index_fingerprint(graph, "E(x, y)")
    # whitespace-insensitive, structure-sensitive
    assert index_fingerprint(graph, "E(x,   y)") == base
    assert index_fingerprint(graph, "E(y, x)") != base
    assert index_fingerprint(graph, "E(x, y)", method="naive") != base
    assert index_fingerprint(graph, "E(x, y)", free_order=["y", "x"]) != base
    changed = graph.copy()
    extra = next(
        v for v in range(2, graph.n) if not graph.has_edge(0, v)
    )
    changed.add_edge(0, extra)
    assert index_fingerprint(changed, "E(x, y)") != base
    assert index_fingerprint(graph, "E(x, y)", config=EngineConfig(eps=0.25)) != base


def test_snapshot_whose_config_carries_workers_loads_as_hit(tmp_path):
    """Snapshots written while ``EngineConfig`` had a ``workers`` or a
    ``precompute_far`` field load.

    Their pickled config carries the removed field in its state.
    Rewriting a snapshot's payload that way must still load as a ``hit``
    under the unchanged fingerprint, and answer like a fresh build.
    """
    import copyreg
    import hashlib
    import io
    import pickle

    class WorkersConfigPickler(pickle.Pickler):
        def reducer_override(self, obj):
            if type(obj) is EngineConfig:
                state = {**vars(obj), "workers": 1, "precompute_far": True}
                return copyreg.__newobj__, (EngineConfig,), state
            return NotImplemented

    graph = grid(8, 8, seed=11)
    query = "dist(x, y) > 2 & Blue(y)"
    fresh = open_index(graph, query)
    fingerprint = index_fingerprint(graph, query)
    path = cache_path(tmp_path, fingerprint)
    save_index(fresh, path, fingerprint)
    buffer = io.BytesIO()
    WorkersConfigPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(fresh)
    payload = buffer.getvalue()
    assert b"workers" in payload and b"precompute_far" in payload
    header = read_header(path)
    header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    header["payload_bytes"] = len(payload)
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)

    loaded, status = load_or_build(graph, query, cache_dir=tmp_path)
    assert status == "hit"
    assert list(loaded.enumerate()) == list(fresh.enumerate())
    for i in range(50):
        probe = ((7 * i) % graph.n, (7 * i + 1) % graph.n)
        assert loaded.test(probe) == fresh.test(probe)
        assert loaded.next_solution(probe) == fresh.next_solution(probe)
