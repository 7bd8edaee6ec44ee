"""The Prometheus renderer: one code path for the single server and the pool.

``render_prometheus`` turns a ``MetricsRegistry.export()`` payload into
text exposition.  A single server passes its own export; the pool parent
passes the merge of its workers' exports plus the per-worker exports for
``{worker="N"}`` attribution.  Either way a histogram family is a real
Prometheus ``histogram``: cumulative ``le`` buckets ending in a ``+Inf``
bucket equal to ``_count``.
"""

from __future__ import annotations

import re

from repro.metrics import (
    MetricsRegistry,
    bucket_upper_edge,
    merge_snapshots,
    render_prometheus,
)


def _export(counts, samples, ops):
    registry = MetricsRegistry()
    for name, amount in counts.items():
        registry.counter(name).inc(amount)
    for name, values in samples.items():
        for value in values:
            registry.histogram(name).record(value)
    registry.op_counts = dict(ops)
    return registry.export()


WORKER_EXPORTS = {
    "0": _export(
        {"engine.test": 3, "serve.cache.hits": 2},
        {
            "serve.request_seconds./v1/test": [0.0004, 0.0011, 0.003],
            "enumeration.delay_seconds": [0.0, 2e-06, 5e-06, 0.75],
        },
        {"repro.storage.trie.TrieStore.lookup": 7},
    ),
    "1": _export(
        {"engine.test": 4, "engine.next_solution": 1},
        {"serve.request_seconds./v1/test": [0.0009, 0.25]},
        {
            "repro.storage.trie.TrieStore.lookup": 5,
            "repro.core.engine.QueryIndex.test": 4,
        },
    ),
}

POOL_GAUGES = {"pool.workers": 2.0, "pool.respawns": 0.0}
WORKER_GAUGES = {
    "0": {"serve.cache.entries": 1.0},
    "1": {"serve.cache.entries": 2.0, "watchdog.steps_seen": 12.0},
}

#: The pool exposition for the exports above, as served before the two
#: renderers were folded into one (timer families aside: timers no
#: longer exist).
POOL_GOLDEN = """\
# HELP repro_engine_next_solution_total repro counter engine.next_solution (pool-merged)
# TYPE repro_engine_next_solution_total counter
repro_engine_next_solution_total 1
repro_engine_next_solution_total{worker="1"} 1
# HELP repro_engine_test_total repro counter engine.test (pool-merged)
# TYPE repro_engine_test_total counter
repro_engine_test_total 7
repro_engine_test_total{worker="0"} 3
repro_engine_test_total{worker="1"} 4
# HELP repro_serve_cache_hits_total repro counter serve.cache.hits (pool-merged)
# TYPE repro_serve_cache_hits_total counter
repro_serve_cache_hits_total 2
repro_serve_cache_hits_total{worker="0"} 2
# HELP repro_enumeration_delay_seconds repro histogram enumeration.delay_seconds (pool-merged)
# TYPE repro_enumeration_delay_seconds histogram
repro_enumeration_delay_seconds_bucket{le="0"} 1
repro_enumeration_delay_seconds_bucket{le="3.814697265625e-06"} 2
repro_enumeration_delay_seconds_bucket{le="7.62939453125e-06"} 3
repro_enumeration_delay_seconds_bucket{le="1"} 4
repro_enumeration_delay_seconds_bucket{le="+Inf"} 4
repro_enumeration_delay_seconds_count 4
repro_enumeration_delay_seconds_sum 0.750007
repro_enumeration_delay_seconds_count{worker="0"} 4
repro_enumeration_delay_seconds_sum{worker="0"} 0.750007
# HELP repro_serve_request_seconds__v1_test repro histogram serve.request_seconds./v1/test (pool-merged)
# TYPE repro_serve_request_seconds__v1_test histogram
repro_serve_request_seconds__v1_test_bucket{le="0.00048828125"} 1
repro_serve_request_seconds__v1_test_bucket{le="0.0009765625"} 2
repro_serve_request_seconds__v1_test_bucket{le="0.001953125"} 3
repro_serve_request_seconds__v1_test_bucket{le="0.00390625"} 4
repro_serve_request_seconds__v1_test_bucket{le="0.5"} 5
repro_serve_request_seconds__v1_test_bucket{le="+Inf"} 5
repro_serve_request_seconds__v1_test_count 5
repro_serve_request_seconds__v1_test_sum 0.2554
repro_serve_request_seconds__v1_test_count{worker="0"} 3
repro_serve_request_seconds__v1_test_sum{worker="0"} 0.0045000000000000005
repro_serve_request_seconds__v1_test_count{worker="1"} 2
repro_serve_request_seconds__v1_test_sum{worker="1"} 0.2509
# HELP repro_contract_calls_total calls per contracted function (pool-merged)
# TYPE repro_contract_calls_total counter
repro_contract_calls_total{function="repro.core.engine.QueryIndex.test"} 4
repro_contract_calls_total{function="repro.storage.trie.TrieStore.lookup"} 12
# HELP repro_pool_respawns repro gauge pool.respawns
# TYPE repro_pool_respawns gauge
repro_pool_respawns 0
# HELP repro_pool_workers repro gauge pool.workers
# TYPE repro_pool_workers gauge
repro_pool_workers 2
repro_serve_cache_entries{worker="0"} 1
repro_serve_cache_entries{worker="1"} 2
repro_watchdog_steps_seen{worker="1"} 12
"""


def _histogram_families(text: str) -> dict[str, list[tuple[str, int]]]:
    """metric -> its unlabeled ``_bucket`` series, in exposition order."""
    families = re.findall(r"^# TYPE (\S+) histogram$", text, re.M)
    return {
        metric: [
            (le, int(count))
            for le, count in re.findall(
                rf'^{re.escape(metric)}_bucket\{{le="([^"]+)"\}} (\d+)$', text, re.M
            )
        ]
        for metric in families
    }


def test_pool_exposition_matches_golden():
    text = render_prometheus(
        merge_snapshots(list(WORKER_EXPORTS.values())),
        gauges=POOL_GAUGES,
        workers=WORKER_EXPORTS,
        worker_gauges=WORKER_GAUGES,
    )
    assert text == POOL_GOLDEN


def test_single_export_histograms_are_cumulative():
    export = WORKER_EXPORTS["0"]
    text = render_prometheus(export, gauges={"serve.cache.entries": 1.0})
    assert "worker=" not in text
    assert "(pool-merged)" not in text
    families = _histogram_families(text)
    assert set(families) == {
        "repro_enumeration_delay_seconds",
        "repro_serve_request_seconds__v1_test",
    }
    for name, snap in export["histograms"].items():
        metric = "repro_" + re.sub(r"[^a-zA-Z0-9_]", "_", name)
        buckets = families[metric]
        counts = [count for _, count in buckets]
        assert counts == sorted(counts)  # cumulative
        assert buckets[-1] == ("+Inf", snap["count"])
        assert re.search(rf"^{metric}_count {snap['count']}$", text, re.M)
        # every finite edge is a bucket's upper edge, in increasing order
        edges = [float(le) for le, _ in buckets[:-1]]
        assert edges == sorted(edges)
        assert edges == [bucket_upper_edge(int(e)) for e in sorted(map(int, snap["buckets"]))]
    assert "# TYPE repro_engine_test_total counter" in text
    assert re.search(r"^repro_serve_cache_entries 1$", text, re.M)


def test_no_registry_still_emits_gauges():
    text = render_prometheus(None, gauges={"serve.cache.entries": 0.0})
    assert text == (
        "# HELP repro_serve_cache_entries repro gauge serve.cache.entries\n"
        "# TYPE repro_serve_cache_entries gauge\n"
        "repro_serve_cache_entries 0\n"
    )
    assert render_prometheus(None) == ""
