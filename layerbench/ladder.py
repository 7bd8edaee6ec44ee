"""The traced run: replay one payload set down the layer ladder.

Rungs, outermost first: the pre-fork pool, one ``repro serve`` process,
the in-process ``QueryService``, the ``QueryIndex`` facade, the
Theorem 5.1 tower (``NextSolutionIndex``), and the Storing-Theorem
tries.  Every payload is sent to each rung; the difference between two
adjacent rungs on the same payload is the outer layer's self time.  The
benchmark's own spans wrap every call (one trace id per payload); they
are kept in memory and written once, at the end, as JSON lines.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from layerbench.common import (
    DENSE,
    SPARSE,
    Server,
    answers_in,
    cache_totals,
    increment,
    median,
    quantile,
)

HTTP_PASSES = 2
INPROC_PASSES = 5

_HANDLERS = {
    "/v1/test": "handle_test",
    "/v1/next": "handle_next",
    "/v1/enumerate": "handle_enumerate",
    "/v1/batch": "handle_batch",
}


class SpanLog:
    """The benchmark's own spans, in memory until :meth:`write`.

    Spans are ``repro.trace.core.Span`` objects grouped in one
    ``Tracer`` per request, so the span file has the program's own
    JSON-lines shape.
    """

    def __init__(self) -> None:
        from repro.trace.core import Tracer

        self._tracer_cls = Tracer
        self.tracers: list[Any] = []

    def trace(self, name: str) -> Any:
        tracer = self._tracer_cls(name=name)
        self.tracers.append(tracer)
        return tracer

    def add(self, tracer: Any, name: str, start: float, end: float, **attrs: Any) -> None:
        from repro.trace.core import Span, new_span_id

        span = Span(tracer.trace_id, new_span_id(), None, name, start, attrs)
        span.end = end
        tracer.add(span)

    def record(self, name: str, start: float, end: float, **attrs: Any) -> None:
        """One request-sized span in a trace of its own."""
        self.add(self.trace(name), name, start, end, **attrs)

    def write(self, path: Path) -> int:
        from repro.trace.export import to_jsonl

        lines = [to_jsonl(tracer) for tracer in self.tracers if len(tracer)]
        path.write_text("\n".join(lines) + "\n")
        return sum(len(tracer) for tracer in self.tracers)


@dataclass
class LadderInput:
    #: ``(graph spec, graph, version-0 index)`` per served index
    targets: list[tuple[dict, Any, Any]]
    #: ``(path, payload)`` read requests, replayed at every rung
    payloads: list[tuple[str, dict]]
    #: in-process indexes of both queries on ``targets[0]``'s graph
    #: (``None``: the ladder builds them and times the builds)
    dense: Any
    sparse: Any
    build_s: dict[str, float]
    graph_s: float | None
    update_target: int
    update_edits: list[tuple[str, int, int]] | None
    #: cache totals from the workload's own server, if it ran one
    own_cache: dict[str, int] | None
    span_overhead: float


# ----------------------------------------------------------------------
# helpers


def find_tries(root: Any, budget: int = 400_000) -> list[Any]:
    """Every Storing-Theorem trie reachable from ``root``'s attributes."""
    from repro.storage.trie import TrieStore

    atoms = (int, float, str, bytes, bool, type(None), range)
    found: list[Any] = []
    seen: set[int] = set()
    stack = [root]
    while stack and len(seen) < budget:
        obj = stack.pop()
        if isinstance(obj, atoms) or id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, TrieStore):
            found.append(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            stack.extend(getattr(obj, "__dict__", {}).values())
            for cls in type(obj).__mro__:
                for slot in getattr(cls, "__slots__", ()):
                    if hasattr(obj, slot):
                        stack.append(getattr(obj, slot))
    return found


def snapshot_key(graph: Any, query: str) -> str:
    """The key ``repro serve`` files this (graph, query) snapshot under."""
    from repro.serve.cache import IndexCache

    return IndexCache().fingerprint(graph, query)


def load_snapshot(snapdir: Path, graph: Any, query: str) -> Any:
    from repro.persist import cache_path, load_index

    key = snapshot_key(graph, query)
    return load_index(cache_path(snapdir, key), expected_fingerprint=key)


def _freeze(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _http_result(path: str, body: dict) -> Any:
    if path == "/v1/test":
        return body["value"]
    if path == "/v1/next":
        return _freeze(body["solution"])
    if path == "/v1/enumerate":
        return _freeze([body["items"], body["next_cursor"]])
    return _freeze(body["results"])


def _index_call(index: Any, path: str, payload: dict) -> Any:
    if path == "/v1/test":
        return index.test(tuple(payload["tuple"]))
    if path == "/v1/next":
        return index.next_solution(tuple(payload["tuple"]))
    if path == "/v1/enumerate":
        page = index.enumerate_page(tuple(payload["cursor"]), payload["limit"])
        return [page.items, page.next_cursor]
    return [
        index.test(tuple(c["tuple"])) if c["op"] == "test" else index.next_solution(tuple(c["tuple"]))
        for c in payload["calls"]
    ]


def _tower_page(impl: Any, n: int, cursor: tuple, limit: int) -> list:
    """``QueryIndex.enumerate_page`` without the facade: bare oracle calls."""
    items: list = []
    current: tuple | None = cursor
    while len(items) < limit:
        found = impl.next_solution(current)
        if found is None:
            return [items, None]
        items.append(found)
        current = increment(found, n)
        if current is None:
            return [items, None]
    return [items, impl.next_solution(current)]


def _tower_call(impl: Any, n: int, path: str, payload: dict) -> Any:
    if path == "/v1/enumerate":
        return _tower_page(impl, n, tuple(payload["cursor"]), payload["limit"])
    return _index_call(impl, path, payload)


def _timed(fn, *args) -> tuple[float, Any]:
    tick = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - tick, result


def _spec_key(payload: dict) -> str:
    """Which served index a payload addresses."""
    return json.dumps([payload["seed"], payload["query"]])


# ----------------------------------------------------------------------
# legs


def tower_leg(index: Any, n: int, rng: random.Random, probes: int = 1500) -> dict:
    """Per-call tower times, and the facade's extra cost on the same probes
    (a probe where facade and tower disagree counts as a mismatch)."""
    impl = index._impl
    tower = {"next": [], "test": []}
    facade: list[float] = []
    mismatches = 0
    for i in range(probes):
        probe = (rng.randrange(n), rng.randrange(n))
        op = "test" if i % 2 else "next"
        bare = impl.test if op == "test" else impl.next_solution
        wrapped = index.test if op == "test" else index.next_solution
        bare(probe)  # the first call on a probe may fill lazy memo cells
        if i % 4 < 2:
            tower_s, expected = _timed(bare, probe)
            facade_s, got = _timed(wrapped, probe)
        else:
            facade_s, got = _timed(wrapped, probe)
            tower_s, expected = _timed(bare, probe)
        mismatches += got != expected
        tower[op].append(tower_s)
        facade.append(facade_s - tower_s)
    return {
        "next_p50": quantile(tower["next"], 0.5) * 1e6,
        "next_p99": quantile(tower["next"], 0.99) * 1e6,
        "test_p50": quantile(tower["test"], 0.5) * 1e6,
        "facade": facade,
        "mismatches": mismatches,
    }


def storage_leg(index: Any, rng: random.Random) -> dict:
    """Lookup/successor on the index's largest trie, plus counted register reads."""
    from repro.metrics import collect
    from repro.storage.trie import TrieStore

    store = max(find_tries(index), key=len)
    keys = [tuple(rng.randrange(store.n) for _ in range(store.k)) for _ in range(2000)]
    per_op: dict[str, list[float]] = {"lookup": [], "successor": []}
    for start in range(0, len(keys), 100):
        chunk = keys[start : start + 100]
        for op in ("lookup", "successor"):
            call = getattr(store, op)
            tick = time.perf_counter()
            for key in chunk:
                call(key)
            per_op[op].append((time.perf_counter() - tick) / len(chunk))
    # a fused walk (arena layout) bypasses the counted register API, so
    # count through the generic register-at-a-time walk when it exists
    generic = getattr(TrieStore, "_lookup_digits", None)
    encode = getattr(TrieStore, "_encode", None)
    counted = keys[:200]
    with collect(ops=True) as registry:
        for key in counted:
            if generic is not None and encode is not None:
                generic(store, encode(store, key))
            else:
                store.lookup(key)
    reads = sum(
        count
        for name, count in getattr(registry, "op_counts", {}).items()
        if "RegisterFile." in name
    )
    return {
        "lookup_us": median(per_op["lookup"]) * 1e6,
        "successor_us": median(per_op["successor"]) * 1e6,
        "reads_per_lookup": reads / len(counted),
        "trie": f"{type(store).__name__} n={store.n} k={store.k} keys={len(store)}",
    }


def obs_leg(index: Any, n: int, rng: random.Random, limit: int = 1000) -> dict:
    """Page throughput with metrics on / tracing on / both off, interleaved best-of."""
    from repro.metrics import collect
    from repro.trace.runtime import tracing

    arms = {
        "off": nullcontext,
        "metrics": lambda: collect(ops=False),
        "tracing": lambda: tracing("layerbench.obs"),
    }
    cursors = [(rng.randrange(n), rng.randrange(n)) for _ in range(64)]
    pages = 1
    while True:  # calibrate: one arm-round spans at least 0.15 s
        tick = time.perf_counter()
        for cursor in cursors[:pages]:
            index.enumerate_page(cursor, limit)
        if time.perf_counter() - tick >= 0.15 or pages >= len(cursors):
            break
        pages *= 2
    best = {arm: 0.0 for arm in arms}
    for round_no in range(5):
        order = list(arms)
        order = order[round_no % 3 :] + order[: round_no % 3]
        for arm in order:
            with arms[arm]():
                answers = 0
                tick = time.perf_counter()
                for cursor in cursors[:pages]:
                    answers += len(index.enumerate_page(cursor, limit))
                rate = answers / (time.perf_counter() - tick)
            best[arm] = max(best[arm], rate)
    return best


# ----------------------------------------------------------------------
# the ladder


def run_ladder(ctx: Any, lad: LadderInput) -> tuple[dict, int, int, dict]:
    """Per-layer metrics for one workload: ``(metrics, attempted, failed, notes)``."""
    from repro.api import open_index
    from repro.persist import cache_path, load_index, save_index
    from repro.serve import QueryService
    from repro.graphs.generators import FAMILIES

    rng = random.Random(f"ladder:{ctx.workload}:{ctx.seed}")
    spec0, graph0, _ = lad.targets[0]
    n = graph0.n
    build_s = dict(lad.build_s)
    graph_s = lad.graph_s
    if graph_s is None:
        tick = time.perf_counter()
        FAMILIES["grid"](spec0["n"], seed=spec0["seed"])
        graph_s = time.perf_counter() - tick
    dense, sparse = lad.dense, lad.sparse
    if dense is None:
        build_s["dense"], dense = _timed(open_index, graph0, DENSE)
    if sparse is None:
        build_s["sparse"], sparse = _timed(open_index, graph0, SPARSE)

    failed = attempted = 0
    # -- persist: snapshot every served index into the ladder's directory
    snapdir = ctx.run_dir / "ladder-snap"
    snapdir.mkdir()
    save_ms, load_ms, sizes = [], [], []
    keys = []
    for spec, graph, index in lad.targets:
        key = snapshot_key(graph, spec["query"])
        keys.append(key)
        path = cache_path(snapdir, key)
        save_ms.append(_timed(save_index, index, path, key)[0] * 1e3)
        sizes.append(path.stat().st_size)
        load_ms.append(_timed(load_index, path, key)[0] * 1e3)

    pool = single = None
    try:
        pool = Server(
            ["--pool-workers", "2", "--shards", "4", "--snapshot-dir", str(snapdir)],
            ctx.run_dir,
            "ladder-pool",
        )
        single = Server(["--snapshot-dir", str(snapdir)], ctx.run_dir, "ladder-serve")
        service = QueryService(snapshot_dir=snapdir)
        pool_conn, single_conn = pool.connect(), single.connect()
        for spec, _, _ in lad.targets:  # warm every rung, off the books
            warm = {**spec, "tuple": [0, 0]}
            for conn in (pool_conn, single_conn):
                status, _, _, _ = conn.post("/v1/next", warm)
                failed += status != 200
            service.handle_next(warm)

        by_spec = {_spec_key(spec): index for spec, _, index in lad.targets}
        rungs: dict[str, list[list[float]]] = {
            r: [[] for _ in lad.payloads] for r in ("pool", "http", "service", "engine", "tower")
        }
        tracers = [ctx.spans.trace(f"ladder {path}") for path, _ in lad.payloads]
        results: list[set] = [set() for _ in lad.payloads]
        workers: dict[str, int] = {}
        body_bytes = answers = 0
        # each HTTP rung replays the payloads back to back on its own
        # keep-alive connection, as a closed-loop client would: a pause
        # between requests (say, to visit the other rung) changes how the
        # kernel acknowledges them, and with it the latency measured
        for _ in range(HTTP_PASSES):
            for rung, conn in (("pool", pool_conn), ("http", single_conn)):
                for i, (path, payload) in enumerate(lad.payloads):
                    tick = time.perf_counter()
                    status, body, seconds, info = conn.post(path, payload)
                    ctx.spans.add(tracers[i], rung, tick, tick + seconds, path=path)
                    attempted += 1
                    if status != 200:
                        failed += 1
                        continue
                    rungs[rung][i].append(seconds)
                    results[i].add(_http_result(path, body))
                    if rung == "pool":
                        workers[info["worker"]] = workers.get(info["worker"], 0) + 1
                    else:
                        body_bytes += info["bytes"]
                        answers += answers_in(path, body)
        for i, (path, payload) in enumerate(lad.payloads):
            tracer = tracers[i]
            index = by_spec[_spec_key(payload)]
            handler = getattr(service, _HANDLERS[path])
            for _ in range(INPROC_PASSES):
                for rung, call in (
                    ("service", lambda: handler(payload)),
                    ("engine", lambda: _index_call(index, path, payload)),
                    ("tower", lambda: _tower_call(index._impl, n, path, payload)),
                ):
                    tick = time.perf_counter()
                    result = call()
                    tock = time.perf_counter()
                    ctx.spans.add(tracer, rung, tick, tock, path=path)
                    rungs[rung][i].append(tock - tick)
                    results[i].add(
                        _http_result(path, result) if rung == "service" else _freeze(result)
                    )
            attempted += 1
            failed += len(results[i]) != 1  # every rung must give the same answer
        pool_cache = cache_totals(pool.stats())
        pool_conn.close()

        # -- updates: HTTP, in-process service, and the bare repair
        spec_u, graph_u, index_u = lad.targets[lad.update_target]
        query_u = "dense" if spec_u["query"] == DENSE else "sparse"
        if lad.update_edits is not None:
            edits = lad.update_edits
        else:
            from layerbench.workloads import local_edits

            edits = local_edits(graph_u, random.Random(f"ladder-edits:{ctx.seed}"))[:4]
        key_u = keys[lad.update_target]
        service_u = QueryService(snapshot_dir=ctx.run_dir / "ladder-service-snap")
        service_u.cache.seed(key_u, index_u)
        http_ms, service_s, repair_s, update_bytes = [], [], [], []
        current = index_u
        for version, (op, u, v) in enumerate(edits, start=1):
            payload = {**spec_u, "op": op, "edge": [u, v]}
            status, body, seconds, _ = single_conn.post("/v1/update", payload)
            attempted += 1
            failed += status != 200 or body.get("version") != version
            http_ms.append(seconds * 1e3)
            update_bytes.append(cache_path(snapdir, key_u).stat().st_size)
            seconds, body = _timed(service_u.handle_update, payload)
            failed += body.get("version") != version
            service_s.append(seconds)
            mutate = current.insert_edge if op == "insert" else current.delete_edge
            seconds, current = _timed(mutate, u, v)
            repair_s.append(seconds)
        single_conn.close()
    finally:
        for server in (pool, single):
            if server is not None:
                server.stop()

    tower_dense = tower_leg(dense, n, rng)
    tower_sparse = tower_leg(sparse, n, rng)
    attempted += len(tower_dense["facade"]) + len(tower_sparse["facade"])
    failed += tower_dense["mismatches"] + tower_sparse["mismatches"]
    storage = storage_leg(dense, rng)
    obs = obs_leg(dense, n, rng)

    def diffs(outer: str, inner: str) -> list[float]:
        return [median(o) - median(i) for o, i in zip(rungs[outer], rungs[inner]) if o and i]

    framing = [
        s - median(svc) for single_s, svc in zip(rungs["http"], rungs["service"]) for s in single_s
    ]
    cache = lad.own_cache or pool_cache
    gets = cache["hits"] + cache["joined"] + cache["snapshot_loads"] + cache["builds"]
    metrics = {
        "pool.hop_ms_p50": (median(diffs("pool", "http")) * 1e3, "ms"),
        "pool.worker_share_max": (max(workers.values()) / sum(workers.values()), "ratio"),
        "http.framing_ms_p50": (quantile(framing, 0.5) * 1e3, "ms"),
        "http.framing_ms_p99": (quantile(framing, 0.99) * 1e3, "ms"),
        "http.response_bytes_per_answer": (body_bytes / answers, "B"),
        "service.dispatch_us_p50": (median(diffs("service", "engine")) * 1e6, "us"),
        "service.update_overhead_ms": (
            median([s - r for s, r in zip(service_s, repair_s)]) * 1e3, "ms"),
        "cache.hit_ratio": (cache["hits"] / gets, "ratio"),
        "cache.builds": (cache["builds"], "count"),
        "persist.bytes_per_update": (median(update_bytes), "B"),
        "persist.save_ms": (median(save_ms), "ms"),
        "persist.load_ms": (median(load_ms), "ms"),
        "persist.snapshot_bytes": (median(sizes), "B"),
        "engine.facade_us_p50": (
            median(tower_dense["facade"] + tower_sparse["facade"]) * 1e6, "us"),
        "engine.page_us_per_answer": (1e6 / obs["off"], "us"),
        "tower.next_us_p50.dense": (tower_dense["next_p50"], "us"),
        "tower.next_us_p50.sparse": (tower_sparse["next_p50"], "us"),
        "tower.next_us_p99.dense": (tower_dense["next_p99"], "us"),
        "tower.next_us_p99.sparse": (tower_sparse["next_p99"], "us"),
        "tower.test_us_p50.dense": (tower_dense["test_p50"], "us"),
        "tower.test_us_p50.sparse": (tower_sparse["test_p50"], "us"),
        "storage.lookup_us": (storage["lookup_us"], "us"),
        "storage.successor_us": (storage["successor_us"], "us"),
        "storage.register_reads_per_lookup": (storage["reads_per_lookup"], "count"),
        "repair.update_ms_p50": (median(repair_s) * 1e3, "ms"),
        "repair.rebuild_ratio": (median(repair_s) / build_s[query_u], "ratio"),
        "build.preprocess_s.dense": (build_s["dense"], "s"),
        "build.preprocess_s.sparse": (build_s["sparse"], "s"),
        "build.graph_s": (graph_s, "s"),
        "obs.base_answers_per_s": (obs["off"], "1/s"),
        "obs.metrics_on_ratio": (obs["metrics"] / obs["off"], "ratio"),
        "obs.tracing_on_ratio": (obs["tracing"] / obs["off"], "ratio"),
        "bench.span_overhead_ratio": (lad.span_overhead, "ratio"),
    }
    notes = {
        "ladder_payloads": len(lad.payloads),
        "ladder_update_http_ms_p50": round(median(http_ms), 3),
        "trie": storage["trie"],
        "ladder_pool_workers": workers,
    }
    return metrics, attempted, failed, notes
