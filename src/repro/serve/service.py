"""The transport-agnostic query service behind ``repro serve``.

:class:`QueryService` turns JSON-ready request dicts into JSON-ready
response dicts; :mod:`repro.serve.http` is a thin HTTP skin over it, and
tests drive it directly.  All user-input failures raise
:class:`BadRequest` / :class:`ServiceUnavailable` (both
:class:`~repro.errors.ReproError` subclasses carrying an HTTP status),
never a traceback.

A request names a graph (one of four *graph specs*), a query, and the
operation's own arguments::

    {"edge_list": "n 3\\ne 0 1\\ne 1 2\\n", "query": "E(x, y)",
     "tuple": [0, 1]}                        # -> /v1/test
    {"graph_path": "g.json", "query": "...", "cursor": [5, 0],
     "limit": 200}                           # -> /v1/enumerate
    {"family": "grid", "n": 400, "seed": 7, "query": "..."}
    {"graph": {"kind": "colored_graph", ...}, "query": "..."}

Graphs are resolved through a small LRU (:class:`GraphStore`) that also
remembers each graph's content digest, so the per-request fingerprint
computation is O(1) after the first load — requests then cost exactly
what the paper promises: a cache lookup plus constant-time oracle calls.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from functools import lru_cache
from pathlib import Path
from typing import Any, NamedTuple

from repro.contracts import guarded_by
from repro.core.config import DEFAULT_CONFIG, EngineConfig
from repro.core.engine import QueryIndex
from repro.core.normal_form import DecompositionError
from repro.errors import GraphFormatError, ReproError
from repro.graphs.colored_graph import ColoredGraph
from repro.graphs.generators import FAMILIES
from repro.graphs.io import graph_from_json, loads_edge_list, read_edge_list, read_json
from repro.logic.diagnostics import explain
from repro.logic.parser import ParseError, parse_formula
from repro.logic.syntax import Formula
from repro.metrics.runtime import active as _metrics_active
from repro.persist.fingerprint import graph_digest
from repro.serve.cache import BuildWaitTimeout, IndexCache, TooManyBuilds

_METHODS = ("auto", "indexed", "naive")


@lru_cache(maxsize=256)
def _parse_query_text(text: str) -> Formula:
    """The formula for one query text, parsed once per distinct text.

    Formulas are frozen, so every request naming the same text can share
    one parse.  Memoized in a bounded, thread-safe LRU; a text that fails
    to parse raises and is not cached.
    """
    return parse_formula(text)


class _Resolved(NamedTuple):
    """One request resolved: its graph, parsed query, method and cache key."""

    graph: ColoredGraph
    phi: Formula
    method: str
    key: str


class ServeError(ReproError):
    """Base for request failures; carries the HTTP status to answer with."""

    http_status = 500


class BadRequest(ServeError):
    """Malformed or unsatisfiable request input (HTTP 400)."""

    exit_code = 2
    http_status = 400


class ServiceUnavailable(ServeError):
    """Transient overload: build backlog or wait timeout (HTTP 503)."""

    http_status = 503


class StaleCursor(ServeError):
    """A cursor pinned to an older index version (HTTP 409).

    Pagination is *cursor-stable across updates*: a cursor minted at
    version ``k`` either completes against version ``k`` or fails with
    this typed conflict — the service never silently mixes pages from
    different generations.  Clients restart the enumeration (or pin the
    old generation by keeping their own reference) on 409.
    """

    exit_code = 2
    http_status = 409


@guarded_by("_lock", "_entries")
class GraphStore:
    """A small LRU of loaded graphs, each with its content digest.

    Keys are *graph specs* (what the request said), values are
    ``(graph, digest)``.  Loading and digesting happen outside the lock;
    racing loads of the same spec both succeed and one result wins —
    idempotent, like the engine's own memoization.
    """

    def __init__(self, graph_root: str | Path | None, max_entries: int = 16) -> None:
        self.graph_root = None if graph_root is None else Path(graph_root).resolve()
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple[ColoredGraph, str]] = OrderedDict()

    def resolve(self, payload: dict[str, Any]) -> tuple[ColoredGraph, str]:
        """The payload's graph and its digest (loading and caching it)."""
        key, loader = self._spec(payload)
        with self._lock:
            found = self._entries.get(key)
            if found is not None:
                self._entries.move_to_end(key)
                return found
        graph = loader()
        entry = (graph, graph_digest(graph))
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        return entry

    def _spec(self, payload: dict[str, Any]):
        """Parse the graph spec: a hashable cache key plus a loader."""
        given = [
            k for k in ("graph_path", "edge_list", "graph", "family") if k in payload
        ]
        if len(given) != 1:
            raise BadRequest(
                "specify the graph with exactly one of 'graph_path', "
                f"'edge_list', 'graph' or 'family' (got {given or 'none'})"
            )
        kind = given[0]
        if kind == "graph_path":
            return self._path_spec(payload["graph_path"])
        if kind == "edge_list":
            text = payload["edge_list"]
            if not isinstance(text, str):
                raise BadRequest("'edge_list' must be a string")
            digest = hashlib.sha256(text.encode()).hexdigest()
            return ("edge_list", digest), lambda: self._load(loads_edge_list, text)
        if kind == "graph":
            doc = payload["graph"]
            if not isinstance(doc, dict):
                raise BadRequest("'graph' must be a JSON object document")
            canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
            digest = hashlib.sha256(canon.encode()).hexdigest()
            return ("graph", digest), lambda: self._load(graph_from_json, doc)
        family = payload["family"]
        if family not in FAMILIES:
            raise BadRequest(
                f"unknown family {family!r}; choose from {sorted(FAMILIES)}"
            )
        n = _require_int(payload, "n", minimum=0)
        seed = _require_int(payload, "seed", minimum=0, default=0)
        return (
            ("family", family, n, seed),
            lambda: FAMILIES[family](n, seed=seed),
        )

    def _path_spec(self, raw: Any):
        if self.graph_root is None:
            raise BadRequest(
                "'graph_path' requests are disabled (serve started without "
                "--graph-root)"
            )
        if not isinstance(raw, str) or not raw:
            raise BadRequest("'graph_path' must be a non-empty string")
        path = (self.graph_root / raw).resolve()
        if self.graph_root != path and self.graph_root not in path.parents:
            raise BadRequest(f"'graph_path' {raw!r} escapes the served graph root")
        try:
            stat = path.stat()
        except OSError:
            raise BadRequest(f"no such graph file: {raw!r}") from None
        key = ("path", str(path), stat.st_mtime_ns, stat.st_size)
        if path.suffix == ".json":
            return key, lambda: self._load_json_graph(path)
        return key, lambda: self._load(read_edge_list, path)

    def _load_json_graph(self, path: Path) -> ColoredGraph:
        loaded = self._load(read_json, path)
        if not isinstance(loaded, ColoredGraph):
            raise BadRequest(f"{path.name} holds a database, not a colored graph")
        return loaded

    @staticmethod
    def _load(reader, source):
        try:
            return reader(source)
        except GraphFormatError as exc:
            raise BadRequest(f"malformed graph: {exc}") from None
        except OSError as exc:
            raise BadRequest(f"could not read graph: {exc}") from None


class QueryService:
    """Stateful request handlers over one shared :class:`IndexCache`.

    One instance serves every connection thread of the HTTP server; all
    its own state is the two caches, which carry their own locks.
    """

    def __init__(
        self,
        cache_entries: int = 8,
        snapshot_dir: str | Path | None = None,
        graph_root: str | Path | None = None,
        max_page_size: int = 1000,
        default_page_size: int = 100,
        build_wait_seconds: float = 60.0,
        max_in_flight_builds: int = 4,
        config: EngineConfig = DEFAULT_CONFIG,
        max_batch_calls: int = 1024,
    ) -> None:
        if max_page_size < 1:
            raise ValueError(f"max_page_size must be >= 1, got {max_page_size}")
        if max_batch_calls < 1:
            raise ValueError(f"max_batch_calls must be >= 1, got {max_batch_calls}")
        self.max_page_size = max_page_size
        self.default_page_size = min(default_page_size, max_page_size)
        self.max_batch_calls = max_batch_calls
        #: Filled by the pool's worker bootstrap; merged into ``stats()``
        #: so ``/v1/stats`` reports per-worker occupancy.
        self.worker_stats_fn = None
        #: Serializes ``/v1/update`` applications per service: an update
        #: re-fetches the current generation inside the lock, so two
        #: concurrent updates compound instead of overwriting each other.
        self._update_lock = threading.Lock()
        self.graphs = GraphStore(graph_root)
        self.cache = IndexCache(
            max_entries=cache_entries,
            snapshot_dir=snapshot_dir,
            config=config,
            build_wait_seconds=build_wait_seconds,
            max_in_flight_builds=max_in_flight_builds,
        )

    # ------------------------------------------------------------------
    # endpoint handlers (payload dict in, response dict out)

    def handle_test(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Corollary 2.4 over HTTP: is ``tuple`` a solution?"""
        index, meta, _ = self._index_for(payload)
        values = _require_tuple(payload, "tuple", index.arity)
        return {"value": index.test(values), "index": meta}

    def handle_next(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Theorem 2.3 over HTTP: smallest solution ``>= tuple``."""
        index, meta, _ = self._index_for(payload)
        values = _require_tuple(payload, "tuple", index.arity)
        found = index.next_solution(values)
        return {
            "solution": None if found is None else list(found),
            "index": meta,
        }

    def handle_enumerate(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Corollary 2.5 over HTTP, cursor-paginated.

        ``cursor`` is the tuple to resume from (from the previous
        response's ``next_cursor``); ``limit`` defaults to
        ``default_page_size`` and is capped at ``max_page_size``.

        ``cursor_version`` (optional) pins the enumeration to one update
        generation: when it no longer matches the warm index's version,
        the request fails with a typed 409 :class:`StaleCursor` instead
        of silently mixing pages from different generations.
        """
        index, meta, _ = self._index_for(payload)
        limit = _require_int(
            payload, "limit", minimum=1, default=self.default_page_size
        )
        if limit > self.max_page_size:
            raise BadRequest(
                f"limit {limit} exceeds the page-size cap {self.max_page_size}"
            )
        if payload.get("cursor_version") is not None:
            pinned = _require_int(payload, "cursor_version", minimum=0)
            if pinned != index.version:
                raise StaleCursor(
                    f"cursor was minted at index version {pinned} but the "
                    f"index is now at version {index.version}; restart the "
                    "enumeration"
                )
        cursor = None
        if payload.get("cursor") is not None:
            cursor = _require_tuple(payload, "cursor", index.arity)
        page = index.enumerate_page(start=cursor, limit=limit)
        return {
            "items": [list(item) for item in page.items],
            "next_cursor": None if page.next_cursor is None else list(page.next_cursor),
            "index": meta,
        }

    def handle_update(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Apply one edge update; the index moves to version + 1.

        ``{"op": "insert"|"delete", "edge": [u, v]}`` alongside the usual
        graph spec / query / method.  The warm index is repaired
        ball-locally (:mod:`repro.core.repair`) into a *new* generation
        and republished under the same static fingerprint; in-flight
        readers of the old generation finish undisturbed, and cursors
        pinned to it get a typed 409 on their next page.  A semantically
        invalid edge (absent on delete, present or self-loop on insert,
        out-of-range endpoint) is a 400.
        """
        request = self._resolve_request(payload)
        op = payload.get("op")
        if op not in ("insert", "delete"):
            raise BadRequest(f"'op' must be 'insert' or 'delete', got {op!r}")
        edge = _require_tuple(payload, "edge", 2)
        updated, status = self._apply_update(request, op, edge)
        meta = {
            "status": status,
            "method": updated.method,
            "arity": updated.arity,
            "fingerprint": request.key[:12],
            "index_version": updated.version,
        }
        return {
            "applied": op,
            "edge": list(edge),
            "version": updated.version,
            "index": meta,
        }

    def handle_batch(self, payload: dict[str, Any]) -> dict[str, Any]:
        """N test/next/update calls against one index, amortizing the trip.

        ``calls`` is a list of ``{"op": "test"|"next", "tuple": [...]}``
        or ``{"op": "update", "action": "insert"|"delete", "edge": [u, v]}``;
        the response's ``results`` list is position-aligned (a bool per
        ``test``, a solution list or null per ``next``, an
        ``{"applied", "version"}`` object per ``update``).  Calls run in
        order: test/next calls after an update in the same batch answer
        against the updated generation.  Call *shapes* are validated
        up front (a malformed batch applies nothing); a semantically
        invalid edge mid-batch fails the batch after the earlier updates
        have been applied — batches are not transactions.
        """
        index, meta, request = self._index_for(payload)
        calls = payload.get("calls")
        if not isinstance(calls, list) or not calls:
            raise BadRequest("'calls' must be a non-empty list of call objects")
        if len(calls) > self.max_batch_calls:
            raise BadRequest(
                f"batch of {len(calls)} calls exceeds the "
                f"{self.max_batch_calls}-call cap"
            )
        for position, call in enumerate(calls):
            if not isinstance(call, dict):
                raise BadRequest(f"calls[{position}] must be an object")
            op = call.get("op")
            if op in ("test", "next"):
                _require_tuple(call, "tuple", index.arity)
            elif op == "update":
                if call.get("action") not in ("insert", "delete"):
                    raise BadRequest(
                        f"calls[{position}].action must be 'insert' or "
                        f"'delete', got {call.get('action')!r}"
                    )
                _require_tuple(call, "edge", 2)
            else:
                raise BadRequest(
                    f"calls[{position}].op must be 'test', 'next' or "
                    f"'update', got {op!r}"
                )
        results: list[Any] = []
        for call in calls:
            op = call["op"]
            if op == "test":
                results.append(index.test(_require_tuple(call, "tuple", index.arity)))
            elif op == "next":
                found = index.next_solution(_require_tuple(call, "tuple", index.arity))
                results.append(None if found is None else list(found))
            else:
                index, _ = self._apply_update(
                    request, call["action"], _require_tuple(call, "edge", 2)
                )
                results.append(
                    {"applied": call["action"], "version": index.version}
                )
        meta = {**meta, "index_version": index.version}
        return {"results": results, "index": meta}

    def handle_count(self, payload: dict[str, Any]) -> dict[str, Any]:
        """|phi(G)| via ``QueryIndex.count`` (enumerates only at arity >= 3)."""
        index, meta, _ = self._index_for(payload)
        return {"count": index.count(), "index": meta}

    def handle_explain(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Fragment diagnosis — needs only ``query``, no graph."""
        phi = self._parse_query(payload)
        report = explain(phi)
        return {
            "decomposable": report.decomposable,
            "arity": report.arity,
            "problems": list(report.problems),
            "report": report.render(),
        }

    def metrics_snapshot(self) -> dict[str, Any]:
        """The ``/metrics`` payload: registry dump plus cache stats."""
        registry = _metrics_active()
        out: dict[str, Any] = {
            "collecting": registry is not None,
            "cache": self.cache.snapshot_stats(),
        }
        if registry is not None:
            out["registry"] = registry.snapshot()
        return out

    def stats(self) -> dict[str, Any]:
        """The ``/v1/stats`` payload: knobs and cache occupancy."""
        out: dict[str, Any] = {
            "cache": self.cache.snapshot_stats(),
            "max_page_size": self.max_page_size,
            "default_page_size": self.default_page_size,
            "max_batch_calls": self.max_batch_calls,
            "graph_root": (
                None if self.graphs.graph_root is None else str(self.graphs.graph_root)
            ),
        }
        if self.worker_stats_fn is not None:
            out["worker"] = self.worker_stats_fn()
        return out

    # ------------------------------------------------------------------
    # shared plumbing

    def _parse_query(self, payload: dict[str, Any]) -> Formula:
        query = payload.get("query")
        if not isinstance(query, str) or not query.strip():
            raise BadRequest("'query' must be a non-empty formula string")
        try:
            return _parse_query_text(query)
        except ParseError as exc:
            raise BadRequest(f"bad query: {exc}") from None

    def _resolve_request(self, payload: dict[str, Any]) -> _Resolved:
        """The request's graph, parsed query, method and cache key.

        The key is the request's one :meth:`IndexCache.fingerprint`; the
        cache lookup, the ``index`` meta and an update's republish all
        reuse it.
        """
        graph, digest = self.graphs.resolve(payload)
        phi = self._parse_query(payload)
        method = payload.get("method", "auto")
        if method not in _METHODS:
            raise BadRequest(f"unknown method {method!r}; choose from {_METHODS}")
        key = self.cache.fingerprint(graph, phi, method=method, graph_digest_hint=digest)
        return _Resolved(graph, phi, method, key)

    def _cached_index(self, request: _Resolved) -> tuple[QueryIndex, str]:
        """The warm index, with build failures mapped to typed errors."""
        try:
            return self.cache.get_keyed(
                request.key, request.graph, request.phi, method=request.method
            )
        except DecompositionError as exc:
            raise BadRequest(f"query is not decomposable: {exc}") from None
        except BuildWaitTimeout as exc:
            raise ServiceUnavailable(str(exc)) from None
        except TooManyBuilds as exc:
            raise ServiceUnavailable(str(exc)) from None

    def _index_for(
        self, payload: dict[str, Any]
    ) -> tuple[QueryIndex, dict[str, Any], _Resolved]:
        """Resolve graph + query to a warm index and response metadata.

        The ``index`` meta is the consistent response envelope: every
        endpoint that touches an index reports its (abridged) static
        fingerprint and current ``index_version`` alongside the result.
        The resolved request comes back too, for a batch's updates.
        """
        request = self._resolve_request(payload)
        index, status = self._cached_index(request)
        meta = {
            "status": status,
            "method": index.method,
            "arity": index.arity,
            "fingerprint": request.key[:12],
            "index_version": index.version,
        }
        return index, meta, request

    def _apply_update(
        self, request: _Resolved, action: str, edge: tuple[int, ...]
    ) -> tuple[QueryIndex, str]:
        """Repair the warm index one generation forward and republish it.

        Serialized under ``_update_lock``: the *current* generation is
        re-fetched inside the lock so concurrent updates compound.  The
        graph spec keeps naming the version-0 graph; the lineage lives in
        the cache (and its snapshot), keyed by the static fingerprint.
        """
        u, v = edge
        with self._update_lock:
            index, status = self._cached_index(request)
            try:
                updated = (
                    index.insert_edge(u, v)
                    if action == "insert"
                    else index.delete_edge(u, v)
                )
            except (ValueError, IndexError) as exc:
                raise BadRequest(f"cannot {action} edge {list(edge)}: {exc}") from None
            self.cache.replace(request.key, updated)
        return updated, status


def _require_int(
    payload: dict[str, Any],
    key: str,
    minimum: int | None = None,
    default: int | None = None,
) -> int:
    value = payload.get(key, default)
    if value is None:
        raise BadRequest(f"missing required field {key!r}")
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequest(f"{key!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise BadRequest(f"{key!r} must be >= {minimum}, got {value}")
    return value


def _require_tuple(payload: dict[str, Any], key: str, arity: int) -> tuple[int, ...]:
    value = payload.get(key)
    if not isinstance(value, (list, tuple)):
        raise BadRequest(f"{key!r} must be a list of {arity} integers")
    if len(value) != arity:
        raise BadRequest(
            f"{key!r} has {len(value)} values but the query's arity is {arity}"
        )
    for v in value:
        if isinstance(v, bool) or not isinstance(v, int):
            raise BadRequest(f"{key!r} must contain only integers, got {v!r}")
    return tuple(value)
