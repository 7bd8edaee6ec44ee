"""The shared index cache: one warm ``QueryIndex`` per fingerprint.

This is the server-side realization of the paper's amortization story:
Theorem 2.3's pseudo-linear preprocessing is paid **once per distinct
(graph, query, order, method, config)** — the PR-3 fingerprint — and
every later request answers in constant time from the warm object.  Three
tiers, coldest to warmest:

1. **build** — no snapshot, no cached object: run ``open_index`` and
   (best-effort) write a snapshot;
2. **snapshot** — a valid ``.rpx`` snapshot exists in ``snapshot_dir``:
   unpickle instead of rebuilding (the ``repro warm`` command pre-seeds
   this tier);
3. **hit** — the built object is live in the in-process LRU: zero cost.

Concurrency rules (the only locks in the read path of the whole server):

* the LRU map and the in-flight build table are mutated under one lock;
* builds are **deduplicated per fingerprint**: the first requester
  becomes the owner and builds, concurrent requesters for the same key
  block on an event and share the result (status ``"joined"``) — N
  simultaneous cold misses trigger exactly one build;
* requesters never hold the lock while building or waiting;
* a waiter gives up after ``build_wait_seconds`` (503 upstream), and at
  most ``max_in_flight_builds`` *distinct* keys may build at once —
  both knobs bound how much preprocessing a traffic spike can demand.

The cached ``QueryIndex`` objects themselves need no locks: see the
thread-safety note on :class:`~repro.core.engine.QueryIndex`.
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import Any

from repro.contracts import guarded_by, locked
from repro.core.config import DEFAULT_CONFIG, EngineConfig
from repro.core.engine import QueryIndex, open_index
from repro.graphs.colored_graph import ColoredGraph
from repro.logic.syntax import Formula, Var
from repro.persist import (
    SnapshotError,
    cache_path,
    index_fingerprint,
    load_index,
    save_index,
)
from repro.trace.runtime import span as _trace_span

logger = logging.getLogger("repro.serve")


class _Build:
    """One in-flight build: the owner fills it, waiters block on it."""

    __slots__ = ("event", "index", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.index: QueryIndex | None = None
        self.error: BaseException | None = None


class BuildWaitTimeout(TimeoutError):
    """A waiter outlived ``build_wait_seconds``; the build may still finish."""


class TooManyBuilds(RuntimeError):
    """``max_in_flight_builds`` distinct keys are already preprocessing."""


@guarded_by("_lock", "_entries", "_building", "stats")
class IndexCache:
    """An LRU of built :class:`QueryIndex` objects keyed by fingerprint.

    Parameters
    ----------
    max_entries:
        Live indexes kept warm; least-recently-used beyond that are
        dropped (their snapshots, if any, survive on disk).
    snapshot_dir:
        Optional ``.rpx`` snapshot directory backing cold starts; misses
        consult it before building and write to it after building.
    build_wait_seconds:
        How long a request waits for another thread's in-flight build of
        the same key before giving up with :class:`BuildWaitTimeout`.
    max_in_flight_builds:
        Cap on concurrent builds of *distinct* keys; beyond it new cold
        misses fail fast with :class:`TooManyBuilds`.
    build_fn:
        Injection point for tests; defaults to
        :func:`repro.core.engine.open_index`.
    """

    def __init__(
        self,
        max_entries: int = 8,
        snapshot_dir: str | Path | None = None,
        config: EngineConfig = DEFAULT_CONFIG,
        build_wait_seconds: float = 60.0,
        max_in_flight_builds: int = 4,
        build_fn: Callable[..., QueryIndex] = open_index,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.snapshot_dir = None if snapshot_dir is None else Path(snapshot_dir)
        self.config = config
        self.build_wait_seconds = build_wait_seconds
        self.max_in_flight_builds = max_in_flight_builds
        self._build_fn = build_fn
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, QueryIndex] = OrderedDict()
        self._building: dict[str, _Build] = {}
        self.stats: dict[str, int] = {
            "hits": 0,
            "joined": 0,
            "snapshot_loads": 0,
            "builds": 0,
            "evictions": 0,
            "busy_rejections": 0,
            "wait_timeouts": 0,
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def fingerprint(
        self,
        graph: ColoredGraph,
        query: Formula | str,
        free_order: Sequence[Var | str] | None = None,
        method: str = "auto",
        graph_digest_hint: str | None = None,
    ) -> str:
        """The cache key for a request (see :mod:`repro.persist.fingerprint`)."""
        return index_fingerprint(
            graph, query, free_order, self.config, method,
            graph_digest_hint=graph_digest_hint,
        )

    def get(
        self,
        graph: ColoredGraph,
        query: Formula | str,
        free_order: Sequence[Var | str] | None = None,
        method: str = "auto",
        graph_digest_hint: str | None = None,
    ) -> tuple[QueryIndex, str]:
        """The warm index for this request, plus how it was obtained.

        Returns ``(index, status)`` with status one of ``"hit"``
        (live in the LRU), ``"joined"`` (shared another request's
        in-flight build), ``"snapshot"`` (cold start from disk) or
        ``"built"`` (full preprocessing ran).  Raises whatever the build
        raises (e.g. ``DecompositionError`` for ``method="indexed"`` on
        an undecomposable query), :class:`BuildWaitTimeout`, or
        :class:`TooManyBuilds`.
        """
        key = self.fingerprint(graph, query, free_order, method, graph_digest_hint)
        return self.get_keyed(key, graph, query, free_order, method)

    def get_keyed(
        self,
        key: str,
        graph: ColoredGraph,
        query: Formula | str,
        free_order: Sequence[Var | str] | None = None,
        method: str = "auto",
    ) -> tuple[QueryIndex, str]:
        """:meth:`get` for a caller that already holds the request's
        :meth:`fingerprint` ``key`` (so it is computed once per request)."""
        with _trace_span("cache.get", fingerprint=key[:12]) as sp:
            index, status = self._get(key, graph, query, free_order, method)
            if sp is not None:
                sp.attributes["status"] = status
            return index, status

    def _get(
        self,
        key: str,
        graph: ColoredGraph,
        query: Formula | str,
        free_order: Sequence[Var | str] | None,
        method: str,
    ) -> tuple[QueryIndex, str]:
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.stats["hits"] += 1
                return cached, "hit"
            build = self._building.get(key)
            if build is None:
                if len(self._building) >= self.max_in_flight_builds:
                    self.stats["busy_rejections"] += 1
                    raise TooManyBuilds(
                        f"{len(self._building)} index builds already in flight "
                        f"(max_in_flight_builds={self.max_in_flight_builds})"
                    )
                build = self._building[key] = _Build()
                owner = True
            else:
                owner = False
        if owner:
            return self._build(key, build, graph, query, free_order, method)
        # share the owner's result instead of building the same key twice
        if not build.event.wait(self.build_wait_seconds):
            with self._lock:
                self.stats["wait_timeouts"] += 1
            raise BuildWaitTimeout(
                f"timed out after {self.build_wait_seconds:.1f}s waiting for "
                f"an in-flight build of {key[:12]}..."
            )
        if build.error is not None:
            raise build.error
        assert build.index is not None
        with self._lock:
            self.stats["joined"] += 1
        return build.index, "joined"

    def _build(
        self,
        key: str,
        build: _Build,
        graph: ColoredGraph,
        query: Formula | str,
        free_order: Sequence[Var | str] | None,
        method: str,
    ) -> tuple[QueryIndex, str]:
        """Owner path: snapshot-or-build outside the lock, then publish."""
        try:
            index, status = self._load_or_build(key, graph, query, free_order, method)
            build.index = index
        except BaseException as exc:
            build.error = exc
            raise
        finally:
            build.event.set()
            with self._lock:
                self._building.pop(key, None)
                if build.index is not None:
                    self._insert(key, build.index)
        return index, status

    def _load_or_build(
        self,
        key: str,
        graph: ColoredGraph,
        query: Formula | str,
        free_order: Sequence[Var | str] | None,
        method: str,
    ) -> tuple[QueryIndex, str]:
        if self.snapshot_dir is not None:
            path = cache_path(self.snapshot_dir, key)
            if path.exists():
                try:
                    index = load_index(path, expected_fingerprint=key)
                except SnapshotError as exc:
                    logger.warning("snapshot rejected, rebuilding: %s", exc)
                else:
                    with self._lock:
                        self.stats["snapshot_loads"] += 1
                    return index, "snapshot"
        index = self._build_fn(
            graph, query, free_order=free_order, method=method, config=self.config
        )
        with self._lock:
            self.stats["builds"] += 1
        if self.snapshot_dir is not None:
            try:
                save_index(index, cache_path(self.snapshot_dir, key), key)
            except OSError as exc:  # a read-only snapshot dir degrades gracefully
                logger.warning("could not write snapshot for %s: %s", key[:12], exc)
        return index, "built"

    @locked("_lock")
    def _insert(self, key: str, index: QueryIndex) -> None:
        """Publish into the LRU and evict; caller must hold ``self._lock``."""
        self._entries[key] = index
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats["evictions"] += 1

    def seed(self, key: str, index: QueryIndex) -> None:
        """Publish a pre-built index under ``key`` (pool pre-fork warmup).

        The pool parent loads snapshots and re-homes their arena buffers
        into shared memory *before* forking, then seeds them here so every
        worker starts with the index already warm — status ``"hit"`` on
        the first request.  Seeding counts as a snapshot load in the stats
        since that is what it replaced.
        """
        with self._lock:
            self._insert(key, index)
            self.stats["snapshot_loads"] += 1

    def replace(self, key: str, index: QueryIndex) -> None:
        """Publish a new update generation under an existing fingerprint.

        ``/v1/update`` repairs a warm index into a new generation
        (version + 1) and republishes it here so every later request for
        the same static fingerprint answers at the new version.  The
        snapshot (if any) is overwritten so the lineage survives both
        eviction and restart — rebuilding from the graph *spec* would
        silently rewind to version 0.
        """
        with self._lock:
            self._insert(key, index)
        if self.snapshot_dir is not None:
            try:
                save_index(index, cache_path(self.snapshot_dir, key), key)
            except OSError as exc:
                logger.warning(
                    "could not write snapshot for %s: %s", key[:12], exc
                )

    def drop(self, key: str) -> bool:
        """Evict one fingerprint; True if it was cached."""
        with self._lock:
            return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        """Evict everything (snapshots on disk are untouched)."""
        with self._lock:
            self._entries.clear()

    def snapshot_stats(self) -> dict[str, Any]:
        """A JSON-ready view for ``/metrics`` and ``/v1/stats``."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "in_flight_builds": len(self._building),
                "snapshot_dir": str(self.snapshot_dir) if self.snapshot_dir else None,
                # update generation per warm entry (abridged fingerprints),
                # so /v1/stats shows which version each shard answers at
                "versions": {
                    key[:12]: index.version
                    for key, index in self._entries.items()
                },
                **dict(self.stats),
            }
