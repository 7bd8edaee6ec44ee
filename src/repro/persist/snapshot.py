"""Versioned on-disk snapshots of built query indexes.

The paid-once contract of Theorem 2.3 — ``O(n^{1+eps})`` preprocessing,
then O(1) per answer — only holds within one process unless the built
structure survives on disk.  A snapshot file stores one
:class:`~repro.core.engine.QueryIndex` (hence the whole tower:
``NextSolutionIndex``/``NaiveIndex``, ``NeighborhoodCover``, the
``StoredFunction`` tries and the bag-solver tables) as:

* one JSON header line — magic string, format version, the
  :func:`~repro.persist.fingerprint.index_fingerprint` the snapshot was
  built for, a SHA-256 integrity checksum over the payload, and
  human-readable metadata (method, arity, preprocessing seconds);
* the pickled payload.

**Trust rules** (enforced by :func:`load_index`, relied on by
:func:`load_or_build`): a snapshot is served only when the magic and
format version match, the payload checksum verifies, and the fingerprint
equals the one recomputed from the caller's current (graph, query,
order, method, config).  Anything else raises a typed
:class:`SnapshotError`; :func:`load_or_build` logs it and rebuilds —
a stale or corrupted snapshot is never trusted and never fatal.

Payloads are pickles: load snapshots only from directories you would
``import`` from.  The fingerprint/checksum guard against staleness and
corruption, not against malicious files.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
from collections.abc import Sequence
from pathlib import Path
from typing import Any

from repro.contracts import build_phase
from repro.core.config import DEFAULT_CONFIG, EngineConfig
from repro.core.engine import QueryIndex, open_index
from repro.errors import ReproError
from repro.graphs.colored_graph import ColoredGraph
from repro.logic.syntax import Formula, Var
from repro.metrics.runtime import count as _metrics_count
from repro.persist.fingerprint import FORMAT_VERSION, index_fingerprint
from repro.trace.runtime import span as _trace_span

logger = logging.getLogger("repro.persist")

MAGIC = "repro-index-snapshot"

#: File extension used by cache directories (one file per fingerprint).
SNAPSHOT_SUFFIX = ".rpx"


class SnapshotError(ReproError):
    """A snapshot could not be served; the caller should rebuild."""


class SnapshotCorrupted(SnapshotError):
    """Unparseable header, checksum mismatch, or a broken payload."""


class SnapshotVersionMismatch(SnapshotError):
    """The snapshot was written by an incompatible format version."""


class SnapshotStale(SnapshotError):
    """Valid file, but built for a different (graph, query, config)."""


# ----------------------------------------------------------------------
# save / load


def save_index(
    index: QueryIndex, path: str | Path, fingerprint: str
) -> dict[str, Any]:
    """Write ``index`` to ``path`` atomically; returns the header written.

    The write goes through a same-directory temp file and ``os.replace``
    so a concurrent reader never observes a half-written snapshot.
    """
    path = Path(path)
    with _trace_span("persist.save", "persist.save_seconds") as sp:
        payload = pickle.dumps(index, protocol=pickle.HIGHEST_PROTOCOL)
        if sp is not None:
            sp.attributes["bytes"] = len(payload)
        header = {
            "magic": MAGIC,
            "format_version": FORMAT_VERSION,
            "fingerprint": fingerprint,
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "payload_bytes": len(payload),
            "method": index.method,
            "arity": index.arity,
            "free_order": [v.name for v in index.free_order],
            "preprocessing_seconds": index.preprocessing_seconds,
            "graph_n": index.graph.n,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        try:
            with open(tmp, "wb") as handle:
                handle.write(json.dumps(header, sort_keys=True).encode() + b"\n")
                handle.write(payload)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    return header


def read_header(path: str | Path) -> dict[str, Any]:
    """Parse and sanity-check only a snapshot's JSON header line."""
    try:
        with open(path, "rb") as handle:
            first = handle.readline()
    except OSError as exc:
        raise SnapshotCorrupted(f"{path}: {exc.strerror or exc}") from None
    try:
        header = json.loads(first.decode())
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise SnapshotCorrupted(f"{path}: unparseable snapshot header") from None
    if not isinstance(header, dict) or header.get("magic") != MAGIC:
        raise SnapshotCorrupted(f"{path}: not a {MAGIC} file")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise SnapshotVersionMismatch(
            f"{path}: format version {version!r}, this reader "
            f"supports {FORMAT_VERSION}"
        )
    return header


def load_index(
    path: str | Path, expected_fingerprint: str | None = None
) -> QueryIndex:
    """Load a snapshot, verifying integrity and (optionally) freshness.

    Raises :class:`SnapshotCorrupted` / :class:`SnapshotVersionMismatch` /
    :class:`SnapshotStale`; never returns an unverified index.
    """
    path = Path(path)
    with _trace_span("persist.load", "persist.load_seconds") as sp:
        header = read_header(path)
        with open(path, "rb") as handle:
            handle.readline()
            payload = handle.read()
        if sp is not None:
            sp.attributes["bytes"] = len(payload)
        digest = hashlib.sha256(payload).hexdigest()
        if digest != header.get("payload_sha256"):
            raise SnapshotCorrupted(
                f"{path}: payload checksum mismatch (file truncated or edited)"
            )
        if (
            expected_fingerprint is not None
            and header.get("fingerprint") != expected_fingerprint
        ):
            raise SnapshotStale(
                f"{path}: fingerprint {str(header.get('fingerprint'))[:12]}... does "
                f"not match the requested (graph, query, order, config) "
                f"{expected_fingerprint[:12]}..."
            )
        try:
            # restoring slotted index classes goes through __setstate__'s
            # setattr loop — that is build-phase work, so the paranoid
            # freeze tripwire must see it as such
            with build_phase():
                index = pickle.loads(payload)
        except Exception as exc:  # pickle raises a zoo of types on bad bytes
            raise SnapshotCorrupted(
                f"{path}: payload does not unpickle: {exc}"
            ) from None
        if not isinstance(index, QueryIndex):
            raise SnapshotCorrupted(
                f"{path}: payload is a {type(index).__name__}, not a QueryIndex"
            )
    return index


# ----------------------------------------------------------------------
# the cache front end


def cache_path(cache_dir: str | Path, fingerprint: str) -> Path:
    """Where a snapshot with this fingerprint lives inside a cache dir."""
    return Path(cache_dir) / f"{fingerprint}{SNAPSHOT_SUFFIX}"


def load_or_build(
    graph: ColoredGraph,
    query: Formula | str,
    free_order: Sequence[Var | str] | None = None,
    method: str = "auto",
    config: EngineConfig = DEFAULT_CONFIG,
    cache_dir: str | Path = ".repro-cache",
) -> tuple[QueryIndex, str]:
    """Serve from the snapshot cache, rebuilding (and re-caching) on any miss.

    Returns ``(index, status)`` with ``status`` one of:

    * ``"hit"`` — a valid snapshot answered; no preprocessing ran;
    * ``"miss"`` — no snapshot existed; built and saved;
    * ``"rebuilt"`` — a snapshot existed but was corrupted, stale or
      version-mismatched; the problem was logged, the index rebuilt from
      scratch and the snapshot replaced.

    The graceful-rebuild guarantee: this function never raises because of
    a bad cache file, and never serves one.
    """
    fingerprint = index_fingerprint(graph, query, free_order, config, method)
    path = cache_path(cache_dir, fingerprint)
    status = "miss"
    with _trace_span("persist.load_or_build") as sp:
        if path.exists():
            try:
                index = load_index(path, expected_fingerprint=fingerprint)
                _metrics_count("persist.cache_hits")
                if sp is not None:
                    sp.attributes["status"] = "hit"
                return index, "hit"
            except SnapshotError as exc:
                logger.warning("snapshot rejected, rebuilding: %s", exc)
                status = "rebuilt"
        _metrics_count("persist.cache_misses")
        index = open_index(
            graph, query, free_order=free_order, method=method, config=config
        )
        try:
            save_index(index, path, fingerprint)
        except OSError as exc:  # a read-only cache degrades to cold builds
            logger.warning("could not write snapshot %s: %s", path, exc)
        if sp is not None:
            sp.attributes["status"] = status
    return index, status


def warm(
    graph: ColoredGraph,
    query: Formula | str,
    path: str | Path,
    free_order: Sequence[Var | str] | None = None,
    method: str = "auto",
    config: EngineConfig = DEFAULT_CONFIG,
) -> tuple[QueryIndex, dict[str, Any]]:
    """Build an index and snapshot it to an explicit ``path``.

    The ``repro warm`` command's engine: returns the built index and the
    header that was written (fingerprint, sizes, timings).
    """
    fingerprint = index_fingerprint(graph, query, free_order, config, method)
    index = open_index(
        graph, query, free_order=free_order, method=method, config=config
    )
    header = save_index(index, path, fingerprint)
    return index, header
