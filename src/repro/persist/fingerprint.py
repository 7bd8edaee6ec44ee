"""Snapshot fingerprints: when is an on-disk index still the right one?

Theorem 2.3's preprocessing is a pure function of four inputs — the
graph, the query, the output coordinate order and the engine
configuration.  A snapshot is valid for a request exactly when all four
match, so the fingerprint is a SHA-256 over:

* the graph's canonical edge-list serialization (``dumps_edge_list`` is
  deterministic and sorted, so isomorphic *encodings* of the same graph
  hash equal and any content change — edge, color, vertex count —
  invalidates);
* the parsed query's canonical ``repr`` (whitespace and formatting of
  the textual query do not matter, operator structure does);
* the free-variable order (it fixes the lexicographic output order the
  index is built around);
* the chosen build method (``indexed``/``naive``/``auto`` resolve to
  different implementations);
* every :class:`~repro.core.config.EngineConfig` field **except**
  ``workers`` — thresholds and exponents shape the built structure, but
  ``workers`` only chooses the build strategy (proven output-equivalent
  by the parallel-equivalence tests), so a snapshot warmed with
  ``workers=8`` serves a ``workers=1`` query;
* the snapshot format version, so readers never parse a format they do
  not understand.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import fields

from repro.core.config import EngineConfig
from repro.graphs.colored_graph import ColoredGraph
from repro.graphs.io import dumps_edge_list
from repro.logic.parser import parse_formula
from repro.logic.syntax import Formula, Var

#: Bump whenever the on-disk layout or the pickled object graph changes
#: incompatibly; readers reject newer (and differently-fingerprinted
#: older) snapshots and fall back to a rebuild.
#: v2: tries may pickle as flat-arena register files (compressed raw
#: array buffers) and ``StoredFunction`` records its layout.
#: v3: ``QueryIndex`` carries the versioned identity
#: ``(static_fingerprint, version)`` for live edge updates; pre-v3
#: pickles lack those fields.  The fingerprint itself stays the *static*
#: component — an updated index snapshots under its version-0 key, so
#: the whole update lineage shares one snapshot slot and reloading it
#: resumes at the persisted version, not at 0.
#: v4: one register file — tries pickle as ``repro.storage.trie.TrieStore``
#: over ``repro.storage.registers.RegisterFile`` (the flat arena) and
#: ``StoredFunction`` no longer records a layout; v3 class paths name the
#: deleted object layout or ``repro.storage.arena``.
FORMAT_VERSION = 4

#: EngineConfig fields that do not affect the built structure.
_BUILD_ONLY_FIELDS = frozenset({"workers"})


def graph_digest(graph: ColoredGraph) -> str:
    """SHA-256 of the graph's canonical (sorted, deterministic) encoding."""
    return hashlib.sha256(dumps_edge_list(graph).encode()).hexdigest()


def config_token(config: EngineConfig) -> str:
    """The fingerprint-relevant config fields as a stable string."""
    parts = [
        f"{f.name}={getattr(config, f.name)!r}"
        for f in fields(config)
        if f.name not in _BUILD_ONLY_FIELDS
    ]
    return ";".join(parts)


def index_fingerprint(
    graph: ColoredGraph,
    query: Formula | str,
    free_order: Sequence[Var | str] | None = None,
    config: EngineConfig | None = None,
    method: str = "auto",
    graph_digest_hint: str | None = None,
) -> str:
    """The cache key a snapshot of ``build_index(...)`` is stored under.

    ``graph_digest_hint`` lets callers that already computed
    :func:`graph_digest` (e.g. the query service's graph store, which
    digests each graph once at load time) skip the ``O(n)``
    re-serialization; it must be the digest of ``graph``.
    """
    phi = parse_formula(query) if isinstance(query, str) else query
    if free_order is None:
        order_token = "<default>"
    else:
        order_token = ",".join(
            v if isinstance(v, str) else v.name for v in free_order
        )
    config = config or EngineConfig()
    digest = graph_digest_hint if graph_digest_hint is not None else graph_digest(graph)
    blob = "\n".join(
        [
            f"format={FORMAT_VERSION}",
            f"graph={digest}",
            f"query={phi!r}",
            f"order={order_token}",
            f"method={method}",
            f"config={config_token(config)}",
        ]
    )
    return hashlib.sha256(blob.encode()).hexdigest()
