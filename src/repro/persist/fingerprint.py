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
* every :class:`~repro.core.config.EngineConfig` field — thresholds
  and exponents shape the built structure;
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
#: deleted object layout or ``repro.storage.arena``.  Snapshots whose
#: pickled ``EngineConfig`` still carries the removed ``workers`` field
#: load unchanged: unpickling puts it in the instance ``__dict__``, where
#: no field-based comparison, hash or fingerprint reads it.
#: v5: ``LastCoordinateIndex`` pickles its answer plan (``_plan``, the
#: resolved ``PlanEntry`` records per prefix type mask, bag queries
#: included) and drops its per-call bag-query memo; a v4 index has no
#: plan to answer from.  ``EngineConfig.precompute_far`` was removed
#: within v5 (Steps 12-13 always run at preprocessing): it leaves
#: ``config_token``, so a snapshot keyed with it is a clean miss, and a v5
#: pickle whose config still carries it loads as one carrying ``workers``
#: does (see v4).
#: v6: ``LastCoordinateIndex`` pickles every bag solver (``solvers``, a
#: list indexed by bag id), the plan entries whose sentence holds
#: (``live_plan``) and the Case-I structures (``far_structures``, a plain
#: dict) instead of three lazily filled memo cells; ``PatchedUnaryIndex``
#: no longer memoizes its merged solution list and ``LocalEvaluator`` has
#: no ``_free_cache`` slot.  A v5 pickle lacks the fields a v6 index
#: answers from.
#: v7: an arity-2 ``LastCoordinateIndex`` pickles no distance index
#: (``dist`` is None: a 1-tuple prefix has no pair to type), and a Case-I
#: ``PlanEntry`` lists every prefix position as ``outside``.  A v6 pickle
#: carries the old Case-I entries that v7 answering misreads.
FORMAT_VERSION = 7


def graph_digest(graph: ColoredGraph) -> str:
    """SHA-256 of the graph's canonical (sorted, deterministic) encoding."""
    return hashlib.sha256(dumps_edge_list(graph).encode()).hexdigest()


def config_token(config: EngineConfig) -> str:
    """Every config field as a stable string."""
    return ";".join(f"{f.name}={getattr(config, f.name)!r}" for f in fields(config))


def index_fingerprint(
    graph: ColoredGraph,
    query: Formula | str,
    free_order: Sequence[Var | str] | None = None,
    config: EngineConfig | None = None,
    method: str = "auto",
    graph_digest_hint: str | None = None,
) -> str:
    """The cache key a snapshot of ``open_index(...)`` is stored under.

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
