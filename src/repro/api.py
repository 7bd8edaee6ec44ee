"""The stable public facade: open an index, query it, update it.

:func:`open_index` is the one front door for index construction.  It is
:func:`repro.core.engine.build_index` with the configuration surface made
keyword-only — positional call sites cannot silently swap ``free_order``
and ``method`` — and it is where the live-update API surfaces:

    >>> from repro.api import open_index
    >>> from repro.graphs import grid
    >>> index = open_index(grid(8, 8), "exists z. E(x, z) & E(z, y)")
    >>> index.version
    0
    >>> bumped = index.insert_edge(0, 9)
    >>> bumped.version, index.version   # persistent: the original survives
    (1, 0)
    >>> bumped.fingerprint[0] == index.fingerprint[0]
    True

``build_index`` (positional ``free_order``/``method``/``config`` for
backward compatibility) remains a thin documented alias — existing
callers and pickled snapshots keep working unchanged.  See
``docs/updates.md`` for the update model and version semantics.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.config import DEFAULT_CONFIG, EngineConfig
from repro.core.engine import Page, QueryIndex, build_index
from repro.graphs.colored_graph import ColoredGraph
from repro.logic.syntax import Formula, Var

__all__ = ["open_index", "build_index", "QueryIndex", "Page"]


def open_index(
    graph: ColoredGraph,
    query: Formula | str,
    *,
    free_order: Sequence[Var | str] | None = None,
    method: str = "auto",
    config: EngineConfig = DEFAULT_CONFIG,
) -> QueryIndex:
    """Preprocess ``graph`` for ``query`` and return the live index.

    Exactly :func:`repro.core.engine.build_index`, with everything past
    the two data arguments keyword-only.  The returned
    :class:`~repro.core.engine.QueryIndex` carries the versioned identity
    (:attr:`~repro.core.engine.QueryIndex.version`,
    :attr:`~repro.core.engine.QueryIndex.fingerprint`) and the persistent
    update methods (:meth:`~repro.core.engine.QueryIndex.insert_edge`,
    :meth:`~repro.core.engine.QueryIndex.delete_edge`).

    Parameters
    ----------
    graph:
        A :class:`~repro.graphs.colored_graph.ColoredGraph`.
    query:
        An FO+ formula or its textual form.
    free_order:
        Output coordinate order; defaults to free variables by name.
    method:
        ``"auto"`` | ``"indexed"`` | ``"naive"``.
    config:
        Engine thresholds (:class:`~repro.core.config.EngineConfig`).
    """
    return build_index(graph, query, free_order, method=method, config=config)
