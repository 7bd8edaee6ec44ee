"""The stable public facade: open an index, query it, update it.

:func:`open_index` is the one front door for index construction
(defined in :mod:`repro.core.engine`; configuration is keyword-only),
and the :class:`QueryIndex` it returns is where the live-update API
surfaces:

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

See ``docs/updates.md`` for the update model and version semantics.
"""

from repro.core.engine import Page, QueryIndex, open_index

__all__ = ["open_index", "QueryIndex", "Page"]
