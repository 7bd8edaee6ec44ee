"""repro — Enumeration for FO Queries over Nowhere Dense Graphs.

A reproduction of Schweikardt, Segoufin & Vigny (PODS 2018 / JACM 2022):
constant-delay enumeration, constant-time testing, and constant-time
next-solution queries for first-order queries over sparse (nowhere
dense) colored graphs, after pseudo-linear preprocessing.

Quickstart::

    from repro import ColoredGraph, open_index
    from repro.graphs import grid

    g = grid(30, 30)
    index = open_index(g, "dist(x, y) > 2 & Blue(y)")
    index.test((0, 5))                 # Corollary 2.4
    index.next_solution((0, 0))        # Theorem 2.3
    for x, y in index.enumerate():     # Corollary 2.5
        ...
    index.insert_edge(0, 31).version   # live updates (docs/updates.md)

See DESIGN.md for the paper-to-module map and EXPERIMENTS.md for the
reproduced claims.
"""

from repro.api import Page, QueryIndex, open_index
from repro.core.config import EngineConfig
from repro.core.counting import CountingIndex
from repro.db.adjacency import adjacency_graph
from repro.db.database import Database
from repro.db.rewrite import rewrite_query
from repro.errors import ReproError
from repro.graphs.colored_graph import ColoredGraph
from repro.logic.diagnostics import explain
from repro.logic.parser import parse_formula

__version__ = "1.0.0"

__all__ = [
    "QueryIndex",
    "Page",
    "open_index",
    "EngineConfig",
    "ReproError",
    "CountingIndex",
    "ColoredGraph",
    "parse_formula",
    "explain",
    "Database",
    "adjacency_graph",
    "rewrite_query",
    "__version__",
]
