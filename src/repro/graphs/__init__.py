"""Graph substrate: colored graphs, neighborhoods, generators, sparsity.

The paper (Section 2) reduces all relational structures to *c-colored
graphs*: undirected graphs whose vertices carry unary color predicates.
Every algorithm in :mod:`repro.core` operates on
:class:`~repro.graphs.colored_graph.ColoredGraph`.
"""

from repro.graphs.colored_graph import ColoredGraph
from repro.graphs.generators import (
    binary_tree,
    bounded_degree_random_graph,
    caterpillar,
    cycle,
    grid,
    hex_grid,
    long_cycle_with_chords,
    outerplanar_random_graph,
    partial_k_tree,
    path,
    random_forest,
    random_planar_like_graph,
    random_tree,
    star,
    subdivided_clique,
)
from repro.graphs.neighborhoods import (
    ball,
    bounded_bfs,
    distance,
    induced_subgraph,
    tuple_ball,
)
from repro.graphs.sparsity import (
    edge_density_exponent,
    is_edgeless,
    weak_coloring_number_upper_bound,
    weakly_accessible_counts,
)
from repro.graphs.validation import LocalityReport, locality_report

__all__ = [
    "ColoredGraph",
    "ball",
    "bounded_bfs",
    "distance",
    "induced_subgraph",
    "tuple_ball",
    "binary_tree",
    "bounded_degree_random_graph",
    "caterpillar",
    "cycle",
    "grid",
    "hex_grid",
    "long_cycle_with_chords",
    "outerplanar_random_graph",
    "partial_k_tree",
    "path",
    "random_forest",
    "random_planar_like_graph",
    "random_tree",
    "star",
    "subdivided_clique",
    "LocalityReport",
    "locality_report",
    "edge_density_exponent",
    "is_edgeless",
    "weak_coloring_number_upper_bound",
    "weakly_accessible_counts",
]
