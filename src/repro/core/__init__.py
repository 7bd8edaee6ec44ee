"""The paper's primary contribution: Theorem 2.3 and its corollaries.

Layers, bottom to top:

* :mod:`~repro.core.distance_index` — Proposition 4.2 (constant-time
  distance testing);
* :mod:`~repro.core.skip_pointers` — Lemma 5.8;
* :mod:`~repro.core.removal` — Lemma 5.5;
* :mod:`~repro.core.normal_form` — the Theorem 5.4 stand-in;
* :mod:`~repro.core.bag_solver` / :mod:`~repro.core.local_eval` — the
  per-bag recursion (Steps 8-11);
* :mod:`~repro.core.unary` — Theorem 5.3's role (arity <= 1);
* :mod:`~repro.core.last_coordinate` — Lemma 5.2;
* :mod:`~repro.core.next_solution` — Theorem 5.1 / 2.3;
* :mod:`~repro.core.enumeration` — Corollary 2.5;
* :mod:`~repro.core.engine` — the public facade.
"""

from repro.core.config import DEFAULT_CONFIG, EngineConfig
from repro.core.counting import CountingIndex
from repro.core.distance_index import DistanceIndex
from repro.core.engine import QueryIndex, open_index
from repro.core.enumeration import enumerate_solutions, enumerate_with_delays
from repro.core.last_coordinate import LastCoordinateIndex
from repro.core.next_solution import NextSolutionIndex, increment_tuple
from repro.core.normal_form import Decomposition, DecompositionError, decompose
from repro.core.skip_pointers import SkipPointers
from repro.core.unary import UnaryIndex, model_check, unary_solutions

__all__ = [
    "DEFAULT_CONFIG",
    "EngineConfig",
    "CountingIndex",
    "DistanceIndex",
    "QueryIndex",
    "open_index",
    "enumerate_solutions",
    "enumerate_with_delays",
    "LastCoordinateIndex",
    "NextSolutionIndex",
    "increment_tuple",
    "DecompositionError",
    "Decomposition",
    "decompose",
    "SkipPointers",
    "UnaryIndex",
    "model_check",
    "unary_solutions",
]
