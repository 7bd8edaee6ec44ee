"""Tuning knobs for the enumeration engine.

The paper's constants (tower-of-exponentials functions of the query) are
replaced by explicit engineering knobs.  Every knob that substitutes for
a theoretical constant says which one (see DESIGN.md's substitution
table).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EngineConfig:
    """Configuration shared by all index layers.

    Attributes
    ----------
    eps:
        The pseudo-linear exponent: cover membership, Storing-Theorem
        tries and skip pointers all use it.
    dist_naive_threshold / dist_max_depth:
        The distance index's Step-1 cutoff and splitter-recursion cap
        (stand-in for λ(2r) of Theorem 4.6).
    bag_naive_threshold / bag_max_depth:
        Same two knobs for the per-bag solvers (Steps 8-11).
    precompute_far:
        Build the Case-I structures (unary lists L, skip pointers) during
        preprocessing (paper Steps 12-13) rather than lazily on first use.
    workers:
        Thread count for the independent per-bag preprocessing work
        (cover-ball BFS fan-out, kernel computation, bag-solver builds).
        ``1`` (the default) keeps the sequential path, which doubles as
        the oracle in parallel-equivalence tests.  Build-strategy only:
        the constructed index is identical for every value, so snapshot
        fingerprints deliberately exclude it.
    """

    eps: float = 0.5
    dist_naive_threshold: int = 64
    dist_max_depth: int = 3
    bag_naive_threshold: int = 220
    bag_max_depth: int = 12
    precompute_far: bool = True
    workers: int = 1


DEFAULT_CONFIG = EngineConfig()
