"""Self-contained benchmark-suite runner for the paper's experiments.

``repro bench-suite`` executes the E1-E18 sweeps directly — no plugins —
and is the repository's only benchmark producer.  It writes one
schema-validated JSON document (see :mod:`repro.bench_schema`) that
:mod:`repro.reporting` and ``scripts/make_experiments.py`` render into
EXPERIMENTS.md.  Each record's ``fullname`` is
``benchmarks/<group>.py::<name>``: the ``<group>`` names an experiment
group (``bench_delay`` is E9), not a file — the ids are kept in this
form so result documents stay comparable across versions.

Two profiles:

* ``full`` — the paper-scale sweeps; minutes of wall clock.  It also
  runs un-gated side sweeps the quick profile skips: a second family
  and a radius sweep for E3, tree/grid covers, a radius sweep and the
  Lemma 5.7 kernels for E4, rounds vs radius for E5, and weak
  2-accessibility for E10.
* ``quick`` (``--quick``) — shrunk sweeps for CI smoke runs; the scaling
  *shape* is still measurable (largest/smallest n is 4-16x), just noisier.

On top of the sweeps sits a regression gate (:func:`check_gate`): series
the paper claims are O(1) — trie lookups, distance tests, indexed
membership tests, next-solution calls, the p95 enumeration delay — must
not grow super-constant across the sweep.  A timing series fails the
gate only when its fitted log-log exponent *and* its max/min spread are
both clearly non-constant, so one noisy point cannot fail CI; the
operation-count series (register reads per lookup, measured via
:func:`repro.metrics.runtime.collect`) has no noise and is held to a
tight flatness bound.

Usage::

    python -m repro bench-suite --quick -o BENCH_results.json
    python -m repro.reporting BENCH_results.json > EXPERIMENTS.md
"""

from __future__ import annotations

import argparse
import datetime as _datetime
import json
import math
import os
import platform
import random
import sys
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.analysis import fit_exponent, flatness
from repro.bench_schema import SCHEMA_NAME, SUITE_VERSION, validate_results

DEFAULT_OUTPUT = "BENCH_results.json"

#: The experiments a plain ``repro bench-suite`` run covers, in run order.
ALL_EXPERIMENTS = (
    "E1", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
    "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18",
)

#: Extra series only the full profile runs by default (knob ablations).
FULL_ONLY_EXPERIMENTS = ("EA",)

_QUERY = "dist(x, y) > 2 & Blue(y)"  # the paper's running binary example


# ----------------------------------------------------------------------
# profiles


@dataclass(frozen=True)
class Profile:
    """Sweep sizes and repetition counts for one suite run."""

    name: str
    sizes: tuple[int, ...]  # main |G| sweep (E3/E4/E7/E8)
    small_sizes: tuple[int, ...]  # quadratic baselines (E12)
    trie_sizes: tuple[int, ...]  # universe sizes for E1
    delay_sizes: tuple[int, ...]  # full-enumeration sweep for E9
    splitter_sizes: tuple[int, ...]  # E5
    counting_sizes: tuple[int, ...]  # E13
    dynamic_sizes: tuple[int, ...]  # E14
    db_sizes: tuple[int, ...]  # E11
    probes: int  # probes per query batch
    repeats: int  # timing rounds per batch series
    trie_keys: int  # keys stored per trie
    splitter_trials: int

    def __str__(self) -> str:
        return self.name


QUICK = Profile(
    name="quick",
    sizes=(256, 512, 1024),
    small_sizes=(64, 128, 256),
    trie_sizes=(2**8, 2**10, 2**12),
    delay_sizes=(128, 256, 512),
    splitter_sizes=(128, 256, 512),
    counting_sizes=(128, 256, 512),
    dynamic_sizes=(256, 512, 1024),
    db_sizes=(256, 512, 1024),
    probes=128,
    repeats=3,
    trie_keys=500,
    splitter_trials=1,
)

FULL = Profile(
    name="full",
    sizes=(512, 2048, 8192),
    small_sizes=(128, 256, 512),
    trie_sizes=(2**10, 2**14, 2**18),
    delay_sizes=(512, 1024, 2048),
    splitter_sizes=(256, 1024, 2048),
    counting_sizes=(256, 512, 1024),
    dynamic_sizes=(512, 2048, 8192),
    db_sizes=(512, 2048, 8192),
    probes=512,
    repeats=5,
    trie_keys=2000,
    splitter_trials=2,
)


# ----------------------------------------------------------------------
# measurement primitives


def _stats(durations: Iterable[float]) -> dict[str, Any]:
    values = list(durations)
    mean = sum(values) / len(values)
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    return {
        "mean": mean,
        "min": min(values),
        "max": max(values),
        "stddev": math.sqrt(variance),
        "rounds": len(values),
    }


def _timed(
    fn: Callable[[], Any], repeats: int, warmup: bool = False
) -> tuple[dict[str, Any], Any]:
    """Run ``fn`` ``repeats`` times; (stats over wall clock, last result).

    ``warmup=True`` runs one untimed round first.  Repeated query batches
    need this: the first batch against a fresh index fills the bag-local
    column and test memos at arity >= 3 and warms the interpreter's
    caches, a one-time cost that would otherwise masquerade as per-query
    growth.
    """
    if warmup:
        fn()
    durations: list[float] = []
    result: Any = None
    for _ in range(repeats):
        tick = time.perf_counter()
        result = fn()
        durations.append(time.perf_counter() - tick)
    return _stats(durations), result


def _nearest_rank(ordered: list[float], q: float) -> float:
    """The ``q``-th percentile (0 < q <= 100) of sorted data, nearest rank."""
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def _pairs(n: int, count: int, seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


def _keys(n: int, k: int, count: int, seed: int = 0) -> list[tuple[int, ...]]:
    rng = random.Random(seed)
    return [tuple(rng.randrange(n) for _ in range(k)) for _ in range(count)]


def _edit_sequence(
    graph: Any, rng: random.Random, count: int
) -> list[tuple[int, int, bool]]:
    """``count`` alternating valid edits ``(u, v, inserted)`` for E17.

    Even steps insert a fresh non-edge, odd steps delete a distinct
    original edge; inserted edges are never re-deleted and deleted edges
    never re-inserted, so every edit is valid against the evolving graph
    and the final graph differs from the starting one.
    """
    original = sorted(graph.edges())
    rng.shuffle(original)
    present = {tuple(sorted(edge)) for edge in original}
    deletions = iter(original)
    edits: list[tuple[int, int, bool]] = []
    for step in range(count):
        if step % 2 == 0:
            while True:
                u, v = rng.randrange(graph.n), rng.randrange(graph.n)
                if u != v and (min(u, v), max(u, v)) not in present:
                    break
            present.add((min(u, v), max(u, v)))
            edits.append((u, v, True))
        else:
            u, v = next(deletions)
            edits.append((u, v, False))
    return edits


# ----------------------------------------------------------------------
# the suite


class BenchSuite:
    """Runs experiment series and accumulates schema-shaped records."""

    def __init__(
        self,
        profile: Profile,
        log: Callable[[str], None] = lambda line: None,
    ) -> None:
        self.profile = profile
        self.log = log
        self.records: list[dict[str, Any]] = []
        self._graphs: dict[tuple[str, int, int], Any] = {}
        self._indexes: dict[tuple[str, int, str, int], Any] = {}

    # -- infrastructure -------------------------------------------------

    def graph(self, family: str, n: int, seed: int = 1) -> Any:
        key = (family, n, seed)
        if key not in self._graphs:
            self._graphs[key] = _make_graph(family, n, seed)
        return self._graphs[key]

    def index(self, family: str, n: int, query: str, seed: int = 1) -> Any:
        from repro.core.engine import open_index

        key = (family, n, query, seed)
        if key not in self._indexes:
            self._indexes[key] = open_index(self.graph(family, n, seed), query)
        return self._indexes[key]

    def record(
        self,
        experiment: str,
        group: str,
        name: str,
        params: dict[str, Any],
        stats: dict[str, Any],
        extra: dict[str, Any] | None = None,
    ) -> None:
        self.records.append(
            {
                "experiment": experiment,
                "group": group,
                "fullname": f"benchmarks/{group}.py::{name}",
                "name": name,
                "params": params,
                "stats": stats,
                "extra_info": extra or {},
            }
        )
        self.log(f"  {group}::{name}  mean={stats['mean'] * 1e3:.3f}ms")

    # -- E1: the Storing Theorem ---------------------------------------

    def run_e1(self) -> None:
        import pickle

        from repro.metrics.runtime import collect
        from repro.storage.trie import TrieStore

        p = self.profile
        for n in p.trie_sizes:
            probes = _keys(n, 2, p.probes, seed=1)
            cycle = _keys(n, 2, max(p.probes // 4, 16), seed=2)
            store = None
            for k in (1, 2):
                keys = _keys(n, k, p.trie_keys)

                def build(n: int = n, k: int = k, keys: list = keys) -> Any:
                    built = TrieStore(n, k, 0.5)
                    for key in keys:
                        built.insert(key, 0)
                    return built

                stats, store = _timed(build, 1)
                self.record(
                    "E1", "bench_storing", f"test_init[{k}-{n}]",
                    {"n": n, "k": k}, stats,
                    {
                        "registers_per_key": round(
                            store.registers_used / max(len(store), 1), 1
                        ),
                        "snapshot_bytes": len(
                            pickle.dumps(store, protocol=pickle.HIGHEST_PROTOCOL)
                        ),
                    },
                )

            def lookup_batch(store: Any = store, probes: list = probes) -> None:
                for probe in probes:
                    store.lookup(probe)

            # the fused walk reads the payload array directly and never
            # calls the counted register API; the generic register-at-a-time
            # walk visits the same cells, so it both counts the registers
            # touched per lookup and is the comparand the fused walk must beat
            def generic_batch(store: Any = store, probes: list = probes) -> None:
                for probe in probes:
                    TrieStore._lookup_digits(store, TrieStore._encode(store, probe))

            stats, _ = _timed(lookup_batch, p.repeats, warmup=True)
            generic, _ = _timed(generic_batch, p.repeats, warmup=True)
            with collect(ops=True) as registry:
                generic_batch()
            reads = sum(
                count
                for qualname, count in registry.op_counts.items()
                if ".RegisterFile." in qualname
            )
            self.record(
                "E1", "bench_storing", f"test_lookup[{n}]", {"n": n}, stats,
                {
                    "per_lookup_batch": len(probes),
                    "register_ops_per_lookup": round(reads / len(probes), 1),
                    "speedup_vs_generic": round(generic["mean"] / stats["mean"], 2),
                },
            )

            def successor_batch(store: Any = store, probes: list = probes) -> None:
                for probe in probes:
                    store.successor(probe)

            stats, _ = _timed(successor_batch, p.repeats, warmup=True)
            self.record(
                "E1", "bench_storing", f"test_successor[{n}]", {"n": n}, stats,
                {"per_successor_batch": len(probes)},
            )

            def updates(store: Any = store, cycle: list = cycle) -> None:
                for key in cycle:
                    store.insert(key, 1)
                for key in cycle:
                    if key in store:
                        store.remove(key)

            stats, _ = _timed(updates, p.repeats, warmup=True)
            self.record(
                "E1", "bench_storing", f"test_update_cycle[{n}]",
                {"n": n}, stats, {"cycle": len(cycle)},
            )

    # -- E3: constant-time distance queries ----------------------------

    def run_e3(self) -> None:
        from repro.baselines.bfs_oracle import bfs_distance_at_most
        from repro.core.distance_index import DistanceIndex

        p = self.profile
        for n in p.sizes:
            g = self.graph("planar", n)
            stats, index = _timed(lambda g=g: DistanceIndex(g, 2), 1)
            self.record(
                "E3", "bench_distance", f"test_preprocess[planar-{n}]", {"n": n},
                stats, {"recursion_depth": index.recursion_depth},
            )

            probes = _pairs(n, p.probes, seed=3)

            def query_batch(index: Any = index, probes: list = probes) -> int:
                hits = 0
                for a, b in probes:
                    if index.test(a, b):
                        hits += 1
                return hits

            stats, _ = _timed(query_batch, p.repeats, warmup=True)
            self.record(
                "E3", "bench_distance", f"test_query[{n}]", {"n": n}, stats,
                {"probes": len(probes)},
            )

            def bfs_batch(g: Any = g, probes: list = probes) -> int:
                hits = 0
                for a, b in probes:
                    if bfs_distance_at_most(g, a, b, 2):
                        hits += 1
                return hits

            stats, _ = _timed(bfs_batch, p.repeats, warmup=True)
            self.record(
                "E3", "bench_distance", f"test_bfs_baseline_query[{n}]", {"n": n},
                stats, {"probes": len(probes)},
            )

        if p.name != "full":
            return
        # un-gated sweeps: a second family, and preprocessing vs radius
        for n in p.sizes:
            g = self.graph("grid", n)
            stats, index = _timed(lambda g=g: DistanceIndex(g, 2), 1)
            self.record(
                "E3", "bench_distance", f"test_preprocess[grid-{n}]", {"n": n},
                stats, {"recursion_depth": index.recursion_depth},
            )
        n = p.sizes[1]
        g = self.graph("grid", n)
        for radius in (1, 2, 4):
            stats, index = _timed(lambda g=g, r=radius: DistanceIndex(g, r), 1)
            self.record(
                "E3", "bench_distance", f"test_radius_sweep[{radius}]",
                {"n": n, "radius": radius}, stats,
                {"recursion_depth": index.recursion_depth},
            )

    # -- E4: neighborhood covers ---------------------------------------

    def run_e4(self) -> None:
        from repro.covers.kernels import kernel_of_bag
        from repro.covers.neighborhood_cover import build_cover

        p = self.profile
        # the full profile adds un-gated family, radius and kernel sweeps
        families = ("planar", "tree", "grid") if p.name == "full" else ("planar",)
        for family in families:
            for n in p.sizes:
                g = self.graph(family, n)
                stats, cover = _timed(lambda g=g: build_cover(g, 2), 1)
                self.record(
                    "E4", "bench_cover", f"test_build_cover[{family}-{n}]",
                    {"n": n}, stats,
                    {
                        "degree": cover.degree(),
                        "degree_bound_sqrt_n": round(n**0.5, 1),
                        "total_bag_size_over_n": round(cover.total_bag_size() / n, 2),
                    },
                )
        if p.name != "full":
            return
        n = p.sizes[-1]
        g = self.graph("grid", n)
        for radius in (1, 2, 4, 8):
            stats, cover = _timed(lambda g=g, r=radius: build_cover(g, r), 1)
            self.record(
                "E4", "bench_cover", f"test_radius_sweep[{radius}]",
                {"n": n, "radius": radius}, stats,
                {"degree": cover.degree(), "bags": cover.num_bags},
            )
        for n in p.sizes:
            g = self.graph("planar", n)
            cover = build_cover(g, 2)

            def all_kernels(g: Any = g, cover: Any = cover) -> list:
                # Lemma 5.7: kernels in O(p * ||G[X]||) per bag
                return [kernel_of_bag(g, bag, 2) for bag in cover.bags]

            stats, kernels = _timed(all_kernels, 1)
            total = sum(len(kernel) for kernel in kernels)
            self.record(
                "E4", "bench_cover", f"test_kernels[{n}]", {"n": n}, stats,
                {"kernel_fraction": round(total / max(cover.total_bag_size(), 1), 2)},
            )

    # -- E5: the splitter game -----------------------------------------

    def run_e5(self) -> None:
        from repro.splitter.game import rounds_to_win

        p = self.profile
        for family in ("tree", "grid"):
            for n in p.splitter_sizes:
                g = self.graph(family, n)
                stats, rounds = _timed(
                    lambda g=g: rounds_to_win(g, 2, trials=p.splitter_trials), 1
                )
                self.record(
                    "E5", "bench_splitter", f"test_rounds_vs_n[{family}-{n}]",
                    {"n": n, "family": family}, stats, {"rounds": rounds},
                )
        if p.name != "full":
            return
        n = p.splitter_sizes[1]
        g = self.graph("tree", n)
        for radius in (1, 2, 4):
            stats, rounds = _timed(
                lambda g=g, r=radius: rounds_to_win(g, r, trials=p.splitter_trials), 1
            )
            self.record(
                "E5", "bench_splitter", f"test_rounds_vs_radius[{radius}]",
                {"n": n, "radius": radius}, stats, {"rounds": rounds},
            )

    # -- E6: skip pointers ---------------------------------------------

    def run_e6(self) -> None:
        from repro.core.skip_pointers import SkipPointers
        from repro.covers.kernels import kernel_of_bag
        from repro.covers.neighborhood_cover import build_cover

        p = self.profile
        for n in p.sizes:
            g = self.graph("planar", n, seed=0)
            cover = build_cover(g, 2)
            kernels = [kernel_of_bag(g, bag, 2) for bag in cover.bags]
            rng = random.Random(0)
            targets = [v for v in g.vertices() if rng.random() < 0.4]

            stats, skips = _timed(
                lambda: SkipPointers(g.n, targets, kernels, 2), 1
            )
            self.record(
                "E6", "bench_skip", f"test_build[2-{n}]", {"n": n, "k": 2}, stats,
                {
                    "stored_pointers": skips.stored_pointers,
                    "pointers_per_vertex": round(skips.stored_pointers / n, 2),
                },
            )

            rng = random.Random(1)
            probes = [
                (rng.randrange(n), tuple(rng.sample(range(cover.num_bags), 2)))
                for _ in range(p.probes)
            ]

            def query_batch(skips: Any = skips, probes: list = probes) -> None:
                for b, bags in probes:
                    skips.skip(b, bags)

            stats, _ = _timed(query_batch, p.repeats, warmup=True)
            self.record(
                "E6", "bench_skip", f"test_query[{n}]", {"n": n}, stats,
                {"probes": len(probes)},
            )

    # -- E7: constant-time next-solution -------------------------------

    def run_e7(self) -> None:
        from repro.core.engine import open_index

        p = self.profile
        for n in p.sizes:
            g = self.graph("planar", n)
            stats, index = _timed(lambda g=g: open_index(g, _QUERY), 1)
            self._indexes[("planar", n, _QUERY, 1)] = index
            self.record(
                "E7", "bench_next_solution", f"test_build[{n}]", {"n": n}, stats,
                {"method": index.method},
            )

            probes = _pairs(n, p.probes, seed=5)

            def next_batch(index: Any = index, probes: list = probes) -> int:
                found = 0
                for probe in probes:
                    if index.next_solution(probe) is not None:
                        found += 1
                return found

            stats, _ = _timed(next_batch, p.repeats, warmup=True)
            self.record(
                "E7", "bench_next_solution", f"test_next_solution[{n}]", {"n": n},
                stats, {"probes": len(probes)},
            )

    # -- E8: constant-time testing -------------------------------------

    def run_e8(self) -> None:
        from repro.logic.parser import parse_formula
        from repro.logic.semantics import evaluate
        from repro.logic.syntax import Var

        p = self.profile
        phi = parse_formula(_QUERY)
        x, y = Var("x"), Var("y")
        for n in p.sizes:
            index = self.index("planar", n, _QUERY)
            probes = _pairs(n, p.probes, seed=11)

            def test_batch(index: Any = index, probes: list = probes) -> int:
                hits = 0
                for probe in probes:
                    if index.test(probe):
                        hits += 1
                return hits

            stats, _ = _timed(test_batch, p.repeats, warmup=True)
            self.record(
                "E8", "bench_testing", f"test_indexed[{n}]", {"n": n}, stats,
                {"probes": len(probes)},
            )

            g = self.graph("planar", n)

            def naive_batch(g: Any = g, probes: list = probes) -> int:
                hits = 0
                for a, b in probes:
                    if evaluate(g, phi, {x: a, y: b}):
                        hits += 1
                return hits

            stats, _ = _timed(naive_batch, 1)
            self.record(
                "E8", "bench_testing", f"test_naive_baseline[{n}]", {"n": n}, stats,
                {"probes": len(probes)},
            )

    # -- E9: constant-delay enumeration --------------------------------

    def run_e9(self) -> None:
        from repro.core.enumeration import enumerate_with_delays

        p = self.profile
        for n in p.delay_sizes:
            index = self.index("planar", n, _QUERY)
            stats, (solutions, delays) = _timed(
                lambda index=index: enumerate_with_delays(index.enumerate()), 1
            )
            extra: dict[str, Any] = {"solutions": len(solutions)}
            if delays:
                # exact nearest-rank percentiles over every per-answer delay
                ordered = sorted(delays)
                extra.update(
                    delay_mean_us=round(sum(delays) / len(delays) * 1e6, 1),
                    delay_p50_us=round(_nearest_rank(ordered, 50) * 1e6, 1),
                    delay_p95_us=round(_nearest_rank(ordered, 95) * 1e6, 1),
                    delay_max_us=round(ordered[-1] * 1e6, 1),
                )
            self.record(
                "E9", "bench_delay", f"test_delay_profile[{n}]", {"n": n}, stats, extra
            )

        for n in p.sizes:
            index = self.index("planar", n, _QUERY)

            def first_hundred(index: Any = index) -> int:
                out = 0
                for _ in index.enumerate():
                    out += 1
                    if out >= 100:
                        break
                return out

            stats, streamed = _timed(first_hundred, p.repeats, warmup=True)
            self.record(
                "E9", "bench_delay", f"test_first_hundred[{n}]", {"n": n}, stats,
                {"streamed": streamed},
            )

    # -- E10: sparsity of the generated families -----------------------

    def run_e10(self) -> None:
        from repro.graphs.sparsity import (
            edge_density_exponent,
            weak_coloring_number_upper_bound,
        )

        p = self.profile
        for family in ("tree", "grid", "planar", "degree3"):
            for n in p.sizes:
                g = self.graph(family, n)
                stats, exponent = _timed(lambda g=g: edge_density_exponent(g), 1)
                self.record(
                    "E10", "bench_sparsity", f"test_density_exponent[{family}-{n}]",
                    {"n": n, "family": family}, stats,
                    {"exponent": round(exponent, 4)},
                )
        if p.name != "full":
            return
        for n in p.sizes:
            # weak r-accessibility: flat in n on a bounded-expansion family
            g = self.graph("planar", n)
            stats, bound = _timed(lambda g=g: weak_coloring_number_upper_bound(g, 2), 1)
            self.record(
                "E10", "bench_sparsity", f"test_weak_accessibility[{n}]", {"n": n},
                stats, {"weak_2_coloring_bound": bound},
            )

    # -- E11: relational-to-graph reduction ----------------------------

    def run_e11(self) -> None:
        from repro.db.adjacency import adjacency_graph
        from repro.db.database import Database, Schema

        for people in self.profile.db_sizes:
            rng = random.Random(0)
            db = Database(Schema({"Friend": 2, "Likes": 2}), domain_size=people)
            for person in range(1, people):
                buddy = rng.randrange(max(0, person - 5), person)
                db.add("Friend", (person, buddy))
                db.add("Friend", (buddy, person))
            for _ in range(people):
                a, b = rng.randrange(people), rng.randrange(people)
                if a != b:
                    db.add("Likes", (a, b))

            stats, encoding = _timed(lambda db=db: adjacency_graph(db), 1)
            self.record(
                "E11", "bench_db_reduction", f"test_adjacency_graph_build[{people}]",
                {"n": people}, stats,
                {"graph_size_over_db_size": round(encoding.graph.size / db.size, 2)},
            )

    # -- E12: index vs materialize-everything --------------------------

    def run_e12(self) -> None:
        from repro.baselines.naive import NaiveIndex
        from repro.core.engine import open_index
        from repro.logic.parser import parse_formula
        from repro.logic.syntax import Var

        phi = parse_formula(_QUERY)
        for n in self.profile.small_sizes:
            g = self.graph("grid", n)

            def materialize(g: Any = g) -> int:
                return len(NaiveIndex(g, phi, (Var("x"), Var("y"))).solutions)

            stats, count = _timed(materialize, 1)
            self.record(
                "E12", "bench_crossover", f"test_naive_materialize[{n}]", {"n": n},
                stats, {"solutions": count},
            )

            stats, index = _timed(lambda g=g: open_index(g, _QUERY), 1)
            self.record(
                "E12", "bench_crossover", f"test_index_build[{n}]", {"n": n}, stats,
                {"method": index.method},
            )

    # -- E13: counting without enumerating -----------------------------

    def run_e13(self) -> None:
        """``QueryIndex.count()`` (closed form) vs enumerate-and-count;
        ``count_equal`` (1.0/0.0) is the gated differential check."""
        from repro.core.engine import open_index

        for n in self.profile.counting_sizes:
            g = self.graph("grid", n)

            def closed_form(g: Any = g) -> int:
                return open_index(g, _QUERY).count()

            stats, count = _timed(closed_form, 1)
            self.record(
                "E13", "bench_counting", f"test_closed_form_count[{n}]", {"n": n},
                stats, {"solutions": count, "solutions_over_n": round(count / n, 1)},
            )

            def enumerate_count(g: Any = g) -> int:
                return sum(1 for _ in open_index(g, _QUERY).enumerate())

            stats, enumerated = _timed(enumerate_count, 1)
            self.record(
                "E13", "bench_counting", f"test_enumerate_count_baseline[{n}]",
                {"n": n}, stats,
                {"solutions": enumerated, "count_equal": float(enumerated == count)},
            )

    # -- E14: color flips through the versioned index --------------------

    def run_e14(self) -> None:
        """A color-flip chain replayed from the base index each round;
        ``register_equal`` (1.0/0.0) gates it against a rebuild."""
        from repro.core.engine import open_index

        query = "exists y. E(x, y) & Hot(y)"
        p = self.profile
        for n in p.dynamic_sizes:
            g = self.graph("planar", n)
            base = open_index(g, query)
            rng = random.Random(2)
            updates = [(rng.randrange(n), rng.random() < 0.5) for _ in range(64)]

            def apply_updates(base: Any = base, updates: list = updates) -> Any:
                index = base
                for v, add in updates:
                    if add:
                        index = index.add_color("Hot", v)
                    else:
                        index = index.remove_color("Hot", v)
                return index

            stats, updated = _timed(apply_updates, p.repeats, warmup=True)
            rebuilt = open_index(updated.graph, query)
            self.record(
                "E14", "bench_dynamic", f"test_update[{n}]", {"n": n}, stats,
                {
                    "updates_per_round": len(updates),
                    "register_equal": float(
                        updated.registers() == rebuilt.registers()
                    ),
                },
            )

            g2 = self.graph("planar", n).copy()
            rng = random.Random(2)
            g2.set_color("Hot", [v for v in g2.vertices() if rng.random() < 0.2])
            stats, _ = _timed(lambda g2=g2: open_index(g2, query), 1)
            self.record(
                "E14", "bench_dynamic", f"test_rebuild_baseline[{n}]", {"n": n},
                stats, {},
            )

    # -- EA: knob ablations (full profile only by default) -------------

    def run_ea(self) -> None:
        from repro.core.config import EngineConfig
        from repro.core.distance_index import DistanceIndex
        from repro.core.engine import open_index
        from repro.storage.trie import TrieStore

        n = 2**14 if self.profile.name == "full" else 2**10
        keys = _keys(n, 1, self.profile.trie_keys)
        for eps in (0.25, 0.5, 0.75):

            def build_and_probe(eps: float = eps) -> Any:
                store = TrieStore(n, 1, eps=eps)
                for key in keys:
                    store.insert(key, 0)
                for key in keys:
                    store.lookup(key)
                return store

            stats, store = _timed(build_and_probe, 1)
            self.record(
                "EA", "bench_ablation", f"test_trie_eps[{eps}]", {"eps": eps}, stats,
                {"d": store.d, "h": store.h, "registers": store.registers_used},
            )

        # Step-1 cutoffs and depth caps move preprocessing cost; answer
        # invariance is tests/core/test_config.py's job, not a series'
        n = self.profile.sizes[0]
        g = self.graph("planar", n)
        for threshold in (16, 64, 220):
            config = EngineConfig(bag_naive_threshold=threshold)
            stats, _ = _timed(
                lambda config=config: open_index(g, _QUERY, config=config), 1
            )
            self.record(
                "EA", "bench_ablation", f"test_bag_threshold[{threshold}]",
                {"n": n, "threshold": threshold}, stats, {"threshold": threshold},
            )
        n = self.profile.sizes[1]
        g = self.graph("grid", n)
        for depth in (1, 3):
            stats, index = _timed(
                lambda depth=depth: DistanceIndex(g, 2, max_depth=depth), 1
            )
            self.record(
                "EA", "bench_ablation", f"test_distance_recursion_depth[{depth}]",
                {"n": n, "depth": depth}, stats,
                {"measured_depth": index.recursion_depth},
            )

    # -- E15: persistence (cold vs warm) --------------------------------

    def run_e15(self) -> None:
        """Cold build vs snapshot load.

        The warm path is the paid-once contract across processes: a valid
        snapshot must answer without rebuilding, and its load time must
        beat cold preprocessing by at least
        :data:`WARM_SPEEDUP_MIN` (gated, like the O(1) rules).
        """
        import tempfile

        from repro.core.engine import open_index
        from repro.persist import index_fingerprint, load_index, save_index

        p = self.profile
        for n in p.small_sizes:
            g = self.graph("grid", n)

            def cold_build(g: Any = g) -> Any:
                return open_index(g, _QUERY)

            cold_stats, index = _timed(cold_build, p.repeats)
            fingerprint = index_fingerprint(g, _QUERY)
            first_cold = next(index.enumerate(), None)
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "snapshot.rpx"
                header = save_index(index, path, fingerprint)

                def warm_load(path: Path = path, fingerprint: str = fingerprint) -> Any:
                    return load_index(path, expected_fingerprint=fingerprint)

                warm_stats, loaded = _timed(warm_load, p.repeats, warmup=True)
            speedup = cold_stats["mean"] / max(warm_stats["mean"], 1e-9)
            self.record(
                "E15", "bench_persist", f"test_warm_vs_cold[{n}]", {"n": n},
                warm_stats,
                {
                    "cold_build_ms": round(cold_stats["mean"] * 1e3, 2),
                    "warm_load_ms": round(warm_stats["mean"] * 1e3, 3),
                    "warm_speedup_vs_cold": round(speedup, 1),
                    "snapshot_bytes": header["payload_bytes"],
                    "answers_match": next(loaded.enumerate(), None) == first_cold,
                },
            )

    # -- E16: pre-fork pool serving (throughput / latency / sharing) ----

    def run_e16(self) -> None:
        """Pooled serving: throughput scaling, tail latency, page sharing.

        Spawns real ``repro serve`` subprocesses against one pre-warmed
        arena snapshot: a single-process baseline, then pre-fork pools of
        1/2/4 workers (``--shards`` at 2x).  Three gated claims ride on
        the records:

        * ``speedup_over_floor`` — pooled throughput must clear a
          machine-aware floor (0.5x per usable core; a 1-core runner can
          only ask the router hop to cost less than 55%);
        * ``p99_headroom`` — open-loop p99 per-answer delay must stay
          within a watchdog-style budget (the watchdog's own multiple
          over its self-calibrated median);
        * ``pss_over_rss`` — the kernel's smaps accounting on the named
          ``memfd:repro-arena`` mappings must show the workers sharing
          pages (proportional-set size well below resident-set size),
          i.e. the register file is mapped, not copied.
        """
        if not hasattr(os, "fork"):
            self.log("  E16 skipped: os.fork unavailable on this platform")
            return
        import http.client
        import re
        import signal
        import subprocess
        import tempfile

        from repro.core.engine import open_index
        from repro.graphs.generators import FAMILIES
        from repro.persist import cache_path, index_fingerprint, save_index
        from repro.serve.http import wait_until_ready
        from repro.serve.loadgen import closed_loop

        p = self.profile
        quick = p.name == "quick"
        n = 1024 if quick else 2048
        seed = 3
        batch = 64
        duration = 1.0 if quick else 2.0
        host = "127.0.0.1"

        # the exact graph the server will build for the family spec below
        # (NOT self.graph(): _make_graph and FAMILIES differ, and the
        # snapshot fingerprint must match the server's request key)
        graph = FAMILIES["grid"](n, seed=seed)
        index = open_index(graph, _QUERY)
        fingerprint = index_fingerprint(graph, _QUERY)

        spec = {"family": "grid", "n": n, "seed": seed, "query": _QUERY}
        probes = _pairs(n, max(p.probes, 4 * batch), seed=5)
        bodies: list[bytes] = []
        for start in range(0, len(probes) - batch + 1, batch):
            calls: list[dict[str, Any]] = []
            for i, (u, v) in enumerate(probes[start : start + batch]):
                op = "next" if i % 2 else "test"
                calls.append({"op": op, "tuple": [u, v]})
            bodies.append(json.dumps({**spec, "calls": calls}).encode("utf-8"))
        expected: list[Any] = []
        for i, (u, v) in enumerate(probes[:batch]):
            if i % 2:
                out = index.next_solution((u, v))
                expected.append(None if out is None else list(out))
            else:
                expected.append(index.test((u, v)))

        def start_server(
            snapdir: Path, extra: list[str]
        ) -> tuple[subprocess.Popen, int]:
            cmd = [
                sys.executable, "-m", "repro", "serve",
                "--host", host, "--port", "0",
                "--snapshot-dir", str(snapdir),
            ] + extra
            env = dict(os.environ)
            env["PYTHONPATH"] = (
                str(Path(__file__).resolve().parent.parent)
                + os.pathsep
                + env.get("PYTHONPATH", "")
            )
            proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, env=env,
            )
            line = proc.stdout.readline() if proc.stdout else ""
            match = re.search(r"http://[^:]+:(\d+)", line)
            if match:
                port = int(match.group(1))
                if wait_until_ready(host, port, deadline_seconds=30.0):
                    return proc, port
            proc.kill()
            proc.wait()
            raise RuntimeError(
                f"serve subprocess failed to start ({' '.join(extra) or 'single'}):"
                f" {line!r}"
            )

        def stop_server(proc: subprocess.Popen) -> None:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)  # the CLI's clean-close path
                try:
                    proc.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()

        def check_oracle(port: int) -> bool:
            conn = http.client.HTTPConnection(host, port, timeout=30.0)
            try:
                conn.request(
                    "POST", "/v1/batch", body=bodies[0],
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                payload = json.loads(response.read().decode("utf-8"))
            finally:
                conn.close()
            if response.status != 200:
                raise RuntimeError(f"batch oracle got HTTP {response.status}")
            return payload.get("results") == expected

        def measure(port: int) -> Any:
            return closed_loop(
                host, port, "/v1/batch", bodies, batch,
                connections=8, duration_seconds=duration,
                warmup_seconds=0.4,
            )

        cpus = os.cpu_count() or 1
        with tempfile.TemporaryDirectory(prefix="repro-e16-") as tmp:
            snapdir = Path(tmp)
            save_index(index, cache_path(snapdir, fingerprint), fingerprint)

            proc, port = start_server(snapdir, [])
            try:
                answers_ok = check_oracle(port)
                base = measure(port)
            finally:
                stop_server(proc)
            base_aps = max(base.answers_per_second, 1e-9)
            self.record(
                "E16", "bench_serving", f"test_single_throughput[{n}]",
                {"n": n},
                _stats([base.elapsed_seconds / max(base.answers, 1)]),
                {
                    "answers_per_second": round(base_aps, 1),
                    "requests": base.requests,
                    "errors": base.errors,
                    "batch_calls": batch,
                    "answers_match": answers_ok,
                },
            )

            pool_sizes = (1, 2, 4)
            for w in pool_sizes:
                proc, port = start_server(
                    snapdir, ["--pool-workers", str(w), "--shards", str(2 * w)]
                )
                try:
                    answers_ok = check_oracle(port)
                    res = measure(port)
                    aps = res.answers_per_second
                    usable = min(w, cpus)
                    floor = 0.45 if usable == 1 else 0.5 * usable
                    speedup = aps / base_aps
                    self.record(
                        "E16", "bench_serving", f"test_pool_throughput[{w}]",
                        {"n": w},
                        _stats([res.elapsed_seconds / max(res.answers, 1)]),
                        {
                            "workers": w,
                            "shards": 2 * w,
                            "cpu_count": cpus,
                            "answers_per_second": round(aps, 1),
                            "speedup_vs_single": round(speedup, 3),
                            "speedup_floor": round(floor, 3),
                            "speedup_over_floor": round(speedup / floor, 3),
                            "errors": res.errors,
                            "answers_match": answers_ok,
                        },
                    )
                    if w == pool_sizes[-1]:
                        self._e16_latency(host, port, bodies, batch, aps, quick)
                        self._e16_shared_arena(host, port, w)
                finally:
                    stop_server(proc)

    def _e16_latency(
        self,
        host: str,
        port: int,
        bodies: list[bytes],
        batch: int,
        closed_aps: float,
        quick: bool,
    ) -> None:
        """Open-loop tail latency on the 4-worker pool, watchdog-budgeted.

        A low-rate run self-calibrates the budget exactly the way the
        serving watchdog does (median per-answer delay, same default
        multiple); the measured run then offers ~half the closed-loop
        capacity so queueing — not client saturation — is what p99 sees.
        """
        from repro.serve.loadgen import open_loop, percentile
        from repro.trace.watchdog import Watchdog

        batch_rps = max(closed_aps / batch, 10.0)
        wd = Watchdog()
        calib_rate = max(batch_rps * 0.1, 30.0)
        calib = open_loop(
            host, port, "/v1/batch", bodies, batch,
            rate_per_second=calib_rate,
            duration_seconds=max((wd.calibration_samples + 16) / calib_rate, 0.5),
            connections=4,
        )
        for delay in calib.delays:
            wd.observe_step(delay)
        budget = wd.budget_seconds
        if budget is None:  # calibration run too small: median by hand
            ordered = sorted(calib.delays) or [wd.min_budget_seconds]
            budget = max(ordered[len(ordered) // 2], wd.min_budget_seconds)
        res = open_loop(
            host, port, "/v1/batch", bodies, batch,
            rate_per_second=max(batch_rps * 0.5, 20.0),
            duration_seconds=1.5 if quick else 3.0,
            connections=8,
        )
        delays = res.delays or [0.0]
        p99 = percentile(delays, 0.99)
        allowed = budget * wd.multiple
        self.record(
            "E16", "bench_serving", "test_pool_latency[4]", {"n": 4},
            _stats(delays),
            {
                "offered_batches_per_second": round(max(batch_rps * 0.5, 20.0), 1),
                "p50_us": round(percentile(delays, 0.5) * 1e6, 1),
                "p99_us": round(p99 * 1e6, 1),
                "budget_us": round(allowed * 1e6, 1),
                "watchdog_multiple": wd.multiple,
                "p99_headroom": round(allowed / max(p99, 1e-9), 3),
                "late_sends": res.late_sends,
                "errors": res.errors,
            },
        )

    def _e16_shared_arena(self, host: str, port: int, workers: int) -> None:
        """The kernel's own page accounting for the shared arena mappings.

        Every worker pre-faults the ``memfd:repro-arena`` mapping at
        startup, so smaps ``Pss`` (each page divided by its mapper count)
        far below ``Rss`` is direct evidence the pool shares one physical
        copy.  Zeros (non-Linux) record as unavailable.
        """
        import http.client

        conn = http.client.HTTPConnection(host, port, timeout=30.0)
        try:
            conn.request("GET", "/v1/stats")
            payload = json.loads(conn.getresponse().read().decode("utf-8"))
        finally:
            conn.close()
        rss = pss = maps = mapped_workers = 0
        for entry in payload.get("workers", []):
            arena = (entry.get("worker") or {}).get("arena_maps") or {}
            if arena.get("maps"):
                mapped_workers += 1
            maps += int(arena.get("maps", 0))
            rss += int(arena.get("rss_kb", 0))
            pss += int(arena.get("pss_kb", 0))
        shared_bytes = int(payload.get("pool", {}).get("shared_arena_bytes", 0))
        self.record(
            "E16", "bench_serving", f"test_pool_shared_arena[{workers}]",
            {"n": workers},
            _stats([max(rss, 1) * 1e-6]),  # pseudo-timing: rss in "seconds"
            {
                "shared_arena_bytes": shared_bytes,
                "workers_mapped": mapped_workers,
                "arena_maps": maps,
                "rss_kb_total": rss,
                "pss_kb_total": pss,
                "pss_over_rss": round(pss / rss, 3) if rss else 0.0,
                "smaps_available": rss > 0,
            },
        )

    # -- E17: live edge updates (ball-local repair vs rebuild) ----------

    def run_e17(self) -> None:
        """Section 6's open problem, engineered: ``insert_edge``/``delete_edge``.

        Three gated claims ride on the records:

        * ``test_update_repair[n]`` — a fixed batch of alternating
          insert/delete repairs must grow *sublinearly* in ``|G|``
          (fitted log-log exponent below
          :data:`UPDATE_SUBLINEAR_EXPONENT`), unlike the from-scratch
          rebuild it replaces;
        * ``register_equal`` — the differential oracle: after the whole
          edit sequence the repaired index's Storing-Theorem registers
          equal a from-scratch build on the final graph (1.0/0.0);
        * ``test_post_update_next[n]`` stays O(1) (standard shape gate)
          and one arity-2 repair beats one rebuild by
          :data:`REPAIR_SPEEDUP_MIN` (``repair_speedup_vs_rebuild``).
        """
        from repro.core.engine import open_index
        from repro.core.repair import register_dump

        unary_query = "exists y. E(x, y) & Blue(y)"
        p = self.profile
        for n in p.dynamic_sizes:
            g = self.graph("planar", n)
            base = open_index(g, unary_query)
            edits = _edit_sequence(g, random.Random(7), count=8)

            def apply_edits(base: Any = base, edits: list = edits) -> Any:
                index = base  # updates are persistent: replay from base
                for u, v, inserted in edits:
                    index = (
                        index.insert_edge(u, v) if inserted
                        else index.delete_edge(u, v)
                    )
                return index

            stats, updated = _timed(apply_edits, p.repeats, warmup=True)
            rebuild_stats, rebuilt = _timed(
                lambda updated=updated: open_index(updated.graph, unary_query), 1
            )
            self.record(
                "E17", "bench_updates", f"test_update_repair[{n}]", {"n": n},
                stats,
                {
                    "updates_per_round": len(edits),
                    "final_version": updated.version,
                    "rebuild_ms": round(rebuild_stats["mean"] * 1e3, 2),
                    "register_equal": float(
                        register_dump(updated) == register_dump(rebuilt)
                    ),
                },
            )

            probes = [(u,) for u, _ in _pairs(n, p.probes, seed=11)]

            def probe_batch(updated: Any = updated, probes: list = probes) -> None:
                for start in probes:
                    updated.next_solution(start)

            stats, _ = _timed(probe_batch, p.repeats, warmup=True)
            self.record(
                "E17", "bench_updates", f"test_post_update_next[{n}]", {"n": n},
                stats, {"probes": len(probes)},
            )

        # arity-2 running example at the largest size: one repair per
        # update must beat one full rebuild even though the k=2 prefix
        # re-derivation alone is Theta(n) probes.  The grid family keeps
        # the repair ball genuinely local — the planar-like family's
        # logarithmic diameter lets a radius-(bag_radius + r) ball swallow
        # most of the graph, turning "ball-local" into "rebuild"
        n = p.dynamic_sizes[-1]
        g = self.graph("grid", n)
        base = open_index(g, _QUERY)
        edits = _edit_sequence(g, random.Random(13), count=2)

        def apply_pair(base: Any = base, edits: list = edits) -> Any:
            index = base
            for u, v, inserted in edits:
                index = (
                    index.insert_edge(u, v) if inserted
                    else index.delete_edge(u, v)
                )
            return index

        pair_stats, updated = _timed(apply_pair, p.repeats, warmup=True)
        rebuild_stats, rebuilt = _timed(
            lambda: open_index(updated.graph, _QUERY), 1
        )
        per_update = pair_stats["mean"] / len(edits)
        self.record(
            "E17", "bench_updates", f"test_repair_vs_rebuild[{n}]", {"n": n},
            pair_stats,
            {
                "updates_per_round": len(edits),
                "rebuild_ms": round(rebuild_stats["mean"] * 1e3, 2),
                "repair_speedup_vs_rebuild": round(
                    rebuild_stats["mean"] / max(per_update, 1e-9), 2
                ),
                "register_equal": float(
                    register_dump(updated) == register_dump(rebuilt)
                ),
            },
        )

    # -- E18: sampling-profiler overhead --------------------------------

    def run_e18(self) -> None:
        """Profiler overhead: enumeration throughput under default-Hz sampling.

        One gated claim: ``throughput_ratio`` (profiled / baseline
        enumerate-page throughput at :data:`~repro.trace.profiler.DEFAULT_HZ`)
        must stay >= :data:`PROFILER_OVERHEAD_MIN`.  Both arms use
        best-of-``repeats`` timings over an identical workload, with the
        arms interleaved round by round, so one scheduler hiccup cannot
        sink the ratio — the sampler's cost is GIL time only, so the true
        ratio sits near 1.0.
        """
        from repro.trace.profiler import DEFAULT_HZ, SamplingProfiler

        n = self.profile.sizes[-1]
        index = self.index("grid", n, _QUERY)
        page = self.profile.probes

        def one_page(index: Any = index, page: int = page) -> int:
            taken = 0
            for _solution in index.enumerate():
                taken += 1
                if taken >= page:
                    break
            return taken

        one_page()  # warm the interpreter's caches outside both arms
        # calibrate the round length to span several sampler ticks at
        # DEFAULT_HZ — a round shorter than one tick would "measure"
        # zero-sample overhead
        tick = time.perf_counter()
        one_page()
        single = max(time.perf_counter() - tick, 1e-6)
        reps = max(1, min(500, math.ceil(0.08 / single)))

        def enumerate_pages() -> None:
            for _ in range(reps):
                one_page()

        rounds = max(self.profile.repeats, 3)
        baseline: list[float] = []
        profiled: list[float] = []
        profiler = SamplingProfiler(hz=DEFAULT_HZ)
        for _ in range(rounds):
            tick = time.perf_counter()
            enumerate_pages()
            baseline.append(time.perf_counter() - tick)
            with profiler:
                tick = time.perf_counter()
                enumerate_pages()
                profiled.append(time.perf_counter() - tick)
        # best-of on both arms: the floor of each arm's cost distribution
        # is the comparable number; means drag in unrelated preemption
        ratio = min(baseline) / max(min(profiled), 1e-9)
        self.record(
            "E18", "bench_profiler", f"test_profiler_overhead[{n}]", {"n": n},
            _stats(profiled),
            {
                "throughput_ratio": round(ratio, 4),
                "hz": DEFAULT_HZ,
                "page": page,
                "pages_per_round": reps,
                "rounds": rounds,
                "baseline_ms": round(min(baseline) * 1e3, 3),
                "profiled_ms": round(min(profiled) * 1e3, 3),
                "profiler_samples": profiler.samples,
            },
        )

    # -- dispatch -------------------------------------------------------

    RUNNERS: dict[str, str] = {
        "E1": "run_e1",
        "E3": "run_e3",
        "E4": "run_e4",
        "E5": "run_e5",
        "E6": "run_e6",
        "E7": "run_e7",
        "E8": "run_e8",
        "E9": "run_e9",
        "E10": "run_e10",
        "E11": "run_e11",
        "E12": "run_e12",
        "E13": "run_e13",
        "E14": "run_e14",
        "E15": "run_e15",
        "E16": "run_e16",
        "E17": "run_e17",
        "E18": "run_e18",
        "EA": "run_ea",
    }

    def run(self, experiments: Iterable[str]) -> None:
        for experiment in experiments:
            self.log(f"[{experiment}] ({self.profile.name} profile)")
            getattr(self, self.RUNNERS[experiment])()


def _make_graph(family: str, n: int, seed: int = 1) -> Any:
    from repro.graphs.generators import (
        bounded_degree_random_graph,
        grid,
        random_planar_like_graph,
        random_tree,
    )

    if family == "tree":
        return random_tree(n, seed=seed)
    if family == "grid":
        side = max(int(n**0.5), 2)
        return grid(side, side, seed=seed)
    if family == "planar":
        return random_planar_like_graph(n, seed=seed)
    if family == "degree3":
        return bounded_degree_random_graph(n, degree=3, seed=seed)
    raise ValueError(f"unknown family {family!r}")


# ----------------------------------------------------------------------
# the regression gate


@dataclass(frozen=True)
class GateRule:
    """One O(1) claim the suite re-checks on every run."""

    experiment: str
    group: str
    prefix: str  # record-name prefix selecting the series
    metric: str  # "time" | "extra:<key>"
    claim: str
    #: when set, every point must be >= this value (a bound, not a shape)
    floor: float | None = None
    #: when set, every point must be <= this value
    ceiling: float | None = None
    #: when set, the fitted log-log exponent must stay at or below this —
    #: a *sublinearity* claim rather than an O(1) one, so it is a shape
    #: rule (needs two distinct sizes) with its own threshold
    exponent_ceiling: float | None = None
    #: fewest points for the rule to apply; shape (exponent/flatness)
    #: checks always need two distinct sizes on top of this, while
    #: floor/ceiling rules are meaningful from a single point
    min_points: int = 2


#: smaps Pss/Rss ceiling on the shared arena mappings: with every page
#: mapped by the parent plus >= 1 worker the true ratio is <= 0.5; the
#: slack absorbs smaps' per-mapping kB rounding on small arenas.
POOL_SHARE_MAX = 0.6

#: E18: profiled enumerate-page throughput must stay within 5% of baseline.
PROFILER_OVERHEAD_MIN = 0.95


GATE_RULES = (
    GateRule("E1", "bench_storing", "test_lookup[", "time",
             "Theorem 3.1: O(1) trie lookups"),
    GateRule("E1", "bench_storing", "test_lookup[", "extra:register_ops_per_lookup",
             "Theorem 3.1: flat register ops per lookup"),
    GateRule("E1", "bench_storing", "test_lookup[", "extra:speedup_vs_generic",
             "Fused lookup walk beats the generic register-at-a-time walk"),
    GateRule("E3", "bench_distance", "test_query[", "time",
             "Proposition 4.2: O(1) distance tests"),
    GateRule("E7", "bench_next_solution", "test_next_solution[", "time",
             "Theorem 2.3: O(1) next-solution calls"),
    GateRule("E8", "bench_testing", "test_indexed[", "time",
             "Corollary 2.4: O(1) membership tests"),
    GateRule("E9", "bench_delay", "test_delay_profile[", "extra:delay_p95_us",
             "Corollary 2.5: flat p95 enumeration delay"),
    GateRule("E13", "bench_counting", "test_", "extra:count_equal",
             "[18]: the closed-form count equals enumerate-and-count",
             floor=1.0, min_points=1),
    GateRule("E14", "bench_dynamic", "test_", "extra:register_equal",
             "Section 6: color-flip registers equal a from-scratch rebuild",
             floor=1.0, min_points=1),
    GateRule("E15", "bench_persist", "test_warm_vs_cold[",
             "extra:warm_speedup_vs_cold",
             "Persistence: snapshot load >= 5x faster than cold preprocessing"),
    GateRule("E16", "bench_serving", "test_pool_throughput[",
             "extra:speedup_over_floor",
             "Pool serving: throughput clears the machine-aware worker floor",
             floor=1.0, min_points=1),
    GateRule("E16", "bench_serving", "test_pool_latency[",
             "extra:p99_headroom",
             "Pool serving: open-loop p99 per-answer delay within the "
             "watchdog budget",
             floor=1.0, min_points=1),
    GateRule("E16", "bench_serving", "test_pool_shared_arena[",
             "extra:pss_over_rss",
             "Pool serving: arena pages mmap-shared across workers, not copied",
             ceiling=POOL_SHARE_MAX, min_points=1),
    GateRule("E17", "bench_updates", "test_update_repair[", "time",
             "Section 6: ball-local edge-update repair cost sublinear in |G|",
             exponent_ceiling=0.9),
    GateRule("E17", "bench_updates", "test_post_update_next[", "time",
             "Section 6: O(1) next-solution calls after in-place repair"),
    GateRule("E17", "bench_updates", "test_", "extra:register_equal",
             "Section 6: repaired registers equal a from-scratch rebuild",
             floor=1.0, min_points=1),
    GateRule("E17", "bench_updates", "test_repair_vs_rebuild[",
             "extra:repair_speedup_vs_rebuild",
             "Section 6: one repair beats one from-scratch rebuild",
             floor=1.2, min_points=1),
    GateRule("E18", "bench_profiler", "test_profiler_overhead[",
             "extra:throughput_ratio",
             "Observability: default-Hz sampling keeps enumerate-page "
             "throughput within 5% of baseline",
             floor=PROFILER_OVERHEAD_MIN, min_points=1),
)

#: Timing series fail only when exponent AND spread both look non-constant.
DEFAULT_GATE_EXPONENT = 0.45
DEFAULT_GATE_FLATNESS = 3.0
#: Operation counts are deterministic — hold them to a tight spread.
OPS_GATE_FLATNESS = 2.0
#: The warm path must beat cold preprocessing by at least this factor.
WARM_SPEEDUP_MIN = 5.0
#: Fused arena lookups must beat the generic register-at-a-time walk by
#: at least this factor.  (Measured 2.1-2.4x at n=256..16384; the floor
#: leaves room for CI noise on the tiny quick-profile tries.)
ARENA_SPEEDUP_MIN = 1.2


def check_gate(
    payload: dict[str, Any],
    exponent_threshold: float = DEFAULT_GATE_EXPONENT,
    flatness_slack: float = DEFAULT_GATE_FLATNESS,
) -> list[dict[str, Any]]:
    """Evaluate every O(1) gate rule against a suite document.

    Returns one verdict dict per applicable rule: ``{rule, series,
    points, exponent, flatness, passed}``.  Shape rules (exponent and
    flatness) need at least two points at distinct sizes and are skipped
    otherwise; floor/ceiling rules apply from ``rule.min_points`` up —
    they bound every point, so a single measurement already decides them.
    """
    verdicts: list[dict[str, Any]] = []
    for rule in GATE_RULES:
        points: list[tuple[int, float]] = []
        for record in payload.get("benchmarks", []):
            if record.get("group") != rule.group:
                continue
            if not str(record.get("name", "")).startswith(rule.prefix):
                continue
            n = record.get("params", {}).get("n")
            if not isinstance(n, int):
                continue
            if rule.metric == "time":
                value = record.get("stats", {}).get("mean")
            else:
                value = record.get("extra_info", {}).get(
                    rule.metric.split(":", 1)[1]
                )
            # zero is a meaningful *failing* value for floor rules (e.g.
            # register_equal=0.0); dropping it would skip the rule instead
            if isinstance(value, (int, float)) and (
                value > 0 or rule.floor is not None
            ):
                points.append((n, float(value)))
        points.sort()
        bounded = rule.floor is not None or rule.ceiling is not None
        if bounded:
            if len(points) < rule.min_points:
                continue
        elif len(points) < 2 or len({n for n, _ in points}) < 2:
            continue
        xs = [n for n, _ in points]
        ys = [v for _, v in points]
        if len(set(xs)) >= 2 and min(ys) > 0:
            exponent, _ = fit_exponent(xs, ys)
        else:
            exponent = 0.0
        spread = flatness(ys) if min(ys) > 0 else math.inf
        if rule.floor is not None:
            passed = min(ys) >= rule.floor
        elif rule.ceiling is not None:
            passed = max(ys) <= rule.ceiling
        elif rule.exponent_ceiling is not None:
            # sublinearity is a pure shape claim: no flatness escape hatch
            passed = exponent <= rule.exponent_ceiling
        elif rule.metric.startswith("extra:register"):
            passed = spread <= OPS_GATE_FLATNESS
        elif rule.metric == "extra:warm_speedup_vs_cold":
            # a floor, not a flatness check: every point must clear 5x
            passed = min(ys) >= WARM_SPEEDUP_MIN
        elif rule.metric == "extra:speedup_vs_generic":
            # also a floor: the fused walk must stay ahead at every size
            passed = min(ys) >= ARENA_SPEEDUP_MIN
        else:
            passed = exponent <= exponent_threshold or spread <= flatness_slack
        verdicts.append(
            {
                "rule": rule.claim,
                "series": f"{rule.group}::{rule.prefix}*",
                "metric": rule.metric,
                "points": points,
                "exponent": round(exponent, 3),
                "flatness": round(spread, 2),
                "passed": passed,
            }
        )
    return verdicts


# ----------------------------------------------------------------------
# orchestration


def machine_info() -> dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }


def run_suite(
    profile: Profile,
    experiments: Iterable[str] | None = None,
    log: Callable[[str], None] = lambda line: None,
) -> dict[str, Any]:
    """Run the suite and return the (already validated) result document."""
    if experiments is None:
        chosen = list(ALL_EXPERIMENTS)
        if profile.name == "full":
            chosen += list(FULL_ONLY_EXPERIMENTS)
    else:
        chosen = list(experiments)
    unknown = [e for e in chosen if e not in BenchSuite.RUNNERS]
    if unknown:
        raise ValueError(
            f"unknown experiment id(s) {unknown}; "
            f"known: {sorted(BenchSuite.RUNNERS)}"
        )
    suite = BenchSuite(profile, log=log)
    started = time.perf_counter()
    suite.run(chosen)
    payload = {
        "suite_version": SUITE_VERSION,
        "schema": SCHEMA_NAME,
        "created": _datetime.datetime.now().isoformat(timespec="seconds"),
        "profile": profile.name,
        "machine_info": machine_info(),
        "experiments": chosen,
        "benchmarks": suite.records,
        "wall_seconds": round(time.perf_counter() - started, 2),
    }
    problems = validate_results(payload)
    if problems:  # a bug in this module, not in the caller's input
        raise AssertionError(
            "bench-suite produced a non-conforming document: "
            + "; ".join(problems[:5])
        )
    return payload


def write_results(payload: dict[str, Any], path: str | Path) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


# ----------------------------------------------------------------------
# CLI


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags shared by ``repro bench-suite`` and ``python -m repro.benchrunner``."""
    parser.add_argument(
        "--quick", action="store_true",
        help="shrunk sweeps for CI smoke runs (minutes -> seconds)",
    )
    parser.add_argument(
        "-o", "--output", default=DEFAULT_OUTPUT,
        help=f"result JSON path (default: {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--experiments", default=None, metavar="IDS",
        help="comma-separated experiment ids to run (e.g. E1,E3,E9); "
        "default: all of " + ",".join(ALL_EXPERIMENTS),
    )
    parser.add_argument(
        "--no-gate", action="store_true",
        help="skip the O(1) regression gate (exit 0 even on growth)",
    )
    parser.add_argument(
        "--gate-exponent", type=float, default=DEFAULT_GATE_EXPONENT,
        help="max fitted log-log exponent an O(1) series may show "
        f"(default: {DEFAULT_GATE_EXPONENT})",
    )
    parser.add_argument(
        "--report", default=None, metavar="FILE",
        help="also render the markdown report to FILE (e.g. EXPERIMENTS.md)",
    )


def run_cli(args: argparse.Namespace) -> int:
    profile = QUICK if args.quick else FULL
    experiments = None
    if args.experiments:
        experiments = [e.strip() for e in args.experiments.split(",") if e.strip()]
    try:
        payload = run_suite(profile, experiments, log=lambda line: print(line))
    except ValueError as exc:
        print(f"bench-suite: {exc}", file=sys.stderr)
        return 2
    write_results(payload, args.output)
    print(
        f"wrote {args.output}: {len(payload['benchmarks'])} records, "
        f"{payload['wall_seconds']}s ({profile.name} profile)"
    )

    if args.report:
        from repro.reporting import render_benchmarks

        Path(args.report).write_text(render_benchmarks(payload["benchmarks"]))
        print(f"wrote {args.report}")

    if args.no_gate:
        return 0
    failures = 0
    for verdict in check_gate(payload, exponent_threshold=args.gate_exponent):
        status = "ok  " if verdict["passed"] else "FAIL"
        print(
            f"gate {status} {verdict['rule']} — exponent {verdict['exponent']}, "
            f"spread {verdict['flatness']}x over {verdict['series']}"
        )
        if not verdict["passed"]:
            failures += 1
    if failures:
        print(f"bench-suite: {failures} O(1) gate rule(s) failed", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.benchrunner",
        description="Run the paper's benchmark suite and its regression gate.",
    )
    add_arguments(parser)
    return run_cli(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
