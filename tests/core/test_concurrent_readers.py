"""Many threads, one ``QueryIndex``: readers must agree with the oracle.

The engine's documented thread-safety contract (see the QueryIndex
docstring) is that post-build state changes are idempotent memoizations,
so concurrent readers may duplicate work but never observe wrong
answers.  This stress test hammers ``test`` / ``next_solution`` /
``enumerate_page`` from many threads against a *cold* index and compares
every answer with a single-threaded oracle computed up front.  Every bag
solver exists once the build returns; what still fills on first touch
are the bag-local column and test memos, and those fill only at arity
>= 3 (at arity 2 the build's prefix derivation computes them all), so
the arity-3 chain is the query whose cold index races on something.
"""

from __future__ import annotations

import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.engine import open_index
from repro.graphs.generators import random_planar_like_graph

#: the binary two-hop query and the arity-3 chain (``path-3``)
QUERIES = ("exists z. E(x, z) & E(z, y)", "E(x, y) & E(y, z)")
THREADS = 8
PROBES_PER_THREAD = 60


@pytest.fixture(scope="module")
def oracle():
    """Single-threaded ground truth per query, on separate indexes."""
    graph = random_planar_like_graph(48, seed=9)
    truth = {}
    for query in QUERIES:
        ix = open_index(graph, query)
        solutions = list(ix.enumerate())
        tests = {}
        nexts = {}
        rng = random.Random(4242)
        for _ in range(THREADS * PROBES_PER_THREAD):
            probe = tuple(
                rng.randrange(-2, graph.n + 2) for _ in range(ix.arity)
            )
            tests[probe] = ix.test(probe)
            nexts[probe] = ix.next_solution(probe)
        truth[query] = (solutions, tests, nexts)
    return graph, truth


def _hammer_cold_index(graph, query, solutions, tests, nexts) -> list[str]:
    # a fresh, cold index: the interesting races are first-touch memoizations
    shared = open_index(graph, query)
    barrier = threading.Barrier(THREADS)
    probes = list(tests)

    def hammer(worker: int) -> list[str]:
        rng = random.Random(worker)
        mine = probes[worker::THREADS]
        barrier.wait()  # maximize contention on the cold caches
        errors = []
        for probe in mine:
            if shared.test(probe) != tests[probe]:
                errors.append(f"{query}: test{probe} disagreed")
            if shared.next_solution(probe) != nexts[probe]:
                errors.append(f"{query}: next_solution{probe} disagreed")
        # each worker also pages through a random slice of the result set
        limit = rng.randrange(1, 9)
        start = rng.choice(solutions)
        page = shared.enumerate_page(start=start, limit=limit)
        expected = [s for s in solutions if s >= start][:limit]
        if page.items != expected:
            errors.append(f"{query}: enumerate_page(start={start}) disagreed")
        return errors

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        results = list(pool.map(hammer, range(THREADS)))
    return [msg for worker in results for msg in worker]


def test_concurrent_readers_agree_with_oracle(oracle):
    graph, truth = oracle
    problems = []
    for query, (solutions, tests, nexts) in truth.items():
        problems += _hammer_cold_index(graph, query, solutions, tests, nexts)
    assert problems == []


def _enumerate_concurrently(shared) -> list[list[tuple[int, ...]]]:
    barrier = threading.Barrier(THREADS)

    def enumerate_all(_: int) -> list[tuple[int, ...]]:
        barrier.wait()
        return list(shared.enumerate())

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        return list(pool.map(enumerate_all, range(THREADS)))


def test_concurrent_full_enumerations_identical(oracle):
    graph, truth = oracle
    for query, (solutions, _, _) in truth.items():
        runs = _enumerate_concurrently(open_index(graph, query))
        assert all(run == solutions for run in runs), query
