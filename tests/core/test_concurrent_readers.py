"""Many threads, one ``QueryIndex``: readers must agree with the oracle.

The engine's documented thread-safety contract (see the QueryIndex
docstring) is that post-build state changes are idempotent memoizations,
so concurrent readers may duplicate work but never observe wrong
answers.  This stress test hammers ``test`` / ``next_solution`` /
``enumerate_page`` from many threads against a *cold* index (so the lazy
bag-solver caches are filled under contention) and compares every answer
with a single-threaded oracle computed up front.
"""

from __future__ import annotations

import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.engine import open_index
from repro.graphs.generators import random_planar_like_graph

QUERY = "exists z. E(x, z) & E(z, y)"
THREADS = 8
PROBES_PER_THREAD = 60


@pytest.fixture(scope="module")
def oracle():
    """Single-threaded ground truth on an identical but separate index."""
    graph = random_planar_like_graph(48, seed=9)
    ix = open_index(graph, QUERY)
    solutions = list(ix.enumerate())
    tests = {}
    nexts = {}
    rng = random.Random(4242)
    for _ in range(THREADS * PROBES_PER_THREAD):
        probe = (rng.randrange(-2, graph.n + 2), rng.randrange(-2, graph.n + 2))
        tests[probe] = ix.test(probe)
        nexts[probe] = ix.next_solution(probe)
    return graph, solutions, tests, nexts


def test_concurrent_readers_agree_with_oracle(oracle):
    graph, solutions, tests, nexts = oracle
    # a fresh, cold index: the interesting races are first-touch memoizations
    shared = open_index(graph, QUERY)
    barrier = threading.Barrier(THREADS)
    probes = list(tests)

    def hammer(worker: int) -> list[str]:
        rng = random.Random(worker)
        mine = probes[worker::THREADS]
        barrier.wait()  # maximize contention on the cold caches
        errors = []
        for probe in mine:
            if shared.test(probe) != tests[probe]:
                errors.append(f"test{probe} disagreed")
            if shared.next_solution(probe) != nexts[probe]:
                errors.append(f"next_solution{probe} disagreed")
        # each worker also pages through a random slice of the result set
        limit = rng.randrange(1, 9)
        start = rng.choice(solutions)
        page = shared.enumerate_page(start=start, limit=limit)
        expected = [s for s in solutions if s >= start][:limit]
        if page.items != expected:
            errors.append(f"enumerate_page(start={start}) disagreed")
        return errors

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        results = list(pool.map(hammer, range(THREADS)))
    problems = [msg for worker in results for msg in worker]
    assert problems == []


def test_concurrent_full_enumerations_identical(oracle):
    graph, solutions, _, _ = oracle
    shared = open_index(graph, QUERY)
    barrier = threading.Barrier(THREADS)

    def enumerate_all(_: int) -> list[tuple[int, ...]]:
        barrier.wait()
        return list(shared.enumerate())

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        runs = list(pool.map(enumerate_all, range(THREADS)))
    assert all(run == solutions for run in runs)
