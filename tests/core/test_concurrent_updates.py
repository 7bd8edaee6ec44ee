"""Readers on generation k must be undisturbed by an in-flight update.

The update path is copy-on-write: ``insert_edge``/``delete_edge`` build
a *new* ``QueryIndex`` and never mutate the tower they started from, so
readers holding the old generation keep getting old-generation answers
with no locking.  This test hammers the old index from many threads
while the main thread applies a chain of updates under the paranoid
freeze tripwire (``repro serve --paranoid``'s guard): any stray write to
a frozen register by the repair would raise ``FrozenWriteError`` inside
the update, and any cross-generation leak would show up as a reader
disagreement — the flat register files shared between generations are
what is most sensitive to aliasing.

The old generation is served two ways: with its register words in each
register file's own ``array`` objects (``object``), and re-homed into one
shared read-only arena mapping (``arena``, what a pre-fork pool worker
reads), where a stray write would also fail on the buffer itself.
"""

from __future__ import annotations

import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.contracts.effects import freeze
from repro.core.engine import open_index
from repro.graphs.generators import random_planar_like_graph
from repro.storage.shared import share_index

QUERY = "exists z. E(x, z) & E(z, y)"
THREADS = 8
PROBES_PER_THREAD = 40
UPDATES = 6


def _edits(graph, count, seed):
    """``count`` valid toggle edits against the evolving edge set."""
    rng = random.Random(seed)
    present = {tuple(sorted(e)) for e in graph.edges()}
    edits = []
    while len(edits) < count:
        u, v = rng.randrange(graph.n), rng.randrange(graph.n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in present:
            present.discard(key)
            edits.append((u, v, False))
        else:
            present.add(key)
            edits.append((u, v, True))
    return edits


@pytest.fixture(params=["object", "arena"])
def index(request):
    """The old generation, its registers private or in a shared arena."""
    index = open_index(random_planar_like_graph(48, seed=9), QUERY)
    if request.param == "object":
        yield index
        return
    arena = share_index(index, tag="readers")
    assert arena is not None
    try:
        yield index
    finally:
        arena.close()


def test_readers_stable_while_updates_in_flight(index):
    graph = index.graph
    before = list(index.enumerate())
    rng = random.Random(4242)
    probes = [
        (rng.randrange(graph.n), rng.randrange(graph.n))
        for _ in range(THREADS * PROBES_PER_THREAD)
    ]
    expected = {p: (index.test(p), index.next_solution(p)) for p in probes}
    edits = _edits(graph, UPDATES, seed=17)

    barrier = threading.Barrier(THREADS + 1)
    stop = threading.Event()

    def hammer(worker: int) -> list[str]:
        mine = probes[worker::THREADS]
        barrier.wait()  # overlap the read storm with the update chain
        errors: list[str] = []
        while True:  # always >= 1 full pass, keep going while updating
            for probe in mine:
                if index.test(probe) != expected[probe][0]:
                    errors.append(f"test{probe} changed under reader")
                if index.next_solution(probe) != expected[probe][1]:
                    errors.append(f"next_solution{probe} changed under reader")
            if stop.is_set() or errors:
                return errors

    with freeze(), ThreadPoolExecutor(max_workers=THREADS) as pool:
        futures = [pool.submit(hammer, w) for w in range(THREADS)]
        barrier.wait()
        updated = index
        for u, v, inserted in edits:
            updated = (
                updated.insert_edge(u, v) if inserted
                else updated.delete_edge(u, v)
            )
        stop.set()
        problems = [msg for f in futures for msg in f.result()]

    assert problems == []
    # the old generation survived the whole chain untouched ...
    assert index.version == 0
    assert list(index.enumerate()) == before
    # ... and the new generation is exactly what a rebuild would produce
    assert updated.version == UPDATES
    rebuilt = open_index(updated.graph, QUERY)
    assert updated.registers() == rebuilt.registers()
    assert list(updated.enumerate()) == list(rebuilt.enumerate())
