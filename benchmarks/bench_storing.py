"""E1/E2 — the Storing Theorem (Theorem 3.1).

Claims under test:

* initialization ``O(|Dom| * n^eps)`` — the ``init`` group's times per
  stored key should grow like ``n^eps``, not like ``n``;
* lookup ``O(1)`` — the ``lookup`` group should be flat across ``n``;
* update ``O(n^eps)`` — insert+remove cycles likewise.

(E2, the Figure 1 register layout, is verified bit-for-bit in
``tests/storage/test_figure1.py``.)
"""

import random

import pytest

from repro.storage.trie import TrieStore

SIZES = (2 ** 10, 2 ** 14, 2 ** 18)


def _random_keys(n: int, k: int, count: int, seed: int = 0):
    rng = random.Random(seed)
    return [tuple(rng.randrange(n) for _ in range(k)) for _ in range(count)]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("k", [1, 2])
def test_init(benchmark, n, k):
    keys = _random_keys(n, k, 2000)

    def build():
        store = TrieStore(n, k, 0.5)
        for key in keys:
            store.insert(key, 0)
        return store

    store = benchmark.pedantic(build, rounds=1, iterations=1)
    benchmark.extra_info["registers_per_key"] = round(
        store.registers_used / max(len(store), 1), 1
    )


@pytest.mark.parametrize("n", SIZES)
def test_lookup(benchmark, n):
    store = TrieStore(n, 2, 0.5)
    for key in _random_keys(n, 2, 2000):
        store.insert(key, 0)
    probes = _random_keys(n, 2, 512, seed=1)

    def lookup_batch():
        for probe in probes:
            store.lookup(probe)

    benchmark(lookup_batch)
    benchmark.extra_info["per_lookup_batch"] = len(probes)


@pytest.mark.parametrize("n", SIZES)
def test_update_cycle(benchmark, n):
    store = TrieStore(n, 1, 0.5)
    for key in _random_keys(n, 1, 1000):
        store.insert(key, 0)
    cycle = _random_keys(n, 1, 128, seed=2)

    def updates():
        for key in cycle:
            store.insert(key, 1)
        for key in cycle:
            if key in store:
                store.remove(key)

    benchmark(updates)


@pytest.mark.parametrize("n", SIZES)
def test_successor_scan(benchmark, n):
    """Ordered iteration via successor hops — constant per hop."""
    store = TrieStore(n, 1, 0.5)
    for key in _random_keys(n, 1, 1500):
        store.insert(key, 0)

    def scan():
        count = 0
        key = store.min_key()
        while key is not None:
            count += 1
            key = store.successor(key, strict=True)
        return count

    benchmark(scan)
