"""The Storing Theorem data structure (Theorem 3.1 / Section 7).

A register-level implementation of the paper's trie: a partial ``k``-ary
function over ``[n]^k`` stored in ``O(|Dom(f)| * n^eps)`` registers with
constant-time *lookup-or-successor*, and ``O(n^eps)`` insert/remove.

:class:`~repro.storage.function_store.StoredFunction` is the public facade;
it also maintains the dual (reverse-order) trie the paper uses for
predecessor queries (Section 7.2.2).  Registers live in one flat arena
(:class:`~repro.storage.registers.RegisterFile`), which snapshots as
compressed raw buffers and which the serving pool can mmap-share across
workers (:mod:`repro.storage.shared`); see ``docs/storage.md``.
"""

from repro.storage.function_store import StoredFunction
from repro.storage.registers import RegisterFile
from repro.storage.shared import SharedArena, share_index, shared_map_stats
from repro.storage.trie import HIT, MISS, TrieStore

__all__ = [
    "HIT",
    "MISS",
    "RegisterFile",
    "SharedArena",
    "StoredFunction",
    "TrieStore",
    "share_index",
    "shared_map_stats",
]
