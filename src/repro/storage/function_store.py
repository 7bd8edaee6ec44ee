"""The public facade over the Storing Theorem structure.

:class:`StoredFunction` pairs the primary trie with the *dual* trie the
paper describes in Section 7.2.2: the dual stores every key complemented
coordinate-wise (``x -> n-1-x``), which reverses the lexicographic order,
so a successor query on the dual is a constant-time *predecessor* query on
the primary.

Every index built by :mod:`repro.core` keeps its precomputed partial
functions in instances of this class, so Theorem 3.1's space and time
bounds govern the whole pipeline (as in the paper, where the Storing
Theorem backs Steps 2-13 of the preprocessing).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import Any

from repro.contracts import builds, constant_time, delay, frozen_after_build, read_only
from repro.storage.trie import HIT, MISS, TrieStore

Key = tuple[int, ...]


@frozen_after_build
class StoredFunction:
    """A mutable partial function ``[n]^k -> values`` with O(1) ordered lookups.

    Parameters
    ----------
    n:
        Coordinate universe size; keys are ``k``-tuples over ``[0, n)``.
    k:
        Key arity.
    eps:
        Space/update exponent (Theorem 3.1's ``eps``).
    items:
        Optional initial ``(key, value)`` pairs; loaded through the
        tries' batch bulk-load path (sort once, one construction pass)
        instead of per-key inserts.

    Examples
    --------
    >>> f = StoredFunction(27, 1, eps=1/3)
    >>> for x in (2, 4, 5, 19, 24, 25):
    ...     f[x,] = x
    >>> f.lookup((7,))
    ('miss', (19,))
    >>> f.predecessor((7,))
    (5,)
    """

    __slots__ = ("_primary", "_dual", "n", "k")

    def __init__(
        self,
        n: int,
        k: int,
        eps: float = 0.5,
        items: Iterable[tuple[Key, Any]] = (),
    ) -> None:
        self._primary = TrieStore(n, k, eps)
        self._dual = TrieStore(n, k, eps)
        self.n = n
        self.k = k
        pairs = [(self._as_key(key), value) for key, value in items]
        if pairs:
            self._primary.bulk_load(pairs)
            self._dual.bulk_load(
                (self._complement(key), True) for key, _ in pairs
            )

    # ------------------------------------------------------------------
    @constant_time(note="k negations, k fixed")
    @read_only
    def _complement(self, key: Key) -> Key:
        return tuple(self.n - 1 - x for x in key)

    @constant_time
    @read_only
    def _as_key(self, key) -> Key:
        if isinstance(key, int):
            key = (key,)
        return tuple(key)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    @delay("O(n^eps)", note="two trie inserts")
    @builds
    def __setitem__(self, key, value: Any) -> None:
        key = self._as_key(key)
        self._primary.insert(key, value)
        self._dual.insert(self._complement(key), True)

    @delay("O(n^eps)", note="two trie removals")
    @builds
    def __delitem__(self, key) -> None:
        key = self._as_key(key)
        self._primary.remove(key)
        self._dual.remove(self._complement(key))

    # ------------------------------------------------------------------
    # queries (all constant time for fixed k, eps)
    # ------------------------------------------------------------------
    @constant_time(note="Theorem 3.1 lookup-or-successor")
    @read_only
    def lookup(self, key) -> tuple[str, Any]:
        """The paper's lookup: ``(HIT, value)`` or ``(MISS, next key or None)``."""
        return self._primary.lookup(self._as_key(key))

    @constant_time
    @read_only
    def __getitem__(self, key) -> Any:
        status, payload = self.lookup(key)
        if status == MISS:
            raise KeyError(self._as_key(key))
        return payload

    @constant_time
    @read_only
    def get(self, key, default: Any = None) -> Any:
        """dict.get semantics over the stored function."""
        status, payload = self.lookup(key)
        return payload if status == HIT else default

    @constant_time
    @read_only
    def __contains__(self, key) -> bool:
        return self.lookup(key)[0] == HIT

    @constant_time
    @read_only
    def successor(self, key, strict: bool = False) -> Key | None:
        """Smallest stored key ``>= key`` (or ``> key`` if strict)."""
        return self._primary.successor(self._as_key(key), strict=strict)

    @constant_time(note="successor on the complemented dual (Section 7.2.2)")
    @read_only
    def predecessor(self, key, strict: bool = True) -> Key | None:
        """Largest stored key ``< key`` (or ``<= key`` if not strict).

        Constant time via the dual structure (Section 7.2.2).
        """
        key = self._as_key(key)
        mirrored = self._dual.successor(self._complement(key), strict=strict)
        if mirrored is None:
            return None
        return self._complement(mirrored)

    @constant_time
    @read_only
    def min_key(self) -> Key | None:
        """The smallest stored key (None when empty)."""
        return self._primary.min_key()

    @constant_time
    @read_only
    def max_key(self) -> Key | None:
        """The largest stored key, via the dual structure."""
        mirrored = self._dual.min_key()
        return None if mirrored is None else self._complement(mirrored)

    # ------------------------------------------------------------------
    # iteration / accounting
    # ------------------------------------------------------------------
    @constant_time
    @read_only
    def __len__(self) -> int:
        return len(self._primary)

    @delay("O(1)")
    @read_only
    def items(self) -> Iterator[tuple[Key, Any]]:
        """(key, value) pairs in ascending key order, constant delay."""
        return self._primary.items()

    @delay("O(1)")
    @read_only
    def keys(self) -> Iterator[Key]:
        """Stored keys in ascending order."""
        return self._primary.keys()

    @property
    @read_only
    def registers_used(self) -> int:
        """Total registers across primary + dual (Theorem 3.1 space)."""
        return self._primary.registers_used + self._dual.registers_used

    @read_only
    def check_invariants(self) -> None:
        """Exhaustive verification of both tries and their agreement."""
        self._primary.check_invariants()
        self._dual.check_invariants()
        primary_keys = set(self._primary.keys())
        dual_keys = {self._complement(key) for key in self._dual.keys()}
        if primary_keys != dual_keys:
            raise AssertionError("primary and dual tries disagree on the domain")

    @read_only
    def __repr__(self) -> str:
        return f"StoredFunction(n={self.n}, k={self.k}, size={len(self)})"
