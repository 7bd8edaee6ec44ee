"""The Storing Theorem trie (Theorem 3.1, Appendix Section 7).

Stores a partial function ``f`` with ``Dom(f) ⊆ [n]^k`` as the paper's
partial ``d``-ary tree ``T(f)`` of depth ``k*h``, where ``d = ⌈n^eps⌉`` and
``h = ⌈1/eps⌉`` (so ``d^h >= n``).  Every node is a block of ``d+1``
consecutive registers:

* cell ``i < d`` holds ``(1, child)`` when the ``i``-th child exists —
  ``child`` is the child's first register for inner levels, and the stored
  *value* ``f(ā)`` at the deepest level;
* cell ``i < d`` holds ``(0, succ)`` when it does not — ``succ`` is the
  smallest domain tuple whose encoding exceeds the cell's prefix (``None``
  if there is none).  This is the shortcut making *lookup-or-successor*
  constant time;
* the trailing register holds ``(-1, parent_cell)``, the back-pointer used
  by the update procedures (``None`` for the root).

Register ``R_0`` holds the next free register, as in the paper; arrays are
compacted on removal by moving the physically-last block into the freed
slot (procedure ``Cut``).

Complexities for fixed ``k`` and ``eps`` (Theorem 3.1): lookup ``O(k*h)``
= constant; insert/remove ``O(d*k*h)`` = ``O(n^eps)``; space
``O(|Dom(f)| * d * k * h)`` = ``O(|Dom(f)| * n^eps)`` registers.

Two walks read the same registers.  :meth:`TrieStore.lookup` and
:meth:`TrieStore.successor` are *fused*: they extract digits inline and
read one payload word per level straight from the
:class:`~repro.storage.registers.RegisterFile` arena (its CHILD-odd /
GAP-even payload tags make the delta bytes unnecessary).  The *generic*
walk (:meth:`TrieStore._encode` + :meth:`TrieStore._lookup_digits`) goes
register by register through ``RegisterFile.read``; the update
procedures use it, and the benchmarks replay probes through it to count
register reads per lookup.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from typing import Any

from repro.contracts import (
    builds,
    constant_time,
    delay,
    frozen_after_build,
    pseudo_linear,
    read_only,
)
from repro.storage.registers import CHILD, GAP, PARENT, RegisterFile
from repro.trace.runtime import span as _trace_span

#: Lookup outcome tags.
HIT = "hit"
MISS = "miss"


@frozen_after_build
class TrieStore:
    """Theorem 3.1's data structure for one fixed key order.

    Parameters
    ----------
    n:
        Keys are ``k``-tuples over ``[0, n)``.
    k:
        Key arity (``>= 1``).
    eps:
        The space/update exponent; determines the branching factor
        ``d = ⌈n^eps⌉`` and depth ``h = ⌈1/eps⌉`` per coordinate.
    """

    __slots__ = (
        "n", "k", "eps", "d", "h", "depth", "registers", "_root", "_size",
        "_cells", "_side", "_pows_head",
    )

    def __init__(self, n: int, k: int, eps: float) -> None:
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        if not 0 < eps <= 1:
            raise ValueError(f"eps must be in (0, 1], got {eps}")
        self.n = n
        self.k = k
        self.eps = eps
        # d >= 2 always: a degenerate one-cell fanout (n=1 used to yield
        # d=1) makes _increment overflow on every call and leaves the
        # _fill_* walks with nothing to skip over, so the universe of a
        # single key still gets the ordinary two-way branching.
        self.d = max(2, math.ceil(n ** eps))
        self.h = max(1, math.ceil(1 / eps))
        while self.d ** self.h < n:  # guard against float rounding in n**eps
            self.h += 1
        self.depth = k * self.h  # number of branching levels
        with _trace_span("trie.create", n=n, k=k, d=self.d, h=self.h):
            self.registers = RegisterFile()
            self._root = self._new_node(parent_cell=None)
            self._size = 0
        self.rebind_arena()

    # ------------------------------------------------------------------
    # encoding (Algorithm 1, "Decomposition")
    # ------------------------------------------------------------------
    @constant_time(note="k*h digit extractions; k, h fixed")
    @read_only
    def _encode(self, key: tuple[int, ...]) -> list[int]:
        """Base-``d`` digits of ``key``, most significant first per coordinate."""
        if len(key) != self.k:
            raise ValueError(f"expected a {self.k}-tuple, got {key!r}")
        digits = [0] * self.depth
        for i, coordinate in enumerate(key):
            if not 0 <= coordinate < self.n:
                raise ValueError(f"coordinate {coordinate} out of range [0, {self.n})")
            value = coordinate
            base = (i + 1) * self.h - 1
            for j in range(self.h):
                value, digit = divmod(value, self.d)
                digits[base - j] = digit
        return digits

    @constant_time(note="k*h digit folds; k, h fixed")
    @read_only
    def _decode(self, digits: list[int]) -> tuple[int, ...]:
        key = []
        for i in range(self.k):
            value = 0
            for j in range(i * self.h, (i + 1) * self.h):
                value = value * self.d + digits[j]
            key.append(value)
        return tuple(key)

    @staticmethod
    @constant_time(note="one pass over k*h digits")
    @read_only
    def _increment(digits: list[int], d: int) -> list[int] | None:
        """The digit string following ``digits`` in base ``d``; None on overflow."""
        out = list(digits)
        for i in range(len(out) - 1, -1, -1):
            if out[i] + 1 < d:
                out[i] += 1
                return out
            out[i] = 0
        return None

    # ------------------------------------------------------------------
    # node allocation
    # ------------------------------------------------------------------
    @builds
    def _new_node(self, parent_cell: int | None) -> int:
        base = self.registers.allocate(self.d + 1)
        self.registers.fill_gaps(base, self.d, None)
        self.registers.write(base + self.d, PARENT, parent_cell)
        return base

    # ------------------------------------------------------------------
    # lookup (Algorithm 2, "Access")
    # ------------------------------------------------------------------
    @constant_time(note="Theorem 3.1 lookup-or-successor; one word per level")
    @read_only
    def lookup(self, key: tuple[int, ...]) -> tuple[str, Any]:
        """Constant-time lookup-or-successor (fused walk).

        Returns ``(HIT, value)`` if ``key`` is stored, else
        ``(MISS, succ)`` where ``succ`` is the smallest stored key
        ``> key`` (or ``None`` if none exists).  Answers equal the
        generic walk's (:meth:`_lookup_digits`); the walk body is inlined
        here and in :meth:`successor` because an extra Python frame per
        call costs ~25% of this hot path.
        """
        if len(key) != self.k:
            raise ValueError(f"expected a {self.k}-tuple, got {key!r}")
        n = self.n
        for c in key:  # whole-key validation first, like _encode
            if not 0 <= c < n:
                raise ValueError(f"coordinate {c} out of range [0, {n})")
        cells = self._cells
        side = self._side
        pows = self._pows_head
        base = self._root
        last_coordinate = self.k - 1
        for index, c in enumerate(key):
            for p in pows:
                digit = c // p
                c -= digit * p
                word = cells[base + digit]
                if word & 1:
                    base = word >> 2
                else:
                    return (MISS, side[word >> 2]) if word else (MISS, None)
            # the coordinate's last level: the divisor is 1, digit == c
            word = cells[base + c]
            if word & 1:
                if index == last_coordinate:
                    if word & 2:
                        return (HIT, side[word >> 2])
                    return (HIT, word >> 2)
                base = word >> 2
            else:
                return (MISS, side[word >> 2]) if word else (MISS, None)
        raise AssertionError("unreachable: trie walk fell through")  # pragma: no cover

    @constant_time(note="one root-to-leaf walk of depth k*h")
    @read_only
    def _lookup_digits(self, digits: list[int]) -> tuple[str, Any]:
        """The generic walk: one counted register read per level."""
        base = self._root
        last = self.depth - 1
        for t, digit in enumerate(digits):
            delta, payload = self.registers.read(base + digit)
            if delta == GAP:
                return (MISS, payload)
            if t == last:
                return (HIT, payload)
            base = payload
        raise AssertionError("unreachable: trie walk fell through")  # pragma: no cover

    @constant_time
    @read_only
    def get(self, key: tuple[int, ...], default: Any = None) -> Any:
        """dict.get semantics."""
        status, payload = self.lookup(key)
        return payload if status == HIT else default

    @constant_time
    @read_only
    def __contains__(self, key: tuple[int, ...]) -> bool:
        return self.lookup(key)[0] == HIT

    @constant_time(note="Section 7.2.2: one fused walk on the (bumped) key")
    @read_only
    def successor(self, key: tuple[int, ...], strict: bool = False) -> tuple[int, ...] | None:
        """Smallest stored key ``>= key`` (``> key`` when ``strict``).

        The strict case walks from the next key in *tuple* order (carry
        at ``n``) rather than the next base-``d`` *digit string*: the
        digit strings strictly between the two encode no valid keys, so
        both walks land in the same gap cell and read the same stored
        successor.  Like :meth:`lookup`, the walk body is inlined — this
        is the enumeration hot path.
        """
        if len(key) != self.k:
            raise ValueError(f"expected a {self.k}-tuple, got {key!r}")
        n = self.n
        for c in key:  # whole-key validation first, like _encode
            if not 0 <= c < n:
                raise ValueError(f"coordinate {c} out of range [0, {n})")
        if strict:
            bump = self.k - 1
            while bump >= 0 and key[bump] + 1 >= n:
                bump -= 1
            if bump < 0:  # every coordinate carried: key was the maximum
                return None
            if bump == self.k - 1:
                key = key[:bump] + (key[bump] + 1,)
            else:
                key = key[:bump] + (key[bump] + 1,) + (0,) * (self.k - 1 - bump)
        cells = self._cells
        side = self._side
        pows = self._pows_head
        base = self._root
        last_coordinate = self.k - 1
        for index, c in enumerate(key):
            for p in pows:
                digit = c // p
                c -= digit * p
                word = cells[base + digit]
                if word & 1:
                    base = word >> 2
                else:
                    return side[word >> 2] if word else None
            word = cells[base + c]
            if word & 1:
                if index == last_coordinate:
                    return key
                base = word >> 2
            else:
                return side[word >> 2] if word else None
        raise AssertionError("unreachable: trie walk fell through")  # pragma: no cover

    # ------------------------------------------------------------------
    # predecessor (in-structure walk; O(d * k * h), used by updates)
    # ------------------------------------------------------------------
    @delay("O(n^eps)", note="in-structure walk; see predecessor() docstring")
    @read_only
    def _predecessor(self, digits: list[int]) -> tuple[int, ...] | None:
        """Largest stored key strictly below ``digits``.

        The paper obtains this from the dual (reverse-order) structure in
        constant time; inside update procedures an ``O(d*k*h)`` walk has the
        same asymptotics as the update itself, so we stay self-contained.
        """
        base = self._root
        last = self.depth - 1
        # Walk down recording visited nodes while the path exists.
        trail: list[tuple[int, int]] = []  # (node base, digit taken)
        for t, digit in enumerate(digits):
            trail.append((base, digit))
            delta, payload = self.registers.read(base + digit)
            if delta == GAP or t == last:
                break
            base = payload
        # Climb the trail looking for a smaller branch to dive into.
        for t in range(len(trail) - 1, -1, -1):
            node, taken = trail[t]
            for digit in range(taken - 1, -1, -1):
                delta, payload = self.registers.read(node + digit)
                if delta == CHILD:
                    return self._rightmost(payload, t, prefix=self._trail_digits(trail, t) + [digit])
        return None

    @read_only
    def _trail_digits(self, trail: list[tuple[int, int]], t: int) -> list[int]:
        return [digit for (_, digit) in trail[:t]]

    @read_only
    def _rightmost(self, payload: Any, level: int, prefix: list[int]) -> tuple[int, ...]:
        """Descend to the largest key under the child reached at ``level``."""
        digits = list(prefix)
        last = self.depth - 1
        t = level
        while t < last:
            base = payload
            for digit in range(self.d - 1, -1, -1):
                delta, cell_payload = self.registers.read(base + digit)
                if delta == CHILD:
                    digits.append(digit)
                    payload = cell_payload
                    break
            else:  # pragma: no cover - a live inner node always has a child
                raise AssertionError("inner node with no children")
            t += 1
        return self._decode(digits)

    @delay("O(n^eps)", note="documented non-constant walk; dual structure gives O(1)")
    @read_only
    def predecessor(self, key: tuple[int, ...], strict: bool = True) -> tuple[int, ...] | None:
        """Largest stored key ``< key`` (``<= key`` when ``strict=False``).

        Note: ``O(d*k*h)``, not constant — use
        :class:`~repro.storage.function_store.StoredFunction` for the
        paper's constant-time predecessor via the dual structure.
        """
        if not strict and key in self:
            return key
        return self._predecessor(self._encode(key))

    # ------------------------------------------------------------------
    # insertion (Algorithms 4/5, "Add"/"Insert", plus "Clean")
    # ------------------------------------------------------------------
    @delay("O(n^eps)", note="Theorem 3.1 update bound O(d*k*h)")
    @builds
    def insert(self, key: tuple[int, ...], value: Any) -> bool:
        """Set ``f(key) = value``.  Returns True iff ``key`` is new."""
        digits = self._encode(key)
        status, payload = self._lookup_digits(digits)
        if status == HIT:
            self._overwrite(digits, value)
            return False
        succ = payload  # the old successor of key, i.e. ā_>
        pred = self._predecessor(digits)  # ā_<
        self._insert_path(digits, value)
        self._fill_between(None if pred is None else self._encode(pred), digits, key)
        self._fill_between(digits, None if succ is None else self._encode(succ), succ)
        self._size += 1
        return True

    @builds
    def _overwrite(self, digits: list[int], value: Any) -> None:
        base = self._root
        for digit in digits[:-1]:
            base = self.registers.read(base + digit)[1]
        self.registers.write(base + digits[-1], CHILD, value)

    @builds
    def _insert_path(self, digits: list[int], value: Any) -> None:
        base = self._root
        last = self.depth - 1
        for t, digit in enumerate(digits):
            cell = base + digit
            if t == last:
                self.registers.write(cell, CHILD, value)
                return
            delta, payload = self.registers.read(cell)
            if delta == GAP:
                payload = self._new_node(parent_cell=cell)
                self.registers.write(cell, CHILD, payload)
            base = payload

    # ------------------------------------------------------------------
    # bulk load (preprocessing fast path)
    # ------------------------------------------------------------------
    @pseudo_linear(note="sort once, then one sorted pass + one gap-fill pass")
    @builds
    def bulk_load(self, items: Iterable[tuple[tuple[int, ...], Any]]) -> int:
        """Build the whole structure from ``(key, value)`` pairs at once.

        Much cheaper than repeated :meth:`insert`: keys are sorted once,
        paths are materialized left to right reusing the shared prefix
        with the previous key, and every gap cell is pointed at its
        successor in a single reverse-lexicographic pass — so the
        ``O(d*k*h)`` per-insert gap maintenance is paid once per *node*
        instead of once per *key*.  Fresh nodes and the gap runs between
        neighbouring children are written with one
        :meth:`RegisterFile.fill_gaps` each, so the load issues
        O(nodes + runs) register writes rather than one per cell, and
        leaves exactly the registers per-cell writes would.  Duplicate
        keys keep the last value (dict semantics).  Requires an empty
        store; returns the number of keys loaded.
        """
        if self._size:
            raise ValueError("bulk_load requires an empty store")
        unique: dict[tuple[int, ...], Any] = {}
        for key, value in items:
            unique[tuple(key)] = value
        ordered = sorted(unique.items())
        last = self.depth - 1
        # stack[t] = base register of the node at level t on the current path
        stack = [self._root] + [0] * last
        previous: list[int] | None = None
        for key, value in ordered:
            digits = self._encode(key)
            start = 0
            if previous is not None:
                while start < last and digits[start] == previous[start]:
                    start += 1
            base = stack[start]
            for t in range(start, self.depth):
                cell = base + digits[t]
                if t == last:
                    self.registers.write(cell, CHILD, value)
                    break
                delta, payload = self.registers.read(cell)
                if delta == GAP:
                    payload = self._new_node(parent_cell=cell)
                    self.registers.write(cell, CHILD, payload)
                base = payload
                stack[t + 1] = base
            previous = digits
        self._size = len(ordered)
        self._fill_all_gaps()
        return self._size

    @builds
    def _fill_all_gaps(self) -> None:
        """Point every gap cell at its successor in one reverse-order pass.

        The gap cells between two neighbouring children of a node (and
        before the first, after the last) share one successor, so each
        such run is written with one :meth:`RegisterFile.fill_gaps`.
        """
        last = self.depth - 1
        next_key: tuple[int, ...] | None = None
        prefix: list[int] = []

        def walk(base: int, t: int) -> None:
            nonlocal next_key
            run_end = base + self.d  # cells [cell + 1, run_end) await next_key
            for digit in range(self.d - 1, -1, -1):
                cell = base + digit
                delta, payload = self.registers.read(cell)
                if delta != CHILD:
                    continue
                if run_end > cell + 1:
                    self.registers.fill_gaps(cell + 1, run_end - cell - 1, next_key)
                run_end = cell
                prefix.append(digit)
                if t == last:
                    next_key = self._decode(prefix)
                else:
                    walk(payload, t + 1)
                prefix.pop()
            if run_end > base:
                self.registers.fill_gaps(base, run_end - base, next_key)

        walk(self._root, 0)

    # ------------------------------------------------------------------
    # removal (Algorithms 10/12, "Remove"/"Cut")
    # ------------------------------------------------------------------
    @delay("O(n^eps)", note="Theorem 3.1 update bound O(d*k*h)")
    @builds
    def remove(self, key: tuple[int, ...]) -> Any:
        """Delete ``key``; returns its value.  Raises KeyError if absent."""
        digits = self._encode(key)
        status, old_value = self._lookup_digits(digits)
        if status == MISS:
            raise KeyError(key)
        succ = self.successor(key, strict=True)
        pred = self._predecessor(digits)
        succ_digits = None if succ is None else self._encode(succ)
        pred_digits = None if pred is None else self._encode(pred)
        # Clear the leaf cell, then compact empty arrays bottom-up.
        leaf_node = self._node_on_path(digits, self.depth - 1)
        self.registers.write(leaf_node + digits[-1], GAP, succ)
        self._cut(leaf_node, self.depth - 1, succ)
        self._fill_between(pred_digits, succ_digits, succ)
        self._size -= 1
        return old_value

    @read_only
    def _node_on_path(self, digits: list[int], level: int) -> int:
        base = self._root
        for t in range(level):
            base = self.registers.read(base + digits[t])[1]
        return base

    @builds
    def _cut(self, node: int, node_depth: int, succ: tuple[int, ...] | None) -> None:
        """Free all-gap arrays bottom-up, compacting the register file."""
        while node_depth > 0:
            if any(
                self.registers.read(node + j)[0] == CHILD for j in range(self.d)
            ):
                return
            parent_cell = self.registers.read(node + self.d)[1]
            self.registers.write(parent_cell, GAP, succ)
            parent_cell = self._free_array(node, parent_cell)
            node = self._array_base(parent_cell)
            node_depth -= 1

    @builds
    def _free_array(self, node: int, parent_cell: int) -> int:
        """Release array ``node``; returns ``parent_cell`` (remapped if moved)."""
        width = self.d + 1
        last = self.registers.next_free - width
        if last != node:
            moved_depth = self._depth_of(last)
            # copy the physically-last array into the freed slot
            for j in range(width):
                delta, payload = self.registers.read(last + j)
                self.registers.write(node + j, delta, payload)
            # fix the moved array's parent -> child pointer
            moved_parent_cell = self.registers.read(node + self.d)[1]
            self.registers.write(moved_parent_cell, CHILD, node)
            # fix the moved array's children -> parent back-pointers
            if moved_depth < self.depth - 1:
                for j in range(self.d):
                    delta, payload = self.registers.read(node + j)
                    if delta == CHILD:
                        self.registers.write(payload + self.d, PARENT, node + j)
            if last <= parent_cell < last + width:
                parent_cell = node + (parent_cell - last)
        self.registers.release_last(width)
        return parent_cell

    @read_only
    def _depth_of(self, node: int) -> int:
        """Depth of array ``node`` via its parent chain (O(d * k * h))."""
        depth = 0
        cell = self.registers.read(node + self.d)[1]
        while cell is not None:
            depth += 1
            base = self._array_base(cell)
            cell = self.registers.read(base + self.d)[1]
        return depth

    @read_only
    def _array_base(self, cell: int) -> int:
        """The base register of the array containing register ``cell``."""
        index = cell
        while self.registers.read(index)[0] != PARENT:
            index += 1
        return index - self.d

    # ------------------------------------------------------------------
    # gap maintenance (Algorithms 6-9, "Clean"/"Fill*")
    # ------------------------------------------------------------------
    @builds
    def _fill_between(
        self,
        lo: list[int] | None,
        hi: list[int] | None,
        payload: tuple[int, ...] | None,
    ) -> None:
        """Point every gap cell strictly between paths ``lo`` and ``hi`` at
        ``payload``.  ``lo=None`` means "from the very beginning", ``hi=None``
        "to the very end"; both paths, when given, must exist in the trie."""
        if lo is None and hi is None:
            for j in range(self.d):
                if self.registers.read(self._root + j)[0] == GAP:
                    self.registers.write(self._root + j, GAP, payload)
            return
        if lo is None:
            self._fill_left(self._root, 0, hi, payload)
            return
        if hi is None:
            self._fill_right(self._root, 0, lo, payload)
            return
        base = self._root
        t = 0
        while lo[t] == hi[t]:
            base = self.registers.read(base + lo[t])[1]
            t += 1
        for digit in range(lo[t] + 1, hi[t]):
            if self.registers.read(base + digit)[0] == GAP:
                self.registers.write(base + digit, GAP, payload)
        if t < self.depth - 1:
            lo_child = self.registers.read(base + lo[t])[1]
            self._fill_right(lo_child, t + 1, lo, payload)
            hi_child = self.registers.read(base + hi[t])[1]
            self._fill_left(hi_child, t + 1, hi, payload)

    @builds
    def _fill_left(self, base: int, t: int, path: list[int], payload: Any) -> None:
        """Gap cells lexicographically before ``path`` within its subtree."""
        while True:
            digit = path[t]
            for j in range(digit):
                if self.registers.read(base + j)[0] == GAP:
                    self.registers.write(base + j, GAP, payload)
            if t == self.depth - 1:
                return
            base = self.registers.read(base + digit)[1]
            t += 1

    @builds
    def _fill_right(self, base: int, t: int, path: list[int], payload: Any) -> None:
        """Gap cells lexicographically after ``path`` within its subtree."""
        while True:
            digit = path[t]
            for j in range(digit + 1, self.d):
                if self.registers.read(base + j)[0] == GAP:
                    self.registers.write(base + j, GAP, payload)
            if t == self.depth - 1:
                return
            base = self.registers.read(base + digit)[1]
            t += 1

    # ------------------------------------------------------------------
    # iteration / introspection
    # ------------------------------------------------------------------
    @read_only
    def __len__(self) -> int:
        return self._size

    @constant_time
    @read_only
    def min_key(self) -> tuple[int, ...] | None:
        """The smallest stored key (None when empty)."""
        return self.successor(tuple([0] * self.k))

    @delay("O(1)", note="each yielded item costs one successor walk")
    @read_only
    def items(self) -> Iterator[tuple[tuple[int, ...], Any]]:
        """All (key, value) pairs in lexicographic key order.

        Constant delay per item: each step is one successor walk.
        """
        key = self.min_key()
        while key is not None:
            status, value = self.lookup(key)
            assert status == HIT
            yield key, value
            key = self.successor(key, strict=True)

    @delay("O(1)")
    @read_only
    def keys(self) -> Iterator[tuple[int, ...]]:
        """Stored keys in ascending order."""
        for key, _ in self.items():
            yield key

    @property
    @read_only
    def registers_used(self) -> int:
        """Space in registers (Theorem 3.1 bounds this by c * |Dom| * n^eps)."""
        return self.registers.used

    @builds
    def rebind_arena(self) -> None:
        """(Re)bind the fused walk's direct handles on the register arena.

        The arena arrays grow in place, so the handles stay valid across
        every update; construction, unpickling and a register-file buffer
        swap (:meth:`RegisterFile.adopt_buffers`) bind them anew.
        ``check_invariants`` asserts they alias the live buffers.
        """
        self._cells = self.registers._payload
        self._side = self.registers._objects
        self._pows_head = tuple(self.d ** (self.h - 1 - j) for j in range(self.h - 1))

    # ------------------------------------------------------------------
    # pickling: restore without __init__, then rebind the walk handles
    # ------------------------------------------------------------------
    @read_only
    def __getstate__(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "k": self.k,
            "eps": self.eps,
            "d": self.d,
            "h": self.h,
            "depth": self.depth,
            "registers": self.registers,
            "root": self._root,
            "size": self._size,
        }

    @builds
    def __setstate__(self, state: dict[str, Any]) -> None:
        self.n = state["n"]
        self.k = state["k"]
        self.eps = state["eps"]
        self.d = state["d"]
        self.h = state["h"]
        self.depth = state["depth"]
        self.registers = state["registers"]
        self._root = state["root"]
        self._size = state["size"]
        self.rebind_arena()

    # ------------------------------------------------------------------
    # invariants (test support)
    # ------------------------------------------------------------------
    @read_only
    def check_invariants(self) -> None:
        """Exhaustively verify the structure (tests only; linear time).

        Checks: (1) parent back-pointers are consistent; (2) every gap cell
        points to the true successor of its prefix; (3) the register count
        equals (#arrays)*(d+1)+1; (4) every stored key is reachable; (5)
        the fused-walk handles alias the live arena and the side table's
        refcounts match the live cells.
        """
        keys = sorted(self._collect_keys())
        arrays = self._count_arrays()
        expected = 1 + arrays * (self.d + 1)
        registers = self.registers
        if registers.used != expected:
            raise AssertionError(
                f"register leak: used={registers.used}, expected={expected}"
            )
        if len(keys) != self._size:
            raise AssertionError(f"size mismatch: {len(keys)} keys vs size={self._size}")
        self._check_node(self._root, [], keys)
        if self._cells is not registers._payload:
            raise AssertionError("stale fused-walk handle on the payload arena")
        if self._side is not registers._objects:
            raise AssertionError("stale fused-walk handle on the side table")
        registers.check_intern_invariants(registers.used)

    @read_only
    def _collect_keys(self) -> list[tuple[int, ...]]:
        out = []

        def walk(base: int, prefix: list[int], t: int) -> None:
            for digit in range(self.d):
                delta, payload = self.registers.read(base + digit)
                if delta != CHILD:
                    continue
                if t == self.depth - 1:
                    out.append(self._decode(prefix + [digit]))
                else:
                    walk(payload, prefix + [digit], t + 1)

        walk(self._root, [], 0)
        return out

    @read_only
    def _count_arrays(self) -> int:
        count = [0]

        def walk(base: int, t: int) -> None:
            count[0] += 1
            if t == self.depth - 1:
                return
            for digit in range(self.d):
                delta, payload = self.registers.read(base + digit)
                if delta == CHILD:
                    walk(payload, t + 1)

        walk(self._root, 0)
        return count[0]

    @read_only
    def _check_node(self, base: int, prefix: list[int], keys: list[tuple[int, ...]]) -> None:
        import bisect

        for digit in range(self.d):
            delta, payload = self.registers.read(base + digit)
            cell_prefix = prefix + [digit]
            if delta == CHILD:
                if len(cell_prefix) < self.depth:
                    child_parent = self.registers.read(payload + self.d)
                    if child_parent != (PARENT, base + digit):
                        raise AssertionError(
                            f"bad parent pointer at node {payload}: {child_parent}"
                        )
                    self._check_node(payload, cell_prefix, keys)
            else:
                # expected successor: smallest key whose digits exceed cell_prefix
                bound = self._prefix_upper_key(cell_prefix)
                idx = bisect.bisect_left(keys, bound)
                expected = keys[idx] if idx < len(keys) else None
                if payload != expected:
                    raise AssertionError(
                        f"gap cell {cell_prefix} points to {payload}, expected {expected}"
                    )

    @read_only
    def _prefix_upper_key(self, prefix: list[int]) -> tuple[int, ...]:
        """Smallest key (as a tuple) whose digit string is > every string
        with the given prefix — i.e. decode(prefix+1 padded with zeros)."""
        bumped = self._increment(prefix, self.d)
        if bumped is None:
            return tuple([self.n] * self.k)  # larger than every valid key
        padded = bumped + [0] * (self.depth - len(bumped))
        return self._decode(padded)
