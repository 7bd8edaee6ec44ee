"""The RAM register file (the computational model of Section 2/3).

The paper's algorithms are stated for a Random Access Machine whose
registers hold pairs ``(delta, payload)`` with ``delta`` in ``{-1, 0, 1}``.
:class:`RegisterFile` keeps that register semantics — the trie code in
:mod:`repro.storage.trie` follows the appendix pseudo-code line by line
through :meth:`RegisterFile.read`/:meth:`RegisterFile.write`, and
benchmarks report the exact number of registers in use (the space bound
of Theorem 3.1) — but stores the file as a contiguous arena:

* ``_delta`` — one signed byte per register (``CHILD``/``GAP``/``PARENT``);
* ``_payload`` — one signed 64-bit word per register, tag-encoded:

  ======  ===========================================================
  low 2   meaning of ``word >> 2``
  ======  ===========================================================
  ``00``  ``None`` (the whole word is 0)
  ``01``  an inline integer (child base, parent cell, int leaf value)
  ``10``  index into the interned-object side table (gap successors)
  ``11``  index into the side table (non-int leaf/parent payloads)
  ======  ===========================================================

* ``_objects`` — the side table: gap-successor tuples are interned with
  reference counts (deduplicated, so the table holds one entry per
  *distinct* successor, not one per gap cell), other non-int payloads
  get a private slot each.

The tag assignment is deliberate: every payload a ``CHILD`` cell can
hold is **odd** and every payload a ``GAP`` cell can hold is **even**,
so the trie's fused lookup walk never touches ``_delta`` at all — one
array read plus two bit operations per level decides "descend or return
the gap's successor" (see ``docs/storage.md``).

Snapshots: :meth:`RegisterFile.__getstate__` pickles the raw array
buffers compressed (1 + 8 bytes per register before deflation), and the
buffers are contiguous, so the pre-fork pool can re-home them into one
``mmap``-shared mapping (:mod:`repro.storage.shared`).
"""

from __future__ import annotations

from array import array
from typing import Any

from repro.contracts import builds, constant_time, frozen_after_build, read_only

#: delta tag: the cell points to a child node's first register.
CHILD = 1
#: delta tag: the cell is a "gap" holding the next-larger domain tuple.
GAP = 0
#: delta tag: the cell is a node's trailing parent pointer.
PARENT = -1

#: Payload tag bits (low two bits of a payload word).
_TAG_NONE = 0
_TAG_INT = 1
_TAG_SUCC = 2  # interned object, even class (gap cells)
_TAG_OBJ = 3  # interned object, odd class (child/parent cells)

#: Inline integers must survive ``(value << 2)`` inside a signed 64-bit
#: word; anything bigger is interned like a non-int payload.
_INLINE_MAX = (1 << 60) - 1
_INLINE_MIN = -(1 << 60)


@frozen_after_build
class RegisterFile:
    """A growable array of ``(delta, payload)`` registers on flat typed arrays.

    Register 0 plays the role of the paper's ``R_0``: it holds the index of
    the next free register (as an inline integer).  :meth:`allocate` hands
    out blocks of consecutive registers; :meth:`release_last` reclaims the
    most recently allocated block (the paper's compaction in ``Cut``
    always frees the physically-last block after moving it).
    ``read``/``write``/``dump`` decode and encode payloads transparently.
    """

    __slots__ = ("_delta", "_payload", "_objects", "_refs", "_free", "_intern")

    def __init__(self) -> None:
        self._delta = array("b", (GAP,))
        self._payload = array("q", ((1 << 2) | _TAG_INT,))  # R_0 <- 1
        self._objects: list[Any] = [None]  # slot 0 reserved
        self._refs: list[int] = [0]
        self._free: list[int] = []
        self._intern: dict[Any, int] = {}

    # -- side table --------------------------------------------------------
    # (the write-path helpers are @constant_time — one dict probe, one
    # refcount edit — but never run on a lookup walk, so instrumented
    # register-op counts per lookup count cell reads only)
    @constant_time(note="one dict probe + one refcount edit")
    @builds
    def _intern_slot(self, value: Any) -> int:
        """A live side-table slot holding ``value`` (refcounted, deduped)."""
        try:
            slot = self._intern.get(value)
        except TypeError:  # unhashable payloads get a private slot
            slot = None
        else:
            if slot is not None:
                self._refs[slot] += 1
                return slot
        if self._free:
            slot = self._free.pop()
            self._objects[slot] = value
            self._refs[slot] = 1
        else:
            slot = len(self._objects)
            self._objects.append(value)
            self._refs.append(1)
        try:
            self._intern[value] = slot
        except TypeError:
            pass
        return slot

    @constant_time(note="one refcount decrement, one dict removal at zero")
    @builds
    def _release_slot(self, slot: int) -> None:
        self._refs[slot] -= 1
        if self._refs[slot] == 0:
            try:
                del self._intern[self._objects[slot]]
            except (TypeError, KeyError):
                pass
            self._objects[slot] = None
            self._free.append(slot)

    # -- payload codec -------------------------------------------------------
    @constant_time(note="a type test, two bit ops, at most one interning")
    @builds
    def _encode(self, delta: int, payload: Any) -> int:
        """Tag-encode ``payload`` for a cell carrying tag ``delta``.

        Gap payloads land in the even tag class, child/parent payloads
        in the odd one — the invariant the delta-free lookup walk needs.
        """
        if delta == GAP:
            if payload is None:
                return 0
            return (self._intern_slot(payload) << 2) | _TAG_SUCC
        if payload is None:
            # Root parent pointers and stored-None leaf values map to the
            # reserved side-table slot 0 (word 3: odd, so the walk still
            # reads this cell as CHILD-class).  Slot 0 is never refcounted
            # or freed.
            return _TAG_OBJ
        if type(payload) is int and _INLINE_MIN <= payload <= _INLINE_MAX:
            return (payload << 2) | _TAG_INT
        return (self._intern_slot(payload) << 2) | _TAG_OBJ

    # -- R_0 bookkeeping --------------------------------------------------
    @property
    @read_only
    def next_free(self) -> int:
        return self._payload[0] >> 2

    @builds
    def allocate(self, count: int) -> int:
        """Reserve ``count`` consecutive registers, returning the first index."""
        base = self._payload[0] >> 2
        needed = base + count
        if needed > len(self._delta):
            extra = needed - len(self._delta)
            self._delta.frombytes(bytes(extra))
            self._payload.frombytes(bytes(8 * extra))
        self._payload[0] = (needed << 2) | _TAG_INT
        return base

    @builds
    def release_last(self, count: int) -> None:
        """Return the physically-last ``count`` registers to the free pool.

        Freed cells are reset to ``(GAP, None)`` and their interned
        payloads released: a register that has been returned to the pool
        must not keep its old payload alive, or remove-heavy workloads
        leak every value and successor tuple that ever passed through the
        high end of the file.
        """
        base = (self._payload[0] >> 2) - count
        for index in range(base, base + count):
            word = self._payload[index]
            if word & 2 and word >> 2:
                self._release_slot(word >> 2)
            self._delta[index] = GAP
            self._payload[index] = 0
        self._payload[0] = (base << 2) | _TAG_INT

    # -- cell access -------------------------------------------------------
    @constant_time(note="one RAM cell access — the primitive operation")
    @read_only
    def read(self, index: int) -> tuple[int, Any]:
        """The (delta, payload) pair at ``index``, payload decoded.

        The tag decode is inlined (not a helper call) so that one
        instrumented register op per cell touch stays the rule on the
        generic walk.
        """
        word = self._payload[index]
        tag = word & 3
        if tag == _TAG_INT:
            return self._delta[index], word >> 2
        if tag == _TAG_NONE:
            return self._delta[index], None
        return self._delta[index], self._objects[word >> 2]

    @constant_time(note="one RAM cell access — the primitive operation")
    @builds
    def write(self, index: int, delta: int, payload: Any) -> None:
        """Overwrite the register at ``index``."""
        old = self._payload[index]
        if old & 2 and old >> 2:
            self._release_slot(old >> 2)
        self._delta[index] = delta
        self._payload[index] = self._encode(delta, payload)

    @property
    @read_only
    def used(self) -> int:
        """Registers currently in use (the Theorem 3.1 space measure)."""
        return self._payload[0] >> 2

    @read_only
    def dump(self, start: int = 0, stop: int | None = None) -> list[tuple[int, Any]]:
        """Decoded snapshot of registers ``start..stop`` (for tests and Figure 1)."""
        if stop is None:
            stop = self.used
        return [self.read(i) for i in range(start, stop)]

    # -- sizing / serialization -------------------------------------------
    @property
    @read_only
    def nbytes(self) -> int:
        """Bytes held by the two arena arrays (9 per allocated register)."""
        return len(self._delta) * self._delta.itemsize + len(
            self._payload
        ) * self._payload.itemsize

    @read_only
    def __getstate__(self) -> dict[str, Any]:
        # Raw buffers, not boxed cells.  Payload words are mostly small
        # (tagged indexes), so their high bytes are zero and the arrays
        # deflate to a fraction of the raw buffer; loading inflates them
        # back into contiguous, mmap-shareable array buffers.  The dedup
        # map is derived state — rebuilt on load.
        import zlib

        return {
            "delta": zlib.compress(self._delta.tobytes(), 6),
            "payload": zlib.compress(self._payload.tobytes(), 6),
            "objects": self._objects,
            "refs": zlib.compress(array("q", self._refs).tobytes(), 6),
            "free": self._free,
        }

    @builds
    def __setstate__(self, state: dict[str, Any]) -> None:
        import zlib

        self._delta = array("b")
        self._delta.frombytes(zlib.decompress(state["delta"]))
        self._payload = array("q")
        self._payload.frombytes(zlib.decompress(state["payload"]))
        self._objects = state["objects"]
        refs = array("q")
        refs.frombytes(zlib.decompress(state["refs"]))
        self._refs = refs.tolist()
        self._free = state["free"]
        free = set(self._free)
        self._intern = {}
        for slot, value in enumerate(self._objects):
            if slot == 0 or slot in free:
                continue
            try:
                self._intern[value] = slot
            except TypeError:
                pass

    # -- shared-memory re-homing -------------------------------------------
    @builds
    def adopt_buffers(self, delta: Any, payload: Any) -> None:
        """Swap the arena arrays for externally-owned buffer views.

        The pre-fork serving pool copies ``_delta``/``_payload`` into one
        shared ``memfd`` mapping and re-homes the register file onto
        read-only ``memoryview`` casts of it, so every forked worker reads
        the *same physical pages* (zero-copy; see
        :mod:`repro.storage.shared`).  The buffers must decode to exactly
        the current cells — this changes where the words live, never what
        they say.  Read paths only ever index the buffers, so any
        sequence supporting ``__getitem__``/``__len__``/``tobytes`` works;
        growth paths (``allocate``) would need ``array`` and are frozen
        out after build anyway.
        """
        if len(delta) != len(self._delta):
            raise ValueError(
                f"delta buffer holds {len(delta)} cells, arena has "
                f"{len(self._delta)}"
            )
        if len(payload) != len(self._payload):
            raise ValueError(
                f"payload buffer holds {len(payload)} words, arena has "
                f"{len(self._payload)}"
            )
        self._delta = delta
        self._payload = payload

    # -- introspection (tests) ----------------------------------------------
    @read_only
    def check_intern_invariants(self, live_cells: int) -> None:
        """Audit the side table against the first ``live_cells`` registers.

        Every interned slot's refcount must equal the number of live
        cells that reference it, free slots must be empty, and the dedup
        map must cover exactly the live hashable slots.
        """
        counted: dict[int, int] = {}
        for index in range(live_cells):
            word = self._payload[index]
            if word & 2:
                counted[word >> 2] = counted.get(word >> 2, 0) + 1
        free = set(self._free)
        for slot in range(1, len(self._objects)):
            expected = counted.get(slot, 0)
            if slot in free:
                if expected:
                    raise AssertionError(f"freed slot {slot} still referenced")
                if self._objects[slot] is not None:
                    raise AssertionError(f"freed slot {slot} keeps its payload")
                continue
            if self._refs[slot] != expected:
                raise AssertionError(
                    f"slot {slot} refcount {self._refs[slot]} != {expected} references"
                )
        for value, slot in self._intern.items():
            if slot in free:
                raise AssertionError(f"dedup map points at freed slot {slot}")
            if self._objects[slot] is not value and self._objects[slot] != value:
                raise AssertionError(f"dedup map disagrees with slot {slot}")
