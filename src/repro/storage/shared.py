"""mmap-shared arena snapshots for the pre-fork serving pool.

The register file (:mod:`repro.storage.registers`) stores the Theorem
3.1 registers as two contiguous typed buffers — exactly the shape an
operating system can share between processes for free.  This module
re-homes those buffers into one ``memfd``-backed ``MAP_SHARED`` mapping
**before** the pool forks its workers:

1. :func:`share_index` walks a built :class:`~repro.core.engine.QueryIndex`
   and collects every reachable :class:`RegisterFile`;
2. the raw ``_delta``/``_payload`` bytes are copied once into a single
   anonymous ``memfd`` (named ``memfd:repro-arena-...`` in
   ``/proc/*/smaps``, which is how the bench suite proves sharing);
3. each register file adopts read-only ``memoryview`` casts of its slice
   of the mapping (:meth:`RegisterFile.adopt_buffers`) and each
   :class:`TrieStore` refreshes its fused-walk handles
   (:meth:`TrieStore.rebind_arena`).

After ``fork()`` every worker inherits the mapping: N workers answer
``test``/``next`` against the *same physical pages* — zero-copy, and the
kernel's page accounting (``Pss`` much smaller than ``Rss`` on the named
mapping) makes the claim measurable rather than asserted.  The views are
``.toreadonly()``, so a stray post-build write raises ``TypeError`` even
without the ``--paranoid`` tripwire.

Everything here is build-phase work on frozen objects — the helpers are
``@builds`` (statically checked) and the mutation runs inside
:func:`~repro.contracts.build_phase` (runtime tripwire).  Indexes that
hold no tries (the naive fallback) have nothing to share; fork's
copy-on-write still shares their skeleton until the refcounts dirty it.
"""

from __future__ import annotations

import mmap
import os
from typing import Any

from repro.contracts import build_phase, builds
from repro.storage.registers import RegisterFile
from repro.storage.trie import TrieStore

#: ``memfd_create`` name prefix; smaps shows ``memfd:<name>`` per mapping.
MEMFD_NAME = "repro-arena"

_ATOMIC = (type(None), bool, int, float, complex, str, bytes, bytearray)


class SharedArena:
    """One live shared mapping plus the register files homed onto it."""

    __slots__ = ("name", "mapping", "nbytes", "registers")

    def __init__(
        self,
        name: str,
        mapping: mmap.mmap,
        nbytes: int,
        registers: int,
    ) -> None:
        self.name = name
        self.mapping = mapping
        self.nbytes = nbytes
        self.registers = registers

    def close(self) -> None:
        """Release this process's view (pages live while any process maps)."""
        try:
            self.mapping.close()
        except BufferError:
            # exported memoryviews still alive (the adopted buffers) — the
            # mapping must outlive them; closing is best-effort cleanup
            pass

    def touch_pages(self) -> int:
        """Fault every page of the mapping in; returns the page count.

        Workers call this once at startup so the first request never pays
        the fault, and so the kernel's per-process page accounting (smaps
        ``Pss`` vs ``Rss``) reflects all workers sharing the pages rather
        than whichever subset traffic happened to route to.
        """
        pages = 0
        for offset in range(0, self.nbytes, mmap.PAGESIZE):
            self.mapping[offset]
            pages += 1
        return pages


def _iter_reachable(root: Any):
    """Every object reachable from ``root`` through containers, ``__dict__``
    and ``__slots__`` (each yielded once; atoms skipped)."""
    seen: set[int] = set()
    stack: list[Any] = [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, _ATOMIC):
            continue
        key = id(obj)
        if key in seen:
            continue
        seen.add(key)
        yield obj
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            attrs = getattr(obj, "__dict__", None)
            if isinstance(attrs, dict):
                stack.extend(attrs.values())
            for cls in type(obj).__mro__:
                for slot in getattr(cls, "__slots__", ()) or ():
                    if slot in ("__dict__", "__weakref__"):
                        continue
                    try:
                        stack.append(getattr(obj, slot))
                    except AttributeError:
                        continue


def collect_arenas(root: Any) -> tuple[list[RegisterFile], list[TrieStore]]:
    """The register files and trie stores reachable from ``root``."""
    files: list[RegisterFile] = []
    stores: list[TrieStore] = []
    for obj in _iter_reachable(root):
        if isinstance(obj, RegisterFile):
            files.append(obj)
        elif isinstance(obj, TrieStore):
            stores.append(obj)
    return files, stores


def _create_mapping(name: str, nbytes: int) -> mmap.mmap:
    """A ``MAP_SHARED`` mapping of ``nbytes``, memfd-named when possible."""
    if hasattr(os, "memfd_create"):
        fd = os.memfd_create(name, os.MFD_CLOEXEC)
        try:
            os.ftruncate(fd, nbytes)
            return mmap.mmap(fd, nbytes)
        finally:
            os.close(fd)  # the mapping keeps the pages alive
    # non-Linux fallback: anonymous MAP_SHARED still survives fork, it is
    # just not identifiable by name in the memory maps
    return mmap.mmap(-1, nbytes)


@builds
def share_index(index: Any, tag: str = "") -> SharedArena | None:
    """Re-home every arena buffer under ``index`` into one shared mapping.

    Returns the :class:`SharedArena` (keep it referenced for the server's
    lifetime), or ``None`` when the index holds no register files.  Call
    **before** ``fork()``; afterwards the workers read the parent's pages
    in place.  Answers are unchanged — this moves the words, it never
    rewrites them.
    """
    files, stores = collect_arenas(index)
    if not files:
        return None
    # payload words first (each segment 8-aligned because every payload is
    # a whole number of 8-byte words), delta bytes after
    offsets: list[tuple[int, int]] = []
    cursor = 0
    for rf in files:
        payload_bytes = len(rf._payload) * rf._payload.itemsize
        delta_bytes = len(rf._delta) * rf._delta.itemsize
        offsets.append((cursor, cursor + payload_bytes))
        cursor += payload_bytes + delta_bytes
        cursor += -cursor % 8
    name = f"{MEMFD_NAME}-{tag}" if tag else MEMFD_NAME
    mapping = _create_mapping(name, cursor)
    view = memoryview(mapping)
    with build_phase():
        for rf, (payload_at, delta_at) in zip(files, offsets):
            payload_raw = rf._payload.tobytes()
            delta_raw = rf._delta.tobytes()
            mapping[payload_at : payload_at + len(payload_raw)] = payload_raw
            mapping[delta_at : delta_at + len(delta_raw)] = delta_raw
            payload = (
                view[payload_at : payload_at + len(payload_raw)]
                .cast("q")
                .toreadonly()
            )
            delta = (
                view[delta_at : delta_at + len(delta_raw)]
                .cast("b")
                .toreadonly()
            )
            rf.adopt_buffers(delta, payload)
        for store in stores:
            store.rebind_arena()
    return SharedArena(name, mapping, cursor, len(files))


def shared_map_stats(prefix: str = MEMFD_NAME) -> dict[str, int]:
    """Rss/Pss (kB) of this process's ``memfd:<prefix>*`` mappings.

    ``Pss`` divides each resident page by the number of processes mapping
    it, so ``pss ≪ rss`` on the arena mappings is the kernel's own
    testimony that the workers share pages instead of copying them.
    Returns zeros when smaps is unavailable (non-Linux).
    """
    out = {"maps": 0, "rss_kb": 0, "pss_kb": 0}
    needle = f"memfd:{prefix}"
    try:
        with open("/proc/self/smaps", encoding="ascii", errors="replace") as fh:
            in_target = False
            for line in fh:
                if "-" in line.split(" ", 1)[0] and ":" not in line.split(" ", 1)[0]:
                    # a mapping header line ("<start>-<end> perms ... name")
                    in_target = needle in line
                    if in_target:
                        out["maps"] += 1
                elif in_target:
                    if line.startswith("Rss:"):
                        out["rss_kb"] += int(line.split()[1])
                    elif line.startswith("Pss:"):
                        out["pss_kb"] += int(line.split()[1])
    except OSError:
        pass
    return out


__all__ = [
    "MEMFD_NAME",
    "SharedArena",
    "collect_arenas",
    "share_index",
    "shared_map_stats",
]
