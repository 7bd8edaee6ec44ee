"""mmap-shared arena re-homing (:mod:`repro.storage.shared`).

``share_index`` must move the register-file words into one shared
mapping without changing a single answer, leave the index structurally
sound, and make the buffers genuinely read-only.  On Linux the mapping
must also be *findable* — the named ``memfd:repro-arena`` entry in smaps
is what the pool's sharing evidence is built on.
"""

from __future__ import annotations

import mmap
import os

import pytest

from repro.core.engine import open_index
from repro.graphs.generators import grid
from repro.storage.registers import RegisterFile
from repro.storage.shared import (
    MEMFD_NAME,
    collect_arenas,
    share_index,
    shared_map_stats,
)

QUERY = "dist(x, y) > 2 & Blue(y)"


@pytest.fixture
def arena_index():
    return open_index(grid(9, 9, seed=4), QUERY)


def test_share_preserves_answers_and_invariants(arena_index):
    before = list(arena_index.enumerate())
    files, stores = collect_arenas(arena_index)
    assert files, "an indexed query must expose register files"
    arena = share_index(arena_index, tag="test")
    try:
        assert arena is not None
        assert arena.registers == len(files)
        assert arena.nbytes > 0
        assert list(arena_index.enumerate()) == before
        for store in stores:
            store.check_invariants()
    finally:
        arena.close()


def test_shared_buffers_are_readonly(arena_index):
    arena = share_index(arena_index, tag="ro")
    try:
        files, _ = collect_arenas(arena_index)
        for rf in files:
            with pytest.raises(TypeError):
                rf._payload[0] = 1
            with pytest.raises(TypeError):
                rf._delta[0] = 1
    finally:
        arena.close()


def test_collect_arenas_dedupes():
    index = open_index(grid(6, 6, seed=4), QUERY)
    files, stores = collect_arenas(index)
    assert len(files) == len({id(f) for f in files})
    assert len(stores) == len({id(s) for s in stores})
    assert all(isinstance(f, RegisterFile) for f in files)


def test_touch_pages_covers_whole_mapping(arena_index):
    arena = share_index(arena_index, tag="touch")
    try:
        pages = arena.touch_pages()
        assert pages == -(-arena.nbytes // mmap.PAGESIZE)
    finally:
        arena.close()


@pytest.mark.skipif(
    not hasattr(os, "memfd_create"), reason="memfd naming is Linux-only"
)
def test_shared_mapping_visible_in_smaps(arena_index):
    baseline = shared_map_stats()["maps"]
    arena = share_index(arena_index, tag="smaps")
    try:
        arena.touch_pages()
        stats = shared_map_stats()
        assert stats["maps"] == baseline + 1
        assert stats["rss_kb"] > 0
        assert arena.name.startswith(MEMFD_NAME)
    finally:
        arena.close()


def test_double_share_keeps_working(arena_index):
    """Sharing an already-shared index re-homes it again, answers intact
    (the pool never does this, but idempotence keeps it debuggable)."""
    before = list(arena_index.enumerate())
    first = share_index(arena_index, tag="a")
    second = share_index(arena_index, tag="b")
    try:
        assert list(arena_index.enumerate()) == before
    finally:
        second.close()
        first.close()
