"""Property and regression tests for the flat register file and its trie.

:class:`~repro.storage.trie.TrieStore` keeps its registers in one flat
arena (:class:`~repro.storage.registers.RegisterFile`).  These tests hold
it to three references — the obvious dict + sorted-list model (answers),
the register dumps the former list-of-pairs register file produced for
the same op sequences (register placement, ``golden_registers.json``),
and the generic register-at-a-time walk (the fused ``lookup`` /
``successor`` must answer exactly like it) — and pin down the arena
machinery: payload tag encoding, side-table interning and refcounts, and
compressed snapshots.

The store-level tests run once per payload class (``PAYLOADS``): a
register file keeps a small-int value inline in its arena word and any
other value as an object in its refcounted side table, and the two take
different paths through encoding, release, bulk loading and pickling.
"""

from __future__ import annotations

import bisect
import gc
import json
import pickle
import random
import weakref
from collections.abc import Callable
from pathlib import Path
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.registers import CHILD, GAP, PARENT, RegisterFile
from repro.storage.trie import HIT, MISS, TrieStore

GOLDEN = json.loads((Path(__file__).parent / "golden_registers.json").read_text())


class _Token:
    """Weakref-able payload for the release-last leak regressions."""


#: Where a stored value lives: ``arena`` values are small ints encoded
#: inline in the payload word, ``object`` values sit in the side table.
PAYLOADS = ["arena", "object"]


def _value(payloads: str, i: int) -> Any:
    """The ``i``-th stored value of the given payload class."""
    return i if payloads == "arena" else f"value-{i}"


def _tracked_value(payloads: str) -> tuple[Any, Callable[[RegisterFile], bool]]:
    """A stored value of the given class and a probe: is it still held?

    An inline value is held while any arena word, live or released, still
    reads back as it; a side-table value while anything keeps it alive.
    """
    if payloads == "arena":
        value = 1 << 40  # inline, and never a register index

        def held(registers: RegisterFile) -> bool:
            cells = registers.dump(0, len(registers._payload))
            return any(payload == value for _, payload in cells)

        return value, held
    token = _Token()
    ref = weakref.ref(token)

    def alive(registers: RegisterFile) -> bool:
        gc.collect()
        return ref() is not None

    return token, alive


# ----------------------------------------------------------------------
# the register file


def test_register_file_parity_on_a_mixed_op_sequence():
    registers = RegisterFile()
    base = registers.allocate(5)
    registers.write(base, CHILD, 42)
    registers.write(base + 1, GAP, (1, 2))
    registers.write(base + 2, GAP, None)
    registers.write(base + 3, CHILD, None)
    registers.write(base + 4, PARENT, base)
    second = registers.allocate(3)
    registers.write(second, CHILD, "payload")
    registers.write(second + 1, GAP, (1, 2))
    registers.write(second + 2, PARENT, None)
    registers.release_last(3)
    # what the list-of-pairs register file held after the same sequence
    assert registers.dump() == [
        (GAP, 6), (CHILD, 42), (GAP, (1, 2)), (GAP, None), (CHILD, None), (PARENT, 1),
    ]
    assert registers.next_free == registers.used == 6
    registers.check_intern_invariants(registers.used)


def test_payload_encoding_edge_cases():
    registers = RegisterFile()
    base = registers.allocate(5)
    big = 1 << 70  # beyond the inline-integer range: interned
    registers.write(base, CHILD, big)
    registers.write(base + 1, CHILD, -big)
    unhashable = [1, 2]
    registers.write(base + 2, CHILD, unhashable)
    registers.write(base + 3, CHILD, True)
    registers.write(base + 4, CHILD, None)
    assert registers.read(base) == (CHILD, big)
    assert registers.read(base + 1) == (CHILD, -big)
    assert registers.read(base + 2)[1] is unhashable
    assert registers.read(base + 3)[1] is True  # bool stays bool, not int
    assert registers.read(base + 4) == (CHILD, None)
    registers.check_intern_invariants(registers.used)


def test_gap_successors_are_interned_once():
    registers = RegisterFile()
    base = registers.allocate(4)
    for i in range(4):
        registers.write(base + i, GAP, (7, 7))
    assert registers._objects.count((7, 7)) == 1
    registers.check_intern_invariants(registers.used)
    for i in range(4):
        registers.write(base + i, GAP, (8, 8))
    registers.check_intern_invariants(registers.used)
    assert (7, 7) not in registers._objects  # fully released, slot reused
    assert registers._objects.count((8, 8)) == 1


@pytest.mark.parametrize("payloads", PAYLOADS)
def test_release_last_does_not_leak_payloads(payloads):
    registers = RegisterFile()
    value, held = _tracked_value(payloads)
    base = registers.allocate(2)
    registers.write(base, CHILD, value)
    registers.write(base + 1, GAP, (3,))
    registers.release_last(2)
    assert registers.next_free == base
    registers.check_intern_invariants(registers.used)
    del value
    assert not held(registers), "released register kept its payload alive"


@pytest.mark.parametrize("payloads", PAYLOADS)
def test_remove_releases_stored_values(payloads):
    store = TrieStore(16, 2, 0.5)
    value, held = _tracked_value(payloads)
    store.insert((3, 4), value)
    store.insert((5, 6), _value(payloads, 0))
    store.remove((3, 4))
    store.check_invariants()
    assert store.lookup((5, 6)) == (HIT, _value(payloads, 0))
    del value
    assert not held(store.registers), "removed key kept its value alive"


# ----------------------------------------------------------------------
# degenerate trie parameters (the n=1 / eps=1.0 / k=1 bugfix)


@pytest.mark.parametrize("payloads", PAYLOADS)
@pytest.mark.parametrize(
    "n,k,eps",
    [(1, 1, 0.5), (1, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0), (3, 2, 1.0)],
)
def test_degenerate_parameters(payloads, n, k, eps):
    store = TrieStore(n, k, eps)
    assert store.d >= 2  # the normalized branching factor
    keys = sorted({tuple((i + j) % n for j in range(k)) for i in range(n + 1)})
    for key in keys:
        store.insert(key, _value(payloads, sum(key)))
    store.check_invariants()
    assert list(store.keys()) == keys
    for key in keys:
        assert store.lookup(key) == (HIT, _value(payloads, sum(key)))
    assert store.successor(keys[0]) == keys[0]
    assert store.successor(keys[-1], strict=True) is None
    assert store.predecessor(keys[-1], strict=False) == keys[-1]
    for key in keys:
        store.remove(key)
    store.check_invariants()
    assert len(store) == 0


@pytest.mark.parametrize("payloads", PAYLOADS)
def test_validation_parity_on_bad_keys(payloads):
    """The fused walks reject exactly the keys the generic encoder does,
    and answer every valid key exactly like the generic walk."""
    store = TrieStore(9, 2, 0.5)
    store.insert((1, 2), _value(payloads, 5))
    store.insert((4, 0), _value(payloads, 6))
    for good in [(a, b) for a in range(9) for b in range(9)]:
        assert store.lookup(good) == store._lookup_digits(store._encode(good))
    assert store.lookup((1, 2)) == (HIT, _value(payloads, 5))
    for bad in [(), (1,), (1, 2, 3), (9, 0), (0, 9), (0, -1), (-1, 0)]:
        with pytest.raises(ValueError):
            store._encode(bad)
        with pytest.raises(ValueError):
            store.lookup(bad)
        with pytest.raises(ValueError):
            store.successor(bad)
        with pytest.raises(ValueError):
            store.successor(bad, strict=True)


# ----------------------------------------------------------------------
# register placement: the recorded dumps of the list-of-pairs layout


def _replay(store: TrieStore, ops: list) -> None:
    for op in ops:
        if op[0] == "bulk":
            store.bulk_load((tuple(key), value) for key, value in op[1])
        elif op[0] == "add":
            store.insert(tuple(op[1]), op[2])
        else:
            store.remove(tuple(op[1]))
        store.check_invariants()


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda case: case["name"])
def test_registers_match_the_golden_dumps(case):
    store = TrieStore(case["n"], case["k"], case["eps"])
    _replay(store, case["ops"])
    dump = [
        [delta, list(payload) if isinstance(payload, tuple) else payload]
        for delta, payload in store.registers.dump()
    ]
    assert dump == case["registers"]


# ----------------------------------------------------------------------
# the property suite: the trie vs the model and the generic walk


def keys_strategy(n: int, k: int):
    return st.tuples(*[st.integers(0, n - 1)] * k)


@st.composite
def scenario(draw):
    n = draw(st.sampled_from([1, 2, 4, 9, 16, 27, 50]))
    k = draw(st.sampled_from([1, 2, 3]))
    eps = draw(st.sampled_from([0.3, 0.5, 0.9, 1.0]))
    ops = draw(
        st.lists(
            st.tuples(st.sampled_from(["add", "del"]), keys_strategy(n, k)),
            min_size=1,
            max_size=50,
        )
    )
    probes = draw(st.lists(keys_strategy(n, k), min_size=1, max_size=10))
    return n, k, eps, ops, probes


@given(scenario())
@settings(max_examples=100, deadline=None)
def test_trie_matches_the_model(case):
    n, k, eps, ops, probes = case
    store = TrieStore(n, k, eps)
    model: dict[tuple[int, ...], int] = {}
    for op, key in ops:
        if op == "add":
            store.insert(key, sum(key))
            model[key] = sum(key)
        elif key in model:
            store.remove(key)
            del model[key]
        store.check_invariants()
    ordered = sorted(model)
    assert list(store.keys()) == ordered
    assert len(store) == len(model)
    for probe in probes:
        status, payload = store.lookup(probe)
        assert (status, payload) == store._lookup_digits(store._encode(probe))
        at = bisect.bisect_left(ordered, probe)
        after = bisect.bisect_right(ordered, probe)
        if probe in model:
            assert (status, payload) == (HIT, model[probe])
        else:
            expected = ordered[after] if after < len(ordered) else None
            assert (status, payload) == (MISS, expected)
        assert store.successor(probe) == (ordered[at] if at < len(ordered) else None)
        assert store.successor(probe, strict=True) == (
            ordered[after] if after < len(ordered) else None
        )
        assert store.predecessor(probe) == (ordered[at - 1] if at else None)
        assert store.predecessor(probe, strict=False) == (
            ordered[after - 1] if after else None
        )


# ----------------------------------------------------------------------
# bulk loading and snapshots


@pytest.mark.parametrize("payloads", PAYLOADS)
def test_bulk_load_matches_sorted_incremental_inserts(payloads):
    rng = random.Random(5)
    keys = sorted({tuple(rng.randrange(27) for _ in range(2)) for _ in range(60)})
    # repeated values: side-table values are interned with refcounts
    pairs = [(key, _value(payloads, i % 7)) for i, key in enumerate(keys)]
    bulk = TrieStore(27, 2, 1 / 3)
    assert bulk.bulk_load(pairs) == len(pairs)
    bulk.check_invariants()
    incremental = TrieStore(27, 2, 1 / 3)
    for key, value in pairs:
        incremental.insert(key, value)
    incremental.check_invariants()
    assert bulk.registers.dump() == incremental.registers.dump()
    assert list(bulk.keys()) == list(incremental.keys())


class _PerCellTrie(TrieStore):
    """Reference: the trie with per-cell gap writes (no run fill).

    Fresh nodes write their ``d`` gap cells one ``write`` at a time and
    the gap pass writes every gap cell separately — the register-op
    shape :meth:`RegisterFile.fill_gaps` replaces.
    """

    def _new_node(self, parent_cell):
        base = self.registers.allocate(self.d + 1)
        for j in range(self.d):
            self.registers.write(base + j, GAP, None)
        self.registers.write(base + self.d, PARENT, parent_cell)
        return base

    def _fill_all_gaps(self):
        last = self.depth - 1
        next_key = None
        prefix = []

        def walk(base, t):
            nonlocal next_key
            for digit in range(self.d - 1, -1, -1):
                cell = base + digit
                delta, payload = self.registers.read(cell)
                if delta == CHILD:
                    prefix.append(digit)
                    if t == last:
                        next_key = self._decode(prefix)
                    else:
                        walk(payload, t + 1)
                    prefix.pop()
                else:
                    self.registers.write(cell, GAP, next_key)

        walk(self._root, 0)


def _refcounts(registers: RegisterFile) -> dict[Any, int]:
    """Live side-table values and their reference counts."""
    free = set(registers._free)
    return {
        registers._objects[slot]: registers._refs[slot]
        for slot in range(1, len(registers._objects))
        if slot not in free
    }


@st.composite
def bulk_scenario(draw):
    n = draw(st.sampled_from([4, 16, 50, 200]))
    k = draw(st.sampled_from([1, 2, 3]))
    eps = draw(st.sampled_from([0.3, 0.5, 0.9]))
    keys = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * k), max_size=60))
    payloads = draw(st.sampled_from(PAYLOADS))
    return n, k, eps, [(key, _value(payloads, i % 5)) for i, key in enumerate(keys)]


@given(bulk_scenario())
@settings(max_examples=150, deadline=None)
def test_run_fill_bulk_load_matches_per_cell_writes(case):
    """The run fill writes exactly the registers per-cell writes did:
    same decoded cells, same raw arena words, same side-table refcounts."""
    n, k, eps, pairs = case
    runs = TrieStore(n, k, eps)
    cells = _PerCellTrie(n, k, eps)
    assert runs.bulk_load(pairs) == cells.bulk_load(pairs)
    runs.check_invariants()
    assert runs.registers.dump() == cells.registers.dump()
    assert runs.registers._delta == cells.registers._delta
    assert runs.registers._payload == cells.registers._payload
    assert _refcounts(runs.registers) == _refcounts(cells.registers)


@st.composite
def fill_scenario(draw):
    size = draw(st.integers(1, 40))
    pool = [None, (1,), (2, 5), (3, 3), "leaf", 7, (1 << 62)]
    writes = draw(
        st.lists(
            st.tuples(
                st.integers(0, size - 1),
                st.sampled_from([CHILD, GAP, PARENT]),
                st.sampled_from(pool),
            ),
            max_size=60,
        )
    )
    start = draw(st.integers(0, size - 1))
    count = draw(st.integers(0, size - start))
    successor = draw(st.sampled_from([None, (1,), (2, 5), (9, 9)]))
    return size, writes, start, count, successor


@given(fill_scenario())
@settings(max_examples=200, deadline=None)
def test_fill_gaps_matches_per_cell_writes(case):
    """Over cells holding anything, one ``fill_gaps`` leaves the same
    decoded registers and per-value refcounts as ``count`` writes."""
    size, writes, start, count, successor = case
    files = []
    for _ in range(2):
        registers = RegisterFile()
        base = registers.allocate(size)
        for offset, delta, payload in writes:
            registers.write(base + offset, delta, payload)
        files.append((registers, base))
    (runs, base), (cells, _) = files
    runs.fill_gaps(base + start, count, successor)
    for index in range(base + start, base + start + count):
        cells.write(index, GAP, successor)
    assert runs.dump() == cells.dump()
    assert _refcounts(runs) == _refcounts(cells)
    runs.check_intern_invariants(runs.used)


def test_bulk_load_writes_once_per_node_and_run():
    """Count guard: a bulk load issues O(nodes + runs) register writes.

    One write per stored key, three per created node (its fresh gap run,
    its parent pointer, the child pointer to it) and one ``fill_gaps``
    per gap run — not one write per cell, which for this key set would
    be over ``nodes * d``, more than four times as many.
    """
    from repro.metrics import collect

    rng = random.Random(16)
    keys = [(a,) for a in rng.sample(range(4096), 300)]
    store = TrieStore(4096, 1, 0.5)
    with collect(ops=True) as registry:
        store.bulk_load((key, 0) for key in keys)
    store.check_invariants()
    counts = registry.op_counts
    writes = counts.get("repro.storage.registers.RegisterFile.write", 0)
    fills = counts.get("repro.storage.registers.RegisterFile.fill_gaps", 0)
    width = store.d + 1
    nodes = (store.registers_used - 1) // width
    cells = store.registers.dump()
    runs = 0  # maximal stretches of equal gap cells inside one node
    for node in range(nodes):
        row = cells[1 + node * width : node * width + width]
        runs += sum(
            1
            for j, cell in enumerate(row)
            if cell[0] == GAP and (j == 0 or row[j - 1] != cell)
        )
    assert writes + fills <= len(keys) + 3 * (nodes - 1) + runs
    assert 4 * (writes + fills) < nodes * store.d


@pytest.mark.parametrize("payloads", PAYLOADS)
def test_pickle_round_trip(payloads):
    store = TrieStore(27, 2, 1 / 3)
    for i in range(40):
        store.insert((i % 27, (i * 7) % 27), _value(payloads, i % 5))
    clone = pickle.loads(pickle.dumps(store))
    clone.check_invariants()
    assert clone.registers.dump() == store.registers.dump()
    assert list(clone.keys()) == list(store.keys())
    # the loaded store stays updatable, and a value it already holds is
    # shared through the rebuilt dedup map
    clone.insert((26, 26), _value(payloads, 3))
    assert clone.lookup((26, 26)) == (HIT, _value(payloads, 3))
    clone.check_invariants()


def test_snapshot_is_smaller_than_the_raw_arena():
    store = TrieStore(256, 2, 0.5)
    for i in range(300):
        store.insert(((i * 17) % 256, (i * 31) % 256), True)
    snapshot = pickle.dumps(store, protocol=pickle.HIGHEST_PROTOCOL)
    assert len(snapshot) < store.registers.nbytes


def test_arena_nbytes_reports_the_flat_buffers():
    store = TrieStore(64, 2, 0.5)
    for i in range(32):
        store.insert((i, i), i)
    # 1 delta byte + 8 payload bytes per allocated register
    assert store.registers.nbytes >= 9 * store.registers_used
