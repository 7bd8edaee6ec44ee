"""The decorator vocabulary and the runtime counting mode."""

from __future__ import annotations

import pytest

from repro.analysis import fit_exponent, flatness
from repro.contracts import (
    amortized,
    constant_time,
    contract_of,
    delay,
    instrument,
    pseudo_linear,
    registered_contracts,
)
from repro.storage.registers import RegisterFile
from repro.storage.trie import TrieStore


class TestVocabulary:
    def test_constant_time_bare_and_called(self):
        @constant_time
        def bare():
            return 1

        @constant_time(note="with a note", sized=("xs",))
        def called(xs):
            return xs

        for fn in (bare, called):
            contract = contract_of(fn)
            assert contract is not None
            assert contract.kind == "constant_time"
            assert contract.bound == "O(1)"
            assert contract.constant
        assert contract_of(called).note == "with a note"
        assert contract_of(called).sized == ("xs",)
        assert bare() == 1 and called([2]) == [2]

    def test_delay_requires_bound(self):
        @delay("O(n^eps)")
        def update():
            pass

        contract = contract_of(update)
        assert contract.kind == "delay"
        assert contract.bound == "O(n^eps)"
        assert not contract.constant
        assert contract_of(delay("O(1)")(lambda: None)).constant

    def test_pseudo_linear_and_amortized(self):
        @pseudo_linear
        def build():
            pass

        @amortized("O(1)", note="cached")
        def helper():
            pass

        assert contract_of(build).kind == "pseudo_linear"
        assert not contract_of(build).constant
        assert contract_of(helper).kind == "amortized"

    def test_decorators_add_no_wrapper(self):
        def probe():
            return 42

        decorated = constant_time(probe)
        assert decorated is probe

    def test_contract_of_plain_function(self):
        assert contract_of(len) is None
        assert contract_of(lambda: None) is None

    def test_library_hot_paths_registered(self):
        names = {name for name, _ in registered_contracts()}
        assert "repro.storage.registers.RegisterFile.read" in names
        assert "repro.storage.trie.TrieStore.lookup" in names
        assert "repro.core.next_solution.NextSolutionIndex.next_solution" in names


class TestInstrument:
    def test_counts_register_reads(self):
        # the fused lookup reads the arena arrays directly; the generic
        # walk over the same cells goes through the counted register API
        store = TrieStore(n=64, k=1, eps=0.5)
        for key in range(0, 64, 8):
            store.insert((key,), value=key)
        with instrument() as counts:
            store.lookup((16,))
            store._lookup_digits(store._encode((16,)))
        assert counts["repro.storage.registers.RegisterFile.read"] > 0
        assert counts["repro.storage.trie.TrieStore.lookup"] == 1

    def test_restores_functions_on_exit(self):
        before = TrieStore.lookup
        with instrument():
            assert TrieStore.lookup is not before
        assert TrieStore.lookup is before
        assert RegisterFile.read is RegisterFile.read

    def test_lookup_cost_flat_in_n(self):
        """The Theorem 3.1 claim, measured: register reads per lookup do
        not grow with n (the trie height is ceil(1/eps), a constant).
        Counted on the generic walk, which visits the fused walk's cells."""
        reads = []
        for n in (64, 256, 1024, 4096):
            store = TrieStore(n=n, k=1, eps=0.5)
            for key in range(0, n, n // 8):
                store.insert((key,), value=key)
            with instrument() as counts:
                store._lookup_digits(store._encode((n // 2,)))
            reads.append(counts["repro.storage.registers.RegisterFile.read"])
        assert flatness(reads) <= 4.0

    def test_insert_cost_grows_sublinearly(self):
        """Theorem 3.1's update bound: register writes per insert grow
        like n^eps (here eps = 0.5), decidedly sublinear."""
        sizes = (64, 256, 1024, 4096)
        writes = []
        for n in sizes:
            store = TrieStore(n=n, k=1, eps=0.5)
            with instrument() as counts:
                store.insert((n // 2,), value=True)
            writes.append(counts["repro.storage.registers.RegisterFile.write"])
        exponent, _ = fit_exponent(sizes, writes)
        assert exponent == pytest.approx(0.5, abs=0.35)
        assert exponent < 1.0
