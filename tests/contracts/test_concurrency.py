"""The concurrency pass against seeded violations, the real tree, and
the runtime freeze tripwire."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.contracts import (
    FrozenMutationError,
    build_phase,
    effect_of,
    freeze,
    freeze_active,
    frozen_spec_of,
    read_only,
)
from repro.contracts.concurrency import (
    RULE_FROZEN_EXTERNAL,
    RULE_GUARDED_FIELD,
    RULE_LOCKED_CALL,
    RULE_READ_ONLY_CALL,
    RULE_READ_ONLY_WRITE,
    RULE_STALE,
    RULE_UNANNOTATED,
    check_concurrency,
)
from repro.contracts.lint import run_lint

FIXTURE = Path(__file__).parent / "fixture_concurrency.py"
SRC = Path(__file__).parent.parent.parent / "src" / "repro"


def fixture_line(marker: str) -> int:
    """1-based line number of the (unique) marker comment in the fixture."""
    lines = FIXTURE.read_text().splitlines()
    matches = [i + 1 for i, line in enumerate(lines) if line.rstrip().endswith(marker)]
    assert len(matches) == 1, f"marker {marker!r} found {len(matches)} times"
    return matches[0]


class TestFixtureViolations:
    def setup_method(self):
        self.report = check_concurrency([FIXTURE])
        self.errors = self.report.errors

    def find(self, rule, line):
        hits = [
            f for f in self.report.findings if f.rule == rule and f.line == line
        ]
        assert hits, (
            f"no {rule} finding at line {line}; got "
            f"{[(f.rule, f.line) for f in self.report.findings]}"
        )
        return hits[0]

    def test_exit_code_nonzero(self):
        assert self.report.exit_code == 1
        assert len(self.errors) == 10

    def test_read_only_setattr_fires(self):
        line = fixture_line("# CCY101 fires here (setattr)")
        finding = self.find(RULE_READ_ONLY_WRITE, line)
        assert not finding.waived
        assert "self._hits" in finding.message

    def test_read_only_inplace_mutation_fires(self):
        line = fixture_line("# CCY101 fires here (in-place)")
        finding = self.find(RULE_READ_ONLY_WRITE, line)
        assert "in place" in finding.message

    def test_unlocked_cell_fill_fires(self):
        line = fixture_line("# CCY101 fires here (cell, no lock)")
        finding = self.find(RULE_READ_ONLY_WRITE, line)
        assert "_memo_lock" in finding.message

    def test_read_only_call_into_builds_fires(self):
        line = fixture_line("# CCY102 fires here")
        finding = self.find(RULE_READ_ONLY_CALL, line)
        assert "rebuild" in finding.message
        assert "[builds]" in finding.message

    def test_external_setattr_fires(self):
        line = fixture_line("# CCY103 fires here (external setattr)")
        finding = self.find(RULE_FROZEN_EXTERNAL, line)
        assert "LeakyIndex" in finding.message

    def test_external_builds_call_fires(self):
        line = fixture_line("# CCY103 fires here (external builds call)")
        finding = self.find(RULE_FROZEN_EXTERNAL, line)
        assert "rebuild" in finding.message

    def test_unguarded_write_fires(self):
        line = fixture_line("# CCY104 fires here")
        finding = self.find(RULE_GUARDED_FIELD, line)
        assert "self.entries" in finding.message
        assert "_lock" in finding.message

    def test_unlocked_call_fires(self):
        line = fixture_line("# CCY105 fires here")
        finding = self.find(RULE_LOCKED_CALL, line)
        assert "_evict_one" in finding.message

    def test_stale_cell_fires(self):
        line = fixture_line("# CCY106 fires here")
        finding = self.find(RULE_STALE, line)
        assert "_gone" in finding.message

    def test_unannotated_method_fires(self):
        line = fixture_line("# CCY107 fires here")
        finding = self.find(RULE_UNANNOTATED, line)
        assert "forgot_the_effect" in finding.function

    def test_waiver_demotes_to_note(self):
        line = fixture_line("# CCY101 fires here, but waived")
        finding = self.find(RULE_READ_ONLY_WRITE, line)
        assert finding.waived
        assert finding.severity == "note"
        assert "single-writer" in finding.waiver
        assert finding not in self.errors

    def test_locked_cell_fill_is_legal(self):
        line = fixture_line("# legal fill")
        assert not any(f.line == line for f in self.report.findings)

    def test_fresh_receiver_is_legal(self):
        line = fixture_line("# legal: receiver is construction-fresh")
        assert not any(f.line == line for f in self.report.findings)


class TestRealTree:
    def test_library_is_clean(self):
        report = check_concurrency([SRC])
        assert report.errors == [], report.render_text()
        assert report.exit_code == 0

    def test_index_classes_are_annotated(self):
        report = check_concurrency([SRC])
        assert report.functions_checked >= 100

    def test_merged_lint_is_clean_and_counts_both_passes(self):
        report = run_lint([SRC])
        assert report.errors == [], report.render_text()
        payload = json.loads(report.to_json())
        assert payload["version"] == 2
        assert "CTC003" in payload["rules"]  # complexity waivers surface
        rules = {f.rule for f in report.findings}
        assert not any(r.startswith("CCY") and not report.findings for r in rules)


class TestEffectMetadata:
    def test_engine_entry_points_are_read_only(self):
        from repro.core.engine import QueryIndex

        assert frozen_spec_of(QueryIndex) is not None
        for name in ("test", "next_solution", "enumerate_page", "count"):
            effect = effect_of(getattr(QueryIndex, name))
            assert effect is not None and effect.kind == "read_only", name

    def test_memo_cells_are_declared(self):
        from repro.core.bag_solver import BagSolver
        from repro.core.last_coordinate import LastCoordinateIndex
        from repro.core.local_eval import LocalEvaluator
        from repro.core.repair import PatchedUnaryIndex

        # above the bag everything is built at preprocessing
        for cls in (LastCoordinateIndex, PatchedUnaryIndex):
            assert frozen_spec_of(cls).cells == (), cls
            assert not hasattr(cls, "_memo_lock"), cls
        # inside a bag, the column and test memos still fill on first use
        assert dict(frozen_spec_of(BagSolver).cells) == {
            "_column_cache": "_memo_lock",
            "_rewrites": "_memo_lock",
            "_test_cache": "_memo_lock",
        }
        assert dict(frozen_spec_of(LocalEvaluator).cells) == {
            "_column_cache": "_memo_lock",
            "_plan_cache": "_memo_lock",
            "_test_cache": "_memo_lock",
            "_unary_cache": "_memo_lock",
        }


class TestRuntimeFreeze:
    QUERY = "exists y. E(x, y) & Hot(y)"

    @pytest.fixture()
    def graph(self):
        from repro.graphs.generators import path

        g = path(40, palette=("Hot",))
        g.add_to_color("Hot", 7)
        g.add_to_color("Hot", 21)
        return g

    def test_frozen_index_raises_on_mutation_but_still_answers(self, graph):
        from repro.core.engine import open_index

        oracle = open_index(graph, self.QUERY)
        answers = list(oracle.enumerate())
        tests = {(v,): oracle.test((v,)) for v in range(-1, graph.n + 1)}

        cold = open_index(graph, self.QUERY)
        with freeze():
            assert freeze_active()
            with pytest.raises(FrozenMutationError):
                cold.graph = None
            # the read path (including its first-touch memo fills) is
            # unaffected by the tripwire
            assert list(cold.enumerate()) == answers
            for probe, expected in tests.items():
                assert cold.test(probe) == expected
            page = cold.enumerate_page(limit=5)
            assert page.items == answers[:5]
        # mutability restored once the guard is uninstalled
        cold.graph = graph
        assert not freeze_active()

    def test_build_phase_reopens_mutation(self, graph):
        from repro.core.engine import open_index

        index = open_index(graph, self.QUERY)
        with freeze():
            with pytest.raises(FrozenMutationError):
                index.graph = None
            with build_phase():
                index.graph = graph  # explicit build phases may mutate

    def test_dynamic_updates_survive_paranoid_mode(self, graph):
        from repro.core.engine import open_index

        index = open_index(graph, "exists y. E(x, y) & Cold(y)")
        with freeze():
            # color flips repair inside an explicit build phase and
            # return new generations — no tripwire, and no write to the
            # frozen generation they started from
            hot = index.add_color("Cold", 10)
            assert hot.test((9,)) and hot.test((11,))
            cold = hot.remove_color("Cold", 10)
            assert not cold.test((9,))
            assert hot.test((9,)) and not index.test((9,))

    def test_snapshot_roundtrip_under_freeze(self, tmp_path, graph):
        from repro.core.engine import open_index
        from repro.persist.fingerprint import index_fingerprint
        from repro.persist.snapshot import load_index, save_index

        index = open_index(graph, self.QUERY)
        answers = list(index.enumerate())
        target = tmp_path / "index.rpx"
        save_index(index, target, index_fingerprint(graph, self.QUERY))
        with freeze():
            # unpickling restores slotted classes via setattr: must be
            # treated as build-phase work even in paranoid mode
            loaded = load_index(target)
            assert list(loaded.enumerate()) == answers

    def test_unfrozen_classes_are_untouched(self):
        class Plain:
            pass

        plain = Plain()
        with freeze():
            plain.attr = 1  # only @frozen_after_build classes guard
        assert plain.attr == 1


class TestReadOnlyDecoratorIsFree:
    def test_decorator_returns_function_unchanged(self):
        def probe(self):
            return 42

        assert read_only(probe) is probe
        assert effect_of(probe).kind == "read_only"
