"""Unit tests for the self-contained bench-suite runner."""

import dataclasses
import json
import re

import pytest

from repro.bench_schema import SCHEMA_NAME, SUITE_VERSION, validate_results
from repro.benchrunner import (
    FULL,
    QUICK,
    Profile,
    check_gate,
    run_suite,
    write_results,
)

#: A micro profile so suite tests stay fast (sub-second per experiment).
TINY = Profile(
    name="quick",
    sizes=(32, 64),
    small_sizes=(16, 32),
    trie_sizes=(32, 64),
    delay_sizes=(24, 48),
    splitter_sizes=(24, 48),
    counting_sizes=(16, 32),
    dynamic_sizes=(32, 64),
    db_sizes=(32, 64),
    probes=8,
    repeats=1,
    trie_keys=16,
    splitter_trials=1,
)

#: Experiments whose full profile runs un-gated side sweeps (EA last).
FULL_SWEEPS = ["E3", "E4", "E5", "E10", "EA"]

#: The parameter regex scripts/make_experiments.py extracts series with.
_PARAM_RE = re.compile(r"\[(?:[a-z0-9]+-)?(\d+)\]$")


def test_profiles_cover_the_same_fields():
    assert QUICK.name == "quick"
    assert FULL.name == "full"
    assert max(QUICK.sizes) < max(FULL.sizes)


def test_run_suite_e1_schema_and_naming():
    payload = run_suite(TINY, ["E1"])
    assert validate_results(payload) == []
    assert payload["schema"] == SCHEMA_NAME
    assert payload["suite_version"] == SUITE_VERSION
    assert payload["experiments"] == ["E1"]
    names = [record["name"] for record in payload["benchmarks"]]
    assert f"test_lookup[{TINY.trie_sizes[0]}]" in names
    assert f"test_init[1-{TINY.trie_sizes[0]}]" in names
    assert f"test_init[2-{TINY.trie_sizes[1]}]" in names
    assert f"test_successor[{TINY.trie_sizes[1]}]" in names
    assert f"test_update_cycle[{TINY.trie_sizes[0]}]" in names
    lookups = [
        record
        for record in payload["benchmarks"]
        if record["name"].startswith("test_lookup[")
    ]
    assert len(lookups) == len(TINY.trie_sizes)
    for record in lookups:
        assert record["extra_info"]["speedup_vs_generic"] > 0
        assert record["extra_info"]["register_ops_per_lookup"] > 0
    inits = [
        record
        for record in payload["benchmarks"]
        if record["name"].startswith("test_init[")
    ]
    for record in inits:
        assert record["extra_info"]["snapshot_bytes"] > 0
    for record in payload["benchmarks"]:
        # the EXPERIMENTS.md generator must be able to parse every id
        assert _PARAM_RE.search(record["name"]), record["name"]
        assert record["fullname"].startswith("benchmarks/bench_")
        assert record["stats"]["mean"] >= 0


def test_run_suite_e9_delay_histogram():
    payload = run_suite(TINY, ["E9"])
    assert validate_results(payload) == []
    profiles = [
        record
        for record in payload["benchmarks"]
        if record["name"].startswith("test_delay_profile[")
    ]
    assert len(profiles) == len(TINY.delay_sizes)
    for record in profiles:
        extra = record["extra_info"]
        assert extra["solutions"] > 0
        assert extra["delay_p50_us"] <= extra["delay_p95_us"] <= extra["delay_max_us"]


def test_full_profile_adds_the_side_sweeps():
    side = {
        "test_preprocess[grid-32]", "test_radius_sweep[4]",
        "test_build_cover[tree-64]", "test_radius_sweep[8]", "test_kernels[64]",
        "test_rounds_vs_radius[4]", "test_weak_accessibility[64]",
        "test_bag_threshold[220]", "test_distance_recursion_depth[1]",
    }
    payload = run_suite(dataclasses.replace(TINY, name="full"), FULL_SWEEPS)
    assert validate_results(payload) == []
    names = {record["name"] for record in payload["benchmarks"]}
    assert side <= names
    for name in side:
        assert _PARAM_RE.search(name), name
    # the quick profile keeps its record set: EA stays opt-in, and the
    # side sweeps of E3/E4/E5/E10 are full-only
    quick = run_suite(TINY, FULL_SWEEPS[:-1])
    assert not side & {record["name"] for record in quick["benchmarks"]}


def test_run_suite_rejects_unknown_experiment():
    with pytest.raises(ValueError, match="E99"):
        run_suite(TINY, ["E99"])


def test_write_results_round_trips(tmp_path):
    payload = run_suite(TINY, ["E11"])
    out = tmp_path / "results.json"
    write_results(payload, out)
    loaded = json.loads(out.read_text())
    assert validate_results(loaded) == []
    assert loaded["benchmarks"] == payload["benchmarks"]


def test_renders_through_reporting_pipeline():
    from repro.reporting import render_benchmarks

    payload = run_suite(TINY, ["E1"])
    report = render_benchmarks(payload["benchmarks"])
    assert "E1" in report
    assert "test_lookup" in report


# ----------------------------------------------------------------------
# schema validation


def _fake_payload(benchmarks):
    return {
        "suite_version": SUITE_VERSION,
        "schema": SCHEMA_NAME,
        "created": "2026-01-01T00:00:00",
        "profile": "quick",
        "machine_info": {"python": "3.11"},
        "experiments": ["E1"],
        "benchmarks": benchmarks,
    }


def _fake_record(name="test_lookup[64]", n=64, mean=1e-6, extra=None):
    return {
        "experiment": "E1",
        "group": "bench_storing",
        "fullname": f"benchmarks/bench_storing.py::{name}",
        "name": name,
        "params": {"n": n},
        "stats": {"mean": mean, "min": mean, "max": mean, "stddev": 0.0, "rounds": 1},
        "extra_info": extra or {},
    }


def test_validate_accepts_conforming_payload():
    assert validate_results(_fake_payload([_fake_record()])) == []


def test_validate_rejects_non_dict():
    assert validate_results([]) != []
    assert validate_results(None) != []


def test_validate_flags_missing_keys():
    payload = _fake_payload([_fake_record()])
    del payload["machine_info"]
    assert any("machine_info" in p for p in validate_results(payload))


def test_validate_flags_bad_record():
    record = _fake_record()
    del record["stats"]["mean"]
    problems = validate_results(_fake_payload([record]))
    assert any("stats.mean" in p for p in problems)

    record = _fake_record(mean=-1.0)
    assert any("negative" in p for p in validate_results(_fake_payload([record])))

    record = _fake_record(extra={"bad": [1, 2]})
    assert any("extra_info.bad" in p for p in validate_results(_fake_payload([record])))


# ----------------------------------------------------------------------
# the O(1) regression gate


def _series(prefix_values, mean_of=None, extra_key=None):
    records = []
    for n, value in prefix_values:
        extra = {extra_key: value} if extra_key else {}
        records.append(
            _fake_record(
                name=f"test_lookup[{n}]", n=n,
                mean=value if mean_of is None else mean_of, extra=extra,
            )
        )
    return records


def test_gate_passes_flat_series():
    records = _series([(64, 1e-6), (256, 1.1e-6), (1024, 0.9e-6)])
    verdicts = check_gate(_fake_payload(records))
    lookups = [v for v in verdicts if v["metric"] == "time"]
    assert lookups and all(v["passed"] for v in lookups)


def test_gate_fails_growing_series():
    records = _series([(64, 1e-6), (256, 16e-6), (1024, 256e-6)])  # ~linear
    verdicts = check_gate(_fake_payload(records))
    lookups = [v for v in verdicts if v["metric"] == "time"]
    assert lookups and not any(v["passed"] for v in lookups)


def test_gate_tolerates_one_noisy_point():
    # exponent is high-ish but the spread stays within the flatness slack
    records = _series([(64, 1e-6), (256, 1.5e-6), (1024, 2.5e-6)])
    verdicts = check_gate(_fake_payload(records))
    lookups = [v for v in verdicts if v["metric"] == "time"]
    assert lookups and all(v["passed"] for v in lookups)


def test_gate_checks_register_ops_strictly():
    records = _series(
        [(64, 3.0), (256, 3.1), (1024, 3.2)],
        mean_of=1e-6, extra_key="register_ops_per_lookup",
    )
    verdicts = check_gate(_fake_payload(records))
    ops = [v for v in verdicts if v["metric"].startswith("extra:register")]
    assert ops and all(v["passed"] for v in ops)

    records = _series(
        [(64, 3.0), (256, 6.0), (1024, 9.0)],
        mean_of=1e-6, extra_key="register_ops_per_lookup",
    )
    verdicts = check_gate(_fake_payload(records))
    ops = [v for v in verdicts if v["metric"].startswith("extra:register")]
    assert ops and not any(v["passed"] for v in ops)


def test_gate_skips_single_point_series():
    verdicts = check_gate(_fake_payload(_series([(64, 1e-6)])))
    assert verdicts == []


# ----------------------------------------------------------------------
# E15: persistence + parallel preprocessing


def _warm_series(points):
    records = []
    for n, speedup in points:
        records.append(
            {
                "experiment": "E15",
                "group": "bench_persist",
                "fullname": f"benchmarks/bench_persist.py::test_warm_vs_cold[{n}]",
                "name": f"test_warm_vs_cold[{n}]",
                "params": {"n": n},
                "stats": {
                    "mean": 1e-3, "min": 1e-3, "max": 1e-3,
                    "stddev": 0.0, "rounds": 1,
                },
                "extra_info": {"warm_speedup_vs_cold": speedup},
            }
        )
    return records


def test_run_suite_e15_records_and_equivalence():
    payload = run_suite(TINY, ["E15"])
    assert validate_results(payload) == []
    names = [record["name"] for record in payload["benchmarks"]]
    assert f"test_warm_vs_cold[{TINY.small_sizes[0]}]" in names
    assert f"test_parallel_build[2-{TINY.small_sizes[0]}]" in names
    for record in payload["benchmarks"]:
        if record["name"].startswith("test_warm_vs_cold"):
            assert record["extra_info"]["answers_match"] is True
            assert record["extra_info"]["snapshot_bytes"] > 0
        if record["name"].startswith("test_parallel_build"):
            assert record["extra_info"]["matches_sequential"] is True
            assert record["params"]["workers"] == 2


def _arena_series(points):
    return [
        _fake_record(
            name=f"test_lookup[{n}]", n=n,
            extra={"speedup_vs_generic": speedup},
        )
        for n, speedup in points
    ]


def test_gate_arena_speedup_is_a_floor():
    verdicts = check_gate(_fake_payload(_arena_series([(64, 2.1), (128, 1.4)])))
    arena = [v for v in verdicts if v["metric"] == "extra:speedup_vs_generic"]
    assert arena and all(v["passed"] for v in arena)

    verdicts = check_gate(_fake_payload(_arena_series([(64, 2.1), (128, 0.9)])))
    arena = [v for v in verdicts if v["metric"] == "extra:speedup_vs_generic"]
    assert arena and not any(v["passed"] for v in arena)


def test_gate_warm_speedup_is_a_floor():
    verdicts = check_gate(_fake_payload(_warm_series([(64, 16.0), (128, 7.3)])))
    warm = [v for v in verdicts if v["metric"] == "extra:warm_speedup_vs_cold"]
    assert warm and all(v["passed"] for v in warm)

    verdicts = check_gate(_fake_payload(_warm_series([(64, 16.0), (128, 3.0)])))
    warm = [v for v in verdicts if v["metric"] == "extra:warm_speedup_vs_cold"]
    assert warm and not any(v["passed"] for v in warm)


# ----------------------------------------------------------------------
# E13/E14: differential extras gated as floors


def test_run_suite_e13_e14_differential_extras():
    payload = run_suite(TINY, ["E13", "E14"])
    assert validate_results(payload) == []
    extras = {record["name"]: record["extra_info"] for record in payload["benchmarks"]}
    for n in TINY.counting_sizes:
        baseline = extras[f"test_enumerate_count_baseline[{n}]"]
        assert baseline["count_equal"] == 1.0
        assert baseline["solutions"] == extras[f"test_closed_form_count[{n}]"]["solutions"]
    for n in TINY.dynamic_sizes:
        assert extras[f"test_update[{n}]"]["register_equal"] == 1.0
        assert f"test_rebuild_baseline[{n}]" in extras
    gated = {
        v["series"]: v["passed"]
        for v in check_gate(payload)
        if v["metric"] in ("extra:count_equal", "extra:register_equal")
    }
    assert gated == {"bench_counting::test_*": True, "bench_dynamic::test_*": True}


@pytest.mark.parametrize(
    ("experiment", "group", "name", "key"),
    [
        ("E13", "bench_counting", "test_enumerate_count_baseline", "count_equal"),
        ("E14", "bench_dynamic", "test_update", "register_equal"),
    ],
)
def test_gate_differential_extras_are_floors(experiment, group, name, key):
    def verdicts(values):
        records = []
        for n, value in values:
            record = _fake_record(name=f"{name}[{n}]", n=n, extra={key: value})
            record.update(experiment=experiment, group=group)
            records.append(record)
        return [v for v in check_gate(_fake_payload(records)) if v["metric"] == f"extra:{key}"]

    # one point already decides a floor rule, and a 0.0 point must fail it
    assert [v["passed"] for v in verdicts([(64, 1.0)])] == [True]
    assert [v["passed"] for v in verdicts([(64, 1.0), (128, 0.0)])] == [False]
