"""Unit tests for the benchmark report renderer."""

import json

import pytest

from repro.reporting import (
    ReportError,
    group_by_experiment,
    load_results,
    main,
    render_benchmarks,
    render_group,
    render_report,
)


def fake_results(tmp_path):
    payload = {
        "benchmarks": [
            {
                "fullname": "benchmarks/bench_storing.py::test_lookup[1024]",
                "name": "test_lookup[1024]",
                "stats": {"mean": 2.5e-6},
                "extra_info": {"per_lookup_batch": 512},
            },
            {
                "fullname": "benchmarks/bench_storing.py::test_lookup[262144]",
                "name": "test_lookup[262144]",
                "stats": {"mean": 3.1e-6},
                "extra_info": {},
            },
            {
                "fullname": "benchmarks/bench_delay.py::test_delay_profile[512]",
                "name": "test_delay_profile[512]",
                "stats": {"mean": 0.8},
                "extra_info": {"delay_max_us": 120.0},
            },
        ]
    }
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(payload))
    return path


def test_load_and_group(tmp_path):
    path = fake_results(tmp_path)
    benchmarks = load_results(path)
    assert len(benchmarks) == 3
    groups = group_by_experiment(benchmarks)
    assert set(groups) == {"bench_storing", "bench_delay"}
    # numeric params sort numerically: 1024 before 262144
    names = [b["name"] for b in groups["bench_storing"]]
    assert names == ["test_lookup[1024]", "test_lookup[262144]"]


def test_render_group_formats_units(tmp_path):
    path = fake_results(tmp_path)
    groups = group_by_experiment(load_results(path))
    table = render_group("bench_storing", groups["bench_storing"])
    assert "E1" in table
    assert "2.5 us" in table
    assert "per_lookup_batch=512" in table
    delay = render_group("bench_delay", groups["bench_delay"])
    assert "800.0 ms" in delay


def test_render_report_orders_experiments(tmp_path):
    report = render_report(fake_results(tmp_path))
    assert report.index("E1") < report.index("E9")
    assert "3 measurements" in report


def test_main_cli(tmp_path, capsys):
    path = fake_results(tmp_path)
    assert main([str(path)]) == 0
    assert "Benchmark report" in capsys.readouterr().out
    assert main([]) == 2


def test_unknown_stem_renders_placeholder():
    benchmarks = [
        {
            "fullname": "benchmarks/bench_mystery.py::test_thing[8]",
            "name": "test_thing[8]",
            "stats": {"mean": 1e-3},
            "extra_info": {},
        }
    ]
    report = render_benchmarks(benchmarks)
    assert "? — bench_mystery" in report


def test_numeric_experiment_order():
    def entry(stem):
        return {
            "fullname": f"benchmarks/{stem}.py::test_x[8]",
            "name": "test_x[8]",
            "stats": {"mean": 1e-3},
            "extra_info": {},
        }

    report = render_benchmarks([entry("bench_sparsity"), entry("bench_distance")])
    assert report.index("E3") < report.index("E10")  # numeric, not lexicographic

    stems = ("bench_updates", "bench_persist", "bench_serving", "bench_profiler")
    report = render_benchmarks([entry(stem) for stem in stems])
    assert "### ?" not in report
    positions = [report.index(f"### {e} — ") for e in ("E15", "E16", "E17", "E18")]
    assert positions == sorted(positions)


def test_every_recorded_group_has_a_title():
    """Each ``record(experiment, group, ...)`` call in the runner is titled."""
    import ast
    import inspect

    from repro import benchrunner
    from repro.reporting import EXPERIMENTS

    recorded = set()
    for node in ast.walk(ast.parse(inspect.getsource(benchrunner))):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "record"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
        ):
            experiment, group = (ast.literal_eval(arg) for arg in node.args[:2])
            recorded.add((experiment, group))
    assert {experiment for experiment, _ in recorded} == set(
        benchrunner.BenchSuite.RUNNERS
    )
    for experiment, group in recorded:
        assert EXPERIMENTS[group][0] == experiment, group
    assert {rule.group for rule in benchrunner.GATE_RULES} <= {g for _, g in recorded}


# ----------------------------------------------------------------------
# hardened error handling: one-line ReportError, exit code 2, no traceback


def test_load_results_missing_file(tmp_path):
    with pytest.raises(ReportError, match="no such file"):
        load_results(tmp_path / "nope.json")


def test_load_results_empty_file(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text("")
    with pytest.raises(ReportError, match="empty"):
        load_results(path)
    path.write_text("   \n")
    with pytest.raises(ReportError, match="empty"):
        load_results(path)


def test_load_results_truncated_json(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text('{"benchmarks": [{"name": "test_x[8]"')
    with pytest.raises(ReportError, match="invalid JSON"):
        load_results(path)


def test_load_results_wrong_shape(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ReportError, match="benchmarks"):
        load_results(path)
    path.write_text('{"benchmarks": 7}')
    with pytest.raises(ReportError, match="list"):
        load_results(path)


@pytest.mark.parametrize("content", ["", "{not json", '{"other": 1}'])
def test_main_exits_2_without_traceback(tmp_path, capsys, content):
    path = tmp_path / "bench.json"
    path.write_text(content)
    assert main([str(path)]) == 2
    captured = capsys.readouterr()
    assert "repro.reporting:" in captured.err
    assert "Traceback" not in captured.err


def test_main_exits_2_on_missing_file(tmp_path, capsys):
    assert main([str(tmp_path / "ghost.json")]) == 2
    assert "no such file" in capsys.readouterr().err
