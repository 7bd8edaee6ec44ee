"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.graphs.generators import random_tree
from repro.graphs.io import write_edge_list, write_json


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.txt"
    write_edge_list(random_tree(40, seed=3), path)
    return str(path)


def test_generate_and_info(tmp_path, capsys):
    out = tmp_path / "tree.json"
    assert main(["generate", "random_tree", "50", "-o", str(out), "--seed", "1"]) == 0
    assert out.exists()
    assert main(["info", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "vertices:          50" in captured
    assert "density exponent" in captured


def test_generate_unknown_family(tmp_path, capsys):
    assert main(["generate", "clique", "10", "-o", str(tmp_path / "x.txt")]) == 2
    assert "unknown family" in capsys.readouterr().err


def test_info_on_edge_list(graph_file, capsys):
    assert main(["info", graph_file]) == 0
    assert "degeneracy:        1" in capsys.readouterr().out


def test_explain_exit_codes(capsys):
    assert main(["explain", "E(x, y)"]) == 0
    assert "decomposable" in capsys.readouterr().out
    assert main(["explain", "exists z. Blue(z) & dist(z, x) > 2"]) == 1
    assert "problems:" in capsys.readouterr().out


def test_query_command(graph_file, capsys):
    code = main(
        [
            "query",
            graph_file,
            "E(x, y)",
            "--count",
            "--test", "0,1",
            "--next", "0,0",
            "--enumerate", "3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "index built: method=indexed" in out
    assert "count: 78" in out  # 2 * 39 directed edge pairs
    assert "test(0, 1):" in out
    assert "next(0, 0):" in out


def test_query_rejects_bad_tuple(graph_file, capsys):
    assert main(["query", graph_file, "E(x, y)", "--test", "zero,one"]) == 2
    assert "comma-separated tuple" in capsys.readouterr().err


def test_query_rejects_empty_tuple(graph_file, capsys):
    assert main(["query", graph_file, "E(x, y)", "--test", ""]) == 2
    assert "comma-separated tuple" in capsys.readouterr().err


def test_query_rejects_tuple_with_empty_part(graph_file, capsys):
    assert main(["query", graph_file, "E(x, y)", "--test", "1,,2"]) == 2
    assert "comma-separated tuple" in capsys.readouterr().err


def test_query_tuple_tolerates_spaces(graph_file, capsys):
    assert main(["query", graph_file, "E(x, y)", "--test", "0, 1"]) == 0
    assert "test(0, 1):" in capsys.readouterr().out


def test_query_enumerate_rejects_nonpositive_limit(graph_file, capsys):
    assert main(["query", graph_file, "E(x, y)", "--enumerate", "0"]) == 2
    assert "--enumerate must be >= 1" in capsys.readouterr().err
    assert main(["query", graph_file, "E(x, y)", "--enumerate", "-3"]) == 2
    assert "--enumerate must be >= 1" in capsys.readouterr().err


def test_query_bad_query_text_exits_2(graph_file, capsys):
    assert main(["query", graph_file, "E(x,"]) == 2
    assert "repro query:" in capsys.readouterr().err


def test_query_missing_graph_file_exits_2(capsys):
    assert main(["query", "/no/such/graph.txt", "E(x, y)"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_bench_command(graph_file, capsys):
    assert main(["bench", graph_file, "E(x, y)"]) == 0
    out = capsys.readouterr().out
    assert "build=" in out and "test=" in out


def test_query_on_json_database_rejected(tmp_path):
    from repro.db.database import Database, Schema

    db = Database(Schema({"R": 1}), domain_size=2)
    path = tmp_path / "db.json"
    write_json(db, path)
    assert main(["info", str(path)]) == 2


def test_query_stats_flag(graph_file, capsys):
    assert main(["query", graph_file, "E(x, y)", "--stats"]) == 0
    out = capsys.readouterr().out
    assert '"method": "indexed"' in out


def test_info_locality_flag(graph_file, capsys):
    assert main(["info", graph_file, "--locality", "--radius", "2"]) == 0
    out = capsys.readouterr().out
    assert "verdict:" in out


def test_bench_on_empty_graph(tmp_path, capsys):
    """No probes to run on an empty graph — report n/a, never divide by zero."""
    from repro.graphs.colored_graph import ColoredGraph

    path = tmp_path / "empty.json"
    write_json(ColoredGraph(0), path)
    assert main(["bench", str(path), "E(x, y)"]) == 0
    out = capsys.readouterr().out
    assert "n=0" in out and "test=n/a" in out


def test_bench_arity_zero_query(graph_file, capsys):
    """A boolean (arity-0) query still benches: the only probe is ()."""
    assert main(["bench", graph_file, "exists x. exists y. E(x, y)"]) == 0
    out = capsys.readouterr().out
    assert "test=" in out and "n/a" not in out


def test_bench_suite_command(tmp_path, capsys, monkeypatch):
    import repro.benchrunner as benchrunner
    from tests.test_benchrunner import TINY

    monkeypatch.setattr(benchrunner, "QUICK", TINY)
    results = tmp_path / "results.json"
    report = tmp_path / "report.md"
    assert main([
        "bench-suite", "--quick", "--experiments", "E11",
        "-o", str(results), "--report", str(report),
    ]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    assert results.exists()
    assert "test_adjacency_graph_build" in report.read_text()


def test_bench_suite_rejects_unknown_experiment(tmp_path, capsys):
    assert main([
        "bench-suite", "--quick", "--experiments", "E99",
        "-o", str(tmp_path / "r.json"),
    ]) == 2
    assert "unknown experiment" in capsys.readouterr().err


# ----------------------------------------------------------------------
# wrong-arity probes (regression: raw ValueError traceback escaped)


def test_query_wrong_arity_test_exits_2(graph_file, capsys):
    code = main(["query", graph_file, "E(x, y)", "--test", "0,1,2"])
    assert code == 2
    captured = capsys.readouterr()
    assert "repro query:" in captured.err
    assert "2-tuple" in captured.err
    assert "Traceback" not in captured.err


def test_query_wrong_arity_next_exits_2(graph_file, capsys):
    code = main(["query", graph_file, "E(x, y)", "--next", "7"])
    assert code == 2
    assert "repro query:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# snapshot cache / warm


def test_query_cache_miss_then_hit(graph_file, tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert main(["query", graph_file, "E(x, y)", "--cache", cache, "--count"]) == 0
    first = capsys.readouterr().out
    assert "index miss" in first and "count: 78" in first
    assert main(["query", graph_file, "E(x, y)", "--cache", cache, "--count"]) == 0
    second = capsys.readouterr().out
    assert "index hit" in second and "count: 78" in second


def test_query_cache_corrupted_snapshot_still_answers(graph_file, tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["query", graph_file, "E(x, y)", "--cache", str(cache)]) == 0
    capsys.readouterr()
    snapshots = list(cache.glob("*.rpx"))
    assert len(snapshots) == 1
    snapshots[0].write_bytes(snapshots[0].read_bytes()[:-25])
    assert main(["query", graph_file, "E(x, y)", "--cache", str(cache), "--count"]) == 0
    out = capsys.readouterr().out
    assert "index rebuilt" in out and "count: 78" in out


def test_warm_then_query_cache_hits(graph_file, tmp_path, capsys):
    from repro.persist import SNAPSHOT_SUFFIX, load_index

    target = tmp_path / f"warm{SNAPSHOT_SUFFIX}"
    assert main(["warm", graph_file, "E(x, y)", "-o", str(target)]) == 0
    out = capsys.readouterr().out
    assert "warmed" in out and "fingerprint" in out
    assert target.exists()
    index = load_index(target)
    assert index.arity == 2
    assert index.count() == 78  # the snapshot answers without rebuilding


def test_query_workers_flag(graph_file, capsys):
    assert main(["query", graph_file, "E(x, y)", "--count", "--workers", "2"]) == 0
    assert "count: 78" in capsys.readouterr().out


def test_query_workers_invalid(graph_file, capsys):
    assert main(["query", graph_file, "E(x, y)", "--workers", "0"]) == 2
    assert "--workers must be >= 1" in capsys.readouterr().err


def test_serve_parser_wires_the_command():
    from repro.cli import build_parser

    args = build_parser().parse_args(["serve", "--port", "0", "--max-builds", "2"])
    assert args.command == "serve"
    assert args.port == 0 and args.max_builds == 2
    assert callable(args.func)


def test_serve_rejects_bad_knobs(capsys):
    assert main(["serve", "--port", "0", "--max-page-size", "0"]) == 2
    assert "--max-page-size" in capsys.readouterr().err
    assert main(["serve", "--port", "0", "--cache-entries", "0"]) == 2
    assert "--cache-entries" in capsys.readouterr().err


def test_trace_command_prints_span_tree(graph_file, capsys):
    code = main(["trace", graph_file, "E(x, y)", "--enumerate", "5", "--count"])
    assert code == 0
    out = capsys.readouterr().out
    assert "count: 78" in out
    assert "enumerated 5 solutions" in out
    assert "engine.build_index" in out
    assert "enumerate.step" in out
    assert "stage" in out  # the per-stage totals table


def test_trace_command_writes_chrome_trace(graph_file, tmp_path, capsys):
    import json

    out = tmp_path / "trace.json"
    code = main(["trace", graph_file, "E(x, y)", "--enumerate", "3",
                 "-o", str(out)])
    assert code == 0
    assert "wrote Chrome trace-event file" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert "engine.build_index" in names
    assert "enumerate.step" in names


def test_trace_command_writes_jsonl(graph_file, tmp_path, capsys):
    import json

    out = tmp_path / "spans.jsonl"
    code = main(["trace", graph_file, "E(x, y)", "--test", "0,1",
                 "-o", str(out)])
    assert code == 0
    assert "wrote JSONL spans" in capsys.readouterr().out
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len({row["trace_id"] for row in rows}) == 1
    assert any(row["name"] == "engine.test" for row in rows)


def test_trace_command_rejects_bad_enumerate(graph_file, capsys):
    assert main(["trace", graph_file, "E(x, y)", "--enumerate", "0"]) == 2
    assert "--enumerate" in capsys.readouterr().err


def test_explain_graph_flag_shows_stage_timings(graph_file, capsys):
    assert main(["explain", "E(x, y)", "--graph", graph_file]) == 0
    out = capsys.readouterr().out
    assert "decomposable" in out
    assert "preprocessing=" in out
    assert "cover.build" in out


def test_serve_trace_flags_are_validated(capsys):
    assert main(["serve", "--trace-sample", "1.5"]) == 2
    assert "--trace-sample" in capsys.readouterr().err
    assert main(["serve", "--trace-buffer", "-1"]) == 2
    assert "--trace-buffer" in capsys.readouterr().err
    assert main(["serve", "--watchdog-multiple", "-2"]) == 2
    assert "--watchdog-multiple" in capsys.readouterr().err


def test_profile_accepts_the_build_methods(tmp_path, capsys):
    path = tmp_path / "grid.json"
    assert main(["generate", "grid", "16", "-o", str(path), "--seed", "1"]) == 0
    code = main(
        ["profile", str(path), "E(x, y)", "--method", "naive", "--enumerate", "5"]
    )
    assert code == 0
    assert "samples" in capsys.readouterr().out
