"""``repro lint`` and ``python -m repro.contracts`` entry points."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.cli import main as cli_main

FIXTURE = Path(__file__).parent / "fixture_violations.py"
CCY_FIXTURE = Path(__file__).parent / "fixture_concurrency.py"
STALE_FIXTURE = Path(__file__).parent / "fixture_stale_waiver.py"
SRC = Path(__file__).parent.parent.parent / "src" / "repro"


def test_lint_clean_tree_exits_zero(capsys):
    assert cli_main(["lint", str(SRC)]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_lint_fixture_exits_nonzero(capsys):
    assert cli_main(["lint", str(FIXTURE)]) == 1
    out = capsys.readouterr().out
    assert "CTC001" in out and "CTC002" in out and "CTC003" in out


def test_lint_json_format(capsys):
    exit_code = cli_main(["lint", "--format", "json", str(FIXTURE)])
    assert exit_code == 1
    payload = json.loads(capsys.readouterr().out)
    rules = {f["rule"] for f in payload["findings"]}
    assert {"CTC001", "CTC002", "CTC003", "PLC004"} <= rules
    assert payload["errors"] == 6


def test_lint_merges_both_passes(capsys):
    assert cli_main(["lint", str(FIXTURE), str(CCY_FIXTURE)]) == 1
    out = capsys.readouterr().out
    assert "CTC001" in out  # complexity pass
    assert "CCY101" in out and "CCY104" in out  # concurrency pass


def test_lint_json_has_per_rule_counts(capsys):
    exit_code = cli_main(["lint", "--format", "json", str(CCY_FIXTURE)])
    assert exit_code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 2
    rules = payload["rules"]
    for rule in ("CCY101", "CCY102", "CCY103", "CCY104",
                 "CCY105", "CCY106", "CCY107"):
        assert rule in rules, rules
        assert rules[rule]["errors"] >= 1
    assert rules["CCY101"]["waived"] == 1


def test_lint_flags_a_waiver_that_waives_nothing(capsys):
    stale = next(
        number
        for number, line in enumerate(STALE_FIXTURE.read_text().splitlines(), 1)
        if "built lazily on first use" in line
    )
    assert cli_main(["lint", "--format", "json", str(STALE_FIXTURE)]) == 1
    payload = json.loads(capsys.readouterr().out)
    errors = [f for f in payload["findings"] if f["severity"] == "error"]
    assert [(f["rule"], f["line"]) for f in errors] == [("LNT001", stale)]
    assert payload["rules"]["CTC001"] == {"errors": 0, "waived": 1}
    # a waiver only the concurrency pass uses is not stale
    cli_main(["lint", "--format", "json", str(CCY_FIXTURE)])
    assert "LNT001" not in json.loads(capsys.readouterr().out)["rules"]
    # and CI's contracts step fails on a stale one
    script = SRC.parent.parent / "scripts" / "check_contracts.py"
    result = subprocess.run(
        [sys.executable, str(script), "--github", str(STALE_FIXTURE)],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 1
    assert f"::error file=tests/contracts/fixture_stale_waiver.py,line={stale}," in result.stdout
    assert "title=LNT001" in result.stdout


def test_lint_missing_path_is_an_error(capsys):
    assert cli_main(["lint", "/no/such/path"]) == 2
    assert "no such file or directory" in capsys.readouterr().err


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "repro.contracts", str(FIXTURE)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC.parent), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 1
    assert "CTC001" in result.stdout


def test_check_contracts_script_github_mode():
    script = SRC.parent.parent / "scripts" / "check_contracts.py"
    result = subprocess.run(
        [sys.executable, str(script), "--github", str(FIXTURE)],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 1
    assert "::error file=" in result.stdout
    result = subprocess.run(
        [sys.executable, str(script), "--github", str(SRC)],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0
    assert "::error" not in result.stdout
    assert "::notice" in result.stdout  # the documented waivers
