"""Unified lint front-end: complexity + concurrency passes, one report.

``repro lint`` (and ``python -m repro.contracts``) runs both static
passes over the same tree and merges their findings into a single
:class:`~repro.contracts.checker.Report` — one exit code, one JSON
document with per-rule counts (``"rules"``), one waiver vocabulary.

The merged report adds one rule of its own, ``LNT001``: a ``#
contract:`` comment that waives no finding of either pass is an error.
A waiver outlives the code it excused when that code is deleted or made
constant, and a stale one would silently excuse whatever lands on its
line next.

Exit codes follow the :mod:`repro.errors` convention: 0 clean, 1 on
unwaived findings, 2 on usage errors (bad path, bad flags).
"""

from __future__ import annotations

import sys
from collections.abc import Iterable
from pathlib import Path

from repro.contracts.checker import RULE_TITLES, ContractChecker, Finding, ModuleInfo, Report
from repro.contracts.concurrency import check_concurrency

RULE_STALE_WAIVER = "LNT001"
RULE_TITLES[RULE_STALE_WAIVER] = "waiver that waives no finding"


def stale_waivers(
    modules: Iterable[ModuleInfo], findings: list[Finding]
) -> list[Finding]:
    """An ``LNT001`` error for every waiver no finding in ``findings`` used.

    A finding takes the waiver on its own line, else the one on the line
    above (see :class:`~repro.contracts.checker.ContractChecker`).
    """
    waivers = {str(module.path): module for module in modules}
    used = set()
    for finding in findings:
        if finding.waived and finding.path in waivers:
            lines = waivers[finding.path].waivers
            line = finding.line if finding.line in lines else finding.line - 1
            used.add((finding.path, line))
    return [
        Finding(
            path=path,
            line=line,
            col=0,
            rule=RULE_STALE_WAIVER,
            function=module.name,
            message=f"'# contract: {reason}' waives no finding of either pass",
        )
        for path, module in waivers.items()
        for line, reason in sorted(module.waivers.items())
        if (path, line) not in used
    ]


def run_lint(paths: list[str | Path]) -> Report:
    """Run both passes and merge their findings into one report.

    ``files_checked`` counts each file once; ``functions_checked`` sums
    the contracted functions of the complexity pass and the effect- or
    lock-annotated methods of the concurrency pass.
    """
    checker = ContractChecker(paths)
    complexity = checker.run()
    concurrency = check_concurrency(paths)
    findings = complexity.findings + concurrency.findings
    findings = sorted(
        findings + stale_waivers(checker.modules.values(), findings),
        key=lambda f: (f.path, f.line, f.rule),
    )
    return Report(
        findings=findings,
        files_checked=complexity.files_checked,
        functions_checked=(
            complexity.functions_checked + concurrency.functions_checked
        ),
    )


def main(argv: list[str] | None = None) -> int:
    """CLI: ``python -m repro.contracts [paths...] [--format text|json]``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.contracts",
        description=(
            "Statically check the paper's complexity contracts and the "
            "serving layer's concurrency contracts"
        ),
    )
    parser.add_argument("paths", nargs="*", default=None)
    parser.add_argument("--format", choices=["text", "json"], default="text")
    args = parser.parse_args(argv)
    paths = args.paths
    if not paths:
        paths = [Path(__file__).resolve().parent.parent]  # the repro package
    try:
        report = run_lint(paths)
    except FileNotFoundError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    print(report.to_json() if args.format == "json" else report.render_text())
    return report.exit_code
