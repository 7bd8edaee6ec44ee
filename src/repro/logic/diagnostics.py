"""Diagnostics: explain *why* a query does or does not decompose.

``open_index(..., method="indexed")`` raises a bare
:class:`~repro.core.normal_form.DecompositionError` when a query falls
outside the guarded fragment.  :func:`explain` produces a structured
report a user can act on: which subformulas are blocks, their anchors
and certified locality radii, which quantifier broke the guard analysis,
and the chosen type scale.

>>> from repro.logic.diagnostics import explain
>>> report = explain("exists z. Blue(z) & dist(z, x) > 2")
>>> report.decomposable
False
>>> "unguarded" in report.problems[0]
True
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.logic.guards import deep_counterexample_guard, deep_guard
from repro.logic.parser import parse_formula
from repro.logic.syntax import (
    And,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    Var,
)
from repro.logic.transform import free_variables


@dataclass
class BlockReport:
    """One skeleton block: the unit the decomposer assigns to components."""

    formula: str
    anchors: tuple[str, ...]
    radius: int | None  # None = not certifiably local

    @property
    def local(self) -> bool:
        """Did the guard analysis certify a radius?"""
        return self.radius is not None


@dataclass
class Report:
    """The full diagnosis of a query."""

    query: str
    arity: int
    blocks: list[BlockReport] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    radius: int | None = None

    @property
    def decomposable(self) -> bool:
        """True when the indexed engine accepts the query."""
        return not self.problems

    def render(self) -> str:
        """Human-readable multi-line summary."""
        lines = [f"query: {self.query}", f"arity: {self.arity}"]
        if self.radius is not None:
            lines.append(f"type scale (radius): {self.radius}")
        for block in self.blocks:
            status = (
                f"local, radius {block.radius}" if block.local else "NOT certifiably local"
            )
            anchors = ", ".join(block.anchors) or "(sentence)"
            lines.append(f"  block {block.formula}  anchors [{anchors}]  {status}")
        if self.problems:
            lines.append("problems:")
            lines.extend(f"  - {problem}" for problem in self.problems)
        else:
            lines.append("verdict: decomposable (indexed engine applies)")
        return "\n".join(lines)


def _unguarded_quantifiers(phi: Formula, anchors: frozenset[Var]) -> list[str]:
    """Quantifiers the guard analysis cannot confine, with explanations."""
    problems: list[str] = []

    def walk(node: Formula, env: dict[Var, int]) -> None:
        if not free_variables(node) & (anchors | set(env)):
            return  # a closed subformula is a sentence block: no guards needed
        if isinstance(node, Not):
            walk(node.body, env)
        elif isinstance(node, (And, Or)):
            for part in node.parts:
                walk(part, env)
        elif isinstance(node, Exists):
            guard = deep_guard(node.body, node.var, env)
            inner = dict(env)
            if guard is None:
                problems.append(
                    f"existential '{node.var}' is unguarded: no positive "
                    f"distance chain ties it to an anchored variable in "
                    f"{node!r}"
                )
                inner.pop(node.var, None)
            else:
                inner[node.var] = guard[1]
            walk(node.body, inner)
        elif isinstance(node, Forall):
            guard = deep_counterexample_guard(node.body, node.var, env)
            inner = dict(env)
            if guard is None:
                problems.append(
                    f"universal '{node.var}' is unguarded: no negated "
                    f"distance chain relativizes it in {node!r}"
                )
                inner.pop(node.var, None)
            else:
                inner[node.var] = guard[1]
            walk(node.body, inner)

    walk(phi, {v: 0 for v in anchors})
    return problems


def explain(query: Formula | str, free_order: tuple[Var, ...] | None = None) -> Report:
    """Diagnose ``query``'s decomposability (see the module docstring)."""
    from repro.core.normal_form import (
        DecompositionError,
        _split_blocks,
        decompose,
        normalize,
    )

    phi = parse_formula(query) if isinstance(query, str) else query
    if free_order is None:
        free_order = tuple(sorted(free_variables(phi), key=lambda v: v.name))
    free_vars = frozenset(free_order)
    report = Report(query=repr(phi), arity=len(free_order))
    phi0 = normalize(phi)
    report.problems.extend(_unguarded_quantifiers(phi0, free_vars))
    try:
        _, blocks = _split_blocks(phi0, free_vars)
        for block in blocks.values():
            report.blocks.append(
                BlockReport(
                    formula=repr(block.formula),
                    anchors=tuple(sorted(v.name for v in block.anchors)),
                    radius=block.radius,
                )
            )
    except DecompositionError as error:
        if not report.problems:
            report.problems.append(str(error))
        return report
    try:
        decomposition = decompose(phi, free_order)
        report.radius = decomposition.radius
    except DecompositionError as error:
        report.problems.append(str(error))
    return report
