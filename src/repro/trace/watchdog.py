"""The guarantee watchdog: the paper's theorems as runtime-checkable SLOs.

Corollary 2.5 promises **constant delay** between enumerated answers and
Theorem 3.1 promises a **flat number of register operations** per
lookup.  The bench suite asserts both offline; this module watches them
*live*: attached as a span observer (see
:class:`~repro.trace.core.Tracer`), it consumes every
``enumerate.step`` span a traced request produces and flags any step
that exceeds a configurable multiple of the calibrated constant-delay
budget.

Calibration: with no explicit ``budget_seconds``, the first
``calibration_samples`` steps establish the budget as their median
duration (clamped up to ``min_budget_seconds`` so timer noise on
microsecond steps cannot produce a zero budget).  A step then violates
when ``duration > budget * multiple``.  Steps that carry an ``ops``
attribute (primitive-operation counts, recorded when a metrics registry
is collecting) are held to the same scheme with ``ops_multiple`` — the
machine-independent check.

On violation the watchdog bumps the ``guarantee.delay_violation`` /
``guarantee.ops_violation`` metrics counters (visible in ``/metrics``),
emits one structured warning with the trace id, and stamps the offending
span's attributes — so the violation is findable from the logs, the
metrics, and the trace tree alike.
"""

from __future__ import annotations

import logging
import threading
from statistics import median
from typing import Any

from repro.contracts import guarded_by
from repro.metrics.runtime import count as _metrics_count
from repro.trace.core import Span
from repro.trace.logging import log_event

logger = logging.getLogger("repro.trace.watchdog")

#: Metrics counter names bumped on violations.
DELAY_VIOLATION = "guarantee.delay_violation"
OPS_VIOLATION = "guarantee.ops_violation"

#: Metrics counter bumped once per observed step — the burn-rate
#: denominator, so a scraper computes ``rate(violations)/rate(steps)``.
STEPS_OBSERVED = "guarantee.steps"

#: Span name the watchdog consumes (what the enumeration loops emit).
STEP_SPAN = "enumerate.step"


@guarded_by("_lock", "steps_seen", "violations", "_delay_samples", "_ops_samples", "budget_seconds", "ops_budget")
class Watchdog:
    """Consumes enumeration-step spans; raises violation counters.

    Parameters
    ----------
    budget_seconds:
        The constant-delay budget per step.  ``None`` (default)
        self-calibrates from the first ``calibration_samples`` steps.
    multiple:
        A step violates when its duration exceeds ``budget * multiple``.
    ops_budget:
        Per-step primitive-operation budget; ``None`` self-calibrates
        from steps carrying an ``ops`` attribute.
    ops_multiple:
        Ops analogue of ``multiple``.
    calibration_samples:
        Steps consumed before the self-calibrated budgets are fixed.
    min_budget_seconds:
        Floor for the self-calibrated delay budget (timer-noise guard).
    """

    def __init__(
        self,
        budget_seconds: float | None = None,
        multiple: float = 20.0,
        ops_budget: float | None = None,
        ops_multiple: float = 4.0,
        calibration_samples: int = 64,
        min_budget_seconds: float = 1e-4,
    ) -> None:
        if multiple <= 0:
            raise ValueError(f"multiple must be positive, got {multiple}")
        if ops_multiple <= 0:
            raise ValueError(f"ops_multiple must be positive, got {ops_multiple}")
        if calibration_samples < 1:
            raise ValueError(
                f"calibration_samples must be >= 1, got {calibration_samples}"
            )
        self.budget_seconds = budget_seconds
        self.multiple = multiple
        self.ops_budget = ops_budget
        self.ops_multiple = ops_multiple
        self.calibration_samples = calibration_samples
        self.min_budget_seconds = min_budget_seconds
        self.steps_seen = 0
        self.violations = {"delay": 0, "ops": 0}
        self._lock = threading.Lock()
        self._delay_samples: list[float] = []
        self._ops_samples: list[float] = []

    # ------------------------------------------------------------------
    @property
    def calibrated(self) -> bool:
        """Is the delay budget fixed (explicitly or by calibration)?"""
        return self.budget_seconds is not None

    def on_span(self, span: Span) -> None:
        """Observer entry point: feed one finished span (any name)."""
        if span.name != STEP_SPAN:
            return
        ops = span.attributes.get("ops")
        self.observe_step(
            span.duration,
            ops=float(ops) if isinstance(ops, (int, float)) else None,
            trace_id=span.trace_id,
            span=span,
        )

    def observe_step(
        self,
        duration: float,
        ops: float | None = None,
        trace_id: str | None = None,
        span: Span | None = None,
    ) -> None:
        """Check one enumeration step against the budgets (thread-safe)."""
        _metrics_count(STEPS_OBSERVED)
        with self._lock:
            self.steps_seen += 1
            delay_budget = self.budget_seconds
            if delay_budget is None:
                self._delay_samples.append(duration)
                if len(self._delay_samples) >= self.calibration_samples:
                    self.budget_seconds = max(
                        median(self._delay_samples), self.min_budget_seconds
                    )
                    self._delay_samples = []
                return  # still calibrating: never flag calibration steps
            ops_budget = self.ops_budget
            if ops is not None and ops_budget is None:
                self._ops_samples.append(ops)
                if len(self._ops_samples) >= self.calibration_samples:
                    self.ops_budget = max(median(self._ops_samples), 1.0)
                    self._ops_samples = []
                ops_budget = None  # don't judge ops until their budget exists
        if duration > delay_budget * self.multiple:
            self._flag(
                "delay",
                DELAY_VIOLATION,
                trace_id,
                span,
                duration_ms=duration * 1000,
                budget_ms=delay_budget * 1000,
                multiple=self.multiple,
            )
        if ops is not None and ops_budget is not None:
            if ops > ops_budget * self.ops_multiple:
                self._flag(
                    "ops",
                    OPS_VIOLATION,
                    trace_id,
                    span,
                    ops=ops,
                    ops_budget=ops_budget,
                    multiple=self.ops_multiple,
                )

    def _flag(
        self,
        kind: str,
        counter: str,
        trace_id: str | None,
        span: Span | None,
        **fields: Any,
    ) -> None:
        with self._lock:
            self.violations[kind] += 1
        _metrics_count(counter)
        if span is not None:
            span.attributes["guarantee.violation"] = kind
        log_event(
            logger,
            f"constant-{'delay' if kind == 'delay' else 'ops'} guarantee violated",
            level=logging.WARNING,
            kind=kind,
            trace_id=trace_id,
            **fields,
        )

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """JSON-ready state for ``/v1/stats`` and the CLI summary."""
        with self._lock:
            steps = self.steps_seen
            violations = dict(self.violations)
            return {
                "steps_seen": steps,
                "budget_seconds": self.budget_seconds,
                "multiple": self.multiple,
                "ops_budget": self.ops_budget,
                "ops_multiple": self.ops_multiple,
                "calibrated": self.budget_seconds is not None,
                "violations": violations,
                # violations per observed step: the SLO error-budget dial
                "burn_rate": {
                    kind: (n / steps if steps else 0.0)
                    for kind, n in violations.items()
                },
            }

    def __repr__(self) -> str:
        return (
            f"Watchdog(budget={self.budget_seconds}, multiple={self.multiple}, "
            f"violations={self.violations})"
        )
