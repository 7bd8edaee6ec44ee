"""Watchdog tests: calibration, delay violations, ops violations."""

from __future__ import annotations

import pytest

from repro import metrics
from repro.trace import Watchdog, span, tracing
from repro.trace.watchdog import DELAY_VIOLATION, OPS_VIOLATION


def test_rejects_bad_knobs():
    with pytest.raises(ValueError):
        Watchdog(multiple=0)
    with pytest.raises(ValueError):
        Watchdog(ops_multiple=-1)
    with pytest.raises(ValueError):
        Watchdog(calibration_samples=0)


def test_calibrates_then_flags_slow_steps():
    dog = Watchdog(multiple=10.0, calibration_samples=4, min_budget_seconds=1e-6)
    for _ in range(4):
        dog.observe_step(1e-3)
    assert dog.calibrated
    assert dog.budget_seconds == pytest.approx(1e-3)
    assert dog.violations == {"delay": 0, "ops": 0}
    dog.observe_step(5e-3)  # 5x the budget: within the 10x multiple
    assert dog.violations["delay"] == 0
    dog.observe_step(50e-3)  # 50x: violation
    assert dog.violations["delay"] == 1
    assert dog.steps_seen == 6


def test_calibration_steps_are_never_flagged():
    dog = Watchdog(multiple=2.0, calibration_samples=8)
    # wildly uneven calibration steps: still no violations
    for i in range(8):
        dog.observe_step(1e-6 if i % 2 else 1.0)
    assert dog.violations == {"delay": 0, "ops": 0}


def test_silent_on_uniform_steps():
    dog = Watchdog(multiple=20.0, calibration_samples=4)
    for _ in range(200):
        dog.observe_step(1e-4)
    assert dog.violations == {"delay": 0, "ops": 0}


def test_min_budget_floor_absorbs_timer_noise():
    dog = Watchdog(multiple=20.0, calibration_samples=4, min_budget_seconds=1e-4)
    for _ in range(4):
        dog.observe_step(1e-9)  # sub-microsecond steps
    assert dog.budget_seconds == pytest.approx(1e-4)
    dog.observe_step(1e-6)  # fast step, huge relative to the raw median
    assert dog.violations["delay"] == 0


def test_explicit_budget_skips_calibration():
    dog = Watchdog(budget_seconds=1e-3, multiple=5.0)
    assert dog.calibrated
    dog.observe_step(10e-3)
    assert dog.violations["delay"] == 1


def test_ops_budget_calibrates_and_flags():
    dog = Watchdog(
        budget_seconds=1.0,  # delay never violates here
        ops_budget=None,
        ops_multiple=2.0,
        calibration_samples=4,
    )
    for _ in range(4):
        dog.observe_step(1e-6, ops=10.0)
    assert dog.ops_budget == pytest.approx(10.0)
    dog.observe_step(1e-6, ops=15.0)  # 1.5x: fine
    assert dog.violations["ops"] == 0
    dog.observe_step(1e-6, ops=100.0)  # 10x: violation
    assert dog.violations["ops"] == 1


def test_explicit_ops_budget():
    dog = Watchdog(budget_seconds=1.0, ops_budget=20.0, ops_multiple=4.0)
    dog.observe_step(1e-6, ops=79.0)
    assert dog.violations["ops"] == 0
    dog.observe_step(1e-6, ops=81.0)
    assert dog.violations["ops"] == 1


def test_as_observer_flags_synthetic_slow_span():
    import time

    dog = Watchdog(budget_seconds=1e-4, multiple=2.0)
    with tracing("job", observers=(dog.on_span,)) as tracer:
        with span("enumerate.step"):
            pass  # fast step
        with span("enumerate.step"):
            time.sleep(0.01)  # 100x the budget
        with span("other.stage"):
            time.sleep(0.01)  # wrong name: ignored
    assert dog.steps_seen == 2
    assert dog.violations["delay"] == 1
    flagged = [
        s for s in tracer.spans
        if s.attributes.get("guarantee.violation") == "delay"
    ]
    assert len(flagged) == 1
    assert flagged[0].name == "enumerate.step"


def test_violations_bump_metrics_counters():
    dog = Watchdog(budget_seconds=1e-6, multiple=1.0, ops_budget=1.0,
                   ops_multiple=1.0)
    with metrics.collect(ops=False) as registry:
        dog.observe_step(1.0, ops=50.0)
    assert registry.counters[DELAY_VIOLATION].value == 1
    assert registry.counters[OPS_VIOLATION].value == 1


def test_snapshot_shape():
    dog = Watchdog(calibration_samples=2)
    dog.observe_step(1e-3)
    snap = dog.snapshot()
    assert snap["steps_seen"] == 1
    assert snap["calibrated"] is False
    assert snap["violations"] == {"delay": 0, "ops": 0}
