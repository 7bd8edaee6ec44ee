"""The active-registry plumbing: which registry collects, and untimed counts.

Timed or counted work on the library's paths reaches the registry through
one hook, :func:`repro.trace.runtime.span`: inside ``collect()`` a span
either adds its duration to the histogram its call site names or adds 1
to the counter named like the span.  This module keeps what that hook
reads — :func:`active`, the registry :func:`collect` installs — plus
:func:`count` for events that are counted but never timed (snapshot
cache hits and misses, the watchdog's ``guarantee.*``).  Outside a
:func:`collect` context there is no active registry and :func:`count` is
a single ``is None`` check, so the paper's constant-time guarantees are
unaffected; the hooks are themselves ``@constant_time`` so ``repro lint``
verifies that calling them from an O(1) context is legal.

With ``ops=True`` (the default) every *contracted* function is also
patched via :func:`repro.contracts.decorators.instrument` so the run
records primitive-operation counts — the empirical, noise-free check
that "constant time" means a flat number of register reads, not just a
flat wall clock.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

from repro.contracts import constant_time, instrument
from repro.metrics.core import MetricsRegistry

#: The registry currently collecting, or None (the common, zero-cost case).
_ACTIVE: MetricsRegistry | None = None


@constant_time(note="one module-global read")
def active() -> MetricsRegistry | None:
    """The registry currently collecting, or None outside :func:`collect`."""
    return _ACTIVE


@constant_time(note="one None check + one integer add when collecting")
def count(name: str, amount: int = 1) -> None:
    """Bump the named operation counter if a registry is collecting."""
    if _ACTIVE is not None:
        _ACTIVE.counter(name).inc(amount)


@contextmanager
def collect(ops: bool = True) -> Iterator[MetricsRegistry]:
    """Collect metrics from everything that runs inside the context.

    Parameters
    ----------
    ops:
        Also patch every contracted function (via the
        ``instrument()`` hook) so ``registry.op_counts`` maps qualified
        function names to call counts.  Patching costs one extra Python
        call per contracted call, so measurement runs that only need the
        span-fed counters/histograms can pass ``ops=False``.

    Histograms keep bucket counts, never samples, so a registry's memory
    stays flat however long the context lives (``repro serve`` holds one
    for its lifetime).

    Contexts nest: the innermost registry receives the spans and counts,
    and the previous one is restored on exit.
    """
    global _ACTIVE
    registry = MetricsRegistry()
    previous = _ACTIVE
    _ACTIVE = registry
    try:
        if ops:
            with instrument() as counts:
                registry.op_counts = counts
                yield registry
        else:
            yield registry
    finally:
        _ACTIVE = previous
