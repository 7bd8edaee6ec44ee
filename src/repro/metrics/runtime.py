"""The active-registry plumbing: zero-cost hooks for the hot paths.

The hot paths (``storage/trie.py``, ``core/next_solution.py``,
``core/distance_index.py``, ``core/enumeration.py``,
``covers/neighborhood_cover.py``) call the module-level hooks below —
:func:`count`, :func:`observe`, :func:`delay_recorder` —
unconditionally.  Outside a :func:`collect` context
there is no active registry and every hook is a single ``is None`` check,
so the paper's constant-time guarantees are unaffected; the hooks are
themselves ``@constant_time`` so ``repro lint`` verifies that calling
them from an O(1) context is legal.

Inside ``with collect() as registry:`` the hooks write into ``registry``,
and (with ``ops=True``, the default) every *contracted* function is also
patched via :func:`repro.contracts.decorators.instrument` so the run
records primitive-operation counts — the empirical, noise-free check
that "constant time" means a flat number of register reads, not just a
flat wall clock.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
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


@constant_time(note="one None check + one histogram record when collecting")
def observe(name: str, value: float) -> None:
    """Record one sample into the named histogram if collecting."""
    if _ACTIVE is not None:
        _ACTIVE.histogram(name).record(value)


@constant_time(note="one None check; the returned recorder is one bucket add")
def delay_recorder(name: str) -> Callable[[float], None] | None:
    """The named histogram's ``record`` method, or None when not collecting.

    Hot loops hoist this lookup out of the loop: a None result means the
    loop can skip per-iteration clock reads entirely.
    """
    if _ACTIVE is None:
        return None
    return _ACTIVE.histogram(name).record


@contextmanager
def collect(ops: bool = True) -> Iterator[MetricsRegistry]:
    """Collect metrics from everything that runs inside the context.

    Parameters
    ----------
    ops:
        Also patch every contracted function (via the PR-1
        ``instrument()`` hook) so ``registry.op_counts`` maps qualified
        function names to call counts.  Patching costs one extra Python
        call per contracted call, so measurement runs that only need the
        explicit counters/histograms can pass ``ops=False``.

    Histograms keep bucket counts, never samples, so a registry's memory
    stays flat however long the context lives (``repro serve`` holds one
    for its lifetime).

    Contexts nest: the innermost registry receives the hooks, and the
    previous one is restored on exit.
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
