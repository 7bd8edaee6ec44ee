"""Concurrency & immutability effect decorators plus the runtime tripwire.

The serving layer hands one built ``QueryIndex`` to N concurrent HTTP
workers on a lock-free read path.  That is only sound if the index tower
is genuinely *frozen after build*: every post-build code path either
reads, or confines its writes to declared, lock-guarded memo cells.
This module provides the vocabulary that states the discipline in code:

========================  ====================================================
decorator                 meaning
========================  ====================================================
``@frozen_after_build``   class decorator: instances are immutable once
                          ``__init__`` (and any ``@builds`` method) returns,
                          except for the declared ``cells`` — lazily filled
                          memo attributes, each tied to the lock that guards
                          its fill
``@read_only``            method decorator: may not write ``self`` or any
                          reachable frozen state (cell fills under the
                          declared lock excepted)
``@builds``               method decorator: runs in the build phase and may
                          mutate freely (``__init__`` is implicitly
                          ``@builds``)
``@guarded_by(lock, *f)`` class decorator: the named fields may only be
                          *written* inside ``with self.<lock>:`` (lock-free
                          reads stay legal — that is the point of the
                          double-checked patterns in serve/metrics)
``@locked(lock)``         method decorator: callers must already hold
                          ``self.<lock>`` (the method itself does not take it)
========================  ====================================================

Like the complexity decorators, all of these attach metadata and return
the function/class **unchanged** — zero overhead on the hot path.  The
static checker (:mod:`repro.contracts.concurrency`) reads the same
annotations from the AST, so un-imported code is checked identically.

Runtime teeth: :func:`freeze` (or :func:`install_freeze`, used by
``repro serve --paranoid`` and the contracts test suite) installs a
cheap ``__setattr__`` tripwire on every ``@frozen_after_build`` class.
Attribute assignment outside a build phase — outside ``__init__``, a
``@builds`` method, or an explicit :func:`build_phase` block — raises
:class:`FrozenMutationError`.  Declared cells are exempt (their fills
are checked statically against the declared lock).  The build phase is
tracked per-thread, so index builds on concurrent serving threads keep
working: the mutating frame itself carries the depth.
"""

from __future__ import annotations

import functools
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, TypeVar

READ_ONLY = "read_only"
BUILDS = "builds"

_C = TypeVar("_C", bound=type)


class FrozenMutationError(RuntimeError):
    """A frozen instance was mutated outside a build phase (tripwire hit)."""


@dataclass(frozen=True)
class Effect:
    """One method's declared concurrency effect (``read_only``/``builds``)."""

    kind: str
    note: str | None = None


@dataclass(frozen=True)
class FrozenSpec:
    """A ``@frozen_after_build`` class's declared mutable remainder.

    ``cells`` maps each lazily-filled memo attribute to the name of the
    lock that must be held while filling it.
    """

    cells: tuple[tuple[str, str], ...] = ()
    note: str | None = None

    @property
    def cell_names(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.cells)


@dataclass(frozen=True)
class GuardedSpec:
    """A ``@guarded_by`` class's lock-discipline declaration."""

    lock: str
    fields: tuple[str, ...]


#: Classes registered by ``@frozen_after_build``, in decoration order.
_FROZEN_REGISTRY: list[type] = []


def _attach_effect(fn: Callable, effect: Effect) -> Callable:
    fn.__effect__ = effect  # type: ignore[attr-defined]
    return fn


def read_only(
    fn: Callable | None = None, *, note: str | None = None
) -> Callable:
    """Declare that a method reads (never writes) reachable index state."""
    effect = Effect(READ_ONLY, note)
    if fn is None:
        return lambda f: _attach_effect(f, effect)
    return _attach_effect(fn, effect)


def builds(fn: Callable | None = None, *, note: str | None = None) -> Callable:
    """Declare that a method belongs to the build phase and may mutate."""
    effect = Effect(BUILDS, note)
    if fn is None:
        return lambda f: _attach_effect(f, effect)
    return _attach_effect(fn, effect)


def frozen_after_build(
    cls: _C | None = None,
    *,
    cells: dict[str, str] | None = None,
    note: str | None = None,
) -> Any:
    """Declare a class immutable once built, modulo the named memo cells."""
    spec = FrozenSpec(
        cells=tuple(sorted((cells or {}).items())),
        note=note,
    )

    def decorate(target: _C) -> _C:
        target.__frozen_spec__ = spec  # type: ignore[attr-defined]
        _FROZEN_REGISTRY.append(target)
        return target

    if cls is None:
        return decorate
    return decorate(cls)


def guarded_by(lock: str, *fields: str) -> Callable[[_C], _C]:
    """Declare fields writable only inside ``with self.<lock>:``."""
    spec = GuardedSpec(lock=lock, fields=tuple(fields))

    def decorate(target: _C) -> _C:
        target.__guarded_spec__ = spec  # type: ignore[attr-defined]
        return target

    return decorate


def locked(lock: str) -> Callable[[Callable], Callable]:
    """Declare that callers of this method must already hold ``self.<lock>``."""

    def decorate(fn: Callable) -> Callable:
        fn.__locked__ = lock  # type: ignore[attr-defined]
        return fn

    return decorate


def effect_of(obj: Any) -> Effect | None:
    """The :class:`Effect` attached to ``obj``, if any."""
    return getattr(obj, "__effect__", None)


def frozen_spec_of(cls: type) -> FrozenSpec | None:
    """The :class:`FrozenSpec` attached to ``cls`` itself (not inherited)."""
    return cls.__dict__.get("__frozen_spec__")


def frozen_classes() -> list[type]:
    """All ``@frozen_after_build`` classes, in decoration order."""
    return list(_FROZEN_REGISTRY)


# ----------------------------------------------------------------------
# runtime tripwire
# ----------------------------------------------------------------------
_STATE = threading.local()


def _depth() -> int:
    return getattr(_STATE, "depth", 0)


def in_build_phase() -> bool:
    """Is the current thread inside a build frame (or ``build_phase()``)?"""
    return _depth() > 0


@contextmanager
def build_phase() -> Iterator[None]:
    """Mark a block as build-phase code (e.g. unpickling a snapshot).

    Slotted classes restore their state through ``__setattr__`` when
    unpickled, which would trip the freeze guard; ``load_index`` wraps
    the ``pickle.loads`` call in this context.
    """
    _STATE.depth = _depth() + 1
    try:
        yield
    finally:
        _STATE.depth -= 1


def _depth_wrapper(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        _STATE.depth = _depth() + 1
        try:
            return fn(*args, **kwargs)
        finally:
            _STATE.depth -= 1

    wrapper.__frozen_build_wrapper__ = True  # type: ignore[attr-defined]
    return wrapper


def _make_guard(cls: type, allowed: frozenset[str]) -> Callable:
    original = cls.__dict__.get("__setattr__")
    base = original if original is not None else object.__setattr__

    def __setattr__(self: Any, name: str, value: Any) -> None:
        if _depth() == 0 and name not in allowed:
            raise FrozenMutationError(
                f"attribute {name!r} of frozen {type(self).__name__} "
                f"assigned outside a build phase (paranoid mode is on; "
                f"wrap build-time mutation in a @builds method or "
                f"contracts.build_phase())"
            )
        base(self, name, value)

    return __setattr__


_MISSING = object()
_install_count = 0
_patches: list[tuple[type, str, Any]] = []


def freeze_active() -> bool:
    """Is the runtime tripwire currently installed?"""
    return _install_count > 0


def install_freeze() -> None:
    """Install the ``__setattr__`` tripwire on every frozen class.

    Re-entrant (reference counted): nested installs are no-ops until the
    matching number of :func:`uninstall_freeze` calls.  ``@builds``
    methods and ``__init__`` are wrapped to bump the per-thread build
    depth, so legitimate construction keeps working while the guard is
    live — including constructors running on concurrent serving
    threads.
    """
    global _install_count
    _install_count += 1
    if _install_count > 1:
        return
    for cls in list(_FROZEN_REGISTRY):
        _patch_class(cls)


def _patch_class(cls: type) -> None:
    spec = frozen_spec_of(cls) or FrozenSpec()
    for name, attr in list(cls.__dict__.items()):
        underlying = (
            attr.__func__ if isinstance(attr, (staticmethod, classmethod)) else attr
        )
        if not callable(underlying):
            continue
        effect = getattr(underlying, "__effect__", None)
        is_build = name in ("__init__", "__post_init__") or (
            effect is not None and effect.kind == BUILDS
        )
        if not is_build:
            continue
        wrapped: Any = _depth_wrapper(underlying)
        if isinstance(attr, staticmethod):
            wrapped = staticmethod(wrapped)
        elif isinstance(attr, classmethod):
            wrapped = classmethod(wrapped)
        setattr(cls, name, wrapped)
        _patches.append((cls, name, attr))
    guard = _make_guard(cls, spec.cell_names)
    original = cls.__dict__.get("__setattr__", _MISSING)
    setattr(cls, "__setattr__", guard)
    _patches.append((cls, "__setattr__", original))


def uninstall_freeze() -> None:
    """Remove the tripwire (when the last reference is released)."""
    global _install_count
    if _install_count == 0:
        return
    _install_count -= 1
    if _install_count > 0:
        return
    for cls, name, original in reversed(_patches):
        if original is _MISSING:
            if name in cls.__dict__:
                delattr(cls, name)
        else:
            setattr(cls, name, original)
    _patches.clear()


@contextmanager
def freeze() -> Iterator[None]:
    """Scope the runtime tripwire to a block (tests use this)."""
    install_freeze()
    try:
        yield
    finally:
        uninstall_freeze()
