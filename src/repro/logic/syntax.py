"""Abstract syntax for FO and FO+ over colored graphs.

The schema is ``sigma_c = {E, C_1, ..., C_c}`` (Section 2): one symmetric
binary relation ``E`` and unary colors.  FO+ (Section 5) adds atoms
``dist(x, y) <= d`` for constants ``d``.

All nodes are immutable; formulas compare and hash structurally, so they
can key memoization tables in the engine.  Each node (and each
:class:`Var`) computes its hash once, on first use, and keeps it in a
slot that is not a dataclass field: a memo lookup keyed by a deep
formula then costs one slot read, not a walk over every node.  The
pickled state of a node is its fields only, because string hashes differ
per process; a loaded node hashes afresh where it is loaded.
Convenience operators::

    phi & psi     -> And(phi, psi)
    phi | psi     -> Or(phi, psi)
    ~phi          -> Not(phi)
    phi >> psi    -> Or(Not(phi), psi)   (implication)
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


class _HashOnce:
    """Declares the ``_hash`` slot that :func:`_hash_once` fills."""

    __slots__ = ("_hash",)


def _hash_once(cls):
    """Give a frozen dataclass the field hash it had, computed once.

    The value equals the generated ``hash(tuple(fields))``; it is cached
    in the ``_hash`` slot, which the dataclass pickle state (its fields)
    leaves out.
    """
    names = tuple(f.name for f in fields(cls))

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash(tuple([getattr(self, name) for name in names]))
            object.__setattr__(self, "_hash", value)
            return value

    cls.__hash__ = __hash__
    return cls


@_hash_once
@dataclass(frozen=True, slots=True)
class Var(_HashOnce):
    """A first-order variable, identified by name."""

    name: str

    def __repr__(self) -> str:
        return self.name


class Formula(_HashOnce):
    """Base class for all formula nodes."""

    __slots__ = ()

    def __and__(self, other: "Formula") -> "Formula":
        return And((self, other))

    def __or__(self, other: "Formula") -> "Formula":
        return Or((self, other))

    def __invert__(self) -> "Formula":
        return Not(self)

    def __rshift__(self, other: "Formula") -> "Formula":
        return Or((Not(self), other))


@_hash_once
@dataclass(frozen=True, slots=True, repr=False)
class Top(Formula):
    """The constant true."""

    def __repr__(self) -> str:
        return "true"


@_hash_once
@dataclass(frozen=True, slots=True, repr=False)
class Bottom(Formula):
    """The constant false."""

    def __repr__(self) -> str:
        return "false"


@_hash_once
@dataclass(frozen=True, slots=True, repr=False)
class EdgeAtom(Formula):
    """``E(x, y)`` — the (symmetric) edge relation."""

    left: Var
    right: Var

    def __repr__(self) -> str:
        return f"E({self.left}, {self.right})"


@_hash_once
@dataclass(frozen=True, slots=True, repr=False)
class ColorAtom(Formula):
    """``C(x)`` — vertex ``x`` carries color ``C``."""

    color: str
    var: Var

    def __repr__(self) -> str:
        return f"{self.color}({self.var})"


@_hash_once
@dataclass(frozen=True, slots=True, repr=False)
class EqAtom(Formula):
    """``x = y``."""

    left: Var
    right: Var

    def __repr__(self) -> str:
        return f"{self.left} = {self.right}"


@_hash_once
@dataclass(frozen=True, slots=True, repr=False)
class DistAtom(Formula):
    """``dist(x, y) <= bound`` — the FO+ distance atom (Section 5.1.2).

    ``dist(x, y) > d`` is expressed as ``Not(DistAtom(x, y, d))``.
    """

    left: Var
    right: Var
    bound: int

    def __post_init__(self) -> None:
        if self.bound < 0:
            raise ValueError(f"distance bound must be non-negative, got {self.bound}")

    def __repr__(self) -> str:
        return f"dist({self.left}, {self.right}) <= {self.bound}"


@_hash_once
@dataclass(frozen=True, slots=True, repr=False)
class Not(Formula):
    """Negation."""

    body: Formula

    def __repr__(self) -> str:
        return f"~({self.body})"


def _flatten(cls, parts):
    """Flatten nested And/Or for canonical n-ary connectives."""
    out = []
    for p in parts:
        if isinstance(p, cls):
            out.extend(p.parts)
        else:
            out.append(p)
    return tuple(out)


@_hash_once
@dataclass(frozen=True, slots=True, repr=False, init=False)
class And(Formula):
    """N-ary conjunction (flattened, order-preserving)."""

    parts: tuple[Formula, ...] = field()

    def __init__(self, parts) -> None:
        object.__setattr__(self, "parts", _flatten(And, parts))

    def __repr__(self) -> str:
        if not self.parts:
            return "true"
        return "(" + " & ".join(map(repr, self.parts)) + ")"


@_hash_once
@dataclass(frozen=True, slots=True, repr=False, init=False)
class Or(Formula):
    """N-ary disjunction (flattened, order-preserving)."""

    parts: tuple[Formula, ...] = field()

    def __init__(self, parts) -> None:
        object.__setattr__(self, "parts", _flatten(Or, parts))

    def __repr__(self) -> str:
        if not self.parts:
            return "false"
        return "(" + " | ".join(map(repr, self.parts)) + ")"


@_hash_once
@dataclass(frozen=True, slots=True, repr=False)
class Exists(Formula):
    """``exists var. body``."""

    var: Var
    body: Formula

    def __repr__(self) -> str:
        return f"(exists {self.var}. {self.body})"


@_hash_once
@dataclass(frozen=True, slots=True, repr=False)
class Forall(Formula):
    """``forall var. body``."""

    var: Var
    body: Formula

    def __repr__(self) -> str:
        return f"(forall {self.var}. {self.body})"


def conjunction(parts) -> Formula:
    """And of ``parts``, simplifying the empty and singleton cases."""
    parts = tuple(parts)
    if not parts:
        return Top()
    if len(parts) == 1:
        return parts[0]
    return And(parts)


def disjunction(parts) -> Formula:
    """Or of ``parts``, simplifying the empty and singleton cases."""
    parts = tuple(parts)
    if not parts:
        return Bottom()
    if len(parts) == 1:
        return parts[0]
    return Or(parts)
