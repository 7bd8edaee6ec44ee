"""Property test: random guarded formulas, engine vs brute force.

A hypothesis strategy generates formulas inside the guarded fragment
(atoms over two free variables, Boolean combinations, guarded ∃/∀), so
``open_index`` should almost always choose the indexed path — and must
*always* agree with the naive baseline either way.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive import NaiveIndex
from repro.core.config import EngineConfig
from repro.core.engine import open_index
from repro.graphs.colored_graph import ColoredGraph
from repro.logic.syntax import (
    And,
    ColorAtom,
    DistAtom,
    EdgeAtom,
    EqAtom,
    Exists,
    Forall,
    Not,
    Or,
    Var,
)

x, y, z = Var("x"), Var("y"), Var("z")
TINY = EngineConfig(dist_naive_threshold=10, bag_naive_threshold=8)


def atoms(u: Var, v: Var):
    return st.sampled_from(
        [
            EdgeAtom(u, v),
            DistAtom(u, v, 1),
            DistAtom(u, v, 2),
            EqAtom(u, v),
            ColorAtom("Red", u),
            ColorAtom("Blue", v),
        ]
    )


def literals(u: Var, v: Var):
    return atoms(u, v).flatmap(lambda a: st.sampled_from([a, Not(a)]))


def guarded_quantified(u: Var):
    """∃z (guard(u, z) ∧ α(z)) or ∀z (¬guard(u, z) ∨ α(z))."""
    guard = st.sampled_from([EdgeAtom(u, z), DistAtom(u, z, 2)])
    payload = st.sampled_from(
        [ColorAtom("Red", z), ColorAtom("Blue", z), Not(ColorAtom("Red", z))]
    )

    def build(pair):
        g, p = pair
        return st.sampled_from(
            [Exists(z, And((g, p))), Forall(z, Or((Not(g), p)))]
        )

    return st.tuples(guard, payload).flatmap(build)


def formulas():
    base = st.one_of(literals(x, y), guarded_quantified(x), guarded_quantified(y))

    def combine(children):
        return st.one_of(
            st.builds(lambda a, b: And((a, b)), children, children),
            st.builds(lambda a, b: Or((a, b)), children, children),
            st.builds(Not, children),
        )

    return st.recursive(base, combine, max_leaves=5)


@st.composite
def sparse_graph(draw):
    n = draw(st.integers(2, 28))
    rng = random.Random(draw(st.integers(0, 9999)))
    g = ColoredGraph(n)
    for v in range(1, n):
        if rng.random() < 0.85:
            g.add_edge(rng.randrange(v), v)
    for name in ("Red", "Blue"):
        g.set_color(name, [v for v in range(n) if rng.random() < 0.4])
    return g


@given(sparse_graph(), formulas(), st.integers(0, 999))
@settings(max_examples=60, deadline=None)
def test_random_guarded_formulas(g, phi, probe_seed):
    from repro.logic.transform import free_variables

    order = tuple(sorted(free_variables(phi), key=lambda v: v.name))
    index = open_index(g, phi, free_order=order, config=TINY)
    naive = NaiveIndex(g, phi, order)
    assert list(index.enumerate()) == naive.solutions
    rng = random.Random(probe_seed)
    for _ in range(6):
        t = tuple(rng.randrange(g.n) for _ in order)
        assert index.test(t) == naive.test(t), (t, index.method)
        assert index.next_solution(t) == naive.next_solution(t), (t, index.method)
