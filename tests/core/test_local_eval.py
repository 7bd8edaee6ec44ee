"""Unit tests for the memoized bag-local evaluator."""

from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bag_solver import BagSolver
from repro.core.local_eval import LocalEvaluator
from repro.graphs.generators import FAMILIES, path, random_planar_like_graph
from repro.logic.parser import parse_formula
from repro.logic.semantics import evaluate
from repro.logic.syntax import Var

x, y = Var("x"), Var("y")


def test_test_matches_semantics():
    g = random_planar_like_graph(20, seed=1)
    ev = LocalEvaluator(g)
    phi = parse_formula("exists z. E(x, z) & E(z, y)")
    for a in range(0, g.n, 3):
        for b in range(0, g.n, 4):
            expected = evaluate(g, phi, {x: a, y: b})
            assert ev.test(phi, (x, y), (a, b)) == expected


def test_column_is_sorted_and_complete():
    g = path(10, palette=())
    ev = LocalEvaluator(g)
    phi = parse_formula("E(x, y)")
    col = ev.column(phi, (x,), (4,), y)
    assert col == [3, 5]


def test_first_at_least():
    g = path(10, palette=())
    ev = LocalEvaluator(g)
    phi = parse_formula("E(x, y)")
    col = ev.column(phi, (x,), (4,), y)

    def first_at_least(lower):
        index = bisect_left(col, lower)
        return col[index] if index < len(col) else None

    assert first_at_least(0) == 3
    assert first_at_least(4) == 5
    assert first_at_least(6) is None


def test_memoization_returns_same_object():
    g = path(6, palette=())
    ev = LocalEvaluator(g)
    phi = parse_formula("E(x, y)")
    first = ev.column(phi, (x,), (2,), y)
    second = ev.column(phi, (x,), (2,), y)
    assert first is second


# ----------------------------------------------------------------------
# guarded columns against the full scan

w = Var("w")


def _full_scan(graph, phi, prefix_order, prefix_values, last_var):
    """Oracle: test every vertex of the graph as the last coordinate."""
    assignment = dict(zip(prefix_order, prefix_values))
    out = []
    for b in graph.vertices():
        assignment[last_var] = b
        if evaluate(graph, phi, assignment):
            out.append(b)
    return out


#: (formula, certified bound of its guard for y from the prefix (w, x))
GUARDED = [
    ("E(x, y)", 1),
    ("Red(y) & E(x, y)", 1),
    ("dist(x, y) <= 2 & Blue(y)", 2),
    ("E(w, y) & dist(x, y) <= 3", 1),
    ("x = y & Blue(y)", 0),
    ("dist(x, y) <= 0", 0),
    ("exists z. E(x, z) & E(z, y)", 2),
    ("Red(y) & exists z. exists t. (E(x, z) & E(z, t) & dist(t, y) <= 1)", 3),
    ("dist(x, y) <= 3 & ~(dist(w, y) <= 1) & Blue(y)", 3),
]

#: Guards only under negation or disjunction certify nothing.
UNGUARDED = [
    "~(dist(x, y) > 2)",
    "E(x, y) | Red(y)",
    "dist(x, y) > 2 & Blue(y)",
    "forall z. (E(x, z) -> E(z, y))",
    "exists z. (E(x, z) | E(z, y))",
    "Red(x) & Blue(y)",
]


@pytest.mark.parametrize("text, bound", GUARDED)
def test_guard_is_resolved(text, bound):
    ev = LocalEvaluator(path(5, palette=()))
    _, _, guard = ev._plan(parse_formula(text), (w, x), y)
    assert guard is not None and guard[1] == bound


@pytest.mark.parametrize("text", UNGUARDED)
def test_unguarded_residue_falls_back_to_full_scan(text):
    ev = LocalEvaluator(path(5, palette=()))
    _, _, guard = ev._plan(parse_formula(text), (w, x), y)
    assert guard is None


@given(
    family=st.sampled_from(sorted(FAMILIES)),
    n=st.integers(3, 40),
    seed=st.integers(0, 50),
    text=st.sampled_from([t for t, _ in GUARDED] + UNGUARDED),
    prefixes=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), min_size=1, max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_guarded_column_equals_full_scan(family, n, seed, text, prefixes):
    graph = FAMILIES[family](n, seed=seed)
    phi = parse_formula(text)
    ev = LocalEvaluator(graph)
    for a, c in prefixes:
        values = (a % graph.n, c % graph.n)
        assert ev.column(phi, (w, x), values, y) == _full_scan(graph, phi, (w, x), values, y)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "text", ["exists z. E(x, z) & E(z, y)", "dist(x, y) <= 2 & Blue(y)", "E(x, y)"]
)
def test_removal_rewritten_columns_equal_full_scan(monkeypatch, seed, text):
    """A splitter-mode bag solver asks its naive leaf for columns of
    Removal-Lemma rewrites (recolored, guards possibly pushed under ∨);
    each must be the full scan's on the leaf's graph."""
    graph = random_planar_like_graph(36, seed=seed)
    calls = []
    column = LocalEvaluator.column

    def recording_column(self, phi, prefix_order, prefix_values, last_var):
        out = column(self, phi, prefix_order, prefix_values, last_var)
        calls.append((self.graph, phi, prefix_order, prefix_values, last_var, out))
        return out

    monkeypatch.setattr(LocalEvaluator, "column", recording_column)
    phi = parse_formula(text)
    solver = BagSolver(graph, max_bound=2, naive_threshold=6)
    assert solver.mode == "splitter"
    for a in range(0, graph.n, 3):
        solver.column(phi, (x,), (a,), y)
    assert any(called_phi != phi for _, called_phi, *_ in calls)
    for leaf, called_phi, order, values, last, out in calls:
        assert out == _full_scan(leaf, called_phi, order, values, last)


def test_sparse_build_tests_only_guard_ball_candidates(monkeypatch):
    """Count guard: building the sparse query on a grid tests, per prefix,
    at most the 13 vertices of a radius-2 grid ball, not the whole bag."""
    import repro.core.local_eval as local_eval
    from repro.core.engine import open_index
    from repro.graphs.generators import grid

    tested: list[tuple[int, int]] = []  # (bag size, candidates tested)
    current: list[set[int]] = []
    column = LocalEvaluator.column

    def counting_column(self, phi, prefix_order, prefix_values, last_var):
        current.append(set())
        try:
            return column(self, phi, prefix_order, prefix_values, last_var)
        finally:
            tested.append((self.graph.n, len(current.pop())))

    def counting_evaluate(graph, phi, assignment, dist_cache=None):
        if current and len(assignment) > 1:
            current[-1].add(assignment[y])
        return evaluate(graph, phi, assignment, dist_cache)

    monkeypatch.setattr(LocalEvaluator, "column", counting_column)
    monkeypatch.setattr(local_eval, "evaluate", counting_evaluate)
    open_index(grid(20, 20), "exists z. E(x, z) & E(z, y)")
    assert sum(count for _, count in tested) > 0
    assert max(size for size, _ in tested) > 13
    assert max(count for _, count in tested) <= 13


def test_plans_stay_out_of_pickles():
    """Plans are derived state: snapshots carry the same slot state as an
    evaluator without plans, and a loaded evaluator rebuilds them."""
    import pickle

    g = random_planar_like_graph(20, seed=2)
    phi = parse_formula("exists z. E(x, z) & E(z, y)")
    ev = LocalEvaluator(g)
    column = ev.column(phi, (x,), (3,), y)
    _, slots = ev.__getstate__()
    assert "_plan_cache" not in slots and "_column_cache" in slots
    clone = pickle.loads(pickle.dumps(ev))
    assert clone.column(phi, (x,), (3,), y) == column
    assert clone.column(phi, (x,), (5,), y) == _full_scan(g, phi, (x,), (5,), y)
