"""Unit tests for the guard/connection analysis."""

from repro.logic.guards import (
    deep_counterexample_guard,
    deep_guard,
    implied_connection,
)
from repro.logic.parser import parse_formula
from repro.logic.syntax import Var
from repro.logic.transform import negation_normal_form, standardize_apart

x, y, z, t = Var("x"), Var("y"), Var("z"), Var("t")


def nnf(text):
    return standardize_apart(negation_normal_form(parse_formula(text)))


def test_direct_edge_connection():
    phi = parse_formula("E(x, y)")
    assert implied_connection(phi, x, y) == 1
    assert implied_connection(phi, y, x) == 1


def test_chain_through_existential():
    phi = nnf("exists z. E(x, z) & E(z, y)")
    assert implied_connection(phi, x, y) == 2


def test_dist_atoms_weighted():
    phi = nnf("dist(x, z) <= 3 & dist(z, y) <= 2")
    assert implied_connection(phi, x, y) == 5


def test_equality_is_zero_weight():
    phi = nnf("x = z & E(z, y)")
    assert implied_connection(phi, x, y) == 1


def test_disjunction_contributes_nothing():
    phi = nnf("E(x, z) | E(z, y)")
    assert implied_connection(phi, x, y) is None


def test_unconnected_returns_none():
    phi = nnf("Red(x) & Blue(y)")
    assert implied_connection(phi, x, y) is None


def test_same_variable_is_zero():
    assert implied_connection(parse_formula("Red(x)"), x, x) == 0


def test_deep_guard_through_nested_existentials():
    # the adjacency-graph pattern: z tied to x through two nested levels
    phi = nnf("exists t. P(t) & (exists w. C(w) & E(x, w) & E(w, t)) & E(z, t)")
    guard = deep_guard(phi, z, {x: 0})
    assert guard == (x, 3)  # z - t - w - x


def test_deep_guard_picks_cheapest_anchor():
    phi = nnf("E(z, x) & dist(z, y) <= 5")
    assert deep_guard(phi, z, {x: 0, y: 0}) == (x, 1)
    assert deep_guard(phi, z, {y: 0}) == (y, 5)
    # anchored offsets shift the totals
    assert deep_guard(phi, z, {x: 2, y: 0}) == (x, 3)


def test_deep_guard_none_when_unguarded():
    phi = nnf("Blue(z)")
    assert deep_guard(phi, z, {x: 0}) is None


def test_counterexample_guard_through_negated_disjunct():
    # forall t (~P(t) | forall w (~C(w) | ~E(x,w) | ~E(w,t)))
    # a counterexample t satisfies P(t) AND exists w (C & E(x,w) & E(w,t))
    phi = nnf("forall t. (P(t) -> forall w. (C(w) -> (E(x, w) -> ~E(w, t))))")
    body = phi.body
    guard = deep_counterexample_guard(body, t, {x: 0})
    assert guard == (x, 2)


def test_counterexample_guard_simple_negated_atom():
    phi = nnf("forall z. (~E(x, z) | Red(z))")
    assert deep_counterexample_guard(phi.body, z, {x: 0}) == (x, 1)


def test_counterexample_guard_none_for_unbounded():
    phi = nnf("forall z. (Red(z) | Blue(z))")
    assert deep_counterexample_guard(phi.body, z, {x: 0}) is None


def test_connection_cache_is_bounded_and_hit():
    assert implied_connection.cache_info().maxsize is not None
    phi = parse_formula("E(x, z) & E(z, y)")
    assert implied_connection(phi, x, y) == 2
    hits = implied_connection.cache_info().hits
    assert implied_connection(phi, x, y) == 2
    assert implied_connection.cache_info().hits == hits + 1


def test_connection_cache_under_concurrent_readers():
    """Threads filling the cache at once all get the certified bounds."""
    import sys
    import threading

    formulas = [parse_formula(f"dist(x, z) <= {b} & E(z, y)") for b in range(1, 41)]
    expected = [b + 1 for b in range(1, 41)]
    results: list[list[int | None]] = []
    lock = threading.Lock()

    def worker() -> None:
        got = [implied_connection(phi, x, y) for phi in formulas]
        with lock:
            results.append(got)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 8
    info = implied_connection.cache_info()
    assert info.currsize <= info.maxsize
