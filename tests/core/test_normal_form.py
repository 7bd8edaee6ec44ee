"""Unit tests for the distance-type decomposition (Theorem 5.4 stand-in).

The key *semantic* test: for every distance type tau and every tuple of
that type, the decomposition's verdict (some alternative with its locals
evaluated on r-balls and its sentence evaluated globally) must agree with
direct evaluation of the query.
"""

import random
from itertools import combinations

import pytest

from repro.core.distance_types import type_mask
from repro.core.normal_form import (
    DecompositionError,
    cross_requirement,
    decompose,
    locality_radius,
    normalize,
    push_quantifiers,
    simplify,
    specialize_for_type,
)
from repro.graphs.generators import random_planar_like_graph
from repro.graphs.neighborhoods import bounded_bfs, distance, induced_subgraph
from repro.logic.parser import parse_formula
from repro.logic.semantics import evaluate
from repro.logic.syntax import Bottom, Top, Var
from repro.logic.transform import free_variables

x, y, z = Var("x"), Var("y"), Var("z")


class TestLocalityRadius:
    def test_atoms(self):
        assert locality_radius(parse_formula("E(x, y)"), frozenset({x, y})) == 1
        assert locality_radius(parse_formula("x = y"), frozenset({x, y})) == 0
        assert locality_radius(parse_formula("dist(x, y) <= 4"), frozenset({x, y})) == 4
        assert locality_radius(parse_formula("Red(x)"), frozenset({x})) == 0

    def test_guarded_exists(self):
        phi = normalize(parse_formula("exists z. E(x, z) & Blue(z)"))
        assert locality_radius(phi, frozenset({x})) == 1

    def test_guarded_chain(self):
        phi = normalize(parse_formula("exists z. E(x, z) & (exists w. E(z, w) & Red(w))"))
        assert locality_radius(phi, frozenset({x})) == 2

    def test_guarded_forall(self):
        phi = normalize(parse_formula("forall z. (E(x, z) -> Red(z))"))
        assert locality_radius(phi, frozenset({x})) == 1

    def test_unguarded_exists_is_rejected(self):
        phi = normalize(parse_formula("exists z. Blue(z)"))
        assert locality_radius(phi, frozenset({x})) is None

    def test_unguarded_forall_is_rejected(self):
        phi = normalize(parse_formula("forall z. Red(z)"))
        assert locality_radius(phi, frozenset()) is None


class TestPushQuantifiers:
    def test_miniscoping_exists(self):
        phi = normalize(parse_formula("exists z. (E(x, z) & Blue(y))"))
        # the z-free conjunct Blue(y) must be pulled out
        assert "Blue" not in repr(_innermost_exists_body(phi))

    def test_distributes_exists_over_or(self):
        phi = push_quantifiers(
            normalize(parse_formula("exists z. (E(x, z) | E(y, z))"))
        )
        from repro.logic.syntax import Or

        assert isinstance(phi, Or)

    def test_semantics_preserved(self):
        rng = random.Random(1)
        g = random_planar_like_graph(18, seed=2)
        for text in [
            "exists z. (E(x, z) & Blue(y))",
            "exists z. (E(x, z) | E(y, z))",
            "forall z. (E(x, z) -> (Red(z) & Blue(y)))",
        ]:
            phi = parse_formula(text)
            transformed = normalize(phi)
            for _ in range(40):
                env = {x: rng.randrange(g.n), y: rng.randrange(g.n)}
                assert evaluate(g, phi, env) == evaluate(g, transformed, env), text


def _innermost_exists_body(phi):
    from repro.logic.syntax import And, Exists, Or

    if isinstance(phi, Exists):
        return phi.body
    if isinstance(phi, (And, Or)):
        for p in phi.parts:
            found = _innermost_exists_body(p)
            if found is not None:
                return found
    return Top()


class TestSimplify:
    def test_constants_propagate(self):
        phi = parse_formula("Red(x) & false")
        assert simplify(phi) == Bottom()
        assert simplify(parse_formula("Red(x) | true")) == Top()

    def test_vacuous_quantifier_dropped(self):
        from repro.logic.syntax import Exists

        phi = Exists(z, parse_formula("Red(x)"))
        assert simplify(phi) == parse_formula("Red(x)")


class TestCrossRequirement:
    def test_atom_bounds(self):
        assert cross_requirement(parse_formula("dist(x, y) <= 3"), frozenset({x, y})) == 3
        assert cross_requirement(parse_formula("E(x, y)"), frozenset({x, y})) == 1

    def test_chain_adds_offsets(self):
        phi = normalize(parse_formula("exists z. E(x, z) & E(z, y)"))
        # z at offset 1 from x; atom E(z, y): 1 + 0 + 1 = 2
        assert cross_requirement(phi, frozenset({x, y})) == 2


class TestDecompose:
    def test_radius_covers_connections(self):
        d = decompose(parse_formula("exists z. E(x, z) & E(z, y)"), (x, y))
        assert d.radius >= 2

    def test_far_type_of_local_query_is_empty(self):
        d = decompose(parse_formula("E(x, y)"), (x, y))
        far = next(t for t in d.per_type if not t.edges)
        assert d.per_type[far] == ()

    def test_close_type_of_far_query_is_empty(self):
        d = decompose(parse_formula("dist(x, y) > 2"), (x, y))
        close = next(t for t in d.per_type if t.edges)
        assert d.per_type[close] == ()

    def test_undecomposable_raises(self):
        # an unguarded quantifier: exists z far from everything
        with pytest.raises(DecompositionError):
            decompose(parse_formula("exists z. Blue(z) & dist(z, x) > 2"), (x,))

    def test_semantic_agreement_with_direct_evaluation(self):
        rng = random.Random(9)
        for text in [
            "E(x, y)",
            "dist(x, y) > 2 & Blue(y)",
            "exists z. E(x, z) & E(z, y)",
            "forall z. (E(x, z) -> dist(z, y) <= 2)",
            "(Red(x) & E(x, y)) | (Blue(x) & dist(x, y) > 1)",
        ]:
            phi = parse_formula(text)
            order = tuple(sorted(free_variables(phi), key=lambda v: v.name))
            d = decompose(phi, order)
            g = random_planar_like_graph(30, seed=13)
            for _ in range(120):
                values = tuple(rng.randrange(g.n) for _ in order)
                mask = type_mask(
                    values, lambda a, b: distance(g, a, b, cutoff=d.radius) <= d.radius
                )
                tau = next(
                    t for t in d.per_type
                    if type_mask(range(len(values)), t.has_edge) == mask
                )
                verdict = _decomposition_verdict(g, d, tau, values)
                assert verdict == evaluate(g, phi, dict(zip(order, values))), (
                    text,
                    values,
                    tau,
                )


def _decomposition_verdict(g, d, tau, values):
    """Evaluate via the decomposition: locals on r-balls, sentences globally."""
    for alt in d.per_type[tau]:
        if not evaluate(g, alt.sentence, {}):
            continue
        ok = True
        for positions, psi in alt.locals:
            anchors = [values[i] for i in sorted(positions)]
            ball = bounded_bfs(g, anchors, len(values) * d.radius)
            sub = induced_subgraph(g, ball)
            env = {d.free_order[i]: values[i] for i in sorted(positions)}
            if not evaluate(sub, psi, env):
                ok = False
                break
        if ok:
            return True
    return False
