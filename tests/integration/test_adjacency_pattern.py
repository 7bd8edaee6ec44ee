"""Integration: deep-guarded adjacency-graph patterns stay indexed.

The Lemma 2.2 rewriting produces blocks guarded only through *nested*
existential chains (element - position - tuple vertices).  These tests
pin down that the decomposer's connection analysis handles them and the
engine answers exactly.
"""

import random

from repro.baselines.naive import NaiveIndex
from repro.core.engine import build_index
from repro.core.normal_form import decompose
from repro.db.adjacency import adjacency_graph
from repro.db.database import Database, Schema
from repro.db.rewrite import RelationAtom, rewrite_query
from repro.logic.syntax import And, EqAtom, Exists, Not, Var

x, y, z = Var("x"), Var("y"), Var("z")


def network(people=24, seed=2):
    rng = random.Random(seed)
    db = Database(Schema({"Friend": 2}), domain_size=people)
    for p in range(1, people):
        buddy = rng.randrange(max(0, p - 3), p)
        db.add("Friend", (p, buddy))
        db.add("Friend", (buddy, p))
    return db


def friend_of_friend():
    return And(
        (
            Exists(
                z,
                And(
                    (
                        RelationAtom("Friend", (x, z)),
                        RelationAtom("Friend", (z, y)),
                    )
                ),
            ),
            Not(RelationAtom("Friend", (x, y))),
            Not(EqAtom(x, y)),
        )
    )


def test_fof_query_decomposes():
    psi = rewrite_query(friend_of_friend())
    decomposition = decompose(psi, (x, y))
    # two Friend hops = graph distance 8 in A'(D)
    assert decomposition.radius == 8


def test_fof_query_indexed_and_exact():
    db = network()
    enc = adjacency_graph(db)
    psi = rewrite_query(friend_of_friend())
    index = build_index(enc.graph, psi, free_order=(x, y))
    assert index.method == "indexed"
    naive = NaiveIndex(enc.graph, psi, (x, y))
    assert list(index.enumerate()) == naive.solutions
    # sanity: suggestions are exactly distance-8 non-friend distinct pairs
    friends = db.relation("Friend")
    for a, b in naive.solutions:
        assert a != b and (a, b) not in friends


def test_friend_count_matches_database():
    """Experiment E11 end to end: |Friend(x, y)| over A'(D) equals |Friend|."""
    rng = random.Random(0)
    people = 12
    db = Database(Schema({"Friend": 2, "Likes": 2}), domain_size=people)
    for p in range(1, people):
        buddy = rng.randrange(max(0, p - 5), p)
        db.add("Friend", (p, buddy))
        db.add("Friend", (buddy, p))
    for _ in range(people):
        a, b = rng.randrange(people), rng.randrange(people)
        if a != b:
            db.add("Likes", (a, b))
    enc = adjacency_graph(db)
    psi = rewrite_query(RelationAtom("Friend", (x, y)))
    index = build_index(enc.graph, psi, free_order=(x, y))
    assert index.method == "indexed"
    assert index.count() == len(db.relation("Friend"))


def test_negated_relation_alone():
    db = network(people=12)
    enc = adjacency_graph(db)
    psi = rewrite_query(Not(RelationAtom("Friend", (x, y))))
    index = build_index(enc.graph, psi, free_order=(x, y))
    naive = NaiveIndex(enc.graph, psi, (x, y))
    assert list(index.enumerate()) == naive.solutions
    assert index.method == "indexed"
