"""Social network example: relational databases through Lemma 2.2.

A database with ``Friend`` and ``Follows`` relations over people is
reduced to its colored adjacency graph ``A'(D)``; relational FO queries
are rewritten to colored-graph queries and served by the paper's index.

Scenario: a moderation team wants, for any given user, to *stream*
(constant delay) the users two friendship hops away — the classic
"friend of a friend" suggestion — without materializing the full O(n^2)
suggestion table.

Run:  python examples/social_network.py
"""

import random

from repro import open_index
from repro.core.config import EngineConfig
from repro.db import Database, Schema, adjacency_graph, rewrite_query
from repro.db.rewrite import RelationAtom
from repro.logic.syntax import And, Exists, Not, EqAtom, Var


def build_network(people: int = 40, seed: int = 4) -> Database:
    """A sparse friendship network: local communities, no global hubs.

    Friendships connect nearby ids only, so the network has bounded
    expansion — the regime where the paper's locality machinery shines.
    """
    rng = random.Random(seed)
    db = Database(Schema({"Friend": 2, "Follows": 2}), domain_size=people)
    for p in range(1, people):
        buddy = rng.randrange(max(0, p - 3), p)
        db.add("Friend", (p, buddy))
        db.add("Friend", (buddy, p))
    # follows are local too: long-range random links would act as
    # small-world shortcuts, blowing up every r-ball — the graph would
    # still be *sparse*, but not *locally* sparse, and the locality
    # machinery (rightly) degrades.  Keeping links local keeps the class
    # bounded-expansion-like.
    for _ in range(people // 2):
        a = rng.randrange(people)
        b = rng.randrange(max(0, a - 4), min(people, a + 4))
        if a != b:
            db.add("Follows", (a, b))
    return db


def main() -> None:
    db = build_network()
    print(f"database: {db}")

    encoding = adjacency_graph(db)
    print(f"adjacency graph A'(D): {encoding.graph}")

    x, y, z = Var("x"), Var("y"), Var("z")
    # friend-of-a-friend who is not already a friend and not x itself
    suggestion = And(
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
    rewritten = rewrite_query(suggestion)
    # A'(D) multiplies distances by 4, so bags are sizeable relative to a
    # small demo database; solving them by the memoized naive evaluator
    # (larger Step-1 cutoff) is the fast configuration here.
    config = EngineConfig(bag_naive_threshold=600)
    index = open_index(encoding.graph, rewritten, free_order=(x, y), config=config)
    print(
        f"index built in {index.preprocessing_seconds * 1000:.1f} ms "
        f"(method={index.method})"
    )

    user = 25
    print(f"suggestions for user {user} (streamed, constant delay):")
    suggestion_count = 0
    cursor = index.next_solution((user, 0))
    while cursor is not None and cursor[0] == user:
        print(f"  suggest user {cursor[1]}")
        suggestion_count += 1
        if suggestion_count >= 8:
            print("  ... (stopping the stream early — that is the point!)")
            break
        cursor = index.next_solution((cursor[0], cursor[1] + 1))

    # constant-time membership: is 3 a suggestion for 42?
    print(f"test ({user}, 3): {index.test((user, 3))}")


if __name__ == "__main__":
    main()
