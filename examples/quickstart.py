"""Quickstart: build an index once, then answer in constant time.

This walks the three interfaces of the paper on a small planar-like
graph:

* Theorem 2.3  — ``next_solution``: smallest solution >= a given tuple;
* Corollary 2.4 — ``test``: constant-time membership;
* Corollary 2.5 — ``enumerate``: constant-delay, lexicographic.

Run:  python examples/quickstart.py
"""

from repro import open_index
from repro.graphs import random_planar_like_graph


def main() -> None:
    graph = random_planar_like_graph(400, seed=7)
    print(f"graph: {graph}")

    # Example 2 from the paper: blue vertices far from x.
    query = "dist(x, y) > 2 & Blue(y)"
    index = open_index(graph, query)
    print(f"query: {query}")
    print(
        f"preprocessing: {index.preprocessing_seconds * 1000:.1f} ms "
        f"(method={index.method})"
    )

    # Corollary 2.4: test arbitrary tuples.
    for probe in [(0, 1), (0, 200), (5, 300)]:
        print(f"  test{probe} = {index.test(probe)}")

    # Theorem 2.3: smallest solution >= a given tuple.
    print(f"  next_solution((10, 0)) = {index.next_solution((10, 0))}")

    # Corollary 2.5: constant-delay enumeration (take the first few).
    print("  first solutions:")
    for i, solution in enumerate(index.enumerate()):
        print(f"    {solution}")
        if i >= 4:
            break
    print(f"  total solutions: {index.count()}")


if __name__ == "__main__":
    main()
