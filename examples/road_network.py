"""Road network example: distance queries on a planar grid.

City blocks form a grid (planar => nowhere dense).  Some intersections
host a hospital, some a school.  The planning office wants:

1. constant-time answers to "are these two intersections within r
   blocks?" (Proposition 4.2);
2. a constant-delay stream of pairs (school, hospital) that are *not*
   within 3 blocks of each other — candidate locations for a new clinic
   shuttle line (the paper's far-pair queries).

Run:  python examples/road_network.py
"""

import random
import time

from repro import open_index
from repro.core import DistanceIndex
from repro.graphs import grid


def main() -> None:
    rows = cols = 30
    city = grid(rows, cols, palette=())
    rng = random.Random(1)
    schools = [v for v in city.vertices() if rng.random() < 0.05]
    hospitals = [v for v in city.vertices() if rng.random() < 0.04]
    city.set_color("School", schools)
    city.set_color("Hospital", hospitals)
    print(f"city: {rows}x{cols} grid, {len(schools)} schools, {len(hospitals)} hospitals")

    # --- Proposition 4.2: the distance index -------------------------------
    tick = time.perf_counter()
    dist_index = DistanceIndex(city, radius=4)
    built = time.perf_counter() - tick
    print(f"distance index (r=4) built in {built * 1000:.1f} ms")
    for a, b in [(0, 4), (0, 5 * cols), (10, 10 + 3 * cols)]:
        print(f"  within 4 blocks({a}, {b}) = {dist_index.test(a, b)}")

    # --- far school/hospital pairs ------------------------------------------
    query = "School(x) & Hospital(y) & dist(x, y) > 3"
    index = open_index(city, query)
    print(f"query: {query}  (method={index.method})")
    pairs = list(index.enumerate())
    print(f"  {len(pairs)} far school/hospital pairs; first five:")
    for pair in pairs[:5]:
        sx, sy = divmod(pair[0], cols)
        hx, hy = divmod(pair[1], cols)
        print(f"    school at block ({sx},{sy})  <->  hospital at ({hx},{hy})")

    # --- underserved schools: no hospital within 3 blocks -------------------
    underserved = open_index(
        city, "School(x) & forall y. (Hospital(y) -> dist(x, y) > 3)"
    )
    lonely = [v for (v,) in underserved.enumerate()]
    print(f"  {len(lonely)} schools with no hospital within 3 blocks")


if __name__ == "__main__":
    main()
