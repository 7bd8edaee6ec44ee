"""Sensor coverage example: counting without enumerating.

A mesh of environmental sensors forms a hexagonal lattice (planar, max
degree 3).  Some nodes carry a gas detector, some a backup battery.  The
operations team wants, for a rolling report:

1. for *each* gateway node: how many detector nodes are out of its
   2-hop maintenance range — a per-prefix count (the [18]-style counting
   reproduced in :mod:`repro.core.counting`), computed without
   materializing the quadratic pair set;
2. the total number of (gateway, far-detector) pairs, same machinery;
3. a streamed sample of the first few such pairs (Corollary 2.5);
4. the same total after a detector fails — a color flip, repaired
   ball-locally into a new index version.

Run:  python examples/sensor_coverage.py
"""

import random
import time

from repro.core.counting import CountingIndex
from repro.core.engine import open_index
from repro.graphs.generators import hex_grid


def main() -> None:
    mesh = hex_grid(18, 18, palette=())
    rng = random.Random(3)
    detectors = [v for v in mesh.vertices() if rng.random() < 0.2]
    gateways = [v for v in mesh.vertices() if rng.random() < 0.1]
    mesh.set_color("Detector", detectors)
    mesh.set_color("Gateway", gateways)
    print(
        f"mesh: {mesh.n} nodes, {len(detectors)} detectors, "
        f"{len(gateways)} gateways"
    )

    tick = time.perf_counter()
    index = open_index(mesh, "Gateway(x) & Detector(y) & dist(x, y) > 2")
    built = time.perf_counter() - tick
    counting = CountingIndex(index)
    print(f"index built in {built * 1000:.0f} ms (counting: {counting.method})")

    # (2) total count, no enumeration
    tick = time.perf_counter()
    total = counting.count()
    counted = time.perf_counter() - tick
    print(f"total far (gateway, detector) pairs: {total} "
          f"(counted in {counted * 1000:.0f} ms)")

    # (1) per-gateway counts
    print("most under-covered gateways:")
    per_gateway = sorted(
        ((counting.count_suffixes(g), g) for g in gateways), reverse=True
    )
    for count, gateway in per_gateway[:5]:
        print(f"  gateway {gateway}: {count} detectors beyond 2 hops")

    # (3) stream a few witness pairs
    print("sample pairs (lexicographic stream):")
    for pair in index.enumerate_page(limit=5):
        print(f"  {pair}")

    # (4) a detector fails: flip its color off, count the new version
    failed = detectors[0]
    repaired = index.remove_color("Detector", failed)
    print(f"after detector {failed} fails (version {repaired.version}): "
          f"{repaired.count()} far pairs")


if __name__ == "__main__":
    main()
