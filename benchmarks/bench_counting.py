"""E13 — counting without enumerating ([18], cited in the paper's intro).

Claim under test: ``|q(G)|`` is computable in pseudo-linear time even
when the result set is quadratic.  ``QueryIndex.count()`` (the closed
form at arity 2) should scale with ``n`` while enumerate-and-count scales
with ``|q(G)| ~ n^2``.
"""

import pytest

from benchmarks.conftest import cached_graph

QUERY = "dist(x, y) > 2 & Blue(y)"  # quadratic result set


@pytest.mark.parametrize("n", (256, 512, 1024))
def test_closed_form_count(benchmark, n):
    from repro.core.engine import build_index

    g = cached_graph("grid", n)

    def build_and_count():
        return build_index(g, QUERY).count()

    count = benchmark.pedantic(build_and_count, rounds=1, iterations=1)
    benchmark.extra_info["solutions"] = count
    benchmark.extra_info["solutions_over_n"] = round(count / n, 1)


@pytest.mark.parametrize("n", (256, 512, 1024))
def test_enumerate_count_baseline(benchmark, n):
    from repro.core.engine import build_index

    g = cached_graph("grid", n)

    def build_and_enumerate():
        return sum(1 for _ in build_index(g, QUERY).enumerate())

    count = benchmark.pedantic(build_and_enumerate, rounds=1, iterations=1)
    benchmark.extra_info["solutions"] = count
    benchmark.extra_info["count_equal"] = float(count == build_index(g, QUERY).count())
