"""Cursor pagination (``QueryIndex.enumerate_page``) against the oracle."""

from __future__ import annotations

import random
from itertools import islice

import pytest

from repro.core.engine import Page, open_index
from repro.graphs.colored_graph import ColoredGraph
from repro.graphs.generators import grid, random_tree
from repro.workloads import by_name, indexable

QUERY = "E(x, y)"


@pytest.fixture(params=["auto", "naive"])
def index(request):
    return open_index(random_tree(40, seed=3), QUERY, method=request.param)


def walk_pages(index, limit):
    """Everything enumerate_page yields, following next_cursor to the end."""
    out, cursor = [], None
    while True:
        page = index.enumerate_page(start=cursor, limit=limit)
        assert len(page.items) <= limit
        out.extend(page.items)
        if page.next_cursor is None:
            return out
        cursor = page.next_cursor


@pytest.mark.parametrize("limit", [1, 7, 78, 500])
def test_page_walk_equals_full_enumeration(index, limit):
    assert walk_pages(index, limit) == list(index.enumerate())


def test_mid_stream_resume_matches_suffix(index):
    oracle = list(index.enumerate())
    first = index.enumerate_page(limit=10)
    assert first.items == oracle[:10]
    assert first.next_cursor == oracle[10]
    rest = index.enumerate_page(start=first.next_cursor, limit=len(oracle))
    assert rest.items == oracle[10:]
    assert rest.next_cursor is None


def test_exhausted_page_has_no_cursor(index):
    oracle = list(index.enumerate())
    page = index.enumerate_page(limit=len(oracle))
    assert page.items == oracle
    assert page.next_cursor is None


def test_oversized_limit_is_fine(index):
    page = index.enumerate_page(limit=10_000)
    assert page.items == list(index.enumerate())
    assert page.next_cursor is None


@pytest.mark.parametrize("bad", [0, -1])
def test_nonpositive_limit_rejected(index, bad):
    with pytest.raises(ValueError, match="limit"):
        index.enumerate_page(limit=bad)


def test_page_is_iterable_and_sized(index):
    page = index.enumerate_page(limit=5)
    assert isinstance(page, Page)
    assert len(page) == 5
    assert list(page) == page.items


def test_arity_zero_query():
    ix = open_index(random_tree(12, seed=1), "exists x. exists y. E(x, y)")
    page = ix.enumerate_page(limit=3)
    assert page.items == [()]
    assert page.next_cursor is None


def test_empty_graph_yields_empty_page():
    ix = open_index(ColoredGraph(0), QUERY)
    page = ix.enumerate_page(limit=5)
    assert page.items == []
    assert page.next_cursor is None


def test_out_of_domain_start_clamps(index):
    oracle = list(index.enumerate())
    # negative coordinates round up to the first solution
    assert index.enumerate_page(start=(-5, -5), limit=3).items == oracle[:3]
    # a start past the domain is an empty final page
    n = index.graph.n
    page = index.enumerate_page(start=(n, 0), limit=3)
    assert page.items == [] and page.next_cursor is None


#: every indexable workload, the auto fallback of an unindexable one, and
#: the naive method on a binary query
START_CASES = [(w.text, "auto") for w in indexable()] + [
    (by_name("unguarded").text, "auto"),
    ("E(x, y)", "naive"),
]


@pytest.mark.parametrize(
    "text,method",
    START_CASES,
    ids=[w.name for w in indexable()] + ["unguarded", "naive"],
)
def test_enumerate_clamps_out_of_domain_starts(text, method):
    """``enumerate(start)`` normalizes ``start`` like the page and next paths."""
    index = open_index(grid(10, 10, seed=5), text, method=method)
    n = index.graph.n
    rng = random.Random(f"{text}:{method}")
    for _ in range(60):
        start = tuple(rng.randrange(-5, n + 5) for _ in range(index.arity))
        items = list(islice(index.enumerate(start), 5))
        assert items == index.enumerate_page(start, 5).items, start
        assert all(index.test(t) for t in items), start
        assert items == sorted(set(items)), start
        first = index.next_solution(start)
        assert items[:1] == ([] if first is None else [first]), start
    for call in (index.enumerate, index.enumerate_page, index.next_solution):
        with pytest.raises(ValueError, match="tuple"):
            call((1,) * (index.arity + 1))
