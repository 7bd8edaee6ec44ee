"""Cached formula hashes never reach a snapshot.

Formula nodes and variables compute their structural hash once and keep
it in a slot (see :mod:`repro.logic.syntax`).  String hashes differ per
process, so that slot must stay out of pickles: a snapshot saved under
one ``PYTHONHASHSEED`` and loaded under another has to answer as before
and keep every memo table keyed the way the loading process hashes.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import repro
from repro.logic.parser import parse_formula
from repro.logic.syntax import Bottom, Top, Var

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Shared by both subprocesses: the index, its probes, its memo census.
COMMON = """
import json, random, sys
from repro.core.config import EngineConfig
from repro.core.engine import open_index
from repro.core.next_solution import NextSolutionIndex, RelaxedPrefixIndex
from repro.graphs.generators import grid
from repro.persist import index_fingerprint, load_index, save_index

QUERY = sys.argv[2]
CONFIG = EngineConfig(dist_naive_threshold=10, bag_naive_threshold=12)


def answers(index):
    rng = random.Random(5)
    n, k = index.graph.n, index.arity
    out = []
    for _ in range(150):
        probe = tuple(rng.randrange(n) for _ in range(k))
        out.append([index.test(probe), index.next_solution(probe)])
    out.append([list(t) for t in index.enumerate_page((0,) * k, limit=30).items])
    return out


def levels(index):
    node = index._impl
    while isinstance(node, NextSolutionIndex) and node.last is not None:
        yield node.last
        node = node._prefix
        if isinstance(node, RelaxedPrefixIndex):
            node = node._inner


def column_memos(index):
    for last in levels(index):
        for solver, _, _ in last.solvers:
            while solver._mode == "splitter":
                yield solver._column_cache
                solver = solver.child
            yield solver._eval._column_cache
"""

SAVE = """
index = open_index(grid(10, 10, seed=4), QUERY, config=CONFIG)
before = answers(index)
path = sys.argv[1]
save_index(index, path, index_fingerprint(index.graph, QUERY, config=CONFIG))
print(json.dumps(before))
"""

LOAD = """
from repro.core.last_coordinate import resolve_plan
from repro.core.normal_form import decompose
from repro.logic.parser import parse_formula
from repro.logic.syntax import Var

index = load_index(sys.argv[1])
sizes = [len(memo) for memo in column_memos(index)]
after = answers(index)
top = next(levels(index))
# the same bag queries, built from the query text in this process
fresh = resolve_plan(
    decompose(parse_formula(QUERY), tuple(Var(v.name) for v in top.free_order))
)
mismatched = checked = missed = 0
by_repr = {}
for mask, entries in top._plan.items():
    for loaded, built in zip(entries, fresh[mask]):
        for (query, order), (query2, order2) in zip(loaded.queries, built.queries):
            mismatched += query != query2 or hash(query) != hash(query2)
            mismatched += hash(order) != hash(order2)
            by_repr[repr(query)] = query2
for memo in column_memos(index):
    for psi, order, values, last_var in list(memo):
        if repr(psi) in by_repr:
            key = (
                by_repr[repr(psi)],
                tuple(Var(v.name) for v in order),
                values,
                Var(last_var.name),
            )
            checked += 1
            missed += key not in memo
print(json.dumps({
    "answers": after,
    "grown": [len(memo) for memo in column_memos(index)] != sizes,
    "mismatched": mismatched,
    "checked": checked,
    "missed": missed,
}))
"""


def _run(script: str, seed: int, *args: str) -> object:
    done = subprocess.run(
        [sys.executable, "-c", COMMON + script, *args],
        env={**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": str(seed)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "query", ["exists z. E(x, z) & E(z, y)", "E(x, y) & E(y, z)"]
)
def test_snapshot_loads_under_another_hash_seed(tmp_path, query):
    path = str(tmp_path / "index.rpx")
    before = _run(SAVE, 1, path, query)
    loaded = _run(LOAD, 2, path, query)
    assert loaded["answers"] == before
    # re-asked probes hit the loaded column memos: no entry is added
    assert loaded["grown"] is False
    # loaded bag queries hash as the loading process hashes them
    assert loaded["mismatched"] == 0
    assert loaded["checked"] > 0 and loaded["missed"] == 0


def _nodes(phi):
    yield phi
    for f in fields(phi):
        value = getattr(phi, f.name)
        children = value if isinstance(value, tuple) else (value,)
        for child in children:
            if isinstance(child, Var):
                yield child
            elif hasattr(child, "__dataclass_fields__"):
                yield from _nodes(child)


def test_pickled_node_state_is_its_fields():
    phi = parse_formula(
        "exists z. (E(x, z) & ~(z = y) & dist(z, y) <= 2) | "
        "forall w. (Blue(w) | ~E(x, w))"
    )
    nodes = [*_nodes(phi), Top(), Bottom()]
    kinds = {type(node).__name__ for node in nodes}
    assert {"Var", "Exists", "Forall", "And", "Or", "Not", "EdgeAtom",
            "EqAtom", "DistAtom", "ColorAtom", "Top", "Bottom"} <= kinds
    for node in nodes:
        hash(node)  # fills the cached slot
        state = node.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[2]
        assert list(state) == [getattr(node, f.name) for f in fields(node)]
        copy = pickle.loads(pickle.dumps(node))
        assert copy == node and not hasattr(copy, "_hash")
