"""Run the doctests embedded in public docstrings."""

import doctest

import pytest

import repro.api
import repro.core.engine
import repro.graphs.colored_graph
import repro.logic.diagnostics
import repro.logic.parser
import repro.storage.function_store

MODULES = [
    repro.graphs.colored_graph,
    repro.logic.parser,
    repro.logic.diagnostics,
    repro.storage.function_store,
    repro.core.engine,
    repro.api,
]


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{result.failed} doctest failures in {module.__name__}"
    assert result.attempted > 0, f"no doctests collected from {module.__name__}"
