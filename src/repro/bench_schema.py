"""The bench-suite result schema (``repro-bench-suite-v1``) and validator.

``repro bench-suite`` writes a single JSON document; this module is the
one place its shape is defined.  The layout is a superset of what
:mod:`repro.reporting` consumes (``benchmarks[*].fullname/name/stats/
extra_info``).  ``group`` names an experiment group and ``fullname``
keeps the historical ``benchmarks/<group>.py::<name>`` form — no such
file exists; the id format is kept so result documents from different
versions stay comparable.

Top level::

    {
      "suite_version": 1,
      "schema": "repro-bench-suite-v1",
      "created": "2026-01-01T00:00:00",         # ISO timestamp
      "profile": "quick" | "full",
      "machine_info": {"python": ..., "platform": ..., ...},
      "experiments": ["E1", "E3", ...],
      "benchmarks": [
        {
          "experiment": "E1",
          "group": "bench_storing",              # experiment group (E1)
          "fullname": "benchmarks/bench_storing.py::test_lookup[1024]",
          "name": "test_lookup[1024]",
          "params": {"n": 1024},
          "stats": {"mean": 1.2e-3, "min": ..., "max": ..., "stddev": ...,
                    "rounds": 3},
          "extra_info": {"per_lookup_batch": 128, ...}
        },
        ...
      ]
    }

Validation is hand-rolled (the library has no third-party dependencies);
:func:`validate_results` returns a list of human-readable problems, empty
when the document conforms.
"""

from __future__ import annotations

from typing import Any

SUITE_VERSION = 1
SCHEMA_NAME = "repro-bench-suite-v1"

_SCALAR = (str, int, float, bool, type(None))

#: Required keys of the top-level document and their types.
_TOP_LEVEL = {
    "suite_version": int,
    "schema": str,
    "created": str,
    "profile": str,
    "machine_info": dict,
    "experiments": list,
    "benchmarks": list,
}

#: Required keys of each benchmark record and their types.
_RECORD = {
    "experiment": str,
    "group": str,
    "fullname": str,
    "name": str,
    "params": dict,
    "stats": dict,
    "extra_info": dict,
}

#: Required keys of each record's ``stats`` and their types.
_STATS = {
    "mean": (int, float),
    "min": (int, float),
    "max": (int, float),
    "stddev": (int, float),
    "rounds": int,
}


def _check_mapping(
    value: Any, spec: dict[str, Any], where: str, problems: list[str]
) -> bool:
    if not isinstance(value, dict):
        problems.append(f"{where}: expected an object, got {type(value).__name__}")
        return False
    for key, expected in spec.items():
        if key not in value:
            problems.append(f"{where}.{key}: missing")
        elif not isinstance(value[key], expected):
            expected_name = (
                expected.__name__
                if isinstance(expected, type)
                else "/".join(t.__name__ for t in expected)
            )
            problems.append(
                f"{where}.{key}: expected {expected_name}, "
                f"got {type(value[key]).__name__}"
            )
    return True


def validate_results(payload: Any) -> list[str]:
    """Problems with a bench-suite document; empty means it conforms."""
    problems: list[str] = []
    if not _check_mapping(payload, _TOP_LEVEL, "$", problems):
        return problems
    if isinstance(payload.get("suite_version"), int) and payload[
        "suite_version"
    ] > SUITE_VERSION:
        problems.append(
            f"$.suite_version: {payload['suite_version']} is newer than this "
            f"reader (max {SUITE_VERSION})"
        )
    for index, record in enumerate(payload.get("benchmarks") or []):
        where = f"$.benchmarks[{index}]"
        if not _check_mapping(record, _RECORD, where, problems):
            continue
        stats = record.get("stats")
        if isinstance(stats, dict):
            _check_mapping(stats, _STATS, f"{where}.stats", problems)
            mean = stats.get("mean")
            if isinstance(mean, (int, float)) and mean < 0:
                problems.append(f"{where}.stats.mean: negative ({mean})")
        extra = record.get("extra_info")
        if isinstance(extra, dict):
            for key, value in extra.items():
                if not isinstance(value, _SCALAR):
                    problems.append(
                        f"{where}.extra_info.{key}: expected a JSON scalar, "
                        f"got {type(value).__name__}"
                    )
        params = record.get("params")
        if isinstance(params, dict):
            for key, value in params.items():
                if not isinstance(value, _SCALAR):
                    problems.append(
                        f"{where}.params.{key}: expected a JSON scalar, "
                        f"got {type(value).__name__}"
                    )
    return problems
