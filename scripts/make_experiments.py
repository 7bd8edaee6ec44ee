"""Generate EXPERIMENTS.md from bench-suite results.

Usage: python scripts/make_experiments.py [BENCH_results.json ...] > EXPERIMENTS.md

Combines the hand-written claims (what the paper predicts, what
"reproduced" means) with the measured series (tables + fitted scaling
exponents via repro.analysis).  Input is the JSON written by
``python -m repro bench-suite``; sections follow
``repro.reporting.EXPERIMENTS``, the one table of experiment groups.
Unreadable input produces a one-line error and exit code 2, never a
traceback.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis import fit_exponent, flatness  # noqa: E402
from repro.reporting import (  # noqa: E402
    EXPERIMENTS,
    ReportError,
    group_by_experiment,
    load_results,
    render_group,
)

PREAMBLE = """\
# EXPERIMENTS — paper claims vs measurements

The paper is pure theory (see DESIGN.md §1): its only figure is the
Storing-Theorem illustration, and there are no measurement tables.  Each
experiment below therefore reproduces one *quantitative theorem claim* as
a measured series.  Absolute numbers are ours (Python on this machine);
what must match the paper is the **shape**: what is constant, what is
(pseudo-)linear, who wins.

Regenerate everything with:

```bash
python -m repro bench-suite -o BENCH_results.json
python scripts/make_experiments.py BENCH_results.json > EXPERIMENTS.md
```

(`--quick` shrinks the sweeps for a smoke run.)  Claims that a series
cannot show — answer equality, negative controls — are checked by the
tier-1 tests each verdict names.

Machine for the recorded numbers: single core of the CI container,
CPython 3.11.  E2 (Figure 1) is checked bit-for-bit in
`tests/storage/test_figure1.py` rather than timed.

"""

#: experiment group -> (claim, verdict template with {placeholders});
#: one entry per group of ``repro.reporting.EXPERIMENTS``
CLAIMS = {
    "bench_storing": (
        "**Theorem 3.1.** Lookup O(1); init O(|Dom| n^eps); update O(n^eps).",
        "Lookup flatness across a 256x range of n: {lookup_flat:.2f}x "
        "(constant within noise). Init grows with n as n^{init_exp:.2f} per "
        "fixed key count — the n^eps register factor, not linear growth.",
    ),
    "bench_distance": (
        "**Proposition 4.2.** dist <= r testing O(1) after pseudo-linear "
        "preprocessing; the no-index BFS baseline pays per query.",
        "Indexed query flatness: {query_flat:.2f}x across 16x n. "
        "Preprocessing exponent (planar family): n^{prep_exp:.2f}.",
    ),
    "bench_cover": (
        "**Theorem 4.4.** (r,2r)-covers computable in pseudo-linear time "
        "with degree <= n^eps.",
        "Cover construction exponent (planar): n^{build_exp:.2f}; measured "
        "degrees recorded per row stay far below sqrt(n).",
    ),
    "bench_splitter": (
        "**Theorem 4.6.** Over a fixed nowhere dense family, Splitter wins "
        "in a number of rounds independent of |G|.",
        "Measured rounds per family are flat in n (see the rounds column). "
        "The subdivided-clique negative control needs rounds growing with "
        "the clique size at radius 4, while trees stay flat: "
        "`tests/splitter/test_game.py::test_subdivided_clique_rounds_grow_at_radius_4`.",
    ),
    "bench_skip": (
        "**Lemma 5.8.** SKIP queries O(1) after O(n^{{1+k eps}}) "
        "preprocessing.",
        "Query flatness across 16x n: {query_flat:.2f}x. Stored pointers "
        "per vertex stay bounded (see extra columns).",
    ),
    "bench_next_solution": (
        "**Theorem 2.3 / 5.1.** After pseudo-linear preprocessing, the "
        "smallest solution >= any input tuple is computed in constant time.",
        "next_solution flatness across 16x n: {query_flat:.2f}x; "
        "preprocessing exponent n^{prep_exp:.2f}.",
    ),
    "bench_testing": (
        "**Corollary 2.4.** Constant-time testing; naive per-tuple "
        "evaluation is the baseline.",
        "Indexed testing flatness: {query_flat:.2f}x across 16x n, at a "
        "fraction of the baseline's per-query cost at the largest n.",
    ),
    "bench_delay": (
        "**Corollary 2.5.** Enumeration in lexicographic order with "
        "constant delay.",
        "Max delay stays flat in n (extra columns); streaming the first "
        "100 answers is independent of |q(G)|.",
    ),
    "bench_sparsity": (
        "**Theorem 2.1.** Nowhere dense classes have ||G|| <= |G|^{{1+eps}} "
        "eventually.",
        "Density exponents per family converge toward 1 as n grows "
        "(extra columns; below 1.35 for every family: "
        "`tests/graphs/test_sparsity.py::test_edge_density_exponent_near_one_for_sparse`). "
        "The subdivided-clique control's weak 2-coloring bound exceeds a "
        "tree's: `tests/graphs/test_sparsity.py::"
        "test_weak_coloring_number_grows_on_dense_control`.",
    ),
    "bench_db_reduction": (
        "**Lemma 2.2.** Databases reduce to colored graphs linearly; "
        "answers are preserved.",
        "A'(D) construction exponent over ||D||: n^{build_exp:.2f}; the "
        "end-to-end relational count matches the database exactly: "
        "`tests/integration/test_adjacency_pattern.py::"
        "test_friend_count_matches_database`.",
    ),
    "bench_crossover": (
        "**Headline (Sec. 1).** Materializing q(G) is the wrong unit of "
        "work when |q(G)| is quadratic: preprocessing + streaming wins.",
        "Naive materialization exponent: n^{naive_exp:.2f} vs index build "
        "n^{index_exp:.2f}; streaming k answers costs Θ(k) regardless of "
        "|q(G)|.",
    ),
    "bench_counting": (
        "**[18] (cited in Sec. 1).** |q(G)| computable in pseudo-linear "
        "time, without enumeration.",
        "Closed-form counting exponent n^{closed_exp:.2f} vs "
        "enumerate-and-count n^{enum_exp:.2f} on a quadratic result set.",
    ),
    "bench_dynamic": (
        "**Section 6 (open problem; implemented slice).** Color flips "
        "repaired ball-locally through the versioned index; the final "
        "generation is register-equal to a rebuild (gated).",
        "Per-flip-chain cost flatness across the n sweep: {update_flat:.2f}x, "
        "vs rebuild growing as n^{rebuild_exp:.2f}.",
    ),
    "bench_persist": (
        "**Persistence (engineering).** Loading a snapshot beats rebuilding "
        "the index, and a parallel build equals the sequential one.",
        "Warm load beats cold preprocessing by at least {warm_min:.1f}x at "
        "every n (gated at 5x); see `matches_sequential` for the parallel "
        "builds.",
    ),
    "bench_serving": (
        "**Serving (engineering).** A pre-fork pool answers like one server, "
        "within the watchdog's delay budget, with register arenas shared "
        "rather than copied.",
        "Pool throughput over the machine-aware floor: {floor_min:.2f}x at "
        "worst (gated at 1.0); open-loop p99 headroom {headroom_min:.2f}x "
        "(gated at 1.0); arena Pss/Rss {share_max:.2f} (gated at 0.6).",
    ),
    "bench_updates": (
        "**Section 6 (open problem; implemented slice).** Edge insertions "
        "and deletions repaired ball-locally; the repaired registers equal "
        "a rebuild (gated).",
        "Repair cost grows as n^{repair_exp:.2f} (gated at 0.9); one arity-2 "
        "repair beats a rebuild by {repair_speedup:.2f}x (gated at 1.2).",
    ),
    "bench_profiler": (
        "**Observability.** The sampling profiler at its default rate costs "
        "under 5% of enumerate-page throughput.",
        "Profiled / baseline throughput: {profiler_ratio:.3f} (gated at 0.95).",
    ),
    "bench_ablation": (
        "**Ablations.** The knobs replacing the paper's constants trade "
        "speed only; answers equal NaiveIndex under every knob setting: "
        "`tests/core/test_config.py::test_answers_invariant_under_knobs`.",
        "See the table: eps moves trie width/depth; the Step-1 cutoff "
        "moves preprocessing cost ({cutoff_spread:.2f}x between the "
        "fastest and slowest `test_bag_threshold` build).",
    ),
}


def _series(benchmarks, prefix):
    xs, ys = [], []
    for bench in benchmarks:
        if not bench["name"].startswith(prefix):
            continue
        match = re.search(r"\[(?:[a-z0-9]+-)?(\d+)\]$", bench["name"])
        if not match:
            continue
        xs.append(int(match.group(1)))
        ys.append(bench["stats"]["mean"])
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    return [xs[i] for i in order], [ys[i] for i in order]


def _safe_exp(benchmarks, prefix):
    xs, ys = _series(benchmarks, prefix)
    try:
        return fit_exponent(xs, ys)[0]
    except ValueError:
        return float("nan")


def _safe_flat(benchmarks, prefix):
    _, ys = _series(benchmarks, prefix)
    try:
        return flatness(ys)
    except ValueError:
        return float("nan")


def _extra(benchmarks, prefix, key, pick):
    """``pick`` (min or max) of one extra_info key over a series, or nan."""
    values = [
        bench["extra_info"][key]
        for bench in benchmarks
        if bench["name"].startswith(prefix)
        and isinstance(bench.get("extra_info", {}).get(key), (int, float))
    ]
    return pick(values) if values else float("nan")


_FLAT_PREFIX = {
    "bench_storing": "test_lookup",
    "bench_distance": "test_query",
    "bench_skip": "test_query",
    "bench_next_solution": "test_next_solution",
    "bench_testing": "test_indexed",
}


def _verdict_values(stem, benchmarks):
    return {
        "lookup_flat": _safe_flat(benchmarks, "test_lookup"),
        "init_exp": _safe_exp(benchmarks, "test_init[1-"),
        "query_flat": _safe_flat(benchmarks, _FLAT_PREFIX.get(stem, "test_query")),
        "prep_exp": _safe_exp(benchmarks, "test_preprocess[planar-")
        if stem == "bench_distance"
        else _safe_exp(benchmarks, "test_build"),
        "build_exp": _safe_exp(benchmarks, "test_build_cover[planar-")
        if stem == "bench_cover"
        else _safe_exp(benchmarks, "test_adjacency_graph_build"),
        "naive_exp": _safe_exp(benchmarks, "test_naive_materialize"),
        "index_exp": _safe_exp(benchmarks, "test_index_build["),
        "closed_exp": _safe_exp(benchmarks, "test_closed_form_count"),
        "enum_exp": _safe_exp(benchmarks, "test_enumerate_count_baseline"),
        "update_flat": _safe_flat(benchmarks, "test_update["),
        "rebuild_exp": _safe_exp(benchmarks, "test_rebuild_baseline"),
        "warm_min": _extra(benchmarks, "test_warm_vs_cold[", "warm_speedup_vs_cold", min),
        "floor_min": _extra(benchmarks, "test_pool_throughput[", "speedup_over_floor", min),
        "headroom_min": _extra(benchmarks, "test_pool_latency[", "p99_headroom", min),
        "share_max": _extra(benchmarks, "test_pool_shared_arena[", "pss_over_rss", max),
        "repair_exp": _safe_exp(benchmarks, "test_update_repair["),
        "repair_speedup": _extra(
            benchmarks, "test_repair_vs_rebuild[", "repair_speedup_vs_rebuild", min
        ),
        "cutoff_spread": _safe_flat(benchmarks, "test_bag_threshold["),
        "profiler_ratio": _extra(
            benchmarks, "test_profiler_overhead[", "throughput_ratio", min
        ),
    }


def main(*paths: str) -> int:
    # later files override earlier ones per benchmark (clean reruns win)
    by_name: dict[str, dict] = {}
    for path in paths:
        try:
            results = load_results(path)
        except ReportError as exc:
            print(f"make_experiments: {exc}", file=sys.stderr)
            return 2
        for bench in results:
            by_name[bench.get("fullname", bench["name"])] = bench
    benchmarks = list(by_name.values())
    groups = group_by_experiment(benchmarks)
    out = [PREAMBLE]
    for stem in EXPERIMENTS:
        if stem not in groups:
            continue
        claim, verdict_template = CLAIMS.get(stem, ("", ""))
        section = render_group(stem, groups[stem]).replace("### ", "## ", 1)
        header, _, table = section.partition("\n")
        values = _verdict_values(stem, groups[stem])
        try:
            verdict = verdict_template.format(**values)
        except (KeyError, ValueError):
            verdict = verdict_template
        out.append(header)
        out.append("")
        out.append(f"> {claim}\n>\n> **Measured:** {verdict}")
        out.append(table)
    print("\n".join(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(*(sys.argv[1:] or ["BENCH_results.json"])))
