"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``generate FAMILY N -o FILE``
    Generate a nowhere dense family member and save it (format chosen by
    extension: ``.json`` or edge-list text).

``info FILE``
    Print a graph's vital statistics (size, density exponent, degeneracy).

``explain QUERY [--graph FILE]``
    Diagnose whether a query is in the indexable fragment and why; with
    ``--graph`` also build the index for real and report where the
    preprocessing time went, stage by stage.

``trace GRAPH QUERY [--enumerate N] [--count] [-o FILE] [--format F]``
    Run preprocessing plus the requested operations under span tracing
    (see :mod:`repro.trace`), print the span tree and per-stage totals,
    and optionally write a Chrome trace-event file or JSONL spans.

``profile GRAPH QUERY [--enumerate N] [--hz HZ] [--top K] [-o FILE]``
    Run preprocessing plus enumeration under the sampling profiler
    (:mod:`repro.trace.profiler`), print the hottest collapsed stacks,
    and optionally write flamegraph.pl / speedscope input.

``query FILE QUERY [--enumerate N] [--count] [--test a,b] [--next a,b]
[--cache DIR]``
    Build the Theorem 2.3 index over the graph in FILE and answer.  With
    ``--cache`` the index is served from (and saved to) a snapshot
    directory, so the pseudo-linear preprocessing is paid once across
    process invocations; see :mod:`repro.persist`.

``warm GRAPH QUERY -o FILE``
    Run the preprocessing now and snapshot the built index to FILE, so a
    later ``query --cache`` (or :func:`repro.persist.load_index`) starts
    warm.

``bench FILE QUERY``
    One-line timing summary: preprocessing, per-test, per-next.

``bench-suite [--quick] [-o FILE] [--experiments IDS] [--report FILE]``
    Run the paper's E1-E18 experiment sweeps (the only benchmark
    producer), write schema-validated results JSON, and check the O(1)
    regression gate.  See :mod:`repro.benchrunner`.

``serve [--host H] [--port P] [--snapshot-dir DIR] [--graph-root DIR] ...``
    Run the long-lived HTTP query service: JSON endpoints for ``test`` /
    ``next`` / ``enumerate`` (cursor-paginated) / ``count`` /
    ``explain`` plus ``/metrics``, over a shared LRU cache of built
    indexes with per-key build deduplication.  See :mod:`repro.serve`
    and ``docs/serving.md``.

``lint [PATHS...] [--format text|json]``
    Statically check the complexity contracts (``@constant_time`` /
    ``@delay`` / ``@pseudo_linear``) *and* the concurrency contracts
    (``@frozen_after_build`` / ``@read_only`` / ``guarded_by``) over the
    given paths in one merged report; defaults to the installed
    ``repro`` package itself.

Error handling: library code raises :class:`repro.errors.ReproError`
subclasses; :func:`main` is a thin mapper from those to one-line stderr
messages and exit codes (2 for bad input, 1 for valid requests the
engine cannot satisfy).
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from pathlib import Path

from repro.core.engine import open_index
from repro.errors import ReproError, UsageError
from repro.graphs.colored_graph import ColoredGraph
from repro.graphs.generators import FAMILIES
from repro.graphs.io import read_edge_list, read_json, write_edge_list, write_json
from repro.graphs.sparsity import degeneracy, edge_density_exponent
from repro.logic.diagnostics import explain
from repro.trace.profiler import DEFAULT_HZ as _PROFILE_HZ


def _load_graph(path: str) -> ColoredGraph:
    source = Path(path)
    try:
        if source.suffix == ".json":
            loaded = read_json(source)
            if not isinstance(loaded, ColoredGraph):
                raise UsageError(f"{path} holds a database, not a colored graph")
            return loaded
        return read_edge_list(source)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from None


def _parse_tuple(text: str) -> tuple[int, ...]:
    parts = [part.strip() for part in text.split(",")]
    if not any(parts) or any(not part for part in parts):
        raise UsageError(
            f"expected a comma-separated tuple of integers, got {text!r}"
        )
    try:
        return tuple(int(part) for part in parts)
    except ValueError:
        raise UsageError(
            f"expected a comma-separated tuple of integers, got {text!r}"
        ) from None


def _cmd_generate(args) -> int:
    if args.family not in FAMILIES:
        raise UsageError(
            f"unknown family {args.family!r}; choose from {sorted(FAMILIES)}"
        )
    graph = FAMILIES[args.family](args.n, seed=args.seed)
    out = Path(args.output)
    if out.suffix == ".json":
        write_json(graph, out)
    else:
        write_edge_list(graph, out)
    print(f"wrote {graph!r} to {out}")
    return 0


def _cmd_info(args) -> int:
    graph = _load_graph(args.graph)
    print(f"vertices:          {graph.n}")
    print(f"edges:             {graph.num_edges}")
    print(f"colors:            {', '.join(sorted(graph.color_names)) or '(none)'}")
    print(f"density exponent:  {edge_density_exponent(graph):.4f}")
    print(f"degeneracy:        {degeneracy(graph)}")
    if args.locality:
        from repro.graphs.validation import locality_report

        print()
        print(locality_report(graph, radius=args.radius).render())
    return 0


def _cmd_explain(args) -> int:
    report = explain(args.query)
    print(report.render())
    if args.graph is not None and report.decomposable:
        # enrichment: build the index for real under tracing and show
        # where the preprocessing time actually goes, stage by stage
        from repro import trace

        graph = _load_graph(args.graph)
        with trace.tracing("explain", query=args.query) as tracer:
            index = open_index(graph, args.query, method="indexed")
        print()
        print(
            f"built against {args.graph} (n={graph.n}): "
            f"preprocessing={index.preprocessing_seconds * 1000:.1f} ms"
        )
        print(trace.render_stage_totals(tracer.spans))
    return 0 if report.decomposable else 1


def _cmd_trace(args) -> int:
    if args.enumerate is not None and args.enumerate < 1:
        raise UsageError(f"--enumerate must be >= 1, got {args.enumerate}")
    from repro import metrics, trace

    graph = _load_graph(args.graph)
    # ops=True so enumerate.step spans carry per-step operation counts
    with metrics.collect(ops=True):
        with trace.tracing(
            "repro trace", graph=args.graph, query=args.query
        ) as tracer:
            index = open_index(graph, args.query, method=args.method)
            if args.test is not None:
                values = _parse_tuple(args.test)
                print(f"test{values}: {index.test(values)}")
            if args.next is not None:
                values = _parse_tuple(args.next)
                print(f"next{values}: {index.next_solution(values)}")
            if args.count:
                print(f"count: {index.count()}")
            if args.enumerate:
                taken = 0
                for _solution in index.enumerate():
                    taken += 1
                    if taken >= args.enumerate:
                        break
                print(f"enumerated {taken} solutions")
    print(trace.render_tree(tracer))
    print(trace.render_stage_totals(tracer.spans))
    if args.output is not None:
        out = Path(args.output)
        if args.format == "tree":
            out.write_text(
                trace.render_tree(tracer)
                + "\n"
                + trace.render_stage_totals(tracer.spans)
                + "\n"
            )
            kind = "span tree"
        elif args.format == "jsonl" or (
            args.format == "auto" and out.suffix == ".jsonl"
        ):
            trace.write_jsonl(tracer, out)
            kind = "JSONL spans"
        else:
            trace.write_chrome_trace(tracer, out)
            kind = "Chrome trace-event file (load via chrome://tracing)"
        print(f"wrote {kind}: {out} ({len(tracer.spans)} spans)")
    return 0


def _cmd_profile(args) -> int:
    if args.enumerate < 0:
        raise UsageError(f"--enumerate must be >= 0, got {args.enumerate}")
    if args.hz <= 0 or args.hz > 1000:
        raise UsageError(f"--hz must be in (0, 1000], got {args.hz}")
    if args.top < 1:
        raise UsageError(f"--top must be >= 1, got {args.top}")
    from repro.trace.profiler import SamplingProfiler, flamegraph_text

    graph = _load_graph(args.graph)
    profiler = SamplingProfiler(hz=args.hz)
    tick = time.perf_counter()
    with profiler:
        index = open_index(graph, args.query, method=args.method)
        if args.count:
            print(f"count: {index.count()}")
        taken = 0
        if args.enumerate:
            for _solution in index.enumerate():
                taken += 1
                if taken >= args.enumerate:
                    break
            print(f"enumerated {taken} solutions")
    elapsed = time.perf_counter() - tick
    stacks = profiler.collapsed()
    print(
        f"profiled {elapsed:.2f}s at {args.hz:g} Hz: "
        f"{profiler.samples} samples, {len(stacks)} distinct stacks"
    )
    total = max(1, profiler.samples)
    shown = sorted(stacks.items(), key=lambda kv: (-kv[1], kv[0]))[: args.top]
    for stack, count in shown:
        leaf = stack.rsplit(";", 1)[-1]
        print(f"  {count:6d} ({count / total:6.1%})  {leaf}")
        if args.full_stacks:
            print(f"           {stack}")
    if args.output is not None:
        out = Path(args.output)
        out.write_text(flamegraph_text(stacks))
        print(
            f"wrote collapsed stacks: {out} "
            "(feed to flamegraph.pl or speedscope)"
        )
    if profiler.samples == 0:
        print(
            "repro profile: no samples taken — the run finished faster "
            "than one sampling interval; raise --hz or --enumerate more",
            file=sys.stderr,
        )
    return 0


def _cmd_query(args) -> int:
    if args.enumerate is not None and args.enumerate < 1:
        raise UsageError(f"--enumerate must be >= 1, got {args.enumerate}")
    graph = _load_graph(args.graph)
    if args.cache:
        from repro.persist import load_or_build

        tick = time.perf_counter()
        index, status = load_or_build(
            graph, args.query, method=args.method, cache_dir=args.cache
        )
        ready_ms = (time.perf_counter() - tick) * 1000
        print(
            f"index {status} ({args.cache}): method={index.method}, "
            f"arity={index.arity}, ready in {ready_ms:.1f} ms"
        )
    else:
        index = open_index(graph, args.query, method=args.method)
        print(
            f"index built: method={index.method}, arity={index.arity}, "
            f"preprocessing={index.preprocessing_seconds * 1000:.1f} ms"
        )
    if args.stats:
        import json as _json

        print(_json.dumps(index.stats(), indent=1, sort_keys=True))
    if args.count:
        print(f"count: {index.count()}")
    try:
        if args.test is not None:
            values = _parse_tuple(args.test)
            print(f"test{values}: {index.test(values)}")
        if args.next is not None:
            values = _parse_tuple(args.next)
            print(f"next{values}: {index.next_solution(values)}")
    except ValueError as exc:
        # e.g. a wrong-arity tuple for this query; one line, no traceback
        print(f"repro query: {exc}", file=sys.stderr)
        return 2
    if args.enumerate:
        # first-class pagination (Page/next_cursor) rather than slicing a
        # full enumeration — same code path the serve endpoint uses
        remaining = args.enumerate
        cursor = None
        while remaining > 0:
            page = index.enumerate_page(start=cursor, limit=min(remaining, 500))
            for solution in page.items:
                print(" ".join(map(str, solution)))
            remaining -= len(page.items)
            if page.next_cursor is None:
                break
            cursor = page.next_cursor
    return 0


def _cmd_warm(args) -> int:
    from repro.persist import warm

    graph = _load_graph(args.graph)
    tick = time.perf_counter()
    index, header = warm(graph, args.query, args.output, method=args.method)
    elapsed = time.perf_counter() - tick
    print(
        f"warmed {args.output}: method={index.method}, arity={index.arity}, "
        f"{header['payload_bytes']} bytes, "
        f"fingerprint {header['fingerprint'][:12]}..., "
        f"built+saved in {elapsed:.2f}s"
    )
    return 0


def _cmd_bench(args) -> int:
    graph = _load_graph(args.graph)
    tick = time.perf_counter()
    index = open_index(graph, args.query)
    build = time.perf_counter() - tick
    if graph.n == 0:
        # nothing to probe on an empty graph (and the modulus below
        # would divide by zero); arity-0 queries have exactly one probe
        probes = [()] * 200 if index.arity == 0 else []
    else:
        probes = [
            tuple((7 * i + j) % graph.n for j in range(index.arity))
            for i in range(200)
        ]
    if not probes:
        print(f"n={graph.n} method={index.method} build={build:.2f}s test=n/a next=n/a")
        return 0
    tick = time.perf_counter()
    for probe in probes:
        index.test(probe)
    per_test = (time.perf_counter() - tick) / len(probes)
    tick = time.perf_counter()
    for probe in probes:
        index.next_solution(probe)
    per_next = (time.perf_counter() - tick) / len(probes)
    print(
        f"n={graph.n} method={index.method} build={build:.2f}s "
        f"test={per_test * 1e6:.0f}us next={per_next * 1e6:.0f}us"
    )
    return 0


def _cmd_serve(args) -> int:
    from repro import metrics
    from repro.serve import QueryService, create_server

    if args.max_page_size < 1:
        raise UsageError(f"--max-page-size must be >= 1, got {args.max_page_size}")
    if args.max_batch_calls < 1:
        raise UsageError(
            f"--max-batch-calls must be >= 1, got {args.max_batch_calls}"
        )
    if args.cache_entries < 1:
        raise UsageError(f"--cache-entries must be >= 1, got {args.cache_entries}")
    if args.max_builds < 1:
        raise UsageError(f"--max-builds must be >= 1, got {args.max_builds}")
    if not 0.0 <= args.trace_sample <= 1.0:
        raise UsageError(
            f"--trace-sample must be in [0, 1], got {args.trace_sample}"
        )
    if args.trace_buffer < 0:
        raise UsageError(f"--trace-buffer must be >= 0, got {args.trace_buffer}")
    if args.watchdog_multiple < 0:
        raise UsageError(
            f"--watchdog-multiple must be >= 0, got {args.watchdog_multiple}"
        )
    from repro.trace.logging import configure as configure_logging
    from repro.trace.watchdog import Watchdog

    # every serve log line is one JSON object (trace ids included) so
    # aggregators can follow a request across the slow-log and watchdog
    configure_logging()
    if args.paranoid:
        # belt-and-suspenders mode: the static checker proves the read
        # path write-free, the tripwire catches what analysis can't see
        # (extensions, exec'd code, new code without annotations)
        from repro.contracts import install_freeze

        install_freeze()
    watchdog = None
    if args.watchdog_multiple > 0:
        watchdog = Watchdog(multiple=args.watchdog_multiple)
    service = QueryService(
        cache_entries=args.cache_entries,
        snapshot_dir=args.snapshot_dir,
        graph_root=args.graph_root,
        max_page_size=args.max_page_size,
        build_wait_seconds=args.build_timeout,
        max_in_flight_builds=args.max_builds,
        max_batch_calls=args.max_batch_calls,
    )
    if args.pool_workers:
        return _serve_pool(args, service)
    server = create_server(
        service,
        host=args.host,
        port=args.port,
        request_timeout=args.request_timeout,
        trace_capacity=args.trace_buffer,
        trace_sample=args.trace_sample,
        slow_ms=args.slow_ms,
        watchdog=watchdog,
    )
    _stop_on_signals()
    host, port = server.server_address[:2]
    print(f"repro serve: listening on http://{host}:{port}", flush=True)
    try:
        # a live registry for the server's lifetime makes /metrics real:
        # engine.* counters, enumeration delay histograms, serve.* cache
        # counters (ops=False keeps contracted calls unpatched and fast;
        # histograms hold bucket counts, so memory stays flat)
        with metrics.collect(ops=False):
            server.serve_forever()
    except KeyboardInterrupt:
        print("repro serve: shutting down", file=sys.stderr)
    finally:
        server.server_close()
    return 0


def _stop_on_signals() -> None:
    """Make the first SIGINT (^C) or SIGTERM (a plain ``kill``) stop
    ``serve``, and ignore both signals from then on.

    Both serve loops turn ``KeyboardInterrupt`` into an orderly shutdown;
    for the pool that is :meth:`~repro.serve.pool.PoolServer.close`,
    which SIGTERMs and reaps the workers instead of orphaning them.  A
    repeated signal of either kind cannot cut that teardown short.
    """

    def _interrupt(signum, frame) -> None:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        raise KeyboardInterrupt

    signal.signal(signal.SIGINT, _interrupt)
    signal.signal(signal.SIGTERM, _interrupt)


def _serve_pool(args, service) -> int:
    """The ``--pool-workers`` branch of ``repro serve``: pre-fork pool."""
    import os as _os

    from repro.serve.pool import PoolServer
    from repro.trace.watchdog import Watchdog

    if not hasattr(_os, "fork"):
        raise UsageError("--pool-workers needs os.fork (POSIX only)")
    if args.pool_workers < 1:
        raise UsageError(f"--pool-workers must be >= 1, got {args.pool_workers}")
    shards = args.shards or args.pool_workers
    if shards < args.pool_workers:
        raise UsageError(
            f"--shards ({shards}) must be >= --pool-workers ({args.pool_workers})"
        )
    watchdog_factory = None
    if args.watchdog_multiple > 0:
        multiple = args.watchdog_multiple
        watchdog_factory = lambda: Watchdog(multiple=multiple)  # noqa: E731
    pool = PoolServer(
        service,
        host=args.host,
        port=args.port,
        workers=args.pool_workers,
        shards=shards,
        request_timeout=args.request_timeout,
        trace_capacity=args.trace_buffer,
        trace_sample=args.trace_sample,
        slow_ms=args.slow_ms,
        watchdog_factory=watchdog_factory,
    )
    _stop_on_signals()
    try:
        pool.start()
        host, port = pool.address
        print(
            f"repro serve: listening on http://{host}:{port} "
            f"(pool: {pool.workers} workers, {pool.shards} shards, "
            f"{len(pool.preloaded)} preloaded, "
            f"{pool.shared_bytes} shared arena bytes)",
            flush=True,
        )
        pool.serve_forever()
    except KeyboardInterrupt:
        print("repro serve: shutting down pool", file=sys.stderr)
    finally:
        pool.close()
    return 0


def _cmd_bench_suite(args) -> int:
    from repro.benchrunner import run_cli as bench_suite_cli

    return bench_suite_cli(args)


def _cmd_lint(args) -> int:
    from repro.contracts.lint import main as lint_main

    argv = list(args.paths)
    if args.format != "text":
        argv += ["--format", args.format]
    return lint_main(argv)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for ``python -m repro`` (see module docstring)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Constant-delay FO query enumeration over sparse graphs",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="generate a sparse graph")
    generate.add_argument("family", help=f"one of {sorted(FAMILIES)}")
    generate.add_argument("n", type=int, help="approximate vertex count")
    generate.add_argument("-o", "--output", required=True)
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(func=_cmd_generate)

    info = commands.add_parser("info", help="print graph statistics")
    info.add_argument("graph")
    info.add_argument("--locality", action="store_true",
                      help="sample r-ball sizes and render a locality verdict")
    info.add_argument("--radius", type=int, default=2)
    info.set_defaults(func=_cmd_info)

    explain_cmd = commands.add_parser("explain", help="diagnose a query")
    explain_cmd.add_argument("query")
    explain_cmd.add_argument("--graph", metavar="FILE", default=None,
                             help="also build against this graph and show "
                                  "per-stage preprocessing timings")
    explain_cmd.set_defaults(func=_cmd_explain)

    trace_cmd = commands.add_parser(
        "trace", help="run a build + query under span tracing"
    )
    trace_cmd.add_argument("graph")
    trace_cmd.add_argument("query")
    trace_cmd.add_argument("--method", default="auto",
                           choices=["auto", "indexed", "naive"])
    trace_cmd.add_argument("--count", action="store_true")
    trace_cmd.add_argument("--test", metavar="a,b")
    trace_cmd.add_argument("--next", metavar="a,b")
    trace_cmd.add_argument("--enumerate", type=int, default=None, metavar="N")
    trace_cmd.add_argument("-o", "--output", metavar="FILE", default=None,
                           help="write the trace to FILE instead of (only) "
                                "printing the span tree")
    trace_cmd.add_argument("--format", default="auto",
                           choices=["auto", "chrome", "jsonl", "tree"],
                           help="output format; 'auto' picks by -o extension "
                                "(.jsonl -> jsonl, else Chrome trace-event)")
    trace_cmd.set_defaults(func=_cmd_trace)

    profile_cmd = commands.add_parser(
        "profile", help="sample-profile a query run (collapsed stacks)"
    )
    profile_cmd.add_argument("graph")
    profile_cmd.add_argument("query")
    profile_cmd.add_argument("--method", default="auto",
                             choices=["auto", "indexed", "naive"])
    profile_cmd.add_argument("--count", action="store_true")
    profile_cmd.add_argument("--enumerate", type=int, default=1000, metavar="N",
                             help="enumerate up to N solutions under the "
                             "profiler (default 1000; 0 to skip)")
    profile_cmd.add_argument("--hz", type=float, default=_PROFILE_HZ, metavar="HZ",
                             help="sampling frequency (default %(default)s)")
    profile_cmd.add_argument("--top", type=int, default=15, metavar="K",
                             help="print the K hottest stacks (default 15)")
    profile_cmd.add_argument("--full-stacks", action="store_true",
                             help="print full root->leaf stacks, not just "
                             "the leaf frame")
    profile_cmd.add_argument("-o", "--output", metavar="FILE", default=None,
                             help="write collapsed stacks for flamegraph.pl "
                             "/ speedscope")
    profile_cmd.set_defaults(func=_cmd_profile)

    query = commands.add_parser("query", help="index a graph and answer")
    query.add_argument("graph")
    query.add_argument("query")
    query.add_argument("--method", default="auto", choices=["auto", "indexed", "naive"])
    query.add_argument("--count", action="store_true")
    query.add_argument("--stats", action="store_true")
    query.add_argument("--test", metavar="a,b")
    query.add_argument("--next", metavar="a,b")
    query.add_argument("--enumerate", type=int, default=None, metavar="N")
    query.add_argument("--cache", metavar="DIR", default=None,
                       help="serve from (and save to) a snapshot cache directory")
    query.set_defaults(func=_cmd_query)

    warm_cmd = commands.add_parser(
        "warm", help="run preprocessing now and snapshot the index to a file"
    )
    warm_cmd.add_argument("graph")
    warm_cmd.add_argument("query")
    warm_cmd.add_argument("-o", "--output", required=True)
    warm_cmd.add_argument("--method", default="auto",
                          choices=["auto", "indexed", "naive"])
    warm_cmd.set_defaults(func=_cmd_warm)

    bench = commands.add_parser("bench", help="one-line timing summary")
    bench.add_argument("graph")
    bench.add_argument("query")
    bench.set_defaults(func=_cmd_bench)

    serve = commands.add_parser(
        "serve", help="run the HTTP query service with a shared index cache"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321,
                       help="TCP port (0 picks an ephemeral port)")
    serve.add_argument("--snapshot-dir", metavar="DIR", default=None,
                       help="back the in-memory cache with .rpx snapshots")
    serve.add_argument("--graph-root", metavar="DIR", default=None,
                       help="allow 'graph_path' requests under this directory")
    serve.add_argument("--cache-entries", type=int, default=8, metavar="N",
                       help="warm indexes kept in the LRU (default 8)")
    serve.add_argument("--max-page-size", type=int, default=1000, metavar="N",
                       help="cap on one enumerate page (default 1000)")
    serve.add_argument("--max-builds", type=int, default=4, metavar="N",
                       help="concurrent distinct index builds (default 4)")
    serve.add_argument("--max-batch-calls", type=int, default=1024, metavar="N",
                       help="cap on calls per /v1/batch request (default 1024)")
    serve.add_argument("--build-timeout", type=float, default=60.0, metavar="S",
                       help="seconds a request waits on an in-flight build")
    serve.add_argument("--request-timeout", type=float, default=30.0, metavar="S",
                       help="socket read timeout per request")
    serve.add_argument("--trace-sample", type=float, default=0.0, metavar="P",
                       help="record a span tree for this fraction of requests "
                            "(X-Trace-Id requests are always recorded)")
    serve.add_argument("--trace-buffer", type=int, default=64, metavar="N",
                       help="recent traces kept for /v1/traces "
                            "(0 disables request tracing entirely)")
    serve.add_argument("--slow-ms", type=float, default=None, metavar="MS",
                       help="log a structured warning for requests slower "
                            "than MS milliseconds")
    serve.add_argument("--watchdog-multiple", type=float, default=20.0,
                       metavar="X",
                       help="flag enumeration steps slower than X times the "
                            "calibrated budget (0 disables the watchdog)")
    serve.add_argument("--pool-workers", type=int, default=0, metavar="N",
                       help="pre-fork N worker processes sharing mmap'd "
                            "arena snapshots; requests are routed to workers "
                            "by (graph, query) shard (0 = single process)")
    serve.add_argument("--shards", type=int, default=0, metavar="N",
                       help="routing shards for the pooled warm-index LRU "
                            "(default: --pool-workers)")
    serve.add_argument("--paranoid", action="store_true",
                       help="install the freeze tripwire: any write to a "
                            "frozen index outside its build phase raises "
                            "instead of racing (cheap __setattr__ guard)")
    serve.set_defaults(func=_cmd_serve)

    from repro.benchrunner import add_arguments as _bench_suite_arguments

    bench_suite = commands.add_parser(
        "bench-suite",
        help="run the E1-E18 experiment sweeps and the O(1) regression gate",
    )
    _bench_suite_arguments(bench_suite)
    bench_suite.set_defaults(func=_cmd_bench_suite)

    lint = commands.add_parser(
        "lint", help="check the complexity and concurrency contracts"
    )
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories (default: the repro package)")
    lint.add_argument("--format", default="text", choices=["text", "json"])
    lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    The thin-mapper contract: library code raises
    :class:`~repro.errors.ReproError` subclasses and this function turns
    them into ``repro <command>: <message>`` on stderr plus the
    subclass's ``exit_code`` — bad input (``UsageError``, parse and
    graph-format errors) exits 2, valid-but-unsatisfiable requests
    (e.g. ``--method indexed`` on an undecomposable query) exit 1.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
