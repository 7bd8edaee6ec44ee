"""The three workloads: set-up, measured window, and answer checks.

Each workload returns a :class:`Outcome`.  Untraced runs report the
end-to-end block; traced runs hand the workload's indexes, payloads and
servers to :mod:`layerbench.ladder` before anything is torn down.  Why
each workload exists is written down in ``layerbench/README.md``.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from layerbench.common import (
    DENSE,
    SPARSE,
    Oracle,
    Server,
    Tally,
    answers_in,
    cache_totals,
    calibration_loop,
    end_to_end,
    median,
    peak_rss_mb,
    quantile,
    sampling,
    speed_factor,
)

#: Graph sizes per scale; ``tiny`` is the harness self-test.
SIZES = {
    "full": {"enum-inproc": 4096, "serve-probe": 1024, "live-updates": 576},
    "tiny": {"enum-inproc": 100, "serve-probe": 64, "live-updates": 64},
}
#: Set-ups per run; the report gives their median.  enum-inproc builds
#: for ~20 s per set-up at full size, so it repeats only twice.
SETUPS = {"enum-inproc": 2, "serve-probe": 5, "live-updates": 5}
#: enum-inproc probes per round, in batches timed as one request each.
PROBE_BATCHES, PROBE_BATCH = 24, 8

#: Checked answers per run, bounded so checking stays off the clock and short.
MAX_CHECKS = 160


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    traced: bool
    scale: str
    run_dir: Path
    spans: Any  # ladder.SpanLog when traced, else None

    @property
    def n(self) -> int:
        return SIZES[self.scale][self.workload]


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    notes: dict[str, Any] = field(default_factory=dict)
    #: the end-to-end block before scaling to reference speed
    raw: dict[str, tuple[float, str]] = field(default_factory=dict)

    def with_ladder(self, ladder: tuple[dict, int, int, dict]) -> "Outcome":
        """Report the traced ladder's per-layer metrics instead of end-to-end ones."""
        metrics, attempted, failed, notes = ladder
        self.metrics = metrics
        self.attempted += attempted
        self.failed += failed
        self.notes.update(notes)
        return self


def _grid(n: int, seed: int):
    from repro.graphs.generators import FAMILIES

    return FAMILIES["grid"](n, seed=seed)


def _spec(n: int, seed: int, query: str) -> dict:
    return {"family": "grid", "n": n, "seed": seed, "query": query}


def _tuple(rng: random.Random, n: int) -> list[int]:
    return [rng.randrange(n), rng.randrange(n)]


def _layout(index: Any) -> str:
    """The register layout in effect, read off the built index's tries."""
    from layerbench.ladder import find_tries

    names = sorted({type(store).__name__ for store in find_tries(index)})
    return ",".join(names) or "none"


# ----------------------------------------------------------------------
# request mixes (shared by the measured window and the traced ladder)


def serve_request(
    rng: random.Random, position: int, specs: list[dict], n: int, chains: dict | None
) -> tuple[str, dict, int | None]:
    """Request ``position`` of a fixed 20-request cycle: 5 test, 5 next,
    1 batch of 8, 9 pages of 10 (108 answers per cycle).

    A fixed cycle keeps answers per request the same from run to run:
    pages carry 83% of the answers (p50), single calls 9% (p99).

    ``chains`` maps a spec slot to ``(cursor, pages left)`` so pages
    continue from the previous ``next_cursor``; ``None`` draws every page
    from a fresh random cursor (the replayable form the ladder uses).
    """
    slot = rng.randrange(len(specs))
    spec = specs[slot]
    kind = position % 20
    if kind < 5:
        return "/v1/test", {**spec, "tuple": _tuple(rng, n)}, None
    if kind < 10:
        return "/v1/next", {**spec, "tuple": _tuple(rng, n)}, None
    if kind < 11:
        calls = [
            {"op": "test" if i % 2 else "next", "tuple": _tuple(rng, n)}
            for i in range(8)
        ]
        return "/v1/batch", {**spec, "calls": calls}, None
    cursor, left = (chains or {}).get(slot, (None, 0))
    if cursor is None or left <= 0:
        cursor, left = _tuple(rng, n), 5
    if chains is not None:
        chains[slot] = (cursor, left - 1)
    return "/v1/enumerate", {**spec, "cursor": cursor, "limit": 10}, slot


def check_response(
    oracle: Oracle, path: str, payload: dict, body: dict, rng: random.Random
) -> bool:
    """Is one successful response what the naive evaluator says?"""
    if path == "/v1/test":
        return body["value"] == oracle.test(tuple(payload["tuple"]))
    if path == "/v1/next":
        found = oracle.next(tuple(payload["tuple"]))
        return body["solution"] == (None if found is None else list(found))
    if path == "/v1/batch":
        for call, result in zip(payload["calls"], body["results"]):
            if call["op"] == "test":
                ok = result == oracle.test(tuple(call["tuple"]))
            else:
                found = oracle.next(tuple(call["tuple"]))
                ok = result == (None if found is None else list(found))
            if not ok:
                return False
        return len(payload["calls"]) == len(body["results"])
    cursor = tuple(payload.get("cursor") or (0, 0))
    items = [tuple(item) for item in body["items"]]
    nxt = body["next_cursor"]
    return oracle.page_ok(cursor, items, None if nxt is None else tuple(nxt), rng)


def _checked(samples: list, limit: int = MAX_CHECKS) -> list:
    step = max(1, len(samples) // limit)
    return samples[::step][:limit]


# ----------------------------------------------------------------------
# enum-inproc


def enum_inproc(ctx: Context) -> Outcome:
    from repro.api import open_index

    n = ctx.n
    setup_times: list[float] = []
    raw_setup_times: list[float] = []
    graph_times: list[float] = []
    builds: dict[str, list[float]] = {"dense": [], "sparse": []}
    indexes: dict[str, Any] = {}
    firsts: list[tuple[str, Any]] = []
    rng = random.Random(f"enum-inproc:{ctx.seed}")
    timed: list[Round] = []
    samples: list[tuple] = []
    setups = SETUPS[ctx.workload]
    for _ in range(setups):
        indexes = {}  # drop the previous set-up's indexes before rebuilding
        with sampling(calibration_loop, 0.05) as speed:
            start = time.perf_counter()
            graph = _grid(n, ctx.seed)
            graph_times.append(time.perf_counter() - start)
            for name, query in (("dense", DENSE), ("sparse", SPARSE)):
                tick = time.perf_counter()
                index = open_index(graph, query)
                firsts.append((name, index.next_solution((0, 0))))
                builds[name].append(time.perf_counter() - tick)
                indexes[name] = index
            raw_setup_times.append(time.perf_counter() - start)
        setup_times.append(raw_setup_times[-1] * speed_factor(speed))
        # the measured window is split over the set-ups, so one run samples
        # the machine over its whole length rather than its last seconds
        timed += _enum_window(ctx, indexes, rng, samples, ctx.seconds / setups, len(timed))
    tally, raw = _scaled_tallies(timed)
    rounds = len(timed)

    oracles = {"dense": Oracle(graph, DENSE), "sparse": Oracle(graph, SPARSE)}
    failed = sum(first != oracles[name].next((0, 0)) for name, first in firsts)
    check_rng = random.Random(ctx.seed)
    for kind, name, args, *result in _checked(samples):
        oracle = oracles[name]
        if kind == "page":
            ok = oracle.page_ok(args, list(result[0]), result[1], check_rng)
        elif kind == "test":
            ok = result[0] == oracle.test(args)
        else:
            ok = result[0] == oracle.next(args)
        failed += not ok
    tally.failed += failed

    notes = {
        "layout": _layout(indexes["dense"]),
        "graph": f"grid n={graph.n}",
        "setups": len(setup_times),
        "rounds": rounds,
        "checked": len(_checked(samples)) + len(firsts),
    }
    outcome = Outcome({}, tally.attempted + len(firsts), tally.failed, notes)
    if not ctx.traced:
        memory = peak_rss_mb()
        outcome.metrics = end_to_end(setup_times, tally, memory)
        outcome.raw = end_to_end(raw_setup_times, raw, memory)
        notes["samples"] = {"requests": len(tally.requests), "answers": tally.answers}
        return outcome

    from layerbench.ladder import LadderInput, run_ladder

    pages: list[tuple[str, dict]] = []
    lad_rng = random.Random(f"enum-inproc-ladder:{ctx.seed}")
    for i in range(24):
        query = (DENSE, SPARSE)[i % 2]
        spec = _spec(n, ctx.seed, query)
        kind = i % 4
        if kind < 2:
            pages.append(("/v1/enumerate", {**spec, "cursor": _tuple(lad_rng, n), "limit": 1000}))
        elif kind == 2:
            calls = [
                {"op": "test" if j % 2 else "next", "tuple": _tuple(lad_rng, n)}
                for j in range(64)
            ]
            pages.append(("/v1/batch", {**spec, "calls": calls}))
        else:
            path = "/v1/test" if i % 8 == 3 else "/v1/next"
            pages.append((path, {**spec, "tuple": _tuple(lad_rng, n)}))
    ladder = LadderInput(
        targets=[
            (_spec(n, ctx.seed, DENSE), graph, indexes["dense"]),
            (_spec(n, ctx.seed, SPARSE), graph, indexes["sparse"]),
        ],
        payloads=pages,
        dense=indexes["dense"],
        sparse=indexes["sparse"],
        build_s={k: median(v) for k, v in builds.items()},
        graph_s=median(graph_times),
        update_target=1,
        update_edits=None,
        own_cache=None,
        span_overhead=tally.span_overhead_ratio(),
    )
    return outcome.with_ladder(run_ladder(ctx, ladder))


@dataclass
class Round:
    """One enum-inproc round as timed, before scaling to reference speed."""

    calls: list[tuple[float, int]]  # (seconds, answers) per timed call
    seconds: float  # the whole round, the benchmark's bookkeeping included
    spanned: bool
    factor: float  # speed_factor() of the calibrations just before and after


def _enum_window(
    ctx: Context,
    indexes: dict[str, Any],
    rng: random.Random,
    samples: list[tuple],
    seconds: float,
    rounds: int,
) -> list[Round]:
    """Measure ``seconds`` of enum-inproc rounds, numbered from ``rounds``."""
    n = ctx.n
    window: list[Round] = []
    deadline = time.perf_counter() + seconds
    before = calibration_loop()
    while time.perf_counter() < deadline:
        name = ("dense", "sparse")[rounds % 2]
        index = indexes[name]
        spanned = ctx.traced and (rounds // 2) % 2 == 1
        round_start = time.perf_counter()
        calls: list[tuple[float, int]] = []
        cursor = (rng.randrange(n), rng.randrange(n))
        tick = time.perf_counter()
        page = index.enumerate_page(cursor, 1000)
        tock = time.perf_counter()
        calls.append((tock - tick, len(page.items)))
        if spanned:
            ctx.spans.record("enumerate_page", tick, tock, query=name)
        if rounds % 4 == 0:
            samples.append(("page", name, cursor, page.items, page.next_cursor))
        for batch in range(PROBE_BATCHES):
            tick = time.perf_counter()
            for i in range(PROBE_BATCH):
                probe = (rng.randrange(n), rng.randrange(n))
                result = index.test(probe) if i % 2 else index.next_solution(probe)
                if (rounds * 192 + batch * PROBE_BATCH + i) % 61 == 0:
                    samples.append(("test" if i % 2 else "next", name, probe, result))
            tock = time.perf_counter()
            calls.append((tock - tick, PROBE_BATCH))
            if spanned:
                ctx.spans.record("probe batch", tick, tock, query=name)
        duration = time.perf_counter() - round_start
        after = calibration_loop()
        window.append(Round(calls, duration, spanned, speed_factor([before, after])))
        before = after
        rounds += 1
    return window


def _scaled_tallies(timed: list[Round]) -> tuple[Tally, Tally]:
    """``(reference-speed tally, raw tally)`` of enum-inproc's rounds.

    Each round's times are scaled by the calibrations that bracket it, so
    the host's speed swings drop out while a slower engine still reads
    slower.
    """
    scaled, raw = Tally(), Tally()
    for r in timed:
        for seconds, answers in r.calls:
            scaled.call(seconds * r.factor, answers)
            raw.call(seconds, answers)
        scaled.elapsed += r.seconds * r.factor
        raw.elapsed += r.seconds
        scaled.account(r.spanned, sum(a for _, a in r.calls), r.seconds * r.factor)
    return scaled, raw


# ----------------------------------------------------------------------
# serve-probe


def balanced_seeds(n: int, seed: int) -> list[int]:
    """Four consecutive graph seeds whose indexes the pool splits 2/2,
    ordered so the first two share one worker and the last two the other.

    The pool routes by a hash of the graph spec.  A draw that puts all
    four indexes on one worker doubles the keep-alive stall on most
    requests, so base seeds are skipped, deterministically, until each
    of the two workers owns two indexes.  The pool's own routing
    functions decide; without them the seeds are simply consecutive.
    Grid graphs of one size differ only in their colors, so the skip
    changes which vertices are Blue, not how much work a request is.
    """
    try:
        from repro.serve.pool import routing_key, shard_for
    except ImportError:
        return [seed + i for i in range(4)]
    base = 4 * seed
    while True:
        seeds = [base + i for i in range(4)]
        owners = [shard_for(routing_key(_spec(n, s, DENSE)), 4) % 2 for s in seeds]
        if sorted(owners) == [0, 0, 1, 1]:
            return [s for _, s in sorted(zip(owners, seeds))]
        base += 1


def serve_probe(ctx: Context) -> Outcome:
    n = ctx.n
    seeds = balanced_seeds(n, ctx.seed)
    specs = [_spec(n, s, DENSE) for s in seeds]
    setup_times: list[float] = []
    raw_setup_times: list[float] = []
    server: Server | None = None
    firsts: list[tuple[int, dict]] = []
    try:
        for rep in range(SETUPS[ctx.workload]):
            if server is not None:
                server.stop()
            snapdir = ctx.run_dir / f"snap-{rep}"
            snapdir.mkdir()
            with sampling(calibration_loop, 0.05) as speed:
                start = time.perf_counter()
                server = Server(
                    ["--pool-workers", "2", "--shards", "4", "--snapshot-dir", str(snapdir)],
                    ctx.run_dir,
                    f"pool-{rep}",
                )
                conn = server.connect()
                firsts = []
                for spec in specs:
                    status, body, _, _ = conn.post("/v1/next", {**spec, "tuple": [0, 0]})
                    firsts.append((status, body))
                raw_setup_times.append(time.perf_counter() - start)
            setup_times.append(raw_setup_times[-1] * speed_factor(speed))
            conn.close()
        assert server is not None

        tallies = [Tally(), Tally()]
        samples: list[list[tuple]] = [[], []]
        workers: list[dict[str, int]] = [{}, {}]
        start = time.perf_counter()
        deadline = start + ctx.seconds

        def client(cid: int) -> None:
            # each connection asks for the two indexes one worker owns: when
            # both share a worker, the pool's hop to it stalls a second time
            # (~88 ms), and a random choice of index hit that on half the
            # requests, right at the p50
            own = specs[2 * cid : 2 * cid + 2]
            rng = random.Random(f"serve-probe:{ctx.seed}:{cid}")
            conn = server.connect()
            chains: dict = {}
            tally = tallies[cid]
            count = 0
            try:
                while time.perf_counter() < deadline:
                    path, payload, slot = serve_request(rng, count, own, n, chains)
                    spanned = ctx.traced and count % 2 == 1
                    tick = time.perf_counter()
                    status, body, seconds, info = conn.post(path, payload)
                    count += 1
                    if status != 200:
                        tally.requests.append(seconds)
                        tally.attempted += 1
                        tally.failed += 1
                        continue
                    answers = answers_in(path, body)
                    tally.call(seconds, answers)
                    if spanned:
                        ctx.spans.record("request", tick, time.perf_counter(), path=path)
                    tally.account(spanned, answers, time.perf_counter() - tick)
                    worker = info["worker"] or "-"
                    workers[cid][worker] = workers[cid].get(worker, 0) + 1
                    if slot is not None:
                        nxt = body["next_cursor"]
                        left = chains[slot][1]
                        chains[slot] = (nxt, left if nxt is not None else 0)
                    if count % 3 == 0:
                        samples[cid].append((path, payload, body))
            finally:
                conn.close()

        threads = [threading.Thread(target=client, args=(cid,)) for cid in (0, 1)]
        with sampling(server.pss_mb, 0.5) as pss:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        tally = Tally()
        tally.elapsed = time.perf_counter() - start
        for part in tallies:
            tally.merge(part)
        memory = median(pss)
        own_cache = cache_totals(server.stats())

        graphs = {s: _grid(n, s) for s in seeds}
        oracles = {s: Oracle(graphs[s], DENSE) for s in seeds}
        check_rng = random.Random(ctx.seed)
        failed = 0
        for spec, (status, body) in zip(specs, firsts):
            failed += status != 200 or not check_response(
                oracles[spec["seed"]], "/v1/next", {"tuple": [0, 0]}, body, check_rng
            )
        checked = _checked(samples[0] + samples[1])
        for path, payload, body in checked:
            ok = body["index"]["index_version"] == 0 and check_response(
                oracles[payload["seed"]], path, payload, body, check_rng
            )
            failed += not ok
        tally.failed += failed
        share: dict[str, int] = {}
        for part in workers:
            for key, value in part.items():
                share[key] = share.get(key, 0) + value
        notes = {
            "graph": f"4 x grid n={graphs[seeds[0]].n}",
            "setups": len(setup_times),
            "checked": len(checked) + len(specs),
            "workers": share,
            "cache": own_cache,
            "samples": {"requests": len(tally.requests), "answers": tally.answers},
        }
        outcome = Outcome({}, tally.attempted + len(specs), tally.failed, notes)
        if not ctx.traced:
            outcome.metrics = end_to_end(setup_times, tally, memory)
            outcome.raw = end_to_end(raw_setup_times, tally, memory)
            return outcome

        from layerbench.ladder import LadderInput, load_snapshot, run_ladder

        loaded = [load_snapshot(snapdir, graphs[s], DENSE) for s in seeds]
        lad_rng = random.Random(f"serve-probe-ladder:{ctx.seed}")
        payloads = [serve_request(lad_rng, i, specs, n, None)[:2] for i in range(40)]
        ladder = LadderInput(
            targets=[(spec, graphs[s], idx) for spec, s, idx in zip(specs, seeds, loaded)],
            payloads=payloads,
            dense=None,
            sparse=None,
            build_s={},
            graph_s=None,
            update_target=0,
            update_edits=None,
            own_cache=own_cache,
            span_overhead=tally.span_overhead_ratio(),
        )
        return outcome.with_ladder(run_ladder(ctx, ladder))
    finally:
        if server is not None:
            server.stop()


# ----------------------------------------------------------------------
# live-updates


def local_edits(graph: Any, rng: random.Random) -> list[tuple[str, int, int]]:
    """A valid edit sequence that keeps the grid local.

    Even steps insert a fresh cell diagonal (a chord between two vertices
    at distance 2), odd steps delete a distinct original edge — every
    edit is valid against the evolving graph, and no edit adds a
    long-range shortcut that would grow every later repair's ball.
    """
    side = int(round(graph.n ** 0.5))
    diagonals = []
    for r in range(side - 1):
        for c in range(side - 1):
            u = r * side + c
            diagonals.append((u, u + side + 1))
            diagonals.append((u + 1, u + side))
    rng.shuffle(diagonals)
    originals = sorted(graph.edges())
    rng.shuffle(originals)
    edits = []
    for (a, b), (c, d) in zip(diagonals, originals):
        edits.append(("insert", a, b))
        edits.append(("delete", c, d))
    return edits


def apply_edit(graph: Any, edit: tuple[str, int, int]) -> Any:
    op, u, v = edit
    return graph.with_edge(u, v) if op == "insert" else graph.without_edge(u, v)


def live_updates(ctx: Context) -> Outcome:
    from repro.api import open_index

    n = ctx.n
    spec = _spec(n, ctx.seed, DENSE)
    graph0 = _grid(n, ctx.seed)
    edits = local_edits(graph0, random.Random(f"live-updates-edits:{ctx.seed}"))
    setup_times: list[float] = []
    raw_setup_times: list[float] = []
    server: Server | None = None
    first: tuple[int, dict] = (0, {})
    try:
        for rep in range(SETUPS[ctx.workload]):
            if server is not None:
                server.stop()
            snapdir = ctx.run_dir / f"snap-{rep}"
            snapdir.mkdir()
            with sampling(calibration_loop, 0.05) as speed:
                start = time.perf_counter()
                server = Server(["--snapshot-dir", str(snapdir)], ctx.run_dir, f"serve-{rep}")
                conn = server.connect()
                status, body, _, _ = conn.post("/v1/next", {**spec, "tuple": [0, 0]})
                first = (status, body)
                raw_setup_times.append(time.perf_counter() - start)
            setup_times.append(raw_setup_times[-1] * speed_factor(speed))
            conn.close()
        assert server is not None

        reader = Tally()
        update_seconds: list[float] = []
        acked = [0]
        writer_failed = [0]
        conflicts = [0]
        samples: list[tuple] = []
        start = time.perf_counter()
        deadline = start + ctx.seconds

        def write() -> None:
            conn = server.connect()
            try:
                for i, (op, u, v) in enumerate(edits):
                    if time.perf_counter() >= deadline:
                        break
                    status, body, seconds, _ = conn.post(
                        "/v1/update", {**spec, "op": op, "edge": [u, v]}
                    )
                    if status != 200 or body.get("version") != i + 1:
                        writer_failed[0] += 1
                        break
                    update_seconds.append(seconds)
                    acked[0] = i + 1
            finally:
                conn.close()

        def read() -> None:
            rng = random.Random(f"live-updates:{ctx.seed}")
            conn = server.connect()
            cursor, pinned, left, count = None, None, 0, 0
            try:
                while time.perf_counter() < deadline:
                    count += 1
                    spanned = ctx.traced and count % 2 == 0
                    tick = time.perf_counter()
                    if count % 3 == 0:
                        calls = [{"op": "next", "tuple": _tuple(rng, n)} for _ in range(8)]
                        payload = {**spec, "calls": calls}
                        status, body, seconds, _ = conn.post("/v1/batch", payload)
                        if status != 200:
                            reader.requests.append(seconds)
                            reader.attempted += 1
                            reader.failed += 1
                            continue
                        reader.call(seconds, len(body["results"]))
                        samples.append(("/v1/batch", payload, body))
                        if spanned:
                            ctx.spans.record("request", tick, time.perf_counter(), path="/v1/batch")
                        reader.account(spanned, len(body["results"]), time.perf_counter() - tick)
                        continue
                    if cursor is None or left <= 0:
                        cursor, pinned, left = _tuple(rng, n), None, 5
                    payload = {**spec, "cursor": cursor, "limit": 100}
                    if pinned is not None:
                        payload["cursor_version"] = pinned
                    status, body, seconds, _ = conn.post("/v1/enumerate", payload)
                    if status == 409:
                        # the pinned generation moved on: restart this page
                        conflicts[0] += 1
                        reader.call(seconds, 0)
                        pinned = None
                        continue
                    if status != 200:
                        reader.requests.append(seconds)
                        reader.attempted += 1
                        reader.failed += 1
                        continue
                    reader.call(seconds, len(body["items"]))
                    samples.append(("/v1/enumerate", payload, body))
                    if spanned:
                        ctx.spans.record("request", tick, time.perf_counter(), path="/v1/enumerate")
                    reader.account(spanned, len(body["items"]), time.perf_counter() - tick)
                    pinned = body["index"]["index_version"]
                    cursor, left = body["next_cursor"], left - 1
            finally:
                conn.close()

        threads = [threading.Thread(target=write), threading.Thread(target=read)]
        with sampling(server.pss_mb, 0.5) as pss:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        reader.elapsed = time.perf_counter() - start
        memory = median(pss)
        own_cache = cache_totals(server.stats())

        # answers are checked against the graph at the answering version
        graphs = [graph0]
        for edit in edits[: acked[0]]:
            graphs.append(apply_edit(graphs[-1], edit))
        oracles: dict[int, Oracle] = {}
        check_rng = random.Random(ctx.seed)
        failed = writer_failed[0]
        failed += first[0] != 200 or not check_response(
            Oracle(graph0, DENSE), "/v1/next", {"tuple": [0, 0]}, first[1], check_rng
        )
        checked = _checked(samples)
        for path, payload, body in checked:
            version = body["index"]["index_version"]
            if not 0 <= version <= acked[0]:
                failed += 1
                continue
            oracle = oracles.setdefault(version, Oracle(graphs[version], DENSE))
            failed += not check_response(oracle, path, payload, body, check_rng)

        # the final generation's registers, repaired in-process along the
        # same edit sequence, must equal a from-scratch build
        tick = time.perf_counter()
        repaired = open_index(graph0, DENSE)
        dense_build = time.perf_counter() - tick
        index0 = repaired
        for op, u, v in edits[: acked[0]]:
            repaired = repaired.insert_edge(u, v) if op == "insert" else repaired.delete_edge(u, v)
        registers_equal = repaired.registers() == open_index(graphs[-1], DENSE).registers()
        failed += not registers_equal
        reader.failed += failed

        notes = {
            "layout": _layout(index0),
            "graph": f"grid n={graph0.n}",
            "setups": len(setup_times),
            "checked": len(checked) + 2,
            "updates_acked": acked[0],
            "update_p50_ms": round(quantile(update_seconds, 0.5) * 1e3, 3) if update_seconds else None,
            "update_p90_ms": round(quantile(update_seconds, 0.9) * 1e3, 3) if update_seconds else None,
            "stale_cursor_409s": conflicts[0],
            "registers_equal": registers_equal,
            "cache": own_cache,
            "samples": {"requests": len(reader.requests), "answers": reader.answers},
        }
        attempted = reader.attempted + acked[0] + writer_failed[0] + 2
        outcome = Outcome({}, attempted, reader.failed, notes)
        if not ctx.traced:
            outcome.metrics = end_to_end(setup_times, reader, memory)
            outcome.raw = end_to_end(raw_setup_times, reader, memory)
            return outcome

        from layerbench.ladder import LadderInput, run_ladder

        tick = time.perf_counter()
        graph_again = _grid(n, ctx.seed)
        graph_s = time.perf_counter() - tick
        tick = time.perf_counter()
        sparse = open_index(graph_again, SPARSE)
        sparse_build = time.perf_counter() - tick
        lad_rng = random.Random(f"live-updates-ladder:{ctx.seed}")
        payloads = []
        for i in range(36):
            if i % 3 == 2:
                calls = [{"op": "next", "tuple": _tuple(lad_rng, n)} for _ in range(8)]
                payloads.append(("/v1/batch", {**spec, "calls": calls}))
            else:
                payloads.append(
                    ("/v1/enumerate", {**spec, "cursor": _tuple(lad_rng, n), "limit": 100})
                )
        ladder = LadderInput(
            targets=[(spec, graph0, index0)],
            payloads=payloads,
            dense=index0,
            sparse=sparse,
            build_s={"dense": dense_build, "sparse": sparse_build},
            graph_s=graph_s,
            update_target=0,
            update_edits=edits[:4],
            own_cache=own_cache,
            span_overhead=reader.span_overhead_ratio(),
        )
        return outcome.with_ladder(run_ladder(ctx, ladder))
    finally:
        if server is not None:
            server.stop()


WORKLOADS = {
    "enum-inproc": enum_inproc,
    "serve-probe": serve_probe,
    "live-updates": live_updates,
}
