#!/usr/bin/env python
"""CI smoke test for ``repro serve``: real subprocess, real sockets.

Starts the server exactly as a user would (``python -m repro serve``),
then drives every endpoint through the stdlib client and asserts:

* a cold miss answers correctly and the identical request then hits the
  warm cache;
* enumerate pages stitch together into exactly the oracle's result set;
* 8 concurrent clients all agree with a single-threaded oracle and the
  simultaneous cold miss triggers exactly one build;
* ``/metrics`` exposes ``engine.*`` counters and the enumeration delay
  histogram, and negotiates Prometheus text exposition;
* an ``X-Trace-Id`` request is recorded and its span tree (request root
  down to the ``enumerate.step`` spans) comes back from ``/v1/traces``;
* malformed requests come back as clean 400s, never 500s;
* the server shuts down cleanly on SIGINT.

With ``--paranoid`` the server runs under the runtime freeze tripwire
(any write to a frozen index outside its build phase raises), proving
the guard is inert on the whole serving read path under concurrent
load — the dynamic counterpart of the static CCY pass.

With ``--pool N`` the script instead smokes the pre-fork pool: it warms
a snapshot, starts ``repro serve --pool-workers N``, and asserts
the preloaded index serves the very first request from the shared-memory
copy, concurrent clients agree with the oracle through the router, the
batch endpoint is position-exact, ``/v1/stats`` aggregates the pool and
per-worker blocks (including the pool-wide ``guarantee`` verdict), the
parent's ``/metrics`` serves one *merged* Prometheus exposition whose
histogram counts equal the per-worker sums, a traced request comes back
from ``/v1/traces`` as one stitched cross-process tree (``pool.route``
over the worker's request span), ``/v1/profile`` returns merged
collapsed stacks, an update after the pool sat idle past the workers'
``--request-timeout`` is applied at the next version (the router drops
keep-alive sockets the workers closed meanwhile), and SIGINT tears the
whole process family down: no worker pid that ``/v1/stats`` reported is
left running.  A second, short pool start ends with SIGTERM (a plain
``kill``) and makes the same check.

Run from the repo root:
``python scripts/smoke_serve.py [--paranoid] [--pool N]``.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from urllib.error import HTTPError
from urllib.request import Request, urlopen

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.engine import open_index  # noqa: E402
from repro.graphs.generators import random_tree  # noqa: E402
from repro.serve.client import (  # noqa: E402
    ServiceClient,
    ServiceClientError,
    family_spec,
)

QUERY = "exists z. E(x, z) & E(z, y)"
SPEC = family_spec("random_tree", 48, seed=9)
CLIENTS = 8
#: The pool leg's --request-timeout: workers close keep-alive connections
#: idle this long, which the leg's last update waits out.
POOL_REQUEST_TIMEOUT = 2.0

_checks = 0


def check(condition: bool, what: str) -> None:
    global _checks
    _checks += 1
    if not condition:
        print(f"FAIL: {what}", file=sys.stderr)
        sys.exit(1)
    print(f"  ok: {what}")


def start_server(extra_args: list[str] | None = None) -> tuple[subprocess.Popen, str]:
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *(extra_args or [])],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=REPO,
    )
    line = proc.stdout.readline()
    match = re.search(r"http://([\d.]+):(\d+)", line)
    if match is None:
        proc.terminate()
        print(f"FAIL: could not parse server address from {line!r}", file=sys.stderr)
        sys.exit(1)
    return proc, f"http://{match.group(1)}:{match.group(2)}"


def worker_pids(stats: dict) -> list[int]:
    """The worker pids in a pool's ``/v1/stats`` payload."""
    return [int(worker["worker"]["pid"]) for worker in stats["workers"]]


def check_no_worker_left(pids: list[int], signame: str) -> None:
    """Fail (after killing them) if any of ``pids`` outlived the pool."""
    deadline = time.monotonic() + 5.0
    while True:
        left = []
        for pid in pids:
            try:
                os.kill(pid, 0)
                left.append(pid)
            except ProcessLookupError:
                pass
        if not left or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    check(not left, f"no pool worker left running after {signame}")


def stop(proc: subprocess.Popen, sig: signal.Signals, what: str) -> int | None:
    """Send ``sig``; the exit code, or None (and the process killed)."""
    proc.send_signal(sig)
    try:
        return proc.wait(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        print(f"FAIL: {what} did not shut down on {sig.name}", file=sys.stderr)
        return None


def run_pool_sigterm(workers: int) -> int:
    """A short second pool start that ends with a plain ``kill``."""
    proc, url = start_server(["--pool-workers", str(workers)])
    pids: list[int] = []
    try:
        pids = worker_pids(ServiceClient(url, timeout=60.0).stats())
        check(len(pids) == workers, "second pool reports its worker pids")
    finally:
        code = stop(proc, signal.SIGTERM, "pool")
    if code is None:
        return 1
    check_no_worker_left(pids, "SIGTERM")
    check(code == 0, "pool exited 0 on SIGTERM")
    return 0


def run_pool(workers: int) -> int:
    """The pre-fork leg: warm snapshot, pooled server, concurrent oracle."""
    import tempfile

    from repro.graphs.generators import FAMILIES
    from repro.persist import cache_path, index_fingerprint, save_index

    n, seed, query = 120, 9, "E(x, y)"
    graph = FAMILIES["grid"](n, seed=seed)
    oracle = open_index(graph, query)
    solutions = list(oracle.enumerate())
    spec = family_spec("grid", n, seed=seed)
    with tempfile.TemporaryDirectory(prefix="repro-smoke-pool-") as tmp:
        warm = open_index(graph, query)
        fingerprint = index_fingerprint(graph, query)
        save_index(warm, cache_path(tmp, fingerprint), fingerprint)
        proc, url = start_server([
            "--snapshot-dir", tmp,
            "--pool-workers", str(workers),
            "--shards", str(2 * workers),
            "--request-timeout", f"{POOL_REQUEST_TIMEOUT:g}",
        ])
        print(f"pool up at {url} ({workers} workers); "
              f"oracle has {len(solutions)} solutions")
        pids: list[int] = []
        try:
            client = ServiceClient(url, timeout=120.0)
            check(client.health(), "pool /healthz answers")

            # --- preloaded snapshot: warm from request one ------------
            check(
                client.test(spec, query, solutions[0]) is True,
                "pool test on a solution",
            )
            check(
                client.last_index_meta["status"] == "hit",
                "preloaded snapshot serves the first request warm",
            )
            check(
                client.next_solution(spec, query, (0, 0))
                == oracle.next_solution((0, 0)),
                "pool next_solution matches oracle",
            )
            calls = [("test", s) for s in solutions[:4]] + [("next", (0, 0))]
            check(
                client.batch(spec, query, calls)
                == [True] * 4 + [oracle.next_solution((0, 0))],
                "pool batch is position-exact against the oracle",
            )

            # --- concurrent clients through the router ----------------
            def hammer(worker: int) -> bool:
                mine = ServiceClient(url, timeout=120.0)
                good = mine.count(spec, query) == len(solutions)
                probe = solutions[worker % len(solutions)]
                return good and mine.test(spec, query, probe) is True

            with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
                agreed = list(pool.map(hammer, range(CLIENTS)))
            check(all(agreed), f"{CLIENTS} concurrent clients agree via the pool")

            # --- live updates route to the owning shard ----------------
            non_edge = next(
                (a, b)
                for a in range(graph.n)
                for b in range(graph.n)
                if a != b and (a, b) not in set(solutions)
            )
            page, cursor = client.enumerate_page(spec, query, limit=5)
            pinned = client.last_index_meta["index_version"]
            check(
                page == solutions[:5] and pinned == 0,
                "pool cursor minted at version 0",
            )
            check(
                client.update(spec, query, "insert", non_edge) == 1,
                "pool /v1/update reaches the owning shard and bumps to 1",
            )
            check(
                client.test(spec, query, non_edge) is True,
                "post-update probe sees the new generation via the router",
            )
            try:
                client.enumerate_page(
                    spec, query, cursor=cursor, cursor_version=pinned
                )
            except ServiceClientError as exc:
                check(
                    exc.status == 409
                    and exc.payload["error"]["type"] == "StaleCursor",
                    "pool pre-update cursor -> typed 409 StaleCursor",
                )
            else:
                check(False, "pool stale cursor was not rejected")
            check(
                client.update(spec, query, "delete", non_edge) == 2,
                "pool delete bumps the version to 2",
            )

            # --- aggregated stats + worker attribution ----------------
            stats = client.stats()
            check(stats["pool"]["workers"] == workers, "stats reports worker count")
            pids = worker_pids(stats)
            check(
                stats["pool"]["preloaded"] == 1,
                "stats reports the preloaded snapshot",
            )
            check(
                stats["pool"]["shared_arena_bytes"] > 0,
                "arena re-homed into shared memory before fork",
            )
            check(
                len(stats["workers"]) == workers,
                "per-worker stats blocks present",
            )
            versions = [
                version
                for worker in stats["workers"]
                for version in (worker.get("cache", {}).get("versions") or {}).values()
            ]
            check(
                2 in versions,
                "/v1/stats reports the updated index version",
            )
            body = json.dumps({**spec, "query": query, "tuple": [0, 0]}).encode()
            request = Request(
                url + "/v1/test", data=body,
                headers={"Content-Type": "application/json"},
            )
            with urlopen(request, timeout=60) as response:
                check(
                    response.headers.get("X-Repro-Worker") is not None,
                    "responses carry X-Repro-Worker",
                )
            check(
                "guarantee" in stats and stats["guarantee"]["workers"] == workers,
                "/v1/stats carries the pool-wide guarantee block",
            )

            # --- merged Prometheus exposition --------------------------
            with urlopen(url + "/metrics?format=prom", timeout=60) as response:
                check(
                    response.headers.get("Content-Type", "").startswith(
                        "text/plain; version=0.0.4"
                    ),
                    "pooled Prometheus /metrics content type",
                )
                prom = response.read().decode()
            metric = "repro_serve_request_seconds__v1_test"
            merged = re.search(rf"^{metric}_count (\d+)$", prom, re.M)
            labeled = re.findall(
                rf'^{metric}_count\{{worker="\d+"\}} (\d+)$', prom, re.M
            )
            check(
                merged is not None and labeled
                and int(merged.group(1)) == sum(int(v) for v in labeled),
                "merged histogram count equals the per-worker sum",
            )
            check(
                f"# TYPE {metric} histogram" in prom
                and re.search(rf'^{metric}_bucket\{{le="\+Inf"\}} ', prom, re.M)
                is not None,
                "merged exposition carries real le buckets",
            )

            # --- cross-process trace stitching --------------------------
            trace_id = "feedbeeffeedbeef"
            request = Request(
                url + "/v1/test",
                data=json.dumps(
                    {**spec, "query": query, "tuple": [0, 0]}
                ).encode(),
                headers={
                    "Content-Type": "application/json",
                    "X-Trace-Id": trace_id,
                },
            )
            with urlopen(request, timeout=60) as response:
                check(
                    response.headers.get("X-Trace-Id") == trace_id,
                    "X-Trace-Id round-trips through the router",
                )
            stitched = None
            for _ in range(50):
                try:
                    with urlopen(
                        url + f"/v1/traces?trace_id={trace_id}", timeout=60
                    ) as response:
                        stitched = json.load(response)["trace"]
                    break
                except HTTPError as exc:
                    if exc.code != 404:
                        raise
                    time.sleep(0.1)
            check(
                stitched is not None and stitched["stitched"] is True,
                "/v1/traces returns one stitched cross-process tree",
            )
            root = stitched["tree"][0] if stitched["tree"] else {}
            child_names = {c["name"] for c in root.get("children", [])}
            check(
                len(stitched["tree"]) == 1
                and root.get("name") == "pool.route"
                and "POST /v1/test" in child_names,
                "stitched tree: pool.route over the worker's request span",
            )
            check(
                any(s.startswith("worker:") for s in stitched["sources"])
                and "parent" in stitched["sources"],
                "stitched tree credits both processes",
            )

            # --- pool-wide sampling profiler ----------------------------
            with urlopen(url + "/v1/profile?seconds=1", timeout=60) as response:
                profiled = json.load(response)
            check(
                profiled["ok"] is True
                and profiled["profile"]["samples"] > 0
                and len(profiled["profile"]["stacks"]) > 0,
                "/v1/profile merges non-empty collapsed stacks",
            )

            # --- an update after the pool sat idle ----------------------
            time.sleep(POOL_REQUEST_TIMEOUT + 1.0)
            check(
                client.update(spec, query, "insert", non_edge) == 3,
                "update after an idle wait past --request-timeout lands at version 3",
            )
        finally:
            code = stop(proc, signal.SIGINT, "pool")
    if code is None:
        return 1
    check_no_worker_left(pids, "SIGINT")
    check(code == 0, "pool exited 0 on SIGINT")
    if run_pool_sigterm(workers):
        return 1
    print(f"smoke_serve: all {_checks} checks passed (pool {workers})")
    return 0


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--paranoid", action="store_true",
                        help="run the server with the freeze tripwire installed")
    parser.add_argument("--pool", type=int, default=0, metavar="N",
                        help="smoke the pre-fork pool with N workers instead")
    args = parser.parse_args(argv)
    if args.pool:
        if not hasattr(os, "fork"):
            print("smoke_serve: --pool needs os.fork; skipping")
            return 0
        return run_pool(args.pool)
    oracle = open_index(random_tree(48, seed=9), QUERY)
    solutions = list(oracle.enumerate())
    proc, url = start_server(["--paranoid"] if args.paranoid else None)
    mode = " (paranoid)" if args.paranoid else ""
    print(f"server up at {url}{mode}; oracle has {len(solutions)} solutions")
    try:
        client = ServiceClient(url, timeout=120.0)
        check(client.health(), "/healthz answers")

        # --- cold miss -> warm hit on the same fingerprint -------------
        check(client.count(SPEC, QUERY) == len(solutions), "count matches oracle")
        check(client.last_index_meta["status"] == "built", "first request built")
        client.count(SPEC, QUERY)
        check(client.last_index_meta["status"] == "hit", "second request hit")

        # --- every endpoint -------------------------------------------
        probe = solutions[0]
        check(client.test(SPEC, QUERY, probe) is True, "test on a solution")
        non_solution = next(
            (u, v)
            for u in range(48)
            for v in range(48)
            if (u, v) not in set(solutions)
        )
        check(
            client.test(SPEC, QUERY, non_solution) is False, "test on a non-solution"
        )
        check(
            client.next_solution(SPEC, QUERY, (0, 0)) == oracle.next_solution((0, 0)),
            "next_solution matches oracle",
        )
        paged = list(client.enumerate(SPEC, QUERY, page_size=7))
        check(paged == solutions, "paged enumerate equals the oracle")
        check(client.explain(QUERY)["decomposable"] is True, "explain answers")
        check(client.stats()["cache"]["builds"] == 1, "stats shows one build")

        # --- 8 concurrent clients vs the oracle, one build ------------
        cold_query = "E(x, y)"  # untouched so far: a fresh fingerprint
        cold_oracle = open_index(random_tree(48, seed=9), cold_query)
        cold_solutions = list(cold_oracle.enumerate())
        builds_before = client.stats()["cache"]["builds"]

        def hammer(worker: int) -> bool:
            mine = ServiceClient(url, timeout=120.0)
            good = mine.count(SPEC, cold_query) == len(cold_solutions)
            probe = cold_solutions[worker % len(cold_solutions)]
            good &= mine.test(SPEC, cold_query, probe) is True
            page, _ = mine.enumerate_page(SPEC, cold_query, limit=5)
            return good and page == cold_solutions[:5]

        with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
            agreed = list(pool.map(hammer, range(CLIENTS)))
        check(all(agreed), f"{CLIENTS} concurrent clients agree with the oracle")
        builds_after = client.stats()["cache"]["builds"]
        check(
            builds_after - builds_before == 1,
            f"{CLIENTS} simultaneous cold misses -> exactly one build",
        )

        # --- live updates: repair -> changed answer -> stale cursor ---
        non_edge2 = next(
            (u, v)
            for u in range(48)
            for v in range(48)
            if u != v and (u, v) not in set(cold_solutions)
        )
        page, cursor = client.enumerate_page(SPEC, cold_query, limit=5)
        pinned = client.last_index_meta["index_version"]
        check(
            page == cold_solutions[:5] and pinned == 0,
            "cursor minted at version 0",
        )
        check(
            client.test(SPEC, cold_query, non_edge2) is False,
            "edge absent before the update",
        )
        check(
            client.update(SPEC, cold_query, "insert", non_edge2) == 1,
            "/v1/update repairs in place and bumps the version to 1",
        )
        check(
            client.test(SPEC, cold_query, non_edge2) is True,
            "inserted edge answers True after the ball-local repair",
        )
        try:
            client.enumerate_page(
                SPEC, cold_query, cursor=cursor, cursor_version=pinned
            )
        except ServiceClientError as exc:
            check(
                exc.status == 409
                and exc.payload["error"]["type"] == "StaleCursor",
                "pre-update cursor -> typed 409 StaleCursor",
            )
        else:
            check(False, "stale cursor was not rejected")
        updated_oracle = open_index(
            random_tree(48, seed=9).with_edge(*non_edge2), cold_query
        )
        check(
            list(client.enumerate(SPEC, cold_query, page_size=7))
            == list(updated_oracle.enumerate()),
            "fresh cursor completes against the updated generation",
        )
        check(
            client.update(SPEC, cold_query, "delete", non_edge2) == 2,
            "delete bumps the version to 2",
        )

        # --- /metrics: the paper's instrumentation is live ------------
        dump = client.metrics()
        check(dump["collecting"] is True, "/metrics registry is collecting")
        counters = dump["registry"]["counters"]
        check(counters.get("engine.test", 0) >= 1, "engine.test counter exposed")
        check(
            counters.get("engine.next_solution", 0) >= 1,
            "engine.next_solution counter exposed",
        )
        delays = dump["registry"]["histograms"].get("enumeration.delay_seconds")
        check(
            delays is not None and delays["count"] >= len(solutions),
            "enumeration delay histogram exposed",
        )

        # --- request tracing: X-Trace-Id round trip + /v1/traces ------
        trace_id = "cafef00dcafef00d"
        request = Request(
            url + "/v1/enumerate",
            data=json.dumps({**SPEC, "query": QUERY, "limit": 3}).encode(),
            headers={
                "Content-Type": "application/json",
                "X-Trace-Id": trace_id,
            },
        )
        with urlopen(request, timeout=60) as response:
            check(
                response.headers.get("X-Trace-Id") == trace_id,
                "X-Trace-Id echoed on the response",
            )
            check(json.load(response)["ok"] is True, "traced request answers")
        # the trace is published after the response is flushed, so the
        # immediate fetch can race it: retry the 404 briefly
        recorded = None
        for _ in range(50):
            try:
                with urlopen(
                    url + f"/v1/traces?trace_id={trace_id}", timeout=60
                ) as response:
                    recorded = json.load(response)["trace"]
                break
            except HTTPError as exc:
                if exc.code != 404:
                    raise
                time.sleep(0.1)
        check(
            recorded is not None and recorded["trace_id"] == trace_id,
            "/v1/traces returns the trace",
        )
        roots = recorded["tree"]
        child_names = {child["name"] for child in roots[0]["children"]}
        check(
            len(roots) == 1
            and roots[0]["name"] == "POST /v1/enumerate"
            and "cache.get" in child_names
            and "enumerate.step" in child_names,
            "span tree covers cache lookup and enumeration steps",
        )
        with urlopen(url + "/v1/traces", timeout=60) as response:
            listing = json.load(response)
        check(
            any(t["trace_id"] == trace_id for t in listing["traces"]),
            "/v1/traces lists the recorded trace",
        )

        # --- Prometheus text exposition -------------------------------
        with urlopen(url + "/metrics?format=prom", timeout=60) as response:
            check(
                response.headers.get("Content-Type", "").startswith(
                    "text/plain; version=0.0.4"
                ),
                "Prometheus /metrics content type",
            )
            prom = response.read().decode()
        check(
            "# TYPE repro_engine_test_total counter" in prom
            and "repro_serve_cache_entries" in prom,
            "Prometheus exposition carries counters and cache gauges",
        )
        for line in prom.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.partition(" ")
                check_ok = bool(re.match(r"^[a-zA-Z_][a-zA-Z0-9_]*(\{.*\})?$", name))
                if not check_ok:
                    check(False, f"Prometheus sample name parses: {line!r}")
                float(value)  # every sample value is numeric
        check(True, "every Prometheus sample line parses")

        # --- malformed input: clean 4xx, never a 500 ------------------
        for what, call in [
            ("bad query syntax", lambda: client.count(SPEC, "E(x,")),
            ("wrong arity", lambda: client.test(SPEC, QUERY, (1, 2, 3))),
            ("oversized page", lambda: client.enumerate_page(SPEC, QUERY, limit=10**6)),
            ("unknown family", lambda: client.count(family_spec("clique", 9), QUERY)),
        ]:
            try:
                call()
            except ServiceClientError as exc:
                check(exc.status == 400, f"{what} -> 400")
            else:
                check(False, f"{what} was not rejected")
    finally:
        code = stop(proc, signal.SIGINT, "server")
    if code is None:
        return 1
    check(code == 0, "server exited 0 on SIGINT")
    print(f"smoke_serve: all {_checks} checks passed{mode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
