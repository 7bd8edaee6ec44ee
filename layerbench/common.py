"""Shared plumbing for the layer-ledger benchmark.

Everything here sits outside the program under test: it launches
``repro serve`` as a child process, talks to it over keep-alive HTTP,
checks answers against the naive evaluator, and turns timings into
percentiles.  Nothing in ``src/`` is imported at module load, so
``run.py`` can refuse cleanly in a directory that holds no program.
"""

from __future__ import annotations

import http.client
import json
import os
import platform
import random
import resource
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".layerbench"

#: The paper's running example (dense answers, Case I with skip pointers)
#: and a two-hop join (sparse answers, near case with bag solvers).
DENSE = "dist(x, y) > 2 & Blue(y)"
SPARSE = "exists z. E(x, z) & E(z, y)"


def scrub_env() -> list[str]:
    """Drop every ``REPRO_*`` variable so the repo defaults are measured."""
    removed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in removed:
        del os.environ[key]
    return removed


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def machine_info() -> dict[str, Any]:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
    }


# ----------------------------------------------------------------------
# statistics


def quantile(values: list[float], q: float) -> float:
    """The ``q``-quantile by linear interpolation (values need not be sorted)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def weighted_quantile(pairs: list[tuple[float, int]], q: float) -> float:
    """Quantile of values each repeated ``weight`` times (nearest rank)."""
    ordered = sorted(p for p in pairs if p[1] > 0)
    total = sum(w for _, w in ordered)
    if not total:
        raise ValueError("no samples")
    rank = q * (total - 1)
    seen = 0
    for value, weight in ordered:
        seen += weight
        if seen > rank:
            return value
    return ordered[-1][0]


def median(values: list[float]) -> float:
    return quantile(values, 0.5)


class Tally:
    """What one measured window observed, in the units the report needs.

    ``delays`` holds ``(seconds per answer, answers)`` pairs: a call that
    carried ``a`` answers in ``t`` seconds contributes ``a`` samples of
    ``t / a``.  ``attempted``/``failed`` count operations, including the
    ones whose answer is checked later against the oracle.
    """

    def __init__(self) -> None:
        self.requests: list[float] = []
        self.delays: list[tuple[float, int]] = []
        self.answers = 0
        self.attempted = 0
        self.failed = 0
        self.elapsed = 0.0
        #: answers and seconds of work done with and without the
        #: benchmark's own spans recording (traced runs alternate)
        self.split = {True: [0, 0.0], False: [0, 0.0]}

    def call(self, seconds: float, answers: int) -> None:
        self.requests.append(seconds)
        self.attempted += 1
        if answers:
            self.answers += answers
            self.delays.append((seconds / answers, answers))

    def account(self, spanned: bool, answers: int, seconds: float) -> None:
        self.split[spanned][0] += answers
        self.split[spanned][1] += seconds

    def span_overhead_ratio(self) -> float:
        """Answers/s with the benchmark's spans on over answers/s with them off."""
        (on_answers, on_time), (off_answers, off_time) = self.split[True], self.split[False]
        return (on_answers / on_time) / (off_answers / off_time)

    def merge(self, other: "Tally") -> None:
        self.requests += other.requests
        self.delays += other.delays
        self.answers += other.answers
        self.attempted += other.attempted
        self.failed += other.failed
        for key in (True, False):
            self.split[key][0] += other.split[key][0]
            self.split[key][1] += other.split[key][1]


def end_to_end(setup_times: list[float], tally: Tally, memory_mb: float) -> dict:
    """The end-to-end metric block every workload reports."""
    return {
        "setup_s": (median(setup_times), "s"),
        "answers_per_s": (tally.answers / tally.elapsed, "1/s"),
        "answer_delay_p50_us": (weighted_quantile(tally.delays, 0.50) * 1e6, "us"),
        "answer_delay_p99_us": (weighted_quantile(tally.delays, 0.99) * 1e6, "us"),
        "request_p50_ms": (quantile(tally.requests, 0.50) * 1e3, "ms"),
        "request_p90_ms": (quantile(tally.requests, 0.90) * 1e3, "ms"),
        "memory_mb": (memory_mb, "MB"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# machine speed

#: Thread CPU seconds of one :func:`calibration_loop` at the reference
#: speed (about its median on the 2-core Xeon the benchmark was written on).
REFERENCE_CALIBRATION_S = 1.3e-3


def calibration_loop() -> float:
    """Thread CPU seconds of a fixed loop of dict, tuple and int work.

    The loop does the kind of work the engine does, so its time follows
    the machine's momentary speed the way the engine's does (correlation
    about 0.95 over 0.5 s chunks of ``enum-inproc`` rounds).  Thread CPU
    time leaves out waits for the GIL when it runs beside a build.
    """
    table: dict[int, tuple] = {}
    total = 0
    start = time.thread_time()
    for i in range(4000):
        table[i & 1023] = (i, total)
        total += len(table.get((i * 7) & 1023, ()))
    return time.thread_time() - start


def speed_factor(calibrations: list[float]) -> float:
    """Multiplier from a raw CPU-bound time to reference-speed time.

    The host's speed swings by up to 2x within seconds; a time scaled by
    the calibration loop's time at that moment does not.
    """
    return REFERENCE_CALIBRATION_S / median(calibrations)


@contextmanager
def sampling(measure: Callable[[], float], period: float) -> Iterator[list[float]]:
    """Call ``measure`` every ``period`` s from a background thread while
    the block runs.

    Yields the list the results go into; it holds at least one result
    once the block has exited.  With :func:`calibration_loop` every
    50 ms, a build beside it loses about 2% of the GIL, the same share in
    every run.
    """
    samples: list[float] = []
    stop = threading.Event()

    def sample() -> None:
        while not stop.wait(period):
            samples.append(measure())

    thread = threading.Thread(target=sample, daemon=True)
    thread.start()
    try:
        yield samples
    finally:
        stop.set()
        thread.join()
        if not samples:
            samples.append(measure())


# ----------------------------------------------------------------------
# correctness oracle


def increment(values: tuple[int, ...], n: int) -> tuple[int, ...] | None:
    """The lexicographic successor in ``[0, n)^k``; None past the end."""
    out = list(values)
    for i in range(len(out) - 1, -1, -1):
        if out[i] + 1 < n:
            out[i] += 1
            return tuple(out)
        out[i] = 0
    return None


class Oracle:
    """Answers by direct evaluation: the naive baseline's per-tuple check.

    ``repro.logic.semantics.satisfies`` is what ``repro.baselines.naive``
    materializes over every tuple; distance atoms go through cutoff BFS,
    the same test as ``repro.baselines.bfs_oracle``.  Evaluating single
    tuples instead of materializing ``n^2`` of them keeps a check at
    n = 4096 in milliseconds.
    """

    def __init__(self, graph: Any, query: str) -> None:
        from repro.logic.parser import parse_formula
        from repro.logic.semantics import satisfies
        from repro.logic.transform import free_variables

        self.graph = graph
        self.n = graph.n
        self.phi = parse_formula(query)
        self.order = sorted(free_variables(self.phi), key=lambda v: v.name)
        self._satisfies = satisfies

    def test(self, values: tuple[int, ...]) -> bool:
        if any(v < 0 or v >= self.n for v in values):
            return False
        return self._satisfies(self.graph, self.phi, tuple(values), self.order)

    def next(self, start: tuple[int, ...]) -> tuple[int, ...] | None:
        current: tuple[int, ...] | None = tuple(start)
        while current is not None:
            if self.test(current):
                return current
            current = increment(current, self.n)
        return None

    def page_ok(
        self,
        cursor: tuple[int, ...],
        items: list[tuple[int, ...]],
        next_cursor: tuple[int, ...] | None,
        rng: random.Random,
        spot_checks: int = 4,
    ) -> bool:
        """A page is sorted, all solutions, gap-free at sampled seams."""
        if not items:
            return next_cursor is None and self.next(cursor) is None
        if self.next(cursor) != items[0]:
            return False
        if any(a >= b for a, b in zip(items, items[1:])):
            return False
        if not all(self.test(item) for item in items):
            return False
        seams = list(range(len(items)))
        rng.shuffle(seams)
        for i in seams[:spot_checks]:
            bumped = increment(items[i], self.n)
            expected = items[i + 1] if i + 1 < len(items) else next_cursor
            if (None if bumped is None else self.next(bumped)) != expected:
                return False
        return True


# ----------------------------------------------------------------------
# serving processes


class Server:
    """One ``repro serve`` process family, launched in its own session.

    The URL is read from the line the server prints at startup; stdout
    and stderr go to files in the run directory so a chatty server can
    never block on a full pipe.
    """

    def __init__(self, args: list[str], run_dir: Path, name: str) -> None:
        self.name = name
        self.out_path = run_dir / f"{name}.out"
        self.err_path = run_dir / f"{name}.err"
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
                stdout=out,
                stderr=err,
                stdin=subprocess.DEVNULL,
                cwd=ROOT,
                env=child_env(),
                start_new_session=True,
            )
        self.host, self.port = self._await_url(timeout=120.0)

    def _await_url(self, timeout: float) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            text = self.out_path.read_text(errors="replace")
            if "http://" in text:
                address = text.split("http://", 1)[1].split()[0]
                host, port = address.rsplit(":", 1)
                return host, int(port)
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        self.stop()
        raise RuntimeError(
            f"{self.name}: server did not start; stderr tail: "
            f"{self.err_path.read_text(errors='replace')[-2000:]}"
        )

    def family(self) -> list[int]:
        """Live pids in the server's process group (parent and workers)."""
        pids = []
        for entry in Path("/proc").iterdir():
            if not entry.name.isdigit():
                continue
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            fields = stat.rsplit(")", 1)[1].split()
            if int(fields[2]) == self.proc.pid and fields[0] != "Z":
                pids.append(int(entry.name))
        return pids

    def pss_mb(self) -> float:
        """Summed proportional set size of the whole process family."""
        total_kb = 0
        for pid in self.family():
            try:
                rollup = Path(f"/proc/{pid}/smaps_rollup").read_text()
            except OSError:
                continue
            for line in rollup.splitlines():
                if line.startswith("Pss:"):
                    total_kb += int(line.split()[1])
                    break
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGTERM the parent (it tears its workers down), then make sure."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        deadline = time.monotonic() + 20
        while self.family() and time.monotonic() < deadline:
            time.sleep(0.05)

    def connect(self) -> "Conn":
        return Conn(self.host, self.port)

    def stats(self) -> dict:
        conn = self.connect()
        try:
            return conn.get("/v1/stats")
        finally:
            conn.close()


class Conn:
    """A keep-alive client connection that times each round trip."""

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=120.0)

    def post(self, path: str, payload: dict) -> tuple[int, dict, float, dict]:
        """``(status, body, seconds, info)``; info has response bytes/worker."""
        body = json.dumps(payload).encode()
        start = time.perf_counter()
        self.conn.request(
            "POST", path, body=body, headers={"Content-Type": "application/json"}
        )
        response = self.conn.getresponse()
        data = response.read()
        elapsed = time.perf_counter() - start
        info = {"bytes": len(data), "worker": response.getheader("X-Repro-Worker")}
        return response.status, json.loads(data), elapsed, info

    def get(self, path: str) -> dict:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        return json.loads(response.read())

    def close(self) -> None:
        self.conn.close()


def answers_in(path: str, body: dict) -> int:
    """How many answers one successful response carried."""
    if path == "/v1/enumerate":
        return len(body.get("items", []))
    if path == "/v1/batch":
        return len(body.get("results", []))
    return 1


def cache_totals(stats: Any) -> dict[str, int]:
    """Sum every ``IndexCache.snapshot_stats()`` block found in a stats payload."""
    totals = {"hits": 0, "joined": 0, "snapshot_loads": 0, "builds": 0}
    stack = [stats]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            cache = node.get("cache")
            if isinstance(cache, dict) and "hits" in cache:
                for key in totals:
                    totals[key] += int(cache.get(key, 0))
            stack.extend(v for k, v in node.items() if k != "cache")
        elif isinstance(node, list):
            stack.extend(node)
    return totals
