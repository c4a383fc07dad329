"""The repository benchmark: time to a certified verdict.

Usage, from the repository root::

    python3 perfbench/run.py --workload cli-certify --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

``cli-certify``
    Cycles of two CLI commands, each a fresh process:
    ``grid-prove``, ``python -m repro scenario grid --prove`` on the 4×4
    philosopher grid (sparse exploration, invariant, leads-to,
    synthesis, batched certificate check and the CLI's certificate
    summary), then ``compose-stack``, ``python -m repro scenario
    compose50 --stages 200`` (a 200-stage stack certified
    compositionally, with no product state explored).  One cycle is one
    request: certify both scenarios.
``service-mix``
    A live ``python -m repro serve --workers 2`` with a fresh cache,
    driven by a closed loop of 2 client threads over 2 HTTP connections
    with a seeded mix of cold, hot, duplicate and ``prove`` requests.

``--trace 0`` measures what a user pays and prints the end-to-end
metrics; ``--trace 1`` runs the workload once untraced (one cycle, or
the whole mix) plus three in-process passes per command (``layers.py``:
one plain, two traced) and prints the per-layer metrics.  The two traced passes must report identical work
counters.  Every verdict is checked against the hand-written table in
``expected.json`` (``--expected`` names another table); a wrong verdict
makes the run fail with exit code 1.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

End-to-end metrics.  Timings are medians, and each ``*_tail_ms`` is the
highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples beyond
it (the report line names it and the sample count).

- ``setup_s``: median of many set-ups.  cli-certify: launch to exit of
  ``python -m repro scenario list``, ``SETUPS_PER_CYCLE`` of them before
  each cycle, so that they sample the whole run as the cycles do (the
  host's speed shifts within seconds).  service-mix: ``SETUP_REPEATS``
  boots, from spawn
  of ``repro serve`` until ``/v1/health`` answers and every worker is up
  (the pool starts a worker on first dispatch, so set-up sends one
  trivial request per worker at once and waits until the pool reports
  them all idle).
- ``wall_s``: CLI, median over cycles of the two commands'
  launch-to-exit times summed; service-mix, first request sent to last
  reply received.
- ``cpu_s``: user + system CPU of the measured tree (the CLI processes
  of a cycle, median over cycles; the server and its workers over the
  server's life).
- ``peak_rss_mb``: CLI, the larger peak RSS of a cycle's two processes,
  median over cycles; service-mix, the sum of the server's and each
  worker's peak RSS.
- ``ok_ratio``: share of attempted properties (CLI) or requests (service)
  that ended in a decided verdict.  It stands in for a failure ratio,
  which would read 0; errors, UNKNOWNs, sheds, timeouts and crashes lower
  it, a wrong verdict fails the run instead.
- ``cold_rps``/``hot_rps``, ``cold_*``/``hot_*``: service-mix runs its
  cold phase (every key asked once; a duplicate sent at once by the other
  client is *dup*, reported, not a metric) and then its hot phase
  (repeats of answered keys); each class's throughput is its decided
  requests per second of its phase.  The CLI keeps no cache and answers
  one request per cycle, so on cli-certify these figures restate
  ``wall_s``: both latencies are the cycle walls and both throughputs
  are cycles per second of cycle time.

Per-layer metrics come from ``layers.py`` passes; a layer that a
workload does not run reports 0.  On cli-certify a layer's figure is
summed over the cycle's two commands (``import.repro_s`` counts both
imports), and ``cli.grid_prove_s``/``cli.compose_stack_s`` are the
untraced commands' own walls.  ``unattributed_s`` is, on cli-certify,
the untraced cycle's launch-to-exit walls minus the plain passes' layer
times (interpreter start, lazy engine imports, argument parsing,
printing and whatever else the CLI does outside the timed calls); the
report also shows the plain passes' own gap, which is measured in one
process per command and so free of run-to-run noise.  On
service-mix it is the client-observed request time minus each
request's in-process service cost (HTTP, queueing and contention).
``trace.overhead_s`` is the traced passes' mean wall minus the plain
pass's.  ``http.overhead_ms`` is the HTTP hot median minus the
in-process hot submit median; ``service.cache.*`` come from the
single-threaded in-process replay and repeat exactly, while
``service.coalesced``/``shed``/``pool.*`` come from the live server.

``--scale tiny`` runs the same code on small inputs (a 3×3 grid, a
5-stage stack, a handful of requests); the self-tests use it.

The runs are long and the CLI commands are joined into one workload
because the CLI figures are pure CPU time and follow the host's speed,
which drifts by tens of percent over minutes on a shared host; a longer
run averages more of that drift.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import CLI_ARGS
from mix import request_of
from measure import (
    process_hwm_mb,
    process_tree,
    run_measured,
    summarize,
    wait_gone,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics (``--trace 0``), with their units.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "cold_rps": "1/s",
    "hot_rps": "1/s",
    "hot_p50_ms": "ms",
    "hot_tail_ms": "ms",
    "cold_p50_ms": "ms",
    "cold_tail_ms": "ms",
}

#: The commands of a cli-certify cycle, in order.  Each names its
#: command line in ``layers.CLI_ARGS`` and its rows in ``expected.json``.
CLI_COMMANDS = ("grid-prove", "compose-stack")

#: Per-layer metrics (``--trace 1``), with their units.  A layer that a
#: workload does not run reports 0.
PER_LAYER = {
    "import.repro_s": "s",
    "build.program_s": "s",
    "dsl.parse_ms": "ms",
    "sparse.explore_s": "s",
    "sparse.nodes": "count",
    "sparse.levels": "count",
    "sparse.succ_entries": "count",
    "kernel.succ_of.calls": "count",
    "sparse.nodes_per_s": "1/s",
    "invariant.check_s": "s",
    "leadsto.check_s": "s",
    "graph.condensation_s": "s",
    "graph.condensation.components": "count",
    "graph.union_csr.edges": "count",
    "synthesis.synthesize_s": "s",
    "synthesis.levels": "count",
    "synthesis.rule_nodes": "count",
    "proof.check_s": "s",
    "proof.obligations": "count",
    "proof.levels_per_s": "1/s",
    "render.summary_s": "s",
    "compositional.certificate_s": "s",
    "compositional.check_s": "s",
    "compositional.obligations": "count",
    "compositional.frame_skips": "count",
    "compositional.footprint_evals": "count",
    "dense.verify_ms": "ms",
    "dense.states": "count",
    "service.boot_s": "s",
    "service.submit_hot_ms": "ms",
    "service.submit_cold_ms": "ms",
    "service.dispatch_ms": "ms",
    "http.overhead_ms": "ms",
    "service.cache.hits": "count",
    "service.cache.misses": "count",
    "service.cache.writes": "count",
    "service.cache.hit_ratio": "ratio",
    "service.coalesced": "count",
    "service.shed": "count",
    "service.pool.crashes": "count",
    "service.pool.retries": "count",
    "client.cpu_share": "ratio",
    "cli.grid_prove_s": "s",
    "cli.compose_stack_s": "s",
    "unattributed_s": "s",
    "trace.overhead_s": "s",
}

#: service-mix boots the server this many times per run; the median
#: boot is reported.
SETUP_REPEATS = 15

#: cli-certify measures this many set-ups before each cycle.
SETUPS_PER_CYCLE = 5

#: cli-certify runs at least this many cycles.
MIN_CYCLES = 2

#: Worker subprocesses and client threads of service-mix (``nproc`` = 2).
WORKERS = 2
CLIENTS = 2

#: A two-state program whose invariant trivially holds; set-up asks it
#: (under a fresh name, so a fresh key) once per worker.
WARM_PROGRAM = """program Warm{n}
declare shared x : int[0..1]
initially x = 0
assign
  fair up: x = 0 -> x := 1
end
"""
WARM_ATTEMPTS = 10

#: Any single child process is killed after this many seconds.
CHILD_TIMEOUT = 170.0


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, a dead server)."""


@dataclass
class Context:
    workload: str
    seed: int
    seconds: int
    scale: str
    expected_path: Path
    expected: dict
    work: Path
    env: dict
    report: list[str] = field(default_factory=list)

    @property
    def mix_path(self) -> Path:
        return self.work / "mix.json"

    def python(self, *args: str) -> list[str]:
        return [sys.executable, *args]

    def say(self, line: str) -> None:
        self.report.append(line)


@dataclass
class Outcome:
    """What a run attempted, how much failed, and what it measured."""

    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Verdict checking
# ---------------------------------------------------------------------------


def cli_verdicts(command: str, output: str) -> dict[str, str]:
    """The verdicts a CLI command printed, keyed like ``expected.json``."""
    found: dict[str, str] = {}
    for raw in output.splitlines():
        line = raw.strip()
        if command == "grid-prove":
            if line.startswith(("[HOLDS] reachable-invariant", "[FAILS] reachable-invariant")):
                found["mutual_exclusion"] = "holds" if line.startswith("[HOLDS]") else "fails"
            elif "[liveness(0):" in line:
                found["liveness(0)"] = "holds" if line.startswith("[HOLDS]") else "fails"
            elif line.startswith("proof OK:"):
                found["liveness(0) certificate"] = "certified"
            elif line.startswith("proof ") and "liveness(0) certificate" not in found:
                found["liveness(0) certificate"] = "rejected"
        elif line.startswith(("HOLDS [compositional]", "FAILS [compositional]")):
            found["delivery"] = "holds" if line.startswith("HOLDS") else "fails"
            found["delivery certificate"] = "certified" if "proof OK" in line else "rejected"
    return found


def judge(ctx: Context, command: str, found: dict[str, str], out: Outcome, where: str) -> None:
    """Count one CLI command's verdict set against the expected table.

    A missing verdict (an error, an UNKNOWN, a crash) counts as failed;
    a verdict that differs from the table makes the run wrong.
    """
    for row in ctx.expected[command]:
        out.attempted += 1
        got = found.get(row["id"])
        if got is None:
            out.failed += 1
        elif got != row["expect"]:
            out.wrong.append(f"{where}: {row['id']} {got}, expected {row['expect']}")


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------


def measure_cli_setup(ctx: Context, repeats: int) -> list[float]:
    """Launch-to-exit times of ``python -m repro scenario list``:
    interpreter start, ``import repro`` and the CLI up to its first input."""
    times = []
    for _ in range(repeats):
        run = run_measured(
            ctx.python("-m", "repro", "scenario", "list"),
            env=ctx.env, cwd=ROOT, timeout=CHILD_TIMEOUT,
        )
        if run.returncode != 0 or "compose50" not in run.output:
            raise BenchError(f"`repro scenario list` failed:\n{run.output}")
        times.append(run.wall_s)
    return times


def run_cycle(ctx: Context, out: Outcome) -> list:
    """Run every command of a cycle once, in order; one run per command."""
    runs = []
    for command in CLI_COMMANDS:
        argv = ctx.python("-m", "repro", *CLI_ARGS[(command, ctx.scale)])
        run = run_measured(argv, env=ctx.env, cwd=ROOT, timeout=CHILD_TIMEOUT)
        judge(ctx, command, cli_verdicts(command, run.output), out, f"cli {command}")
        runs.append(run)
    return runs


def cli_end_to_end(ctx: Context) -> Outcome:
    out = Outcome()
    setups, cycles, walls = [], [], []
    cpu0, t0 = time.process_time(), time.perf_counter()
    # Start another cycle while the cycles should end no later than half
    # a cycle past ``--seconds``, so that they fill it to within half a
    # cycle; the set-ups come on top.
    while len(cycles) < MIN_CYCLES or sum(walls) + statistics.median(walls) / 2 <= ctx.seconds:
        setups += measure_cli_setup(ctx, SETUPS_PER_CYCLE)
        cycles.append(run_cycle(ctx, out))
        walls.append(sum(r.wall_s for r in cycles[-1]))
    span = time.perf_counter() - t0
    client_cpu = time.process_time() - cpu0
    # One cycle is one request and nothing is cached, so the latency
    # and throughput figures restate the cycle walls.
    lat = summarize([w * 1000 for w in walls])
    rps = len(cycles) / sum(walls)
    out.metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(sum(r.cpu_s for r in c) for c in cycles),
        "peak_rss_mb": statistics.median(max(r.peak_rss_mb for r in c) for c in cycles),
        "cold_rps": rps,
        "hot_rps": rps,
        "hot_p50_ms": lat.p50,
        "hot_tail_ms": lat.tail,
        "cold_p50_ms": lat.p50,
        "cold_tail_ms": lat.tail,
    }
    ctx.say(f"cycles        : {len(cycles)} in {span:.2f} s; walls " + ", ".join(f"{w:.3f}" for w in walls))
    for i, command in enumerate(CLI_COMMANDS):
        ctx.say(f"  {command:<14}: walls " + ", ".join(f"{c[i].wall_s:.3f}" for c in cycles))
    ctx.say(f"latency       : {lat.describe('ms')}")
    ctx.say(f"set-ups       : {len(setups)}, " + ", ".join(f"{t:.3f}" for t in setups))
    ctx.say(f"client cpu    : {client_cpu:.3f} s ({client_cpu / span:.1%} of one core)")
    return out


# ---------------------------------------------------------------------------
# Service workload
# ---------------------------------------------------------------------------


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def get_health(port: int, timeout: float = 5.0) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", "/v1/health")
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


class Server:
    """One ``python -m repro serve`` process and its workers."""

    def __init__(self, ctx: Context, cache_dir: Path) -> None:
        self.port = free_port()
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            ctx.python(
                "-m", "repro", "serve", "--workers", str(WORKERS),
                "--port", str(self.port), "--cache-dir", str(cache_dir),
            ),
            cwd=ROOT, env=ctx.env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            self.boot_s = self._wait_ready(t0)
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, t0: float) -> float:
        """Seconds from spawn until every worker is up.

        The server answers ``/v1/health`` before any worker exists: the
        pool spawns a worker on first dispatch.  So once it answers,
        ``WORKERS`` trivial requests for distinct keys are sent at once,
        until the pool reports that many idle workers."""
        deadline = t0 + 60
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited with {self.proc.returncode}")
            try:
                get_health(self.port, timeout=1.0)
                break
            except OSError:
                if time.perf_counter() > deadline:
                    raise BenchError("server did not answer /v1/health within 60 s")
                time.sleep(0.005)
        for attempt in range(WARM_ATTEMPTS):
            replies: list[dict] = []
            threads = [
                threading.Thread(target=lambda i=i: replies.append(self._warm(attempt, i)))
                for i in range(WORKERS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            if any(r.get("status") != "ok" or r.get("holds") is not True for r in replies):
                raise BenchError(f"a set-up request failed: {replies}")
            if get_health(self.port)["pool"]["idle"] == WORKERS:
                return time.perf_counter() - t0
        raise BenchError(f"the pool did not start {WORKERS} workers")

    def _warm(self, attempt: int, i: int) -> dict:
        body = json.dumps({
            "program": WARM_PROGRAM.format(n=f"{attempt}x{i}"),
            "property": "invariant x >= 0",
        })
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("POST", "/v1/verify", body, {"Content-Type": "application/json"})
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def tree(self) -> list[int]:
        return process_tree(self.proc.pid)

    def stop(self):
        """Interrupt the server and wait for it; returns its rusage.

        The server kills and reaps its workers as it shuts down, so the
        rusage's CPU time covers them too.  Workers still present after
        the server is gone are killed and waited for.
        """
        if self.proc.returncode is not None:
            return None  # already reaped: it died while booting
        pids = self.tree()
        self.proc.send_signal(signal.SIGINT)
        deadline = time.monotonic() + 15
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                _, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        for pid in wait_gone(pids[1:], 10):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        wait_gone(pids[1:], 5)
        return usage


def make_mix(ctx: Context) -> dict:
    """Generate the seed's mix in a child process, so that this client
    process never imports the engine."""
    run = run_measured(
        ctx.python(
            str(HERE / "mix.py"), "--seed", str(ctx.seed), "--scale", ctx.scale,
            "--seconds", str(ctx.seconds), "--expected", str(ctx.expected_path),
            "--out", str(ctx.mix_path),
        ),
        env=ctx.env, cwd=ROOT, timeout=CHILD_TIMEOUT,
    )
    if run.returncode != 0:
        raise BenchError(f"mix generation failed:\n{run.output}")
    return json.loads(ctx.mix_path.read_text())


@dataclass
class Load:
    """The result of driving one server with the whole mix."""

    wall_s: float
    phase_s: dict[str, float]
    client_cpu_s: float
    latencies: dict[str, list[float]]
    health: dict
    server_rss_mb: float
    server_cpu_s: float = 0.0


def closed_loop(port: int, sequence: list[int], send) -> tuple[float, float]:
    """``CLIENTS`` threads, one keep-alive connection each, take the next
    key of ``sequence`` when their last request is answered.  ``send(conn,
    k)`` asks one key.  Returns (first send, last reply)."""
    lock = threading.Lock()
    state = {"next": 0}
    errors: list[BaseException] = []

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=CHILD_TIMEOUT)
        try:
            while True:
                with lock:
                    i = state["next"]
                    if i >= len(sequence):
                        return
                    state["next"] = i + 1
                send(conn, sequence[i])
        except BaseException as exc:  # surfaced after join
            errors.append(exc)
        finally:
            conn.close()

    t0 = time.perf_counter()
    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return t0, time.perf_counter()


def drive(ctx: Context, server: Server, mix: dict, out: Outcome) -> Load:
    """Run the mix's cold phase, then its hot phase, against ``server``.

    In the cold phase a request is *cold* if its key was never sent and
    *dup* otherwise (the twin of a key sent at once by the other client);
    every request of the hot phase is *hot*."""
    bodies = {
        k: json.dumps(request_of(mix, k)).encode()
        for k in set(mix["cold"]) | set(mix["hot"])
    }
    lock = threading.Lock()
    sent: set[int] = set()
    latencies: dict[str, list[float]] = {"cold": [], "dup": [], "hot": []}

    def send(conn, k: int, phase: str) -> None:
        with lock:
            cls = "hot" if phase == "hot" else "dup" if k in sent else "cold"
            sent.add(k)
        t0 = time.perf_counter()
        try:
            conn.request("POST", "/v1/verify", bodies[k], {"Content-Type": "application/json"})
            doc = json.loads(conn.getresponse().read())
        except (OSError, http.client.HTTPException, ValueError):
            conn.close()
            doc = {"status": "error", "error": {"code": "transport"}}
        dt = (time.perf_counter() - t0) * 1000
        q = mix["queries"][k]
        with lock:
            out.attempted += 1
            if doc.get("status") != "ok":
                out.failed += 1
                return
            if doc.get("holds") != q["expect"] or (
                q["prove"] and q["expect"] and doc.get("certified") is not True
            ):
                out.wrong.append(
                    f"{mix['programs'][q['program']]['name']} {q['label']}: "
                    f"holds={doc.get('holds')} certified={doc.get('certified')}"
                )
            latencies[cls].append(dt)

    ccpu0 = time.process_time()
    spans = {
        phase: closed_loop(server.port, mix[phase], lambda c, k, ph=phase: send(c, k, ph))
        for phase in ("cold", "hot")
    }
    client_cpu = time.process_time() - ccpu0
    return Load(
        wall_s=spans["hot"][1] - spans["cold"][0],
        phase_s={phase: end - start for phase, (start, end) in spans.items()},
        client_cpu_s=client_cpu,
        latencies=latencies,
        health=get_health(server.port),
        server_rss_mb=sum(process_hwm_mb(p) for p in server.tree()),
    )


def service_load(ctx: Context, boots: int) -> tuple[list[float], Load, Outcome]:
    """Boot the server ``boots`` times (timing each), keep the last one
    up and drive the whole mix against it."""
    out = Outcome()
    mix = make_mix(ctx)
    times = []
    server = None
    try:
        for i in range(boots):
            server = Server(ctx, ctx.work / f"cache-{i}")
            times.append(server.boot_s)
            if i + 1 < boots:
                server.stop()
                server = None
        load = drive(ctx, server, mix, out)
        usage, server = server.stop(), None
    finally:
        if server is not None:
            server.stop()
    load.server_cpu_s = usage.ru_utime + usage.ru_stime
    c = load.health.get("counters", {})
    pool = load.health.get("pool", {})
    cache = load.health.get("cache") or {}
    ctx.say(
        f"requests      : {out.attempted} ({len(load.latencies['cold'])} cold, "
        f"{len(load.latencies['hot'])} hot, {len(load.latencies['dup'])} dup) "
        f"over {len(mix['programs'])} programs, {len(mix['queries'])} keys"
    )
    ctx.say(
        f"server        : coalesced {c.get('coalesced')}, shed {c.get('shed')}, "
        f"crashes {pool.get('crashes')}, retries {pool.get('retries')}, "
        f"cache hits {cache.get('hits')} misses {cache.get('misses')} "
        f"writes {cache.get('writes')}"
    )
    ctx.say(
        f"client cpu    : {load.client_cpu_s:.3f} s "
        f"({load.client_cpu_s / load.wall_s:.1%} of one core)"
    )
    return times, load, out


def service_end_to_end(ctx: Context) -> Outcome:
    boots, load, out = service_load(ctx, SETUP_REPEATS)
    hot = summarize(load.latencies["hot"])
    cold = summarize(load.latencies["cold"])
    if load.latencies["dup"]:
        ctx.say(f"dup latency   : {summarize(load.latencies['dup']).describe('ms')}")
    ctx.say(f"hot latency   : {hot.describe('ms')}")
    ctx.say(f"cold latency  : {cold.describe('ms')}")
    ctx.say(
        f"phases        : cold {load.phase_s['cold']:.3f} s, "
        f"hot {load.phase_s['hot']:.3f} s"
    )
    ctx.say("boots         : " + ", ".join(f"{b:.3f}" for b in boots))
    out.metrics = {
        "setup_s": statistics.median(boots),
        "wall_s": load.wall_s,
        "cpu_s": load.server_cpu_s,
        "peak_rss_mb": load.server_rss_mb,
        "cold_rps": len(load.latencies["cold"]) / load.phase_s["cold"],
        "hot_rps": len(load.latencies["hot"]) / load.phase_s["hot"],
        "hot_p50_ms": hot.p50,
        "hot_tail_ms": hot.tail,
        "cold_p50_ms": cold.p50,
        "cold_tail_ms": cold.tail,
    }
    return out


# ---------------------------------------------------------------------------
# Traced runs
# ---------------------------------------------------------------------------


def layer_pass(ctx: Context, target: str, mode: str, mix_path: Path | None):
    """One ``layers.py`` child for ``target`` (a CLI command or
    ``service-mix``); returns (its result document, its wall)."""
    argv = ctx.python(
        str(HERE / "layers.py"), target, "--scale", ctx.scale,
        "--mode", mode,
        "--seconds", str(ctx.seconds), "--expected", str(ctx.expected_path),
        "--work", str(ctx.work),
    )
    if mix_path is not None:
        argv += ["--mix", str(mix_path)]
    run = run_measured(argv, env=ctx.env, cwd=ROOT, timeout=CHILD_TIMEOUT)
    if run.returncode != 0:
        raise BenchError(f"layer pass failed:\n{run.output}")
    return json.loads(run.output.strip().splitlines()[-1]), run.wall_s


def exact_counts(doc: dict) -> dict:
    """The work counters of a pass that must repeat exactly."""
    values = doc["values"]
    counts = dict(doc["counters"])
    for key in (
        "reachable", "rule_nodes", "levels", "obligations", "frame_skips",
        "footprint_evals", "states", "cache_hits", "cache_misses", "cache_writes",
    ):
        if key in values:
            counts[key] = values[key]
    return counts


@dataclass
class Passes:
    """The three ``layers.py`` passes over one target."""

    plain: dict
    traced: dict
    plain_wall: float
    overhead_s: float


def three_passes(ctx: Context, target: str, mix_path: Path | None, out: Outcome) -> Passes:
    """A plain pass and two traced passes; judges every pass's verdicts
    and requires the traced passes' work counters to agree exactly."""
    plain, plain_wall = layer_pass(ctx, target, "plain", mix_path)
    first, first_wall = layer_pass(ctx, target, "traced", mix_path)
    second, second_wall = layer_pass(ctx, target, "traced", mix_path)
    for doc in (plain, first, second):
        values = doc["values"]
        if target == "service-mix":
            out.wrong.extend(values["wrong"])
            out.failed += values["failed"]
        else:
            judge(ctx, target, values["verdicts"], out, f"in-process {target}")
    a, b = exact_counts(first), exact_counts(second)
    if a != b:
        diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        out.wrong.append(f"{target}: work counters differ between traced passes: {diff}")
    return Passes(plain, first, plain_wall, (first_wall + second_wall) / 2 - plain_wall)


def traced(ctx: Context) -> Outcome:
    """The workload once untraced, then three passes per command."""
    metrics = dict.fromkeys(PER_LAYER, 0)
    if ctx.workload == "service-mix":
        out, rows, total_s, what = _traced_service(ctx, metrics)
    else:
        out, rows, total_s, what = _traced_cli(ctx, metrics)
    explained = sum(t if p is None else p for _, p, t in rows)
    metrics["unattributed_s"] = total_s - explained
    ctx.say(f"attribution   : {what} {total_s:.3f} s")
    ctx.say(f"  {'layer':<44}{'plain s':>10}{'traced s':>10}")
    for label, p, t in rows:
        ctx.say(f"  {label:<44}{'' if p is None else f'{p:.3f}':>10}{t:>10.3f}")
    ctx.say(f"  {'unattributed_s':<44}{metrics['unattributed_s']:>10.3f}")
    ctx.say(f"  trace.overhead_s {metrics['trace.overhead_s']:.3f} (traced pass walls - plain)")
    out.metrics = metrics
    return out


def _traced_cli(ctx: Context, metrics: dict):
    """One untraced cycle, then per command a plain and two traced
    passes; layer times and work counts are summed over the commands."""
    out = Outcome()
    cpu0 = time.process_time()
    cycle = run_cycle(ctx, out)
    total_s = sum(r.wall_s for r in cycle)
    metrics["client.cpu_share"] = (time.process_time() - cpu0) / total_s
    for command, run in zip(CLI_COMMANDS, cycle):
        metrics[f"cli.{command.replace('-', '_')}_s"] = run.wall_s

    rows, layers, counters, values = [], {}, {}, {}
    plain_gap = 0.0
    for command in CLI_COMMANDS:
        p = three_passes(ctx, command, None, out)
        for name, seconds in p.traced["layers"].items():
            rows.append((f"{command}: {name}", p.plain["layers"].get(name, 0.0), seconds))
            layers[name] = layers.get(name, 0.0) + seconds
        for name, n in p.traced["counters"].items():
            counters[name] = counters.get(name, 0) + n
        values[command] = p.traced["values"]
        metrics["trace.overhead_s"] += p.overhead_s
        plain_gap += p.plain_wall - sum(p.plain["layers"].values())
    for name, seconds in layers.items():
        if name in metrics:
            metrics[name] = seconds
    metrics.update(_layer_counts(layers, values, counters))
    ctx.say(f"plain passes  : walls - their layers {plain_gap:.3f} s (in-process gap)")
    return out, rows, total_s, "untraced cycle's launch-to-exit walls"


def _traced_service(ctx: Context, metrics: dict):
    """The whole mix once against a live server, then the in-process
    passes over the start of the mix."""
    _, load, out = service_load(ctx, 1)
    c, pool = load.health.get("counters", {}), load.health.get("pool", {})
    metrics.update({
        "service.coalesced": c.get("coalesced", 0),
        "service.shed": c.get("shed", 0),
        "service.pool.crashes": pool.get("crashes", 0),
        "service.pool.retries": pool.get("retries", 0),
        "client.cpu_share": load.client_cpu_s / load.wall_s,
    })
    p = three_passes(ctx, "service-mix", ctx.mix_path, out)
    layers, values = p.traced["layers"], p.traced["values"]
    for name, seconds in layers.items():
        if name in metrics:
            metrics[name] = seconds
    metrics.update(_layer_counts(layers, {"service-mix": values}, p.traced["counters"]))
    metrics["trace.overhead_s"] = p.overhead_s
    hot = load.latencies["hot"]
    metrics["http.overhead_ms"] = (
        statistics.median(hot) - values["submit_hot_ms"] if hot else 0.0
    )
    # Client-observed time beyond the in-process service cost of each
    # request class: HTTP, queueing and contention.
    per_request = {
        "hot": values["submit_hot_ms"],
        "cold": values["submit_cold_ms"],
        "dup": values["submit_cold_ms"],
    }
    rows = [
        (f"{cls} requests ({len(v)} x {per_request[cls]:.1f} ms)", None,
         len(v) * per_request[cls] / 1000)
        for cls, v in load.latencies.items()
    ]
    total_s = sum(sum(v) for v in load.latencies.values()) / 1000
    return out, rows, total_s, "client-observed request time"


def _layer_counts(layers: dict, values: dict, counters: dict) -> dict:
    """Per-layer counts and rates; ``values`` holds each pass target's
    values by target."""
    c = counters.get
    m = {
        "sparse.nodes": c("sparse.bfs.nodes", 0),
        "sparse.levels": c("sparse.bfs.levels", 0),
        "sparse.succ_entries": c("sparse.bfs.succ_entries", 0),
        "kernel.succ_of.calls": c("kernel.succ_of.calls", 0),
        "graph.condensation.components": c("graph.condensation.components", 0),
        "graph.union_csr.edges": c("graph.union_csr.edges", 0),
        "synthesis.levels": c("synthesis.levels", 0),
        "proof.obligations": sum(
            v for k, v in counters.items() if k.startswith("proof.obligations.")
        ),
    }
    if "grid-prove" in values:
        v = values["grid-prove"]
        explore = layers.get("sparse.explore_s", 0.0)
        check = layers.get("proof.check_s", 0.0)
        m.update({
            "graph.condensation_s": v.get("condensation_s", 0.0),
            "synthesis.rule_nodes": v.get("rule_nodes", 0),
            "sparse.nodes_per_s": v.get("reachable", 0) / explore if explore else 0.0,
            "proof.levels_per_s": v.get("levels", 0) / check if check else 0.0,
        })
    if "compose-stack" in values:
        v = values["compose-stack"]
        m.update({
            "compositional.obligations": v.get("obligations", 0),
            "compositional.frame_skips": v.get("frame_skips", 0),
            "compositional.footprint_evals": v.get("footprint_evals", 0),
        })
    if "service-mix" in values:
        v = values["service-mix"]
        hits, misses = v["cache_hits"], v["cache_misses"]
        m.update({
            "dsl.parse_ms": v["parse_ms"],
            "dense.verify_ms": v["verify_ms"],
            "dense.states": v["states"],
            "service.submit_hot_ms": v["submit_hot_ms"],
            "service.submit_cold_ms": v["submit_cold_ms"],
            "service.dispatch_ms": v["dispatch_ms"],
            "service.cache.hits": hits,
            "service.cache.misses": misses,
            "service.cache.writes": v["cache_writes"],
            "service.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        })
    return m


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Repository benchmark.")
    parser.add_argument("--workload", required=True, choices=("cli-certify", "service-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--expected", type=Path, default=HERE / "expected.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no engine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    ctx = Context(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        scale=args.scale, expected_path=args.expected.resolve(),
        expected=json.loads(args.expected.read_text()), work=work, env=env,
    )
    try:
        _build(ctx)
        if args.trace:
            out = traced(ctx)
        elif args.workload == "service-mix":
            out = service_end_to_end(ctx)
        else:
            out = cli_end_to_end(ctx)
    except (BenchError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it

    if not args.trace:
        out.metrics["ok_ratio"] = (out.attempted - out.failed) / out.attempted
    units = PER_LAYER if args.trace else END_TO_END
    for line in ctx.report:
        print(line)
    for name, unit in units.items():
        print(f"{name:<32}{out.metrics[name]:>16.6g} {unit}")
    for line in out.wrong:
        print(f"INCORRECT: {line}")
    correct = not out.wrong
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": out.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


def _build(ctx: Context) -> None:
    """Compile the engine's bytecode once per checkout, so that no
    measured run pays for it."""
    run = run_measured(
        ctx.python("-m", "compileall", "-q", str(ROOT / "src")),
        env=ctx.env, cwd=ROOT, timeout=CHILD_TIMEOUT,
    )
    if run.returncode != 0:
        raise BenchError(f"bytecode compilation failed:\n{run.output}")


if __name__ == "__main__":
    raise SystemExit(main())
