"""Measurement helpers: child processes, process trees and latency summaries.

Everything here is stdlib-only and reads the kernel's own accounting:
``os.wait4`` for a child's CPU time and peak resident set, and ``/proc``
for the processes a long-lived server spawned and their peak
resident sets (Linux only).
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

#: Percentiles tried for a tail figure, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


@dataclass(frozen=True)
class ProcessRun:
    """One finished child process: its output and what it cost."""

    output: str
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_measured(
    argv: list[str], *, env: dict, cwd: Path, timeout: float
) -> ProcessRun:
    """Run ``argv`` to completion, timed from launch to exit.

    Standard error is merged into the captured output.  CPU time and
    peak RSS come from ``wait4`` on the child, so they cover the child
    and every descendant it waited for.  A child still running after
    ``timeout`` seconds is killed and the call raises ``TimeoutError``.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        output = proc.stdout.read()
        proc.stdout.close()
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        timed_out = not watchdog.is_alive()
        watchdog.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if timed_out:
        raise TimeoutError(f"{argv[:4]} ran longer than {timeout} s")
    return ProcessRun(
        output=output,
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=ru.ru_utime + ru.ru_stime,
        peak_rss_mb=ru.ru_maxrss / 1024.0,
    )


def process_tree(pid: int) -> list[int]:
    """``pid`` and all its live descendants, parents first (by ``PPid``)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        p = todo.pop(0)
        out.append(p)
        todo.extend(children.get(p, []))
    return out


def process_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of one live process, in MiB."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def wait_gone(pids: list[int], timeout: float) -> list[int]:
    """Wait until none of ``pids`` exists; returns the ones still there."""
    deadline = time.monotonic() + timeout
    alive = list(pids)
    while alive and time.monotonic() < deadline:
        alive = [p for p in alive if _exists(p)]
        if alive:
            time.sleep(0.02)
    return alive


def _exists(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@dataclass(frozen=True)
class Latency:
    """A latency sample set: median and tail, in the samples' unit."""

    n: int
    p50: float
    tail: float
    tail_label: str

    def describe(self, unit: str) -> str:
        return (
            f"p50 {self.p50:.4g} {unit}, {self.tail_label} "
            f"{self.tail:.4g} {unit} (n={self.n})"
        )


def summarize(samples: list[float]) -> Latency:
    """Median plus the highest ladder percentile with enough samples
    beyond it (nearest-rank); the maximum when no rung qualifies."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        idx = max(0, math.ceil(pct / 100.0 * n) - 1)
        if n - idx - 1 >= TAIL_MIN_BEYOND:
            label = f"p{pct:g}"
            return Latency(n, statistics.median(ordered), ordered[idx], label)
    return Latency(n, statistics.median(ordered), ordered[-1], "max")
