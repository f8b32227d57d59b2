"""Statistics, fingerprints and child-process helpers shared by the workloads."""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass

# the tail percentile is the highest one with at least this many samples beyond it
TAIL_SAMPLES_BEYOND = 10

THREADS_VAR = "FRACORDER_THREADS"


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def tail_latency(values: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least 10 samples beyond it.

    With n samples sorted ascending, the value at 0-based rank n - 11 has
    exactly ten samples above it, so it sits at percentile 100 * (n - 10) / n.
    Returns ``(value, percentile, sample count)``; with ten samples or fewer
    no percentile qualifies and the smallest sample is reported at 0.
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail_latency needs at least one sample")
    ordered = sorted(values)
    rank = max(n - TAIL_SAMPLES_BEYOND - 1, 0)
    percentile = 100.0 * max(n - TAIL_SAMPLES_BEYOND, 0) / n
    return ordered[rank], percentile, n


class Fingerprint:
    """sha256 over op outputs in op order; floats as shortest round-trip reprs."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add_floats(self, values) -> None:
        self._h.update(",".join(repr(float(v)) for v in values).encode())
        self._h.update(b"\n")

    def add_bytes(self, data: bytes) -> None:
        self._h.update(len(data).to_bytes(8, "little"))
        self._h.update(data)

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def self_peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env(src_dir: str) -> dict[str, str]:
    """Environment for package children: threads knob removed, sources first."""
    env = {k: v for k, v in os.environ.items() if k != THREADS_VAR}
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir if not old else src_dir + os.pathsep + old
    return env


@dataclass
class ChildRun:
    returncode: int
    seconds: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes


def run_child(
    argv: list[str], env: dict[str, str], cwd: str, log_stem: str, timeout: float = 120.0
) -> ChildRun:
    """Run one child to completion: exit code, wall time, its own peak RSS.

    Output goes to ``log_stem.out`` / ``log_stem.err`` so a chatty child can
    never block on a full pipe.  The child is reaped with ``wait4``, which
    reports its own resource usage rather than the running maximum over all
    children; a timer kills it if it outlives ``timeout``.
    """
    with open(log_stem + ".out", "wb") as out, open(log_stem + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_stem + ".out", "rb") as f:
        stdout = f.read()
    with open(log_stem + ".err", "rb") as f:
        stderr = f.read()
    return ChildRun(proc.returncode, seconds, usage.ru_maxrss / 1024.0, stdout, stderr)
