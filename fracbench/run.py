"""Benchmark for the fracorder package: end-to-end metrics, or per-layer ones.

Run from the repository root:

    python3 fracbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace 1``
runs the same ops untraced and then traced, and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every figure by name and unit, the environment and the behaviour
fingerprint.  The package is imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import shutil
import sys
import time
from dataclasses import dataclass

from measure import (
    THREADS_VAR,
    Fingerprint,
    child_env,
    median,
    run_child,
    self_peak_rss_mb,
    tail_latency,
)
from tracing import LAYER_METRICS, Tracer, layer_metrics
from workloads import WORKLOADS, Op, Outcome, Workload

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
THREADS_BEFORE = os.environ.get(THREADS_VAR)

# name, unit, better; every workload reports all of them
E2E_METRICS = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

SETUP_PROBES = 5
CLI_PROBES = 3


def use_sources() -> None:
    """Import the package from the sources next to the benchmark."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


@dataclass
class PassResult:
    ops: list[tuple[Op, Outcome, float]]
    blocks: int
    fingerprint: str
    scored_ops: int

    @property
    def latencies(self) -> list[float]:
        return [lat for _, _, lat in self.ops]

    @property
    def failures(self) -> list[str]:
        return [o.detail for _, o, _ in self.ops if not o.ok]


def run_op(wl: Workload, op: Op, fp: Fingerprint | None) -> tuple[Outcome, float]:
    """Time one op, then check its outputs; returns the outcome and latency."""
    t0 = time.perf_counter()
    latency = None
    try:
        result = wl.execute(op)
        latency = time.perf_counter() - t0
        return wl.check(op, result, fp), latency
    except Exception as exc:  # an op that raises is a failed op, not a dead run
        if latency is None:
            latency = time.perf_counter() - t0
        return Outcome(False, f"{op.kind} {op.params!r} raised {exc!r}"), latency


def run_pass(wl: Workload, seconds: float, prefix_blocks: int, blocks: int | None = None,
             tracer: Tracer | None = None) -> PassResult:
    """Closed loop over whole blocks: until ``seconds`` have passed and the
    first ``prefix_blocks`` (the scored prefix) are done, or for exactly
    ``blocks`` blocks."""
    fp = Fingerprint()
    ops: list[tuple[Op, Outcome, float]] = []
    scored = 0
    t_start = time.perf_counter()
    b = 0
    while True:
        if blocks is not None:
            if b >= blocks:
                break
        elif b >= prefix_blocks and time.perf_counter() - t_start >= seconds:
            break
        in_prefix = b < prefix_blocks
        for op in wl.block(b):
            if tracer is not None:
                tracer.current_op = len(ops)
            outcome, latency = run_op(wl, op, fp if in_prefix else None)
            ops.append((op, outcome, latency))
            scored += in_prefix
        b += 1
    if tracer is not None:
        tracer.current_op = -1
    return PassResult(ops, b, fp.hexdigest(), scored)


def measure_setup(name: str, seed: int, tiny: bool, work_dir: str, probes: int) -> list[float]:
    """Process start to first timed op, in fresh children: import, inputs, warm-up."""
    argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", name,
            "--seed", str(seed), "--setup-probe", "--out-dir", work_dir] + (["--tiny"] if tiny else [])
    env = child_env(SRC)
    samples = []
    for k in range(probes):
        started = time.time()
        run = run_child(argv, env, ROOT, os.path.join(work_dir, f"setup-probe-{k}"))
        if run.returncode != 0:
            raise RuntimeError(f"setup probe failed: {run.stderr.decode()[-2000:]}")
        samples.append(float(run.stdout.split()[-1]) - started)
    return samples


def setup_probe(name: str, seed: int, tiny: bool, out_dir: str) -> int:
    wl = WORKLOADS[name](seed, ROOT, os.path.join(out_dir, f"work-{os.getpid()}"), tiny)
    os.makedirs(wl.work_dir, exist_ok=True)
    try:
        wl.setup()
        outcome, _ = run_op(wl, wl.warmup, None)
        if not outcome.ok:
            raise RuntimeError(f"warm-up op failed: {outcome.detail}")
        print(repr(time.time()))
    finally:
        shutil.rmtree(wl.work_dir, ignore_errors=True)
    return 0


def cli_import_times(out_dir: str, repeats: int) -> dict[str, float]:
    """Cold interpreter and import costs, timed as fresh child processes."""
    env = child_env(SRC)
    snippets = {
        "interp": "pass",
        "numpy": "import numpy",
        "scipy": "import numpy, scipy.linalg",
        "cli": "import fracorder.cli",
    }
    med = {}
    for key, code in snippets.items():
        times = []
        for k in range(repeats):
            run = run_child([sys.executable, "-c", code], env, ROOT, os.path.join(out_dir, f"import-{key}-{k}"))
            if run.returncode != 0:
                raise RuntimeError(f"{code!r} failed: {run.stderr.decode()[-2000:]}")
            times.append(run.seconds)
        med[key] = median(times)
    return {
        "cli.interp_s": med["interp"],
        "cli.import_s": med["cli"] - med["interp"],
        "cli.import.numpy_s": med["numpy"] - med["interp"],
        "cli.import.scipy_linalg_s": med["scipy"] - med["numpy"],
    }


def environment(seed: int) -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        THREADS_VAR: f"removed for every op, in-process and in children (was {THREADS_BEFORE!r})",
    }


def _sum_facts(ops) -> dict[str, float]:
    facts: dict[str, float] = {}
    for _, o, _ in ops:
        for key, value in o.facts.items():
            facts[key] = facts.get(key, 0.0) + value
    return facts


def end_to_end(wl: Workload, res: PassResult, setup_samples: list[float]) -> tuple[dict, list[str]]:
    lat = res.latencies
    tail, pct, n = tail_latency(lat)
    rss = self_peak_rss_mb() if wl.in_process else max(o.rss_mb for _, o, _ in res.ops)
    metrics = {
        "setup_s": median(setup_samples),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1000.0 * median(lat),
        "op_tail_ms": 1000.0 * tail,
        "peak_rss_mb": rss,
    }
    units = {name: unit for name, unit, _ in E2E_METRICS}
    extra = {
        "failed_share": (len(res.failures) / len(lat), "share"),
        "op_tail_percentile": (pct, "%"),
        "op_samples": (float(n), "count"),
        "setup_samples": (float(len(setup_samples)), "count"),
    }
    facts = _sum_facts(res.ops)
    if "fodesolver.nodes" in facts:
        extra["nodes_per_s"] = (facts["fodesolver.nodes"] / sum(lat), "1/s")
    extra.update(wl.summary([(op, o) for op, o, _ in res.ops[: res.scored_ops]]))
    lines = [f"{k} = {v!r} {units[k]}" for k, v in metrics.items()]
    lines += [f"{k} = {v!r} {u}" for k, (v, u) in extra.items()]
    return metrics, lines


def per_layer(wl: Workload, untraced: PassResult, traced: PassResult, tracer: Tracer,
              cli_times: dict[str, float]) -> dict[str, float]:
    measured = dict(cli_times)
    by_kind: dict[str, list[float]] = {}
    for op, _, lat in traced.ops:
        by_kind.setdefault(op.kind, []).append(lat)
    for kind in ("estimate", "caputo", "fode"):
        in_child = not wl.in_process and kind in by_kind
        measured[f"cli.{kind}.s"] = median(by_kind[kind]) if in_child else 0.0
    facts = _sum_facts(traced.ops)
    measured["cli.bytes_out"] = facts.get("cli.bytes_out", 0.0) / len(traced.ops)
    measured["trace.overhead_share"] = median(traced.latencies) / median(untraced.latencies)
    return layer_metrics(tracer.totals(), len(traced.ops), facts, tracer.counts, measured)


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                  out_dir: str | None = None) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the report lines."""
    os.environ.pop(THREADS_VAR, None)
    use_sources()
    out_dir = out_dir or os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    # users pay for compiling bytecode once, so it is not part of set-up
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(BENCH_DIR, quiet=1, maxlevels=0)

    lines = [f"fracbench workload={name} seed={seed} seconds={seconds} trace={int(trace)}"]
    wl = WORKLOADS[name](seed, ROOT, os.path.join(out_dir, f"work-{os.getpid()}"), tiny)
    os.makedirs(wl.work_dir, exist_ok=True)
    try:
        setup_samples = [] if trace else measure_setup(
            name, seed, tiny, wl.work_dir, 1 if tiny else SETUP_PROBES
        )
        wl.setup()
        warm, _ = run_op(wl, wl.warmup, None)
        if not warm.ok:
            raise RuntimeError(f"warm-up op failed: {warm.detail}")
        if trace:
            # per-layer figures need no full scored prefix: half the time
            # untraced, then the same blocks again traced
            untraced = run_pass(wl, seconds / 2, 1)
        else:
            untraced = run_pass(wl, seconds, wl.min_blocks)
        runs = [untraced]
        if trace:
            cli_times = cli_import_times(wl.work_dir, 1 if tiny else CLI_PROBES)
            tracer = Tracer()
            tracer.install()
            try:
                wl.prepare_traced(tracer)
                traced = run_pass(wl, 0.0, 1, blocks=untraced.blocks, tracer=tracer)
            finally:
                tracer.uninstall()
            runs.append(traced)
            values = per_layer(wl, untraced, traced, tracer, cli_times)
            units = {n: u for n, u, _, _ in LAYER_METRICS}
            metrics = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
            spans_path = os.path.join(out_dir, f"spans-{name}-{seed}.csv.gz")
            tracer.write(spans_path)
            lines += [f"{n} = {v!r} {units[n]}   moves: {moves}"
                      for (n, _, _, moves), v in zip(LAYER_METRICS, values.values())]
            lines.append(f"spans: {len(tracer)} written to {os.path.relpath(spans_path, ROOT)}")
            if traced.fingerprint != untraced.fingerprint:
                lines.append("warning: traced outputs differ from untraced outputs")
        else:
            values, e2e_lines = end_to_end(wl, untraced, setup_samples)
            units = {n: u for n, u, _ in E2E_METRICS}
            metrics = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
            lines += e2e_lines
    finally:
        shutil.rmtree(wl.work_dir, ignore_errors=True)

    failures = [d for r in runs for d in r.failures]
    attempted = sum(len(r.ops) for r in runs)
    lines.insert(1, "env " + json.dumps(environment(seed)))
    lines.insert(2, f"fingerprint {untraced.fingerprint} (sha256 of the outputs of the "
                    f"first {untraced.scored_ops} ops)")
    lines += [f"failed: {d}" for d in failures[:10]]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, lines



def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", default=os.path.join(BENCH_DIR, "out"))
    # internal: the child that set-up time is measured on
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    # smallest inputs, for the benchmark's own tests
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fracorder", "__init__.py")):
        print(f"error: no package sources at {SRC}", file=sys.stderr)
        return 2
    use_sources()
    if args.setup_probe:
        return setup_probe(args.workload, args.seed, args.tiny, args.out_dir)
    result, lines = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, args.out_dir
    )
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
