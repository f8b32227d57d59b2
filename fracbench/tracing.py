"""Span tracing from outside the package, and the per-layer metrics it yields.

Wrappers go on the module attributes of ``fracorder`` wherever a traced
function is bound (``tikhonov.eval_basis`` as well as ``regbasis.eval_basis``),
so calls between modules are seen without changing any package code.  Each
call records a span: name, start, end, parent span and op id.  Spans stay in
compact arrays until the run ends.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from typing import Callable

# (module, attribute, span name); a callable span name picks the name per call
TRACED: list[tuple[str, str, str | Callable]] = [
    ("fracorder.regbasis", "eval_basis", "regbasis.eval_basis"),
    ("fracorder.regbasis", "antideriv_basis", "regbasis.antideriv_basis"),
    ("fracorder.regbasis", "gram_matrix", "regbasis.gram_matrix"),
    ("fracorder.tikhonov", "fit", "tikhonov.fit"),
    ("fracorder.tikhonov", "design_matrix", "tikhonov.design_matrix"),
    ("fracorder.tikhonov", "model_eval", "tikhonov.model_eval"),
    ("fracorder.tikhonov", "model_integral", "tikhonov.model_integral"),
    ("fracorder.tikhonov", "model_integral_weighted", "tikhonov.model_integral_weighted"),
    ("fracorder.orderest", "run_pipeline", "orderest.run_pipeline"),
    ("fracorder.orderest", "ratio_estimate", "orderest.ratio_estimate"),
    ("fracorder.orderest", "log_estimate", "orderest.log_estimate"),
    ("fracorder.orderest", "quasi_opt_select", "orderest.quasi_opt_select"),
    ("fracorder.concurrency", "ordered_map", "concurrency.ordered_map"),
    ("fracorder.obsmodel", "example71_observation", "obsmodel.observation"),
    ("fracorder.obsmodel", "example72_observation", "obsmodel.observation"),
    ("fracorder.scenarios", "run_sweep_cell", "scenarios.run_sweep_cell"),
    ("fracorder.scenarios", "manufactured_power_case", "scenarios.manufactured_case"),
    ("fracorder.scenarios", "manufactured_smooth_case", "scenarios.manufactured_case"),
    (
        "fracorder.fodesolver",
        "solve",
        lambda problem, *_: "fodesolver.solve."
        + ("linear" if problem.nonlinearity is None else "nonlinear"),
    ),
    ("fracorder.fodesolver", "FodeProblem.forcing_at", "fodesolver.forcing_at"),
    ("fracorder.fodesolver", "verify_linking", "fodesolver.verify_linking"),
    ("fracorder.fraccalc", "ratio_limit_probe", "fraccalc.ratio_limit_probe"),
    ("fracorder.fraccalc", "caputo_l1", "fraccalc.caputo_l1"),
    ("fracorder.fraccalc", "rl_integral", "fraccalc.rl_integral"),
]


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.current_op = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open_span(self, name: str, start: float) -> int:
        idx = len(self.start)
        self.name_of.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.start.append(start)
        self.end.append(start)
        self._stack.append(idx)
        return idx

    def close_span(self, idx: int, end: float) -> None:
        self._stack.pop()
        self.end[idx] = end

    def wrap(self, fn: Callable, name: str | Callable) -> Callable:
        clock = time.perf_counter
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            idx = self.open_span(fixed or name(*args, **kwargs), clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.close_span(idx, clock())

        traced.__wrapped__ = fn
        return traced

    def counting(self, name: str, fn: Callable) -> Callable:
        """Wrap a callback the benchmark hands to the package: count calls only."""
        self.counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, targets=TRACED) -> None:
        """Wrap every binding of each target across the loaded package modules.

        Modules the workload never imported are left alone.
        """
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "fracorder" or n.startswith("fracorder."))
        ]
        for mod_name, attr, span_name in targets:
            owner = sys.modules.get(mod_name)
            if owner is None:
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self.wrap(original, span_name)
            holders = [owner] if path else [
                m for m in modules if getattr(m, leaf, None) is original
            ]
            for holder in holders:
                setattr(holder, leaf, wrapper)
                self._installed.append((holder, leaf, original))

    def uninstall(self) -> None:
        for holder, leaf, original in reversed(self._installed):
            setattr(holder, leaf, original)
        self._installed.clear()

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> array:
        """Each span's duration minus the part of it its children cover.

        Spans are stored in the order they opened, so each parent sees its
        children by increasing start and their union grows left to right.
        """
        covered = array("d", bytes(8 * len(self.start)))
        reach = array("d", [float("-inf")]) * len(self.start)
        for k, p in enumerate(self.parent):
            if p < 0:
                continue
            s = max(self.start[k], self.start[p], reach[p])
            e = min(self.end[k], self.end[p])
            if e > s:
                covered[p] += e - s
                reach[p] = e
        return array("d", (e - s - c for s, e, c in zip(self.start, self.end, covered)))

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        selfs = self.self_times()
        agg: dict[str, dict[str, float]] = {}
        for idx in range(len(self.start)):
            a = agg.setdefault(self.names[self.name_of[idx]], {"calls": 0, "s": 0.0, "self_s": 0.0})
            a["calls"] += 1
            a["s"] += self.end[idx] - self.start[idx]
            a["self_s"] += selfs[idx]
        return agg

    def write(self, path: str) -> None:
        """All spans as gzipped CSV: name, op, parent, start, end (seconds)."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span,name,op,parent,start,end\n")
            for idx in range(len(self.start)):
                f.write(
                    f"{idx},{self.names[self.name_of[idx]]},{self.op[idx]},"
                    f"{self.parent[idx]},{self.start[idx]!r},{self.end[idx]!r}\n"
                )


# Per-layer metrics: name, unit, better, and the end-to-end metric and workload
# each should move.  "per op" divides by the ops of the traced pass; "per call"
# by the calls of that span.  A layer a workload never reaches reads 0.
LAYER_METRICS: list[tuple[str, str, str, str]] = [
    ("regbasis.eval_basis.calls_per_op", "count", "lower", "ops_per_s, op_p50_ms on sweep; nothing on march or calculus"),
    ("regbasis.eval_basis.self_s", "s", "lower", "ops_per_s, op_p50_ms on sweep; nothing on march or calculus"),
    ("regbasis.antideriv_basis.calls_per_op", "count", "lower", "ops_per_s, op_p50_ms on sweep"),
    ("regbasis.gram_matrix.calls_per_op", "count", "lower", "ops_per_s, op_p50_ms on sweep"),
    ("regbasis.gram_matrix.self_s", "s", "lower", "ops_per_s, op_p50_ms on sweep"),
    ("tikhonov.fit.calls_per_op", "count", "lower", "ops_per_s on sweep"),
    ("tikhonov.fit.self_s", "s", "lower", "ops_per_s on sweep"),
    ("tikhonov.design_matrix.calls_per_op", "count", "lower", "ops_per_s on sweep"),
    ("tikhonov.design_matrix.self_s", "s", "lower", "ops_per_s on sweep"),
    ("tikhonov.model_eval.calls_per_op", "count", "lower", "ops_per_s on sweep"),
    ("tikhonov.model_integral.calls_per_op", "count", "lower", "ops_per_s on sweep"),
    ("tikhonov.model_integral_weighted.self_s", "s", "lower", "ops_per_s on sweep (sweep-2 cells only)"),
    ("orderest.run_pipeline.s", "s", "lower", "op_p50_ms on sweep; a ~0.1 s slice of estimate ops on cli-cold"),
    ("orderest.ratio_estimate.self_s", "s", "lower", "op_p50_ms on sweep"),
    ("orderest.log_estimate.self_s", "s", "lower", "op_p50_ms on sweep"),
    ("orderest.quasi_opt_select.s", "s", "lower", "op_p50_ms on sweep"),
    ("orderest.distinct_row_share", "share", "higher", "ops_per_s, nu_ratio_abs_err, ratio_in_band_share on sweep"),
    ("orderest.degenerate_share", "share", "lower", "ops_per_s, nu_ratio_abs_err, ratio_in_band_share on sweep"),
    ("concurrency.ordered_map.s", "s", "lower", "ops_per_s on sweep"),
    ("obsmodel.observation.s", "s", "lower", "op_p50_ms on sweep"),
    ("scenarios.run_sweep_cell.s", "s", "lower", "op_p50_ms on sweep"),
    ("scenarios.manufactured_case.s", "s", "lower", "setup_s on march"),
    ("fodesolver.solve.linear_s", "s", "lower", "nodes_per_s on march"),
    ("fodesolver.solve.nonlinear_s", "s", "lower", "nodes_per_s on march"),
    ("fodesolver.nodes_per_op", "count", "higher", "nodes_per_s on march"),
    ("fodesolver.newton_iters_per_node", "count", "lower", "nodes_per_s on nonlinear march ops; linear ops should not move"),
    ("fodesolver.nonlin_evals_per_node", "count", "lower", "nodes_per_s on nonlinear march ops; linear ops should not move"),
    ("fodesolver.forcing_at.calls_per_node", "count", "lower", "nodes_per_s on nonlinear march ops; linear ops should not move"),
    ("fodesolver.forcing_at.self_s", "s", "lower", "nodes_per_s on nonlinear march ops; linear ops should not move"),
    ("fodesolver.verify_linking.s", "s", "lower", "op_p50_ms on march"),
    ("fraccalc.ratio_limit_probe.s", "s", "lower", "op_p50_ms on march"),
    ("fraccalc.caputo_l1.s", "s", "lower", "ops_per_s on calculus; caputo ops on cli-cold"),
    ("fraccalc.rl_integral.s", "s", "lower", "ops_per_s on calculus"),
    ("fraccalc.caputo_l1.pairs_per_s", "1/s", "higher", "ops_per_s on calculus; caputo ops on cli-cold"),
    ("fraccalc.rl_integral.pairs_per_s", "1/s", "higher", "ops_per_s on calculus"),
    ("cli.interp_s", "s", "lower", "op_p50_ms on cli-cold; setup_s everywhere"),
    ("cli.import_s", "s", "lower", "op_p50_ms on cli-cold; setup_s everywhere; not ops_per_s on sweep"),
    ("cli.import.numpy_s", "s", "lower", "op_p50_ms on cli-cold; setup_s everywhere"),
    ("cli.import.scipy_linalg_s", "s", "lower", "op_p50_ms on cli-cold; setup_s everywhere"),
    ("cli.estimate.s", "s", "lower", "op_p50_ms on cli-cold"),
    ("cli.caputo.s", "s", "lower", "op_p50_ms on cli-cold"),
    ("cli.fode.s", "s", "lower", "op_p50_ms on cli-cold"),
    ("cli.bytes_out", "count", "lower", "op_p50_ms on cli-cold"),
    ("trace.overhead_share", "share", "lower", "none: traced op_p50_ms over untraced, per workload"),
]

# per-call means of inclusive span time: metric name -> span name
_PER_CALL = {
    "orderest.run_pipeline.s": "orderest.run_pipeline",
    "orderest.quasi_opt_select.s": "orderest.quasi_opt_select",
    "concurrency.ordered_map.s": "concurrency.ordered_map",
    "obsmodel.observation.s": "obsmodel.observation",
    "scenarios.run_sweep_cell.s": "scenarios.run_sweep_cell",
    "scenarios.manufactured_case.s": "scenarios.manufactured_case",
    "fodesolver.solve.linear_s": "fodesolver.solve.linear",
    "fodesolver.solve.nonlinear_s": "fodesolver.solve.nonlinear",
    "fodesolver.verify_linking.s": "fodesolver.verify_linking",
    "fraccalc.ratio_limit_probe.s": "fraccalc.ratio_limit_probe",
    "fraccalc.caputo_l1.s": "fraccalc.caputo_l1",
    "fraccalc.rl_integral.s": "fraccalc.rl_integral",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    totals: dict[str, dict[str, float]],
    n_ops: int,
    facts: dict[str, float],
    counts: dict[str, int],
    measured: dict[str, float],
) -> dict[str, float]:
    """Every LAYER_METRICS value from span totals and per-op facts.

    ``facts`` are sums over the traced ops of what the workload read off
    the outputs (nodes, Newton iterations, table rows, kernel pairs);
    ``measured`` carries the values timed outside spans (cli.*, trace.*).
    """
    def span(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0)

    nodes = facts.get("fodesolver.nodes", 0.0)
    solves = span("fodesolver.solve.linear", "calls") + span("fodesolver.solve.nonlinear", "calls")
    derived = {
        "fodesolver.nodes_per_op": _ratio(nodes, solves),
        "fodesolver.newton_iters_per_node": _ratio(facts.get("fodesolver.newton_iters", 0.0), nodes),
        "fodesolver.nonlin_evals_per_node": _ratio(
            counts.get("fodesolver.nonlinearity", 0), facts.get("fodesolver.nonlinear_nodes", 0.0)
        ),
        "fodesolver.forcing_at.calls_per_node": _ratio(span("fodesolver.forcing_at", "calls"), nodes),
        "orderest.distinct_row_share": _ratio(
            facts.get("orderest.distinct_rows", 0.0), facts.get("orderest.rows", 0.0)
        ),
        "orderest.degenerate_share": _ratio(
            facts.get("orderest.degenerate_entries", 0.0), facts.get("orderest.entries", 0.0)
        ),
    }
    out: dict[str, float] = {}
    for name, _, _, _ in LAYER_METRICS:
        stem, _, kind = name.rpartition(".")
        if name in measured:
            value = measured[name]
        elif name in derived:
            value = derived[name]
        elif name in _PER_CALL:
            value = _ratio(span(_PER_CALL[name], "s"), span(_PER_CALL[name], "calls"))
        elif kind == "calls_per_op":
            value = _ratio(span(stem, "calls"), n_ops)
        elif kind == "self_s":
            value = _ratio(span(stem, "self_s"), n_ops)
        elif kind == "pairs_per_s":
            value = _ratio(facts.get(stem + ".pairs", 0.0), span(stem, "s"))
        else:
            raise KeyError(f"no rule computes layer metric {name!r}")
        out[name] = float(value)
    return out
