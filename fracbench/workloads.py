"""The four workloads: seeded inputs, the timed op, and the per-op output check.

Every workload is closed-loop with one op in flight.  Inputs come in blocks
with a fixed mix of op classes, so every run sees the same proportions of
cheap and expensive ops whatever the seed; the seed picks the values within
each class and the order.  A run always completes whole blocks.  The first
``min_blocks`` blocks are the scored prefix: its outputs feed the behaviour
fingerprint and the accuracy figures, so neither depends on how many ops
fit into the run.

The package is imported inside ``setup`` so that its import is part of the
measured set-up time, and so that ``cli-cold`` never imports it in-process.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from dataclasses import dataclass, field, replace

from measure import ChildRun, Fingerprint, child_env, run_child

# the 162 embedded sweep cells: (scenario, fdo kind, amplitudes) per sweep,
# crossed with the nine orders and three noise families
SWEEP_ORDERS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
SWEEP_NOISES = ("N1", "N2", "N3")
SWEEP_PRESETS = {
    1: ("example71", "TYPE_I", (0.03, 0.3)),
    2: ("example71", "TYPE_II", (0.03, 0.3)),
    3: ("example72", None, (0.04, 0.4)),
}


def sweep_cell_keys(sweep_id: int) -> list[tuple[float, str, float]]:
    _, _, amps = SWEEP_PRESETS[sweep_id]
    return [(nu0, noise, eps) for nu0 in SWEEP_ORDERS for noise in SWEEP_NOISES for eps in amps]


@dataclass(frozen=True)
class Op:
    kind: str
    params: tuple


@dataclass
class Outcome:
    ok: bool
    detail: str = ""
    accuracy: dict[str, float] = field(default_factory=dict)
    facts: dict[str, float] = field(default_factory=dict)
    rss_mb: float = 0.0


def _max_abs_err(got, exact) -> float:
    return max(abs(g - e) for g, e in zip(got, exact))


class Workload:
    name = ""
    min_blocks = 1
    pool_blocks = 1
    # ops run in this process; otherwise peak RSS is taken over the op children
    in_process = True

    def __init__(self, seed: int, root: str, work_dir: str, tiny: bool = False):
        self.root = root
        self.work_dir = work_dir
        self.tiny = tiny
        self.rng = random.Random(f"{self.name}:{seed}")
        self.blocks: list[list[Op]] = []

    def setup(self) -> None:
        """Import the package and build every input the timed ops will use."""
        self.blocks = [self.make_block(b) for b in range(self.pool_blocks)]
        self.warmup = self.make_warmup()

    def block(self, b: int) -> list[Op]:
        return self.blocks[b % len(self.blocks)]

    def make_block(self, b: int) -> list[Op]:
        raise NotImplementedError

    def make_warmup(self) -> Op:
        raise NotImplementedError

    def execute(self, op: Op):
        """The timed part of one op."""
        raise NotImplementedError

    def check(self, op: Op, result, fp: Fingerprint | None) -> Outcome:
        """Untimed: verify outputs, extract accuracy and layer facts."""
        raise NotImplementedError

    def summary(self, scored: list[tuple[Op, Outcome]]) -> dict:
        """Accuracy over the scored prefix: name -> (value, unit)."""
        return {}

    def prepare_traced(self, tracer) -> None:
        """Rebuild inputs under tracing where building them is a traced layer."""


# ---------------------------------------------------------------------------
# sweep


class SweepWorkload(Workload):
    """The 162 embedded sweep cells, an equal share per sweep.

    regbasis, tikhonov and orderest do almost all the work; the solver never
    runs.  Sweep 2 brings the TYPE_II weighted integral, sweep 3 the known
    collapse cells, and neither is filtered out.
    """

    name = "sweep"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # one full pass over all 162 cells is the scored prefix
        self.min_blocks = 1 if self.tiny else 54
        self.pool_blocks = 1 if self.tiny else 540

    def setup(self) -> None:
        from fracorder import refvalues, scenarios

        self.scenarios, self.refvalues = scenarios, refvalues
        super().setup()

    def make_block(self, b: int) -> list[Op]:
        if b % 54 == 0:
            # each 54-block cycle visits every cell once, in a fresh seeded order
            self._order = {s: self.rng.sample(sweep_cell_keys(s), 54) for s in (1, 2, 3)}
        ops = [Op(f"sweep{s}", (s,) + self._order[s][b % 54]) for s in (1, 2, 3)]
        self.rng.shuffle(ops)
        return ops

    def make_warmup(self) -> Op:
        s = self.rng.choice((1, 2, 3))
        return Op(f"sweep{s}", (s,) + self.rng.choice(sweep_cell_keys(s)))

    def execute(self, op: Op):
        s, nu0, noise, eps = op.params
        return self.scenarios.run_sweep_cell(s, nu0, noise, eps, log_selection="reuse_ratio")

    def check(self, op: Op, rep, fp: Fingerprint | None) -> Outcome:
        s, nu0, noise, eps = op.params
        if not (math.isfinite(rep.nu_ratio) and math.isfinite(rep.nu_log)):
            return Outcome(False, f"non-finite estimate for {op.params}")
        target_ratio, _ = self.refvalues.expected_pair(s, nu0, noise, eps)
        if fp is not None:
            fp.add_floats(
                (rep.nu_ratio, rep.nu_log, rep.ratio_lambda, rep.ratio_that,
                 rep.log_lambda, rep.log_that, *rep.ratio_index, *rep.log_index)
            )
        rows = list(zip(map(repr, rep.ratio_table), map(repr, rep.log_table)))
        distinct = sum(1 for i, r in enumerate(rows) if i == 0 or r != rows[i - 1])
        failed = sum(map(sum, rep.ratio_failed)) + sum(map(sum, rep.log_failed))
        entries = 2 * len(rep.ratio_table) * len(rep.ratio_table[0])
        return Outcome(
            True,
            accuracy={
                "nu_ratio_abs_err": abs(rep.nu_ratio - nu0),
                "nu_log_abs_err": abs(rep.nu_log - nu0),
                "ratio_in_band": float(abs(rep.nu_ratio - target_ratio) <= self.refvalues.RATIO_BAND),
            },
            facts={
                "orderest.rows": float(len(rows)),
                "orderest.distinct_rows": float(distinct),
                "orderest.entries": float(entries),
                "orderest.degenerate_entries": float(failed),
            },
        )

    def summary(self, scored):
        errs = [o.accuracy for _, o in scored if o.ok]
        if not errs:
            return {}
        return {
            "nu_ratio_abs_err": (_mean(e["nu_ratio_abs_err"] for e in errs), "abs"),
            "nu_log_abs_err": (_mean(e["nu_log_abs_err"] for e in errs), "abs"),
            "ratio_in_band_share": (_mean(e["ratio_in_band"] for e in errs), "share"),
        }


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else float("nan")


# ---------------------------------------------------------------------------
# march


class MarchWorkload(Workload):
    """Manufactured solver problems, linear and nonlinear, built in set-up.

    fodesolver does almost all the work.  Linear ops skip Newton and the
    tabulated forcing, so a change to the nonlinear path leaves them alone.
    """

    name = "march"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.min_blocks = 1 if self.tiny else 2
        self.pool_blocks = 1 if self.tiny else 6
        # intervals per unit horizon: linear ops take steps from 2^-10 to
        # 2^-12; nonlinear ops, ~20x dearer per node, from 2^-10 to 2^-11
        self.linear_nodes = (32, 64) if self.tiny else (1024, 4096)
        self.nonlinear_nodes = (32, 64) if self.tiny else (1024, 2048)

    def setup(self) -> None:
        from fracorder import fodesolver, scenarios

        self.fodesolver, self.scenarios = fodesolver, scenarios
        super().setup()
        self.cases = {op: self._build(op) for block in self.blocks for op in block}
        self.cases[self.warmup] = self._build(self.warmup)

    def _nodes(self, span: tuple[int, int], stratum: int, strata: int) -> int:
        lo, hi = span
        return int(lo + (hi - lo) * (stratum + self.rng.random()) / strata)

    def make_block(self, b: int) -> list[Op]:
        # one linear, one sin-damped and one polynomial op per shape.  The two
        # linear ops take one half of the linear range each, the four
        # nonlinear ops one quarter of the nonlinear range each.  Nonlinear
        # cost grows with the node count and every linear op is cheaper, so
        # the median op sits on the edge of the first nonlinear quarter
        # however many blocks a run completes.
        rng = self.rng
        linear = rng.sample(range(2), 2)
        nonlinear = rng.sample(range(4), 4)
        ops = []
        for shape in ("power", "smooth"):
            for kind in ("none", "sin-damped", "polynomial"):
                if kind == "none":
                    m = self._nodes(self.linear_nodes, linear.pop(), 2)
                else:
                    m = self._nodes(self.nonlinear_nodes, nonlinear.pop(), 4)
                coeffs = (
                    (rng.uniform(-0.05, 0.05), rng.uniform(-0.1, 0.0), rng.uniform(-0.05, 0.0))
                    if kind == "polynomial" else ()
                )
                ops.append(Op(f"{shape}/{kind}", (shape, kind, rng.uniform(0.2, 0.8), m, coeffs)))
        rng.shuffle(ops)
        return ops

    def make_warmup(self) -> Op:
        nu0 = self.rng.uniform(0.2, 0.8)
        return Op("power/none", ("power", "none", nu0, self.linear_nodes[0], ()))

    def _build(self, op: Op):
        shape, nl, nu0, _, coeffs = op.params
        make = (self.scenarios.manufactured_power_case if shape == "power"
                else self.scenarios.manufactured_smooth_case)
        return make(nu0, nonlinearity=nl, coefficients=coeffs)

    def prepare_traced(self, tracer) -> None:
        # rebuild under the installed wrappers so case assembly is traced, and
        # count the nonlinearity callbacks the solver makes
        for op in list(self.cases):
            case = self._build(op)
            nonlin = case.problem.nonlinearity
            if nonlin is not None:
                counted = tracer.counting("fodesolver.nonlinearity", nonlin)
                case = replace(case, problem=replace(case.problem, nonlinearity=counted))
            self.cases[op] = case

    def execute(self, op: Op):
        case = self.cases[op]
        sol = self.fodesolver.solve(case.problem, 1.0 / op.params[3])
        link = self.fodesolver.verify_linking(sol, case.problem) if op.params[0] == "power" else None
        return sol, link

    def check(self, op: Op, result, fp: Fingerprint | None) -> Outcome:
        shape, nl, nu0, m, _ = op.params
        sol, link = result
        case = self.cases[op]
        h = 1.0 / m
        err = _max_abs_err(sol.values, (case.exact(t) for t in sol.times.tolist()))
        bound = h ** nu0 if shape == "power" else h ** (2.0 - nu0)
        nodes = len(sol.values)
        facts = {"fodesolver.nodes": float(nodes),
                 "fodesolver.newton_iters": float(sum(sol.newton_iterations))}
        if nl != "none":
            facts["fodesolver.nonlinear_nodes"] = float(nodes)
        accuracy = {"traj_abs_err": err}
        if link is not None:
            accuracy["linking_abs_err"] = abs(link - nu0)
        if fp is not None:
            fp.add_floats(sol.values)
            fp.add_floats(() if link is None else (link,))
        if not err <= bound:
            detail = f"{op.kind} nu0={nu0!r} h=1/{m}: error {err:.3e} above rate bound {bound:.3e}"
            return Outcome(False, detail, accuracy, facts)
        if link is not None and not math.isfinite(link):
            detail = f"{op.kind} nu0={nu0!r}: non-finite linking estimate"
            return Outcome(False, detail, accuracy, facts)
        return Outcome(True, accuracy=accuracy, facts=facts)

    def summary(self, scored):
        return {
            "traj_abs_err": (max(o.accuracy.get("traj_abs_err", math.nan) for _, o in scored), "abs"),
            "linking_abs_err": (max(o.accuracy.get("linking_abs_err", 0.0) for _, o in scored), "abs"),
        }


# ---------------------------------------------------------------------------
# calculus


# Rate bounds for t^beta on a grid t_j = (j/n)^grading.  The log factor
# covers the crossover between the two rates; sampled constants stay below
# a third of these bounds.


def caputo_bound(n: int, grading: float, beta: float, nu: float) -> float:
    """L1 error bound for the Caputo derivative of order nu."""
    return 2.0 * (1.0 + math.log(n)) * n ** -min(2.0 - nu, grading * (beta - nu))


def rl_bound(n: int, grading: float, beta: float, theta: float) -> float:
    """Product-integration error bound for the RL integral of order theta."""
    return 2.0 * (1.0 + math.log(n)) * n ** -min(2.0, grading * (beta + theta))


def graded_grid(n: int, grading: float) -> list[float]:
    return [(j / n) ** grading for j in range(n + 1)]


class CalculusWorkload(Workload):
    """caputo_l1 and rl_integral of t^beta on graded grids, N in [2000, 8000].

    The only workload that reaches rl_integral; its O(N^2) kernels are the
    only work that runs.  One op applies both primitives to one input, so op
    cost is a function of N alone; each block draws N once from each quarter
    of the range, which pins the median and tail ops to quarter edges.
    """

    name = "calculus"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.min_blocks = 1 if self.tiny else 2
        self.pool_blocks = 1 if self.tiny else 10
        self.n_range = (100, 400) if self.tiny else (2000, 8000)

    def setup(self) -> None:
        from fracorder import fraccalc

        self.fraccalc = fraccalc
        super().setup()
        self.inputs = {op: self._sampled(op) for block in self.blocks for op in block}
        self.inputs[self.warmup] = self._sampled(self.warmup)

    def _draw(self, quarter: float) -> Op:
        rng = self.rng
        lo, hi = self.n_range
        n = int(lo + (hi - lo) * quarter / 4.0)
        nu = rng.uniform(0.2, 0.8)
        return Op("calculus", (n, rng.uniform(1.0, 2.0), rng.uniform(nu + 0.3, 2.0), nu,
                               rng.uniform(0.2, 1.5)))

    def make_block(self, b: int) -> list[Op]:
        return [self._draw(q + self.rng.random()) for q in self.rng.sample(range(4), 4)]

    def make_warmup(self) -> Op:
        return self._draw(0.0)

    def _sampled(self, op: Op):
        n, grading, beta, _, _ = op.params
        t = graded_grid(n, grading)
        return self.fraccalc.SampledFunction(tuple(t), tuple(x**beta for x in t))

    def execute(self, op: Op):
        f = self.inputs[op]
        _, _, _, nu, theta = op.params
        return self.fraccalc.caputo_l1(f, nu), self.fraccalc.rl_integral(f, theta)

    def check(self, op: Op, result, fp: Fingerprint | None) -> Outcome:
        n, grading, beta, nu, theta = op.params
        deriv, integral = result
        t = deriv.times[1:]
        c = math.gamma(beta + 1.0) / math.gamma(beta + 1.0 - nu)
        deriv_err = _max_abs_err(deriv.values[1:], (c * x ** (beta - nu) for x in t))
        c = math.gamma(beta + 1.0) / math.gamma(beta + 1.0 + theta)
        integral_err = _max_abs_err(integral.values[1:], (c * x ** (beta + theta) for x in t))
        if fp is not None:
            fp.add_floats(deriv.values)
            fp.add_floats(integral.values)
        pairs = n * (n + 1) / 2.0
        facts = {"fraccalc.caputo_l1.pairs": pairs, "fraccalc.rl_integral.pairs": pairs}
        accuracy = {"deriv_abs_err": max(deriv_err, integral_err)}
        d_bound, i_bound = caputo_bound(n, grading, beta, nu), rl_bound(n, grading, beta, theta)
        if not (deriv_err <= d_bound and integral_err <= i_bound):
            return Outcome(False, f"{op.params}: L1 error {deriv_err:.3e} (bound {d_bound:.3e}), "
                                  f"RL error {integral_err:.3e} (bound {i_bound:.3e})", accuracy, facts)
        return Outcome(True, accuracy=accuracy, facts=facts)

    def summary(self, scored):
        return {"deriv_abs_err": (max(o.accuracy.get("deriv_abs_err", math.nan) for _, o in scored), "abs")}


# ---------------------------------------------------------------------------
# cli-cold


def _fmt(x: float) -> str:
    return repr(float(x))


def _read_two_columns(path: str) -> tuple[str, list[float], list[float]]:
    with open(path) as f:
        lines = f.read().splitlines()
    t, v = [], []
    for line in lines[1:]:
        a, b = line.split(",")
        t.append(float(a))
        v.append(float(b))
    return lines[0], t, v


class CliColdWorkload(Workload):
    """One fresh ``python -m fracorder.cli`` process per op.

    Import, config parsing and CSV I/O dominate, and the estimator runs once
    in a cold process.
    """

    name = "cli-cold"
    in_process = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.min_blocks = 1 if self.tiny else 2
        self.pool_blocks = 1 if self.tiny else 10
        self.caputo_rows = (200, 400) if self.tiny else (2000, 4000)
        self.fode_steps = (6,) if self.tiny else (8, 9)
        self.env = child_env(os.path.join(self.root, "src"))
        self._cells = [
            (s,) + key for s in (1, 2, 3) for key in sweep_cell_keys(s)
        ]
        self.rng.shuffle(self._cells)
        self._next_cell = 0

    def make_block(self, b: int) -> list[Op]:
        tag = f"b{b + 1}" if b >= 0 else "warm"
        ops = [self._estimate(tag), self._caputo(tag), self._fode(tag)]
        self.rng.shuffle(ops)
        return ops

    def _path(self, *parts: str) -> str:
        return os.path.join(self.work_dir, *parts)

    def _estimate(self, tag: str) -> Op:
        s, nu0, noise, eps = self._cells[self._next_cell % len(self._cells)]
        self._next_cell += 1
        scenario, kind, _ = SWEEP_PRESETS[s]
        config = {"scenario": scenario, "nu0": nu0, "noise": {"kind": noise, "epsilon": eps}}
        if kind is not None:
            config["fdo_kind"] = kind
        cfg = self._path(f"{tag}-estimate.json")
        with open(cfg, "w") as f:
            json.dump(config, f)
        out = self._path(f"{tag}-estimate")
        return Op("estimate", (nu0, ("estimate", "--config", cfg, "--out", out), out))

    def _caputo(self, tag: str) -> Op:
        rng = self.rng
        n = rng.randint(*self.caputo_rows)
        grading = rng.uniform(1.0, 2.0)
        nu = rng.uniform(0.2, 0.8)
        beta = rng.uniform(nu + 0.3, 2.0)
        src = self._path(f"{tag}-caputo-in.csv")
        with open(src, "w") as f:
            f.write("t,f\n" + "".join(f"{_fmt(x)},{_fmt(x ** beta)}\n" for x in graded_grid(n, grading)))
        out = self._path(f"{tag}-caputo-out.csv")
        argv = ("caputo", "--nu", _fmt(nu), "--in", src, "--out", out)
        return Op("caputo", ((n, grading, beta, nu), argv, out))

    def _fode(self, tag: str) -> Op:
        # linear manufactured problem v(t) = 1 + t^nu0 / Gamma(1 + nu0) with
        # memory kernel t^(-1/3), as a config the CLI parses
        nu0 = self.rng.uniform(0.2, 0.8)
        k = self.rng.choice(self.fode_steps)
        g = math.gamma(1.0 + nu0)
        beta_23 = math.gamma(2.0 / 3.0) * g / math.gamma(2.0 / 3.0 + 1.0 + nu0)
        config = {
            "scenario": "fode",
            "fode": {
                "fdo": {"kind": "TYPE_I", "orders": [nu0], "coefficients": [[[1.0, 0.0]]]},
                "kernel": [[1.0, -1.0 / 3.0]],
                "f0": [[2.0, 0.0], [1.5, 2.0 / 3.0], [beta_23 / g, 2.0 / 3.0 + nu0], [1.0 / g, nu0]],
                "v0": 1.0,
                "tstar": 1.0,
                "step": 2.0 ** -k,
                "verify_linking": True,
            },
        }
        cfg = self._path(f"{tag}-fode.json")
        with open(cfg, "w") as f:
            json.dump(config, f)
        out = self._path(f"{tag}-fode")
        return Op("fode", ((nu0, k), ("fode", "--config", cfg, "--out", out), out))

    def make_warmup(self) -> Op:
        return self._estimate("warm")

    def execute(self, op: Op) -> ChildRun:
        argv = [sys.executable, "-m", "fracorder.cli", *op.params[1]]
        return run_child(argv, self.env, self.root, op.params[2] + "-log")

    def check(self, op: Op, run: ChildRun, fp: Fingerprint | None) -> Outcome:
        try:
            return self._check(op, run, fp)
        except (OSError, ValueError, KeyError) as exc:
            return Outcome(False, f"{op.kind}: unparsable output ({exc!r})", rss_mb=run.peak_rss_mb)

    def _check(self, op: Op, run: ChildRun, fp: Fingerprint | None) -> Outcome:
        if run.returncode != 0:
            return Outcome(False, f"{op.kind} exited {run.returncode}: {run.stderr[-300:]!r}",
                           rss_mb=run.peak_rss_mb)
        out = op.params[2]
        files = {
            "estimate": ["report.json", "observation.csv", "observation.json", "diagnostics.csv"],
            "caputo": [""],
            "fode": ["solution.csv"],
        }[op.kind]
        blobs = [run.stdout]
        for name in files:
            with open(os.path.join(out, name) if name else out, "rb") as f:
                blobs.append(f.read())
        if fp is not None:
            for blob in blobs:
                fp.add_bytes(blob)
        facts = {"cli.bytes_out": float(sum(map(len, blobs)))}
        stdout = run.stdout.decode()
        ok, detail, accuracy = True, "", {}
        if op.kind == "estimate":
            nu0 = op.params[0]
            report = json.loads(blobs[1])
            printed = dict(kv.split("=", 1) for kv in stdout.split())
            pairs = (("nu_ratio", "nu_ratio"), ("nu_log", "nu_log"),
                     ("lambda", "ratio_lambda"), ("that", "ratio_that"))
            if any(float(printed[a]) != report[b] for a, b in pairs):
                ok, detail = False, f"estimate stdout {stdout.strip()!r} disagrees with report.json"
            accuracy = {"nu_ratio_abs_err": abs(report["nu_ratio"] - nu0),
                      "nu_log_abs_err": abs(report["nu_log"] - nu0)}
        elif op.kind == "caputo":
            (n, grading, beta, nu) = op.params[0]
            header, t, v = _read_two_columns(out)
            c = math.gamma(beta + 1.0) / math.gamma(beta + 1.0 - nu)
            err = _max_abs_err(v[1:], (c * x ** (beta - nu) for x in t[1:]))
            accuracy = {"deriv_abs_err": err}
            bound = caputo_bound(n, grading, beta, nu)
            if header != "t,caputo" or len(t) != n + 1 or not err <= bound:
                ok, detail = False, f"caputo {op.params[0]}: error {err:.3e} (bound {bound:.3e}) or bad shape"
        else:
            nu0, k = op.params[0]
            recovered = float(stdout.rsplit("recovered nu0=", 1)[1].split()[0])
            _, t, v = _read_two_columns(os.path.join(out, "solution.csv"))
            g = math.gamma(1.0 + nu0)
            err = _max_abs_err(v, (1.0 + x**nu0 / g for x in t))
            accuracy = {"traj_abs_err": err, "linking_abs_err": abs(recovered - nu0)}
            if len(t) != 2**k + 1 or not err <= (2.0 ** -k) ** nu0 or not math.isfinite(recovered):
                ok, detail = False, f"fode {op.params[0]}: error {err:.3e} or recovered {recovered!r}"
        return Outcome(ok, detail, accuracy, facts, rss_mb=run.peak_rss_mb)

    def summary(self, scored):
        est = [o.accuracy for op, o in scored if op.kind == "estimate" and o.ok]
        cap = [o.accuracy for op, o in scored if op.kind == "caputo" and o.ok]
        out = {}
        if est:
            out["nu_ratio_abs_err"] = (_mean(e["nu_ratio_abs_err"] for e in est), "abs")
            out["nu_log_abs_err"] = (_mean(e["nu_log_abs_err"] for e in est), "abs")
        if cap:
            out["deriv_abs_err"] = (max(e["deriv_abs_err"] for e in cap), "abs")
        return out


WORKLOADS = {w.name: w for w in (SweepWorkload, MarchWorkload, CalculusWorkload, CliColdWorkload)}
