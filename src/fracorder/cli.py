"""Configuration-driven command line front end.

Four subcommands: ``estimate`` runs the full pipeline from a JSON config,
``table`` reproduces one benchmark sweep with a diff against the embedded
targets, ``caputo`` differentiates a sampled CSV column, and ``fode``
integrates a configured fractional initial-value problem.  All outputs are
deterministic: fixed row order, LF line endings, shortest round-trip float
formatting, so repeated runs are byte-identical regardless of the
``FRACORDER_THREADS`` setting.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from fracorder.fodesolver import (
    FodeProblem,
    FodeSolution,
    IdentifiabilityError,
    solve,
    verify_linking,
)
from fracorder.fraccalc import PowerSum, SampledFunction, caputo_l1
from fracorder.obsmodel import (
    FdoDescriptor,
    FdoKind,
    NoiseKind,
    NoiseSpec,
    Observation,
    ObservationMeta,
    TimeGrid,
    example71_observation,
    example72_observation,
    noise_value,
    preset_grid,
)
from fracorder.orderest import (
    LOG_SELECTION_MODES,
    EstimateReport,
    RegGrids,
    SelectionFailureError,
    default_grids,
    run_pipeline,
)
from fracorder.refvalues import SWEEP_IDS, expected_pair
from fracorder.regbasis import BasisSpec, initial_power_exponents
from fracorder.scenarios import (
    NONLINEARITY_PRESETS,
    SweepRow,
    nonlinearity_preset,
    sweep_rows,
)

__all__ = ["ConfigError", "main"]

SCENARIOS = ("example71", "example72", "custom-observation-file", "fode")

TABLE_HEADER = "nu_true,noise,epsilon,nu_ratio,nu_log"
DIAG_HEADER = "i,j,lambda,that,nu_ratio,nu_log,flag"


class ConfigError(ValueError):
    """Configuration problem; the message names the offending key."""


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# config parsing


def _as_mapping(data: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {type(data).__name__}")
    return data


def _check_keys(
    data: Mapping[str, Any], where: str, required: Sequence[str], optional: Sequence[str]
) -> None:
    for key in data:
        if key not in required and key not in optional:
            raise ConfigError(f"{where}: unknown key {key!r}")
    for key in required:
        if key not in data:
            raise ConfigError(f"{where}: missing required key {key!r}")


def _as_float(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _parse_power_sum(data: Any, where: str) -> PowerSum:
    if not isinstance(data, list):
        raise ConfigError(f"{where}: expected a list of [coefficient, exponent] pairs")
    terms = []
    for k, pair in enumerate(data):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ConfigError(f"{where}[{k}]: expected a [coefficient, exponent] pair")
        terms.append(
            (_as_float(pair[0], f"{where}[{k}]"), _as_float(pair[1], f"{where}[{k}]"))
        )
    try:
        return PowerSum(tuple(terms))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_descriptor(data: Any, where: str) -> FdoDescriptor:
    data = _as_mapping(data, where)
    _check_keys(
        data, where, ["orders", "coefficients"],
        ["kind", "neg_orders", "neg_coefficients"],
    )
    kind = data.get("kind", "TYPE_I")
    if kind not in ("TYPE_I", "TYPE_II"):
        raise ConfigError(f"{where}.kind: expected TYPE_I or TYPE_II, got {kind!r}")

    def powersum_list(key: str) -> tuple[PowerSum, ...]:
        raw = data.get(key, [])
        if not isinstance(raw, list):
            raise ConfigError(f"{where}.{key}: expected a list")
        return tuple(
            _parse_power_sum(item, f"{where}.{key}[{k}]") for k, item in enumerate(raw)
        )

    def float_list(key: str) -> tuple[float, ...]:
        raw = data.get(key, [])
        if not isinstance(raw, list):
            raise ConfigError(f"{where}.{key}: expected a list")
        return tuple(_as_float(v, f"{where}.{key}[{k}]") for k, v in enumerate(raw))

    orders = float_list("orders")
    coefficients = powersum_list("coefficients")
    neg_orders = float_list("neg_orders")
    neg_coefficients = powersum_list("neg_coefficients")
    try:
        return FdoDescriptor(
            kind=FdoKind[kind],
            orders=orders,
            coefficients=coefficients,
            neg_orders=neg_orders,
            neg_coefficients=neg_coefficients,
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_noise(data: Any, where: str) -> NoiseSpec:
    if data is None:
        return NoiseSpec()
    data = _as_mapping(data, where)
    _check_keys(data, where, ["kind"], ["epsilon"])
    kind = data["kind"]
    if kind not in ("none", "N1", "N2", "N3"):
        raise ConfigError(f"{where}.kind: expected none, N1, N2 or N3, got {kind!r}")
    epsilon = _as_float(data.get("epsilon", 0.0), f"{where}.epsilon")
    try:
        return NoiseSpec(NoiseKind(kind), epsilon)
    except ValueError as exc:
        raise ConfigError(f"{where}.epsilon: {exc}") from None


def _parse_grid(data: Any, where: str) -> TimeGrid:
    if isinstance(data, str):
        try:
            return preset_grid(data)
        except ValueError:
            raise ConfigError(
                f"{where}: unknown grid preset {data!r}, "
                "expected nonuniform71 or uniform72"
            ) from None
    if isinstance(data, list):
        pts = tuple(_as_float(v, f"{where}[{k}]") for k, v in enumerate(data))
        try:
            return TimeGrid(pts)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    raise ConfigError(f"{where}: expected a preset name or a list of times")


def _parse_basis(
    data: Any, where: str, t_end: float, default_seed: float | None
) -> BasisSpec:
    if data is None:
        if default_seed is None:
            raise ConfigError(f"{where}: required for this scenario (no default seed)")
        return BasisSpec(initial_power_exponents(default_seed), t_end)
    data = _as_mapping(data, where)
    _check_keys(
        data, where, [], ["seed", "power_exponents", "total_size", "weight_exponent"]
    )
    if "seed" in data and "power_exponents" in data:
        raise ConfigError(f"{where}: give either seed or power_exponents, not both")
    if "seed" in data:
        seed = _as_float(data["seed"], f"{where}.seed")
        try:
            exps = initial_power_exponents(seed)
        except ValueError as exc:
            raise ConfigError(f"{where}.seed: {exc}") from None
    elif "power_exponents" in data:
        raw = data["power_exponents"]
        if not isinstance(raw, list):
            raise ConfigError(f"{where}.power_exponents: expected a list")
        exps = tuple(
            _as_float(v, f"{where}.power_exponents[{k}]") for k, v in enumerate(raw)
        )
    elif default_seed is not None:
        exps = initial_power_exponents(default_seed)
    else:
        raise ConfigError(f"{where}: needs seed or power_exponents")
    kwargs: dict[str, Any] = {}
    if "total_size" in data:
        if not isinstance(data["total_size"], int) or isinstance(data["total_size"], bool):
            raise ConfigError(f"{where}.total_size: expected an integer")
        kwargs["total_size"] = data["total_size"]
    if "weight_exponent" in data:
        kwargs["weight_exponent"] = _as_float(
            data["weight_exponent"], f"{where}.weight_exponent"
        )
    try:
        return BasisSpec(exps, t_end, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_reg_grids(data: Any, where: str, t_end: float) -> RegGrids:
    base = default_grids(t_end)
    if data is None:
        return base
    data = _as_mapping(data, where)
    allowed = ["lambda1", "xi1", "k1", "that1", "xi2", "k2"]
    _check_keys(data, where, [], allowed)
    kwargs = {
        "lambda1": base.lambda1, "xi1": base.xi1, "k1": base.k1,
        "that1": base.that1, "xi2": base.xi2, "k2": base.k2,
    }
    for key in allowed:
        if key not in data:
            continue
        if key in ("k1", "k2"):
            if not isinstance(data[key], int) or isinstance(data[key], bool):
                raise ConfigError(f"{where}.{key}: expected an integer")
            kwargs[key] = data[key]
        else:
            kwargs[key] = _as_float(data[key], f"{where}.{key}")
    try:
        return RegGrids(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _require_regular_at_zero(ps: PowerSum, where: str) -> None:
    # the solver evaluates the forcing and every coefficient at t = 0
    for k, (_, e) in enumerate(ps.terms):
        if e < 0:
            raise ConfigError(f"{where}[{k}]: exponent {e!r} is negative, singular at t=0")


def _parse_fode_block(data: Any, where: str) -> tuple[FodeProblem, float, bool]:
    data = _as_mapping(data, where)
    _check_keys(
        data, where,
        ["fdo", "v0", "tstar", "step"],
        ["kernel", "f0", "f0_file", "nonlinearity", "verify_linking"],
    )
    fdo = _parse_descriptor(data["fdo"], f"{where}.fdo")
    for key in ("coefficients", "neg_coefficients"):
        for i, coeff in enumerate(getattr(fdo, key)):
            _require_regular_at_zero(coeff, f"{where}.fdo.{key}[{i}]")
    kernel = (
        _parse_power_sum(data["kernel"], f"{where}.kernel")
        if "kernel" in data else PowerSum(())
    )
    if ("f0" in data) == ("f0_file" in data):
        raise ConfigError(f"{where}: give exactly one of f0 (power-sum terms) or f0_file")
    if "f0" in data:
        f0: PowerSum | SampledFunction = _parse_power_sum(data["f0"], f"{where}.f0")
        _require_regular_at_zero(f0, f"{where}.f0")
    else:
        times, values, _ = _read_csv_columns(
            Path(str(data["f0_file"])), f"{where}.f0_file"
        )
        if times[0] != 0.0:
            raise ConfigError(f"{where}.f0_file: tabulated forcing must start at t=0")
        try:
            f0 = SampledFunction(times, values)
        except ValueError as exc:
            raise ConfigError(f"{where}.f0_file: {exc}") from None
    nonlin = None
    if "nonlinearity" in data:
        block = _as_mapping(data["nonlinearity"], f"{where}.nonlinearity")
        _check_keys(block, f"{where}.nonlinearity", ["name"], ["coefficients"])
        name = block["name"]
        if name not in NONLINEARITY_PRESETS:
            raise ConfigError(
                f"{where}.nonlinearity.name: expected one of {NONLINEARITY_PRESETS}, "
                f"got {name!r}"
            )
        coeffs = block.get("coefficients", [])
        if not isinstance(coeffs, list):
            raise ConfigError(f"{where}.nonlinearity.coefficients: expected a list")
        parsed = tuple(
            _as_float(c, f"{where}.nonlinearity.coefficients[{k}]")
            for k, c in enumerate(coeffs)
        )
        try:
            nonlin = nonlinearity_preset(name, parsed)
        except ValueError as exc:
            raise ConfigError(f"{where}.nonlinearity: {exc}") from None
    verify = data.get("verify_linking", False)
    if not isinstance(verify, bool):
        raise ConfigError(f"{where}.verify_linking: expected true or false")
    step = _as_float(data["step"], f"{where}.step")
    v0 = _as_float(data["v0"], f"{where}.v0")
    tstar = _as_float(data["tstar"], f"{where}.tstar")
    try:
        problem = FodeProblem(fdo, kernel, f0, v0, tstar, nonlin)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None
    if "f0_file" in data:
        # the solver needs the tabulation up to the horizon
        try:
            problem.forcing_at(tstar)
        except ValueError as exc:
            raise ConfigError(f"{where}.f0_file: {exc}") from None
    return problem, step, verify


def _load_json(path: Path) -> Any:
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None


# ---------------------------------------------------------------------------
# observation and solution files


def _read_csv_columns(
    path: Path, where: str
) -> tuple[tuple[float, ...], tuple[float, ...], str]:
    """Two-column numeric CSV -> (times, values, value column name)."""
    if not path.is_file():
        raise ConfigError(f"{where}: input file not found: {path}")
    lines = path.read_text().splitlines()
    if not lines:
        raise ConfigError(f"{where}: {path} is empty")
    header = lines[0].split(",")
    if len(header) != 2 or header[0] != "t":
        raise ConfigError(f"{where}: {path} must have a two-column header t,<name>")
    times: list[float] = []
    values: list[float] = []
    for k, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ConfigError(f"{where}: {path} line {k}: expected two columns")
        try:
            times.append(float(parts[0]))
            values.append(float(parts[1]))
        except ValueError:
            raise ConfigError(f"{where}: {path} line {k}: not numeric") from None
    if len(times) < 2:
        raise ConfigError(f"{where}: {path} needs at least two data rows")
    return tuple(times), tuple(values), header[1]


def _descriptor_to_json(fdo: FdoDescriptor) -> dict:
    return {
        "kind": fdo.kind.name,
        "orders": list(fdo.orders),
        "coefficients": [[list(term) for term in c.terms] for c in fdo.coefficients],
        "neg_orders": list(fdo.neg_orders),
        "neg_coefficients": [
            [list(term) for term in c.terms] for c in fdo.neg_coefficients
        ],
    }


def write_observation(obs: Observation, csv_path: Path) -> None:
    rows = [f"{_fmt(t)},{_fmt(v)}" for t, v in zip(obs.grid.points, obs.values)]
    csv_path.write_text("t,psi\n" + "\n".join(rows) + "\n")
    meta = obs.meta
    sidecar = {
        "psi0": obs.psi0,
        "descriptor": _descriptor_to_json(obs.descriptor),
        "scenario": meta.scenario,
        "nu0_true": meta.nu0_true,
        "noise": None
        if meta.noise is None or meta.noise.kind is NoiseKind.NONE
        else {"kind": meta.noise.kind.name, "epsilon": meta.noise.epsilon},
    }
    csv_path.with_suffix(".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def read_observation(csv_path: Path) -> Observation:
    times, values, _ = _read_csv_columns(csv_path, "observation_file")
    sidecar_path = csv_path.with_suffix(".json")
    if not sidecar_path.is_file():
        raise ConfigError(f"observation sidecar not found: {sidecar_path}")
    raw = _load_json(sidecar_path)
    data = _as_mapping(raw, str(sidecar_path))
    _check_keys(
        data, str(sidecar_path),
        ["psi0", "descriptor"], ["scenario", "nu0_true", "noise"],
    )
    descriptor = _parse_descriptor(data["descriptor"], f"{sidecar_path}:descriptor")
    noise = None
    if data.get("noise") is not None:
        noise = _parse_noise(data["noise"], f"{sidecar_path}:noise")
    nu0_true = data.get("nu0_true")
    if nu0_true is not None:
        nu0_true = _as_float(nu0_true, f"{sidecar_path}:nu0_true")
    psi0 = _as_float(data["psi0"], f"{sidecar_path}:psi0")
    meta = ObservationMeta(
        scenario=str(data.get("scenario", "custom")), nu0_true=nu0_true, noise=noise
    )
    try:
        return Observation(TimeGrid(times), values, psi0, descriptor, meta)
    except ValueError as exc:
        raise ConfigError(f"{csv_path}: {exc}") from None


def write_solution(solution: FodeSolution, path: Path) -> None:
    rows = [f"{_fmt(t)},{_fmt(v)}" for t, v in zip(solution.times, solution.values)]
    path.write_text("t,v\n" + "\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# report output


def _report_json(report: EstimateReport) -> dict:
    g = report.grids
    return {
        "nu_ratio": report.nu_ratio,
        "nu_log": report.nu_log,
        "ratio_lambda": report.ratio_lambda,
        "ratio_that": report.ratio_that,
        "log_lambda": report.log_lambda,
        "log_that": report.log_that,
        "ratio_index": [report.ratio_index[0] + 1, report.ratio_index[1] + 1],
        "log_index": [report.log_index[0] + 1, report.log_index[1] + 1],
        "log_selection": report.log_selection,
        "grids": {
            "lambda1": g.lambda1, "xi1": g.xi1, "k1": g.k1,
            "that1": g.that1, "xi2": g.xi2, "k2": g.k2,
        },
    }


def write_diagnostics(
    path: Path,
    grids: RegGrids,
    ratio_table,
    log_table,
    ratio_failed,
    log_failed,
    ratio_index=None,
    log_index=None,
) -> None:
    lambdas = grids.lambda_values()
    thats = grids.that_values()
    lines = [DIAG_HEADER]
    for i in range(grids.k1):
        for j in range(grids.k2):
            tags = []
            if ratio_failed[i][j]:
                tags.append("ratio_failed")
            if log_failed[i][j]:
                tags.append("log_failed")
            if ratio_index == (i, j):
                tags.append("ratio_selected")
            if log_index == (i, j):
                tags.append("log_selected")
            r = "" if ratio_failed[i][j] else _fmt(ratio_table[i][j])
            l = "" if log_failed[i][j] else _fmt(log_table[i][j])
            lines.append(
                f"{i + 1},{j + 1},{_fmt(lambdas[i])},{_fmt(thats[j])},{r},{l},"
                + "+".join(tags)
            )
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_estimate(config_path: Path, out_dir: Path) -> int:
    raw = _load_json(config_path)
    data = _as_mapping(raw, "config")
    _check_keys(
        data, "config", ["scenario"],
        ["nu0", "fdo_kind", "noise", "grid", "observation_file", "basis",
         "reg_grids", "log_selection", "fode"],
    )
    scenario = data["scenario"]
    if scenario not in SCENARIOS:
        raise ConfigError(
            f"config.scenario: expected one of {SCENARIOS}, got {scenario!r}"
        )
    log_selection = data.get("log_selection", "independent")
    if log_selection not in LOG_SELECTION_MODES:
        raise ConfigError(
            f"config.log_selection: expected one of {LOG_SELECTION_MODES}, "
            f"got {log_selection!r}"
        )

    obs, default_seed = _build_observation(data, scenario)
    basis = _parse_basis(data.get("basis"), "config.basis", obs.grid.t_end, default_seed)
    grids = _parse_reg_grids(data.get("reg_grids"), "config.reg_grids", obs.grid.t_end)

    # nothing is written before the pipeline has accepted the grids
    failure = None
    try:
        report = run_pipeline(obs, basis, grids, log_selection=log_selection)
    except SelectionFailureError as exc:
        failure = exc
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from None

    out_dir.mkdir(parents=True, exist_ok=True)
    write_observation(obs, out_dir / "observation.csv")
    if failure is not None:
        diag = failure.diagnostics or {}
        if diag:
            write_diagnostics(
                out_dir / "diagnostics.csv", diag["grids"],
                diag["ratio_table"], diag["log_table"],
                diag["ratio_failed"], diag["log_failed"],
            )
        payload = {"error": "selection failure", "message": str(failure)}
        (out_dir / "report.json").write_text(json.dumps(payload, indent=2) + "\n")
        print(f"selection failure: {failure}", file=sys.stderr)
        return 2

    write_diagnostics(
        out_dir / "diagnostics.csv", report.grids,
        report.ratio_table, report.log_table,
        report.ratio_failed, report.log_failed,
        report.ratio_index, report.log_index,
    )
    (out_dir / "report.json").write_text(
        json.dumps(_report_json(report), indent=2) + "\n"
    )
    print(
        f"nu_ratio={_fmt(report.nu_ratio)} nu_log={_fmt(report.nu_log)} "
        f"lambda={_fmt(report.ratio_lambda)} that={_fmt(report.ratio_that)}"
    )
    return 0


def _build_observation(
    data: Mapping[str, Any], scenario: str
) -> tuple[Observation, float | None]:
    """Observation plus the default basis seed for the scenario."""
    if scenario in ("example71", "example72"):
        for key in ("observation_file", "fode"):
            if key in data:
                raise ConfigError(f"config.{key}: not accepted with scenario {scenario!r}")
        if "nu0" not in data:
            raise ConfigError("config.nu0: required for the preset scenarios")
        nu0 = _as_float(data["nu0"], "config.nu0")
        noise = _parse_noise(data.get("noise"), "config.noise")
        grid = _parse_grid(data["grid"], "config.grid") if "grid" in data else None
        if scenario == "example71":
            kind = data.get("fdo_kind", "TYPE_I")
            if kind not in ("TYPE_I", "TYPE_II"):
                raise ConfigError(
                    f"config.fdo_kind: expected TYPE_I or TYPE_II, got {kind!r}"
                )
            try:
                obs = example71_observation(nu0, FdoKind[kind], noise, grid)
            except ValueError as exc:
                raise ConfigError(f"config.nu0: {exc}") from None
            return obs, nu0 / 2.0
        if "fdo_kind" in data:
            raise ConfigError("config.fdo_kind: not accepted with scenario 'example72'")
        try:
            obs = example72_observation(nu0, noise, grid)
        except ValueError as exc:
            raise ConfigError(f"config.nu0: {exc}") from None
        return obs, nu0 / 5.0

    if scenario == "custom-observation-file":
        if "observation_file" not in data:
            raise ConfigError("config.observation_file: required for this scenario")
        for key in ("nu0", "fdo_kind", "noise", "grid", "fode"):
            if key in data:
                raise ConfigError(
                    f"config.{key}: not accepted with scenario 'custom-observation-file'"
                )
        obs = read_observation(Path(str(data["observation_file"])))
        seed = None
        if obs.meta.nu0_true is not None:
            seed = obs.meta.nu0_true / (5.0 if obs.meta.scenario == "example72" else 2.0)
        return obs, seed

    # scenario == "fode": integrate the configured problem, sample the grid
    if "fode" not in data:
        raise ConfigError("config.fode: required for scenario 'fode'")
    for key in ("nu0", "fdo_kind", "observation_file"):
        if key in data:
            raise ConfigError(f"config.{key}: not accepted with scenario 'fode'")
    problem, step, _ = _parse_fode_block(data["fode"], "config.fode")
    grid = (
        _parse_grid(data["grid"], "config.grid")
        if "grid" in data
        else preset_grid("uniform72")
    )
    if grid.t_end > problem.tstar:
        raise ConfigError(
            f"config.grid: last point {grid.t_end} beyond the horizon {problem.tstar}"
        )
    try:
        solution = solve(problem, step)
    except ValueError as exc:
        raise ConfigError(f"config.fode.step: {exc}") from None
    noise = _parse_noise(data.get("noise"), "config.noise")
    nu0 = problem.fdo.nu0
    sampled = np.interp(grid.points, solution.times, solution.values).tolist()
    values = tuple(
        y + noise_value(noise, t, nu0) for t, y in zip(grid.points, sampled)
    )
    meta = ObservationMeta(scenario="fode", nu0_true=nu0, noise=noise)
    obs = Observation(grid, values, problem.v0, problem.fdo, meta)
    return obs, nu0 / 2.0


def cmd_table(table_id: int, out_path: Path) -> int:
    if table_id not in SWEEP_IDS:
        print(f"invalid table id {table_id}, expected one of {SWEEP_IDS}", file=sys.stderr)
        return 1
    rows = sweep_rows(table_id, log_selection="reuse_ratio")
    lines = [TABLE_HEADER]
    for r in rows:
        lines.append(
            f"{_fmt(r.nu0)},{r.noise},{_fmt(r.epsilon)},"
            f"{_fmt(r.nu_ratio)},{_fmt(r.nu_log)}"
        )
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("\n".join(lines) + "\n")
    _write_table_diff(table_id, rows, out_path.with_name(out_path.name + ".diff.csv"))
    failed = [r for r in rows if r.failed]
    if failed:
        print(f"{len(failed)} cells failed selection", file=sys.stderr)
        return 2
    return 0


def _write_table_diff(table_id: int, rows: Sequence[SweepRow], path: Path) -> None:
    lines = ["nu_true,noise,epsilon,nu_ratio,ref_ratio,ratio_gap,nu_log,ref_log,log_gap"]
    for r in rows:
        ref_ratio, ref_log = expected_pair(table_id, r.nu0, r.noise, r.epsilon)
        lines.append(
            f"{_fmt(r.nu0)},{r.noise},{_fmt(r.epsilon)},"
            f"{_fmt(r.nu_ratio)},{_fmt(ref_ratio)},{_fmt(r.ratio_gap)},"
            f"{_fmt(r.nu_log)},{_fmt(ref_log)},{_fmt(r.log_gap)}"
        )
    path.write_text("\n".join(lines) + "\n")


def cmd_caputo(nu: float, in_path: Path, out_path: Path) -> int:
    if not 0.0 < nu < 1.0:
        print(f"order must lie in (0, 1), got {nu!r}", file=sys.stderr)
        return 1
    times, values, _ = _read_csv_columns(in_path, "--in")
    if times[0] != 0.0:
        # the rule needs the left endpoint; extend by constant continuation
        times = (0.0,) + times
        values = (values[0],) + values
    try:
        sampled = SampledFunction(times, values)
    except ValueError as exc:
        raise ConfigError(f"--in: {in_path}: {exc}") from None
    deriv = caputo_l1(sampled, nu)
    rows = [f"{_fmt(t)},{_fmt(v)}" for t, v in zip(deriv.times, deriv.values)]
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("t,caputo\n" + "\n".join(rows) + "\n")
    return 0


def cmd_fode(config_path: Path, out_dir: Path) -> int:
    raw = _load_json(config_path)
    data = _as_mapping(raw, "config")
    _check_keys(data, "config", ["scenario", "fode"], [])
    if data["scenario"] != "fode":
        raise ConfigError(
            "config.scenario: the fode command needs scenario 'fode', "
            f"got {data['scenario']!r}"
        )
    problem, step, verify = _parse_fode_block(data["fode"], "config.fode")
    try:
        solution = solve(problem, step)
    except ValueError as exc:
        raise ConfigError(f"config.fode.step: {exc}") from None
    out_dir.mkdir(parents=True, exist_ok=True)
    write_solution(solution, out_dir / "solution.csv")
    print(
        f"solved {len(solution.values)} nodes, max newton iterations "
        f"{max(solution.newton_iterations)}"
    )
    if verify:
        try:
            est = verify_linking(solution, problem)
        except IdentifiabilityError as exc:
            print(f"linking check unavailable: {exc}", file=sys.stderr)
            return 1
        print(f"recovered nu0={_fmt(est)}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracorder",
        description="Leading-order recovery for multi-term fractional operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="run the estimation pipeline from a config")
    p_est.add_argument("--config", required=True, type=Path)
    p_est.add_argument("--out", type=Path, default=Path("."))

    p_tab = sub.add_parser("table", help="reproduce one benchmark sweep")
    p_tab.add_argument("--id", required=True, type=int)
    p_tab.add_argument("--out", required=True, type=Path)

    p_cap = sub.add_parser("caputo", help="differentiate a sampled CSV column")
    p_cap.add_argument("--nu", required=True, type=float)
    p_cap.add_argument("--in", dest="in_path", required=True, type=Path)
    p_cap.add_argument("--out", required=True, type=Path)

    p_fode = sub.add_parser("fode", help="integrate a configured fractional problem")
    p_fode.add_argument("--config", required=True, type=Path)
    p_fode.add_argument("--out", type=Path, default=Path("."))

    args = parser.parse_args(argv)
    try:
        if args.command == "estimate":
            return cmd_estimate(args.config, args.out)
        if args.command == "table":
            return cmd_table(args.id, args.out)
        if args.command == "caputo":
            return cmd_caputo(args.nu, args.in_path, args.out)
        return cmd_fode(args.config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
