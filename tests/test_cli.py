"""Command line front end: exit codes, file outputs, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracorder
from fracorder.cli import _build_observation, _parse_fode_block, main
from fracorder.fodesolver import solve
from fracorder.fraccalc import gamma_fn
from fracorder.obsmodel import NoiseKind, NoiseSpec, noise_value

ESTIMATE_CONFIG = {
    "scenario": "example71",
    "nu0": 0.5,
    "noise": {"kind": "N1", "epsilon": 0.03},
    "log_selection": "reuse_ratio",
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def run(argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# estimate


def test_estimate_writes_report_observation_and_diagnostics(tmp_path, capsys):
    cfg = write_config(tmp_path, ESTIMATE_CONFIG)
    out = tmp_path / "out"
    assert run(["estimate", "--config", cfg, "--out", out]) == 0
    assert "nu_ratio=" in capsys.readouterr().out

    report = json.loads((out / "report.json").read_text())
    assert abs(report["nu_ratio"] - 0.5) <= 0.02
    assert report["log_selection"] == "reuse_ratio"
    assert report["ratio_index"] == report["log_index"]

    obs_lines = (out / "observation.csv").read_text().splitlines()
    assert obs_lines[0] == "t,psi"
    assert len(obs_lines) == 22
    assert (out / "observation.json").is_file()

    diag_lines = (out / "diagnostics.csv").read_text().splitlines()
    assert diag_lines[0] == "i,j,lambda,that,nu_ratio,nu_log,flag"
    assert len(diag_lines) == 1 + 60 * 15
    assert any(line.endswith("ratio_selected+log_selected") for line in diag_lines)


def test_estimate_round_trips_through_the_written_observation(tmp_path):
    cfg = write_config(tmp_path, ESTIMATE_CONFIG)
    first = tmp_path / "first"
    assert run(["estimate", "--config", cfg, "--out", first]) == 0

    replay = write_config(
        tmp_path,
        {
            "scenario": "custom-observation-file",
            "observation_file": str(first / "observation.csv"),
            "log_selection": "reuse_ratio",
        },
        name="replay.json",
    )
    second = tmp_path / "second"
    assert run(["estimate", "--config", replay, "--out", second]) == 0
    assert (second / "report.json").read_bytes() == (first / "report.json").read_bytes()


def test_estimate_is_byte_identical_across_thread_settings(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, ESTIMATE_CONFIG)
    monkeypatch.delenv("FRACORDER_THREADS", raising=False)
    run(["estimate", "--config", cfg, "--out", tmp_path / "a"])
    monkeypatch.setenv("FRACORDER_THREADS", "4")
    run(["estimate", "--config", cfg, "--out", tmp_path / "b"])
    for name in ("report.json", "observation.csv", "diagnostics.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize(
    "patch,fragment",
    [
        ({"bogus": 1}, "unknown key 'bogus'"),
        ({"scenario": "example99"}, "config.scenario"),
        ({"nu0": 1.7}, "config.nu0"),
        ({"log_selection": "both"}, "config.log_selection"),
        ({"fdo_kind": "TYPE_III"}, "config.fdo_kind"),
        ({"observation_file": "x.csv"}, "config.observation_file"),
        ({"reg_grids": {"xi1": 1.5}}, "xi1 must lie in (0, 1), got 1.5"),
        ({"noise": {"kind": "N9"}}, "config.noise.kind"),
        ({"reg_grids": {"xi2": 0.1}}, "first sample time"),
    ],
)
def test_estimate_config_errors_name_the_offending_key(
    tmp_path, capsys, patch, fragment
):
    cfg = write_config(tmp_path, {**ESTIMATE_CONFIG, **patch})
    assert run(["estimate", "--config", cfg, "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert fragment in err


def test_estimate_writes_nothing_on_a_config_error(tmp_path, capsys):
    # the grids are only checked by the pipeline, after the observation exists
    cfg = write_config(tmp_path, {**ESTIMATE_CONFIG, "reg_grids": {"xi2": 0.1}})
    out = tmp_path / "out"
    assert run(["estimate", "--config", cfg, "--out", out]) == 1
    assert "first sample time" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_missing_config_file(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run(["estimate", "--config", missing, "--out", tmp_path]) == 1
    assert str(missing) in capsys.readouterr().err


def test_estimate_reports_selection_failure(tmp_path, capsys):
    # identically zero observation: every fit is zero, every probe degenerate
    rows = "\n".join(f"{k * 1e-4},0.0" for k in range(1, 22))
    (tmp_path / "obs.csv").write_text("t,psi\n" + rows + "\n")
    sidecar = {
        "psi0": 0.0,
        "descriptor": {"orders": [0.5], "coefficients": [[[1.0, 0.0]]]},
    }
    (tmp_path / "obs.json").write_text(json.dumps(sidecar))
    cfg = write_config(
        tmp_path,
        {
            "scenario": "custom-observation-file",
            "observation_file": str(tmp_path / "obs.csv"),
            "basis": {"seed": 0.25},
        },
    )
    out = tmp_path / "out"
    assert run(["estimate", "--config", cfg, "--out", out]) == 2
    assert "selection failure" in capsys.readouterr().err
    assert json.loads((out / "report.json").read_text())["error"] == "selection failure"
    assert (out / "diagnostics.csv").is_file()
    assert (out / "observation.csv").is_file() and (out / "observation.json").is_file()


def test_estimate_from_a_solved_fode(tmp_path):
    # exact trajectory 1 + sqrt(t)/Gamma(1.5): D^{1/2} v + v = f0
    cfg = write_config(
        tmp_path,
        {
            "scenario": "fode",
            "fode": {
                "fdo": {"orders": [0.5], "coefficients": [[[1.0, 0.0]]]},
                "v0": 1.0,
                "tstar": 0.0025,
                "step": 6.25e-6,
                "f0": [[2.0, 0.0], [1.0 / gamma_fn(1.5), 0.5]],
            },
        },
    )
    out = tmp_path / "out"
    assert run(["estimate", "--config", cfg, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert abs(report["nu_ratio"] - 0.5) <= 0.02


def test_fode_observation_samples_the_solution_at_each_grid_point():
    data = {
        "scenario": "fode",
        "fode": {
            "fdo": {"orders": [0.5], "coefficients": [[[1.0, 0.0]]]},
            "v0": 1.0,
            "tstar": 0.0025,
            "step": 6.25e-6,
            "f0": [[2.0, 0.0], [1.0 / gamma_fn(1.5), 0.5]],
        },
        "noise": {"kind": "N2", "epsilon": 0.04},
    }
    obs, _ = _build_observation(data, "fode")
    sol = solve(_parse_fode_block(data["fode"], "config.fode")[0], 6.25e-6)
    noise = NoiseSpec(NoiseKind.N2, 0.04)
    expected = [
        float(np.interp(t, sol.times, sol.values)) + noise_value(noise, t, 0.5)
        for t in obs.grid.points
    ]
    assert [v.hex() for v in obs.values] == [v.hex() for v in expected]


# ---------------------------------------------------------------------------
# table


def test_table_rejects_unknown_sweep_ids(tmp_path, capsys):
    assert run(["table", "--id", 9, "--out", tmp_path / "t.csv"]) == 1
    assert "invalid table id" in capsys.readouterr().err


def test_table_writes_all_rows_and_the_diff(tmp_path):
    out = tmp_path / "sweep1.csv"
    assert run(["table", "--id", 1, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "nu_true,noise,epsilon,nu_ratio,nu_log"
    assert len(lines) == 1 + 54
    diff_lines = (tmp_path / "sweep1.csv.diff.csv").read_text().splitlines()
    assert len(diff_lines) == 1 + 54
    assert diff_lines[0].startswith("nu_true,noise,epsilon,nu_ratio,ref_ratio")


# ---------------------------------------------------------------------------
# caputo


def test_caputo_of_a_constant_is_identically_zero(tmp_path):
    rows = "\n".join(f"{k / 16},4.5" for k in range(17))
    (tmp_path / "in.csv").write_text("t,f\n" + rows + "\n")
    out = tmp_path / "out.csv"
    assert run(["caputo", "--nu", 0.5, "--in", tmp_path / "in.csv", "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,caputo"
    assert len(lines) == 18
    assert all(line.endswith(",0.0") for line in lines[1:])


def test_caputo_extends_grids_that_skip_the_origin(tmp_path):
    (tmp_path / "in.csv").write_text("t,f\n0.25,1.0\n0.5,1.0\n0.75,1.0\n")
    out = tmp_path / "out.csv"
    assert run(["caputo", "--nu", 0.3, "--in", tmp_path / "in.csv", "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    assert lines[1].startswith("0.0,")


def test_caputo_validates_order_and_input(tmp_path, capsys):
    (tmp_path / "in.csv").write_text("t,f\n0.0,1.0\n1.0,2.0\n")
    assert run(["caputo", "--nu", 1.5, "--in", tmp_path / "in.csv", "--out", tmp_path / "o.csv"]) == 1
    assert "order must lie in (0, 1)" in capsys.readouterr().err
    missing = tmp_path / "absent.csv"
    assert run(["caputo", "--nu", 0.5, "--in", missing, "--out", tmp_path / "o.csv"]) == 1
    assert str(missing) in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fode


def fode_config(verify=True, f0_const=2.0):
    return {
        "scenario": "fode",
        "fode": {
            "fdo": {"orders": [0.5], "coefficients": [[[1.0, 0.0]]]},
            "v0": 1.0,
            "tstar": 1.0,
            "step": 1.0 / 64,
            "f0": [[f0_const, 0.0], [1.0 / gamma_fn(1.5), 0.5]],
            "verify_linking": verify,
        },
    }


def test_fode_solves_and_recovers_the_order(tmp_path, capsys):
    cfg = write_config(tmp_path, fode_config())
    out = tmp_path / "out"
    assert run(["fode", "--config", cfg, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "solved 65 nodes" in stdout
    assert "recovered nu0=" in stdout
    recovered = float(stdout.rsplit("nu0=", 1)[1])
    assert abs(recovered - 0.5) <= 0.05
    lines = (out / "solution.csv").read_text().splitlines()
    assert lines[0] == "t,v"
    assert len(lines) == 66


def test_fode_flags_unrecoverable_problems(tmp_path, capsys):
    # f0(0) = v0 kills the initial drift
    cfg = write_config(tmp_path, fode_config(f0_const=1.0))
    cfg_data = json.loads(cfg.read_text())
    cfg_data["fode"]["f0"] = [[1.0, 0.0]]
    cfg.write_text(json.dumps(cfg_data))
    assert run(["fode", "--config", cfg, "--out", tmp_path / "out"]) == 1
    assert "linking check unavailable" in capsys.readouterr().err


def test_fode_config_errors(tmp_path, capsys):
    bad = fode_config()
    bad["fode"]["f0_file"] = "also.csv"
    cfg = write_config(tmp_path, bad)
    assert run(["fode", "--config", cfg, "--out", tmp_path / "o"]) == 1
    assert "exactly one of f0" in capsys.readouterr().err

    bad = fode_config()
    bad["fode"]["step"] = 0.33
    cfg = write_config(tmp_path, bad, name="c2.json")
    assert run(["fode", "--config", cfg, "--out", tmp_path / "o"]) == 1
    assert "config.fode.step" in capsys.readouterr().err

    bad = fode_config()
    bad["extra"] = True
    cfg = write_config(tmp_path, bad, name="c3.json")
    assert run(["fode", "--config", cfg, "--out", tmp_path / "o"]) == 1
    assert "unknown key 'extra'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fdo_patch,f0,key",
    [
        ({}, [[2.0, 0.0], [1.0, -0.5]], "config.fode.f0[1]"),
        (
            {"orders": [0.5, 0.2], "coefficients": [[[1.0, 0.0]], [[1.0, -0.5]]]},
            [[2.0, 0.0]],
            "config.fode.fdo.coefficients[1]",
        ),
        (
            {"neg_orders": [0.2], "neg_coefficients": [[[0.1, -0.5]]]},
            [[2.0, 0.0]],
            "config.fode.fdo.neg_coefficients[0]",
        ),
    ],
    ids=["f0", "coefficient", "neg_coefficient"],
)
def test_negative_exponents_singular_at_zero_name_their_key(
    tmp_path, capsys, fdo_patch, f0, key
):
    bad = fode_config(verify=False)
    bad["fode"]["fdo"].update(fdo_patch)
    bad["fode"]["f0"] = f0
    cfg = write_config(tmp_path, bad)
    for command in ("fode", "estimate"):
        assert run([command, "--config", cfg, "--out", tmp_path / command]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}") and "negative" in err
        assert not (tmp_path / command).exists()


def test_weakly_singular_memory_kernels_stay_accepted(tmp_path, capsys):
    good = fode_config(verify=False)
    good["fode"]["kernel"] = [[1.0, -0.5]]
    cfg = write_config(tmp_path, good)
    assert run(["fode", "--config", cfg, "--out", tmp_path / "o"]) == 0
    assert "solved 65 nodes" in capsys.readouterr().out


def test_short_forcing_tabulation_names_the_f0_file_key(tmp_path, capsys):
    # the tabulation stops at t = 0.5 but the horizon is 1
    (tmp_path / "forcing.csv").write_text("t,f\n0.0,2.0\n0.25,2.0\n0.5,2.0\n")
    bad = fode_config()
    del bad["fode"]["f0"]
    bad["fode"]["f0_file"] = str(tmp_path / "forcing.csv")
    cfg = write_config(tmp_path, bad)
    assert run(["fode", "--config", cfg, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert "config.fode.f0_file" in err and "cover" in err

    assert run(["estimate", "--config", cfg, "--out", tmp_path / "e"]) == 1
    err = capsys.readouterr().err
    assert "config.fode.f0_file" in err and "cover" in err


def test_importing_the_cli_loads_no_scipy():
    # numpy is the only runtime dependency; every cold command pays what
    # the import pulls in
    src = str(Path(fracorder.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    code = (
        "import sys, fracorder.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"
