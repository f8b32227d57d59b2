"""Order estimators, sweep grids, and quasi-optimality selection."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fracorder.fraccalc import PowerSum
from fracorder.obsmodel import (
    FdoDescriptor,
    FdoKind,
    NoiseSpec,
    example71_observation,
)
from fracorder.orderest import (
    DegenerateEstimateError,
    RegGrids,
    SelectionFailureError,
    _probe_table,
    default_grids,
    log_estimate,
    quasi_opt_select,
    ratio_estimate,
    run_pipeline,
)
from fracorder.regbasis import (
    BasisSpec,
    antideriv_matrix,
    basis_matrix,
    initial_power_exponents,
)
from fracorder.scenarios import run_sweep_cell, sweep_basis_spec, sweep_observation
from fracorder.tikhonov import (
    FitModel,
    fit,
    model_eval,
    model_integral,
    model_integral_weighted,
)


def power_model(nu, c=1.0, t_end=0.0021):
    """Model that is exactly c * t**nu, bypassing the fitting stage."""
    spec = BasisSpec((nu,), t_end=t_end, total_size=1)
    return FitModel(spec, (c,), 1e-6, 0.0)


SINGLE_TERM = FdoDescriptor(
    kind=FdoKind.TYPE_I, orders=(0.5,), coefficients=(1.0,)
)


# ---------------------------------------------------------------------------
# sweep grids


def test_reg_grids_validation_messages():
    with pytest.raises(ValueError, match=r"xi1 must lie in \(0, 1\), got 1.5"):
        RegGrids(1.0, 1.5, 60, 0.002, 0.5, 15)
    with pytest.raises(ValueError):
        RegGrids(0.0, 0.5, 60, 0.002, 0.5, 15)
    with pytest.raises(ValueError):
        RegGrids(1.0, 0.5, 1, 0.002, 0.5, 15)
    with pytest.raises(ValueError):
        RegGrids(1.0, 0.5, 60, -0.002, 0.5, 15)
    with pytest.raises(ValueError):
        RegGrids(1.0, 0.5, 60, 0.002, 1.0, 15)


@given(
    lambda1=st.floats(1e-3, 10.0),
    xi1=st.floats(0.1, 0.9),
    k1=st.integers(2, 30),
)
def test_grid_values_are_geometric(lambda1, xi1, k1):
    g = RegGrids(lambda1, xi1, k1, 0.002, 0.5, 4)
    vals = g.lambda_values()
    assert len(vals) == k1
    assert vals[0] == pytest.approx(lambda1)
    for a, b in zip(vals, vals[1:]):
        assert b == pytest.approx(a * xi1, rel=1e-12)


def test_default_grids_shape():
    g = default_grids(0.0021)
    assert (g.k1, g.k2) == (60, 15)
    assert g.lambda_values()[0] == 1.0
    assert g.lambda_values()[1] == 0.5
    assert g.that_values()[0] == 0.0021
    assert g.that_values()[-1] == pytest.approx(0.0021 * 2.0**-14)


# ---------------------------------------------------------------------------
# estimators on exact power models


@pytest.mark.parametrize("nu", [k / 10 for k in range(1, 10)])
def test_ratio_estimator_exact_on_pure_powers(nu):
    m = power_model(nu, c=2.7)
    for that in default_grids(0.0021).that_values():
        assert abs(ratio_estimate(m, 0.0, SINGLE_TERM, that) - nu) <= 1e-12


def test_log_estimator_on_pure_powers_carries_the_known_bias():
    # ln(c t^nu)/ln t = nu + ln c / ln t, vanishing only as t -> 0
    nu, c = 0.4, 2.0
    m = power_model(nu, c=c)
    for that in (0.002, 0.0005, 1e-5):
        got = log_estimate(m, 0.0, SINGLE_TERM, that)
        assert got == pytest.approx(nu + math.log(c) / math.log(that), rel=1e-9)


def test_log_estimator_requires_probe_below_one():
    m = power_model(0.4, t_end=0.0021)
    with pytest.raises(ValueError):
        log_estimate(m, 0.0, SINGLE_TERM, 1.0)


def test_estimators_flag_degenerate_probes():
    spec = BasisSpec((0.5,), t_end=0.002, total_size=1)
    zero = FitModel(spec, (0.0,), 1e-6, 0.0)
    with pytest.raises(DegenerateEstimateError):
        ratio_estimate(zero, 0.0, SINGLE_TERM, 0.001)
    with pytest.raises(DegenerateEstimateError):
        log_estimate(zero, 0.0, SINGLE_TERM, 0.001)


def test_constant_leading_coefficient_cancels_from_both_forms():
    nu = 0.35
    m = power_model(nu)
    plain = FdoDescriptor(kind=FdoKind.TYPE_I, orders=(nu,), coefficients=(1.0,))
    scaled = FdoDescriptor(kind=FdoKind.TYPE_II, orders=(nu,), coefficients=(4.0,))
    for that in (0.002, 0.0005):
        assert ratio_estimate(m, 0.0, scaled, that) == ratio_estimate(
            m, 0.0, plain, that
        )
        assert log_estimate(m, 0.0, scaled, that) == log_estimate(m, 0.0, plain, that)


def test_varying_leading_coefficient_enters_the_weighted_form():
    nu = 0.35
    m = power_model(nu)
    varying = FdoDescriptor(
        kind=FdoKind.TYPE_II,
        orders=(nu,),
        coefficients=(PowerSum(((1.0, 0.0), (1.0, 1.0))),),
    )
    that = 0.002
    weighted = ratio_estimate(m, 0.0, varying, that)
    plain = ratio_estimate(m, 0.0, SINGLE_TERM, that)
    assert weighted != plain
    # folding (1 + t) into t^nu shifts the probe by O(that), still near nu
    assert weighted == pytest.approx(nu, abs=0.01)


# ---------------------------------------------------------------------------
# quasi-optimality selection


def test_selection_ties_break_toward_smallest_indices():
    table = np.full((5, 4), 3.7)
    idx = quasi_opt_select(table, np.zeros((5, 4), dtype=bool))
    assert idx == (1, 1)


def test_selection_finds_a_planted_minimum():
    table = np.array(
        [
            [0.0, 10.0, 5.00, 9.0],
            [1.0, 12.0, 6.00, 7.0],
            [3.0, 15.0, 8.00, 4.0],
            [6.0, 19.0, 8.05, 0.0],
            [10.0, 24.0, 9.00, -5.0],
        ]
    )
    assert quasi_opt_select(table, np.zeros_like(table, dtype=bool)) == (1, 3)


def test_selection_skips_failed_pairs():
    table = np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 1.0], [5.1, 1.0]])
    failed = np.array(
        [[False, False], [True, False], [False, False], [False, False]]
    )
    # column 0: the (0,1) and (1,2) pairs are inadmissible, leaving (2,3);
    # column 1 is flat, so its first pair wins there and the only outer
    # difference selects column 1
    assert quasi_opt_select(table, failed) == (1, 1)


def test_selection_fails_on_a_fully_failed_column():
    table = np.ones((4, 2))
    failed = np.zeros((4, 2), dtype=bool)
    failed[:, 1] = True
    with pytest.raises(SelectionFailureError, match="column 1"):
        quasi_opt_select(table, failed)


def loop_quasi_opt_select(table, failed):
    """The selection as a double loop over the table entries: the reference."""
    k1, k2 = table.shape
    chosen_rows = []
    for j in range(k2):
        best_i = -1
        best_d = math.inf
        for i in range(1, k1):
            if failed[i, j] or failed[i - 1, j]:
                continue
            d = abs(table[i, j] - table[i - 1, j])
            if d < best_d:
                best_d = d
                best_i = i
        if best_i < 0:
            raise SelectionFailureError(
                f"no admissible consecutive pair in column {j}"
            )
        chosen_rows.append(best_i)
    best_j = -1
    best_d = math.inf
    for j in range(1, k2):
        d = abs(table[chosen_rows[j], j] - table[chosen_rows[j - 1], j - 1])
        if d < best_d:
            best_d = d
            best_j = j
    if best_j < 0:
        raise SelectionFailureError("no admissible difference in the outer pass")
    return chosen_rows[best_j], best_j


# few distinct values, so exact ties are common; NaN and +-inf as the
# estimate kernels leave them, and +-1.7e308, whose differences overflow
SELECTION_ENTRIES = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 1.0, 2.0, math.nan, math.inf, -math.inf, 1.7e308, -1.7e308]
    ),
    st.floats(-4.0, 4.0),
)


@st.composite
def selection_tables(draw):
    k1, k2 = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    size = k1 * k2
    entries = draw(st.lists(SELECTION_ENTRIES, min_size=size, max_size=size))
    failed = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    return np.reshape(entries, (k1, k2)), np.reshape(failed, (k1, k2))


@given(selection_tables())
@example((np.ones((3, 2)), np.array([[0, 1], [0, 1], [0, 0]], dtype=bool)))
@example((np.array([[1.7e308, 0.0], [1.7e308, -1.7e308]]), np.zeros((2, 2), bool)))
def test_selection_matches_the_loop_reference(case):
    table, failed = case
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            expected = loop_quasi_opt_select(table, failed)
    except SelectionFailureError as exc:
        with pytest.raises(SelectionFailureError, match=f"^{re.escape(str(exc))}$"):
            quasi_opt_select(table, failed)
    else:
        got = quasi_opt_select(table, failed)
        assert got == expected
        assert all(type(i) is int for i in got)


# ---------------------------------------------------------------------------
# full pipeline


def clean_run(nu0, log_selection="independent"):
    obs = example71_observation(nu0, noise=NoiseSpec())
    spec = BasisSpec(initial_power_exponents(nu0 / 2.0), t_end=obs.grid.t_end)
    return run_pipeline(obs, spec, default_grids(obs.grid.t_end), log_selection=log_selection)


def test_pipeline_recovers_clean_data():
    report = clean_run(0.5)
    assert abs(report.nu_ratio - 0.5) <= 1e-2


def test_pipeline_reuse_ratio_reads_log_at_the_ratio_cell():
    report = clean_run(0.5, log_selection="reuse_ratio")
    assert report.log_index == report.ratio_index
    assert report.nu_log == report.log_table[report.ratio_index[0]][report.ratio_index[1]]
    assert report.log_selection == "reuse_ratio"


def test_pipeline_independent_mode_selects_separately():
    report = clean_run(0.5, log_selection="independent")
    li, lj = report.log_index
    assert report.nu_log == report.log_table[li][lj]


def test_pipeline_rejects_unknown_log_selection():
    obs = example71_observation(0.5)
    spec = BasisSpec(initial_power_exponents(0.25), t_end=obs.grid.t_end)
    with pytest.raises(ValueError):
        run_pipeline(obs, spec, default_grids(obs.grid.t_end), log_selection="other")


def test_pipeline_rejects_probes_beyond_the_window():
    obs = example71_observation(0.5)
    spec = BasisSpec(initial_power_exponents(0.25), t_end=obs.grid.t_end)
    grids = RegGrids(1.0, 0.5, 10, obs.grid.t_end * 2, 0.5, 5)
    with pytest.raises(ValueError):
        run_pipeline(obs, spec, grids)


def test_pipeline_rejects_fewer_than_two_probes_in_the_sampled_window():
    obs = example71_observation(0.5)
    spec = BasisSpec(initial_power_exponents(0.25), t_end=obs.grid.t_end)
    # probes t_end, t_end / 10, ...: only the first reaches t_1 = 5e-4
    grids = RegGrids(1.0, 0.5, 10, obs.grid.t_end, 0.1, 5)
    with pytest.raises(ValueError, match="first sample time 0.0005"):
        run_pipeline(obs, spec, grids)


@pytest.mark.parametrize("log_selection", ["independent", "reuse_ratio"])
def test_pipeline_selects_probes_inside_the_sampled_window(log_selection):
    # below t_1 the fit extrapolates: on this cell the ratio curve has a flat
    # turning point at the probe 5.1e-7, where it reads -0.1755
    report = run_sweep_cell(3, 0.7, "N2", 0.04, log_selection=log_selection)
    t_first = sweep_observation(3, 0.7, "N2", 0.04).grid.points[0]
    assert report.ratio_that >= t_first
    assert report.log_that >= t_first
    assert abs(report.nu_ratio - 0.7) <= 0.02
    # the tables still span the whole probe grid
    assert len(report.ratio_table[0]) == report.grids.k2


def test_pipeline_attaches_diagnostics_on_selection_failure():
    from fracorder.obsmodel import Observation, TimeGrid

    grid = TimeGrid(tuple(k * 1e-4 for k in range(1, 22)))
    obs = Observation(grid, (0.0,) * 21, 0.0, SINGLE_TERM)
    spec = BasisSpec(initial_power_exponents(0.25), t_end=grid.t_end)
    with pytest.raises(SelectionFailureError) as exc_info:
        run_pipeline(obs, spec, default_grids(grid.t_end))
    diag = exc_info.value.diagnostics
    assert diag is not None
    assert all(all(row) for row in diag["ratio_failed"])


# spot checks against the embedded benchmark pairs, on cells where the
# sweep reproduces them
@pytest.mark.parametrize(
    "sweep_id,nu0,noise,eps",
    [(1, 0.5, "N1", 0.03), (1, 0.9, "N2", 0.3), (2, 0.3, "N1", 0.03), (3, 0.3, "N2", 0.4)],
)
def test_sweep_cells_match_benchmark_pairs(sweep_id, nu0, noise, eps):
    from fracorder.refvalues import expected_pair

    report = run_sweep_cell(sweep_id, nu0, noise, eps, log_selection="reuse_ratio")
    ref_ratio, ref_log = expected_pair(sweep_id, nu0, noise, eps)
    assert abs(report.nu_ratio - ref_ratio) <= 0.02
    assert abs(report.nu_log - ref_log) <= 0.03


def reference_estimates(m, psi0, fdo, that):
    """The two estimator formulas entry by entry in Python floats."""
    if fdo.kind is FdoKind.TYPE_II and not fdo.r0.is_constant():
        r0 = fdo.r0
        dev = r0(that) * model_eval(m, that) - r0(0.0) * psi0
        den = model_integral_weighted(m, r0, that) - r0(0.0) * psi0 * that
    else:
        dev = model_eval(m, that) - psi0
        den = model_integral(m, that) - psi0 * that
    ratio = None if abs(den) < 1e-300 else that * dev / den - 1.0
    log = None if dev == 0.0 else math.log(abs(dev)) / math.log(that)
    return ratio, log


@pytest.mark.parametrize("log_selection", ["independent", "reuse_ratio"])
@pytest.mark.parametrize(
    "sweep_id,cell",
    [(1, (0.5, "N2", 0.3)), (2, (0.5, "N2", 0.3)), (3, (0.5, "N2", 0.04))],
)
def test_pipeline_tables_match_the_scalar_estimators(sweep_id, cell, log_selection):
    # the pipeline builds its tables from matrix products; every entry must
    # carry the bits of the scalar estimators on a per-weight fit, and of
    # the formulas written out in Python floats
    obs = sweep_observation(sweep_id, *cell)
    spec = sweep_basis_spec(sweep_id, cell[0], obs.grid.t_end)
    grids = default_grids(obs.grid.t_end)
    fdo = obs.descriptor
    if sweep_id == 2:
        assert fdo.kind is FdoKind.TYPE_II and not fdo.r0.is_constant()
    report = run_pipeline(obs, spec, grids, log_selection=log_selection)
    tables = (
        (ratio_estimate, report.ratio_table, report.ratio_failed),
        (log_estimate, report.log_table, report.log_failed),
    )
    for i, lam in enumerate(grids.lambda_values()):
        m = fit(obs, spec, lam)
        for j, that in enumerate(grids.that_values()):
            refs = reference_estimates(m, obs.psi0, fdo, that)
            for (estimate, table, failed), ref in zip(tables, refs):
                if failed[i][j]:
                    assert ref is None
                    with pytest.raises(DegenerateEstimateError):
                        estimate(m, obs.psi0, fdo, that)
                else:
                    assert repr(table[i][j]) == repr(ref)
                    assert repr(table[i][j]) == repr(estimate(m, obs.psi0, fdo, that))


@pytest.mark.parametrize(
    "sweep_id,cell",
    [(1, (0.5, "N2", 0.3)), (2, (0.5, "N2", 0.3)), (3, (0.5, "N2", 0.04))],
)
def test_pipeline_reports_do_not_depend_on_the_cache(cold_caches, sweep_id, cell):
    # a cold build, then another cell of the same basis and grid, then the
    # first cell again from the warm cache: every report field the same
    cold = repr(run_sweep_cell(sweep_id, *cell))
    run_sweep_cell(sweep_id, cell[0], "N1", 0.03 if sweep_id < 3 else 0.04)
    assert repr(run_sweep_cell(sweep_id, *cell)) == cold


def test_cached_probe_tables_are_read_only():
    obs = sweep_observation(1, 0.5, "N2", 0.3)
    spec = sweep_basis_spec(1, 0.5, obs.grid.t_end)
    thats = default_grids(obs.grid.t_end).that_values()
    run_sweep_cell(1, 0.5, "N2", 0.3)
    for matrix in (basis_matrix, antideriv_matrix):
        table = _probe_table(matrix, spec, thats)
        assert repr(table.tolist()) == repr(matrix(spec, thats).T.tolist())
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0
