"""Penalized least-squares fitting against high-precision linear algebra."""

import dataclasses
import gc
import importlib.util
import math
import re
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from fracorder.fraccalc import PowerSum
from fracorder.obsmodel import (
    FdoDescriptor,
    FdoKind,
    Observation,
    TimeGrid,
    example71_observation,
)
from fracorder.orderest import default_grids
from fracorder.regbasis import (
    BasisSpec,
    SingularBasisWarning,
    basis_functions,
    gram_matrix,
)
from fracorder.scenarios import sweep_basis_spec, sweep_observation
from fracorder.tikhonov import (
    FitModel,
    SingularSystemError,
    _standard_form,
    _weighted_terms,
    design_matrix,
    fit,
    fit_all,
    model_eval,
    model_integral,
    model_integral_weighted,
)


def stock_problem():
    obs = example71_observation(0.5)
    spec = BasisSpec((0.4375, 0.3625, 0.2875), t_end=obs.grid.t_end)
    return obs, spec


def test_design_matrix_shape_and_origin_row():
    obs, spec = stock_problem()
    q = design_matrix(obs, spec)
    assert q.shape == (22, 9)
    # power members vanish at the origin, the constant Jacobi member is 1
    assert q[0, 0] == q[0, 1] == q[0, 2] == 0.0
    assert q[0, 3] == pytest.approx(1.0)


def test_design_matrix_rejects_grid_beyond_window():
    obs, _ = stock_problem()
    small = BasisSpec((0.4,), t_end=obs.grid.t_end / 2)
    with pytest.raises(ValueError):
        design_matrix(obs, small)
    for _ in range(2):
        with pytest.raises(ValueError, match="beyond the basis window"):
            fit_all(obs, small, (1.0,))


def test_fit_requires_positive_penalty():
    obs, spec = stock_problem()
    for lam in (0.0, -1.0):
        with pytest.raises(ValueError):
            fit(obs, spec, lam)


def _high_precision_coeffs(obs, spec, lam):
    q = design_matrix(obs, spec)
    e = gram_matrix(spec)
    p = np.array([obs.psi0, *obs.values])
    mp.mp.dps = 50
    lhs = mp.matrix((q.T @ q).tolist()) + mp.mpf(lam) * mp.matrix(e.tolist())
    rhs = mp.matrix((q.T @ p).tolist())
    exact = mp.lu_solve(lhs, rhs)
    return q, np.array([float(x) for x in exact])


@pytest.mark.parametrize("lam", [1e-3, 1e-8, 1e-12])
def test_fit_predictions_match_high_precision_solve(lam):
    """Fitted node values agree with a 50-digit solve of the normal equations.

    Coefficient-space agreement degrades with the conditioning of the
    normal matrix, but the fitted trajectory (the quantity the estimators
    consume) stays accurate across the penalty sweep.
    """
    obs, spec = stock_problem()
    m = fit(obs, spec, lam)
    q, a_star = _high_precision_coeffs(obs, spec, lam)
    dev = np.linalg.norm(q @ (np.asarray(m.coeffs) - a_star))
    assert dev <= 1e-8 * np.linalg.norm(q @ a_star)


def test_fit_coefficients_match_at_moderate_penalty():
    obs, spec = stock_problem()
    lam = 1e-3
    m = fit(obs, spec, lam)
    _, a_star = _high_precision_coeffs(obs, spec, lam)
    scale = np.max(np.abs(a_star))
    assert np.max(np.abs(np.asarray(m.coeffs) - a_star)) <= 5e-7 * scale


def test_normal_equation_residual_is_tiny():
    obs, spec = stock_problem()
    lam = 1e-6
    m = fit(obs, spec, lam)
    q = design_matrix(obs, spec)
    e = gram_matrix(spec)
    p = np.array([obs.psi0, *obs.values])
    lhs = q.T @ q + lam * e
    rhs = q.T @ p
    res = np.linalg.norm(lhs @ np.asarray(m.coeffs) - rhs)
    assert res <= 1e-10 * np.linalg.norm(rhs)


def test_reported_misfit_matches_recomputation():
    obs, spec = stock_problem()
    m = fit(obs, spec, 1e-4)
    q = design_matrix(obs, spec)
    p = np.array([obs.psi0, *obs.values])
    assert m.residual_norm == pytest.approx(
        float(np.linalg.norm(q @ np.asarray(m.coeffs) - p)), rel=1e-12
    )


def test_misfit_grows_and_penalty_shrinks_with_lambda():
    obs, spec = stock_problem()
    e = gram_matrix(spec)
    lams = [2.0 ** -k for k in range(20, -1, -4)]  # increasing
    misfits, penalties = [], []
    for lam in lams:
        m = fit(obs, spec, lam)
        a = np.asarray(m.coeffs)
        misfits.append(m.residual_norm)
        penalties.append(float(a @ e @ a))
    for lo, hi in zip(misfits, misfits[1:]):
        assert hi >= lo * (1.0 - 1e-12)
    for hi, lo in zip(penalties, penalties[1:]):
        assert lo <= hi * (1.0 + 1e-12)


def test_fit_recovers_data_in_the_span():
    # trajectory built from the basis itself; a tiny penalty must
    # reproduce the node values to near rounding
    grid = TimeGrid(tuple(k * 1e-4 for k in range(2, 22)))
    spec = BasisSpec((0.5, 0.3), t_end=grid.t_end, total_size=5)
    fns = basis_functions(spec)
    coeffs = (1.3, -0.4, 0.2, 0.05, -0.01)
    traj = lambda t: sum(c * fn(t) for c, fn in zip(coeffs, fns))
    fdo = FdoDescriptor(kind=FdoKind.TYPE_I, orders=(0.5,), coefficients=(1.0,))
    obs = Observation(grid, tuple(traj(t) for t in grid.points), traj(0.0), fdo)
    m = fit(obs, spec, 1e-20)
    scale = max(abs(v) for v in obs.values)
    for t, v in zip(grid.points, obs.values):
        assert abs(model_eval(m, t) - v) <= 1e-9 * scale


def test_model_integral_consistent_with_fine_trapezoid():
    obs, spec = stock_problem()
    m = fit(obs, spec, 1e-5)
    that = 0.002
    ts = np.linspace(1e-9, that, 20001)
    vals = np.array([model_eval(m, t) for t in ts])
    approx = float(np.trapezoid(vals, ts))
    assert math.isclose(model_integral(m, that), approx, rel_tol=1e-4)


def test_weighted_integral_reduces_to_plain_for_unit_weight():
    obs, spec = stock_problem()
    m = fit(obs, spec, 1e-5)
    one = PowerSum.constant(1.0)
    for that in (0.0005, 0.002, 0.003):
        assert model_integral_weighted(m, one, that) == pytest.approx(
            model_integral(m, that), rel=1e-12
        )


def test_model_eval_window_checks():
    obs, spec = stock_problem()
    m = fit(obs, spec, 1e-5)
    with pytest.raises(ValueError):
        model_eval(m, 0.0)
    with pytest.raises(ValueError):
        model_eval(m, spec.t_end * 1.01)
    with pytest.raises(ValueError):
        model_integral(m, 0.0)


def test_fit_model_validation():
    spec = BasisSpec((0.5,), t_end=0.002, total_size=2)
    with pytest.raises(ValueError):
        FitModel(spec, (math.nan, 0.0), 1e-3, 0.0)
    with pytest.raises(ValueError):
        FitModel(spec, (1.0, 0.0), 1e-3, -1.0)


def test_weighted_integral_adds_the_power_sum_product_terms_in_order():
    # the terms of r0 * model, integrated and added one after the other
    obs, spec = stock_problem()
    r0 = PowerSum(((1.5, 0.0), (-2.0, 1.0), (0.7, 2.0)))
    monomials = lambda m: PowerSum(
        tuple(
            (coeff * c, e)
            for coeff, fn in zip(m.coeffs, basis_functions(spec))
            for c, e in fn.terms
        )
    )
    for lam in (1e-3, 2.0**-55):
        m = fit(obs, spec, lam)
        for that in (spec.t_end, 0.0007, 3e-6):
            expected = 0.0
            for c, e in (r0 * monomials(m)).terms:
                expected += c * that ** (e + 1.0) / (e + 1.0)
            assert repr(model_integral_weighted(m, r0, that)) == repr(expected)


def test_fit_all_matches_one_fit_per_weight():
    obs, spec = stock_problem()
    lams = (1.0, 1e-6, 2.0**-55)
    ladder = fit_all(obs, spec, lams)
    assert [row.tolist() for row in ladder] == [
        list(fit(obs, spec, lam).coeffs) for lam in lams
    ]
    with pytest.raises(ValueError):
        fit_all(obs, spec, (1.0, 0.0))


@pytest.mark.parametrize("lam", [1.0, 1e-6, 2.0**-55])
def test_duplicate_power_members_make_the_fit_singular(lam):
    # a failed build is not cached, so the second call warns and raises too
    obs, _ = stock_problem()
    spec = BasisSpec((0.4, 0.4, 0.2), t_end=obs.grid.t_end)
    for _ in range(2):
        with pytest.warns(SingularBasisWarning), pytest.raises(SingularSystemError):
            fit(obs, spec, lam)


def test_repeated_deep_penalty_fits_do_not_leak():
    # the deep end of the penalty sweep is ill-conditioned; the solver must
    # not keep memory per call there
    obs = sweep_observation(1, 0.5, "N2", 0.3)
    spec = sweep_basis_spec(1, 0.5, obs.grid.t_end)
    lam = 2.0**-55
    tracemalloc.start()
    try:
        for _ in range(300):
            fit(obs, spec, lam)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(300):
            fit(obs, spec, lam)
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert growth < 256 * 1024


@pytest.fixture(scope="module")
def oracle_check():
    path = Path(__file__).resolve().parents[1] / "scripts" / "oracle_check.py"
    spec = importlib.util.spec_from_file_location("oracle_check", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ORACLE_CELLS = [
    (sweep_id, nu0, "N2", epsilon)
    for sweep_id, epsilon in ((1, 0.03), (2, 0.03), (3, 0.04))
    for nu0 in (0.1, 0.5, 0.9)
]


@pytest.mark.parametrize("cell", ORACLE_CELLS, ids=lambda c: "-".join(map(str, c)))
def test_value_and_integral_tables_match_a_60_digit_solve(oracle_check, cell):
    # every penalty weight and probe of the cell, against mpmath at 60
    # digits from the same float64 Q, E and p; the bound is 12x the largest
    # error over all 162 sweep cells (scripts/oracle_check.py)
    row = oracle_check.cell_errors(*cell)
    assert row["value_err"] <= 1e-5
    assert row["integral_err"] <= 1e-5


def reference_ladder(obs, spec, lams):
    """Standard-form coefficients with one filter and one product per weight."""
    q = design_matrix(obs, spec)
    e = gram_matrix(spec)
    p = np.array([obs.psi0, *obs.values])
    d = 1.0 / np.sqrt(np.diag(e))
    w, v = np.linalg.eigh(d[:, None] * e * d)
    unwhiten = d[:, None] * v / np.sqrt(w)
    u, s, zt = np.linalg.svd(q @ unwhiten, full_matrices=False)
    back = unwhiten @ zt.T
    beta = u.T @ p
    s2 = s * s
    rows = []
    for lam in lams:
        a = back @ (s / (s2 + lam) * beta)
        if not np.isfinite(a).all():
            raise SingularSystemError(f"non-finite solution at lam={lam!r}")
        rows.append(a.tolist())
    return rows


def sweep_problem(sweep_id, nu0, noise, epsilon):
    obs = sweep_observation(sweep_id, nu0, noise, epsilon)
    spec = sweep_basis_spec(sweep_id, nu0, obs.grid.t_end)
    return obs, spec, default_grids(obs.grid.t_end).lambda_values()


@pytest.mark.parametrize("cell", ORACLE_CELLS, ids=lambda c: "-".join(map(str, c)))
def test_fit_all_keeps_the_bits_of_the_per_weight_loop(cell):
    # fit and fit_all share their code, so only a copy of the loop can show
    # that the 2-D filter and the row products kept every bit
    obs, spec, lams = sweep_problem(*cell)
    ladder = fit_all(obs, spec, lams)
    assert ladder.shape == (len(lams), spec.total_size)
    assert not ladder.flags.writeable
    assert repr(ladder.tolist()) == repr(reference_ladder(obs, spec, lams))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("step", [1, -1])
def test_fit_all_names_the_first_non_finite_weight(step):
    # scaled up, these data overflow the fit on stock rows 7-15 only, so the
    # two orders of the ladder name different weights
    obs, spec, lams = sweep_problem(1, 0.5, "N2", 0.03)
    big = dataclasses.replace(obs, values=tuple(v * 2e306 for v in obs.values))
    lams, first = lams[::step], 7 if step > 0 else 59 - 15
    with pytest.raises(SingularSystemError) as ref:
        reference_ladder(big, spec, lams)
    assert str(ref.value) == f"non-finite solution at lam={lams[first]!r}"
    with pytest.raises(SingularSystemError, match=f"^{re.escape(str(ref.value))}$"):
        fit_all(big, spec, lams)


def test_fits_that_share_a_grid_keep_their_own_data(cold_caches):
    # the cached system is built from the first observation on its grid; it
    # must carry nothing of that observation into the next one
    obs_a, spec, lams = sweep_problem(1, 0.5, "N1", 0.03)
    obs_b = sweep_observation(1, 0.5, "N3", 0.3)
    assert obs_b.grid == obs_a.grid and obs_b.values != obs_a.values
    for obs in (obs_a, obs_b, obs_a):
        ladder = fit_all(obs, spec, lams)
        assert repr(ladder.tolist()) == repr(reference_ladder(obs, spec, lams))


def test_cached_arrays_are_read_only_and_design_matrix_is_a_fresh_copy():
    obs, spec = stock_problem()
    r0 = PowerSum(((1.5, 0.0), (-2.0, 1.0)))
    model_integral_weighted(fit(obs, spec, 1e-3), r0, spec.t_end)
    powers = [row for _, row in _weighted_terms(spec, r0, (spec.t_end,))]
    for arr in (*_standard_form(spec, obs.grid.points), *powers):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    q = design_matrix(obs, spec)
    assert q.flags.writeable
    assert not np.shares_memory(q, _standard_form(spec, obs.grid.points)[0])
    assert repr(q.tolist()) == repr(_standard_form(spec, obs.grid.points)[0].tolist())
