"""Marching solver: exactness, convergence rates, and order recovery."""

import math

import numpy as np
import pytest

from fracorder import fodesolver
from fracorder.fraccalc import PowerSum, SampledFunction, gamma_fn
from fracorder.fodesolver import (
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    FodeProblem,
    FodeSolution,
    IdentifiabilityError,
    NonconvergenceError,
    initial_drift,
    solve,
    verify_linking,
)
from fracorder.obsmodel import FdoDescriptor, FdoKind
from fracorder.scenarios import (
    manufactured_power_case,
    manufactured_smooth_case,
    nonlinearity_preset,
)


def single_term(nu0):
    return FdoDescriptor(FdoKind.TYPE_I, (nu0,), (PowerSum.constant(1.0),))


def constant_problem(v0=2.5):
    # f0(0) = v0 makes the constant trajectory exact and the drift zero
    return FodeProblem(single_term(0.5), PowerSum(), PowerSum.constant(v0), v0, 1.0)


def max_error(case, h, window=None):
    sol = solve(case.problem, h)
    t = sol.times
    err = np.abs(np.asarray(sol.values) - np.array([case.exact(x) for x in t]))
    if window is not None:
        err = err[(t >= window[0]) & (t <= window[1])]
    return float(err.max()), sol


# ---------------------------------------------------------------------------
# construction and validation


def test_solver_rejects_coefficients_inside_the_derivative():
    fdo = FdoDescriptor(FdoKind.TYPE_II, (0.5,), (PowerSum.constant(1.0),))
    with pytest.raises(ValueError, match="coefficient-times-derivative"):
        FodeProblem(fdo, PowerSum(), PowerSum.constant(1.0), 1.0, 1.0)


def test_step_validation():
    prob = constant_problem()
    with pytest.raises(ValueError, match="positive"):
        solve(prob, -0.1)
    with pytest.raises(ValueError, match="quarter"):
        solve(prob, 0.3)
    with pytest.raises(ValueError, match="divide"):
        solve(prob, 0.15)


def test_tabulated_forcing_must_cover_the_horizon():
    from fracorder.fraccalc import SampledFunction

    short = SampledFunction((0.0, 0.25, 0.5), (1.0, 1.0, 1.0))
    prob = FodeProblem(single_term(0.5), PowerSum(), short, 1.0, 1.0)
    with pytest.raises(ValueError, match="cover"):
        solve(prob, 1 / 8)


def test_forcing_at_checks_the_tabulation_covers_the_horizon():
    short = SampledFunction((0.0, 0.25, 0.5), (1.0, 1.0, 1.0))
    prob = FodeProblem(single_term(0.5), PowerSum(), short, 1.0, 1.0)
    with pytest.raises(ValueError, match="cover"):
        prob.forcing_at(0.25)


@pytest.mark.parametrize("tabulated", [False, True])
def test_forcing_table_equals_forcing_at_node_by_node(tabulated):
    case = manufactured_power_case(0.4, nonlinearity="sin-damped" if tabulated else "none")
    assert isinstance(case.problem.f0, SampledFunction) is tabulated
    # a step that puts most nodes between tabulation points
    times = np.arange(3001) * (1.0 / 3000)
    table = case.problem.forcing_table(times)
    assert [x.hex() for x in table] == [float(case.problem.forcing_at(t)).hex() for t in times]


def test_solution_container_validation():
    with pytest.raises(ValueError, match="finite"):
        FodeSolution(0.1, (1.0, float("nan")), (0, 0))
    with pytest.raises(ValueError, match="budget"):
        FodeSolution(0.1, (1.0, 1.0), (0, 101))
    sol = FodeSolution(0.25, (1.0, 2.0, 3.0), (0, 1, 1))
    assert np.allclose(sol.times, (0.0, 0.25, 0.5))
    assert sol.as_sampled().values == (1.0, 2.0, 3.0)


# ---------------------------------------------------------------------------
# exactness and node iteration behavior


def test_constant_solution_is_reproduced_without_newton_steps():
    sol = solve(constant_problem(), 1 / 8)
    assert all(v == 2.5 for v in sol.values)
    assert all(k == 0 for k in sol.newton_iterations)


def test_initial_drift_formula():
    fdo = FdoDescriptor(
        FdoKind.TYPE_I,
        (0.5,),
        (PowerSum(((2.0, 0.0), (1.0, 1.0))),),
    )
    prob = FodeProblem(fdo, PowerSum(), PowerSum.constant(3.0), 1.0, 1.0)
    assert initial_drift(prob) == pytest.approx(2.0 / (2.0 * gamma_fn(1.5)))


def test_newton_gives_up_when_the_node_equation_has_no_root():
    # forcing -5 with f(v) = -1000 v**2 leaves the node residual positive
    # everywhere, so bisection finds no sign change
    prob = FodeProblem(
        single_term(0.5),
        PowerSum(),
        PowerSum.constant(-5.0),
        0.0,
        1.0,
        nonlinearity=nonlinearity_preset("polynomial", (0.0, 0.0, -1000.0)),
    )
    with pytest.raises(NonconvergenceError, match="node 1"):
        solve(prob, 1 / 16)


# ---------------------------------------------------------------------------
# convergence on manufactured trajectories

SINGULAR_ORDERS = (0.3, 0.5, 0.7)


@pytest.mark.parametrize("nu0", SINGULAR_ORDERS)
def test_singular_trajectory_converges_at_the_leading_order(nu0):
    # the max error sits at the first node, where v - v0 ~ t**nu0; the
    # global rate is nu0, not the smooth-solution rate
    case = manufactured_power_case(nu0)
    e1, _ = max_error(case, 1 / 64)
    e2, _ = max_error(case, 1 / 128)
    e3, _ = max_error(case, 1 / 256)
    assert e2 <= 0.9 * e1
    assert e3 <= 0.9 * e2
    order = math.log(e1 / e3) / math.log(4.0)
    assert abs(order - nu0) <= 0.1


@pytest.mark.parametrize("nu0,cap", [(0.3, 0.35), (0.7, 0.35)])
def test_error_away_from_the_origin_drops_much_faster(nu0, cap):
    case = manufactured_power_case(nu0)
    coarse, _ = max_error(case, 1 / 256, window=(1 / 64, 1 / 32))
    fine, _ = max_error(case, 1 / 1024, window=(1 / 64, 1 / 32))
    assert fine <= cap * coarse


@pytest.mark.parametrize("nu0", SINGULAR_ORDERS)
def test_smooth_trajectory_order_exceeds_two_minus_nu_band(nu0):
    case = manufactured_smooth_case(nu0)
    e1, _ = max_error(case, 1 / 64)
    e3, _ = max_error(case, 1 / 256)
    order = math.log(e1 / e3) / math.log(4.0)
    assert order >= 2.0 - nu0 - 0.3


def test_subtracted_branch_enters_with_a_minus_sign():
    # three-branch operator, forcing assembled from the power rule; a sign
    # slip on the subtracted branch would shift the trajectory O(1)
    nu0, v0 = 0.6, 1.0
    fdo = FdoDescriptor(
        FdoKind.TYPE_I,
        (0.6, 0.2),
        (PowerSum.constant(1.0), PowerSum.constant(0.5)),
        neg_orders=(0.3,),
        neg_coefficients=(PowerSum.constant(0.25),),
    )
    forcing = PowerSum(
        (
            (1.0 + v0, 0.0),
            (0.5 / gamma_fn(1.4), 0.4),
            (-0.25 / gamma_fn(1.3), 0.3),
            (1.0 / gamma_fn(1.6), 0.6),
        )
    )
    problem = FodeProblem(fdo, PowerSum(), forcing, v0, 1.0)
    exact = lambda t: v0 + t**nu0 / gamma_fn(1.6)

    sol = solve(problem, 1 / 512)
    err = max(
        abs(v - exact(t)) for t, v in zip(sol.times, sol.values)
    )
    assert err <= 8e-3
    assert initial_drift(problem) == pytest.approx(1.0 / gamma_fn(1.6))


def test_sin_damping_keeps_accuracy_and_newton_budget():
    base = manufactured_power_case(0.5)
    damped = manufactured_power_case(0.5, nonlinearity="sin-damped")
    e_base, _ = max_error(base, 1 / 256)
    e_damped, sol = max_error(damped, 1 / 256)
    assert e_damped <= 3.0 * e_base
    assert max(sol.newton_iterations) <= 5


def test_compensated_smooth_case_keeps_the_smooth_rate_at_a_low_order():
    # the compensated forcing carries a t**(2/3) term; interpolated from a
    # uniform table it missed the h**(2 - nu0) rate near nu0 = 0.21
    nu0, n = 0.20884134261838905, 1860
    case = manufactured_smooth_case(nu0, nonlinearity="sin-damped")
    err, _ = max_error(case, 1 / n)
    assert err <= (1 / n) ** (2.0 - nu0)


# ---------------------------------------------------------------------------
# order recovery from the computed trajectory


@pytest.mark.parametrize("nu0", SINGULAR_ORDERS)
def test_linking_recovers_the_order_at_a_fine_step(nu0):
    case = manufactured_power_case(nu0)
    sol = solve(case.problem, 1 / 4096)
    assert abs(verify_linking(sol, case.problem) - nu0) <= 2e-4


def test_linking_error_decays_with_the_step():
    case = manufactured_power_case(0.5)
    gaps = [
        abs(verify_linking(solve(case.problem, 1 / n), case.problem) - 0.5)
        for n in (512, 1024, 2048)
    ]
    assert gaps[1] <= 0.55 * gaps[0]
    assert gaps[2] <= 0.55 * gaps[1]


def test_linking_rejects_vanishing_initial_drift():
    prob = constant_problem()
    sol = solve(prob, 1 / 8)
    with pytest.raises(IdentifiabilityError, match="drift"):
        verify_linking(sol, prob)


def test_nonlinearity_presets():
    poly = nonlinearity_preset("polynomial", (1.0, -2.0, 0.5))
    assert poly(0.3, 2.0) == pytest.approx(1.0 - 4.0 + 2.0)
    assert nonlinearity_preset("none") is None
    with pytest.raises(ValueError, match="coefficient list"):
        nonlinearity_preset("polynomial")
    with pytest.raises(ValueError, match="unknown nonlinearity"):
        nonlinearity_preset("tanh")


# ---------------------------------------------------------------------------
# bitwise agreement with a straightforward per-node march


def reference_solve(problem, h):
    # node by node on numpy scalars: forcing looked up per node, the
    # differences rebuilt by np.diff, damped Newton as in the solver
    n_steps = int(round(problem.tstar / h))
    times = np.arange(n_steps + 1) * h
    branches = [(1.0, nu, r) for nu, r in zip(problem.fdo.orders, problem.fdo.coefficients)]
    branches += [(-1.0, nu, r) for nu, r in zip(problem.fdo.neg_orders, problem.fdo.neg_coefficients)]
    coeff_at = [sign * np.array([r(t) for t in times]) for sign, _, r in branches]
    weights = [fodesolver._derivative_weights(nu, h, n_steps) for _, nu, _ in branches]
    m0, m1 = fodesolver._kernel_moments(problem.kernel, h, n_steps)
    a = (np.arange(1, n_steps + 1) * h) * m0 - m1
    forcing = np.array([problem.forcing_at(t) for t in times])
    nonlin = problem.nonlinearity or (lambda t, x: 0.0)
    v = np.empty(n_steps + 1)
    v[0] = problem.v0
    iters = [0]
    for n in range(1, n_steps + 1):
        dv = np.diff(v[:n])
        hist, lin = 0.0, 1.0
        for rvals, w in zip(coeff_at, weights):
            hist += rvals[n] * (dv @ w[1:n][::-1] - w[0] * v[n - 1])
            lin += rvals[n] * w[0]
        hist += v[:n] @ m0[:n][::-1] + (dv / h) @ a[1:n][::-1]
        hist -= (a[0] / h) * v[n - 1]
        lin += a[0] / h
        hist -= forcing[n]
        residual = lambda x: hist + lin * x - nonlin(times[n], x)
        x, fx, used = v[n - 1], residual(v[n - 1]), 0
        while abs(fx) > NEWTON_TOL:
            used += 1
            delta = 1e-7 * max(1.0, abs(x))
            step = fx / ((residual(x + delta) - residual(x - delta)) / (2.0 * delta))
            damp = 1.0
            while not abs(residual(x - damp * step)) < abs(fx):
                damp /= 2.0
                assert damp >= 2.0 ** -20, "the reference march has no bisection fallback"
            x = x - damp * step
            fx = residual(x)
            assert used <= NEWTON_MAX_ITER
        v[n] = x
        iters.append(used)
    return tuple(float(x) for x in v), tuple(iters)


def three_branch_problem(f0, nonlinearity=None):
    # time-varying leading and subtracted coefficients, memory kernel
    fdo = FdoDescriptor(
        FdoKind.TYPE_I,
        (0.6, 0.2),
        (PowerSum(((1.0, 0.0), (0.3, 1.0))), PowerSum(((0.5, 0.0), (0.2, 0.5)))),
        neg_orders=(0.3,),
        neg_coefficients=(PowerSum(((0.25, 0.0), (0.1, 1.0))),),
    )
    kernel = PowerSum(((0.8, -1.0 / 3.0), (0.2, 0.5)))
    return FodeProblem(fdo, kernel, f0, 1.0, 1.0, nonlinearity)


def tabulated_forcing():
    ts = np.linspace(0.0, 1.0, 1001)
    return SampledFunction(tuple(ts.tolist()), tuple((2.0 + np.sin(3.0 * ts)).tolist()))


BITWISE_CASES = {
    "power/sin-damped": lambda: manufactured_power_case(0.4, nonlinearity="sin-damped").problem,
    "smooth/polynomial": lambda: manufactured_smooth_case(
        0.6, nonlinearity="polynomial", coefficients=(0.03, -0.07, -0.02)
    ).problem,
    "power/linear": lambda: manufactured_power_case(0.7).problem,
    "three-branch/linear": lambda: three_branch_problem(PowerSum(((2.0, 0.0), (0.7, 0.4)))),
    "three-branch/tabulated": lambda: three_branch_problem(
        tabulated_forcing(), nonlinearity_preset("polynomial", (0.0, 0.1, -0.2))
    ),
}


@pytest.mark.parametrize("name", sorted(BITWISE_CASES))
def test_solve_matches_the_per_node_reference_bitwise(name):
    problem = BITWISE_CASES[name]()
    assert problem.kernel.terms
    sol = solve(problem, 1 / 256)
    values, iters = reference_solve(problem, 1 / 256)
    assert [x.hex() for x in sol.values] == [x.hex() for x in values]
    assert sol.newton_iterations == iters
