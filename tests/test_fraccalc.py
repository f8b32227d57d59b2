"""Special-function oracles and discrete fractional calculus checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracorder.fraccalc import (
    DegenerateObservationError,
    PowerSum,
    SampledFunction,
    _kernel_convolve,
    beta_fn,
    binom_real,
    caputo_l1,
    check_identity_5_16,
    extrapolated_limit_at_zero,
    gamma_fn,
    ratio_limit_probe,
    ratio_limit_probe_typeII,
    rl_integral,
)
from fracorder.obsmodel import FdoDescriptor, FdoKind

# integral representation evaluated with mpmath at 50 digits
GAMMA_QUADRATURE = {
    0.3: 2.99156898768759,
    0.75: 1.2254167024651776,
    1.5: 0.88622692545275801,
    2.4: 1.2421693445043053,
    5.5: 52.34277778455352,
    10.0: 362880.0,
}
BETA_QUADRATURE = {
    (0.3, 0.7): 3.8832220774509326,
    (1.5, 2.5): 0.19634954084936208,
    (0.99, 1.0): 1.0101010101010101,
}


def uniform_grid(n, span=1.0):
    return tuple(span * k / n for k in range(n + 1))


# ---------------------------------------------------------------------------
# special functions


def test_gamma_matches_quadrature_oracle():
    for x, expected in GAMMA_QUADRATURE.items():
        assert math.isclose(gamma_fn(x), expected, rel_tol=1e-12)


def test_gamma_rejects_nonpositive():
    for x in (0.0, -1.0, -0.5):
        with pytest.raises(ValueError):
            gamma_fn(x)


def test_beta_matches_quadrature_oracle():
    for (a, b), expected in BETA_QUADRATURE.items():
        assert math.isclose(beta_fn(a, b), expected, rel_tol=1e-12)


@given(a=st.floats(0.1, 5.0), b=st.floats(0.1, 5.0))
def test_beta_symmetric(a, b):
    assert math.isclose(beta_fn(a, b), beta_fn(b, a), rel_tol=1e-13)


def test_beta_rejects_nonpositive():
    with pytest.raises(ValueError):
        beta_fn(0.0, 1.0)
    with pytest.raises(ValueError):
        beta_fn(1.0, -2.0)


def test_binom_real_frozen_values():
    assert math.isclose(binom_real(2.5, 2), 1.875, rel_tol=1e-12)
    assert math.isclose(binom_real(3.3, 2), 3.7949999999999995, rel_tol=1e-12)
    assert binom_real(7.3, 0) == pytest.approx(1.0, rel=1e-14)


@given(n=st.integers(0, 12), k=st.integers(0, 12))
def test_binom_real_agrees_with_integer_binomial(n, k):
    if k > n:
        return
    assert math.isclose(binom_real(float(n), k), math.comb(n, k), rel_tol=1e-12)


def test_binom_real_rejects_bad_lower_index():
    with pytest.raises(ValueError):
        binom_real(2.5, -1)
    with pytest.raises(ValueError):
        binom_real(2.5, 1.0)
    with pytest.raises(ValueError):
        binom_real(0.5, 2)  # upper - lower + 1 < 0


# ---------------------------------------------------------------------------
# PowerSum


def test_power_sum_basic_evaluation():
    f = PowerSum(((2.0, 0.0), (3.0, 0.5)))
    assert f(0.0) == 2.0
    assert math.isclose(f(4.0), 2.0 + 6.0, rel_tol=1e-15)
    assert math.isclose(f.antiderivative(1.0), 2.0 + 2.0, rel_tol=1e-15)


def test_power_sum_zero_and_constant():
    assert PowerSum()(0.7) == 0.0
    assert PowerSum.constant(5.0)(0.3) == 5.0
    assert PowerSum.constant(5.0).is_constant()
    assert not PowerSum(((1.0, 0.5),)).is_constant()


def test_power_sum_singular_at_zero_raises():
    f = PowerSum(((1.0, -0.5),))
    with pytest.raises(ValueError):
        f(0.0)
    assert math.isclose(f(0.25), 2.0, rel_tol=1e-15)


def test_power_sum_rejects_bad_terms():
    with pytest.raises(ValueError):
        PowerSum(((1.0, -1.0),))
    with pytest.raises(ValueError):
        PowerSum(((math.nan, 0.5),))
    with pytest.raises(ValueError):
        PowerSum(((1.0, 0.5),))(-0.1)


@given(
    t=st.floats(0.01, 2.0),
    c1=st.floats(-3.0, 3.0),
    e1=st.floats(0.0, 2.0),
    c2=st.floats(-3.0, 3.0),
    e2=st.floats(0.0, 2.0),
)
def test_power_sum_product_evaluates_pointwise(t, c1, e1, c2, e2):
    f = PowerSum(((c1, e1),))
    g = PowerSum(((c2, e2), (1.0, 0.0)))
    assert math.isclose((f * g)(t), f(t) * g(t), rel_tol=1e-12, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# SampledFunction


def test_sampled_function_validation():
    with pytest.raises(ValueError):
        SampledFunction((0.5, 1.0), (1.0, 2.0))  # must start at 0
    with pytest.raises(ValueError):
        SampledFunction((0.0,), (1.0,))
    with pytest.raises(ValueError):
        SampledFunction((0.0, 1.0, 1.0), (0.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        SampledFunction((0.0, 1.0), (0.0, math.inf))
    f = SampledFunction.sample(lambda t: t * t, uniform_grid(4))
    assert f.span == 1.0
    assert f.values[2] == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# Caputo derivative, L1 rule


@given(value=st.floats(-10.0, 10.0), nu=st.floats(0.05, 0.95), n=st.integers(4, 40))
def test_caputo_of_constant_is_exactly_zero(value, nu, n):
    f = SampledFunction(uniform_grid(n), (value,) * (n + 1))
    d = caputo_l1(f, nu)
    assert all(v == 0.0 for v in d.values)


@given(
    a=st.floats(-5.0, 5.0),
    b=st.floats(-5.0, 5.0),
    nu=st.floats(0.1, 0.9),
    steps=st.lists(st.floats(0.01, 0.5), min_size=3, max_size=10),
)
def test_caputo_linear_exact_on_any_grid(a, b, nu, steps):
    # piecewise-linear reconstruction is exact for linear data, so the
    # rule must reproduce b * t^(1-nu) / Gamma(2-nu) to rounding
    times = (0.0, *np.cumsum(steps))
    f = SampledFunction.sample(lambda t: a + b * t, times)
    d = caputo_l1(f, nu)
    for t, v in zip(d.times, d.values):
        exact = b * t ** (1.0 - nu) / gamma_fn(2.0 - nu)
        assert math.isclose(v, exact, rel_tol=1e-11, abs_tol=1e-11)


@settings(max_examples=25)
@given(
    alpha=st.floats(-2.0, 2.0),
    beta=st.floats(-2.0, 2.0),
    nu=st.floats(0.1, 0.9),
)
def test_caputo_is_linear_in_the_data(alpha, beta, nu):
    times = uniform_grid(16)
    f = SampledFunction.sample(lambda t: math.sin(3 * t), times)
    g = SampledFunction.sample(lambda t: t**1.5, times)
    combo = SampledFunction(
        times, tuple(alpha * x + beta * y for x, y in zip(f.values, g.values))
    )
    lhs = caputo_l1(combo, nu).values
    df, dg = caputo_l1(f, nu).values, caputo_l1(g, nu).values
    for l, x, y in zip(lhs, df, dg):
        assert math.isclose(l, alpha * x + beta * y, rel_tol=1e-10, abs_tol=1e-10)


@pytest.mark.parametrize(
    "mu,nu,bound",
    [(2.0, 0.3, 1.7), (2.0, 0.7, 1.3), (1.5, 0.5, 1.5), (0.9, 0.6, 1.3)],
)
def test_caputo_power_rule_convergence_order(mu, nu, bound):
    """Error at t=1 follows the expected power of the step."""
    errs = []
    for n in (256, 512, 1024):
        f = SampledFunction.sample(lambda t: t**mu, uniform_grid(n))
        d = caputo_l1(f, nu)
        exact = gamma_fn(mu + 1.0) / gamma_fn(mu - nu + 1.0)
        errs.append(abs(d.values[-1] - exact))
    order = math.log2(errs[0] / errs[2]) / 2.0
    assert abs(order - bound) <= 0.3


def test_caputo_rejects_order_outside_unit_interval():
    f = SampledFunction(uniform_grid(4), (0.0, 1.0, 2.0, 3.0, 4.0))
    for nu in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ValueError):
            caputo_l1(f, nu)


def test_caputo_node_zero_is_pinned():
    f = SampledFunction.sample(lambda t: t**0.4, uniform_grid(8))
    assert caputo_l1(f, 0.3).values[0] == 0.0


# ---------------------------------------------------------------------------
# Riemann-Liouville integral


@given(
    a=st.floats(-5.0, 5.0),
    b=st.floats(-5.0, 5.0),
    theta=st.floats(0.2, 1.8),
)
def test_rl_integral_linear_exact(a, b, theta):
    f = SampledFunction.sample(lambda t: a + b * t, uniform_grid(16))
    g = rl_integral(f, theta)
    for t, v in zip(g.times, g.values):
        exact = (
            a * t**theta / gamma_fn(theta + 1.0)
            + b * t ** (theta + 1.0) / gamma_fn(theta + 2.0)
        )
        assert math.isclose(v, exact, rel_tol=1e-11, abs_tol=1e-12)


@pytest.mark.parametrize("a,b", [(0.3, 0.4), (0.5, 0.5), (0.8, 0.9)])
def test_rl_integral_semigroup_property(a, b):
    # nesting two integrals agrees with the combined order up to the
    # product-integration error; 1e-5 pins the n=512 level with margin
    f = SampledFunction.sample(lambda t: math.sin(3.0 * t), uniform_grid(512))
    lhs = rl_integral(rl_integral(f, a), b)
    rhs = rl_integral(f, a + b)
    gap = max(abs(x - y) for x, y in zip(lhs.values, rhs.values))
    assert gap <= 1e-5


def test_rl_integral_rejects_nonpositive_order():
    f = SampledFunction(uniform_grid(4), (0.0, 1.0, 2.0, 3.0, 4.0))
    with pytest.raises(ValueError):
        rl_integral(f, 0.0)
    with pytest.raises(ValueError):
        rl_integral(f, -0.5)


# ---------------------------------------------------------------------------
# L1 and product-integration rows against the per-node reference


def reference_caputo_l1(f, nu):
    # the per-node formula written out directly: two powers per node pair
    t, v = np.asarray(f.times), np.asarray(f.values)
    slopes = np.diff(v) / np.diff(t)
    scale = 1.0 / gamma_fn(2.0 - nu)
    out = np.zeros(len(t))
    for n in range(1, len(t)):
        w = (t[n] - t[:n]) ** (1.0 - nu) - (t[n] - t[1 : n + 1]) ** (1.0 - nu)
        out[n] = scale * float(slopes[:n] @ w)
    return out


def reference_kernel_convolve(f, kernel):
    t, v = np.asarray(f.times), np.asarray(f.values)
    slopes = np.diff(v) / np.diff(t)
    out = np.zeros(len(t))
    for n in range(1, len(t)):
        u1 = t[n] - t[:n]
        u0 = t[n] - t[1 : n + 1]
        m0 = np.zeros(n)
        m1 = np.zeros(n)
        for c, e in kernel.terms:
            m0 += c * (u1 ** (e + 1.0) - u0 ** (e + 1.0)) / (e + 1.0)
            m1 += c * (u1 ** (e + 2.0) - u0 ** (e + 2.0)) / (e + 2.0)
        out[n] = float(v[:n] @ m0 + slopes[:n] @ (u1 * m0 - m1))
    return out


def random_increasing_grid(n, seed):
    steps = np.random.default_rng(seed).uniform(1e-4, 1.0, n)
    return (0.0, *np.cumsum(steps).tolist())


@pytest.mark.parametrize(
    "n,g,beta,nu,theta",
    [
        (600, 1.0, 0.5, 0.5, 0.5),
        (400, 2.0, 0.3, 0.3, 1.0),
        (257, 3.5, 1.7, 0.85, 2.5),
        (64, 1.5, 0.8, 0.1, 0.2),
    ],
)
def test_l1_and_rl_rows_match_the_reference_bitwise_on_graded_grids(
    n, g, beta, nu, theta
):
    times = tuple((j / n) ** g for j in range(n + 1))
    f = SampledFunction.sample(lambda t: t**beta - 0.5, times)
    assert np.array_equal(np.asarray(caputo_l1(f, nu).values), reference_caputo_l1(f, nu))
    kernel = PowerSum(((1.0 / gamma_fn(theta), theta - 1.0),))
    assert np.array_equal(
        np.asarray(rl_integral(f, theta).values), reference_kernel_convolve(f, kernel)
    )


def test_l1_and_rl_rows_match_the_reference_bitwise_on_a_random_grid():
    times = random_increasing_grid(300, seed=7)
    f = SampledFunction.sample(lambda t: math.sin(t) + t**0.3, times)
    kernel = PowerSum(((1.0 / gamma_fn(0.7), -0.3),))
    assert np.array_equal(np.asarray(caputo_l1(f, 0.45).values), reference_caputo_l1(f, 0.45))
    assert np.array_equal(
        np.asarray(rl_integral(f, 0.7).values), reference_kernel_convolve(f, kernel)
    )


@pytest.mark.parametrize(
    "times",
    [
        # lags from the first four nodes round to 1 and 2: zero-width moments
        (0.0, 1e-20, 2e-20, 3e-20, 1.0, 2.0),
        random_increasing_grid(120, seed=3),
    ],
)
def test_multi_term_kernel_convolution_matches_the_reference_bitwise(times):
    # a negative first coefficient makes zero-width moments -0.0, where the
    # reference's zeros-plus-moment rows hold +0.0; the outputs stay equal
    kernel = PowerSum(((-1.3, -0.4), (0.7, 0.0), (2.1, 1.5)))
    values = [(-1.0) ** k * (k % 3) for k in range(len(times))]
    f = SampledFunction(times, values)
    got = [x.hex() for x in _kernel_convolve(f, kernel).values]
    want = [float(x).hex() for x in reference_kernel_convolve(f, kernel)]
    assert got == want


def test_empty_kernel_convolution_is_zero():
    f = SampledFunction.sample(lambda t: 1.0 + t, uniform_grid(8))
    assert [x.hex() for x in _kernel_convolve(f, PowerSum(())).values] == [
        (0.0).hex()
    ] * 9


# ---------------------------------------------------------------------------
# ratio probes


@given(
    nu=st.floats(0.05, 0.95),
    c=st.floats(0.1, 10.0),
    sign=st.sampled_from((-1.0, 1.0)),
)
def test_ratio_probe_exact_on_pure_powers(nu, c, sign):
    f = PowerSum(((sign * c, nu),))
    probes = (0.9, 0.5, 0.1, 0.01)
    for v in ratio_limit_probe(f, 0.0, probes):
        assert math.isclose(v, nu, rel_tol=0, abs_tol=1e-12)


@given(c=st.floats(0.1, 5.0), shift=st.floats(-3.0, 3.0))
def test_ratio_probe_shift_invariance(c, shift):
    base = PowerSum(((c, 0.4),))
    shifted = PowerSum(((c, 0.4), (shift, 0.0)))
    probes = (0.02, 0.3, 0.7)
    assert ratio_limit_probe(base, 0.0, probes) == pytest.approx(
        ratio_limit_probe(shifted, shift, probes), rel=1e-9, abs=1e-9
    )


def test_ratio_probe_sampled_linear_trajectory():
    # trapezoid sums are exact on piecewise-linear data
    f = SampledFunction.sample(lambda t: 2.5 * t, uniform_grid(32))
    for v in ratio_limit_probe(f, 0.0, (0.25, 0.5, 0.95)):
        assert math.isclose(v, 1.0, abs_tol=1e-12)


def test_ratio_probe_rejects_out_of_span_times():
    f = SampledFunction.sample(lambda t: t, uniform_grid(8))
    with pytest.raises(ValueError):
        ratio_limit_probe(f, 0.0, (1.5,))
    with pytest.raises(ValueError):
        ratio_limit_probe(f, 0.0, (0.0,))


def test_ratio_probe_degenerate_data_raises():
    f = SampledFunction(uniform_grid(8), (0.0,) * 9)
    with pytest.raises(DegenerateObservationError):
        ratio_limit_probe(f, 0.0, (0.5,))


@given(nu=st.floats(0.1, 0.9), c=st.floats(0.5, 3.0))
def test_type_two_probe_with_unit_weight_matches_plain(nu, c):
    f = PowerSum(((c, nu),))
    probes = (0.8, 0.2, 0.05)
    plain = ratio_limit_probe(f, 0.0, probes)
    weighted = ratio_limit_probe_typeII(f, 0.0, PowerSum.constant(1.0), probes)
    assert weighted == pytest.approx(plain, rel=1e-12)


def test_type_two_probe_folds_the_coefficient():
    # with r0 = 1 + t the probed object is (1+t) t^nu, not t^nu
    nu = 0.5
    f = PowerSum(((1.0, nu),))
    r0 = PowerSum(((1.0, 0.0), (1.0, 1.0)))
    got = ratio_limit_probe_typeII(f, 0.0, r0, (0.4,))[0]
    expected = ratio_limit_probe(r0 * f, 0.0, (0.4,))[0]
    assert math.isclose(got, expected, rel_tol=1e-13)
    assert got != pytest.approx(nu, abs=1e-3)


# ---------------------------------------------------------------------------
# extrapolation at the origin


@given(
    limit=st.floats(-5.0, 5.0),
    c=st.floats(-3.0, 3.0),
    beta=st.floats(0.2, 1.8),
)
def test_extrapolation_recovers_the_limit_exactly(limit, c, beta):
    f = SampledFunction.sample(lambda t: limit + c * t**beta, uniform_grid(16))
    got = extrapolated_limit_at_zero(f, beta)
    assert math.isclose(got, limit, rel_tol=1e-9, abs_tol=1e-9)


def test_extrapolation_constant_data():
    f = SampledFunction(uniform_grid(8), (4.2,) * 9)
    assert extrapolated_limit_at_zero(f, 0.5) == pytest.approx(4.2)


def test_extrapolation_validation():
    f = SampledFunction(uniform_grid(3), (0.0, 1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        extrapolated_limit_at_zero(f, 0.5)  # too few nodes
    g = SampledFunction(uniform_grid(8), (0.0,) * 9)
    with pytest.raises(ValueError):
        extrapolated_limit_at_zero(g, 0.0)


# ---------------------------------------------------------------------------
# initial-time identity residual


def _two_term_descriptor(nu0):
    return FdoDescriptor(
        kind=FdoKind.TYPE_I,
        orders=(nu0, nu0 / 2.0),
        coefficients=(PowerSum.constant(1.0), PowerSum.constant(0.5)),
    )


@pytest.mark.parametrize("nu0", [0.4, 0.7])
def test_identity_residual_halves_under_step_halving(nu0):
    fdo = _two_term_descriptor(nu0)
    residuals = []
    for n in (64, 128, 256):
        f = SampledFunction.sample(
            lambda t: 1.0 + t**nu0 / gamma_fn(1.0 + nu0), uniform_grid(n)
        )
        residuals.append(check_identity_5_16(f, fdo, 1.0 / n))
    assert residuals[1] <= 0.6 * residuals[0]
    assert residuals[2] <= 0.6 * residuals[1]


@pytest.mark.parametrize("nu0", [0.4, 0.7])
def test_lower_order_derivative_limit_vanishes(nu0):
    """D^nu1 of v0 + t^nu0/Gamma(1+nu0) tends to 0 at the origin for nu1 < nu0."""
    nu1 = nu0 / 2.0
    limits = []
    for n in (64, 128, 256, 512):
        f = SampledFunction.sample(
            lambda t: 1.0 + t**nu0 / gamma_fn(1.0 + nu0), uniform_grid(n)
        )
        d = caputo_l1(f, nu1)
        limits.append(abs(extrapolated_limit_at_zero(d, beta=nu0 - nu1)))
    assert all(b <= 0.55 * a for a, b in zip(limits, limits[1:]))
    assert limits[-1] <= 3e-4


def test_identity_residual_requires_uniform_grid():
    fdo = _two_term_descriptor(0.5)
    f = SampledFunction((0.0, 0.1, 0.3, 0.6, 1.0), (0.0, 1.0, 2.0, 3.0, 4.0))
    with pytest.raises(ValueError):
        check_identity_5_16(f, fdo, 0.25)


def test_identity_residual_requires_node_count_divisible_by_four():
    fdo = _two_term_descriptor(0.5)
    f = SampledFunction.sample(lambda t: t, uniform_grid(6))
    with pytest.raises(ValueError):
        check_identity_5_16(f, fdo, 1.0 / 6.0)
