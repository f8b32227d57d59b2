"""Special functions and discrete fractional calculus on nonuniform grids.

Everything downstream rests on the four primitives in this module: the
gamma/beta/binomial trio, the L1 discretisation of the Caputo derivative,
product-integration of power-kernel convolutions, and the ratio probes that
expose the leading order of a trajectory near the initial time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "DegenerateObservationError",
    "PowerSum",
    "SampledFunction",
    "beta_fn",
    "binom_real",
    "caputo_l1",
    "check_identity_5_16",
    "extrapolated_limit_at_zero",
    "gamma_fn",
    "ratio_limit_probe",
    "ratio_limit_probe_typeII",
    "rl_integral",
]


class DegenerateObservationError(ArithmeticError):
    """Raised when probe data carries no usable order information."""


def gamma_fn(x: float) -> float:
    """Gamma function on the positive half line.

    Delegates to the platform Lanczos implementation, which meets the
    1e-12 relative accuracy this package needs (validated against a
    quadrature oracle in the test suite).  Nonpositive arguments are
    rejected rather than continued past the poles.
    """
    if not x > 0:
        raise ValueError(f"gamma_fn requires x > 0, got {x!r}")
    return math.gamma(x)


def beta_fn(a: float, b: float) -> float:
    """Euler beta function B(a, b) for a, b > 0, as a gamma composition."""
    if not (a > 0 and b > 0):
        raise ValueError(f"beta_fn requires a, b > 0, got a={a!r}, b={b!r}")
    return gamma_fn(a) * gamma_fn(b) / gamma_fn(a + b)


def binom_real(upper: float, lower: int) -> float:
    """Generalised binomial coefficient with a real upper argument.

    ``lower`` must be a nonnegative integer; both gamma arguments
    ``upper + 1`` and ``upper - lower + 1`` must stay positive, which holds
    for every use in the regression basis.
    """
    if isinstance(lower, bool) or not isinstance(lower, (int, np.integer)):
        raise ValueError(f"binom_real requires an integer lower index, got {lower!r}")
    if lower < 0:
        raise ValueError(f"binom_real requires lower >= 0, got {lower}")
    if not (upper + 1 > 0 and upper - lower + 1 > 0):
        raise ValueError(
            f"binom_real({upper!r}, {lower!r}) hits a gamma pole or sign change"
        )
    return gamma_fn(upper + 1) / (gamma_fn(lower + 1) * gamma_fn(upper - lower + 1))


@dataclass(frozen=True)
class PowerSum:
    """Finite sum of real-power terms ``sum_k c_k * t**e_k`` with e_k > -1.

    The empty sum is the zero function.  Exponents may repeat; terms are
    kept as given, never reordered or merged.
    """

    terms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        clean = tuple((float(c), float(e)) for c, e in self.terms)
        for c, e in clean:
            if not (math.isfinite(c) and math.isfinite(e)):
                raise ValueError(f"PowerSum term ({c!r}, {e!r}) is not finite")
            if not e > -1:
                raise ValueError(f"PowerSum exponent must exceed -1, got {e!r}")
        object.__setattr__(self, "terms", clean)

    @classmethod
    def constant(cls, value: float) -> "PowerSum":
        return cls(((float(value), 0.0),))

    def __call__(self, t: float) -> float:
        if t == 0.0:
            total = 0.0
            for c, e in self.terms:
                if e < 0:
                    raise ValueError("PowerSum with a negative exponent is singular at t=0")
                total += c if e == 0.0 else 0.0
            return total
        if t < 0:
            raise ValueError(f"PowerSum evaluation requires t >= 0, got {t!r}")
        return sum(c * t**e for c, e in self.terms)

    def antiderivative(self, t: float) -> float:
        """Integral of the sum over [0, t], termwise exact."""
        if t < 0:
            raise ValueError(f"PowerSum antiderivative requires t >= 0, got {t!r}")
        return sum(c * t ** (e + 1.0) / (e + 1.0) for c, e in self.terms)

    def __mul__(self, other: "PowerSum") -> "PowerSum":
        if not isinstance(other, PowerSum):
            return NotImplemented
        return PowerSum(
            tuple(
                (ca * cb, ea + eb)
                for ca, ea in self.terms
                for cb, eb in other.terms
            )
        )

    def is_constant(self) -> bool:
        return all(e == 0.0 for _, e in self.terms)


@dataclass(frozen=True)
class SampledFunction:
    """Function values on a strictly increasing time grid starting at 0."""

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        times = tuple(float(t) for t in self.times)
        values = tuple(float(v) for v in self.values)
        if len(times) < 2:
            raise ValueError("SampledFunction needs at least two nodes")
        if len(times) != len(values):
            raise ValueError(
                f"times and values disagree in length: {len(times)} vs {len(values)}"
            )
        if times[0] != 0.0:
            raise ValueError(f"time grid must start at 0, got {times[0]!r}")
        if any(not math.isfinite(x) for x in times + values):
            raise ValueError("SampledFunction entries must be finite")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("time grid must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @classmethod
    def sample(cls, fn: Callable[[float], float], times: Iterable[float]) -> "SampledFunction":
        times = tuple(times)
        return cls(times, tuple(fn(t) for t in times))

    @property
    def span(self) -> float:
        return self.times[-1]


def caputo_l1(f: SampledFunction, nu: float) -> SampledFunction:
    """L1 discretisation of the Caputo derivative of order ``nu`` in (0, 1).

    Piecewise-linear reconstruction of ``f`` makes the kernel moments exact,
    so constants differentiate to zero identically.  Works on arbitrary
    strictly increasing grids; node 0 is pinned to 0.  Each row takes one
    power per node pair, about N^2/2 powers for N nodes: O(N^2) overall.
    """
    if not 0.0 < nu < 1.0:
        raise ValueError(f"caputo_l1 requires nu in (0, 1), got {nu!r}")
    t = np.asarray(f.times)
    v = np.asarray(f.values)
    slopes = np.diff(v) / np.diff(t)
    expo = 1.0 - nu
    scale = 1.0 / gamma_fn(2.0 - nu)
    out = np.zeros(len(t))
    for n in range(1, len(t)):
        # (t_n - t_k)^(1-nu) - (t_n - t_{k+1})^(1-nu) over intervals k < n
        w = _lag_power_steps(t[n] - t[: n + 1], expo)
        out[n] = scale * float(slopes[:n] @ w)
    return SampledFunction(f.times, tuple(out))


def _lag_power_steps(u: np.ndarray, a: float) -> np.ndarray:
    """``u[k]**a - u[k+1]**a`` for consecutive lags, one power per lag."""
    p = u**a
    return p[:-1] - p[1:]


def _kernel_convolve(f: SampledFunction, kernel: PowerSum) -> SampledFunction:
    """Convolution (kernel * f)(t_n) by product integration.

    The piecewise-linear interpolant of ``f`` is integrated against the
    power kernel exactly on every cell, so weakly singular kernels need no
    special treatment beyond exponent > -1.  Each row takes one power per
    node pair for each of the two moment exponents of every kernel term,
    about N^2 powers per term for N nodes: O(N^2) overall.
    """
    t = np.asarray(f.times)
    v = np.asarray(f.values)
    slopes = np.diff(v) / np.diff(t)
    out = np.zeros(len(t))
    if not kernel.terms:
        return SampledFunction(f.times, tuple(out))
    (c0, e0), *rest = kernel.terms
    for n in range(1, len(t)):
        # u[k] = t_n - t_k; cell k < n runs from lag u[k] down to u[k+1]
        u = t[n] - t[: n + 1]
        m0 = c0 * _lag_power_steps(u, e0 + 1.0) / (e0 + 1.0)
        m1 = c0 * _lag_power_steps(u, e0 + 2.0) / (e0 + 2.0)
        for c, e in rest:
            m0 += c * _lag_power_steps(u, e + 1.0) / (e + 1.0)
            m1 += c * _lag_power_steps(u, e + 2.0) / (e + 2.0)
        out[n] = float(v[:n] @ m0 + slopes[:n] @ (u[:-1] * m0 - m1))
    return SampledFunction(f.times, tuple(out))


def rl_integral(f: SampledFunction, theta: float) -> SampledFunction:
    """Riemann-Liouville integral of order ``theta > 0`` on the grid of ``f``."""
    if not theta > 0:
        raise ValueError(f"rl_integral requires theta > 0, got {theta!r}")
    kernel = PowerSum(((1.0 / gamma_fn(theta), theta - 1.0),))
    return _kernel_convolve(f, kernel)


def _probe_shifted(
    times: Sequence[float], shifted: Sequence[float], probe_times: Sequence[float]
) -> list[float]:
    """Ratio ``t*z(t) / int_0^t z`` for piecewise-linear z, minus one."""
    tt = np.asarray(times)
    zz = np.asarray(shifted)
    cum = np.concatenate(
        ([0.0], np.cumsum(0.5 * (zz[1:] + zz[:-1]) * np.diff(tt)))
    )
    out = []
    for t in probe_times:
        if not 0.0 < t <= tt[-1]:
            raise ValueError(f"probe time {t!r} lies outside the grid span (0, {tt[-1]}]")
        i = int(np.searchsorted(tt, t, side="right")) - 1
        if i == len(tt) - 1:
            i -= 1
        zval = zz[i] + (zz[i + 1] - zz[i]) * (t - tt[i]) / (tt[i + 1] - tt[i])
        den = cum[i] + 0.5 * (zz[i] + zval) * (t - tt[i])
        num = t * zval
        if abs(den) < 1e-300:
            raise DegenerateObservationError(
                f"probe integral at t={t!r} is below 1e-300; no order information"
            )
        out.append(num / den - 1.0)
    return out


def _probe_power_sum(
    g: PowerSum, offset: float, probe_times: Sequence[float]
) -> list[float]:
    out = []
    for t in probe_times:
        if not t > 0:
            raise ValueError(f"probe times must be positive, got {t!r}")
        num = t * (g(t) - offset)
        den = g.antiderivative(t) - offset * t
        if abs(den) < 1e-300:
            raise DegenerateObservationError(
                f"probe integral at t={t!r} is below 1e-300; no order information"
            )
        out.append(num / den - 1.0)
    return out


def ratio_limit_probe(
    f: SampledFunction | PowerSum, f0: float, probe_times: Sequence[float]
) -> list[float]:
    """Evaluate ``t (f(t) - f0) / int_0^t (f - f0)  -  1`` at the probe times.

    As t -> 0 this ratio tends to the leading power of ``f - f0``.  Sampled
    inputs use piecewise-linear interpolation and exact trapezoid sums;
    :class:`PowerSum` inputs are handled in closed form, which keeps pure
    powers exact to rounding.
    """
    if not math.isfinite(f0):
        raise ValueError(f"f0 must be finite, got {f0!r}")
    if isinstance(f, PowerSum):
        return _probe_power_sum(f, f0, probe_times)
    shifted = tuple(v - f0 for v in f.values)
    return _probe_shifted(f.times, shifted, probe_times)


def ratio_limit_probe_typeII(
    f: SampledFunction | PowerSum,
    f0: float,
    r0: PowerSum,
    probe_times: Sequence[float],
) -> list[float]:
    """Ratio probe with the leading coefficient folded into the trajectory.

    Uses ``r0(t) f(t) - r0(0) f0`` in both numerator and integrand, the form
    required when the leading term of the operator acts on ``r0 * f``.
    With ``r0 = 1`` the arithmetic reduces term by term to the plain probe.
    """
    if not math.isfinite(f0):
        raise ValueError(f"f0 must be finite, got {f0!r}")
    offset = r0(0.0) * f0
    if isinstance(f, PowerSum):
        return _probe_power_sum(r0 * f, offset, probe_times)
    shifted = tuple(r0(t) * v - offset for t, v in zip(f.times, f.values))
    return _probe_shifted(f.times, shifted, probe_times)


def extrapolated_limit_at_zero(f: SampledFunction, beta: float) -> float:
    """Limit of ``f`` at t = 0 assuming ``f(t) = L + c t**beta + smaller``.

    Probes the half-span and quarter-span nodes and eliminates the
    ``t**beta`` term exactly; for data without such a term (constants
    included) the correction vanishes and the probe value is returned as is.
    """
    if not beta > 0:
        raise ValueError(f"extrapolated_limit_at_zero requires beta > 0, got {beta!r}")
    n = len(f.times) - 1
    if n < 4:
        raise ValueError("need at least five nodes to probe half and quarter span")
    f_half = f.values[n // 2]
    f_quarter = f.values[n // 4]
    ratio = f.times[n // 2] / f.times[n // 4]
    weight = ratio**beta
    return (f_quarter * weight - f_half) / (weight - 1.0)


def _fdo_terms(fdo) -> list[tuple[float, PowerSum]]:
    """Normalise descriptor-like input to [(order, coefficient), ...]."""
    if hasattr(fdo, "orders") and hasattr(fdo, "coefficients"):
        pairs = list(zip(fdo.orders, fdo.coefficients))
    else:
        pairs = [(o, c) for o, c in fdo]
    out = []
    for order, coeff in pairs:
        if not 0.0 < order < 1.0:
            raise ValueError(f"fractional orders must lie in (0, 1), got {order!r}")
        if not isinstance(coeff, PowerSum):
            coeff = PowerSum.constant(float(coeff))
        out.append((float(order), coeff))
    if not out:
        raise ValueError("descriptor carries no fractional terms")
    if any(o2 >= o1 for (o1, _), (o2, _) in zip(out, out[1:])):
        raise ValueError("orders must be strictly decreasing")
    return out


def check_identity_5_16(v: SampledFunction, fdo, h: float) -> float:
    """Residual of the initial-time link between leading term and full operator.

    At t = 0 the full multi-term action collapses onto its leading term:
    the lower orders contribute nothing in the limit.  Both sides are formed
    from L1 derivatives of ``v`` on its grid (which must be uniform with
    step ``h``), extrapolated to t = 0 with the known leading correction
    exponent.  Returns ``|r0(0) * lim D^nu0 v - lim sum_i r_i D^nu_i v|``.
    """
    terms = _fdo_terms(fdo)
    t = np.asarray(v.times)
    if not np.allclose(np.diff(t), h, rtol=1e-12, atol=0.0):
        raise ValueError("check_identity_5_16 requires a uniform grid with step h")
    if (len(t) - 1) % 4 != 0:
        raise ValueError("node count minus one must be divisible by 4")

    nu0 = terms[0][0]
    derivs = [caputo_l1(v, order) for order, _ in terms]
    lhs_limit = extrapolated_limit_at_zero(derivs[0], beta=nu0)
    lhs = terms[0][1](0.0) * lhs_limit

    combined = np.zeros(len(t))
    for (order, coeff), d in zip(terms, derivs):
        combined += np.asarray([coeff(tk) for tk in v.times]) * np.asarray(d.values)
    beta_rhs = nu0 - terms[1][0] if len(terms) > 1 else nu0
    rhs = extrapolated_limit_at_zero(
        SampledFunction(v.times, tuple(combined)), beta=beta_rhs
    )
    return abs(lhs - rhs)
