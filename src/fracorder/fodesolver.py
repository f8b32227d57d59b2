"""Uniform-step marching solver for multi-term fractional relaxation problems.

Discretizes ``sum_i r_i(t) D^{nu_i} v + (K * v)(t) + v = f0(t) + f(t, v)``
on a uniform grid: fractional derivatives by the piecewise-linear
product-integration rule, the memory convolution by exact power-kernel
moments, and the implicit scalar equation at each node by damped Newton
iteration with a bisection fallback.  A tabulated forcing is interpolated
linearly onto the marching grid once, before the march.  Also provides the
order-recovery check that probes the computed trajectory with the ratio
limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from fracorder.fraccalc import (
    PowerSum,
    SampledFunction,
    gamma_fn,
    ratio_limit_probe,
)
from fracorder.obsmodel import FdoDescriptor, FdoKind

__all__ = [
    "DivergenceError",
    "FodeProblem",
    "FodeSolution",
    "IdentifiabilityError",
    "NonconvergenceError",
    "NEWTON_MAX_ITER",
    "NEWTON_TOL",
    "initial_drift",
    "solve",
    "verify_linking",
]

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100


class IdentifiabilityError(ValueError):
    """The initial drift vanishes, so the leading order is not recoverable."""


class NonconvergenceError(RuntimeError):
    """Newton and bisection both failed at a node."""

    def __init__(self, node: int, message: str):
        super().__init__(f"node {node}: {message}")
        self.node = node


class DivergenceError(RuntimeError):
    """The marching produced a non-finite value."""

    def __init__(self, node: int, message: str):
        super().__init__(f"node {node}: {message}")
        self.node = node


@dataclass(frozen=True)
class FodeProblem:
    """Initial-value problem for a multi-term fractional operator with memory.

    ``fdo`` must act directly on the unknown (coefficients multiplying the
    derivatives); ``kernel`` is the memory convolution kernel as a power
    sum (zero terms for no memory); ``f0`` is the forcing, a power sum or
    a tabulation covering [0, tstar]; ``nonlinearity`` is a deterministic
    scalar callback f(t, v) or None.
    """

    fdo: FdoDescriptor
    kernel: PowerSum
    f0: PowerSum | SampledFunction
    v0: float
    tstar: float
    nonlinearity: Callable[[float, float], float] | None = None

    def __post_init__(self) -> None:
        if self.fdo.kind is not FdoKind.TYPE_I:
            raise ValueError("the solver handles coefficient-times-derivative form only")
        if not isinstance(self.kernel, PowerSum):
            raise TypeError(f"kernel must be a PowerSum, got {type(self.kernel).__name__}")
        if not (np.isfinite(self.v0) and np.isfinite(self.tstar) and self.tstar > 0):
            raise ValueError(f"need finite v0 and tstar > 0, got {self.v0!r}, {self.tstar!r}")

    def forcing_at(self, t: float) -> float:
        if isinstance(self.f0, PowerSum):
            return self.f0(t)
        return float(_interp_forcing(self.f0, self.tstar, t))

    def forcing_table(self, times: np.ndarray) -> list[float]:
        """Forcing at every node time, equal to ``forcing_at`` node by node."""
        if isinstance(self.f0, PowerSum):
            return [float(self.f0(t)) for t in times]
        return _interp_forcing(self.f0, self.tstar, times).tolist()

    def drift_numerator(self) -> float:
        """f0(0) + f(0, v0) - v0, the quantity whose sign gates recovery."""
        extra = 0.0 if self.nonlinearity is None else float(self.nonlinearity(0.0, self.v0))
        return self.forcing_at(0.0) + extra - self.v0


def _interp_forcing(f0: SampledFunction, tstar: float, t):
    # linear interpolation of a tabulation that must reach the horizon
    if f0.times[-1] < tstar - 1e-12 * tstar:
        raise ValueError("tabulated forcing does not cover [0, tstar]")
    return np.interp(t, f0.times, f0.values)


def initial_drift(problem: FodeProblem) -> float:
    """Leading coefficient of (v - v0) ~ c * t^{nu0} near zero."""
    num = problem.drift_numerator()
    return num / (problem.fdo.r0(0.0) * gamma_fn(1.0 + problem.fdo.nu0))


@dataclass(frozen=True)
class FodeSolution:
    """Trajectory on the uniform grid, with per-node Newton iteration counts."""

    h: float
    values: tuple[float, ...]
    newton_iterations: tuple[int, ...] = field(repr=False)

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("solution values must be finite")
        if any(k > NEWTON_MAX_ITER for k in self.newton_iterations):
            raise ValueError("iteration counts exceed the Newton budget")

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.values)) * self.h

    def as_sampled(self) -> SampledFunction:
        return SampledFunction(tuple(float(t) for t in self.times), self.values)


def _derivative_weights(nu: float, h: float, n: int) -> np.ndarray:
    # lag-m weight of the piecewise-linear rule on a uniform grid:
    # contribution of the difference v_{n-m} - v_{n-m-1} to D^nu v(t_n)
    m = np.arange(n + 1, dtype=float)
    return (m[1:] ** (1.0 - nu) - m[:-1] ** (1.0 - nu)) * h ** (-nu) / gamma_fn(2.0 - nu)


def _kernel_moments(kernel: PowerSum, h: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    # exact zeroth and first moments of the kernel over lag cells [mh, (m+1)h]
    edges = np.arange(n + 1, dtype=float) * h
    m0 = np.zeros(n)
    m1 = np.zeros(n)
    for c, e in kernel.terms:
        p = edges ** (e + 1.0)
        m0 += c * (p[1:] - p[:-1]) / (e + 1.0)
        q = edges ** (e + 2.0)
        m1 += c * (q[1:] - q[:-1]) / (e + 2.0)
    return m0, m1


def solve(problem: FodeProblem, h: float) -> FodeSolution:
    """March the implicit scheme from v0 to the horizon with step ``h``.

    Each node solves the scalar equation by damped Newton iteration
    (numerical derivative, tolerance ``NEWTON_TOL``, at most
    ``NEWTON_MAX_ITER`` iterations), falling back to bisection on a
    bracket of width max(1, |previous value|) around the previous value.
    """
    if not h > 0:
        raise ValueError(f"step must be positive, got {h!r}")
    if h > problem.tstar / 4:
        raise ValueError(f"step {h!r} exceeds a quarter of the horizon {problem.tstar!r}")
    n_steps = int(round(problem.tstar / h))
    if abs(n_steps * h - problem.tstar) > 1e-9 * problem.tstar:
        raise ValueError(f"step {h!r} does not divide the horizon {problem.tstar!r}")

    times = np.arange(n_steps + 1) * h
    # subtracted-branch terms enter the operator with a minus sign
    branches = [
        (1.0, nu, r) for nu, r in zip(problem.fdo.orders, problem.fdo.coefficients)
    ] + [
        (-1.0, nu, r)
        for nu, r in zip(problem.fdo.neg_orders, problem.fdo.neg_coefficients)
    ]
    # per branch: signed coefficient at every node, lag weights, lag-0 weight
    terms = []
    for sign, nu, r in branches:
        w = _derivative_weights(nu, h, n_steps)
        terms.append(((sign * np.array([r(t) for t in times])).tolist(), w, float(w[0])))
    m0, m1 = _kernel_moments(problem.kernel, h, n_steps)
    # first moment recentered on the upper cell edge, per piecewise-linear cell
    a = (np.arange(1, n_steps + 1) * h) * m0 - m1
    a0h = float(a[0] / h)
    forcing = problem.forcing_table(times)
    node_times = times.tolist()
    nonlin = problem.nonlinearity

    # v and the differences dv, dv / h grow one node at a time; the history
    # sums stay numpy dot products against reversed (negative-stride) weight
    # views, which numpy adds up in index order
    v = np.empty(n_steps + 1)
    dv = np.empty(n_steps)
    dv_h = np.empty(n_steps)
    prev = v[0] = float(problem.v0)
    iters = [0]

    for n in range(1, n_steps + 1):
        hist = 0.0
        lin = 1.0
        for rvals, w, w0 in terms:
            rn = rvals[n]
            hist += rn * (float(dv[: n - 1] @ w[1:n][::-1]) - w0 * prev)
            lin += rn * w0
        hist += float(v[:n] @ m0[:n][::-1]) + float(dv_h[: n - 1] @ a[1:n][::-1])
        hist -= a0h * prev
        lin += a0h
        hist -= forcing[n]
        tn = node_times[n]

        if nonlin is None:
            residual = lambda x: hist + lin * x
        else:
            residual = lambda x: hist + lin * x - nonlin(tn, x)

        x, used = _solve_node(residual, prev, n)
        if not math.isfinite(x):
            raise DivergenceError(n, f"non-finite value {x!r}")
        v[n] = x
        d = x - prev
        dv[n - 1] = d
        dv_h[n - 1] = d / h
        prev = x
        iters.append(used)

    return FodeSolution(float(h), tuple(v.tolist()), tuple(iters))


def _solve_node(residual: Callable[[float], float], warm: float, node: int) -> tuple[float, int]:
    x = warm
    fx = residual(x)
    if not math.isfinite(fx):
        raise DivergenceError(node, f"non-finite residual at the warm start ({fx!r})")
    used = 0
    for _ in range(NEWTON_MAX_ITER):
        if abs(fx) <= NEWTON_TOL:
            return x, used
        used += 1
        delta = 1e-7 * max(1.0, abs(x))
        dplus = residual(x + delta)
        dminus = residual(x - delta)
        deriv = (dplus - dminus) / (2.0 * delta)
        if not math.isfinite(deriv) or deriv == 0.0:
            break
        step = fx / deriv
        accepted = False
        damp = 1.0
        while damp >= 2.0 ** -20:
            cand = x - damp * step
            fc = residual(cand)
            if math.isfinite(fc) and abs(fc) < abs(fx):
                x, fx = cand, fc
                accepted = True
                break
            damp /= 2.0
        if not accepted:
            break
    if abs(fx) <= NEWTON_TOL:
        return x, used
    return _bisect_node(residual, warm, node), used


def _bisect_node(residual: Callable[[float], float], warm: float, node: int) -> float:
    half = 0.5 * max(1.0, abs(warm))
    lo, hi = warm - half, warm + half
    flo, fhi = residual(lo), residual(hi)
    if not (math.isfinite(flo) and math.isfinite(fhi)):
        raise DivergenceError(node, "non-finite residual on the bisection bracket")
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise NonconvergenceError(node, "no sign change on the bisection bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = residual(mid)
        if not math.isfinite(fmid):
            raise DivergenceError(node, "non-finite residual during bisection")
        if abs(fmid) <= NEWTON_TOL or hi - lo <= 4 * np.finfo(float).eps * max(1.0, abs(mid)):
            return mid
        if np.sign(fmid) == np.sign(flo):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    raise NonconvergenceError(node, "bisection failed to meet the tolerance")


def verify_linking(solution: FodeSolution, problem: FodeProblem) -> float:
    """Recover the leading order from the computed trajectory.

    Probes the ratio limit at the dyadic times tstar * 2^{-m}, m = 1..8,
    then extrapolates the probe sequence; the result approaches the true
    leading order as the marching step shrinks.  Raises
    ``IdentifiabilityError`` when the initial drift vanishes.
    """
    num = problem.drift_numerator()
    scale = max(1.0, abs(problem.v0), abs(problem.forcing_at(0.0)))
    if abs(num) <= 1e-13 * scale:
        raise IdentifiabilityError(
            "initial drift f0(0) + f(0, v0) - v0 vanishes; leading order unrecoverable"
        )
    probes = tuple(problem.tstar * 2.0 ** -m for m in range(1, 9))
    estimates = ratio_limit_probe(solution.as_sampled(), problem.v0, probes)
    return _extrapolate_probes(np.asarray(estimates))


def _extrapolate_probes(seq: np.ndarray) -> float:
    # one guarded Aitken step on the three shallowest probes, which carry
    # the least marching error; the step cancels a single geometric error
    # component whether it grows or decays along the probe ladder
    e1, e2, e3 = seq[0], seq[1], seq[2]
    d1, d2 = e2 - e1, e3 - e2
    denom = d2 - d1
    if d1 * d2 <= 0.0 or abs(denom) < 1e-13 * max(1.0, abs(e3)):
        return float(e1)
    accel = e3 - d2 * d2 / denom
    spread = max(e1, e2, e3) - min(e1, e2, e3)
    if not min(e1, e2, e3) - spread <= accel <= max(e1, e2, e3) + spread:
        return float(e1)
    return float(accel)
