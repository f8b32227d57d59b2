"""Preset assembly: benchmark sweeps and manufactured solver problems.

Glue between the observation presets, the regularized fit, and the
selection pipeline.  A sweep runs the 54 preset cells of one benchmark
table; the manufactured problems pair a solver configuration with the
closed-form trajectory it must reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from fracorder.concurrency import ordered_map
from fracorder.fodesolver import FodeProblem
from fracorder.fraccalc import PowerSum, SampledFunction, beta_fn, gamma_fn
from fracorder.obsmodel import (
    FdoDescriptor,
    FdoKind,
    NoiseKind,
    NoiseSpec,
    Observation,
    example71_observation,
    example72_observation,
)
from fracorder.orderest import (
    EstimateReport,
    RegGrids,
    SelectionFailureError,
    default_grids,
    run_pipeline,
)
from fracorder.refvalues import SWEEP_IDS, expected_pair, sweep_cells
from fracorder.regbasis import BasisSpec, initial_power_exponents

__all__ = [
    "NONLINEARITY_PRESETS",
    "ManufacturedCase",
    "SweepRow",
    "manufactured_power_case",
    "manufactured_smooth_case",
    "nonlinearity_preset",
    "run_sweep_cell",
    "sweep_basis_spec",
    "sweep_observation",
    "sweep_rows",
]

# exponent seed for the power part of the basis, relative to the leading order
_POWER_SEED_DIVISOR = {1: 2.0, 2: 2.0, 3: 5.0}


def sweep_observation(
    sweep_id: int, nu0: float, noise_name: str, epsilon: float
) -> Observation:
    """Observation for one sweep cell."""
    spec = NoiseSpec(NoiseKind[noise_name], epsilon)
    if sweep_id == 1:
        return example71_observation(nu0, FdoKind.TYPE_I, spec)
    if sweep_id == 2:
        return example71_observation(nu0, FdoKind.TYPE_II, spec)
    if sweep_id == 3:
        return example72_observation(nu0, spec)
    raise KeyError(f"unknown sweep id {sweep_id!r}, expected one of {SWEEP_IDS}")


def sweep_basis_spec(sweep_id: int, nu0: float, t_end: float) -> BasisSpec:
    """Fit basis for one sweep cell; the power exponents scale with nu0."""
    if sweep_id not in SWEEP_IDS:
        raise KeyError(f"unknown sweep id {sweep_id!r}, expected one of {SWEEP_IDS}")
    seed = nu0 / _POWER_SEED_DIVISOR[sweep_id]
    return BasisSpec(initial_power_exponents(seed), t_end)


def run_sweep_cell(
    sweep_id: int,
    nu0: float,
    noise_name: str,
    epsilon: float,
    log_selection: str = "independent",
    grids: RegGrids | None = None,
) -> EstimateReport:
    """Full pipeline for one sweep cell."""
    obs = sweep_observation(sweep_id, nu0, noise_name, epsilon)
    spec = sweep_basis_spec(sweep_id, nu0, obs.grid.t_end)
    grids = grids if grids is not None else default_grids(obs.grid.t_end)
    return run_pipeline(obs, spec, grids, log_selection=log_selection)


@dataclass(frozen=True)
class SweepRow:
    """One table line: a cell key, its estimates, and the benchmark gap."""

    nu0: float
    noise: str
    epsilon: float
    nu_ratio: float
    nu_log: float
    ratio_gap: float
    log_gap: float
    failed: bool = False


def sweep_rows(sweep_id: int, log_selection: str = "independent") -> list[SweepRow]:
    """All 54 rows of one sweep, in benchmark order.

    Cells whose quasi-optimality selection fails yield NaN estimates and a
    raised flag instead of aborting the sweep.
    """
    def one(cell: tuple[float, str, float]) -> SweepRow:
        nu0, noise_name, epsilon = cell
        target_ratio, target_log = expected_pair(sweep_id, nu0, noise_name, epsilon)
        try:
            rep = run_sweep_cell(sweep_id, nu0, noise_name, epsilon, log_selection)
        except SelectionFailureError:
            nan = float("nan")
            return SweepRow(nu0, noise_name, epsilon, nan, nan, nan, nan, failed=True)
        return SweepRow(
            nu0,
            noise_name,
            epsilon,
            rep.nu_ratio,
            rep.nu_log,
            rep.nu_ratio - target_ratio,
            rep.nu_log - target_log,
        )

    return ordered_map(one, sweep_cells(sweep_id))


@dataclass(frozen=True)
class ManufacturedCase:
    """Solver problem paired with the exact trajectory it discretizes."""

    problem: FodeProblem
    exact: Callable[[float], float]
    nu0: float


def _single_term_fdo(nu0: float) -> FdoDescriptor:
    return FdoDescriptor(FdoKind.TYPE_I, (nu0,), (PowerSum.constant(1.0),))


_MEMORY_EXPONENT = -1.0 / 3.0


def manufactured_power_case(
    nu0: float,
    v0: float = 1.0,
    tstar: float = 1.0,
    nonlinearity: str = "none",
    coefficients: tuple[float, ...] = (),
    tabulation_nodes: int = 8192,
) -> ManufacturedCase:
    """Problem whose exact solution is v0 + t**nu0 / Gamma(1 + nu0).

    Single-term operator with unit coefficient and memory kernel
    t**(-1/3); the forcing is assembled from the power rule and exact
    convolution moments.  With a nonlinearity preset the forcing is
    compensated on a tabulation graded toward t = 0 so the same trajectory
    stays exact up to interpolation error.
    """
    g = gamma_fn(1.0 + nu0)
    forcing = PowerSum(
        (
            (1.0 + v0, 0.0),
            (1.5 * v0, 2.0 / 3.0),
            (beta_fn(2.0 / 3.0, 1.0 + nu0) / g, 2.0 / 3.0 + nu0),
            (1.0 / g, nu0),
        )
    )
    exact = lambda t: v0 + t**nu0 / g
    return _finish_case(nu0, v0, tstar, forcing, exact, nonlinearity, coefficients,
                        tabulation_nodes)


def manufactured_smooth_case(
    nu0: float,
    v0: float = 1.0,
    tstar: float = 1.0,
    nonlinearity: str = "none",
    coefficients: tuple[float, ...] = (),
    tabulation_nodes: int = 8192,
) -> ManufacturedCase:
    """Problem whose exact solution is the smooth trajectory v0 + t**2."""
    forcing = PowerSum(
        (
            (2.0 / gamma_fn(3.0 - nu0), 2.0 - nu0),
            (1.5 * v0, 2.0 / 3.0),
            (beta_fn(2.0 / 3.0, 3.0), 8.0 / 3.0),
            (v0, 0.0),
            (1.0, 2.0),
        )
    )
    exact = lambda t: v0 + t * t
    return _finish_case(nu0, v0, tstar, forcing, exact, nonlinearity, coefficients,
                        tabulation_nodes)


def _finish_case(
    nu0: float,
    v0: float,
    tstar: float,
    forcing: PowerSum,
    exact: Callable[[float], float],
    nonlinearity: str,
    coefficients: tuple[float, ...],
    tabulation_nodes: int,
) -> ManufacturedCase:
    kernel = PowerSum(((1.0, _MEMORY_EXPONENT),))
    nonlin = nonlinearity_preset(nonlinearity, coefficients)
    if nonlin is None:
        f0: PowerSum | SampledFunction = forcing
    else:
        # compensate the forcing so the closed-form trajectory still solves
        # the perturbed equation: f0 = f0_base - f(t, v_exact(t)).  The
        # table is graded as (j/N)**3: linear interpolation of the t**(2/3)
        # forcing term on a first cell of width N**-r errs by O(N**(-2r/3)),
        # which keeps up with the O(N**-2) error elsewhere only for r >= 3
        j = np.arange(tabulation_nodes + 1) / tabulation_nodes
        times = tstar * j**3
        values = tuple(forcing(t) - nonlin(t, exact(t)) for t in times)
        f0 = SampledFunction(tuple(float(t) for t in times), values)
    problem = FodeProblem(_single_term_fdo(nu0), kernel, f0, v0, tstar, nonlin)
    return ManufacturedCase(problem, exact, nu0)


def _sin_damped(t: float, v: float) -> float:
    return -0.1 * math.sin(v)


NONLINEARITY_PRESETS = ("none", "sin-damped", "polynomial")


def nonlinearity_preset(
    name: str, coefficients: tuple[float, ...] = ()
) -> Callable[[float, float], float] | None:
    """Named nonlinearity callbacks accepted by the solver configs.

    ``polynomial`` evaluates sum_k c_k v**k from the coefficient list
    (constant term first); the other presets ignore the list.
    """
    if name == "none":
        return None
    if name == "sin-damped":
        return _sin_damped
    if name == "polynomial":
        if not coefficients:
            raise ValueError("polynomial nonlinearity needs a coefficient list")
        coeffs = tuple(float(c) for c in coefficients)

        def poly(t: float, v: float) -> float:
            acc = 0.0
            for c in reversed(coeffs):
                acc = acc * v + c
            return acc

        return poly
    raise ValueError(
        f"unknown nonlinearity {name!r}, expected one of {NONLINEARITY_PRESETS}"
    )
