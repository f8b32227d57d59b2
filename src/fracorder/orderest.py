"""Leading-order estimators and the double quasi-optimality selection.

Two estimators read the leading order off a fitted trajectory at a probe
time ``that``: the ratio form ``that * (psi - psi0) / int (psi - psi0) - 1``
and the logarithmic comparator ``ln|psi - psi0| / ln that``.  Both are
swept over a geometric grid of penalty weights and probe times; the
reported value sits where consecutive estimates change least, first along
the penalty axis, then along the probe axis.  Only probes inside the
sampled window ``[t_1, t_end]`` take part in the selection: below the first
sample time the fitted model is an extrapolation shaped by the basis, not
by the data, and its flat spots there say nothing about the order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fracorder.obsmodel import FdoDescriptor, FdoKind, Observation
from fracorder.regbasis import BasisSpec, antideriv_basis, eval_basis
from fracorder.tikhonov import (
    FitModel,
    fit_all,
    model_eval,
    model_integral,
    model_integral_weighted,
    weighted_integral_table,
)

__all__ = [
    "LOG_SELECTION_MODES",
    "DegenerateEstimateError",
    "EstimateReport",
    "RegGrids",
    "SelectionFailureError",
    "default_grids",
    "log_estimate",
    "quasi_opt_select",
    "ratio_estimate",
    "run_pipeline",
]

LOG_SELECTION_MODES = ("independent", "reuse_ratio")


class DegenerateEstimateError(ArithmeticError):
    """A probe produced no usable estimate (vanishing denominator or ln 0)."""


class SelectionFailureError(RuntimeError):
    """Quasi-optimality found no admissible difference to minimise."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class RegGrids:
    """Geometric sweeps ``lambda_i = lambda1 * xi1**(i-1)`` and likewise that_j."""

    lambda1: float
    xi1: float
    k1: int
    that1: float
    xi2: float
    k2: int

    def __post_init__(self) -> None:
        if not self.lambda1 > 0:
            raise ValueError(f"lambda1 must be positive, got {self.lambda1!r}")
        if not 0.0 < self.xi1 < 1.0:
            raise ValueError(f"xi1 must lie in (0, 1), got {self.xi1!r}")
        if not 0.0 < self.xi2 < 1.0:
            raise ValueError(f"xi2 must lie in (0, 1), got {self.xi2!r}")
        if self.k1 < 2 or self.k2 < 2:
            raise ValueError("both grid lengths must be at least 2")
        if not self.that1 > 0:
            raise ValueError(f"that1 must be positive, got {self.that1!r}")

    def lambda_values(self) -> tuple[float, ...]:
        return tuple(self.lambda1 * self.xi1**i for i in range(self.k1))

    def that_values(self) -> tuple[float, ...]:
        return tuple(self.that1 * self.xi2**j for j in range(self.k2))


def default_grids(t_end: float) -> RegGrids:
    """Stock sweep: 60 penalty halvings from 1, 15 probe halvings from t_end."""
    return RegGrids(lambda1=1.0, xi1=0.5, k1=60, that1=t_end, xi2=0.5, k2=15)


def _use_weighted_form(fdo: FdoDescriptor) -> bool:
    # a constant leading coefficient cancels from both estimators, so the
    # plain form is used then; this also makes the type I/II agreement exact
    return fdo.kind is FdoKind.TYPE_II and not fdo.r0.is_constant()


def _probe_scale(
    fdo: FdoDescriptor, psi0: float, thats: np.ndarray
) -> tuple[np.ndarray, float]:
    """Factor on the model value per probe and the offset subtracted from it.

    ``(r0(that), r0(0) psi0)`` in the weighted form, ``(1, psi0)`` otherwise,
    so ``scale * psi - offset`` is the deviation both estimators read.
    """
    if _use_weighted_form(fdo):
        r0 = fdo.r0
        return np.array([r0(that) for that in thats]), r0(0.0) * psi0
    return np.ones(len(thats)), psi0


def _ratio_kernel(
    values: np.ndarray,
    integrals: np.ndarray,
    psi0: float,
    fdo: FdoDescriptor,
    thats: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Ratio estimates and degeneracy mask; rows are fits, columns probes."""
    scale, offset = _probe_scale(fdo, psi0, thats)
    num = thats * (scale * values - offset)
    den = integrals - offset * thats
    bad = np.abs(den) < 1e-300
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(bad, math.nan, num / den - 1.0), bad


def _log_kernel(
    values: np.ndarray, psi0: float, fdo: FdoDescriptor, thats: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Log estimates and ``ln 0`` mask; rows are fits, columns probes."""
    if thats.max() >= 1.0:
        raise ValueError(
            f"log_estimate requires that < 1, got {float(thats.max())!r}"
        )
    scale, offset = _probe_scale(fdo, psi0, thats)
    arg = np.abs(scale * values - offset)
    bad = arg == 0.0
    # math.log per entry: np.log differs from it in the last bit
    logs = [math.log(a) if a else math.nan for a in arg.ravel().tolist()]
    ln_that = np.array([math.log(that) for that in thats.tolist()])
    return np.reshape(logs, arg.shape) / ln_that, bad


def ratio_estimate(m: FitModel, psi0: float, fdo: FdoDescriptor, that: float) -> float:
    """Ratio estimator at probe time ``that``, using exact model integrals."""
    value = model_eval(m, that)
    if _use_weighted_form(fdo):
        integral = model_integral_weighted(m, fdo.r0, that)
    else:
        integral = model_integral(m, that)
    tab, bad = _ratio_kernel(
        np.array([[value]]), np.array([[integral]]), psi0, fdo, np.array([that])
    )
    if bad[0, 0]:
        raise DegenerateEstimateError(
            f"ratio denominator below 1e-300 at that={that!r}"
        )
    return float(tab[0, 0])


def log_estimate(m: FitModel, psi0: float, fdo: FdoDescriptor, that: float) -> float:
    """Logarithmic comparator ``ln|psi - psi0| / ln that``; needs that < 1."""
    if that >= 1.0:
        raise ValueError(f"log_estimate requires that < 1, got {that!r}")
    tab, bad = _log_kernel(
        np.array([[model_eval(m, that)]]), psi0, fdo, np.array([that])
    )
    if bad[0, 0]:
        raise DegenerateEstimateError(f"zero ln argument at that={that!r}")
    return float(tab[0, 0])


def _smallest_change(x: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """Per column, the first i >= 1 minimising ``|x[i] - x[i-1]|``, else 0.

    Pairs with a ``bad`` end and NaN or +inf changes read +inf, like the
    row put in front, so they never win and a column without others gives 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        change = np.abs(x[1:] - x[:-1])
    change[bad[1:] | bad[:-1] | np.isnan(change)] = math.inf
    none = np.full((1, *x.shape[1:]), math.inf)
    return np.argmin(np.concatenate((none, change)), axis=0)


def quasi_opt_select(table: np.ndarray, failed: np.ndarray) -> tuple[int, int]:
    """Doubly quasi-optimal cell of an estimate table.

    Per column j, pick the row minimising |table[i,j] - table[i-1,j]| over
    consecutive non-failed pairs; then minimise the change between the
    selected entries of consecutive columns.  Ties break toward the
    smallest index.  Returns 0-based ``(i, j)``.
    """
    table = np.asarray(table, dtype=float)
    failed = np.asarray(failed, dtype=bool)
    _, k2 = table.shape
    rows = _smallest_change(table, failed)
    if not rows.all():
        raise SelectionFailureError(
            f"no admissible consecutive pair in column {int(np.argmin(rows))}"
        )
    best_j = int(_smallest_change(table[rows, np.arange(k2)], np.zeros(k2, bool)))
    if best_j == 0:
        raise SelectionFailureError("no admissible difference in the outer pass")
    return int(rows[best_j]), best_j


@dataclass(frozen=True)
class EstimateReport:
    """Both estimates with their selected sweep cells and the full tables."""

    nu_ratio: float
    nu_log: float
    ratio_lambda: float
    ratio_that: float
    log_lambda: float
    log_that: float
    ratio_index: tuple[int, int]
    log_index: tuple[int, int]
    ratio_table: tuple[tuple[float, ...], ...]
    log_table: tuple[tuple[float, ...], ...]
    ratio_failed: tuple[tuple[bool, ...], ...]
    log_failed: tuple[tuple[bool, ...], ...]
    grids: RegGrids
    log_selection: str

    def __post_init__(self) -> None:
        ri, rj = self.ratio_index
        li, lj = self.log_index
        lambdas = self.grids.lambda_values()
        thats = self.grids.that_values()
        if self.nu_ratio != self.ratio_table[ri][rj]:
            raise ValueError("nu_ratio does not match its table entry")
        if self.nu_log != self.log_table[li][lj]:
            raise ValueError("nu_log does not match its table entry")
        if (self.ratio_lambda, self.ratio_that) != (lambdas[ri], thats[rj]):
            raise ValueError("ratio selection is not a grid member")
        if (self.log_lambda, self.log_that) != (lambdas[li], thats[lj]):
            raise ValueError("log selection is not a grid member")


def _as_nested(a: np.ndarray) -> tuple[tuple, ...]:
    return tuple(tuple(row) for row in a.tolist())


def run_pipeline(
    obs: Observation,
    spec: BasisSpec,
    grids: RegGrids,
    fdo: FdoDescriptor | None = None,
    log_selection: str = "independent",
) -> EstimateReport:
    """Fit once per penalty weight, sweep both estimators, select, report.

    ``log_selection`` decides whether the logarithmic estimate gets its own
    quasi-optimality pass ("independent") or is read at the ratio-selected
    cell ("reuse_ratio").  Both passes choose only among probes at or above
    the first sample time ``obs.grid.points[0]``; since the probe times
    decrease, these are a prefix of the probe grid, and fewer than two of
    them is a ``ValueError``.  The tables still cover the whole grid.
    Selection failures propagate with the full tables attached as
    diagnostics.
    """
    if log_selection not in LOG_SELECTION_MODES:
        raise ValueError(
            f"log_selection must be one of {LOG_SELECTION_MODES}, got {log_selection!r}"
        )
    fdo = fdo if fdo is not None else obs.descriptor
    lambdas = grids.lambda_values()
    thats = grids.that_values()
    if grids.that1 > spec.t_end:
        raise ValueError(
            f"probe times reach {grids.that1}, beyond the basis window {spec.t_end}"
        )
    t_first = obs.grid.points[0]
    n_inside = sum(1 for that in thats if that >= t_first)
    if n_inside < 2:
        raise ValueError(
            f"{n_inside} probe time(s) at or above the first sample time "
            f"{t_first}; probes span [{thats[-1]}, {thats[0]}], need at least 2"
        )
    fdo.require_positive_leading_coefficient(spec.t_end)

    coeffs = fit_all(obs, spec, lambdas)
    probes = np.array(thats)
    values = coeffs @ np.array([eval_basis(spec, that) for that in thats]).T
    if _use_weighted_form(fdo):
        integrals = weighted_integral_table(coeffs, spec, fdo.r0, thats)
    else:
        integrals = coeffs @ np.array([antideriv_basis(spec, that) for that in thats]).T
    ratio_tab, ratio_bad = _ratio_kernel(values, integrals, obs.psi0, fdo, probes)
    log_tab, log_bad = _log_kernel(values, obs.psi0, fdo, probes)

    inside = np.s_[:, :n_inside]
    try:
        ratio_idx = quasi_opt_select(ratio_tab[inside], ratio_bad[inside])
        if log_selection == "independent":
            log_idx = quasi_opt_select(log_tab[inside], log_bad[inside])
        else:
            log_idx = ratio_idx
            if log_bad[log_idx]:
                raise SelectionFailureError(
                    "ratio-selected cell is degenerate for the log estimator"
                )
    except SelectionFailureError as exc:
        diagnostics = {
            "ratio_table": _as_nested(ratio_tab),
            "log_table": _as_nested(log_tab),
            "ratio_failed": _as_nested(ratio_bad),
            "log_failed": _as_nested(log_bad),
            "grids": grids,
        }
        raise SelectionFailureError(str(exc), diagnostics) from None

    ri, rj = ratio_idx
    li, lj = log_idx
    return EstimateReport(
        nu_ratio=float(ratio_tab[ri, rj]),
        nu_log=float(log_tab[li, lj]),
        ratio_lambda=lambdas[ri],
        ratio_that=thats[rj],
        log_lambda=lambdas[li],
        log_that=thats[lj],
        ratio_index=ratio_idx,
        log_index=log_idx,
        ratio_table=_as_nested(ratio_tab),
        log_table=_as_nested(log_tab),
        ratio_failed=_as_nested(ratio_bad),
        log_failed=_as_nested(log_bad),
        grids=grids,
        log_selection=log_selection,
    )
