"""Penalized least-squares fit of observation data in the regression basis.

The fitted trajectory minimises the sum of squared misfits at the grid
nodes (the exact initial value enters as node 0) plus ``lam`` times the
squared weighted norm of the trajectory, leading to the normal equations
``(Q^T Q + lam E) a = Q^T p`` with design matrix Q and Gram matrix E.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg.lapack import dsytrf, dsytrs

from fracorder.fraccalc import PowerSum
from fracorder.obsmodel import Observation
from fracorder.regbasis import (
    BasisSpec,
    antideriv_basis,
    basis_functions,
    eval_basis,
    gram_matrix,
)

__all__ = [
    "FitModel",
    "SingularSystemError",
    "design_matrix",
    "fit",
    "fit_all",
    "model_eval",
    "model_integral",
    "model_integral_weighted",
    "weighted_integral_table",
]


class SingularSystemError(RuntimeError):
    """The regularized normal equations could not be solved."""


@dataclass(frozen=True)
class FitModel:
    """Fit result: basis, coefficient vector, penalty weight, data misfit."""

    spec: BasisSpec
    coeffs: tuple[float, ...]
    lam: float
    residual_norm: float

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coeffs)
        if any(not np.isfinite(c) for c in coeffs):
            raise ValueError("fit coefficients must be finite")
        if not self.residual_norm >= 0:
            raise ValueError(f"residual_norm must be >= 0, got {self.residual_norm!r}")
        object.__setattr__(self, "coeffs", coeffs)


def design_matrix(obs: Observation, spec: BasisSpec) -> np.ndarray:
    """Basis values at t=0 (row 0) and at every observation node."""
    if obs.grid.t_end > spec.t_end:
        raise ValueError(
            f"grid extends to {obs.grid.t_end}, beyond the basis window {spec.t_end}"
        )
    rows = [eval_basis(spec, 0.0)]
    rows.extend(eval_basis(spec, t) for t in obs.grid.points)
    return np.vstack(rows)


def _data_vector(obs: Observation) -> np.ndarray:
    return np.array([obs.psi0, *obs.values])


def fit_all(
    obs: Observation, spec: BasisSpec, lams: Iterable[float]
) -> list[FitModel]:
    """Solve the regularized normal equations once per penalty weight.

    ``Q``, ``E``, ``Q^T Q`` and ``Q^T p`` are built once for all weights.
    Each ``Q^T Q + lam E`` is factored once (pivoted symmetric LDL^T,
    LAPACK ``sytrf``); the factors serve the first solve and two refinement
    passes whose residuals are accumulated in extended precision.
    Deterministic for identical inputs.  Every ``lam`` must be strictly
    positive; the unpenalized limit is exercised with tiny values instead.
    """
    lams = tuple(lams)
    for lam in lams:
        if not lam > 0:
            raise ValueError(f"fit requires lam > 0, got {lam!r}")
    q = design_matrix(obs, spec)
    e = gram_matrix(spec)
    p = _data_vector(obs)
    qtq = q.T @ q
    rhs = q.T @ p
    return [_fit_one(q, p, qtq + lam * e, rhs, spec, lam) for lam in lams]


def fit(obs: Observation, spec: BasisSpec, lam: float) -> FitModel:
    """The fit for one penalty weight; see ``fit_all``."""
    return fit_all(obs, spec, (lam,))[0]


def _require_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def _fit_one(q, p, lhs, rhs, spec, lam) -> FitModel:
    # LAPACK is called directly: scipy.linalg.solve (1.17) leaks about
    # 0.7 KB per call on ill-conditioned matrices, and sytrf/sytrs (upper,
    # default workspace) give the same bits as its assume_a="sym" path
    _require_finite(lhs)
    ldu, ipiv, info = dsytrf(lhs)
    if info > 0:
        raise SingularSystemError(
            f"normal equations singular at lam={lam!r}: zero pivot {info}"
        )

    def _solve(b: np.ndarray) -> np.ndarray:
        _require_finite(b)
        return dsytrs(ldu, ipiv, b)[0]

    lhs_w = lhs.astype(np.longdouble)
    rhs_w = rhs.astype(np.longdouble)

    def _residual(a: np.ndarray) -> np.ndarray:
        return (rhs_w - lhs_w @ a.astype(np.longdouble)).astype(float)

    best = _solve(rhs)
    r = _residual(best)
    best_res = float(np.linalg.norm(r))
    # fixed two refinement passes, extended-precision residuals
    for _ in range(2):
        cand = best + _solve(r)
        r_cand = _residual(cand)
        res = float(np.linalg.norm(r_cand))
        if not np.all(np.isfinite(cand)) or res >= best_res:
            break
        best, best_res, r = cand, res, r_cand
    if not np.all(np.isfinite(best)):
        raise SingularSystemError(f"non-finite solution at lam={lam!r}")
    residual = float(np.linalg.norm(q @ best - p))
    return FitModel(spec, tuple(float(c) for c in best), float(lam), residual)


def model_eval(m: FitModel, t: float) -> float:
    """Fitted trajectory value at ``t`` in (0, t_end]."""
    if not 0.0 < t <= m.spec.t_end:
        raise ValueError(f"t={t!r} outside (0, {m.spec.t_end}]")
    return float(np.asarray(m.coeffs) @ eval_basis(m.spec, t))


def model_integral(m: FitModel, that: float) -> float:
    """Integral of the fitted trajectory over [0, that], closed form."""
    if not 0.0 < that <= m.spec.t_end:
        raise ValueError(f"that={that!r} outside (0, {m.spec.t_end}]")
    return float(np.asarray(m.coeffs) @ antideriv_basis(m.spec, that))


def model_integral_weighted(m: FitModel, r0: PowerSum, that: float) -> float:
    """Integral of ``r0 * model`` over [0, that], exact for polynomial r0."""
    if not 0.0 < that <= m.spec.t_end:
        raise ValueError(f"that={that!r} outside (0, {m.spec.t_end}]")
    table = weighted_integral_table(np.array([m.coeffs]), m.spec, r0, (that,))
    return float(table[0, 0])


def weighted_integral_table(
    coeffs: np.ndarray, spec: BasisSpec, r0: PowerSum, thats: Sequence[float]
) -> np.ndarray:
    """Integrals of ``r0 * model`` over [0, that]: one row per coefficient row.

    Term by term as ``(r0 * model).antiderivative(that)`` expands it: r0
    terms outer, basis monomials inner, added one after the other from 0.
    Where the built-in ``sum`` adds sequentially (Python < 3.12) every
    entry carries the bits of that ``PowerSum`` product.
    """
    total = np.zeros((len(coeffs), len(thats)))
    for ca, ea in r0.terms:
        for col, fn in zip(coeffs.T, basis_functions(spec)):
            for cb, eb in fn.terms:
                c = ca * (col * cb)
                if not np.isfinite(c).all():
                    raise ValueError("weighted integrand coefficient is not finite")
                e1 = ea + eb + 1.0
                total = total + c[:, None] * np.array([t**e1 for t in thats]) / e1
    return total
