"""Penalized least-squares fit of observation data in the regression basis.

The fitted trajectory minimises the sum of squared misfits at the grid
nodes (the exact initial value enters as node 0) plus ``lam`` times the
squared weighted norm of the trajectory: the minimiser of
``|Q a - p|^2 + lam a^T E a`` with design matrix Q and Gram matrix E,
i.e. the solution of ``(Q^T Q + lam E) a = Q^T p``.  It is computed in
standard form (whitened by the eigenvectors of E, filtered through one
SVD), because ``Q^T Q`` squares the condition number of Q past what
float64 can hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

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
    """The regularized fit is singular or has no finite solution."""


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
    """Solve the regularized least-squares problem once per penalty weight.

    Standard form (Hansen, *Rank-Deficient and Discrete Ill-Posed
    Problems*, SIAM 1998, ch. 2).  The Gram matrix is scaled to unit
    diagonal, ``E = D Es D``, and ``Es = V diag(w) V^T``; the substitution
    ``a = D V w^-1/2 b`` turns the penalty into ``|b|^2`` and the design
    into ``A = Q D V w^-1/2``.  One SVD ``A = U diag(s) Z^T`` then gives
    every weight as the diagonal filter
    ``a(lam) = D V w^-1/2 Z (s / (s^2 + lam) * U^T p)``, so ``Q^T Q`` is
    never formed.  The scaling matters because the members' norms span
    many orders of magnitude and the eigensolver's errors are relative to
    the largest eigenvalue; unit diagonal is within a factor n of the best
    diagonal scaling (van der Sluis, *Numer. Math.* 14, 1969).

    The eigendecomposition and the SVD are computed once for all weights;
    each weight repeats the same 1-D operations, so the result for one
    ``lam`` does not depend on the others.  Every ``lam`` must be strictly
    positive; the unpenalized limit is exercised with tiny values instead.
    A scaled eigenvalue at or below ``n * eps * w_max`` lies within the
    backward error of the eigensolver, so it may be 0: the fit is then
    singular.
    """
    lams = tuple(lams)
    for lam in lams:
        if not lam > 0:
            raise ValueError(f"fit requires lam > 0, got {lam!r}")
    q = design_matrix(obs, spec)
    e = gram_matrix(spec)
    p = _data_vector(obs)
    for arr in (q, e, p):
        _require_finite(arr)
    d = 1.0 / np.sqrt(np.diag(e))
    w, v = np.linalg.eigh(d[:, None] * e * d)
    if not w[0] > len(w) * np.finfo(float).eps * w[-1]:
        raise SingularSystemError(
            f"Gram matrix singular: scaled eigenvalues span [{w[0]!r}, {w[-1]!r}]"
        )
    unwhiten = d[:, None] * v / np.sqrt(w)
    u, s, zt = np.linalg.svd(q @ unwhiten, full_matrices=False)
    back = unwhiten @ zt.T
    beta = u.T @ p
    s2 = s * s
    models = []
    for lam in lams:
        a = back @ (s / (s2 + lam) * beta)
        if not np.isfinite(a).all():
            raise SingularSystemError(f"non-finite solution at lam={lam!r}")
        residual = float(np.linalg.norm(q @ a - p))
        models.append(FitModel(spec, tuple(a.tolist()), float(lam), residual))
    return models


def fit(obs: Observation, spec: BasisSpec, lam: float) -> FitModel:
    """The fit for one penalty weight; see ``fit_all``."""
    return fit_all(obs, spec, (lam,))[0]


def _require_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


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
