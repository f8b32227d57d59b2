"""Weighted regression basis: power members plus shifted Jacobi polynomials.

The fitting space mixes a handful of fractional powers ``t**b_j`` (initial
guesses bracketing the unknown order) with shifted Jacobi polynomials that
are orthogonal in the weighted space L^2 with weight ``t**(-rho)`` on
``(0, t_end)``.  Everything is expanded into monomials in ``t`` so that
inner products, evaluations and antiderivatives have exact closed forms.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from fracorder.fraccalc import binom_real

__all__ = [
    "BasisFunction",
    "BasisSpec",
    "SingularBasisWarning",
    "antideriv_basis",
    "antideriv_matrix",
    "basis_functions",
    "basis_matrix",
    "eval_basis",
    "gram_matrix",
    "initial_power_exponents",
    "jacobi_poly",
    "weighted_inner",
]

DEFAULT_TOTAL_SIZE = 9
DEFAULT_WEIGHT_EXPONENT = 0.99

# multiples of the reference lower order used as stock initial guesses,
# largest first
INITIAL_GUESS_MULTIPLES = (1.75, 1.45, 1.15)

_MAX_JACOBI_DEGREE = 12


class SingularBasisWarning(UserWarning):
    """Duplicate basis members make the normal equations singular."""


def initial_power_exponents(base: float) -> tuple[float, float, float]:
    """Stock power exponents: the three standard multiples of ``base``."""
    if not base > 0:
        raise ValueError(f"initial_power_exponents requires base > 0, got {base!r}")
    exps = tuple(m * base for m in INITIAL_GUESS_MULTIPLES)
    if exps[0] >= 1.0:
        raise ValueError(f"largest initial guess {exps[0]!r} leaves (0, 1)")
    return exps


@dataclass(frozen=True)
class BasisSpec:
    """Shape of the fitting space.

    ``power_exponents`` are the fractional-power members, nonincreasing and
    in (0, 1); ``total_size`` is the full dimension, the remainder being
    Jacobi members of degrees 0, 1, ...; ``weight_exponent`` is the rho of
    the weight ``t**(-rho)``; ``t_end`` the right endpoint of the window.
    """

    power_exponents: tuple[float, ...]
    t_end: float
    total_size: int = DEFAULT_TOTAL_SIZE
    weight_exponent: float = DEFAULT_WEIGHT_EXPONENT

    def __post_init__(self) -> None:
        exps = tuple(float(b) for b in self.power_exponents)
        if any(not 0.0 < b < 1.0 for b in exps):
            raise ValueError(f"power exponents must lie in (0, 1), got {exps!r}")
        if any(b2 > b1 for b1, b2 in zip(exps, exps[1:])):
            raise ValueError("power exponents must be nonincreasing (largest first)")
        if self.total_size < len(exps):
            raise ValueError(
                f"total_size {self.total_size} below the {len(exps)} power members"
            )
        if not 0.0 < self.weight_exponent < 1.0:
            raise ValueError(
                f"weight_exponent must lie in (0, 1), got {self.weight_exponent!r}"
            )
        if not self.t_end > 0:
            raise ValueError(f"t_end must be positive, got {self.t_end!r}")
        object.__setattr__(self, "power_exponents", exps)
        object.__setattr__(self, "t_end", float(self.t_end))

    @property
    def jacobi_count(self) -> int:
        return self.total_size - len(self.power_exponents)


@dataclass(frozen=True)
class BasisFunction:
    """A basis member in canonical monomial form ``sum c_p t**e_p``, e_p >= 0."""

    terms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        clean = tuple((float(c), float(e)) for c, e in self.terms)
        if not clean:
            raise ValueError("BasisFunction needs at least one term")
        if any(e < 0 for _, e in clean):
            raise ValueError("BasisFunction exponents must be nonnegative")
        object.__setattr__(self, "terms", clean)

    def __call__(self, t: float) -> float:
        if t == 0.0:
            return sum(c for c, e in self.terms if e == 0.0)
        return sum(c * t**e for c, e in self.terms)

    def antiderivative(self, t: float) -> float:
        return sum(c * t ** (e + 1.0) / (e + 1.0) for c, e in self.terms)


@functools.lru_cache(maxsize=256)
def jacobi_poly(j: int, rho: float, tK: float) -> BasisFunction:
    """Shifted Jacobi polynomial of degree ``j``, expanded into monomials in t.

    The polynomial is orthogonal against its siblings in the weighted space
    and normalised so its value at ``t = tK`` is 1.  Degrees above 12 are
    refused: the alternating-sign expansion starts losing accuracy there.
    """
    if j < 0:
        raise ValueError(f"jacobi_poly requires degree >= 0, got {j}")
    if j > _MAX_JACOBI_DEGREE:
        raise ValueError(
            f"jacobi_poly degree {j} exceeds the cap {_MAX_JACOBI_DEGREE}"
        )
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho!r}")
    if not tK > 0:
        raise ValueError(f"tK must be positive, got {tK!r}")
    # sum_i C(j,i) C(j-rho, j-i) (s-1)^(j-i) s^i with s = t/tK
    coeff_by_power: dict[int, float] = {}
    for i in range(j + 1):
        c = math.comb(j, i) * binom_real(j - rho, j - i)
        for m in range(j - i + 1):
            sign = -1.0 if (j - i - m) % 2 else 1.0
            p = m + i
            coeff_by_power[p] = coeff_by_power.get(p, 0.0) + c * math.comb(j - i, m) * sign
    terms = tuple(
        (coeff_by_power[p] / tK**p, float(p)) for p in sorted(coeff_by_power)
    )
    return BasisFunction(terms)


def weighted_inner(f: BasisFunction, g: BasisFunction, rho: float, tK: float) -> float:
    """Inner product ``int_0^tK t**(-rho) f g dt`` in exact closed form."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho!r}")
    if not tK > 0:
        raise ValueError(f"tK must be positive, got {tK!r}")
    total = 0.0
    for cp, ep in f.terms:
        for cq, eq in g.terms:
            power = ep + eq + 1.0 - rho
            total += cp * cq * tK**power / power
    return total


@functools.lru_cache(maxsize=128)
def basis_functions(spec: BasisSpec) -> tuple[BasisFunction, ...]:
    """All members of the space: power members first, then Jacobi by degree."""
    powers = tuple(BasisFunction(((1.0, b),)) for b in spec.power_exponents)
    jacobis = tuple(
        jacobi_poly(j, spec.weight_exponent, spec.t_end)
        for j in range(spec.jacobi_count)
    )
    return powers + jacobis


def gram_matrix(spec: BasisSpec) -> np.ndarray:
    """Weighted Gram matrix of the basis, symmetric by construction.

    Duplicate power exponents are legal input but produce an exactly
    singular matrix; a warning is emitted and the matrix returned anyway.
    """
    if len(set(spec.power_exponents)) < len(spec.power_exponents):
        warnings.warn(
            "duplicate power exponents: Gram matrix is singular",
            SingularBasisWarning,
            stacklevel=2,
        )
    fns = basis_functions(spec)
    n = len(fns)
    out = np.zeros((n, n))
    for l in range(n):
        for m in range(l, n):
            val = weighted_inner(fns[l], fns[m], spec.weight_exponent, spec.t_end)
            out[l, m] = val
            out[m, l] = val
    return out


def _check_window(spec: BasisSpec, t: float) -> None:
    if not 0.0 <= t <= spec.t_end:
        raise ValueError(f"t={t!r} outside the basis window [0, {spec.t_end}]")


def eval_basis(spec: BasisSpec, t: float) -> np.ndarray:
    """Values of all basis members at ``t`` in [0, t_end]."""
    _check_window(spec, t)
    return np.array([fn(t) for fn in basis_functions(spec)])


def antideriv_basis(spec: BasisSpec, t: float) -> np.ndarray:
    """Antiderivative values ``int_0^t h_l`` for all members, closed form."""
    _check_window(spec, t)
    return np.array([fn.antiderivative(t) for fn in basis_functions(spec)])


def basis_matrix(spec: BasisSpec, ts: tuple[float, ...]) -> np.ndarray:
    """``eval_basis`` at each time in ``ts``, one row per time."""
    return np.array([eval_basis(spec, t) for t in ts])


def antideriv_matrix(spec: BasisSpec, ts: tuple[float, ...]) -> np.ndarray:
    """``antideriv_basis`` at each time in ``ts``, one row per time."""
    return np.array([antideriv_basis(spec, t) for t in ts])
