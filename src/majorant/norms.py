"""L^p norms on the torus: ``(integral_0^1 |P(theta)|^p dtheta)^(1/p)``.

Three routes with different guarantees, and :func:`norm` to pick between
the last two:

* :func:`norm_l2` reads the norm off the coefficients (Parseval), exact.
* :func:`norm_even` is exact for even integer p: the p-th moment is the
  constant coefficient of ``(P * conj(P))^(p/2)``, a finite piece of
  coefficient algebra.
* :func:`norm_quad` handles any real p >= 1 by uniform-grid trapezoid sums
  with grid doubling.  On a periodic integrand the uniform trapezoid rule is
  the plain grid mean, and for smooth integrands it converges faster than
  any power of the step; near zeros of P with non-even p the smoothness is
  limited, so convergence is verified empirically by the doubling criterion
  and the last successive difference is reported as the error bound.

All functions accept anything with ``degree``, ``sample_uniform`` and
``coefficient_l1`` (both :class:`~majorant.trigpoly.TrigPoly` and
:class:`~majorant.trigpoly.DilatedProduct`).  Everything here is pure; grid
reductions use numpy's pairwise summation in a fixed order, so results do
not depend on thread count.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import QuadratureConvergenceError
from .trigpoly import TrigPoly

DEFAULT_REL_TOL = 1e-9
DEFAULT_MAX_DOUBLINGS = 20


@dataclass(frozen=True)
class NormEstimate:
    """A norm value together with how it was obtained.

    ``error_bound`` is 0 for the exact methods; for quadrature it is the
    absolute difference between the last two grid refinements.
    """

    value: float
    p: float
    method: str  # "parseval" | "even-exact" | "quadrature"
    error_bound: float = 0.0
    grid_size: Optional[int] = None

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("norm value must be nonnegative")
        if self.error_bound < 0:
            raise ValueError("error bound must be nonnegative")
        if self.method not in ("parseval", "even-exact", "quadrature"):
            raise ValueError(f"unknown method tag {self.method!r}")
        if self.method == "quadrature" and self.grid_size is None:
            raise ValueError("quadrature estimates must record their grid")

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "p": self.p,
            "method": self.method,
            "error_bound": self.error_bound,
            "grid_size": self.grid_size,
        }


def norm_l2(P: TrigPoly) -> NormEstimate:
    """sqrt(sum |c_n|^2), exact by Parseval."""
    total = 0.0
    for c in P.terms.values():  # ascending frequency, fixed reduction order
        total += c.real * c.real + c.imag * c.imag
    return NormEstimate(value=float(np.sqrt(total)), p=2.0, method="parseval")


def even_moment(P, p: int) -> float:
    """The p-th moment ``integral |P|^p`` for even integer p, by coefficient
    algebra: the constant coefficient of ``(P conj(P))^(p/2)``.

    Exact up to float rounding; integer-coefficient inputs stay exact as
    long as intermediates fit in 53 bits.
    """
    p = operator.index(p)
    if p < 2 or p % 2 != 0:
        raise ValueError("even_moment needs an even integer p >= 2")
    if hasattr(P, "expand"):
        P = P.expand()
    if not P:
        return 0.0
    sq = P * P.conj()
    power = sq
    for _ in range(p // 2 - 1):
        power = power * sq
    moment = power.coefficient(0).real
    return max(moment, 0.0)


def norm_even(P, p: int) -> NormEstimate:
    """Exact L^p norm for even integer p >= 2."""
    moment = even_moment(P, p)
    return NormEstimate(value=moment ** (1.0 / p), p=float(p), method="even-exact")


def is_even_integer(p: float) -> bool:
    """True for p in {2, 4, 6, ...}, where :func:`norm_even` is exact."""
    return float(p).is_integer() and int(p) % 2 == 0 and p >= 2


def starting_grid(degree: int) -> int:
    """First quadrature grid: generous enough that the dominant frequencies
    cannot alias even before any refinement."""
    return max(256, 8 * degree + 1)


def norm_quad(
    P,
    p: float,
    rel_tol: float = DEFAULT_REL_TOL,
    *,
    max_doublings: int = DEFAULT_MAX_DOUBLINGS,
    start_grid: Optional[int] = None,
) -> NormEstimate:
    """L^p norm by uniform-grid quadrature with grid doubling.

    Doubles the grid until two successive estimates agree to ``rel_tol``
    relative; the error bound reported is the last successive difference.
    Powers are computed as ``(|P|^2)^(p/2)`` from the real squared modulus.

    Raises :class:`QuadratureConvergenceError` carrying the last two
    estimates if the budget of doublings is exhausted.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    m = start_grid if start_grid is not None else starting_grid(P.degree)
    half_p = 0.5 * p
    prev = prev2 = None
    for _ in range(max_doublings + 1):
        vals = P.sample_uniform(m)
        sq = vals.real * vals.real + vals.imag * vals.imag
        moment = float(np.sum(sq**half_p)) / m
        est = moment ** (1.0 / p)
        if prev is not None:
            diff = abs(est - prev)
            if diff <= rel_tol * max(abs(est), 1e-300):
                return NormEstimate(
                    value=est,
                    p=float(p),
                    method="quadrature",
                    error_bound=diff,
                    grid_size=m,
                )
        prev2, prev = prev, est
        m *= 2
    raise QuadratureConvergenceError(
        f"no convergence to rel_tol={rel_tol} after {max_doublings} doublings "
        f"(last two estimates {prev2} and {prev}, grid {m // 2})",
        last=prev,
        previous=prev2,
        grid_size=m // 2,
    )


def norm(P, p: float, rel_tol: float = DEFAULT_REL_TOL) -> NormEstimate:
    """L^p norm by the best route: exact for even integer p, quadrature
    at ``rel_tol`` otherwise."""
    if is_even_integer(p):
        return norm_even(P, int(p))
    return norm_quad(P, p, rel_tol)


def sup_norm_bracket(P, grid: int) -> Tuple[float, float]:
    """Two-sided bracket for the sup norm.

    ``lower`` is the max of |P| over the uniform grid, ``upper`` the
    coefficient l1 sum; ``lower <= sup|P| <= upper`` always holds.
    """
    grid = operator.index(grid)
    if grid < 1:
        raise ValueError("grid must be >= 1")
    upper = P.coefficient_l1()
    if upper == 0.0:
        return (0.0, 0.0)
    vals = P.sample_uniform(grid)
    lower = float(np.sqrt(np.max(vals.real * vals.real + vals.imag * vals.imag)))
    return (lower, upper)
