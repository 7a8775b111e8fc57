"""L^p norms on the torus: ``(integral_0^1 |P(theta)|^p dtheta)^(1/p)``.

Four routes with different guarantees, and :func:`norm` to pick between
the last three:

* :func:`norm_l2` reads the norm off the coefficients (Parseval), exact.
* :func:`norm_even` is exact for even integer p: the p-th moment is
  ``||P^(p/2)||_2^2``, a finite piece of coefficient algebra.  On a
  :class:`~majorant.trigpoly.DilatedProduct` it runs the transfer-operator
  recursion below on the polynomial ``|base|^p`` and never expands the
  product.
* :func:`norm_transfer` handles a product of dilates at any real p >= 1.
  With ``g = |base|^p`` and ``(T h)(x) = (1/D) sum_j h((x + j)/D)``,
  ``integral prod_{i<k} g(D^i x) dx`` is the mean of ``psi_k``, where
  ``psi_0 = 1`` and ``psi_{m+1} = T(g psi_m)``.  In Fourier terms ``T(g .)``
  is the matrix ``A[n, j] = ghat(D n - j)``; truncated to ``|n|, |j| <= K``
  it costs O(k K^2) whatever the degree of the product.
* :func:`norm_quad` handles any real p >= 1 by uniform-grid trapezoid sums
  with grid doubling.  On a periodic integrand the uniform trapezoid rule is
  the plain grid mean, and for smooth integrands it converges faster than
  any power of the step; near zeros of P with non-even p the smoothness is
  limited, so convergence is verified empirically by the doubling criterion
  and the last successive difference is reported as the error bound.

:func:`norm_quad` accepts anything with ``degree`` and ``sample_uniform``
(both :class:`~majorant.trigpoly.TrigPoly` and
:class:`~majorant.trigpoly.DilatedProduct`).  Everything here is pure; grid
and mode reductions use numpy's pairwise summation in a fixed order, so
results do not depend on thread count.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import QuadratureConvergenceError
from .trigpoly import DilatedProduct, TrigPoly, make

DEFAULT_REL_TOL = 1e-9
DEFAULT_MAX_DOUBLINGS = 20
# The transfer route starts from max(TRANSFER_START_MODES, degree of the
# base) retained modes on each side and doubles at most this many times.
TRANSFER_START_MODES = 8
TRANSFER_MAX_DOUBLINGS = 6


@dataclass(frozen=True)
class NormEstimate:
    """A norm value together with how it was obtained.

    ``error_bound`` is 0 for the exact methods; for quadrature and the
    transfer route it is the absolute difference between the last two
    refinements.  ``grid_size`` is the final grid for quadrature and the
    number of retained modes, 2K + 1, for the transfer route.
    """

    value: float
    p: float
    method: str  # "parseval" | "even-exact" | "quadrature" | "transfer"
    error_bound: float = 0.0
    grid_size: Optional[int] = None

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("norm value must be nonnegative")
        if self.error_bound < 0:
            raise ValueError("error bound must be nonnegative")
        if self.method not in ("parseval", "even-exact", "quadrature", "transfer"):
            raise ValueError(f"unknown method tag {self.method!r}")
        if self.method in ("quadrature", "transfer") and self.grid_size is None:
            raise ValueError(f"{self.method} estimates must record their grid")

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
    return NormEstimate(value=float(np.sqrt(_energy(P))), p=2.0, method="parseval")


def _energy(P: TrigPoly) -> float:
    """sum |c_n|^2 in ascending frequency order, a fixed reduction order."""
    total = 0.0
    for c in P.terms.values():
        total += c.real * c.real + c.imag * c.imag
    return total


def even_moment(P, p: int) -> float:
    """The p-th moment ``integral |P|^p`` for even integer p, by coefficient
    algebra.

    For a polynomial it is ``||P^(p/2)||_2^2``: the inner product of the
    coefficients of ``P^(p/2)`` with those of its conjugate, summed in
    ascending frequency order.  For a product of dilates it is the constant
    coefficient of ``psi_k`` with ``psi_0 = 1`` and
    ``psi_{m+1} = T(g psi_m)``, ``g = |base|^p`` (see the module docstring).

    Exact up to float rounding; integer-coefficient inputs stay exact as
    long as intermediates fit in 53 bits.
    """
    p = operator.index(p)
    if p < 2 or p % 2 != 0:
        raise ValueError("even_moment needs an even integer p >= 2")
    if isinstance(P, DilatedProduct):
        half = _power(P.base, p // 2)
        g = half * half.conj()
        psi = make([(0, 1)])
        for _ in range(P.k):
            gpsi = g * psi
            psi = make((n // P.D, c) for n, c in gpsi.terms.items() if n % P.D == 0)
        return max(psi.coefficient(0).real, 0.0)
    return _energy(_power(P, p // 2))


def _power(P: TrigPoly, e: int) -> TrigPoly:
    out = P
    for _ in range(e - 1):
        out = out * P
    return out


def norm_even(P, p: int) -> NormEstimate:
    """Exact L^p norm for even integer p >= 2."""
    moment = even_moment(P, p)
    return NormEstimate(value=moment ** (1.0 / p), p=float(p), method="even-exact")


def is_even_integer(p: float) -> bool:
    """True for p in {2, 4, 6, ...}, where :func:`norm_even` is exact."""
    return float(p).is_integer() and int(p) % 2 == 0 and p >= 2


def starting_grid(degree: int) -> int:
    """First quadrature grid: a power of two above 8 * degree, so the
    dominant frequencies cannot alias before any refinement.  From an odd
    start m, a polynomial in e(2r theta) has the same samples on m and 2m
    and the first doubling would stop without refining."""
    return 1 << max(8, (8 * degree).bit_length())


def norm_quad(
    P,
    p: float,
    rel_tol: float = DEFAULT_REL_TOL,
    *,
    max_doublings: int = DEFAULT_MAX_DOUBLINGS,
) -> NormEstimate:
    """L^p norm by uniform-grid quadrature with grid doubling.

    Doubles the grid until two successive estimates agree to ``rel_tol``
    relative; the error bound reported is the last successive difference.
    Powers are computed as ``(|P|^2)^(p/2)`` from the real squared modulus.

    Raises :class:`QuadratureConvergenceError` carrying the last two
    estimates if the budget of doublings is exhausted.
    """
    _check_args(p, rel_tol)
    m = starting_grid(P.degree)
    half_p = 0.5 * p

    def estimate(m):
        vals = P.sample_uniform(m)
        sq = vals.real * vals.real + vals.imag * vals.imag
        return (float(np.sum(sq**half_p)) / m) ** (1.0 / p)

    return _refine(estimate, m, max_doublings, rel_tol, p, "quadrature", lambda m: m)


def norm_transfer(P: DilatedProduct, p: float, rel_tol: float = DEFAULT_REL_TOL) -> NormEstimate:
    """L^p norm of a product of dilates through the transfer operator.

    Retains the modes ``|n| <= K`` of ``psi`` and doubles K until two
    successive estimates agree to ``rel_tol`` relative; the error bound
    reported is the last successive difference and ``grid_size`` is 2K + 1.
    ``ghat`` comes from an FFT of ``|base|^p`` on a power-of-two grid of at
    least 8(D+1)K points: the indices ``D n - j`` span 2(D+1)K + 1 values,
    and a grid not well above that aliases them.

    Raises :class:`QuadratureConvergenceError` carrying the last two
    estimates if ``TRANSFER_MAX_DOUBLINGS`` doublings do not suffice.
    """
    _check_args(p, rel_tol)
    D, k = P.D, P.k
    base = _primitive(P.base)

    def estimate(K):
        L = 1 << (8 * (D + 1) * K - 1).bit_length()
        vals = base.sample_uniform(L)
        g = (vals.real * vals.real + vals.imag * vals.imag) ** (0.5 * p)
        ghat = np.fft.fft(g) / L
        n = np.arange(-K, K + 1)
        A = ghat[(D * n[:, None] - n) % L]
        psi = np.zeros(2 * K + 1, dtype=complex)
        psi[K] = 1.0
        for _ in range(k):
            psi = np.sum(A * psi, axis=1)
        return float(max(psi[K].real, 0.0)) ** (1.0 / p)

    K = max(TRANSFER_START_MODES, base.degree)
    return _refine(estimate, K, TRANSFER_MAX_DOUBLINGS, rel_tol, p, "transfer", lambda K: 2 * K + 1)


def _primitive(base: TrigPoly) -> TrigPoly:
    """``b`` with ``|base(x)| = |b(r x)|``: the frequencies shifted to start
    at 0 and divided by their gcd r.  Both maps leave every
    ``integral |prod_i base(D^i x)|^p`` unchanged.  Without them the
    doubling test can stop far from the value when the frequencies share a
    factor: on 1 + e(2 theta) at D = 10, k = 3, p = 2.5, K = 8 and K = 16
    agree to 2e-11 and are both 2.9e-8 off."""
    freqs = list(base.terms)
    if not freqs:
        return base
    r = math.gcd(*(n - freqs[0] for n in freqs)) or 1
    return make(((n - freqs[0]) // r, c) for n, c in base.terms.items())


def _check_args(p: float, rel_tol: float) -> None:
    if p < 1:
        raise ValueError("p must be >= 1")
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")


def _refine(estimate, size, max_doublings, rel_tol, p, method, grid_of) -> NormEstimate:
    """Double ``size`` until two successive estimates agree to ``rel_tol``
    relative; ``grid_of(size)`` is what the estimate records as its grid."""
    prev = prev2 = None
    for _ in range(max_doublings + 1):
        est = estimate(size)
        if prev is not None:
            diff = abs(est - prev)
            if diff <= rel_tol * max(abs(est), 1e-300):
                return NormEstimate(
                    value=est,
                    p=float(p),
                    method=method,
                    error_bound=diff,
                    grid_size=grid_of(size),
                )
        prev2, prev = prev, est
        size *= 2
    last = grid_of(size // 2)
    raise QuadratureConvergenceError(
        f"no convergence to rel_tol={rel_tol} after {max_doublings} doublings "
        f"(last two estimates {prev2} and {prev}, grid {last})",
        last=prev,
        previous=prev2,
        grid_size=last,
    )


def norm(P, p: float, rel_tol: float = DEFAULT_REL_TOL) -> NormEstimate:
    """L^p norm by the best route: exact for even integer p, the transfer
    operator for other p on a product of dilates, quadrature at ``rel_tol``
    otherwise."""
    if is_even_integer(p):
        return norm_even(P, int(p))
    if isinstance(P, DilatedProduct):
        return norm_transfer(P, p, rel_tol)
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
