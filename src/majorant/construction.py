"""The digit-product family that separates L^3 norms.

Seed pair on support {0, 1, 3}:

* ``majorant_base()``: ``1 + e(theta) + e(3 theta)`` (all-ones coefficients)
* ``flipped_base()``:  ``1 + e(theta) - e(3 theta)`` (sign flipped at 3)

The cube integral of the flipped seed is strictly larger, and taking k-fold
products of dilates at base D turns that one-factor advantage into a growth
exponent.  The k-digit set is

    Lambda(D, k) = { sum_i eps_i D^i : eps_i in {0, 1, 3} },

with the sign of n equal to (-1)^(number of base-D digits of n equal to 3).
The family is held in product form only: the all-ones exponential sum over
Lambda is ``prod_i majorant_base(D^i theta)`` term for term, and the signed
sum is ``prod_i flipped_base(D^i theta)``, so a construction is its
parameters (D, k).  Norm computations run the transfer operator of the
three-term base k times instead of touching 3^k expanded terms;
``product_of_dilates`` gives the coefficient form when it is affordable.

D >= 4 is required so that 3 is a valid base-D digit and max(Lambda) < D^k.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

from .errors import FrequencyOverflowError
from .norms import DEFAULT_REL_TOL, NormEstimate, norm
from .trigpoly import MAX_FREQUENCY, DilatedProduct, TrigPoly, make


def majorant_base() -> TrigPoly:
    """The all-ones seed ``1 + e(theta) + e(3 theta)``."""
    return make([(0, 1), (1, 1), (3, 1)])


def flipped_base() -> TrigPoly:
    """The sign-flipped seed ``1 + e(theta) - e(3 theta)``."""
    return make([(0, 1), (1, 1), (3, -1)])


@dataclass(frozen=True)
class DigitConstruction:
    """Lambda(D, k) with its digit signs, stored as its parameters.

    ``N = max(Lambda)`` and ``lam_size = 3^k`` are closed forms; the
    all-ones and signed sums exist only in product form.  Immutable.
    """

    D: int
    k: int

    @property
    def N(self) -> int:
        """max(Lambda), the number whose base-D digits are all 3."""
        return 3 * (self.D**self.k - 1) // (self.D - 1)

    @property
    def lam_size(self) -> int:
        return 3**self.k

    def all_ones_product(self) -> DilatedProduct:
        """Product form of the all-ones sum, for O(k)-per-point evaluation."""
        return DilatedProduct(majorant_base(), self.D, self.k)

    def signed_product(self) -> DilatedProduct:
        """Product form of the signed sum."""
        return DilatedProduct(flipped_base(), self.D, self.k)

    def to_json(self) -> dict:
        return {"D": self.D, "k": self.k, "N": self.N, "lam_size": self.lam_size}


def build(D: int, k: int) -> DigitConstruction:
    """Validate the parameters of Lambda(D, k) and return its construction."""
    D = operator.index(D)
    k = operator.index(k)
    if D < 4:
        raise ValueError("digit base D must be >= 4 (3 must be a valid digit)")
    if k < 1:
        raise ValueError("digit count k must be >= 1")
    c = DigitConstruction(D, k)
    if c.N > MAX_FREQUENCY:
        raise FrequencyOverflowError(
            f"max(Lambda) = {c.N} exceeds the 64-bit frequency range"
        )
    return c


def fit_k(D: int, N: int) -> int:
    """Largest k with D^k <= N, i.e. floor(log N / log D), computed exactly."""
    D = operator.index(D)
    N = operator.index(N)
    if D < 4:
        raise ValueError("digit base D must be >= 4")
    if N < D:
        raise ValueError(f"target N={N} admits no k >= 1 at base D={D}")
    k = 0
    power = 1
    while power * D <= N:
        power *= D
        k += 1
    return k


class RatioResult(NamedTuple):
    ratio: float
    norm_all_ones: NormEstimate
    norm_signed: NormEstimate


def ratio_at(
    c: DigitConstruction, p: float, rel_tol: float = DEFAULT_REL_TOL
) -> RatioResult:
    """||signed||_p / ||all-ones||_p through the product forms.

    Both norms come from the transfer operator of the base, exact for even
    integer p, so the cost grows linearly in k and no 3^k expansion or
    degree-sized grid is ever formed.
    """
    n_all = norm(c.all_ones_product(), p, rel_tol)
    n_sgn = norm(c.signed_product(), p, rel_tol)
    return RatioResult(n_sgn.value / n_all.value, n_all, n_sgn)


def eta_empirical(c: DigitConstruction, ratio: float) -> float:
    """Growth exponent ``log(ratio) / (k log D)`` of a cube-norm ratio from
    :func:`ratio_at`.

    With N < D^k, a cube-norm ratio of r over Lambda(D, k) witnesses a
    majorant constant at least N^eta with eta = log(r)/(k log D).  Positive
    exactly when the ratio exceeds 1.
    """
    return math.log(ratio) / (c.k * math.log(c.D))
