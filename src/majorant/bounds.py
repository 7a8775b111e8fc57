"""Numerical verification of the cube-norm upper-bound chain.

For ``F = sum_{n in Lambda} e(n theta)`` and ``Ta = sum a_n e(n theta)``
with ``|a_n| <= 1`` the chain is

    ||Ta||_3 <= ||a||_inf ||F||_2^(1/3) ||F||_4^(2/3)     (interpolation)
    ||F||_2  <= ||F||_3                                   (monotonicity)
    ||F||_4  <= |Lambda|^(1/4) ||F||_3^(3/4)              (sup-norm step)
    ||Ta||_3 <= ||a||_inf |Lambda|^(1/6) ||F||_3^(5/6)    (combined)

together with the pointwise peak bound ``|F(theta)| >= |Lambda|/2`` for
``|theta| <= 1/(10 N)``, which yields
``||F||_3^3 >= (|Lambda|/2)^3 / (5 N)`` and closes the loop to

    ||Ta||_3 <= C * N^(1/18) * ||F||_3.

The interpolation step is checked as a numerical inequality, not re-proved;
reports label it as checked.  Hidden constants are measured and reported,
never asserted to equal any particular value; only the explicit inequality
directions are asserted.  All slacks are relative: (rhs - lhs) / rhs.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import ConstructionError
from .norms import DEFAULT_REL_TOL, norm_even, norm_quad
from .search import MajorantInstance

EXPONENT_AT_3 = Fraction(1, 18)


@dataclass(frozen=True)
class ChainReport:
    """Measured norms, relative slacks of the four inequalities, and the
    measured constant in the N^(1/18) bound."""

    lam_size: int
    N: int
    sup_coeff: float
    norm_F2: float
    norm_F3: float
    norm_F4: float
    norm_Ta3: float
    slack_interpolation: float
    slack_monotonicity: float
    slack_sup_step: float
    slack_combined: float

    def constant_at(self, N: int) -> float:
        """The measured constant ``C = ||Ta||_3 / (N^(1/18) ||F||_3)``."""
        return self.norm_Ta3 / (N ** (1.0 / 18.0) * self.norm_F3)

    @property
    def implied_constant(self) -> float:
        """The constant against N = max(lam), raised to 1 when lam = {0}."""
        return self.constant_at(max(self.N, 1))

    def slacks(self) -> tuple:
        return (
            self.slack_interpolation,
            self.slack_monotonicity,
            self.slack_sup_step,
            self.slack_combined,
        )

    def to_json(self) -> dict:
        return {
            "lam_size": self.lam_size,
            "N": self.N,
            "sup_coeff": self.sup_coeff,
            "norm_F2": self.norm_F2,
            "norm_F3": self.norm_F3,
            "norm_F4": self.norm_F4,
            "norm_Ta3": self.norm_Ta3,
            "slack_interpolation": self.slack_interpolation,
            "slack_monotonicity": self.slack_monotonicity,
            "slack_sup_step": self.slack_sup_step,
            "slack_combined": self.slack_combined,
            "implied_constant": self.implied_constant,
        }

    CSV_FIELDS = (
        "lam_size",
        "N",
        "sup_coeff",
        "norm_F2",
        "norm_F3",
        "norm_F4",
        "norm_Ta3",
        "slack_interpolation",
        "slack_monotonicity",
        "slack_sup_step",
        "slack_combined",
        "implied_constant",
    )

    def csv_row(self) -> list:
        return [getattr(self, f) for f in self.CSV_FIELDS]


def _relative_slack(lhs: float, rhs: float) -> float:
    return (rhs - lhs) / max(rhs, 1e-300)


def interpolation_check(
    inst: MajorantInstance, rel_tol: float = DEFAULT_REL_TOL
) -> ChainReport:
    """Evaluate both sides of all four chain inequalities for one instance.

    ||F||_2 and ||F||_4 are exact (even-p coefficient algebra); ||F||_3 and
    ||Ta||_3 come from quadrature at ``rel_tol``.  N is taken as max(lam).
    """
    F = inst.denominator_poly()
    Ta = inst.numerator_poly()
    size = len(inst.lam)
    N = max(inst.lam)
    a_inf = inst.sup_coeff()

    f2 = norm_even(F, 2).value
    f4 = norm_even(F, 4).value
    f3 = norm_quad(F, 3.0, rel_tol).value
    ta3 = norm_quad(Ta, 3.0, rel_tol).value if Ta else 0.0

    rhs_interp = a_inf * f2 ** (1.0 / 3.0) * f4 ** (2.0 / 3.0)
    rhs_sup = size**0.25 * f3**0.75
    rhs_combined = a_inf * size ** (1.0 / 6.0) * f3 ** (5.0 / 6.0)

    return ChainReport(
        lam_size=size,
        N=N,
        sup_coeff=a_inf,
        norm_F2=f2,
        norm_F3=f3,
        norm_F4=f4,
        norm_Ta3=ta3,
        slack_interpolation=_relative_slack(ta3, rhs_interp),
        slack_monotonicity=_relative_slack(f2, f3),
        slack_sup_step=_relative_slack(f4, rhs_sup),
        slack_combined=_relative_slack(ta3, rhs_combined),
    )


class PeakBound(NamedTuple):
    measured: float
    predicted: float
    cube_norm_lower: float


def peak_lower_bound(lam, N: int, grid: int) -> PeakBound:
    """Minimum of |F| near theta = 0 against the |Lambda|/2 prediction.

    ``measured`` is the minimum of |F| over a ``grid``-point sweep of
    ``[-1/(10N), 1/(10N)]``; every frequency phase stays within a tenth of a
    turn there, so the measured value must not fall below |Lambda|/2 (it is
    checked and a violation raises).  ``cube_norm_lower`` is the implied
    bound ``||F||_3^3 >= (|Lambda|/2)^3 / (5N)``.
    """
    lam = tuple(sorted({operator.index(n) for n in lam}))
    if not lam:
        raise ValueError("lambda must be nonempty")
    N = operator.index(N)
    grid = operator.index(grid)
    if grid < 1:
        raise ValueError("grid must be >= 1")
    if N < 1:
        raise ValueError("N must be >= 1")
    if lam[0] < 0 or lam[-1] > N:
        raise ValueError("lambda must lie inside {0..N}")

    half = 1.0 / (10.0 * N)
    theta = np.array([0.0]) if grid == 1 else np.linspace(-half, half, grid)
    freqs = np.asarray(lam, dtype=float)
    vals = np.exp(2j * np.pi * np.outer(theta, freqs)).sum(axis=1)
    measured = float(np.min(np.abs(vals)))
    predicted = len(lam) / 2.0
    if measured < predicted:
        raise ConstructionError(
            f"peak bound violated: min |F| = {measured} < {predicted} "
            f"on [-1/(10N), 1/(10N)]"
        )
    cube_lower = predicted**3 / (5.0 * N)
    return PeakBound(measured, predicted, cube_lower)


def upper_exponent(p) -> Union[Fraction, float]:
    """The exponent ``2 (1/p - 1/4)(1 - 2/p)`` valid for 2 <= p <= 4.

    Exact rational arithmetic for int/Fraction input (p = 3 gives exactly
    1/18); floats stay floats.  Vanishes at both endpoints.
    """
    exact = isinstance(p, (int, Fraction)) and not isinstance(p, bool)
    pv = Fraction(p) if exact else float(p)
    if not (2 <= pv <= 4):
        raise ValueError("the interpolation endpoints are p = 2 and p = 4")
    if exact:
        return 2 * (Fraction(1) / pv - Fraction(1, 4)) * (1 - Fraction(2) / pv)
    return 2.0 * (1.0 / pv - 0.25) * (1.0 - 2.0 / pv)


def proposition_check(
    inst: MajorantInstance,
    N: Optional[int] = None,
    rel_tol: float = DEFAULT_REL_TOL,
) -> float:
    """The measured constant ``C = ||Ta||_3 / (N^(1/18) ||F||_3)``.

    Finite and positive for any nonzero coefficient sequence; over the
    digit-product family C stays bounded as k grows, which is the numerical
    face of the tension between the growth exponent and the 1/18 ceiling.
    """
    if N is None:
        N = max(max(inst.lam), 1)
    N = operator.index(N)
    if N < 1:
        raise ValueError("N must be >= 1")
    if max(inst.lam) > N:
        raise ValueError("lambda must lie inside {0..N}")
    return interpolation_check(inst, rel_tol).constant_at(N)
