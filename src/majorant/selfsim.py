"""Certified sandwich bounds for products of dilates, from step functions.

The driving identity: if r is constant on the D-adic cells
``R_j = [j/D, (j+1)/D)`` then

    integral_0^1 prod_{i<k} r(D^i theta) dtheta = (integral_0^1 r)^k

for every k, because the first k base-D digits of theta pick the cell each
dilate lands in, each digit string owning an interval of length exactly
D^(-k).  (The tests check both sides of it by enumerating digit strings,
and its analogue for real trigonometric polynomials of degree < D/2 by
exact coefficient algebra.)

Sandwiching ``|P|^alpha`` between two such step functions turns the
identity into two-sided bounds on ``||prod_i P(D^i .)||_alpha^(1/k)`` that
hold for every k simultaneously.  The envelopes are certified pointwise via
the derivative bound

    |(|P|^alpha)'| <= alpha * (sum|c_n|)^(alpha-1) * 2 pi * sum|n c_n|,

valid for alpha >= 1: midpoint samples at spacing h cover each cell with
radius h/2, so cell max + L*h/2 dominates the true sup and cell min - L*h/2
minorises the true inf.  ``delta`` controls the sampling correction (kept
<= delta/4); the achieved envelope widths depend on how much |P|^alpha
oscillates inside a cell and are reported as outputs, not promised inputs.
"""
from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass
from typing import NamedTuple, Tuple

import numpy as np

from .errors import EnvelopeResolutionError, MajorantError
from .norms import DEFAULT_REL_TOL, _abs_power, _grid_norm, norm_quad, starting_grid
from .trigpoly import TrigPoly

SAMPLE_BUDGET = 1 << 24
BEST_EFFORT_SAMPLES = 64


@dataclass(frozen=True)
class StepFunction:
    """A nonnegative function constant on each of D equal cells of [0, 1)."""

    D: int
    values: Tuple[float, ...]

    def __post_init__(self):
        if self.D < 1:
            raise ValueError("cell count D must be >= 1")
        if len(self.values) != self.D:
            raise ValueError(f"expected {self.D} cell values, got {len(self.values)}")
        if any(v < 0 for v in self.values):
            raise ValueError("cell values must be nonnegative")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


def step_mean(r: StepFunction) -> float:
    """The exact integral: the mean of the cell values."""
    return math.fsum(r.values) / r.D


class EnvelopePair(NamedTuple):
    rminus: StepFunction
    rplus: StepFunction
    correction: float  # Lipschitz sampling radius added/subtracted per cell
    mean_gap: float  # mean(rplus) - mean(rminus), the achieved width
    max_gap: float  # worst single-cell width
    lipschitz: float  # derivative bound used for the certificate
    samples_per_cell: int
    certified: bool


def lipschitz_bound(P: TrigPoly, alpha: float) -> float:
    """Upper bound for the derivative of |P|^alpha, alpha >= 1."""
    if alpha < 1:
        raise ValueError("the derivative bound needs alpha >= 1")
    l1 = P.coefficient_l1()
    if l1 == 0.0:
        return 0.0
    try:
        bound = alpha * l1 ** (alpha - 1.0) * 2.0 * math.pi * P.weighted_l1()
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise MajorantError(
            f"the derivative bound of |P|^alpha leaves the double range at alpha={alpha}"
        )
    return bound


def _check_positive(**values: float) -> None:
    for name, value in values.items():
        # the negated comparison is False for NaN, so NaN fails it too
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be a finite positive number, got {value}")


def _envelopes(
    P: TrigPoly, alpha: float, D: int, S: int, lipschitz: float, certified: bool
) -> EnvelopePair:
    """Per-cell extrema of ``|P|^alpha`` over S midpoint samples per cell;
    certified envelopes widen them by the sampling radius ``L / (2 D S)``."""
    powers = _abs_power(P.sample_uniform(D * S, shift=0.5), alpha).reshape(D, S)
    if not np.isfinite(powers).all():
        raise MajorantError(
            f"the sampled |P|^alpha of the envelopes is not finite at alpha={alpha}"
        )
    corr = lipschitz / (2.0 * D * S) if certified else 0.0
    upper = powers.max(axis=1) + corr
    lower = np.maximum(0.0, powers.min(axis=1) - corr)
    return EnvelopePair(
        rminus=StepFunction(D, tuple(float(v) for v in lower)),
        rplus=StepFunction(D, tuple(float(v) for v in upper)),
        correction=corr,
        mean_gap=float(np.mean(upper) - np.mean(lower)),
        max_gap=float(np.max(upper - lower)),
        lipschitz=lipschitz,
        samples_per_cell=S,
        certified=certified,
    )


def step_envelopes(P: TrigPoly, alpha: float, D: int, delta: float) -> EnvelopePair:
    """Certified step-function envelopes ``rminus <= |P|^alpha <= rplus``.

    Midpoint samples per cell plus the Lipschitz radius correction give
    pointwise-valid envelopes; the number of samples is chosen so the
    correction is at most delta/4.  The achieved cell widths (dominated by
    how much |P|^alpha genuinely moves inside a cell, roughly its total
    variation divided by D) are reported in the result.

    Raises :class:`EnvelopeResolutionError` when ``SAMPLE_BUDGET`` cannot
    push the correction below delta/4 at this D; the error advises the cell
    count at which the Lipschitz bound certifies width <= delta outright.
    """
    D = operator.index(D)
    if D < 1:
        raise ValueError("cell count D must be >= 1")
    _check_positive(alpha=alpha, delta=delta)
    if alpha < 1:
        raise ValueError(
            "certified envelopes need alpha >= 1 (the derivative bound "
            "degenerates below 1); use sample_envelopes for a best-effort pass"
        )

    L = lipschitz_bound(P, alpha)
    if L == 0.0:
        S = 1
    else:
        S = max(4, math.ceil(2.0 * L / (D * delta)))
    if D * S > SAMPLE_BUDGET:
        min_cells = math.ceil(2.0 * L / delta)
        raise EnvelopeResolutionError(
            f"achieving correction delta/4 = {delta / 4} at D={D} needs "
            f"{D * S} samples (> budget {SAMPLE_BUDGET}); at D >= {min_cells} "
            f"the Lipschitz bound certifies envelope width <= delta directly",
            min_cells=min_cells,
            required_samples=D * S,
        )
    return _envelopes(P, alpha, D, S, L, certified=True)


def sample_envelopes(P: TrigPoly, alpha: float, D: int) -> EnvelopePair:
    """Best-effort envelopes from the extrema of ``BEST_EFFORT_SAMPLES``
    samples per cell, no Lipschitz correction.

    Works for any alpha > 0 but carries no pointwise guarantee; results are
    flagged ``certified=False`` and should be labelled as such downstream.
    """
    D = operator.index(D)
    if D < 1:
        raise ValueError("cell count D must be >= 1")
    _check_positive(alpha=alpha)
    return _envelopes(P, alpha, D, BEST_EFFORT_SAMPLES, float("nan"), certified=False)


@dataclass(frozen=True)
class SandwichResult:
    """Two-sided bounds on ``||prod_{i<k} P(D^i .)||_alpha^(1/k)``.

    ``lower`` and ``upper`` are ``mean(envelope)^(1/alpha)`` and bound the
    normalised norm for every k at once; ``target`` is the k = 1 norm by
    quadrature, so ``lower <= target <= upper`` whenever the envelopes are
    valid.  ``envelope_gap`` is the achieved mean envelope width (the
    epsilon this resolution actually delivers, reported rather than
    promised).
    """

    alpha: float
    D: int
    delta: float
    lower: float
    upper: float
    target: float
    envelope_gap: float
    certified: bool = True

    def to_json(self) -> dict:
        return asdict(self)


def sandwich_bounds(
    P: TrigPoly,
    alpha: float,
    D: int,
    delta: float,
    rel_tol: float = DEFAULT_REL_TOL,
    *,
    best_effort: bool = False,
) -> SandwichResult:
    """Sandwich the normalised product norm between step-function means.

    With envelopes ``rminus <= |P|^alpha <= rplus`` constant on D-adic
    cells, the factorisation identity gives

        mean(rminus)^k <= ||prod_{i<k} P(D^i .)||_alpha^alpha <= mean(rplus)^k,

    so ``lower = mean(rminus)^(1/alpha)`` and ``upper = mean(rplus)^(1/alpha)``
    bound the k-th root of the product norm independently of k.
    """
    _check_positive(delta=delta)
    if best_effort:
        env = sample_envelopes(P, alpha, D)
    else:
        env = step_envelopes(P, alpha, D, delta)
    lower = step_mean(env.rminus) ** (1.0 / alpha)
    upper = step_mean(env.rplus) ** (1.0 / alpha)
    if alpha >= 1:
        target = norm_quad(P, alpha, rel_tol).value
    else:
        # quasi-norm territory: a plain fine-grid estimate, uncertified like
        # everything else in the best-effort path
        target = _grid_norm(P, alpha, starting_grid(P.degree))
    return SandwichResult(
        alpha=float(alpha),
        D=D,
        delta=float(delta),
        lower=lower,
        upper=upper,
        target=target,
        envelope_gap=env.mean_gap,
        certified=env.certified,
    )
