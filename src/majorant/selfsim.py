"""Self-similar product integrals and certified sandwich bounds.

The driving identity: if r is constant on the D-adic cells
``R_j = [j/D, (j+1)/D)`` then

    integral_0^1 prod_{i<k} r(D^i theta) dtheta = (integral_0^1 r)^k

for every k, because the first k base-D digits of theta pick the cell each
dilate lands in, each digit string owning an interval of length exactly
D^(-k).  The same factorisation holds for real trigonometric polynomials of
degree < D/2 (dissociation of the dilated frequency sets; the constant
coefficient identity actually survives up to degree D - 1, see the tests).

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
from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

from .errors import EnvelopeResolutionError
from .norms import DEFAULT_REL_TOL, norm_quad, starting_grid
from .trigpoly import TrigPoly, product_of_dilates

DEFAULT_SAMPLE_BUDGET = 1 << 24
DEFAULT_ENUMERATION_LIMIT = 1 << 22


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


class SelfSimIntegral(NamedTuple):
    closed_form: float
    direct: float
    enumerated: bool


def step_selfsim_integral(
    r: StepFunction, k: int, enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT
) -> SelfSimIntegral:
    """Both sides of the factorisation identity for a step function.

    ``closed_form`` is ``step_mean(r)^k``.  ``direct`` sums the product of
    cell values over all D^k digit strings, each weighted by its interval
    length D^(-k).  When D^k exceeds ``enumeration_limit`` the direct side
    falls back to the algebraic factorisation of the digit sum and the
    result is flagged with ``enumerated=False``.
    """
    k = operator.index(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    closed = step_mean(r) ** k
    total_cells = r.D**k
    if total_cells <= enumeration_limit:
        vals = r.as_array()
        prods = np.ones(1, dtype=float)
        for _ in range(k):
            prods = (prods[:, None] * vals[None, :]).ravel()
        direct = float(np.sum(prods)) / total_cells
        return SelfSimIntegral(closed, direct, True)
    # sum over strings of prod values[j_i] factors as (sum values)^k
    direct = math.fsum(r.values) ** k / float(total_cells)
    return SelfSimIntegral(closed, direct, False)


def trig_selfsim_check(
    r: TrigPoly, D: int, k: int, *, check_degree: bool = True
) -> Tuple[float, float]:
    """Both sides of the identity for a real trigonometric polynomial.

    lhs: constant coefficient of ``prod_{i<k} r(D^i theta)``; rhs: the
    constant coefficient of r raised to the k.  Equality is exact whenever
    degree(r) < D/2 (the guaranteed regime; callers may disable the degree
    check to probe beyond it).
    """
    D = operator.index(D)
    k = operator.index(k)
    if not r.is_real_valued():
        raise ValueError("r must be real-valued (conjugate-symmetric coefficients)")
    if check_degree and 2 * r.degree >= D:
        raise ValueError(
            f"degree {r.degree} >= D/2 = {D / 2}; the factorisation is not "
            f"guaranteed there (pass check_degree=False to probe anyway)"
        )
    g = product_of_dilates(r, D, k)
    lhs = g.coefficient(0).real
    rhs = r.coefficient(0).real ** k
    return (float(lhs), float(rhs))


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
    return alpha * l1 ** (alpha - 1.0) * 2.0 * math.pi * P.weighted_l1()


def _sampled_powers(P: TrigPoly, alpha: float, total: int) -> np.ndarray:
    vals = P.sample_uniform(total, shift=0.5)
    sq = vals.real * vals.real + vals.imag * vals.imag
    return sq ** (0.5 * alpha)


def step_envelopes(
    P: TrigPoly,
    alpha: float,
    D: int,
    delta: float,
    *,
    max_samples: int = DEFAULT_SAMPLE_BUDGET,
) -> EnvelopePair:
    """Certified step-function envelopes ``rminus <= |P|^alpha <= rplus``.

    Midpoint samples per cell plus the Lipschitz radius correction give
    pointwise-valid envelopes; the number of samples is chosen so the
    correction is at most delta/4.  The achieved cell widths (dominated by
    how much |P|^alpha genuinely moves inside a cell, roughly its total
    variation divided by D) are reported in the result.

    Raises :class:`EnvelopeResolutionError` when the sample budget cannot
    push the correction below delta/4 at this D; the error advises the cell
    count at which the Lipschitz bound certifies width <= delta outright.
    """
    D = operator.index(D)
    if D < 1:
        raise ValueError("cell count D must be >= 1")
    if alpha < 1:
        raise ValueError(
            "certified envelopes need alpha >= 1 (the derivative bound "
            "degenerates below 1); use sample_envelopes for a best-effort pass"
        )
    if delta <= 0:
        raise ValueError("delta must be positive")

    L = lipschitz_bound(P, alpha)
    if L == 0.0:
        S = 1
    else:
        S = max(4, math.ceil(2.0 * L / (D * delta)))
    if D * S > max_samples:
        min_cells = math.ceil(2.0 * L / delta)
        raise EnvelopeResolutionError(
            f"achieving correction delta/4 = {delta / 4} at D={D} needs "
            f"{D * S} samples (> budget {max_samples}); at D >= {min_cells} "
            f"the Lipschitz bound certifies envelope width <= delta directly",
            min_cells=min_cells,
            required_samples=D * S,
        )

    powers = _sampled_powers(P, alpha, D * S).reshape(D, S)
    corr = L / (2.0 * D * S)
    upper = powers.max(axis=1) + corr
    lower = np.maximum(0.0, powers.min(axis=1) - corr)
    mean_gap = float(np.mean(upper) - np.mean(lower))
    max_gap = float(np.max(upper - lower))
    return EnvelopePair(
        rminus=StepFunction(D, tuple(float(v) for v in lower)),
        rplus=StepFunction(D, tuple(float(v) for v in upper)),
        correction=corr,
        mean_gap=mean_gap,
        max_gap=max_gap,
        lipschitz=L,
        samples_per_cell=S,
        certified=True,
    )


def sample_envelopes(
    P: TrigPoly, alpha: float, D: int, samples_per_cell: int = 64
) -> EnvelopePair:
    """Best-effort envelopes from raw cell extrema, no Lipschitz correction.

    Works for any alpha > 0 but carries no pointwise guarantee; results are
    flagged ``certified=False`` and should be labelled as such downstream.
    """
    D = operator.index(D)
    S = operator.index(samples_per_cell)
    if D < 1 or S < 1:
        raise ValueError("cell count and samples per cell must be >= 1")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    powers = _sampled_powers(P, alpha, D * S).reshape(D, S)
    upper = powers.max(axis=1)
    lower = powers.min(axis=1)
    return EnvelopePair(
        rminus=StepFunction(D, tuple(float(v) for v in lower)),
        rplus=StepFunction(D, tuple(float(v) for v in upper)),
        correction=0.0,
        mean_gap=float(np.mean(upper) - np.mean(lower)),
        max_gap=float(np.max(upper - lower)),
        lipschitz=float("nan"),
        samples_per_cell=S,
        certified=False,
    )


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
    k: int
    delta: float
    lower: float
    upper: float
    target: float
    envelope_gap: float
    certified: bool = True

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "D": self.D,
            "k": self.k,
            "delta": self.delta,
            "lower": self.lower,
            "upper": self.upper,
            "target": self.target,
            "envelope_gap": self.envelope_gap,
            "certified": self.certified,
        }


def sandwich_bounds(
    P: TrigPoly,
    alpha: float,
    D: int,
    delta: float,
    k: int = 1,
    rel_tol: float = DEFAULT_REL_TOL,
    *,
    best_effort: bool = False,
) -> SandwichResult:
    """Sandwich the normalised product norm between step-function means.

    With envelopes ``rminus <= |P|^alpha <= rplus`` constant on D-adic
    cells, the factorisation identity gives

        mean(rminus)^k <= ||prod_{i<k} P(D^i .)||_alpha^alpha <= mean(rplus)^k,

    so ``lower = mean(rminus)^(1/alpha)`` and ``upper = mean(rplus)^(1/alpha)``
    bound the k-th root of the product norm independently of k.  ``k`` is
    recorded for reporting only.
    """
    k = operator.index(k)
    if k < 1:
        raise ValueError("k must be >= 1")
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
        m = starting_grid(P.degree)
        vals = P.sample_uniform(m)
        sq = vals.real * vals.real + vals.imag * vals.imag
        target = (float(np.sum(sq ** (0.5 * alpha))) / m) ** (1.0 / alpha)
    return SandwichResult(
        alpha=float(alpha),
        D=D,
        k=k,
        delta=float(delta),
        lower=lower,
        upper=upper,
        target=target,
        envelope_gap=env.mean_gap,
        certified=env.certified,
    )
