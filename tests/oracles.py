"""Independent oracles the tests check the package against.

Direct-sum evaluation of a polynomial, the coefficient form of a product
of dilates, the four slacks of a chain report, and both sides of the
self-similar factorisation identity behind :mod:`majorant.selfsim`: for a
step function by enumerating every digit string, and for a real
trigonometric polynomial by exact coefficient algebra on the product of
its dilates.
"""
from __future__ import annotations

import math
import operator
from typing import NamedTuple, Tuple

import numpy as np

from majorant import StepFunction, TrigPoly, product_of_dilates, step_mean

ENUMERATION_LIMIT = 1 << 22


def evaluate(P: TrigPoly, theta):
    """``sum_n c_n e(n*theta)`` at a scalar or an array of points, one
    exponential per term with the phase reduced mod 1."""
    th = np.asarray(theta, dtype=float)
    out = np.zeros(th.shape, dtype=complex)
    for n, c in P.terms.items():
        out += c * np.exp(2j * np.pi * ((n * th) % 1.0))
    return complex(out) if th.shape == () else out


def expand(g) -> TrigPoly:
    """The coefficient form of a ``DilatedProduct``."""
    return product_of_dilates(g.base, g.D, g.k)


def chain_slacks(report) -> Tuple[float, float, float, float]:
    """The relative slacks of the four inequalities of a ``ChainReport``."""
    return (
        report.slack_interpolation,
        report.slack_monotonicity,
        report.slack_sup_step,
        report.slack_combined,
    )


def is_real_valued(P: TrigPoly) -> bool:
    """True when coefficients are conjugate-symmetric (c_{-n} == conj c_n)."""
    return all(P.coefficient(-n) == c.conjugate() for n, c in P.terms.items())


class SelfSimIntegral(NamedTuple):
    closed_form: float
    direct: float
    enumerated: bool


def step_selfsim_integral(r: StepFunction, k: int) -> SelfSimIntegral:
    """Both sides of the factorisation identity for a step function.

    ``closed_form`` is ``step_mean(r)^k``.  ``direct`` sums the product of
    cell values over all D^k digit strings, each weighted by its interval
    length D^(-k).  When D^k exceeds ``ENUMERATION_LIMIT`` the direct side
    falls back to the algebraic factorisation of the digit sum and the
    result is flagged with ``enumerated=False``.
    """
    k = operator.index(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    closed = step_mean(r) ** k
    total_cells = r.D**k
    if total_cells <= ENUMERATION_LIMIT:
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
    if not is_real_valued(r):
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
