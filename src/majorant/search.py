"""Lower bounds for the majorant constant by coefficient search.

For a frequency set Lambda the majorant constant is the largest value of

    ||sum_n a_n e(n theta)||_p / ||sum_n e(n theta)||_p

over coefficient sequences with |a_n| <= 1.  The norm is convex in each
coefficient, so the supremum is attained at unimodular coefficients and a
search over signs, roots of unity, or free phases is exhaustive in
principle.  A global phase is fixed by pinning the first coefficient to 1,
which halves (or q-ths) the space and makes reports canonical.

Ranking in the enumerative searches runs on a shared evaluation grid, sized
by converging the all-ones denominator first (and, for even p, large enough
that the grid mean integrates |P|^p exactly); the winning pattern is then
re-scored with fully adaptive quadrature.  Tie-breaking picks the
lexicographically smallest pattern (+1 before -1, lower root index first)
among candidates within the tolerance of the maximum, so results are
deterministic and thread-count independent.

The scan scores patterns in chunks of consecutive codes, in one pass that
keeps only each chunk's maximum.  The earliest qualifying pattern lies in
the first chunk whose maximum reaches the tolerance floor, so that single
chunk is scored again to find it: at most one chunk more than the number
of patterns is scored.
"""
from __future__ import annotations

import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Tuple

import numpy as np

from .errors import SearchBudgetError
from .norms import DEFAULT_REL_TOL, is_even_integer, norm, norm_quad
from .trigpoly import TrigPoly, make

DEFAULT_BUDGET = 1 << 24
_MODULUS_SLACK = 1e-12
_CHUNK = 1 << 12
_MAX_SWEEPS = 50

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class MajorantInstance:
    """A frequency set with a coefficient sequence of moduli <= 1."""

    lam: Tuple[int, ...]
    coeffs: Mapping[int, complex]

    def __post_init__(self):
        lam = tuple(operator.index(n) for n in self.lam)
        if not lam:
            raise ValueError("lambda must be nonempty")
        if any(n < 0 for n in lam):
            raise ValueError("frequencies must be nonnegative")
        if len(set(lam)) != len(lam) or tuple(sorted(lam)) != lam:
            raise ValueError("lambda must be sorted and distinct")
        coeffs = {operator.index(n): complex(c) for n, c in self.coeffs.items()}
        if not set(coeffs) <= set(lam):
            raise ValueError("coefficient support must lie inside lambda")
        for n, c in coeffs.items():
            if abs(c) > 1.0 + _MODULUS_SLACK:
                raise ValueError(f"|coefficient| at {n} is {abs(c)} > 1")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def all_ones(cls, lam: Iterable[int]) -> "MajorantInstance":
        lam = tuple(sorted({operator.index(n) for n in lam}))
        return cls(lam, {n: 1.0 for n in lam})

    @classmethod
    def from_vector(
        cls, lam: Sequence[int], vector: Sequence[complex]
    ) -> "MajorantInstance":
        lam = tuple(lam)
        if len(vector) != len(lam):
            raise ValueError("coefficient vector length must match lambda")
        return cls(lam, dict(zip(lam, (complex(v) for v in vector))))

    def vector(self) -> Tuple[complex, ...]:
        """Coefficients aligned with the sorted frequency list (0 if absent)."""
        return tuple(self.coeffs.get(n, 0j) for n in self.lam)

    def numerator_poly(self) -> TrigPoly:
        return make(self.coeffs.items())

    def denominator_poly(self) -> TrigPoly:
        return make((n, 1.0) for n in self.lam)

    def sup_coeff(self) -> float:
        if not self.coeffs:
            return 0.0
        return max(abs(c) for c in self.coeffs.values())

    def to_json(self) -> dict:
        return {
            "lambda": list(self.lam),
            "coeffs": [[n, c.real, c.imag] for n, c in sorted(self.coeffs.items())],
        }


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a coefficient search over one frequency set."""

    lam: Tuple[int, ...]
    best_coeffs: Tuple[complex, ...]
    best_ratio: float
    p: float
    method: str  # "exhaustive-signs" | "exhaustive-roots" | "phase-ascent"
    evaluations: int
    tolerance: float

    def best_instance(self) -> MajorantInstance:
        return MajorantInstance.from_vector(self.lam, self.best_coeffs)

    def to_json(self) -> dict:
        return {
            "lambda": list(self.lam),
            "best_coeffs": [[c.real, c.imag] for c in self.best_coeffs],
            "best_ratio": self.best_ratio,
            "p": self.p,
            "method": self.method,
            "evaluations": self.evaluations,
            "tolerance": self.tolerance,
        }


def majorant_ratio(inst: MajorantInstance, p: float, rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Norm ratio of the instance against the all-ones sum on its set."""
    num = inst.numerator_poly()
    if not num:
        return 0.0
    return norm(num, p, rel_tol).value / norm(inst.denominator_poly(), p, rel_tol).value


# -- shared-grid scan machinery ---------------------------------------------


class _Scanner:
    """Precomputed e(n theta) rows on one grid, shared across an enumeration."""

    def __init__(self, lam: Tuple[int, ...], p: float, rel_tol: float):
        den = MajorantInstance.all_ones(lam).denominator_poly()
        est = norm_quad(den, p, rel_tol)
        m = est.grid_size
        if is_even_integer(p):
            # grid mean integrates |P|^p exactly once m > p * degree
            m = max(m, int(p) * max(lam) + 1)
        theta = np.arange(m) / m
        self.p = p
        self.rows = np.exp(1j * _TWO_PI * np.outer(np.asarray(lam, float), theta))
        self.den_moment = self._moment(self.rows.sum(axis=0))

    def _moment(self, vals: np.ndarray) -> np.ndarray:
        sq = vals.real**2 + vals.imag**2
        return np.mean(sq ** (0.5 * self.p), axis=-1)

    def value_ratios(self, vals: np.ndarray) -> np.ndarray:
        """Grid norm ratios, against the all-ones sum, of values sampled on
        the grid (grid points on the last axis)."""
        return (self._moment(vals) / self.den_moment) ** (1.0 / self.p)

    def ratios(self, coeff_rows: np.ndarray) -> np.ndarray:
        """Grid norm ratios for a batch of coefficient vectors."""
        return self.value_ratios(coeff_rows @ self.rows)


def _codes_to_roots(codes: np.ndarray, t: int, q: int) -> np.ndarray:
    # most significant digit first, so ascending code order is lexicographic
    # with lower root indices (+1 before -1 at q = 2) sorting first
    powers = q ** np.arange(t - 2, -1, -1, dtype=np.int64)
    digits = (codes[:, None] // powers[None, :]) % q
    roots = np.exp(1j * _TWO_PI * np.arange(q) / q)
    # snap components to exact 0 so q = 2 gives exact signs
    roots.real[np.abs(roots.real) < 1e-15] = 0.0
    roots.imag[np.abs(roots.imag) < 1e-15] = 0.0
    out = np.ones((codes.shape[0], t), dtype=complex)
    out[:, 1:] = roots[digits]
    return out


def _scan_codes(
    scanner: _Scanner,
    n_patterns: int,
    decode,
    rel_tol: float,
    threads: int,
) -> Tuple[int, float]:
    """Best code on the shared grid; ties go to the smallest code.

    One pass records each chunk's maximum; only the first chunk whose
    maximum reaches the floor ``best * (1 - rel_tol)`` holds the earliest
    qualifying code, so only it is scored again.  Chunks are scored
    independently, so the result does not depend on ``threads``.
    """
    starts = range(0, n_patterns, _CHUNK)

    def chunk(s: int) -> Tuple[np.ndarray, np.ndarray]:
        codes = np.arange(s, min(s + _CHUNK, n_patterns), dtype=np.int64)
        return codes, scanner.ratios(decode(codes))

    with ThreadPoolExecutor(max_workers=threads) as pool:
        maxima = list(pool.map(lambda s: float(np.max(chunk(s)[1])), starts))
    best = max(maxima)
    floor = best * (1.0 - rel_tol)
    first = next(s for s, top in zip(starts, maxima) if top >= floor)
    codes, ratios = chunk(first)
    return int(codes[np.argmax(ratios >= floor)]), best


def _exhaustive(
    lam: Iterable[int],
    p: float,
    q: int,
    method: str,
    rel_tol: float,
    budget: int,
    threads: int,
) -> SearchReport:
    """Enumerate coefficients over q-th roots of unity, first pinned to 1.

    q^(|lambda|-1) grid evaluations; raises :class:`SearchBudgetError` with
    a pointer at :func:`phase_ascent` when that exceeds the budget.
    """
    lam = tuple(sorted({operator.index(n) for n in lam}))
    if not lam:
        raise ValueError("lambda must be nonempty")
    q = operator.index(q)
    if q < 2:
        raise ValueError("root order q must be >= 2")
    t = len(lam)
    n_patterns = q ** (t - 1)
    if n_patterns > budget:
        raise SearchBudgetError(
            f"{n_patterns} coefficient patterns exceed the budget of {budget} "
            f"evaluations; consider phase_ascent for sets this large",
            required=n_patterns,
            budget=budget,
        )
    scanner = _Scanner(lam, p, rel_tol)
    decode = lambda codes: _codes_to_roots(codes, t, q)  # noqa: E731
    best_code, _ = _scan_codes(scanner, n_patterns, decode, rel_tol, threads)
    pattern = decode(np.asarray([best_code], dtype=np.int64))[0]
    inst = MajorantInstance.from_vector(lam, pattern)
    return SearchReport(
        lam=lam,
        best_coeffs=tuple(complex(v) for v in pattern),
        best_ratio=majorant_ratio(inst, p, rel_tol),
        p=float(p),
        method=method,
        evaluations=n_patterns + 2,
        tolerance=rel_tol,
    )


def exhaustive_signs(
    lam: Iterable[int],
    p: float,
    rel_tol: float = DEFAULT_REL_TOL,
    *,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> SearchReport:
    """Enumerate all sign patterns with the first coefficient pinned to +1:
    :func:`exhaustive_roots` at q = 2."""
    return _exhaustive(lam, p, 2, "exhaustive-signs", rel_tol, budget, threads)


def exhaustive_roots(
    lam: Iterable[int],
    p: float,
    q: int,
    rel_tol: float = DEFAULT_REL_TOL,
    *,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> SearchReport:
    """Enumerate coefficients over q-th roots of unity, first pinned to 1."""
    return _exhaustive(lam, p, q, "exhaustive-roots", rel_tol, budget, threads)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo: float, hi: float, iterations: int = 40) -> float:
    """Golden-section maximiser on [lo, hi]; returns the argmax."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iterations):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def phase_ascent(
    lam: Iterable[int],
    p: float,
    restarts: int = 8,
    seed: int = 0,
    rel_tol: float = DEFAULT_REL_TOL,
    *,
    extra_starts: Sequence[Mapping[int, complex]] = (),
) -> SearchReport:
    """Coordinate-wise phase optimisation over unimodular coefficients.

    Each coordinate's phase is optimised on its 1-D slice (coarse scan, then
    golden-section refinement); sweeps repeat until no coordinate improves
    the ratio by more than ``rel_tol``.  The all-ones vector is always the
    first start, so the returned ratio is never below 1 - rel_tol; the
    remaining ``restarts - 1`` starts are seeded random phase vectors, plus
    any ``extra_starts`` (coefficient maps, e.g. digit signs).  Deterministic
    for a fixed seed.
    """
    lam = tuple(sorted({operator.index(n) for n in lam}))
    if not lam:
        raise ValueError("lambda must be nonempty")
    restarts = max(1, operator.index(restarts))
    t = len(lam)
    rng = np.random.default_rng(seed)
    scanner = _Scanner(lam, p, rel_tol)
    rows = scanner.rows
    evaluations = 0

    def ratio_of(vec: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        return float(scanner.ratios(vec))

    starts = [np.ones(t, dtype=complex)]
    for extra in extra_starts:
        vec = np.asarray([complex(extra.get(n, 0.0)) for n in lam])
        starts.append(vec)
    for _ in range(restarts - 1):
        phases = rng.random(t)
        phases[0] = 0.0  # global phase pinned
        starts.append(np.exp(1j * _TWO_PI * phases))

    coarse = np.arange(12) / 12.0
    best_vec = starts[0].copy()
    best_ratio = ratio_of(best_vec)

    for start in starts:
        vec = start.astype(complex).copy()
        current = ratio_of(vec)
        for _ in range(_MAX_SWEEPS):
            improved = current
            for i in range(1, t):
                vals_wo = (vec @ rows) - vec[i] * rows[i]

                def slice_ratio(phi: float) -> float:
                    nonlocal evaluations
                    evaluations += 1
                    v = vals_wo + np.exp(1j * _TWO_PI * phi) * rows[i]
                    return float(scanner.value_ratios(v))

                scores = [slice_ratio(phi) for phi in coarse]
                j = int(np.argmax(scores))
                phi = _golden_max(
                    slice_ratio, coarse[j] - 1.0 / 12.0, coarse[j] + 1.0 / 12.0
                )
                candidate = slice_ratio(phi)
                if candidate > current:
                    vec[i] = np.exp(1j * _TWO_PI * phi)
                    current = candidate
            if current - improved <= rel_tol * max(1.0, current):
                break
        if current > best_ratio:
            best_ratio = current
            best_vec = vec.copy()

    inst = MajorantInstance.from_vector(lam, best_vec)
    return SearchReport(
        lam=lam,
        best_coeffs=tuple(complex(v) for v in best_vec),
        best_ratio=majorant_ratio(inst, p, rel_tol),
        p=float(p),
        method="phase-ascent",
        evaluations=evaluations,
        tolerance=rel_tol,
    )
