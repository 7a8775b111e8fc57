"""Sparse trigonometric polynomials with signed integer frequencies.

Convention used everywhere in this package: ``e(theta) = exp(2*pi*i*theta)``
and integrals run over one period ``[0, 1)``.  A polynomial is a finite sum
``sum_n c_n e(n*theta)`` stored as a frequency -> coefficient map.

Values are immutable after construction and every operation is a pure
function, so polynomials can be shared freely between threads.
"""
from __future__ import annotations

import operator
from types import MappingProxyType
from typing import Iterable, Tuple

import numpy as np

from .errors import FrequencyOverflowError

# Frequencies must stay inside the signed 64-bit range; overflow fails loudly
# instead of wrapping.
MAX_FREQUENCY = 2**63 - 1

_TWO_PI = 2.0 * np.pi


class TrigPoly:
    """An immutable sparse trigonometric polynomial in canonical form.

    Canonical form: no stored coefficient is exactly zero, frequencies are
    distinct, and the term map iterates in increasing frequency order.  The
    fixed iteration order keeps every floating-point reduction downstream
    deterministic.

    Build instances through :func:`make`; the constructor trusts its input.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict):
        object.__setattr__(self, "_terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("TrigPoly is immutable")

    # -- inspection ---------------------------------------------------------

    @property
    def terms(self):
        """Read-only frequency -> coefficient view, ascending frequency."""
        return MappingProxyType(self._terms)

    @property
    def degree(self) -> int:
        """max |frequency| over stored terms; 0 for the empty polynomial."""
        if not self._terms:
            return 0
        return max(abs(n) for n in self._terms)

    def coefficient(self, n: int) -> complex:
        return self._terms.get(n, 0j)

    def coefficient_l1(self) -> float:
        """sum |c_n|, an upper bound for the sup norm."""
        return float(sum(abs(c) for c in self._terms.values()))

    def weighted_l1(self) -> float:
        """sum |n| * |c_n|, which bounds the derivative by 2*pi times this."""
        return float(sum(abs(n) * abs(c) for n, c in self._terms.items()))

    def is_real_valued(self) -> bool:
        """True when coefficients are conjugate-symmetric (c_{-n} == conj c_n)."""
        return all(
            self._terms.get(-n) == c.conjugate() for n, c in self._terms.items()
        )

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(self._terms.items()))

    def __repr__(self) -> str:
        if not self._terms:
            return "TrigPoly(0)"
        bits = ", ".join(f"{n}: {c}" for n, c in self._terms.items())
        return f"TrigPoly({{{bits}}})"

    # -- evaluation ---------------------------------------------------------

    def eval(self, theta):
        """Evaluate at a scalar or array of points on the torus.

        Returns ``sum_n c_n e(n*theta)`` with ``e(t) = exp(2*pi*i*t)``.
        """
        th = np.asarray(theta, dtype=float)
        out = np.zeros(th.shape, dtype=complex)
        for n, c in self._terms.items():
            out += c * np.exp(1j * _TWO_PI * ((n * th) % 1.0))
        if np.isscalar(theta) or th.shape == ():
            return complex(out)
        return out

    def sample_uniform(self, m: int, shift: float = 0.0) -> np.ndarray:
        """Values ``P((j + shift)/m)`` for ``j = 0..m-1``.

        Uses the exact fold ``e(n*j/m) = e((n mod m)*j/m)`` and a single FFT,
        so the cost is independent of the polynomial's degree.  This is the
        evaluation path every quadrature in the package relies on.
        """
        if m < 1:
            raise ValueError("grid size must be >= 1")
        spec = np.zeros(m, dtype=complex)
        for n, c in self._terms.items():
            w = c if shift == 0.0 else c * np.exp(1j * _TWO_PI * ((n * shift / m) % 1.0))
            spec[n % m] += w
        return np.fft.ifft(spec) * m

    # -- algebra ------------------------------------------------------------

    def conj(self) -> "TrigPoly":
        """Complex conjugate: c_n e(n.) -> conj(c_n) e(-n.)."""
        return make((-n, c.conjugate()) for n, c in self._terms.items())

    def dilate(self, D: int) -> "TrigPoly":
        """Substitute theta -> D*theta, multiplying every frequency by D."""
        D = operator.index(D)
        if D < 1:
            raise ValueError("dilation factor must be >= 1")
        if self._terms and self.degree * D > MAX_FREQUENCY:
            raise FrequencyOverflowError(
                f"dilation by {D} pushes degree {self.degree} past 64-bit range"
            )
        return make((n * D, c) for n, c in self._terms.items())

    def __mul__(self, other) -> "TrigPoly":
        if not isinstance(other, TrigPoly):
            return NotImplemented
        acc: dict = {}
        for n1, c1 in self._terms.items():
            for n2, c2 in other._terms.items():
                n = n1 + n2
                acc[n] = acc.get(n, 0j) + c1 * c2
        return make(acc.items())

    def __add__(self, other) -> "TrigPoly":
        if not isinstance(other, TrigPoly):
            return NotImplemented
        acc = dict(self._terms)
        for n, c in other._terms.items():
            acc[n] = acc.get(n, 0j) + c
        return make(acc.items())

    def __sub__(self, other) -> "TrigPoly":
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "TrigPoly":
        return make((n, -c) for n, c in self._terms.items())

    # -- serialization ------------------------------------------------------

    def to_triples(self) -> list:
        """JSON-friendly form: sorted list of [frequency, re, im]."""
        return [[n, c.real, c.imag] for n, c in self._terms.items()]

    @staticmethod
    def from_triples(triples: Iterable) -> "TrigPoly":
        return make((int(t[0]), complex(float(t[1]), float(t[2]))) for t in triples)


def make(pairs: Iterable[Tuple[int, complex]], drop_tol: float = 0.0) -> TrigPoly:
    """Build a canonical polynomial from (frequency, coefficient) pairs.

    Duplicate frequencies are summed.  Coefficients equal to exact zero are
    dropped; with ``drop_tol > 0`` coefficients of modulus <= drop_tol are
    dropped too.  The default of 0 never alters inexact data silently.
    """
    acc: dict = {}
    for n, c in pairs:
        n = operator.index(n)
        if abs(n) > MAX_FREQUENCY:
            raise FrequencyOverflowError(f"frequency {n} outside 64-bit range")
        acc[n] = acc.get(n, 0j) + complex(c)
    terms = {}
    for n in sorted(acc):
        c = acc[n]
        if c == 0 or (drop_tol > 0.0 and abs(c) <= drop_tol):
            continue
        terms[n] = c
    return TrigPoly(terms)


def _dilate_span(degree: int, D: int, k: int) -> int:
    # Largest |frequency| the product of k dilates can reach.
    return degree * ((D**k - 1) // (D - 1))


def product_of_dilates(P: TrigPoly, D: int, k: int) -> TrigPoly:
    """Exact coefficient form of ``prod_{i<k} P(D^i * theta)``.

    Frequencies grow like degree(P) * D^(k-1); the span is checked against
    the 64-bit range up front and the call fails loudly rather than wrapping.
    """
    D = operator.index(D)
    k = operator.index(k)
    if D < 2:
        raise ValueError("dilation base D must be >= 2")
    if k < 1:
        raise ValueError("number of factors k must be >= 1")
    if P and _dilate_span(P.degree, D, k) > MAX_FREQUENCY:
        raise FrequencyOverflowError(
            f"product of {k} dilates of degree {P.degree} at base {D} "
            f"exceeds the 64-bit frequency range"
        )
    out = P
    for i in range(1, k):
        out = out * P.dilate(D**i)
    return out


class DilatedProduct:
    """Lazy view of ``prod_{i<k} base(D^i * theta)``.

    Stores the base and (D, k) only.  Norms of products go through the
    transfer operator in :mod:`majorant.norms`, at a cost set by the base
    rather than by the product's degree; :meth:`sample_uniform` evaluates
    with O(k) work per grid point and :meth:`expand` gives the exact
    coefficient form when it is affordable.
    """

    __slots__ = ("base", "D", "k")

    def __init__(self, base: TrigPoly, D: int, k: int):
        D = operator.index(D)
        k = operator.index(k)
        if D < 2:
            raise ValueError("dilation base D must be >= 2")
        if k < 1:
            raise ValueError("number of factors k must be >= 1")
        if base and _dilate_span(base.degree, D, k) > MAX_FREQUENCY:
            raise FrequencyOverflowError(
                f"product of {k} dilates of degree {base.degree} at base {D} "
                f"exceeds the 64-bit frequency range"
            )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "k", k)

    def __setattr__(self, name, value):
        raise AttributeError("DilatedProduct is immutable")

    @property
    def degree(self) -> int:
        return _dilate_span(self.base.degree, self.D, self.k)

    def coefficient_l1(self) -> float:
        # Submultiplicative, exact when the dilates are dissociated.
        return self.base.coefficient_l1() ** self.k

    def sample_uniform(self, m: int, shift: float = 0.0) -> np.ndarray:
        """Values on the uniform m-grid via index gathers on one base grid.

        ``base(D^i * j/m) = base_grid[(D^i * j) mod m]`` holds exactly, so a
        single FFT plus k gathers evaluates the whole product.  Shifted grids
        are not supported here; certified sampling of products goes through
        the step-function machinery instead.
        """
        if shift != 0.0:
            raise ValueError("DilatedProduct only samples unshifted grids")
        base_grid = self.base.sample_uniform(m)
        j = np.arange(m)
        out = np.ones(m, dtype=complex)
        scale = 1
        for _ in range(self.k):
            out = out * base_grid[(scale * j) % m]
            scale = (scale * self.D) % m
        return out

    def expand(self) -> TrigPoly:
        return product_of_dilates(self.base, self.D, self.k)

    def __repr__(self) -> str:
        return f"DilatedProduct(base={self.base!r}, D={self.D}, k={self.k})"
