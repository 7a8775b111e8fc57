"""Regenerate ``references.json``: the values the benchmark's output checks
compare against, computed with majorant at ``rel_tol=1e-13`` and each
cross-checked by a route that does not use the package.

    python3 perfbench/make_references.py --source-commit <sha>

Run it from the root of a checkout.  Cross-checks:

* construct ratios, every (D, k): the transfer-operator identity
  ``integral prod_{i<k} g(D^i x) dx = psi_k^(0)`` with
  ``psi_{m+1}^(n) = sum_j g^(D n - j) psi_m^(j)`` and ``g = |P|^3``;
* the seed norms and the k = 1 ratio: scipy adaptive quadrature;
* exhaustive best ratios: brute-force enumeration with direct quadrature
  (``workloads.lp_ratio``).

Memory: the D=8, k=6 ratio at 1e-13 samples a 7.2M-point grid and peaks
near 1.2 GB.
"""
from __future__ import annotations

import argparse
import datetime
import json
import platform
import sys
from itertools import product
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import scipy  # noqa: E402
from scipy.integrate import quad  # noqa: E402

from majorant.construction import build, flipped_base, majorant_base, ratio_at  # noqa: E402
from majorant.norms import norm_quad  # noqa: E402
from majorant.search import exhaustive_roots, exhaustive_signs  # noqa: E402
from workloads import REFERENCES, digit_set, lp_ratio  # noqa: E402

REL_TOL = 1e-13
CONSTRUCT_CASES = [(8, k) for k in range(1, 7)] + [(32, k) for k in range(1, 5)]
SEEDS = {"ones": majorant_base(), "flipped": flipped_base()}


def _values(P, theta):
    return sum(c * np.exp(2j * np.pi * n * theta) for n, c in P.terms.items())


def transfer_moment(P, D: int, k: int, p: float = 3.0, K: int = 64, L: int = 1 << 15) -> float:
    """integral_0^1 prod_{i<k} |P(D^i x)|^p dx by the transfer operator,
    truncated to Fourier modes |n| <= K.  L must exceed 2 (D + 1) K."""
    assert L > 2 * (D + 1) * K
    g = np.abs(_values(P, np.arange(L) / L)) ** p
    ghat = np.fft.fft(g) / L
    n = np.arange(-K, K + 1)
    A = ghat[(D * n[:, None] - n[None, :]) % L]
    psi = np.zeros(2 * K + 1, dtype=complex)
    psi[K] = 1.0
    for _ in range(k):
        psi = A @ psi
    return float(psi[K].real)


def scipy_norm3(P) -> float:
    val, _ = quad(lambda t: abs(_values(P, t)) ** 3, 0.0, 1.0, limit=400, epsabs=0.0, epsrel=1e-13)
    return val ** (1.0 / 3.0)


def brute_force_best(lam, alphabet, coarse: int = 1024, keep: int = 32) -> float:
    """Best L^3 ratio over coefficient vectors (first entry 1, the rest from
    ``alphabet``): rank every vector on a coarse grid, then rescore the
    leaders with ``lp_ratio``."""
    vectors = np.array([(1.0, *rest) for rest in product(alphabet, repeat=len(lam) - 1)], dtype=complex)
    j = np.arange(coarse)
    rows = np.exp(2j * np.pi * ((np.asarray(lam)[:, None] * j[None, :]) % coarse) / coarse)
    scores = np.concatenate([np.mean(np.abs(chunk @ rows) ** 3, axis=1) for chunk in np.array_split(vectors, 64)])
    leaders = np.argsort(scores)[-keep:]
    return max(lp_ratio(lam, vectors[i]) for i in leaders)


def rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--source-commit", required=True, help="commit of the majorant sources used")
    args = parser.parse_args()

    construct, transfer = {}, {}
    for D, k in CONSTRUCT_CASES:
        construct[f"{D},{k}"] = ratio_at(build(D, k), 3.0, REL_TOL).ratio
        moments = {s: transfer_moment(P, D, k) for s, P in SEEDS.items()}
        transfer[f"{D},{k}"] = (moments["flipped"] / moments["ones"]) ** (1.0 / 3.0)
        print(f"ratio3 D={D} k={k}: {construct[f'{D},{k}']!r} transfer {transfer[f'{D},{k}']!r}", flush=True)

    seed_norm3 = {s: norm_quad(P, 3.0, REL_TOL).value for s, P in SEEDS.items()}
    scipy_norms = {s: scipy_norm3(P) for s, P in SEEDS.items()}

    lam15 = digit_set(8, 3)[:15]
    lam72 = digit_set(7, 2)
    exhaustive = {
        "signs_lambda8_3_first15": exhaustive_signs(lam15, 3.0, REL_TOL).best_ratio,
        "roots_q3_lambda7_2": exhaustive_roots(lam72, 3.0, 3, REL_TOL).best_ratio,
    }
    roots3 = [np.exp(2j * np.pi * r / 3) for r in range(3)]
    brute = {
        "signs_lambda8_3_first15": brute_force_best(lam15, (1.0, -1.0)),
        "roots_q3_lambda7_2": brute_force_best(lam72, roots3),
    }

    k1 = {D: construct[f"{D},1"] for D in (8, 32)}
    scipy_k1 = scipy_norms["flipped"] / scipy_norms["ones"]
    doc = {
        "provenance": {
            "generated_by": "perfbench/make_references.py",
            "source_commit": args.source_commit,
            "rel_tol": REL_TOL,
            "date": datetime.date.today().isoformat(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "construct_ratio": construct,
        "seed_norm3": seed_norm3,
        "exhaustive": exhaustive,
        "cross_checks": {
            "transfer_operator_ratio": transfer,
            "transfer_operator_max_rel_diff": max(rel(transfer[c], construct[c]) for c in construct),
            "scipy_seed_norm3": scipy_norms,
            "scipy_seed_norm3_max_rel_diff": max(rel(scipy_norms[s], seed_norm3[s]) for s in SEEDS),
            "scipy_k1_ratio_max_rel_diff": max(rel(scipy_k1, r) for r in k1.values()),
            "brute_force_best_ratio": brute,
            "brute_force_max_rel_diff": max(rel(brute[c], exhaustive[c]) for c in exhaustive),
        },
    }
    REFERENCES.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(json.dumps(doc["cross_checks"], indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
