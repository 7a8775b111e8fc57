"""The benchmark's workloads: the CLI invocations each one runs, and the
check applied to every invocation's output.

An *op* is one ``majorant`` CLI invocation.  Its check receives the
``results`` block of the manifest the op wrote, plus the results of the
ops that ran before it in the same pass, and returns the digits of
agreement (``-log10`` of the relative error against a reference, capped
at ``DIGITS_CAP``) of every value it compared.  A failed check raises
:class:`CheckFailed`.

Two workloads, each made of two op groups:

* ``construct``: the ``lemma`` certificates and the p = 3 ratios
  (quadrature on huge grids), then the p = 4 ratios (exact coefficient
  algebra);
* ``search_bounds``: the coefficient searches (the search scanner), then
  ``bounds --random`` (thousands of tiny norm calls).

The inputs depend on the workload seed only: the construct and even groups
shuffle their op order with it, ``phase-ascent`` is seeded with it and
``bounds`` draws its random instances from it.
"""
from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

TOL = 1e-9
# The references were computed at rel_tol=1e-13, so agreement beyond 12
# digits is rounding and is not counted.
DIGITS_CAP = 12.0
# A value further than this from its reference fails the op.  It allows
# twice the requested tolerance on each of the two norms in a ratio, and
# some slack on top for the heuristic quadrature error bound.
CHECK_REL = 1e-8
# Rounding allowance for values the program computes exactly (integer
# moments read back through a 4th root, for instance).
EXACT_REL = 1e-12

COMMON = ("--tol", repr(TOL), "--threads", "1")
SEED_ONES = "0:1,1:1,3:1"
SEED_FLIPPED = "0:1,1:1,3:-1"

REFERENCES = Path(__file__).with_name("references.json")

Results = Dict[str, dict]
Check = Callable[[dict, Results], List[float]]


class CheckFailed(Exception):
    """An op's output disagrees with what the benchmark expects."""


@dataclass(frozen=True)
class Op:
    name: str
    argv: Tuple[str, ...]
    check: Check


def digits(value: float, ref: float) -> float:
    err = abs(value - ref) / abs(ref)
    return DIGITS_CAP if err == 0 else min(DIGITS_CAP, -math.log10(err))


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def expect_close(value: float, ref: float, what: str, rel: float = CHECK_REL) -> float:
    """Digits of agreement between value and ref; fails beyond ``rel``."""
    # written so that a NaN value fails
    expect(abs(value - ref) <= rel * abs(ref), f"{what}: {value!r} against {ref!r}")
    return digits(value, ref)


def digit_set(D: int, k: int) -> List[int]:
    """Lambda(D, k) = { sum_i eps_i D^i : eps_i in {0, 1, 3} }, sorted.

    Enumerated here rather than by ``majorant.construction.build`` so that
    the search workload's inputs do not exercise the construction layer."""
    return sorted(sum(e * D**i for i, e in enumerate(eps)) for eps in product((0, 1, 3), repeat=k))


def lp_ratio(lam, coeffs, p: float = 3.0, m: int = 1 << 15) -> float:
    """||sum a_n e(n.)||_p / ||sum e(n.)||_p on an m-point grid.

    Independent of the package: direct evaluation with exact phase
    reduction.  For the degrees used here (at most 88) the grid error is
    far below the 12 digits that are compared.
    """
    lam = np.asarray(lam, dtype=np.int64)
    j = np.arange(m, dtype=np.int64)
    rows = np.exp(2j * np.pi * ((lam[:, None] * j[None, :]) % m) / m)
    num = np.asarray(coeffs, dtype=complex) @ rows
    den = rows.sum(axis=0)
    return float((np.mean(np.abs(num) ** p) / np.mean(np.abs(den) ** p)) ** (1.0 / p))


def additive_quadruples(lam) -> int:
    """#{(a, b, c, d) in lam^4 : a + b = c + d}, by integer counting."""
    sums = Counter(a + b for a in lam for b in lam)
    return sum(r * r for r in sums.values())


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


# -- construct ---------------------------------------------------------------


def _lemma_check(refs: dict, seed: str) -> Check:
    def check(res: dict, earlier: Results) -> List[float]:
        expect(res["certified"] is True, "sandwich not certified")
        expect(res["lower"] <= res["target"] <= res["upper"], "target outside the sandwich")
        got = [expect_close(res["target"], refs["seed_norm3"][seed], f"||{seed} seed||_3")]
        if seed == "flipped":
            ones = earlier.get("lemma-ones")
            expect(ones is not None, "no all-ones sandwich to compare with")
            expect(
                res["lower"] > ones["upper"],
                f"flipped lower {res['lower']!r} does not exceed all-ones upper {ones['upper']!r}",
            )
        return got

    return check


def _ratio3_check(refs: dict, D: int, k: int) -> Check:
    def check(res: dict, earlier: Results) -> List[float]:
        expect(res["lam_size"] == 3**k, "wrong |Lambda|")
        expect(res["N"] == 3 * (D**k - 1) // (D - 1), "wrong N")
        ratio = res["ratio"]
        eta = math.log(ratio) / (k * math.log(D))
        expect(abs(res["eta"] - eta) <= EXACT_REL * abs(eta), "eta disagrees with the ratio")
        return [expect_close(ratio, refs["construct_ratio"][f"{D},{k}"], f"ratio3(D={D}, k={k})")]

    return check


def construct_ops(seed: int, refs: dict) -> List[Op]:
    lemma = ("lemma", "--alpha", "3", "--D", "1024", "--delta", "0.05")
    ops = [
        Op("lemma-ones", (*lemma, "--poly", SEED_ONES, *COMMON), _lemma_check(refs, "ones")),
        Op("lemma-flipped", (*lemma, "--poly", SEED_FLIPPED, *COMMON), _lemma_check(refs, "flipped")),
    ]
    cases = [(8, k) for k in range(1, 7)] + [(32, k) for k in range(1, 5)]
    random.Random(seed).shuffle(cases)
    for D, k in cases:
        argv = ("construct", "--D", str(D), "--k", str(k), "--p", "3", *COMMON)
        ops.append(Op(f"construct-D{D}-k{k}", argv, _ratio3_check(refs, D, k)))
    return ops


# -- even: the p = 4 group of construct --------------------------------------


def _even_check(k: int) -> Check:
    # {0, 1, 3} is a Sidon set and D >= 7 keeps digit sums from carrying,
    # so the L^4 moment of either sum counts 15^k additive quadruples.
    def check(res: dict, earlier: Results) -> List[float]:
        got = []
        for key in ("norm_all_ones", "norm_signed"):
            est = res[key]
            expect(est["method"] == "even-exact", f"{key} not computed exactly")
            moment = est["value"] ** 4
            expect(round(moment) == 15**k, f"{key}: moment {moment!r} is not 15^{k}")
            got.append(expect_close(moment, 15**k, f"{key} moment", EXACT_REL))
        got.append(expect_close(res["ratio"], 1.0, "L^4 ratio", EXACT_REL))
        return got

    return check


def even_ops(seed: int, refs: dict) -> List[Op]:
    cases = [(D, k) for D in (7, 8, 32) for k in range(1, 5)]
    random.Random(seed).shuffle(cases)
    return [
        Op(
            f"even-D{D}-k{k}",
            ("construct", "--D", str(D), "--k", str(k), "--p", "4", *COMMON),
            _even_check(k),
        )
        for D, k in cases
    ]


# -- search ------------------------------------------------------------------


def _search_check(lam: List[int], ref: float | None) -> Check:
    def check(res: dict, earlier: Results) -> List[float]:
        expect(res["lambda"] == lam, "lambda not echoed")
        coeffs = [complex(re, im) for re, im in res["best_coeffs"]]
        expect(len(coeffs) == len(lam), "wrong coefficient count")
        expect(coeffs[0] == 1, "global phase not pinned")
        expect(all(abs(abs(c) - 1.0) <= EXACT_REL for c in coeffs), "coefficients not unimodular")
        best = res["best_ratio"]
        expect(best >= 1.0 - TOL, "best ratio below the all-ones start")
        got = [expect_close(best, lp_ratio(lam, coeffs), "best ratio against direct quadrature")]
        if ref is not None:
            got.append(expect_close(best, ref, "best ratio against the reference"))
        return got

    return check


def search_ops(seed: int, refs: dict) -> List[Op]:
    lam15 = digit_set(8, 3)[:15]
    lam72 = digit_set(7, 2)
    spec15 = ",".join(map(str, lam15))
    spec72 = ",".join(map(str, lam72))
    return [
        Op(
            "exhaustive-signs",
            ("search", "--lambda", spec15, "--p", "3", "--method", "exhaustive-signs", *COMMON),
            _search_check(lam15, refs["exhaustive"]["signs_lambda8_3_first15"]),
        ),
        Op(
            "exhaustive-roots",
            ("search", "--lambda", spec72, "--p", "3", "--method", "exhaustive-roots", "--q", "3", *COMMON),
            _search_check(lam72, refs["exhaustive"]["roots_q3_lambda7_2"]),
        ),
        Op(
            "phase-ascent",
            ("search", "--lambda", spec72, "--p", "3", "--method", "phase-ascent",
             "--restarts", "4", "--seed", str(seed), *COMMON),
            _search_check(lam72, None),
        ),
    ]


# -- bounds: the second group of search_bounds ------------------------------

RANDOM_COUNT = 1000
MAX_N = 64
MAX_SIZE = 16


def random_sets(seed: int) -> List[List[int]]:
    """The frequency sets of ``bounds --random``, drawn as the CLI draws
    them: size, then the set, then the phases (unused here)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(RANDOM_COUNT):
        size = int(rng.integers(1, MAX_SIZE + 1))
        out.append(sorted(rng.choice(MAX_N + 1, size=size, replace=False).tolist()))
        rng.random(size)
    return out


def _bounds_check(seed: int) -> Check:
    def check(res: dict, earlier: Results) -> List[float]:
        sets = random_sets(seed)
        rows = res["instances"]
        expect(len(rows) == len(sets), "wrong instance count")
        got = []
        for lam, row in zip(sets, rows):
            expect(row["lam_size"] == len(lam) and row["N"] == max(lam), "instance mismatch")
            got.append(expect_close(row["norm_F2"] ** 2, len(lam), "||F||_2^2", EXACT_REL))
            got.append(expect_close(row["norm_F4"] ** 4, additive_quadruples(lam), "||F||_4^4", EXACT_REL))
            for key in ("slack_interpolation", "slack_monotonicity", "slack_sup_step", "slack_combined"):
                expect(row[key] >= -TOL, f"{key} = {row[key]!r}")
            expect(row["peak_measured"] >= row["peak_predicted"], "peak bound violated")
        expect(res["exponent_p3"] == "1/18", "exponent at p=3 is not 1/18")
        return [min(got)]

    return check


def bounds_ops(seed: int, refs: dict) -> List[Op]:
    argv = ("bounds", "--random", str(RANDOM_COUNT), "--seed", str(seed),
            "--max-n", str(MAX_N), "--max-size", str(MAX_SIZE), *COMMON)
    return [Op("bounds-random", argv, _bounds_check(seed))]


WORKLOADS = {
    "construct": lambda seed, refs: construct_ops(seed, refs) + even_ops(seed, refs),
    "search_bounds": lambda seed, refs: search_ops(seed, refs) + bounds_ops(seed, refs),
}
