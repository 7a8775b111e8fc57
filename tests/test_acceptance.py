"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime against the stated budget.  Run with ``pytest -v -s
tests/test_acceptance.py`` to see the per-criterion lines."""
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from majorant import (
    build,
    eta_empirical,
    even_moment,
    exhaustive_signs,
    flipped_base,
    interpolation_check,
    majorant_base,
    majorant_ratio,
    norm_even,
    norm_quad,
    peak_lower_bound,
    ratio_at,
    sandwich_bounds,
    upper_exponent,
)
from majorant.cli import main as cli_main
from majorant.selfsim import StepFunction
from conftest import random_instance
from oracles import chain_slacks, step_selfsim_integral, trig_selfsim_check
from test_selfsim import random_symmetric_int_poly


def _record(n: int, started: float, limit: float, detail: str) -> None:
    elapsed = time.perf_counter() - started
    print(f"criterion {n}: PASS in {elapsed:.2f}s (limit {limit:.0f}s) - {detail}")
    assert elapsed < limit, f"criterion {n} exceeded its {limit}s budget"


def test_criterion_1_flipped_seed_witness():
    started = time.perf_counter()
    vQ = norm_quad(majorant_base(), 3.0, 1e-9)
    vq = norm_quad(flipped_base(), 3.0, 1e-9)
    gap = vq.value - vQ.value
    assert gap > 0
    assert gap > 10 * (vq.error_bound + vQ.error_bound)
    for v in (vQ.value, vq.value):
        assert math.sqrt(3) <= v <= 15.0**0.25

    report = exhaustive_signs((0, 1, 3), 3.0, 1e-9)
    # the winner up to the theta -> theta + 1/2 substitution symmetry
    assert report.best_coeffs in (
        (1 + 0j, 1 + 0j, -1 + 0j),
        (1 + 0j, -1 + 0j, 1 + 0j),
    )
    assert report.best_ratio == pytest.approx(vq.value / vQ.value, rel=1e-7)
    _record(1, started, 1.0, f"gap {gap:.6f}, winner {report.best_coeffs}")


def test_criterion_2_even_p_exactness():
    started = time.perf_counter()
    assert even_moment(majorant_base(), 4) == 15.0
    assert even_moment(flipped_base(), 4) == 15.0
    target = 15.0**0.25
    assert norm_even(majorant_base(), 4).value == target
    assert norm_even(flipped_base(), 4).value == target
    quad = norm_quad(majorant_base(), 4.0, 1e-11)
    assert abs(quad.value - target) <= 1e-10 * target
    _record(2, started, 1.0, f"moment 15 exact, quadrature within 1e-10")


def test_criterion_3_even_p_majorant_property():
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        inst = random_instance(rng, max_n=64, max_size=16)
        for p in (2, 4, 6):
            ratio = majorant_ratio(inst, float(p))
            worst = max(worst, ratio)
            assert ratio <= 1.0 + 1e-9
    _record(3, started, 30.0, f"200 instances x p in (2,4,6), max ratio {worst:.12f}")


def test_criterion_4_selfsimilar_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(4)
    for _ in range(100):
        D = int(rng.choice((4, 8, 16)))
        k = int(rng.integers(1, 6))
        r = StepFunction(D, tuple(float(v) for v in rng.random(D) * 3.0))
        res = step_selfsim_integral(r, k)
        if res.closed_form != 0:
            assert abs(res.direct - res.closed_form) < 1e-12 * abs(res.closed_form)
        else:
            assert res.direct == 0.0
    for _ in range(100):
        D = int(rng.choice((4, 8, 16)))
        deg = int(rng.integers(1, (D - 1) // 2 + 1))
        poly = random_symmetric_int_poly(rng, deg)
        k = int(rng.integers(1, 4))
        lhs, rhs = trig_selfsim_check(poly, D, k)
        assert lhs == rhs  # exact in integer arithmetic
    _record(4, started, 30.0, "100 step + 100 trig identities verified")


def test_criterion_5_lemma_sandwich():
    started = time.perf_counter()
    res_all = sandwich_bounds(majorant_base(), 3.0, 1024, 0.05, rel_tol=1e-9)
    res_flip = sandwich_bounds(flipped_base(), 3.0, 1024, 0.05, rel_tol=1e-9)
    for res in (res_all, res_flip):
        assert res.certified
        assert res.lower <= res.target <= res.upper
    assert res_flip.lower > res_all.upper  # c > 1 from certified bounds alone
    c_cert = res_flip.lower / res_all.upper
    _record(5, started, 120.0, f"certified c = {c_cert:.6f} > 1")


def test_criterion_6_growth_chain_at_desk_scale():
    started = time.perf_counter()
    D = 32
    # criterion-5 sandwich rerun at the 32-cell resolution this base needs
    res_all = sandwich_bounds(majorant_base(), 3.0, D, 0.05, rel_tol=1e-9)
    res_flip = sandwich_bounds(flipped_base(), 3.0, D, 0.05, rel_tol=1e-9)
    c_cert = res_flip.lower / res_all.upper
    etas = []
    for k in (1, 2, 3):
        cons = build(D, k)
        res = ratio_at(cons, 3.0, 1e-9)
        assert res.ratio >= c_cert**k
        eta = eta_empirical(cons, ratio=res.ratio)
        assert eta > 0
        assert eta <= 1.0 / 18.0 + 1e-6
        etas.append(eta)
    _record(
        6,
        started,
        300.0,
        f"c_cert {c_cert:.4f}, eta {', '.join(f'{e:.5f}' for e in etas)}",
    )


def test_criterion_7_upper_bound_chain():
    started = time.perf_counter()
    assert upper_exponent(3) == Fraction(1, 18)
    rng = np.random.default_rng(7)
    worst = float("inf")
    for _ in range(500):
        inst = random_instance(rng, max_n=64, max_size=16)
        report = interpolation_check(inst, 1e-9)
        worst = min(worst, min(chain_slacks(report)))
        assert all(s >= -1e-8 for s in chain_slacks(report))
        peak = peak_lower_bound(inst.lam, max(max(inst.lam), 1), 129)
        assert peak.measured >= peak.predicted
    _record(7, started, 120.0, f"500 instances, worst slack {worst:.3g}")


def test_criterion_8_determinism(tmp_path, capsys):
    started = time.perf_counter()

    def run(name, *argv):
        manifest = tmp_path / f"{name}.json"
        code = cli_main([*argv, "--json", "--manifest", str(manifest)])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(manifest.read_text())
        return json.loads(out), doc

    cases = [
        ("construct", "--D", "10", "--k", "2"),
        ("norm", "--poly", "0:1,1:1,3:-1", "--p", "3", "--force-quadrature"),
        ("search", "--lambda", "0,1,3,7,9", "--p", "3", "--seed", "5"),
        (
            "search", "--lambda", "0,1,3", "--p", "3",
            "--method", "phase-ascent", "--seed", "5",
        ),
    ]
    for idx, case in enumerate(cases):
        results = []
        for threads in ("1", "4"):
            out, doc = run(f"det{idx}t{threads}", *case, "--threads", threads)
            assert doc["results"] == out
            assert doc["seed"] == (5 if "--seed" in case else 0)
            results.append(out)
        # bit-identical across thread counts (stronger than the error-bound
        # window the criterion allows for quadrature values)
        assert results[0] == results[1]
    _record(8, started, 120.0, f"{len(cases)} commands bit-identical across threads")
