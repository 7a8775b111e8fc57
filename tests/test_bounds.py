import math
from fractions import Fraction

import numpy as np
import pytest

from majorant import (
    MajorantInstance,
    build,
    eta_empirical,
    interpolation_check,
    peak_lower_bound,
    proposition_check,
    ratio_at,
    upper_exponent,
)
from majorant.bounds import CSV_FIELDS
from conftest import random_instance
from oracles import chain_slacks, expand
from test_norms import CUBE_NORM_ALL_ONES, CUBE_NORM_FLIPPED


# -- upper_exponent -----------------------------------------------------------


def test_exponent_at_three_is_exact_rational():
    val = upper_exponent(3)
    assert isinstance(val, Fraction)
    assert val == Fraction(1, 18)


def test_exponent_vanishes_at_endpoints():
    assert upper_exponent(2) == 0
    assert upper_exponent(4) == 0
    assert upper_exponent(Fraction(5, 2)) == 2 * Fraction(3, 20) * Fraction(1, 5)


def test_exponent_float_input_stays_float():
    val = upper_exponent(3.0)
    assert isinstance(val, float)
    assert val == pytest.approx(1 / 18, rel=1e-15)


def test_exponent_domain_errors():
    for bad in (1.9, 4.2, 0, 10):
        with pytest.raises(ValueError):
            upper_exponent(bad)


# -- interpolation chain --------------------------------------------------------


def test_chain_seed_signs_all_positive_slack():
    inst = MajorantInstance((0, 1, 3), {0: 1, 1: 1, 3: -1})
    report = interpolation_check(inst, 1e-10)
    assert all(s >= -1e-8 for s in chain_slacks(report))
    # direct numeric oracle for each side
    assert report.norm_F2 == pytest.approx(math.sqrt(3), rel=1e-12)
    assert report.norm_F4 == pytest.approx(15**0.25, rel=1e-12)
    assert report.norm_F3 == pytest.approx(CUBE_NORM_ALL_ONES, rel=1e-9)
    assert report.norm_Ta3 == pytest.approx(CUBE_NORM_FLIPPED, rel=1e-9)
    rhs = report.sup_coeff * report.norm_F2 ** (1 / 3) * report.norm_F4 ** (2 / 3)
    assert report.slack_interpolation == pytest.approx(
        (rhs - report.norm_Ta3) / rhs, rel=1e-9
    )


def test_chain_all_ones_is_tight_on_identity():
    inst = MajorantInstance.all_ones((0, 1, 3))
    report = interpolation_check(inst)
    assert report.norm_Ta3 == pytest.approx(report.norm_F3, rel=1e-12)
    assert all(s >= -1e-8 for s in chain_slacks(report))
    n = max(inst.lam)
    assert report.implied_constant == pytest.approx(n ** (-1 / 18), rel=1e-9)


def test_chain_singleton_all_norms_one():
    report = interpolation_check(MajorantInstance.all_ones((5,)))
    for value in (report.norm_F2, report.norm_F3, report.norm_F4, report.norm_Ta3):
        assert value == pytest.approx(1.0, rel=1e-10)
    assert all(s >= -1e-8 for s in chain_slacks(report))


def test_chain_random_instances(rng):
    for _ in range(40):
        inst = random_instance(rng, max_n=64, max_size=16)
        report = interpolation_check(inst, 1e-9)
        assert all(s >= -1e-8 for s in chain_slacks(report)), (inst.lam, chain_slacks(report))


def test_chain_report_serialization():
    report = interpolation_check(MajorantInstance.all_ones((0, 2)))
    doc = report.to_json()
    assert tuple(doc) == CSV_FIELDS
    assert doc["implied_constant"] == report.implied_constant


# -- peak lower bound -------------------------------------------------------------


def test_peak_full_interval_dirichlet():
    N = 16
    lam = tuple(range(N + 1))
    res = peak_lower_bound(lam, N, 513)
    # oracle: direct evaluation of the same sweep
    theta = np.linspace(-1 / (10 * N), 1 / (10 * N), 513)
    vals = np.abs(np.exp(2j * np.pi * np.outer(theta, lam)).sum(axis=1))
    assert res.measured == pytest.approx(float(vals.min()), rel=1e-12)
    assert res.measured >= res.predicted == (N + 1) / 2


def test_peak_singleton_is_unimodular():
    res = peak_lower_bound((3,), 5, 64)
    assert res.measured == pytest.approx(1.0, rel=1e-12)
    assert res.predicted == 0.5


def test_peak_digit_construction():
    cons = build(10, 2)
    lam = tuple(expand(cons.all_ones_product()).terms)
    res = peak_lower_bound(lam, cons.N, 1025)
    assert res.measured >= 4.5
    assert res.predicted == 4.5
    assert res.cube_norm_lower == pytest.approx(4.5**3 / (5 * 33), rel=1e-12)


def test_peak_validates_input():
    with pytest.raises(ValueError):
        peak_lower_bound((0, 5), 3, 64)  # lambda outside {0..N}
    with pytest.raises(ValueError):
        peak_lower_bound((0, 1), 2, 0)
    with pytest.raises(ValueError):
        peak_lower_bound((), 4, 16)


def test_peak_holds_on_random_sets(rng):
    for _ in range(25):
        size = int(rng.integers(1, 12))
        lam = tuple(sorted(int(v) for v in rng.choice(50, size=size, replace=False)))
        res = peak_lower_bound(lam, 50, 257)
        assert res.measured >= res.predicted


# -- proposition constant -----------------------------------------------------------


def test_proposition_all_ones_closed_form():
    inst = MajorantInstance.all_ones((0, 1, 2, 3, 7))
    assert proposition_check(inst, 7) == pytest.approx(7 ** (-1 / 18), rel=1e-9)


def test_proposition_seed_signs():
    inst = MajorantInstance((0, 1, 3), {0: 1, 1: 1, 3: -1})
    want = (CUBE_NORM_FLIPPED / CUBE_NORM_ALL_ONES) * 3 ** (-1 / 18)
    assert proposition_check(inst, 3) == pytest.approx(want, rel=1e-9)


def test_proposition_respects_explicit_N():
    inst = MajorantInstance.all_ones((0, 1, 3))
    c_small = proposition_check(inst, 3)
    c_large = proposition_check(inst, 300)
    assert c_large < c_small
    with pytest.raises(ValueError):
        proposition_check(inst, 2)


# -- consistency with the construction ----------------------------------------------


def test_eta_never_exceeds_the_ceiling():
    for D, k in ((32, 1), (32, 2), (16, 2)):
        cons = build(D, k)
        res = ratio_at(cons, 3.0, 1e-9)
        eta = eta_empirical(cons, ratio=res.ratio)
        assert eta <= float(upper_exponent(3)) + 1e-6


def test_construction_constant_stays_bounded():
    values = []
    for k in (1, 2):
        cons = build(10, k)
        signed = expand(cons.signed_product())
        inst = MajorantInstance(tuple(signed.terms), dict(signed.terms))
        values.append(proposition_check(inst, cons.N))
    assert all(0 < v < 2 for v in values)
