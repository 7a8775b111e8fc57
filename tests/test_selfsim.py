import math

import numpy as np
import pytest

from majorant import (
    DilatedProduct,
    EnvelopeResolutionError,
    StepFunction,
    flipped_base,
    majorant_base,
    make,
    norm_quad,
    sample_envelopes,
    sandwich_bounds,
    step_envelopes,
    step_mean,
    step_selfsim_integral,
    trig_selfsim_check,
)
from majorant.selfsim import lipschitz_bound


def random_step(rng, D):
    return StepFunction(D, tuple(float(v) for v in rng.random(D) * 5.0))


def random_symmetric_int_poly(rng, max_deg):
    """Real-valued polynomial with integer coefficients, degree <= max_deg."""
    c0 = int(rng.integers(-3, 4))
    pairs = [(0, complex(c0))]
    for n in range(1, max_deg + 1):
        re = int(rng.integers(-3, 4))
        im = int(rng.integers(-3, 4))
        pairs.append((n, complex(re, im)))
        pairs.append((-n, complex(re, -im)))
    return make(pairs)


# -- StepFunction --------------------------------------------------------------


def test_step_function_validation():
    with pytest.raises(ValueError):
        StepFunction(4, (1.0, 2.0))
    with pytest.raises(ValueError):
        StepFunction(2, (1.0, -0.5))
    with pytest.raises(ValueError):
        StepFunction(0, ())


def test_step_mean_constant():
    assert step_mean(StepFunction(8, (2.5,) * 8)) == 2.5


def test_step_mean_single_spike():
    D = 16
    values = [0.0] * D
    values[3] = 1.0
    assert step_mean(StepFunction(D, tuple(values))) == pytest.approx(1 / D, rel=1e-15)


def test_step_mean_matches_riemann_oracle(rng):
    r = random_step(rng, 10)
    fine = 10 * 1024
    theta = (np.arange(fine) + 0.5) / fine
    oracle = float(np.mean(r.as_array()[(theta * r.D).astype(int)]))
    assert step_mean(r) == pytest.approx(oracle, rel=1e-13)


# -- self-similar integral -------------------------------------------------------


def test_selfsim_constant():
    res = step_selfsim_integral(StepFunction(6, (2.0,) * 6), 4)
    assert res.closed_form == pytest.approx(16.0, rel=1e-15)
    assert res.direct == pytest.approx(16.0, rel=1e-15)


def test_selfsim_explicit_four_cells():
    r = StepFunction(4, (1.0, 2.0, 3.0, 4.0))
    res = step_selfsim_integral(r, 3)
    # oracle: all 64 digit strings, each owning an interval of length 4^-3
    oracle = (
        sum(
            r.values[j0] * r.values[j1] * r.values[j2]
            for j0 in range(4)
            for j1 in range(4)
            for j2 in range(4)
        )
        / 64.0
    )
    assert oracle == pytest.approx(15.625, rel=1e-15)
    assert res.closed_form == pytest.approx(oracle, rel=1e-13)
    assert res.direct == pytest.approx(oracle, rel=1e-13)
    assert res.enumerated


def test_selfsim_zero_cell_k1():
    values = (0.0, 1.0, 2.0, 3.0)
    res = step_selfsim_integral(StepFunction(4, values), 1)
    assert res.closed_form == res.direct == pytest.approx(1.5)


def test_selfsim_random_agreement(rng):
    for _ in range(25):
        D = int(rng.choice((4, 8, 16)))
        k = int(rng.integers(1, 6))
        res = step_selfsim_integral(random_step(rng, D), k)
        assert res.direct == pytest.approx(res.closed_form, rel=1e-12)
        assert res.enumerated


def test_selfsim_falls_back_past_enumeration_limit(rng):
    r = random_step(rng, 16)
    res = step_selfsim_integral(r, 8)  # 16^8 cells is far past the limit
    assert not res.enumerated
    assert res.direct == pytest.approx(res.closed_form, rel=1e-12)


# -- trigonometric route ----------------------------------------------------------


def test_trig_selfsim_small_example():
    r = make([(0, 2), (1, 1), (-1, 1)])
    lhs, rhs = trig_selfsim_check(r, 4, 2)
    assert lhs == rhs == 4.0


def test_trig_selfsim_constant():
    assert trig_selfsim_check(make([(0, 1)]), 5, 3) == (1.0, 1.0)


def test_trig_selfsim_random_exact(rng):
    for _ in range(30):
        D = int(rng.choice((8, 12, 16)))
        deg = int(rng.integers(1, (D - 1) // 2 + 1))
        r = random_symmetric_int_poly(rng, deg)
        k = int(rng.integers(1, 4))
        lhs, rhs = trig_selfsim_check(r, D, k)
        assert lhs == rhs  # integer arithmetic, exact equality


def test_trig_selfsim_rejects_wide_polynomials():
    r = random_symmetric_int_poly(np.random.default_rng(0), 4)
    with pytest.raises(ValueError):
        trig_selfsim_check(r, 8, 2)  # degree 4 = D/2


def test_trig_selfsim_rejects_complex_valued():
    with pytest.raises(ValueError):
        trig_selfsim_check(make([(1, 1)]), 8, 2)


def test_trig_selfsim_holds_through_degree_D_minus_1(rng):
    # The guaranteed regime is degree < D/2, but the constant-coefficient
    # identity actually survives up to degree D - 1: a zero digit sum with
    # all digits below D in magnitude forces every digit to zero.
    for _ in range(20):
        D = int(rng.choice((4, 6, 8)))
        r = random_symmetric_int_poly(rng, D - 1)
        lhs, rhs = trig_selfsim_check(r, D, int(rng.integers(2, 4)), check_degree=False)
        assert lhs == rhs


def test_trig_selfsim_fails_at_degree_D():
    # First genuine failure: frequencies {-D,...,D} allow -2 + D*1 = 0 type
    # cancellations.  With D = 2 and r = 2cos(2 pi t) + 2cos(4 pi t) the
    # product integral is 2 while the mean is 0.
    r = make([(1, 1), (-1, 1), (2, 1), (-2, 1)])
    lhs, rhs = trig_selfsim_check(r, 2, 2, check_degree=False)
    assert rhs == 0.0
    assert lhs == 2.0
    assert lhs != rhs


# -- envelopes ----------------------------------------------------------------------


def test_envelopes_constant_polynomial_are_exact():
    env = step_envelopes(make([(0, 2)]), 3.0, 16, 0.5)
    assert env.rminus.values == env.rplus.values == (8.0,) * 16
    assert env.mean_gap == 0.0
    assert env.certified


def test_envelopes_reject_alpha_below_one():
    with pytest.raises(ValueError):
        step_envelopes(majorant_base(), 0.5, 64, 0.1)


def test_envelopes_reject_bad_delta():
    with pytest.raises(ValueError):
        step_envelopes(majorant_base(), 3.0, 64, 0.0)


def test_envelopes_are_pointwise_valid():
    # verification grid deliberately disjoint from the construction samples
    P = majorant_base()
    env = step_envelopes(P, 3.0, 1024, 0.05)
    fine = 1024 * 17
    theta = (np.arange(fine) + 0.31) / fine
    vals = np.abs(P.eval(theta)) ** 3
    cells = (theta * 1024).astype(int)
    assert np.all(vals <= env.rplus.as_array()[cells] + 1e-9)
    assert np.all(vals >= env.rminus.as_array()[cells] - 1e-9)


def test_envelope_gap_tracks_dense_oracle():
    # dense per-cell sup/inf oracle: the achieved mean gap is the oracle gap
    # plus at most twice the sampling correction (within dense-grid slack)
    P = majorant_base()
    D = 1024
    env = step_envelopes(P, 3.0, D, 0.05)
    dense_S = 96
    theta = (np.arange(D * dense_S) + 0.5) / (D * dense_S)
    vals = (np.abs(P.eval(theta)) ** 3).reshape(D, dense_S)
    oracle_gap = float(np.mean(vals.max(axis=1) - vals.min(axis=1)))
    assert env.correction <= 0.05 / 4
    assert env.mean_gap <= oracle_gap + 2 * env.correction + 1e-6
    assert env.mean_gap >= oracle_gap - 1e-3
    # the oscillation of |P|^3 over 1/1024 cells dominates: the width this
    # resolution can deliver sits near 0.09 regardless of sample count
    assert 0.05 < env.mean_gap < 0.12


def test_envelopes_error_advises_min_cells():
    P = majorant_base()
    delta = 1e-9
    with pytest.raises(EnvelopeResolutionError) as info:
        step_envelopes(P, 3.0, 8, delta)
    err = info.value
    assert err.min_cells == math.ceil(2 * lipschitz_bound(P, 3.0) / delta)
    assert err.required_samples > 1 << 24


def test_sample_envelopes_best_effort():
    env = sample_envelopes(majorant_base(), 0.5, 64, 32)
    assert not env.certified
    assert env.correction == 0.0
    assert all(
        lo <= hi for lo, hi in zip(env.rminus.values, env.rplus.values)
    )


# -- sandwich -----------------------------------------------------------------------


def test_sandwich_constant_polynomial():
    res = sandwich_bounds(make([(0, 2)]), 3.0, 8, 0.5)
    assert res.lower == pytest.approx(2.0, rel=1e-12)
    assert res.upper == pytest.approx(2.0, rel=1e-12)
    assert res.target == pytest.approx(2.0, rel=1e-9)


def test_sandwich_brackets_the_norm():
    for P in (majorant_base(), flipped_base()):
        res = sandwich_bounds(P, 3.0, 1024, 0.05)
        assert res.lower <= res.target <= res.upper
        assert res.certified


def test_sandwich_separates_the_seeds():
    up_all = sandwich_bounds(majorant_base(), 3.0, 1024, 0.05)
    lo_flip = sandwich_bounds(flipped_base(), 3.0, 1024, 0.05)
    assert lo_flip.lower > up_all.upper  # certified strict separation


def test_sandwich_bounds_products_for_every_k():
    # lower^k <= ||prod_{i<k} P(D^i .)||_3 <= upper^k at matching D
    D = 32
    for base in (majorant_base(), flipped_base()):
        res = sandwich_bounds(base, 3.0, D, 0.05)
        for k in (1, 2, 3):
            g = DilatedProduct(base, D, k)
            norm = norm_quad(g, 3.0, 1e-9).value
            assert res.lower**k <= norm * (1 + 1e-8)
            assert norm <= res.upper**k * (1 + 1e-8)


def test_sandwich_json_fields():
    doc = sandwich_bounds(majorant_base(), 3.0, 256, 0.2, k=2).to_json()
    assert set(doc) >= {"alpha", "D", "k", "delta", "lower", "upper", "target"}
    assert doc["k"] == 2
