import math
from itertools import product as iter_product

import pytest

from majorant import (
    ConstructionError,
    FrequencyOverflowError,
    build,
    digit_sign,
    digit_weight,
    eta_empirical,
    even_moment,
    fit_k,
    flipped_base,
    majorant_base,
    norm_quad,
    ratio3,
    ratio_at,
)
from test_norms import CUBE_NORM_ALL_ONES, CUBE_NORM_FLIPPED


def digit_oracle(D, k):
    """Independent enumeration of the set and signs, straight from digits."""
    out = {}
    for eps in iter_product((0, 1, 3), repeat=k):
        n = sum(e * D**i for i, e in enumerate(eps))
        out[n] = (-1) ** sum(1 for e in eps if e == 3)
    return out


# -- build ---------------------------------------------------------------------


def test_build_ten_two():
    c = build(10, 2)
    assert c.lam == (0, 1, 3, 10, 11, 13, 30, 31, 33)
    assert c.signs[13] == -1
    assert c.signs[33] == 1
    assert c.signs[31] == -1
    assert c.N == 33


def test_build_single_digit_gives_seed():
    for D in (4, 10, 32):
        c = build(D, 1)
        assert c.lam == (0, 1, 3)
        assert c.signed == flipped_base()
        assert c.all_ones == majorant_base()


def test_build_base_four_stays_below_power():
    c = build(4, 2)
    assert c.N == 15
    assert c.N < 4**2


def test_build_matches_digit_oracle():
    for D, k in ((4, 3), (7, 2), (12, 3)):
        c = build(D, k)
        oracle = digit_oracle(D, k)
        assert set(c.lam) == set(oracle)
        assert dict(c.signs) == oracle
        assert dict(c.signed.terms) == {n: complex(s) for n, s in oracle.items()}
        assert dict(c.all_ones.terms) == {n: 1 + 0j for n in oracle}


def test_build_does_not_enumerate():
    c = build(4, 12)
    assert "lam" not in vars(c) and "signs" not in vars(c)
    assert (c.N, c.lam_size) == (4**12 - 1, 3**12)  # N has all 12 digits equal to 3


def test_build_validates_parameters():
    with pytest.raises(ValueError):
        build(3, 2)
    with pytest.raises(ValueError):
        build(10, 0)
    with pytest.raises(FrequencyOverflowError):
        build(1 << 22, 4)


def test_lambda_size_and_peak():
    c = build(6, 3)
    assert len(c.lam) == 3**3
    assert c.all_ones.eval(0.0) == pytest.approx(len(c.lam))


# -- digit weights and signs ------------------------------------------------------


def test_digit_weight_examples():
    assert digit_weight(13, 10) == 1
    assert digit_weight(33, 10) == 2
    assert digit_weight(0, 10) == 0
    assert digit_sign(31, 10) == -1


def test_sign_multiplicative_on_disjoint_digits(rng):
    # a_{m + n D^j} = a_m * a_{n D^j} when the digit supports are disjoint
    for _ in range(50):
        D = int(rng.integers(4, 20))
        j = int(rng.integers(1, 5))
        m = int(rng.integers(0, D**j))  # occupies digits below j
        n = int(rng.integers(0, D**3))
        shifted = n * D**j
        assert digit_sign(m + shifted, D) == digit_sign(m, D) * digit_sign(shifted, D)


# -- fit_k -------------------------------------------------------------------------


def test_fit_k_examples():
    assert fit_k(10, 33) == 1
    assert fit_k(4, 16) == 2
    assert fit_k(32, 32**3) == 3
    assert fit_k(32, 32**3 - 1) == 2


def test_fit_k_rejects_small_targets():
    with pytest.raises(ValueError):
        fit_k(10, 9)


# -- ratios and the exponent -------------------------------------------------------


def test_ratio3_single_digit_matches_seed_norms():
    c = build(16, 1)
    res = ratio3(c, 1e-10)
    assert res.norm_all_ones.value == pytest.approx(CUBE_NORM_ALL_ONES, rel=1e-9)
    assert res.norm_signed.value == pytest.approx(CUBE_NORM_FLIPPED, rel=1e-9)
    assert res.ratio > 1


def test_ratio3_uses_product_form_consistently():
    c = build(16, 2)
    res = ratio3(c, 1e-10)
    # oracle: quadrature on the expanded coefficient polynomials
    direct = (
        norm_quad(c.signed, 3.0, 1e-10).value / norm_quad(c.all_ones, 3.0, 1e-10).value
    )
    assert res.ratio == pytest.approx(direct, rel=1e-9)
    assert res.ratio > 1


def test_ratio_at_even_p_is_exactly_one():
    c = build(10, 2)
    assert ratio_at(c, 4).ratio == 1.0
    # the underlying even moments are the same integer
    assert even_moment(c.all_ones, 4) == even_moment(c.signed, 4) == 225.0


def test_even_moment_equality_for_clean_bases():
    # Digitwise pair sums stay below D from D = 7 on, so fourth moments
    # factor per digit and the signed pairs all align: equality at p = 2, 4.
    c = build(10, 2)
    for p in (2, 4):
        assert even_moment(c.all_ones, p) == even_moment(c.signed, p)


def test_sixth_moment_is_strictly_smaller_for_signs():
    # At p = 6 triples 1+1+1 and 0+0+3 share the digit sum 3 with opposite
    # signs, so the signed sixth moment drops below the all-ones one.
    # Oracle: per-digit sextuple counts over {0,1,3}, squared by k = 2
    # factorisation (no carries at D = 10).
    digits, signs = (0, 1, 3), {0: 1, 1: 1, 3: -1}
    plain = {}
    weighted = {}
    for a in digits:
        for b in digits:
            for c_ in digits:
                s = a + b + c_
                plain[s] = plain.get(s, 0) + 1
                weighted[s] = weighted.get(s, 0) + signs[a] * signs[b] * signs[c_]
    count_all = sum(v * v for v in plain.values())
    count_signed = sum(v * v for v in weighted.values())
    assert (count_all, count_signed) == (99, 87)
    c = build(10, 2)
    assert even_moment(c.all_ones, 6) == float(count_all**2)
    assert even_moment(c.signed, 6) == float(count_signed**2)


def test_even_moment_equality_fails_below_carry_threshold():
    # At D = 4 carries create quadruples like 7 + 7 = 13 + 1 whose signs do
    # not cancel, so the fourth moments differ.  The coefficient algebra
    # must agree with brute-force quadruple counting on both sums.
    c = build(4, 2)
    lam = c.lam

    def brute(signs):
        return sum(
            signs[a] * signs[b] * signs[c_] * signs[d]
            for a in lam
            for b in lam
            for c_ in lam
            for d in lam
            if a + b == c_ + d
        )

    ones = {n: 1 for n in lam}
    mF = brute(ones)
    mf = brute(c.signs)
    assert even_moment(c.all_ones, 4) == float(mF)
    assert even_moment(c.signed, 4) == float(mf)
    assert mf < mF  # strict: the all-ones moment picks up more mass


def test_eta_zero_for_unit_ratio():
    c = build(10, 1)
    assert eta_empirical(c, ratio=1.0) == 0.0


def test_eta_single_digit_closed_form():
    c = build(32, 1)
    res = ratio3(c, 1e-10)
    eta = eta_empirical(c, ratio=res.ratio)
    assert eta == pytest.approx(math.log(res.ratio) / math.log(32), rel=1e-12)
    assert eta > 0


def test_eta_positive_at_depth_two():
    c = build(32, 2)
    res = ratio3(c, 1e-9)
    eta = eta_empirical(c, ratio=res.ratio)
    assert 0 < eta < 1 / 18


# -- cross-check guard --------------------------------------------------------------


def test_construction_error_type_exists():
    assert issubclass(ConstructionError, Exception)


def test_to_json_shape():
    c = build(10, 2)
    doc = c.to_json()
    assert doc == {"D": 10, "k": 2, "N": 33, "lam_size": 3**2}
    assert "lambda" not in doc and "signs" not in doc
    assert c.lam == (0, 1, 3, 10, 11, 13, 30, 31, 33)
