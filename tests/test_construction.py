import math
from itertools import product as iter_product

import pytest

from majorant import (
    ConstructionError,
    FrequencyOverflowError,
    build,
    eta_empirical,
    even_moment,
    fit_k,
    flipped_base,
    majorant_base,
    norm_quad,
    ratio_at,
)
from oracles import evaluate, expand
from test_norms import CUBE_NORM_ALL_ONES, CUBE_NORM_FLIPPED


def digit_oracle(D, k):
    """Independent enumeration of the set and signs, straight from digits."""
    out = {}
    for eps in iter_product((0, 1, 3), repeat=k):
        n = sum(e * D**i for i, e in enumerate(eps))
        out[n] = (-1) ** sum(1 for e in eps if e == 3)
    return out


def oracle_sign(n, D):
    """(-1) to the number of base-D digits of n equal to 3."""
    sign = 1
    while n:
        n, r = divmod(n, D)
        if r == 3:
            sign = -sign
    return sign


def expanded(c):
    """The all-ones and signed sums of a construction, coefficient form."""
    return expand(c.all_ones_product()), expand(c.signed_product())


# -- build ---------------------------------------------------------------------


def test_build_ten_two():
    c = build(10, 2)
    ones, signed = expanded(c)
    assert tuple(ones.terms) == (0, 1, 3, 10, 11, 13, 30, 31, 33)
    assert signed.coefficient(13) == -1
    assert signed.coefficient(33) == 1
    assert signed.coefficient(31) == -1
    assert c.N == 33 == max(signed.terms)


def test_build_single_digit_gives_seed():
    for D in (4, 10, 32):
        c = build(D, 1)
        assert expanded(c) == (majorant_base(), flipped_base())


def test_build_base_four_stays_below_power():
    c = build(4, 2)
    assert c.N == 15
    assert c.N < 4**2


def test_build_matches_digit_oracle():
    for D, k in ((4, 3), (7, 2), (12, 3)):
        c = build(D, k)
        oracle = digit_oracle(D, k)
        ones, signed = expanded(c)
        assert dict(signed.terms) == {n: complex(s) for n, s in oracle.items()}
        assert dict(ones.terms) == {n: 1 + 0j for n in oracle}
        assert (c.N, c.lam_size) == (max(oracle), len(oracle))


def test_build_does_not_enumerate():
    c = build(4, 12)
    assert vars(c) == {"D": 4, "k": 12}
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
    ones, _ = expanded(c)
    assert len(ones) == c.lam_size == 3**3
    assert evaluate(ones, 0.0) == pytest.approx(c.lam_size)


# -- digit signs ---------------------------------------------------------------------


def test_signed_coefficient_examples():
    _, signed = expanded(build(10, 3))
    for n, sign in ((0, 1), (13, -1), (31, -1), (33, 1), (130, -1), (333, -1)):
        assert signed.coefficient(n) == oracle_sign(n, 10) == sign
    # the two oracles agree with each other
    assert digit_oracle(10, 3) == {n: oracle_sign(n, 10) for n in digit_oracle(10, 3)}


def test_sign_multiplicative_on_disjoint_digits(rng):
    # a_{m + n D^j} = a_m * a_{n D^j} when the digit supports are disjoint
    # holds for the coefficients of the expanded signed product
    for _ in range(50):
        D = int(rng.integers(4, 20))
        j = int(rng.integers(1, 4))
        _, signed = expanded(build(D, 4))
        lam = list(signed.terms)
        m = lam[int(rng.integers(len(lam)))] % D**j  # occupies digits below j
        shifted = lam[int(rng.integers(len(lam)))] // D**j * D**j
        a = signed.coefficient
        assert a(m + shifted) == a(m) * a(shifted) != 0


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


def test_cube_ratio_single_digit_matches_seed_norms():
    c = build(16, 1)
    res = ratio_at(c, 3.0, 1e-10)
    assert res.norm_all_ones.value == pytest.approx(CUBE_NORM_ALL_ONES, rel=1e-9)
    assert res.norm_signed.value == pytest.approx(CUBE_NORM_FLIPPED, rel=1e-9)
    assert res.ratio > 1


def test_cube_ratio_uses_product_form_consistently():
    c = build(16, 2)
    res = ratio_at(c, 3.0, 1e-10)
    # oracle: quadrature on the expanded coefficient polynomials
    ones, signed = expanded(c)
    direct = norm_quad(signed, 3.0, 1e-10).value / norm_quad(ones, 3.0, 1e-10).value
    assert res.ratio == pytest.approx(direct, rel=1e-9)
    assert res.ratio > 1


def test_ratio_at_even_p_is_exactly_one():
    c = build(10, 2)
    assert ratio_at(c, 4).ratio == 1.0
    # the underlying even moments are the same integer
    ones, signed = expanded(c)
    assert even_moment(ones, 4) == even_moment(signed, 4) == 225.0


def test_even_moment_equality_for_clean_bases():
    # Digitwise pair sums stay below D from D = 7 on, so fourth moments
    # factor per digit and the signed pairs all align: equality at p = 2, 4.
    ones, signed = expanded(build(10, 2))
    for p in (2, 4):
        assert even_moment(ones, p) == even_moment(signed, p)


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
    ones, signed = expanded(build(10, 2))
    assert even_moment(ones, 6) == float(count_all**2)
    assert even_moment(signed, 6) == float(count_signed**2)


def test_even_moment_equality_fails_below_carry_threshold():
    # At D = 4 carries create quadruples like 7 + 7 = 13 + 1 whose signs do
    # not cancel, so the fourth moments differ.  The coefficient algebra
    # must agree with brute-force quadruple counting on both sums.
    ones, signed = expanded(build(4, 2))
    lam = tuple(ones.terms)

    def brute(signs):
        return sum(
            signs[a] * signs[b] * signs[c_] * signs[d]
            for a in lam
            for b in lam
            for c_ in lam
            for d in lam
            if a + b == c_ + d
        )

    mF = brute({n: 1 for n in lam})
    mf = brute({n: oracle_sign(n, 4) for n in lam})
    assert even_moment(ones, 4) == float(mF)
    assert even_moment(signed, 4) == float(mf)
    assert mf < mF  # strict: the all-ones moment picks up more mass


def test_eta_zero_for_unit_ratio():
    c = build(10, 1)
    assert eta_empirical(c, ratio=1.0) == 0.0


def test_eta_single_digit_closed_form():
    c = build(32, 1)
    res = ratio_at(c, 3.0, 1e-10)
    eta = eta_empirical(c, ratio=res.ratio)
    assert eta == pytest.approx(math.log(res.ratio) / math.log(32), rel=1e-12)
    assert eta > 0


def test_eta_positive_at_depth_two():
    c = build(32, 2)
    res = ratio_at(c, 3.0, 1e-9)
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
