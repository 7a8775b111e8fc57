import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

from majorant import (
    DilatedProduct,
    NormEstimate,
    QuadratureConvergenceError,
    even_moment,
    flipped_base,
    majorant_base,
    make,
    norm,
    norm_even,
    norm_l2,
    norm_quad,
    norm_transfer,
    sup_norm_bracket,
)
from conftest import random_int_poly

# Frozen cube norms of the two seeds, cross-checked below against an
# independent adaptive quadrature oracle.
CUBE_NORM_ALL_ONES = 1.856062776065781
CUBE_NORM_FLIPPED = 1.867175787566443


def scipy_norm_oracle(P, p):
    """Independent quadrature oracle (adaptive, not grid based)."""
    val, err = scipy_quad(
        lambda t: abs(P.eval(t)) ** p, 0.0, 1.0, limit=300, epsabs=1e-13, epsrel=1e-13
    )
    assert err < 1e-10
    return val ** (1.0 / p)


def signed_quadruple_moment(coeffs):
    """Brute-force 4th moment: sum over quadruples with a+b = c+d."""
    ns = list(coeffs)
    return sum(
        (coeffs[a] * coeffs[b] * coeffs[c].conjugate() * coeffs[d].conjugate()).real
        for a in ns
        for b in ns
        for c in ns
        for d in ns
        if a + b == c + d
    )


# -- norm_l2 -------------------------------------------------------------------


def test_l2_of_seeds():
    assert norm_l2(majorant_base()).value == pytest.approx(math.sqrt(3), abs=1e-15)
    assert norm_l2(flipped_base()).value == pytest.approx(math.sqrt(3), abs=1e-15)


def test_l2_of_empty():
    est = norm_l2(make([]))
    assert est.value == 0.0
    assert est.method == "parseval"
    assert est.error_bound == 0.0


def test_l2_equals_even_2_exactly(rng):
    for _ in range(25):
        P = random_int_poly(rng)
        assert norm_l2(P).value == norm_even(P, 2).value


# -- norm_even -----------------------------------------------------------------


def test_even_4_of_seeds_matches_quadruple_count():
    oracle = signed_quadruple_moment({0: 1 + 0j, 1: 1 + 0j, 3: 1 + 0j})
    assert oracle == 15
    assert even_moment(majorant_base(), 4) == 15.0
    oracle_signed = signed_quadruple_moment({0: 1 + 0j, 1: 1 + 0j, 3: -1 + 0j})
    assert oracle_signed == 15
    assert even_moment(flipped_base(), 4) == 15.0
    assert norm_even(majorant_base(), 4).value == 15.0**0.25
    assert norm_even(flipped_base(), 4).value == 15.0**0.25


def test_even_moment_matches_quadruple_oracle_random(rng):
    for _ in range(10):
        P = random_int_poly(rng, max_freq=8, max_terms=5)
        oracle = signed_quadruple_moment(dict(P.terms))
        assert even_moment(P, 4) == pytest.approx(oracle, abs=1e-9)


def test_even_norm_of_single_term():
    for p in (2, 4, 6, 8):
        assert norm_even(make([(7, 2.5j)]), p).value == pytest.approx(2.5, rel=1e-15)


def test_even_rejects_odd_or_small_p():
    with pytest.raises(ValueError):
        norm_even(majorant_base(), 3)
    with pytest.raises(ValueError):
        norm_even(majorant_base(), 0)


# -- norm_quad -----------------------------------------------------------------


def test_quad_agrees_with_even_exact():
    est = norm_quad(majorant_base(), 4.0, 1e-10)
    assert est.method == "quadrature"
    assert est.grid_size is not None
    assert abs(est.value - 15.0**0.25) <= 1e-10 * 15.0**0.25


def test_quad_cube_norm_is_bracketed():
    est = norm_quad(majorant_base(), 3.0, 1e-8)
    assert math.sqrt(3) <= est.value <= 15.0**0.25


def test_flipped_seed_beats_all_ones_at_p3():
    vQ = norm_quad(majorant_base(), 3.0, 1e-10)
    vq = norm_quad(flipped_base(), 3.0, 1e-10)
    assert vq.value > vQ.value
    assert vq.value - vQ.value > 10 * (vq.error_bound + vQ.error_bound)


def test_quad_matches_independent_oracle_and_frozen_values():
    vQ = norm_quad(majorant_base(), 3.0, 1e-11).value
    vq = norm_quad(flipped_base(), 3.0, 1e-11).value
    assert vQ == pytest.approx(scipy_norm_oracle(majorant_base(), 3.0), rel=1e-9)
    assert vq == pytest.approx(scipy_norm_oracle(flipped_base(), 3.0), rel=1e-9)
    assert vQ == pytest.approx(CUBE_NORM_ALL_ONES, rel=1e-12)
    assert vq == pytest.approx(CUBE_NORM_FLIPPED, rel=1e-12)


def test_quad_starting_grid_scales_with_degree():
    est = norm_quad(make([(0, 1), (100, 1)]), 2.0, 1e-9)
    assert est.grid_size >= 8 * 100 + 1
    assert est.grid_size & (est.grid_size - 1) == 0


def test_quad_refines_polynomials_in_an_even_dilate():
    # Every frequency of this expansion is a multiple of 6.  From an odd
    # start grid m, grids m and 2m sampled the same points, so the first
    # doubling reported convergence at 16.485693 with a bound of 7e-15,
    # 5.2e-6 relative from the value 16.4856070118.
    P = DilatedProduct(make([(-6, 3), (0, -3)]), 8, 2)
    got = norm_quad(P.expand(), 1.5, 1e-10).value
    assert got == pytest.approx(norm_transfer(P, 1.5, 1e-10).value, rel=1e-8)


def test_quad_consistent_with_even_for_high_degree():
    # sparse polynomial with degree in the thousands
    P = make([(0, 1), (17, 1), (4999, -1), (5000, 1j)])
    quad = norm_quad(P, 4.0, 1e-10).value
    exact = norm_even(P, 4).value
    assert quad == pytest.approx(exact, rel=1e-9)


def test_quad_on_product_form_matches_expanded():
    lazy = DilatedProduct(flipped_base(), 16, 2)
    a = norm_quad(lazy, 3.0, 1e-10).value
    b = norm_quad(lazy.expand(), 3.0, 1e-10).value
    c = norm_transfer(lazy, 3.0, 1e-10).value
    assert a == pytest.approx(b, rel=1e-9)
    assert c == pytest.approx(b, rel=1e-9)


def test_quad_empty_polynomial():
    est = norm_quad(make([]), 3.0)
    assert est.value == 0.0


def test_monotonicity_in_p(rng):
    for _ in range(8):
        P = random_int_poly(rng, max_terms=5)
        if not P:
            continue
        v2 = norm_quad(P, 2.0, 1e-9).value
        v3 = norm_quad(P, 3.0, 1e-9).value
        v4 = norm_quad(P, 4.0, 1e-9).value
        assert v2 <= v3 * (1 + 1e-8)
        assert v3 <= v4 * (1 + 1e-8)


def test_majorant_property_even_p(rng):
    # modulated coefficient sums never beat the all-ones sum at even p
    from conftest import random_instance

    for _ in range(30):
        inst = random_instance(rng, max_n=40, max_size=10)
        den = inst.denominator_poly()
        num = inst.numerator_poly()
        for p in (2, 4, 6):
            assert norm_even(num, p).value <= norm_even(den, p).value * (1 + 1e-9)


def test_quad_nonconvergence_carries_estimates():
    # |1 + e(theta)|^3 has a zero at 1/2, so successive grids keep moving at
    # the 1e-10 scale and an absurd tolerance cannot be met in one doubling
    with pytest.raises(QuadratureConvergenceError) as info:
        norm_quad(make([(0, 1), (1, 1)]), 3.0, rel_tol=1e-14, max_doublings=1)
    err = info.value
    assert err.last is not None
    assert err.previous is not None
    assert err.last != err.previous
    assert err.grid_size == 512


def test_quad_validates_arguments():
    with pytest.raises(ValueError):
        norm_quad(majorant_base(), 0.5)
    with pytest.raises(ValueError):
        norm_quad(majorant_base(), 3.0, rel_tol=0.0)


# -- products of dilates: the transfer route ----------------------------------------


int_bases = st.dictionaries(
    st.integers(-6, 6), st.integers(-3, 3).filter(bool), min_size=1, max_size=4
).map(lambda d: make(d.items()))


@settings(max_examples=40, deadline=None)
@given(int_bases, st.integers(4, 16), st.integers(1, 3), st.sampled_from([1.5, 2.5, 3.0, 3.7, 5.0]))
def test_transfer_matches_quadrature_on_expanded(base, D, k, p):
    P = DilatedProduct(base, D, k)
    est = norm(P, p, 1e-9)
    assert est.method == "transfer"
    assert est.value == pytest.approx(norm_quad(P.expand(), p, 1e-11).value, rel=1e-8)


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(st.integers(-6, 6), st.integers(-2, 2).filter(bool), min_size=1, max_size=3).map(
        lambda d: make(d.items())
    ),
    st.integers(4, 16),
    st.integers(1, 3),
    st.sampled_from([2, 4, 6]),
)
def test_even_transfer_is_exact(base, D, k, p):
    # l1(base) <= 6, so every intermediate is an integer below 6^18 < 2^53
    P = DilatedProduct(base, D, k)
    assert even_moment(P, p) == even_moment(P.expand(), p)
    assert norm_even(P, p) == norm_even(P.expand(), p)


def test_transfer_needs_a_grid_well_above_the_index_span():
    # At D = 64 the indices D n - j span 2(D+1)K + 1 values; a grid too close
    # to that span aliases them and the result is garbage.
    for base in (majorant_base(), flipped_base()):
        P = DilatedProduct(base, 64, 2)
        got = norm_transfer(P, 3.0, 1e-10)
        assert got.value == pytest.approx(norm_quad(P.expand(), 3.0, 1e-11).value, rel=1e-9)


def test_transfer_on_a_base_with_a_zero():
    # |1 + e(theta)|^3 vanishes at 1/2.  The converged value comes from
    # quadrature at 1e-12 (grid 37,440) and from every K >= 64; norm_quad at
    # 1e-9 stops at 3.395696864932799, 7.9e-9 away, with a bound of 1.3e-11.
    want = 3.395696891641626
    est = norm(DilatedProduct(make([(0, 1), (1, 1)]), 8, 3), 3.0, 1e-9)
    assert est.value == pytest.approx(want, rel=1e-10)
    assert est.error_bound <= 1e-9 * est.value


def test_transfer_on_a_base_whose_frequencies_share_a_factor():
    # |1 + e(2 theta)|^2.5 vanishes at 1/4 and 3/4.  Iterated on this base
    # as given, K = 8 and K = 16 agree to 2e-11 relative while both are
    # 2.9e-8 off; on its primitive form 1 + e(theta) the doubling test holds.
    P = DilatedProduct(make([(0, -1), (2, -1)]), 10, 3)
    got = norm_transfer(P, 2.5, 1e-10).value
    assert got == pytest.approx(norm_quad(P.expand(), 2.5, 1e-12).value, rel=1e-10)


def test_transfer_reaches_the_frequency_cap():
    # k = 21 is the largest k at D = 8 inside the 64-bit frequency range
    # (degree ~4e18): no grid or expansion could hold the product
    P = DilatedProduct(majorant_base(), 8, 21)
    est = norm(P, 3.0, 1e-9)
    assert est.method == "transfer"
    assert est.grid_size == 2 * 16 + 1
    assert even_moment(P, 4) == pytest.approx(15.0**21, rel=1e-14)
    # exact while the moment fits in 53 bits
    assert 15**13 < 2**53
    assert even_moment(DilatedProduct(majorant_base(), 8, 13), 4) == 15**13


def test_transfer_of_zero_and_single_term_bases():
    assert norm_transfer(DilatedProduct(make([]), 8, 3), 3.0).value == 0.0
    est = norm_transfer(DilatedProduct(make([(5, 2)]), 8, 3), 2.5)
    assert est.value == pytest.approx(8.0, rel=1e-15)


def test_transfer_nonconvergence_carries_estimates(monkeypatch):
    import majorant.norms

    monkeypatch.setattr(majorant.norms, "TRANSFER_MAX_DOUBLINGS", 1)
    with pytest.raises(QuadratureConvergenceError) as info:
        norm_transfer(DilatedProduct(make([(0, 1), (1, 1)]), 8, 3), 3.0, 1e-9)
    err = info.value
    assert err.last != err.previous
    assert err.grid_size == 2 * 16 + 1


def test_transfer_validates_arguments():
    P = DilatedProduct(majorant_base(), 8, 2)
    with pytest.raises(ValueError):
        norm_transfer(P, 0.5)
    with pytest.raises(ValueError):
        norm_transfer(P, 3.0, rel_tol=0.0)


# -- sup_norm_bracket ------------------------------------------------------------


def test_sup_bracket_peak_at_zero():
    assert sup_norm_bracket(majorant_base(), 1) == (3.0, 3.0)


def test_sup_bracket_empty():
    assert sup_norm_bracket(make([]), 16) == (0.0, 0.0)


def test_sup_bracket_flipped_seed():
    lower, upper = sup_norm_bracket(flipped_base(), 4096)
    assert upper == 3.0
    assert lower <= upper
    # dense-grid oracle for the true sup
    theta = np.arange(1 << 16) / (1 << 16)
    oracle = float(np.max(np.abs(flipped_base().eval(theta))))
    assert lower <= oracle + 1e-12
    assert lower == pytest.approx(oracle, abs=1e-4)


def test_sup_bracket_orders():
    lower, upper = sup_norm_bracket(make([(0, 1), (5, -1)]), 64)
    assert 0 <= lower <= upper == 2.0


# -- NormEstimate contract --------------------------------------------------------


def test_norm_estimate_validation():
    with pytest.raises(ValueError):
        NormEstimate(value=-1.0, p=2.0, method="parseval")
    with pytest.raises(ValueError):
        NormEstimate(value=1.0, p=2.0, method="quadrature")  # no grid
    with pytest.raises(ValueError):
        NormEstimate(value=1.0, p=3.0, method="transfer")  # no mode count
    with pytest.raises(ValueError):
        NormEstimate(value=1.0, p=2.0, method="fft")


def test_norm_estimate_json():
    est = norm_quad(majorant_base(), 3.0)
    doc = est.to_json()
    assert set(doc) == {"value", "p", "method", "error_bound", "grid_size"}
    assert doc["method"] == "quadrature"
