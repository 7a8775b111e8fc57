import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majorant import (
    DilatedProduct,
    FrequencyOverflowError,
    TrigPoly,
    flipped_base,
    majorant_base,
    make,
    product_of_dilates,
)


def direct_eval(terms, theta):
    """Independent evaluation oracle: plain complex arithmetic, no FFT."""
    return sum(c * cmath.exp(2j * cmath.pi * n * theta) for n, c in terms)


# -- construction and canonical form -----------------------------------------


def test_make_three_term_seed():
    P = make([(0, 1), (1, 1), (3, 1)])
    assert len(P) == 3
    assert dict(P.terms) == {0: 1 + 0j, 1: 1 + 0j, 3: 1 + 0j}
    assert P == majorant_base()


def test_make_cancellation_gives_empty():
    P = make([(0, 1), (0, -1)])
    assert len(P) == 0
    assert not P
    assert P.degree == 0


def test_make_merges_duplicates():
    P = make([(1, 1), (1, 1)])
    assert dict(P.terms) == {1: 2 + 0j}


def test_make_drop_tol_only_when_requested():
    pairs = [(0, 1e-14), (1, 1.0)]
    assert len(make(pairs)) == 2  # default never drops inexact values
    assert len(make(pairs, drop_tol=1e-12)) == 1


def test_make_rejects_non_integer_frequency():
    with pytest.raises(TypeError):
        make([(1.5, 1.0)])


def test_terms_iterate_in_ascending_frequency():
    P = make([(5, 1), (-3, 2), (0, 1)])
    assert list(P.terms) == [-3, 0, 5]
    assert P.degree == 5


def test_immutability():
    P = majorant_base()
    with pytest.raises(AttributeError):
        P._terms = {}
    with pytest.raises(TypeError):
        P.terms[0] = 5


# -- evaluation ---------------------------------------------------------------


def test_eval_at_zero_sums_coefficients():
    assert majorant_base().eval(0.0) == 3 + 0j
    assert flipped_base().eval(0.0) == 1 + 0j


def test_eval_at_half():
    # 1 + e(1/2) + e(3/2) = 1 - 1 - 1
    got = majorant_base().eval(0.5)
    want = direct_eval([(0, 1), (1, 1), (3, 1)], 0.5)
    assert got == pytest.approx(want, abs=1e-14)
    assert got.real == pytest.approx(-1.0, abs=1e-14)


def test_eval_matches_direct_oracle(rng):
    from conftest import random_int_poly

    for _ in range(20):
        P = random_int_poly(rng)
        theta = float(rng.random())
        want = direct_eval(P.terms.items(), theta)
        assert P.eval(theta) == pytest.approx(want, abs=1e-10)


def test_sample_uniform_matches_eval(rng):
    from conftest import random_int_poly

    for _ in range(10):
        P = random_int_poly(rng)
        m = int(rng.integers(1, 40))
        grid = P.sample_uniform(m)
        for j in (0, m // 2, m - 1):
            want = direct_eval(P.terms.items(), j / m)
            assert grid[j] == pytest.approx(want, abs=1e-9)


def test_sample_uniform_shifted(rng):
    P = make([(0, 1), (2, 1j), (-5, 0.5)])
    m = 16
    grid = P.sample_uniform(m, shift=0.5)
    for j in (0, 7, 15):
        want = direct_eval(P.terms.items(), (j + 0.5) / m)
        assert grid[j] == pytest.approx(want, abs=1e-12)


# -- algebra -------------------------------------------------------------------


def test_mul_by_empty_is_empty():
    assert not (majorant_base() * make([]))


def test_mul_conj_constant_coefficient_is_coeff_energy():
    Q = majorant_base()
    assert (Q * Q.conj()).coefficient(0) == 3 + 0j
    q = flipped_base()
    assert (q * q.conj()).coefficient(0) == 3 + 0j


def test_squared_modulus_squared_constant_coefficient():
    # Oracle: count quadruples a+b = c+d over {0,1,3} with the sign pattern.
    signs = {0: 1, 1: 1, 3: -1}
    ns = list(signs)
    oracle = sum(
        signs[a] * signs[b] * signs[c] * signs[d]
        for a in ns
        for b in ns
        for c in ns
        for d in ns
        if a + b == c + d
    )
    assert oracle == 15
    q = flipped_base()
    sq = q * q.conj()
    assert (sq * sq).coefficient(0) == complex(oracle)


def test_dilate_scales_frequencies():
    Q = majorant_base()
    assert set(Q.dilate(10).terms) == {0, 10, 30}
    assert Q.dilate(1) == Q
    assert not make([]).dilate(5)


def test_dilate_rejects_nonpositive():
    with pytest.raises(ValueError):
        majorant_base().dilate(0)


def test_product_of_dilates_two_digit():
    P = product_of_dilates(majorant_base(), 10, 2)
    assert sorted(P.terms) == [0, 1, 3, 10, 11, 13, 30, 31, 33]
    assert all(c == 1 + 0j for c in P.terms.values())


def test_product_of_dilates_signs():
    P = product_of_dilates(flipped_base(), 10, 2)
    assert P.coefficient(13) == -1 + 0j
    assert P.coefficient(33) == 1 + 0j
    assert P.coefficient(31) == -1 + 0j


def test_product_of_dilates_single_factor_is_identity():
    Q = majorant_base()
    assert product_of_dilates(Q, 7, 1) == Q


def test_product_of_dilates_overflow_fails_loudly():
    with pytest.raises(FrequencyOverflowError):
        product_of_dilates(majorant_base(), 1 << 40, 3)
    with pytest.raises(FrequencyOverflowError):
        DilatedProduct(majorant_base(), 1 << 40, 3)


def test_product_of_dilates_equals_repeated_mul(rng):
    from conftest import random_int_poly

    for _ in range(10):
        P = random_int_poly(rng, max_freq=4, max_terms=4)
        D, k = 11, 3
        want = P
        for i in range(1, k):
            want = want * P.dilate(D**i)
        assert product_of_dilates(P, D, k) == want


def test_dissociated_product_term_count():
    # degree < D/2 makes the dilated frequency sets dissociated: the product
    # has exactly (term count)^k terms, each coefficient a k-fold product.
    P = make([(0, 2), (1, 3), (2, -1)])
    D, k = 5, 3
    out = product_of_dilates(P, D, k)
    assert len(out) == len(P) ** k
    assert out.coefficient(2 + 2 * 5 + 2 * 25) == complex((-1) ** 3)
    assert out.coefficient(0) == complex(2**3)


# -- hypothesis properties -----------------------------------------------------

int_polys = st.lists(
    st.tuples(st.integers(-25, 25), st.integers(-5, 5)),
    max_size=6,
).map(lambda prs: make((n, complex(c)) for n, c in prs))


@settings(max_examples=60, deadline=None)
@given(int_polys, int_polys)
def test_mul_commutative(P, R):
    assert P * R == R * P


@settings(max_examples=40, deadline=None)
@given(int_polys, int_polys, int_polys)
def test_mul_associative(P, R, S):
    assert (P * R) * S == P * (R * S)


@settings(max_examples=60, deadline=None)
@given(int_polys)
def test_parseval_seed(P):
    want = complex(sum(abs(c) ** 2 for c in P.terms.values()))
    assert (P * P.conj()).coefficient(0) == pytest.approx(want, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(int_polys, st.integers(2, 9))
def test_dilate_is_multiplicative(P, D):
    R = make([(0, 1), (1, -2)])
    assert (P * R).dilate(D) == P.dilate(D) * R.dilate(D)


# -- DilatedProduct ------------------------------------------------------------


def test_dilated_product_matches_expansion():
    lazy = DilatedProduct(flipped_base(), 10, 2)
    dense = lazy.expand()
    assert dense == product_of_dilates(flipped_base(), 10, 2)
    assert lazy.degree == dense.degree == 33
    m = 512
    got = lazy.sample_uniform(m)
    want = dense.sample_uniform(m)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_dilated_product_rejects_shifted_grid():
    with pytest.raises(ValueError):
        DilatedProduct(majorant_base(), 8, 2).sample_uniform(64, shift=0.5)


# -- serialization -------------------------------------------------------------


def test_triples_round_trip(rng):
    from conftest import random_int_poly

    for _ in range(10):
        P = random_int_poly(rng)
        assert TrigPoly.from_triples(P.to_triples()) == P


def test_triples_are_sorted_lists():
    P = make([(3, -1), (0, 1), (1, 1)])
    assert P.to_triples() == [[0, 1.0, 0.0], [1, 1.0, 0.0], [3, -1.0, 0.0]]
