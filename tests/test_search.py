import numpy as np
import pytest

import majorant.search as search_module
from majorant import (
    MajorantInstance,
    SearchBudgetError,
    exhaustive_roots,
    exhaustive_signs,
    majorant_ratio,
    norm_quad,
    phase_ascent,
    build,
    make,
)
from test_norms import CUBE_NORM_ALL_ONES, CUBE_NORM_FLIPPED

SEED_RATIO = CUBE_NORM_FLIPPED / CUBE_NORM_ALL_ONES  # ~1.0059874


# -- MajorantInstance ------------------------------------------------------------


def test_instance_validation():
    with pytest.raises(ValueError):
        MajorantInstance((), {})
    with pytest.raises(ValueError):
        MajorantInstance((0, 1), {2: 1.0})  # support outside lambda
    with pytest.raises(ValueError):
        MajorantInstance((0, 1), {0: 1.5})  # modulus over 1
    with pytest.raises(ValueError):
        MajorantInstance((1, 0), {0: 1.0})  # unsorted
    with pytest.raises(ValueError):
        MajorantInstance((-1, 0), {0: 1.0})  # negative frequency


def test_instance_tolerates_rounding_slack():
    MajorantInstance((0,), {0: complex(np.exp(1j * 0.3))})


def test_all_ones_and_vector():
    inst = MajorantInstance.all_ones((3, 0, 1))
    assert inst.lam == (0, 1, 3)
    assert inst.vector() == (1 + 0j, 1 + 0j, 1 + 0j)
    assert inst.sup_coeff() == 1.0


# -- majorant_ratio ----------------------------------------------------------------


def test_ratio_all_ones_is_one():
    inst = MajorantInstance.all_ones((0, 2, 5, 9))
    for p in (2.0, 3.0, 4.0):
        assert majorant_ratio(inst, p) == pytest.approx(1.0, rel=1e-12)


def test_ratio_seed_signs_at_p3():
    inst = MajorantInstance((0, 1, 3), {0: 1, 1: 1, 3: -1})
    assert majorant_ratio(inst, 3.0, 1e-10) == pytest.approx(SEED_RATIO, rel=1e-9)


def test_ratio_seed_signs_at_p4_exactly_one():
    inst = MajorantInstance((0, 1, 3), {0: 1, 1: 1, 3: -1})
    assert majorant_ratio(inst, 4.0) == 1.0


# -- exhaustive sign search ----------------------------------------------------------


def test_signs_seed_set_finds_flip():
    report = exhaustive_signs((0, 1, 3), 3.0, 1e-9)
    # oracle: score all four patterns directly with adaptive quadrature
    patterns = [(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)]
    den = norm_quad(make([(0, 1), (1, 1), (3, 1)]), 3.0, 1e-10).value
    scores = {
        pat: norm_quad(make(zip((0, 1, 3), pat)), 3.0, 1e-10).value / den
        for pat in patterns
    }
    best_score = max(scores.values())
    assert scores[(1, 1, -1)] == pytest.approx(best_score, rel=1e-9)
    assert report.best_coeffs == (1 + 0j, 1 + 0j, -1 + 0j)
    assert report.best_ratio == pytest.approx(best_score, rel=1e-8)
    assert report.method == "exhaustive-signs"
    assert report.evaluations >= 4


def test_signs_even_p_all_tie_at_one():
    report = exhaustive_signs((0, 1, 3), 4.0)
    assert report.best_ratio == pytest.approx(1.0, abs=1e-12)
    # ties resolve to the lexicographically smallest pattern: all plus
    assert report.best_coeffs == (1 + 0j, 1 + 0j, 1 + 0j)


def test_signs_two_element_set_is_flat():
    # 1 + e(theta) and 1 - e(theta) differ by theta -> theta + 1/2, so both
    # patterns give the same norm; oracle checks that, search returns 1.
    den = norm_quad(make([(0, 1), (1, 1)]), 3.0, 1e-10).value
    num = norm_quad(make([(0, 1), (1, -1)]), 3.0, 1e-10).value
    assert num == pytest.approx(den, rel=1e-9)
    report = exhaustive_signs((0, 1), 3.0)
    assert report.best_ratio == pytest.approx(1.0, rel=1e-8)


def test_signs_singleton():
    report = exhaustive_signs((5,), 3.0)
    assert report.best_ratio == pytest.approx(1.0, rel=1e-9)
    assert report.best_coeffs == (1 + 0j,)


def test_signs_budget_error():
    with pytest.raises(SearchBudgetError) as info:
        exhaustive_signs(tuple(range(30)), 3.0, budget=1 << 20)
    assert info.value.required == 1 << 29
    assert "phase_ascent" in str(info.value)


@pytest.mark.parametrize(
    "search, threads",
    [
        (lambda threads: exhaustive_signs(tuple(range(14)), 4.0, threads=threads), 4),
        # 3^8 = 6561 patterns: two scan chunks
        (lambda threads: exhaustive_roots(tuple(range(9)), 3.0, 3, threads=threads), 3),
    ],
    ids=["signs", "roots-q3"],
)
def test_signs_thread_count_does_not_change_report(search, threads):
    assert search(1) == search(threads)


def test_exhaustive_scores_each_pattern_once_plus_one_chunk(monkeypatch):
    lam = (0, 1, 3, 4, 6, 9, 10, 12, 13, 15, 18, 19, 21, 22)  # 2^13 patterns
    whole = exhaustive_signs(lam, 3.0)
    scored = []
    score = search_module._Scanner.ratios

    def counting(self, coeff_rows):
        scored.append(len(coeff_rows))
        return score(self, coeff_rows)

    monkeypatch.setattr(search_module._Scanner, "ratios", counting)
    # the best code, 3475, now lies in chunk 54 of 128
    monkeypatch.setattr(search_module, "_CHUNK", 64)
    assert exhaustive_signs(lam, 3.0) == whole
    assert sum(scored) <= 2**13 + 64


def test_signs_translation_and_dilation_invariance():
    base = exhaustive_signs((0, 1, 3), 3.0).best_ratio
    shifted = exhaustive_signs((5, 6, 8), 3.0).best_ratio  # Lambda + 5
    scaled = exhaustive_signs((0, 3, 9), 3.0).best_ratio  # 3 * Lambda
    assert shifted == pytest.approx(base, rel=1e-8)
    assert scaled == pytest.approx(base, rel=1e-8)


def test_signs_conjugation_invariance():
    report = exhaustive_signs((0, 1, 3), 3.0)
    inst = report.best_instance()
    conj = MajorantInstance(inst.lam, {n: c.conjugate() for n, c in inst.coeffs.items()})
    assert majorant_ratio(conj, 3.0) == pytest.approx(report.best_ratio, rel=1e-9)


# -- roots-of-unity search -------------------------------------------------------------


def test_roots_q2_reduces_to_signs():
    for lam in ((0, 1, 3), (0, 1, 3, 8, 9, 11, 24, 25, 27, 64)):
        signs = exhaustive_signs(lam, 3.0)
        roots = exhaustive_roots(lam, 3.0, 2)
        assert roots.best_coeffs == signs.best_coeffs
        assert roots.best_ratio == signs.best_ratio
        assert roots.evaluations == signs.evaluations
        assert (signs.method, roots.method) == ("exhaustive-signs", "exhaustive-roots")


def test_roots_q4_dominates_sign_search():
    signs = exhaustive_signs((0, 1, 3), 3.0)
    roots = exhaustive_roots((0, 1, 3), 3.0, 4)
    assert roots.best_ratio >= signs.best_ratio - 1e-9


def test_roots_even_p_stays_at_one():
    report = exhaustive_roots((0, 1, 3), 4.0, 4)
    assert report.best_ratio == pytest.approx(1.0, abs=1e-12)


def test_roots_budget_error():
    with pytest.raises(SearchBudgetError):
        exhaustive_roots(tuple(range(16)), 3.0, 8, budget=1 << 24)


# -- phase ascent -----------------------------------------------------------------------


def test_ascent_matches_exhaustive_on_seed_set():
    report = phase_ascent((0, 1, 3), 3.0, restarts=8, seed=0)
    assert report.best_ratio >= SEED_RATIO - 1e-6
    assert report.method == "phase-ascent"
    assert report.evaluations > 0


def test_ascent_parseval_flat_at_p2():
    report = phase_ascent((0, 2, 7, 11), 2.0, restarts=3, seed=1)
    assert report.best_ratio == pytest.approx(1.0, abs=1e-9)


def test_ascent_never_below_all_ones():
    report = phase_ascent((0, 4, 9), 3.0, restarts=2, seed=3)
    assert report.best_ratio >= 1.0 - 1e-9


def test_ascent_accepts_construction_signs_as_start():
    cons = build(10, 2)
    inst = MajorantInstance(cons.lam, {n: complex(s) for n, s in cons.signs.items()})
    target = majorant_ratio(inst, 3.0)
    report = phase_ascent(
        cons.lam, 3.0, restarts=1, seed=0, extra_starts=[cons.signs]
    )
    assert report.best_ratio >= target - 1e-9


def test_ascent_deterministic_given_seed():
    a = phase_ascent((0, 1, 3, 7), 3.0, restarts=3, seed=42)
    b = phase_ascent((0, 1, 3, 7), 3.0, restarts=3, seed=42)
    assert a == b


# -- even-p global property over the whole stack ------------------------------------------


def test_even_p_searches_never_beat_one(rng):
    for _ in range(5):
        size = int(rng.integers(2, 7))
        lam = tuple(sorted(int(v) for v in rng.choice(32, size=size, replace=False)))
        for p in (2.0, 4.0):
            report = exhaustive_signs(lam, p)
            assert report.best_ratio <= 1.0 + 1e-9
