"""Exact evaluator tests, oracle-first.

Every recursive engine is checked against the definition-level enumeration
before anything else trusts it; the spot values used elsewhere in the suite
(11/8, 11/16, ...) are pinned here too.
"""

import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from starsum import exact_eval as ee
from starsum.index_core import SignedIndex, pi_expand_weighted

nonzero_small = st.integers(min_value=-4, max_value=4).filter(lambda v: v != 0)
oracle_indices = st.lists(nonzero_small, min_size=0, max_size=4).map(tuple)


def test_backend_is_gmpy2():
    # the pure-fractions fallback works but the package ships with gmpy2
    assert ee.RATIONAL_BACKEND == "gmpy2"


class TestRationalPlumbing:
    def test_rational_normalizes(self):
        assert ee.rational(2, 4) == ee.rational(1, 2)
        assert ee.rat_str(ee.rational(-3, 6)) == "-1/2"

    def test_rat_str_always_has_denominator(self):
        assert ee.rat_str(ee.rational(7)) == "7/1"


class TestOracleAgreement:
    """mhs / mhs_star vs direct enumeration of the defining sums."""

    def test_known_values(self):
        assert ee.mhs(2, (2, 1)) == ee.rational(1, 4)
        assert ee.mhs_star(2, (2, 1)) == ee.rational(11, 8)
        assert ee.mhs(3, (1,)) == ee.rational(11, 6)
        assert ee.mhs(2, (-1,)) == ee.rational(-1, 2)

    def test_empty_and_degenerate(self):
        assert ee.mhs(5, ()) == 1
        assert ee.mhs_star(0, ()) == 1
        assert ee.mhs(1, (2, 1)) == 0  # depth exceeds n
        assert ee.mhs_star(0, (2,)) == 0

    @given(st.integers(min_value=0, max_value=12), oracle_indices)
    @settings(max_examples=120, deadline=None)
    def test_strict_matches_oracle(self, n, parts):
        assert ee.mhs(n, parts) == ee.mhs_oracle(n, parts)

    @given(st.integers(min_value=0, max_value=12), oracle_indices)
    @settings(max_examples=120, deadline=None)
    def test_star_matches_oracle(self, n, parts):
        assert ee.mhs_star(n, parts) == ee.mhs_star_oracle(n, parts)

    def test_oracle_guards(self):
        with pytest.raises(ValueError):
            ee.mhs_oracle(100, (2,))
        with pytest.raises(ValueError):
            ee.mhs_star_oracle(4, (1,) * 6)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            ee.mhs(-1, (2,))


class TestMollified:
    def test_pinned_values(self):
        # direct: sum_k C(n,k)/C(n+k,k) k^-3 at n=2 is 2/3 + 1/48
        assert ee.mollified_big(2, (3,)) == ee.rational(11, 16)
        # C(n,k) weights at n=2: 2/1 + 1/8
        assert ee.mollified_small(2, (3,)) == ee.rational(17, 8)

    def test_against_direct_sum(self):
        n = 7
        for parts in ((2,), (-2,), (2, 1), (-3, 1)):
            head, tail = parts[0], parts[1:]
            expect = ee.rational(0)
            for k in range(1, n + 1):
                inner = ee.mhs(k - 1, tail)
                if inner == 0:
                    continue
                term = ee.rational(comb(n, k), comb(n + k, k))
                term *= ee.rational((-1) ** k if head < 0 else 1,
                                    k ** abs(head))
                expect += term * inner
            assert ee.mollified_big(n, parts) == expect

    def test_preconditions(self):
        with pytest.raises(ValueError):
            ee.mollified_big(0, (2,))
        with pytest.raises(ValueError):
            ee.mollified_big(3, ())


class TestCompanionSum:
    """The fused sweep kernel vs term-by-term expansion."""

    @pytest.mark.parametrize("base,coeff,sign,companion", [
        ((-2, -2, -2), 2, 1, "big"),
        ((3, 3), 2, 1, "big"),
        ((-3, -2), 2, -1, "big"),
        ((-2,), 1, -1, "small"),
        ((-4, -2, -3), 2, 1, "small"),
        ((-2, 3, -1), 3, -1, "big"),
    ])
    def test_matches_expansion(self, base, coeff, sign, companion):
        evaluate = (ee.mollified_big if companion == "big"
                    else ee.mollified_small)
        # the increments' denominators differ most at large n, which is what
        # the common-denominator pass has to get right
        for n in (1, 2, 5, 11, 50, 200):
            expect = ee.rational(0)
            for idx, c in pi_expand_weighted(SignedIndex(base), coeff, sign):
                expect += c * evaluate(n, idx)
            assert ee.pi_companion_sum(base, coeff, sign, companion,
                                       n) == expect

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            ee.pi_companion_sum((), 2, 1, "big", 3)
        with pytest.raises(ValueError):
            ee.pi_companion_sum((2,), 2, 1, "huge", 3)
        with pytest.raises(ValueError):
            ee.pi_companion_sum((2,), 2, 2, "big", 3)
        with pytest.raises(ValueError):
            ee.pi_companion_sum((2,), 2, 1, "big", 0)


class TestMemo:
    def test_stats_and_clear(self):
        ee.clear_memo()
        before = ee.memo_stats()
        assert set(before) == {"stored_values", "h_lists", "t_lists", "limit"}
        assert before["stored_values"] == 0
        ee.mhs(50, (2, 1))
        assert ee.memo_stats()["stored_values"] > 0
        ee.clear_memo()
        assert ee.memo_stats()["stored_values"] == 0

    def test_eviction_keeps_results_correct(self, monkeypatch):
        monkeypatch.setattr(ee, "_MEMO_LIMIT", 1000)
        try:
            rng = random.Random(7)
            for _ in range(20):
                n = rng.randint(1, 40)
                parts = tuple(rng.choice((-3, -2, -1, 1, 2, 3))
                              for _ in range(rng.randint(1, 3)))
                if parts and n <= 40:
                    assert ee.mhs(n, parts) == ee.mhs(n, parts)
            # values computed across evictions stay consistent with a fresh
            # cache
            ee.clear_memo()
            assert ee.mhs_star(30, (2, 1, 2)) == ee.mhs_star(30, (2, 1, 2))
        finally:
            ee.clear_memo()
