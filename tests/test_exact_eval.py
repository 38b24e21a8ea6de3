"""Exact evaluator tests, oracle-first.

Every recursive engine is checked against the definition-level enumeration
before anything else trusts it; the spot values used elsewhere in the suite
(11/8, 11/16, ...) are pinned here too.
"""

import hashlib
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

    def test_oracle_edge_values(self):
        # hand-computed from the definitions
        assert ee.mhs_oracle(0, (2,)) == 0
        assert ee.mhs_star_oracle(0, (-1,)) == 0
        assert ee.mhs_oracle(0, ()) == ee.mhs_star_oracle(0, ()) == 1
        assert ee.mhs_oracle(4, ()) == ee.mhs_star_oracle(4, ()) == 1
        # n < depth: no strict chain, one weak chain 1 >= 1 >= 1
        assert ee.mhs_oracle(2, (1, 1, 1)) == 0
        assert ee.mhs_star_oracle(1, (2, 1, 3)) == 1
        # a negative part contributes -1/k^|a| at odd k
        assert ee.mhs_oracle(1, (-1,)) == -1
        assert ee.mhs_oracle(3, (-2,)) == ee.rational(-31, 36)  # -1+1/4-1/9
        # (2,1), (3,1), (3,2): 1/2 - 1/3 - 1/12 and -1/4 - 1/9 + 1/18
        assert ee.mhs_oracle(3, (-1, 2)) == ee.rational(1, 12)
        assert ee.mhs_oracle(3, (2, -1)) == ee.rational(-11, 36)
        # (1,1), (2,1), (2,2): 1 - 1/2 + 1/4
        assert ee.mhs_star_oracle(2, (-1, -1)) == ee.rational(3, 4)

    def test_oracle_shares_no_code_with_the_engine(self, monkeypatch):
        rng = random.Random(11)
        cases = [(rng.randint(0, 9),
                  tuple(rng.choice((-3, -2, -1, 1, 2, 3))
                        for _ in range(rng.randint(1, 3))))
                 for _ in range(30)]
        expected = [(ee.mhs_oracle(n, s), ee.mhs_star_oracle(n, s))
                    for n, s in cases]
        engine = [ee.mhs(n, s) for n, s in cases]
        # a wrong per-term value must move the recurrence and only it
        monkeypatch.setattr(ee, "_term", lambda part, k, numerator=1:
                            ee.rational(numerator, k ** abs(part) + 1))
        ee.clear_memo()
        try:
            assert [(ee.mhs_oracle(n, s), ee.mhs_star_oracle(n, s))
                    for n, s in cases] == expected
            moved = [ee.mhs(n, s) != value
                     for (n, s), value in zip(cases, engine)]
            # every case with a nonzero sum moves
            assert moved == [n >= len(s) for n, s in cases]
        finally:
            ee.clear_memo()

    def test_oracle_guards(self):
        with pytest.raises(ValueError):
            ee.mhs_oracle(100, (2,))
        with pytest.raises(ValueError):
            ee.mhs_star_oracle(4, (1,) * 6)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            ee.mhs(-1, (2,))

    @pytest.mark.parametrize("evaluate", [
        ee.mhs, ee.mhs_star, ee.mhs_oracle, ee.mhs_star_oracle,
        ee.mollified_big, ee.mollified_small,
        pytest.param(lambda n, s: ee.pi_companion_sum(s, 1, 1, "big", n),
                     id="pi_companion_sum"),
    ])
    def test_non_integral_index_rejected(self, evaluate):
        # int() would cut (1.5,) to (1,) and give H_3(1) = 11/6
        with pytest.raises(ValueError, match="^index must hold integers"):
            evaluate(3, (1.5,))
        # mhs(1.5, (2, 1)) gave 0 through the n < depth shortcut; 3.0 and
        # 0.5 failed inside range or a list lookup
        for n in (1.5, 3.0, 0.5, 2.0, "3"):
            with pytest.raises(ValueError, match="^n must be an integer"):
                evaluate(n, (2, 1))


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

    @pytest.mark.parametrize("coeff_base", [1.5, 0, -1])
    def test_coeff_base_must_be_a_positive_integer(self, coeff_base):
        # the expansion oracle refuses these too (pi_expand_weighted)
        with pytest.raises(ValueError, match="coeff_base"):
            ee.pi_companion_sum((2, 1), coeff_base, 1, "big", 3)

    def test_coeff_base_true_is_one(self):
        assert (ee.pi_companion_sum((2, 1), True, 1, "big", 3)
                == ee.pi_companion_sum((2, 1), 1, 1, "big", 3))


class TestValueDigest:
    """sha256 over rat_str of a seeded sample of the three list kinds.

    Strict, weak and comma-or-merge lists share one memo and one grower, so
    the sample interleaves them on one base, with n from 1 to 200; a change
    to the recurrence or to the companion pass that moves any value fails
    here.
    """

    DIGEST = "716ecc3e0086ae43f0bc66c57efcd4a68f4d3bb54870fcfc3b3ffce4ec9ee928"

    def test_sample_digest(self):
        ee.clear_memo()
        rng = random.Random(20261019)
        digest = hashlib.sha256()
        count = 0
        for _ in range(12):
            parts = tuple(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
                          for _ in range(rng.randint(1, 4)))
            for n in (1, 2, 7, 30, 50, 200):
                values = [ee.mhs(n, parts), ee.mhs_star(n, parts)]
                for coeff in (1, 2, 3):
                    for sign in (1, -1):
                        for companion in ("big", "small"):
                            values.append(ee.pi_companion_sum(
                                parts, coeff, sign, companion, n))
                for value in values:
                    digest.update(ee.rat_str(value).encode() + b"\n")
                    count += 1
        assert count == 1008
        assert digest.hexdigest() == self.DIGEST


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

    def test_list_kinds_counted(self):
        # h_lists: strict, weak and coefficient-1 aggregates; t_lists: the rest
        ee.clear_memo()
        try:
            ee.mhs(10, (2, 1))
            assert ee.memo_stats()["h_lists"] == 2
            ee.mhs_star(10, (2, 1))
            assert ee.memo_stats()["h_lists"] == 4
            # the coefficient-1 aggregate is the mhs_star list itself
            ee.pi_companion_sum((2, 1), 1, 1, "big", 10)
            assert ee.memo_stats()["h_lists"] == 4
            assert ee.memo_stats()["t_lists"] == 0
            ee.pi_companion_sum((2, 1), 2, 1, "big", 10)
            assert ee.memo_stats()["t_lists"] == 2
        finally:
            ee.clear_memo()

    def test_eviction_keeps_results_correct(self, monkeypatch):
        monkeypatch.setattr(ee, "_MEMO_LIMIT", 1000)
        evictions = 0

        def checked(compute, expect):
            nonlocal evictions
            before = ee.memo_stats()["stored_values"]
            assert compute() == expect
            if ee.memo_stats()["stored_values"] < before:
                evictions += 1

        try:
            ee.clear_memo()
            rng = random.Random(7)
            for _ in range(20):
                n = rng.randint(1, 40)
                parts = tuple(rng.choice((-3, -2, -1, 1, 2, 3))
                              for _ in range(rng.randint(1, 3)))
                checked(lambda: ee.mhs(n, parts), ee.mhs_oracle(n, parts))
                checked(lambda: ee.mhs_star(n, parts),
                        ee.mhs_star_oracle(n, parts))
                coeff, sign = rng.randint(1, 3), rng.choice((1, -1))
                companion = rng.choice(("big", "small"))
                evaluate = (ee.mollified_big if companion == "big"
                            else ee.mollified_small)
                expect = ee.rational(0)
                for idx, c in pi_expand_weighted(SignedIndex(parts), coeff,
                                                 sign):
                    expect += c * evaluate(n, idx)
                checked(lambda: ee.pi_companion_sum(parts, coeff, sign,
                                                    companion, n), expect)
            assert evictions > 0
        finally:
            ee.clear_memo()


def test_drop_while_a_list_grows(monkeypatch):
    # At the limit exactly, the new outer list of (3, 2) is still stored;
    # storing it passes the limit, so its new tail (2,) drops the memo.
    # The outer list grows on, uncached and uncounted.
    try:
        ee.clear_memo()
        ee.mhs(10, (2, 1))
        monkeypatch.setattr(ee, "_MEMO_LIMIT", ee.memo_stats()["stored_values"])
        assert ee.mhs(12, (3, 2)) == ee.mhs_oracle(12, (3, 2))
        assert ee.memo_stats()["h_lists"] == 1  # only (2,) survives
        assert ee.memo_stats()["stored_values"] == 13
    finally:
        ee.clear_memo()
