"""Limit evaluators, rational recognition, and the limit-identity checks.

Anchor constants below are written directly against mpmath's pi and zeta so
that the evaluator is tested against an independent numeric source, not
against itself.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from starsum.exact_eval import mhs, rational
from starsum.families import (
    C21,
    ONE_C21,
    ONES_C,
    TWO_ONE,
    TWO_ONE_TWO,
    FamilySpec,
)
from starsum.index_core import SignedIndex
from starsum.zeta_numeric import (
    DEFAULT_TOL,
    RECOGNITION_DEN_CAP,
    BernoulliTable,
    EvaluationError,
    NumericValue,
    bernoulli,
    beta_coeff,
    check_three_n,
    check_zlobin,
    hoffman_symmetric_check,
    mhs_float,
    muneta_value,
    partial_sum_tail_bound,
    recognize_rational,
    verify_ittw_conj2,
    verify_muneta,
    verify_mzsv_family,
    verify_theorem81,
    verify_yamamoto,
    yamamoto_rhs,
    zeta,
    zeta_star,
)


def close(value, target, tol):
    return abs(float(value) - float(target)) <= tol


class TestBernoulli:
    def test_known_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_odd_entries_vanish(self):
        assert all(bernoulli(2 * k + 1) == 0 for k in range(1, 20))

    def test_defining_recurrence(self):
        for m in range(1, 31):
            acc = sum(math.comb(m + 1, j) * bernoulli(j) for j in range(m + 1))
            assert acc == 0

    def test_beta_weights(self):
        assert beta_coeff(0) == 1
        assert beta_coeff(1) == Fraction(1, 6)
        assert beta_coeff(2) == Fraction(7, 360)

    def test_table_bounds(self):
        with pytest.raises(ValueError, match="outside table range"):
            bernoulli(81)
        with pytest.raises(ValueError, match="outside table range"):
            beta_coeff(41)
        with pytest.raises(ValueError, match="nonnegative"):
            BernoulliTable(-1)


class TestAnchors:
    def test_depth_one(self):
        assert close(zeta((2,), 1e-10).value, mp.pi ** 2 / 6, 1e-10)
        assert close(zeta((-2,), 1e-10).value, -(mp.pi ** 2) / 12, 1e-10)
        assert close(zeta((3,), 1e-10).value, mp.zeta(3), 1e-10)
        assert close(zeta((4,), 1e-10).value, mp.pi ** 4 / 90, 1e-10)

    def test_weak_pair_run(self):
        assert close(zeta_star((2, 2), 1e-9).value,
                     7 * mp.pi ** 4 / 360, 1e-9)
        assert close(zeta_star((2, 2, 2), 1e-9).value,
                     31 * mp.pi ** 6 / 15120, 1e-9)

    def test_classical_depth_two(self):
        assert close(zeta((2, 1), 1e-9).value, mp.zeta(3), 1e-9)
        assert close(zeta_star((2, 1), 1e-9).value, 2 * mp.zeta(3), 1e-9)
        assert close(zeta_star((3, 1), 1e-9).value, mp.pi ** 4 / 72, 1e-9)

    def test_empty_index(self):
        assert float(zeta(())) == 1.0
        assert zeta_star(()).method_note == "empty index"

    def test_divergent_rejected(self):
        with pytest.raises(ValueError, match="leading part"):
            zeta((1,))
        with pytest.raises(ValueError, match="leading part"):
            zeta_star((1, 2))

    def test_bad_tol_and_method(self):
        with pytest.raises(ValueError, match="tol must be positive"):
            zeta((2,), 0.0)
        with pytest.raises(ValueError, match="unknown method"):
            zeta((2,), method="newton")


class TestConvergenceContract:
    @pytest.mark.parametrize("s", [(3,), (2, 2), (-2, -2), (4, 1, 1)])
    def test_tightening_tol_is_consistent(self, s):
        loose = zeta(s, 1e-6)
        tight = zeta(s, 1e-7)
        assert abs(loose.value - tight.value) <= 1.1e-6
        assert loose.tol == 1e-6

    def test_star_side(self):
        loose = zeta_star((2, 1), 1e-6)
        tight = zeta_star((2, 1), 1e-7)
        assert abs(loose.value - tight.value) <= 1.1e-6


class TestPathConsistency:
    def test_star_chain_vs_expansion(self):
        rng = random.Random(11)
        pool = (-4, -3, -2, -1, 2, 3, 4)
        seen = 0
        while seen < 50:
            depth = rng.randint(1, 3)
            parts = tuple(rng.choice(pool) for _ in range(depth))
            if sum(abs(p) for p in parts) > 8:
                continue
            seen += 1
            chain = zeta_star(parts, 1e-8, method="chain")
            expand = zeta_star(parts, 1e-8, method="expand")
            assert abs(chain.value - expand.value) <= 2e-8, parts
            assert "strict limits" in expand.method_note

    def test_method_cross_checks(self):
        chain = zeta((3,), 1e-8)
        damped = zeta((3,), 1e-5, method="mollified")
        partial = zeta((3,), 1e-6, method="partial")
        assert "tail-chain" in chain.method_note
        assert "mollified" in damped.method_note
        assert "partial sum" in partial.method_note
        assert abs(chain.value - damped.value) <= 2e-5
        assert abs(chain.value - partial.value) <= 2e-6

    def test_mollified_refuses_tight_tol(self):
        with pytest.raises(EvaluationError, match="tol >= 1e-9"):
            zeta((3,), 1e-10, method="mollified")

    def test_partial_refuses_slow_indices(self):
        # Leading exponent 2 with a nested factor: the monotone tail bound
        # cannot certify 1e-6 below the internal n ceiling.
        with pytest.raises(EvaluationError, match="tail bound"):
            zeta((2, 1), 1e-6, method="partial")


class TestExactBridge:
    @pytest.mark.parametrize("s", [(2,), (3,), (2, 1), (-2,), (4, 2)])
    def test_partial_sums_land_inside_the_tail_bound(self, s):
        n = 10 ** 4
        bound = partial_sum_tail_bound(s, n)
        assert bound > 0
        limit = zeta(s, 1e-12)
        assert abs(mhs_float(n, s) - float(limit.value)) < bound

    def test_float_partial_sum_matches_exact(self):
        for s in ((2, 1), (-3, 2), (2, -1, 1)):
            exact = mhs(300, s)
            approx = mhs_float(300, s)
            assert abs(approx - float(exact)) < 1e-9

    def test_tail_bound_guards_small_n(self):
        with pytest.raises(ValueError, match="n too small"):
            partial_sum_tail_bound((2, 1), 100)


class TestRecognition:
    def test_exact_fractions(self):
        assert recognize_rational(mpf(3) / 7, 1e-12) == Fraction(3, 7)
        assert recognize_rational(mpf(5), 1e-9) == Fraction(5)
        assert recognize_rational(mpf(-1) / 103680, 1e-10) == \
            Fraction(-1, 103680)

    def test_prefers_the_best_convergent(self):
        # 1/213 sits inside the same window; the closer 71/15120 must win.
        x = mpf(71) / 15120
        assert recognize_rational(x, 1e-6) == Fraction(71, 15120)
        assert recognize_rational(mpf(11) / 1260, 1e-5) == Fraction(11, 1260)

    def test_none_when_nothing_fits(self):
        assert recognize_rational(mpf(1) / 3 + 5e-4, 1e-5, den_cap=10) is None
        assert recognize_rational(mp.pi, 1e-30) is None

    def test_window_validation(self):
        with pytest.raises(ValueError, match="window must be positive"):
            recognize_rational(mpf(1) / 2, 0.0)

    @given(p=st.integers(-10 ** 4, 10 ** 4), q=st.integers(1, 10 ** 6))
    @settings(max_examples=150, deadline=None)
    def test_cap_is_never_exceeded(self, p, q):
        assume(math.gcd(p, q) == 1)
        with mp.workdps(50):
            x = mpf(p) / q
        hit = recognize_rational(x, 1e-20)
        assert hit == Fraction(p, q)
        capped = recognize_rational(x, 1e-20, den_cap=97)
        if q <= 97:
            assert capped == Fraction(p, q)
        elif capped is not None:
            assert capped.denominator <= 97


class TestFamilyLimits:
    def test_depth_one_family_limit(self):
        report = verify_mzsv_family(FamilySpec(TWO_ONE, a=(1,)))
        assert report["within_tol"] is True
        assert report["diff"] <= report["budget"] <= 10 * DEFAULT_TOL
        assert report["rhs_terms"] == 1
        assert report["family"] == TWO_ONE

    @pytest.mark.parametrize("spec", [
        FamilySpec(TWO_ONE, a=(1, 1)),
        FamilySpec(TWO_ONE_TWO, a=(1, 1)),
        FamilySpec(C21, a=(0,), b=(0,), c=(3,)),
        FamilySpec(ONE_C21, a=(1, 0), b=(0,), c=(4,)),
    ])
    def test_limit_identities_hold(self, spec):
        report = verify_mzsv_family(spec)
        assert report["within_tol"], report

    def test_small_companion_has_no_limit(self):
        with pytest.raises(ValueError, match="no limit form"):
            verify_mzsv_family(FamilySpec(ONES_C, a=(1,), c=(3,)))

    def test_divergent_left_side(self):
        with pytest.raises(ValueError, match="leading part is 1"):
            verify_mzsv_family(FamilySpec(ONE_C21, a=(0,)))

    def test_pair_run_closed_form(self):
        for n in (1, 2, 3):
            report = check_zlobin(n)
            assert report["within_tol"], report
        with pytest.raises(ValueError):
            check_zlobin(0)

    def test_three_run_rescaling(self):
        for n in (1, 2):
            report = check_three_n(n)
            assert report["within_tol"], report
        with pytest.raises(ValueError):
            check_three_n(0)


class TestSymmetricSums:
    @pytest.mark.parametrize("args,expected", [
        ((2, 2), "1/60"),
        ((-2, -2), "-1/240"),
        ((2, 2, 2), "1/840"),
        ((2, -2, -4), "-1/103680"),
    ])
    def test_permutation_sums_recognize(self, args, expected):
        report = hoffman_symmetric_check(args)
        assert report["within_tol"], report
        assert report["recognition_ok"]
        assert report["recognized"] == expected
        assert report["pi_power"] == sum(abs(v) for v in args)

    def test_argument_guards(self):
        with pytest.raises(ValueError, match="even and nonzero"):
            hoffman_symmetric_check((3, 2))
        with pytest.raises(ValueError, match="even and nonzero"):
            hoffman_symmetric_check((2, 0))
        with pytest.raises(ValueError, match="capped at 4"):
            hoffman_symmetric_check((2, 2, 2, 2, 2))


class TestProductIdentities:
    def test_pair_swap_products(self):
        for m in (0, 1):
            for n in (0, 1):
                report = verify_ittw_conj2("i", {"m": m, "n": n})
                assert report["within_tol"], report

    def test_odd_convolution(self):
        report = verify_ittw_conj2("ii", {"n": 1})
        assert report["within_tol"], report

    def test_even_convolution(self):
        report = verify_ittw_conj2("iii", {"n": 1})
        assert report["within_tol"], report

    def test_part_guards(self):
        with pytest.raises(ValueError, match="part must be"):
            verify_ittw_conj2("iv", {"n": 1})
        with pytest.raises(ValueError, match="needs n >= 1"):
            verify_ittw_conj2("ii", {"n": 0})
        with pytest.raises(ValueError, match="needs m, n >= 0"):
            verify_ittw_conj2("i", {"m": -1, "n": 0})


class TestPiPowerFormulas:
    def test_exact_coefficients(self):
        assert yamamoto_rhs(1, 0) == Fraction(1, 72)
        assert yamamoto_rhs(1, 1) == Fraction(71, 15120)
        assert muneta_value(0) == 1
        assert muneta_value(1) == Fraction(1, 72)
        assert muneta_value(2) == Fraction(53, 362880)

    def test_two_formulas_agree_at_m_zero(self):
        # Same coefficient reached through two unrelated Bernoulli sums.
        for r in (1, 2, 3):
            assert yamamoto_rhs(r, 0) == muneta_value(r)

    def test_composition_sum_verifies(self):
        for m in (0, 1):
            report = verify_yamamoto(1, m)
            assert report["within_tol"], report
            assert report["recognition_ok"], report
            assert report["pi_power"] == 4 + 2 * m

    def test_block_power_verifies(self):
        report = verify_muneta(1)
        assert report["within_tol"]
        assert report["recognition_ok"]
        assert report["recognized"] == "1/72"

    def test_domain_guards(self):
        with pytest.raises(ValueError, match="needs r >= 1"):
            yamamoto_rhs(0, 1)
        with pytest.raises(ValueError, match="nonnegative"):
            muneta_value(-1)


class TestPermutedRunSums:
    def test_even_runs(self):
        report = verify_theorem81("i", (0, 0))
        assert report["recognized"] == "1/36"
        assert report["pi_power"] == 4
        # recognition only: no predicted coefficient, so no pass to claim
        assert report["recognition_ok"]
        assert "within_tol" not in report
        report = verify_theorem81("i", (1, 0))
        assert report["recognized"] == "7/2160"
        assert report["pi_power"] == 6

    def test_odd_runs_with_trailing(self):
        report = verify_theorem81("ii", (0, 0, 0))
        assert report["recognized"] == "11/1260"
        assert report["pi_power"] == 6
        assert report["terms"] == 6
        assert report["recognition_ok"]
        assert "within_tol" not in report

    def test_shape_guards(self):
        with pytest.raises(ValueError, match="even number of runs"):
            verify_theorem81("i", (0, 0, 0))
        with pytest.raises(ValueError, match="odd number of runs"):
            verify_theorem81("ii", (0, 0))
        with pytest.raises(ValueError, match="capped at 4 runs"):
            verify_theorem81("ii", (0, 0, 0, 0, 0))
        with pytest.raises(ValueError, match="part must be"):
            verify_theorem81("iii", (0, 0))
        with pytest.raises(ValueError, match="nonnegative"):
            verify_theorem81("i", (-1, 0))
