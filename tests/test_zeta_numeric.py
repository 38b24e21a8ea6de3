"""Limit evaluators, rational recognition, and the limit-identity checks.

Anchor constants below are written directly against mpmath's pi and zeta so
that the evaluator is tested against an independent numeric source, not
against itself.
"""

import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from starsum import families
from starsum import zeta_numeric as zn
from starsum.cli import main
from starsum.exact_eval import _ensure, mhs, rational
from starsum.families import (
    BIG,
    C21,
    ONE_C21,
    ONES_C,
    TWO_ONE,
    TWO_ONE_TWO,
    FamilySpec,
    build_lhs,
    build_rhs,
    enumerate_specs,
)
from starsum.index_core import SignedIndex, pi_expand_weighted
from starsum.zeta_numeric import (
    DEFAULT_TOL,
    RECOGNITION_DEN_CAP,
    EvaluationError,
    NumericValue,
    bernoulli,
    beta_coeff,
    clear_value_cache,
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
from test_acceptance import SWEEP_GRIDS


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
            bernoulli(-1)
        with pytest.raises(ValueError, match="outside table range"):
            beta_coeff(41)


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
        for tol in (math.inf, math.nan):
            with pytest.raises(ValueError, match="tol must be positive"):
                zeta((2,), tol)
        with pytest.raises(ValueError, match="unknown method"):
            zeta((2,), method="newton")
        with pytest.raises(ValueError, match="unknown method"):
            zeta((2,), method="mollified")


def _value_sample():
    """A seeded sample of 96 limits, each taken with a cold value cache.

    16 admissible indices of depth 1-5 with parts +-1..+-5, each through
    zeta and zeta_star at tol 1e-6, 1e-30 and 1e-45; the last is below the
    first configuration's floor, so it runs the 256/512-seed, 70-digit one.
    """
    rng = random.Random(20261020)
    pool = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)
    count = 0
    while count < 96:
        parts = tuple(rng.choice(pool) for _ in range(rng.randint(1, 5)))
        if parts[0] == 1:
            continue
        for tol in (1e-6, 1e-30, 1e-45):
            for evaluate in (zeta, zeta_star):
                clear_value_cache()
                yield evaluate(parts, tol)
                count += 1


class TestValueDigest:
    """The exact mpf bits of the seeded sample of _value_sample.

    test_sample_digest pins a sha256 over the bits the fixed-point kernel
    gives: a change to the chain that moves any bit of any value fails
    there.  test_sample_close_to_parent holds every value within 1e-48
    (50-digit configuration) or 1e-68 (70-digit) relative of the bits of
    the mpf recurrence that the kernel replaced, listed in MPF_RECURRENCE
    as sign, hex mantissa and exponent.
    """

    DIGEST = "799bcc3739bf46df9ca2fd46195936c3527ded4db1ceb8d6d55e37b088cfdf3d"

    MPF_RECURRENCE = """
1 1021c03cccc87107beb82389fe9fe100c8a16397bff -186
1 f42814ecce7d6cd3620bd4b48bd0fd34e76b76cdeb -168
1 1021c03cccc87107beb82389fe9fe100c8a16397bff -186
1 f42814ecce7d6cd3620bd4b48bd0fd34e76b76cdeb -168
1 204380799990e20f7d704713fd3fc2019142c72f7fd6b89d4d7bbfc8ad -247
1 f42814ecce7d6cd3620bd4b48bd0fd34e76b76cdeb118becba57ab39f8b -236
1 19695b6f90217ff1669a95cdaebb94cdf9ee4a3741b -187
0 d4bfd519fa0b5ece9d91dd791e6622024f6be5350d -168
1 19695b6f90217ff1669a95cdaebb94cdf9ee4a3741b -187
0 d4bfd519fa0b5ece9d91dd791e6622024f6be5350d -168
1 32d2b6df2042ffe2cd352b9b5d77299bf3dc946e83701d8ad13a8fe25c5 -252
0 6a5fea8cfd05af674ec8eebc8f33110127b5f29a86c6aa559f6e881b7d3 -235
1 13a3715960f923b2392bb18c733f200df85cb373ccb -188
0 6841815dbafb2fc819b4540003d90fbab8095cb075 -167
1 13a3715960f923b2392bb18c733f200df85cb373ccb -188
0 6841815dbafb2fc819b4540003d90fbab8095cb075 -167
1 9d1b8acb07c91d91c95d8c6399f9006fc2e59b9e6626c1d5f0e73716e85 -255
0 6841815dbafb2fc819b4540003d90fbab8095cb07519004caacbc81676f -235
1 1cd97007680931d452a2a0a86d9d8bea8a4113d1523 -169
1 1cd97007680931d452a2a0a86d9d8bea8a4113d1523 -169
1 1cd97007680931d452a2a0a86d9d8bea8a4113d1523 -169
1 1cd97007680931d452a2a0a86d9d8bea8a4113d1523 -169
1 7365c01da024c7514a8a82a1b6762faa29044f228bb738232e7baae0271 -235
1 7365c01da024c7514a8a82a1b6762faa29044f228bb738232e7baae0271 -235
1 162e42fefa39ef35793c7673007e5ed5e81e712eba1 -169
1 162e42fefa39ef35793c7673007e5ed5e81e712eba1 -169
1 162e42fefa39ef35793c7673007e5ed5e81e712eba1 -169
1 162e42fefa39ef35793c7673007e5ed5e81e712eba1 -169
1 b17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8bb -236
1 b17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8bb -236
1 172d7e8fabeddb333c58ae86ad2c4b4bb4fd982af19 -174
0 17e3dd001183d198109cbb65ec52f5cdb0f22fcefed -168
1 172d7e8fabeddb333c58ae86ad2c4b4bb4fd982af19 -174
0 17e3dd001183d198109cbb65ec52f5cdb0f22fcefed -168
1 5cb5fa3eafb76cccf162ba1ab4b12d2ed3f660abc64257ca2723f5dca7d -240
0 bf1ee8008c1e8cc084e5db2f6297ae6d87917e77f6ab5220c146615d695 -235
0 35f1b9115d887421579bb30c7242ee6dfe24f1ca4d -170
1 1e40d5ab3d90f9d474d74dbe5fe1484ec5cffed66b3 -169
0 35f1b9115d887421579bb30c7242ee6dfe24f1ca4d -170
1 1e40d5ab3d90f9d474d74dbe5fe1484ec5cffed66b3 -169
0 35f1b9115d887421579bb30c7242ee6dfe24f1ca4ceed47fde7124c35db -238
1 1e40d5ab3d90f9d474d74dbe5fe1484ec5cffed66b36050c98aa92f2c6f -233
1 1a42ae9d31214c97ae3868eafdb2d2aad7c3c934d61 -195
1 1f1181ea3543bc93a9daf8a23860d2024e048a8db0b -169
1 1a42ae9d31214c97ae3868eafdb2d2aad7c3c934d61 -195
1 1f1181ea3543bc93a9daf8a23860d2024e048a8db0b -169
1 690aba74c485325eb8e1a3abf6cb4aab5f0f24d3583b52e061484796de5 -261
1 f88c0f51aa1de49d4ed7c511c30690127024546d854cf3cdd8755c97251 -236
1 d8cdd52195e1a525c5413218f1e49ff51c38f43bf5 -192
0 1d0c8770b4e3967a5f25e89099924eea12f14b33219 -169
1 d8cdd52195e1a525c5413218f1e49ff51c38f43bf5 -192
0 1d0c8770b4e3967a5f25e89099924eea12f14b33219 -169
1 6c66ea90caf0d292e2a0990c78f24ffa8e1c7a1dfab24b54d6898bbc671 -259
0 1d0c8770b4e3967a5f25e89099924eea12f14b33217f96dbe4ae05f1941 -233
0 682079b5222f304ac928fe78dc859287be93dde85 -167
1 77a48229824aa05361983993397dc0ba1289db1e41 -167
0 682079b5222f304ac928fe78dc859287be93dde85 -167
1 77a48229824aa05361983993397dc0ba1289db1e41 -167
0 d040f36a445e60959251fcf1b90b250f7d27bbd08efabd19afa1346f471 -240
1 ef490453049540a6c330732672fb81742513b63c82bef048edc4dffe0c7 -236
0 1c57a1a247d84ce10e7cf623cef1d7493b8811bc09d -174
1 1f0da666b63e7b0e772043a5a4fbd107ebe4e5d6dd5 -169
0 1c57a1a247d84ce10e7cf623cef1d7493b8811bc09d -174
1 1f0da666b63e7b0e772043a5a4fbd107ebe4e5d6dd5 -169
0 715e86891f61338439f3d88f3bc75d24ee2046f0271cf394303693afe43 -240
1 f86d3335b1f3d873b9021d2d27de883f5f272eb6ea7a0e4b79ed778c10b -236
0 fdca884822a5206636e5b0e69bbc42cf21217d9fe7 -183
0 116d4d3887a40d806a5fadbc4ef7b09e3d4b3af1ea3 -168
0 fdca884822a5206636e5b0e69bbc42cf21217d9fe7 -183
0 116d4d3887a40d806a5fadbc4ef7b09e3d4b3af1ea3 -168
0 7ee54424115290331b72d8734dde21679090becff32cc15c49e1e9ca4ed -250
0 8b6a69c43d206c0352fd6de277bd84f1ea59d78f51ac1c9a282419dfdb5 -235
0 17be5d11fc87164f24066976173e8c9721564c5542f -172
1 1c23cf497c191eee6b99c583cd2418a3573d0a74ed1 -169
0 17be5d11fc87164f24066976173e8c9721564c5542f -172
1 1c23cf497c191eee6b99c583cd2418a3573d0a74ed1 -169
0 5ef97447f21c593c9019a5d85cfa325c8559315485977b251fd7a8ad84d -238
1 e11e7a4be0c8f7735cce2c1e6920c51ab9e853a77c6fbf2a49b86b56b9d -236
1 6eb178d909d559f43b5cfb2fa4460d894e9668310b -177
1 1ab7eca48505b2e7ba82cae305d22da56fe93bf6661 -169
1 6eb178d909d559f43b5cfb2fa4460d894e9668310b -177
1 1ab7eca48505b2e7ba82cae305d22da56fe93bf6661 -169
1 dd62f1b213aab3e876b9f65f488c1b129d2cd06215a3bd29fd304856ccd -246
1 6adfb2921416cb9eea0b2b8c1748b695bfa4efd998691ea1ecd48d3a587 -235
0 1c817235852e0d2748be195437eeac5835831c4dfaf -174
0 14637751d35b17d09fd9fe8c43d421d9fe6e8870fd9 -168
0 1c817235852e0d2748be195437eeac5835831c4dfaf -174
0 14637751d35b17d09fd9fe8c43d421d9fe6e8870fd9 -168
0 e40b91ac2970693a45f0caa1bf7562c1ac18e26fd70d313879743b343e3 -241
0 a31bba8e9ad8be84fecff4621ea10ecff3744387ec559ca83711f3d5841 -235
0 e3819d48330b7b4db0ce79065786e61f308f77a587 -180
0 382c6a67ea3fb80bb361505d91d297cef23b61fda9 -166
0 e3819d48330b7b4db0ce79065786e61f308f77a587 -180
0 382c6a67ea3fb80bb361505d91d297cef23b61fda9 -166
0 e3819d48330b7b4db0ce79065786e61f308f77a586a4e59c33e0674d299 -248
0 e0b1a99fa8fee02ecd854176474a5f3bc8ed87f6a3f36d8c0d793e4a8f7 -236"""

    def test_sample_digest(self):
        digest = hashlib.sha256()
        notes = set()
        for value in _value_sample():
            digest.update(repr(value.value._mpf_).encode() + b"\n")
            notes.add(value.method_note)
        assert notes == {"tail-chain seeds 128/256 dps 50",
                         "tail-chain seeds 256/512 dps 70"}
        assert digest.hexdigest() == self.DIGEST

    def test_sample_close_to_parent(self):
        rel = {"tail-chain seeds 128/256 dps 50": 1e-48,
               "tail-chain seeds 256/512 dps 70": 1e-68}
        rows = self.MPF_RECURRENCE.strip().split("\n")
        assert len(rows) == 96
        for value, row in zip(_value_sample(), rows):
            sign, man, exp = row.split()
            man = int(man, 16)
            old = mp.make_mpf((int(sign), man, int(exp), man.bit_length()))
            with mp.workdps(100):
                distance = abs(value.value - old) / abs(old)
            assert distance <= rel[value.method_note], row

    def test_clear_empties_the_chain_caches(self):
        # a cold evaluation must recompute everything, as a new process does
        zeta_star((3, -2, 2), 1e-6)
        # every functools cache of the module, found as perfbench's cold()
        # finds them, so that a new one cannot be missed by clear
        cached = [f for f in vars(zn).values()
                  if callable(getattr(f, "cache_clear", None))]
        assert cached and all(f.cache_info().currsize for f in cached)
        assert zn._VALUE_CACHE
        clear_value_cache()
        assert not any(f.cache_info().currsize for f in cached)
        assert not zn._VALUE_CACHE


def _random_series(rng, low, cap):
    """Up to 6 random rational terms with exponents low..cap, as a list
    indexed by the exponent 0..cap."""
    exponents = rng.sample(range(low, cap + 1), min(6, cap + 1 - low))
    terms = {e: Fraction(rng.randint(-10 ** 6, 10 ** 6),
                         rng.randint(1, 10 ** 4)) for e in exponents}
    return [terms.get(e, Fraction(0)) for e in range(cap + 1)]


def _tail_equations_hold(cases=300, seed=20261018):
    """The defining equations of _tail_sum's outputs on seeded random input.

    S = sum_{k>m} P(k) gives S(m-1) - S(m) = P(m), and the alternating
    tail sum_{k>m} (-1)^k A(k) = (-1)^m Ahat(m) gives -Ahat(m-1) - Ahat(m)
    = A(m); both are exact through exponent cap.  The input rows go in as
    integers over their common denominator.
    """
    rng = random.Random(seed)
    for _ in range(cases):
        cap = rng.randint(2, 90)
        plain = _random_series(rng, 2, cap)
        alt = _random_series(rng, 1, cap)
        den = math.lcm(*(c.denominator for c in plain + alt))
        out_den, tail, alt_tail = zn._tail_sum(
            den, [int(c * den) for c in plain], [int(c * den) for c in alt],
            cap)
        back = zn._series_reexpand(tail, cap)
        if [Fraction(b - c, out_den) for b, c in zip(back, tail)] != plain:
            return False
        back = zn._series_reexpand(alt_tail, cap)
        if [Fraction(-b - c, out_den)
                for b, c in zip(back, alt_tail)] != alt:
            return False
    return True


class TestTailSums:
    def test_functional_equations(self):
        assert _tail_equations_hold()

    def test_flipped_b1_fails(self, monkeypatch):
        # negative control: the sign of B_1 = -1/2 in both weight rows
        weights = zn._tail_weights

        def flipped(cap):
            den, plain, alt = weights(cap)
            return (den, plain[:1] + (-plain[1],) + plain[2:],
                    (-alt[0],) + alt[1:])
        monkeypatch.setattr(zn, "_tail_weights", flipped)
        assert not _tail_equations_hold(cases=5)

    def test_divergent_plain_tail(self):
        zeros = (0,) * 11
        with pytest.raises(ValueError, match="divergent plain tail"):
            zn._tail_sum(1, (0, 1) + zeros[2:], zeros, 10)
        with pytest.raises(ValueError, match="divergent alternating tail"):
            zn._tail_sum(1, zeros, (1,) + zeros[1:], 10)

    def test_levels_in_lowest_terms(self):
        # every level of the seeded sample's indices, at both caps
        rng = random.Random(20261020)
        pool = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)
        checked = 0
        while checked < 200:
            parts = tuple(rng.choice(pool) for _ in range(rng.randint(1, 8)))
            if parts[0] == 1:
                continue
            weight = sum(map(abs, parts))
            for eq, lt in ((0, 1), (1, 1), (1, 2)):
                for cap in (weight + 20, weight + 32):
                    for i in range(len(parts)):
                        den, plain, alt = zn._chain_level(parts[:i + 1],
                                                          eq, lt, cap)
                        assert den > 0
                        assert type(plain) is type(alt) is tuple
                        assert len(plain) == len(alt) == cap + 1
                        assert math.gcd(den, *plain, *alt) == 1
                        checked += 1


def _split_misses(n, cases=16, seed=20261021):
    """The seeded cases where the tail chain misses its exact split at n.

    Split the chain's value at N: with U_i the tail function of the i
    outermost parts (all indices above N) and L_N the exact (eq, lt) list of
    the rest (all indices at most N), the value is sum_{i=0..d} U_i(N) *
    L_N(s_(i+1)..s_d), with U_0 = 1 and L_N(()) = 1.  U_i(N) is the level
    expansion _chain_level(s[:i]) summed exactly at the even N, so the split
    shares none of the fixed-point kernel and its only error is the
    truncation of the expansions at cap.  A case misses when the split and
    _chain_eval at tol 1e-30 differ by more than the bound it returns.
    """
    rng = random.Random(seed)
    kinds = ((0, 1), (1, 1), (1, 2), (1, 3))
    pool = (-3, -2, -1, 1, 2, 3)
    misses = []
    for case in range(cases):
        parts = (1,)
        while parts[0] == 1:
            parts = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))
        eq, lt = kinds[case % len(kinds)]
        cap = sum(map(abs, parts)) + zn._EXTRA_ORDERS
        split = Fraction(_ensure(parts, eq, lt, n)[n])  # U_0 = 1
        for i in range(1, len(parts) + 1):
            den, plain, alt = zn._chain_level(parts[:i], eq, lt, cap)
            num = 0
            for p, q in zip(plain, alt):  # (-1)^N = 1
                num = num * n + p + q
            upper = Fraction(num, den * n ** cap)
            rest = parts[i:]
            split += upper * (_ensure(rest, eq, lt, n)[n] if rest else 1)
        try:
            value, bound, _ = zn._chain_eval(parts, eq, lt, 1e-30)
        except EvaluationError:
            misses.append((parts, eq, lt, "uncertified"))
            continue
        with mp.workdps(90):
            diff = abs(mpf(split.numerator) / split.denominator - value)
        if diff > bound:
            misses.append((parts, eq, lt, float(diff / bound)))
    return misses


class TestExactSplit:
    # the split at both seeds of the chain's first configuration
    SEEDS = (zn._SEED_N, zn._SEED_CHECK_N)

    def test_chain_agrees_with_the_split(self):
        clear_value_cache()
        assert {n: _split_misses(n) for n in self.SEEDS} == {
            n: [] for n in self.SEEDS}

    def test_off_bracket_fails(self, monkeypatch):
        # negative control: the kernel steps with the bracket of (eq, lt + 1)
        # from seeds of that same chain, so its doubling check certifies a
        # value that is off; only the split can see it
        chain_value = zn._chain_value

        def off(parts, eq, lt, seed_n, levels):
            cap = len(levels[0][1]) - 1
            return chain_value(parts, eq, lt + 1, seed_n,
                               [zn._chain_level(parts[:i + 1], eq, lt + 1, cap)
                                for i in range(len(parts))])

        monkeypatch.setattr(zn, "_chain_value", off)
        clear_value_cache()
        try:
            misses = {n: _split_misses(n) for n in self.SEEDS}
        finally:
            clear_value_cache()
        for n in self.SEEDS:
            assert len(misses[n]) == 16, n
            assert all(ratio != "uncertified" for *_, ratio in misses[n]), n


class TestClosedForms:
    """Limits with known closed forms, taken at tol 1e-45 (the 70-digit
    configuration): each lies within 1e-60 of its closed form, and the error
    estimate it carries is at least its actual error."""

    @pytest.mark.parametrize("s,star,closed_form", [
        ((2,), False, lambda: mp.pi ** 2 / 6),
        ((2, 1), False, lambda: mp.zeta(3)),
        ((-1,), False, lambda: -mp.log(2)),
        ((3, 1), True, lambda: mp.pi ** 4 / 72),
        ((2, 2, 2), True, lambda: 2 * (1 - mpf(2) ** -5) * mp.zeta(6)),
    ], ids=["z2", "z21", "z-1", "zs31", "zs222"])
    def test_within_1e60_and_the_estimate(self, s, star, closed_form):
        clear_value_cache()
        evaluate = zeta_star if star else zeta
        got = evaluate(s, 1e-45)
        with mp.workdps(90):
            actual = abs(got.value - closed_form())
        assert actual <= 1e-60
        assert actual <= got.error <= 1e-45
        # a cache hit carries the bound it was stored with
        assert evaluate(s, 1e-30).error == got.error

    def test_other_paths_estimates(self):
        partial = zeta((3,), 1e-6, method="partial")
        assert partial.error == partial_sum_tail_bound((3,), 4096) + 1e-11
        assert abs(partial.value - mp.zeta(3)) <= partial.error <= 1e-6
        assert zeta(()).error == 0.0
        # no estimate known: the expand path and a value made by hand
        assert zeta_star((3, 1), method="expand").error == math.inf
        assert NumericValue(mpf(1), 1e-6, "made by hand").error == math.inf


class TestValueCache:
    def test_eviction_keeps_values(self, monkeypatch):
        indices = [(2,), (3,), (-2,), (2, 1), (-3, 2), (4,)]
        cold = []
        for s in indices:
            clear_value_cache()
            cold.append(zeta(s, 1e-20).value._mpf_)
        monkeypatch.setattr(zn, "_VALUE_CACHE_LIMIT", 3)
        clear_value_cache()
        first = [zeta(s, 1e-20).value._mpf_ for s in indices]
        assert len(zn._VALUE_CACHE) == 3
        # the oldest entries went first
        assert list(zn._VALUE_CACHE) == [(s, 0, 1) for s in indices[3:]]
        again = [zeta(s, 1e-20).value._mpf_ for s in indices]
        assert first == cold and again == cold
        assert len(zn._VALUE_CACHE) == 3


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

    def test_star_chain_vs_expansion_tight(self):
        # The expansion's strict limits have the index's weight, so the same
        # expansion cap, and share its prefixes.  The weak chain run after
        # them must still agree with them and give the bits it gives from
        # cold caches: a chain memo that mixed strict and weak levels fails.
        rng = random.Random(20261021)
        pool = (-4, -3, -2, -1, 1, 2, 3, 4)
        seen = 0
        while seen < 12:
            parts = tuple(rng.choice(pool) for _ in range(rng.randint(2, 4)))
            if parts[0] == 1 or sum(abs(p) for p in parts) > 12:
                continue
            seen += 1
            clear_value_cache()
            cold = zeta_star(parts, 1e-30).value
            clear_value_cache()
            expand = zeta_star(parts, 1e-30, method="expand")
            chain = zeta_star(parts, 1e-30)
            assert abs(chain.value - expand.value) <= 2e-30, parts
            assert chain.value._mpf_ == cold._mpf_, parts

    def test_method_cross_checks(self):
        chain = zeta((3,), 1e-8)
        partial = zeta((3,), 1e-6, method="partial")
        assert "tail-chain" in chain.method_note
        assert "partial sum" in partial.method_note
        assert abs(chain.value - partial.value) <= 2e-6

    def test_partial_refuses_slow_indices(self):
        # Leading exponent 2 with a nested factor: the monotone tail bound
        # cannot certify 1e-6 below the internal n ceiling.  At depth 10 the
        # bound holds only from n = 8104, past the first n tried before, so
        # that index once raised ValueError instead.
        for s, tol in (((2, 1), 1e-6), ((2,) + (1,) * 9, 1e-2)):
            with pytest.raises(EvaluationError, match="tail bound"):
                zeta(s, tol, method="partial")


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


def _c1_limit_sample(count, seed=20261019):
    """count seeded c1 specs whose identity has a limit form: a big
    companion and a left side that does not lead with 1."""
    pool = [spec for family, (grid, _) in SWEEP_GRIDS.items()
            for spec in enumerate_specs(
                family, **{key + "_values": v for key, v in grid.items()})
            if build_rhs(spec).companion == BIG
            and build_lhs(spec).parts[0] != 1]
    assert len(pool) == 9986
    return random.Random(seed).sample(pool, count)


class TestAggregatedRightSide:
    """verify_mzsv_family takes its right side as one tail chain of the base
    in which an equal step weighs 1 and a strict step coeff_base.  The sum of
    the per-image strict limits is its oracle."""

    def test_against_per_image_limits(self):
        clear_value_cache()
        for spec in _c1_limit_sample(20):
            form = build_rhs(spec)
            terms = list(pi_expand_weighted(form.base, form.coeff_base,
                                            form.sign))
            chain, _, _ = zn._chain_eval(form.base.parts, 1, form.coeff_base,
                                         1e-30)
            per_image = zn._limit_sum(zeta, terms, 1e-30)
            with mp.workdps(80):
                assert abs(form.sign * chain - per_image) <= 1e-40, spec
            report = verify_mzsv_family(spec, 1e-30)
            assert report["within_tol"] is True, report
            assert report["rhs_terms"] == len(terms)

    @pytest.mark.parametrize("coeff_base", [1, 3, 5])
    def test_any_coeff_base_against_per_image_limits(self, coeff_base):
        # the c1 right sides all have coeff_base 2, where an equal and a
        # strict step of the bracket weigh the same; other weights tell
        # U(k-1) from U(k)
        rng = random.Random(20261021 + coeff_base)
        pool = (-4, -3, -2, -1, 1, 2, 3, 4)
        checked = 0
        while checked < 8:
            parts = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))
            if parts[0] == 1:
                continue
            terms = list(pi_expand_weighted(SignedIndex(parts), coeff_base))
            chain, _, _ = zn._chain_eval(parts, 1, coeff_base, 1e-30)
            per_image = zn._limit_sum(zeta, terms, 1e-30)
            with mp.workdps(80):
                assert abs(chain - per_image) <= 1e-40, parts
            checked += 1

    @pytest.mark.parametrize("perturb", [
        lambda form: form._replace(coeff_base=form.coeff_base + 1),
        lambda form: form._replace(sign=-form.sign),
    ], ids=["coeff_base", "sign"])
    def test_wrong_right_side_fails(self, monkeypatch, perturb):
        build = families.build_rhs
        monkeypatch.setattr(families, "build_rhs",
                            lambda spec: perturb(build(spec)))
        for spec in _c1_limit_sample(6):
            assert verify_mzsv_family(spec)["within_tol"] is False, spec


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

    @pytest.mark.parametrize("args", [(2, 2), (-2, -2), (2, 2, 2),
                                      (2, -2, -4)])
    def test_budget_follows_tol(self, args):
        # a budget that does not shrink with tol would pass any small diff
        report = hoffman_symmetric_check(args, 1e-30)
        assert report["within_tol"], report
        assert report["budget"] <= 1e-30
        assert report["recognition_ok"]

    @pytest.mark.parametrize("args,coefficient", [
        ((2, 2), "1/60"),
        ((-2, -2), "-1/240"),
        ((2, 2, 2), "1/840"),
        ((2, -2, -4), "-1/103680"),
        ((2, 4, 6, 8), "1/52934845713750"),
        ((-4, 6, -2, 2), "-139/581188608000"),
    ])
    def test_exact_prediction(self, args, coefficient):
        report = hoffman_symmetric_check(args)
        assert report["rhs_coefficient"] == coefficient
        assert report["within_tol"], report
        assert report["budget"] == DEFAULT_TOL / 2

    def test_prediction_past_the_recognition_cap(self):
        # the ratio was "recognized" as 0 with recognition_ok true; its
        # coefficient's denominator is past the 10^6 cap
        report = hoffman_symmetric_check((2, 4, 6, 8), 1e-6)
        assert report["within_tol"], report
        assert report["recognition_ok"] is not True

    def test_argument_guards(self):
        with pytest.raises(ValueError, match="even and nonzero"):
            hoffman_symmetric_check((3, 2))
        with pytest.raises(ValueError, match="even and nonzero"):
            hoffman_symmetric_check((2, 0))
        with pytest.raises(ValueError, match="capped at 4"):
            hoffman_symmetric_check((2, 2, 2, 2, 2))
        # int() would cut 2.9 to 2 and report "args": [2, 2]
        with pytest.raises(ValueError, match="^args must hold integers"):
            hoffman_symmetric_check((2.9, 2))


class TestProductIdentities:
    def test_pair_swap_products(self):
        for m in (0, 1):
            for n in (0, 1):
                report = verify_ittw_conj2("i", {"m": m, "n": n})
                assert report["within_tol"], report

    def test_odd_convolution(self):
        for n, tol in ((1, DEFAULT_TOL), (2, 1e-20)):
            report = verify_ittw_conj2("ii", {"n": n}, tol)
            assert report["within_tol"], report

    def test_even_convolution(self):
        for n, tol in ((1, DEFAULT_TOL), (2, 1e-20)):
            report = verify_ittw_conj2("iii", {"n": n}, tol)
            assert report["within_tol"], report

    def test_part_guards(self):
        with pytest.raises(ValueError, match="part must be"):
            verify_ittw_conj2("iv", {"n": 1})
        with pytest.raises(ValueError, match="needs n >= 1"):
            verify_ittw_conj2("ii", {"n": 0})
        with pytest.raises(ValueError, match="needs m, n >= 0"):
            verify_ittw_conj2("i", {"m": -1, "n": 0})
        with pytest.raises(ValueError, match="^n must be an integer"):
            verify_ittw_conj2("ii", {"n": 1.7})
        with pytest.raises(ValueError, match="^m must be an integer"):
            verify_ittw_conj2("i", {"m": "1", "n": 0})


class TestPiPowerFormulas:
    def test_exact_coefficients(self):
        assert yamamoto_rhs(1, 0) == Fraction(1, 72)
        assert yamamoto_rhs(1, 1) == Fraction(71, 15120)
        assert muneta_value(0) == 1
        assert muneta_value(1) == Fraction(1, 72)
        assert muneta_value(2) == Fraction(53, 362880)

    def test_two_formulas_agree_at_m_zero(self):
        # Same coefficient reached through two unrelated Bernoulli sums.
        for r in range(1, 9):
            assert yamamoto_rhs(r, 0) == muneta_value(r)

    def test_composition_sum_verifies(self):
        for r, m, tol, expected in ((1, 0, DEFAULT_TOL, "1/72"),
                                    (1, 1, DEFAULT_TOL, "71/15120"),
                                    (2, 0, 1e-20, "53/362880"),
                                    (1, 2, 1e-20, "131/129600")):
            report = verify_yamamoto(r, m, tol)
            assert report["within_tol"], report
            assert report["recognition_ok"], report
            assert report["recognized"] == expected
            assert report["pi_power"] == 4 * r + 2 * m

    def test_block_power_verifies(self):
        for n, tol, expected in ((1, DEFAULT_TOL, "1/72"),
                                 (2, 1e-20, "53/362880")):
            report = verify_muneta(n, tol)
            assert report["within_tol"]
            assert report["recognition_ok"]
            assert report["recognized"] == expected

    def test_domain_guards(self):
        with pytest.raises(ValueError, match="needs r >= 1"):
            yamamoto_rhs(0, 1)
        with pytest.raises(ValueError, match="nonnegative"):
            muneta_value(-1)


@pytest.mark.parametrize("call,name", [
    (lambda: mhs_float(3.0, (2,)), "n"),
    (lambda: check_zlobin(1.5), "n"),
    (lambda: check_three_n("1"), "n"),
    (lambda: muneta_value(1.0), "n"),
    (lambda: verify_muneta(1.5), "n"),
    (lambda: yamamoto_rhs(1.0, 0), "r"),
    (lambda: yamamoto_rhs(1, 0.5), "m"),
    (lambda: verify_yamamoto(1.5, 0), "r"),
    (lambda: verify_yamamoto(1, "0"), "m"),
])
def test_non_integers_name_the_argument(call, name):
    # each failed with an internal TypeError
    with pytest.raises(ValueError, match="^%s must be an integer" % name):
        call()


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
        with pytest.raises(ValueError, match="^e_values must hold integers"):
            verify_theorem81("i", (0.5, 0))


def _shifted(evaluate):
    """evaluate with 1e-3 added to every value it returns."""
    def shifted(s, tol=DEFAULT_TOL, method="chain"):
        got = evaluate(s, tol, method)
        return NumericValue(got.value + mpf("1e-3"), got.tol, got.method_note)
    return shifted


class TestVerdictsCanFail:
    """A verdict that never comes out False shows nothing: with every strict
    (or weak) limit off by 1e-3, each check must report the miss.  The
    verifiers and zeta_star's expand path look the evaluators up by module
    name, so patching the module reaches them all.  The right side of a
    family limit is one chain of its own, shifted by patching _chain_eval."""

    @pytest.mark.parametrize("check", [
        lambda: check_zlobin(2),
        lambda: check_three_n(1),
        lambda: hoffman_symmetric_check((2, 2)),
    ], ids=["zlobin", "three_n", "hoffman"])
    def test_shifted_strict_limits(self, monkeypatch, check):
        monkeypatch.setattr(zn, "zeta", _shifted(zn.zeta))
        assert check()["within_tol"] is False

    @pytest.mark.parametrize("check", [
        lambda: verify_mzsv_family(FamilySpec(TWO_ONE, a=(1, 1))),
        lambda: verify_yamamoto(1, 0),
        lambda: verify_muneta(1),
        lambda: verify_ittw_conj2("i", {"m": 1, "n": 0}),
        lambda: verify_ittw_conj2("ii", {"n": 1}),
        lambda: verify_ittw_conj2("iii", {"n": 1}),
    ], ids=["family", "yamamoto", "muneta", "ittw_i", "ittw_ii",
            "ittw_iii"])
    def test_shifted_weak_limits(self, monkeypatch, check):
        monkeypatch.setattr(zn, "zeta_star", _shifted(zn.zeta_star))
        assert check()["within_tol"] is False

    def test_shifted_right_side(self, monkeypatch):
        chain_eval = zn._chain_eval

        def shifted(parts, eq, lt, tol):
            value, error, note = chain_eval(parts, eq, lt, tol)
            # only the (1, coeff_base) chain of the right side, coeff_base 2
            return (value + mpf("1e-3") if lt == 2 else value), error, note
        monkeypatch.setattr(zn, "_chain_eval", shifted)
        spec = FamilySpec(TWO_ONE, a=(1, 1))
        assert build_rhs(spec).coeff_base == 2
        assert verify_mzsv_family(spec)["within_tol"] is False

    def test_expand_path_reads_zeta_by_name(self, monkeypatch):
        plain = zeta_star((2, 2), method="expand").value
        monkeypatch.setattr(zn, "zeta", _shifted(zn.zeta))
        moved = zeta_star((2, 2), method="expand").value
        # (2,2) expands to the two unit terms (2,2) and (4)
        assert abs(moved - plain - mpf("2e-3")) < 1e-20


def _ittw_suite(tol):
    """The within_tol verdicts of `starsum suite --suite ittw` at tol."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["suite", "--suite", "ittw", "--tol", repr(tol),
              "--format", "json"])
    return [item["within_tol"] for item in json.loads(out.getvalue())["items"]]


class TestTightTolerance:
    """Below 1e-50 the 70-digit chain still certifies each limit, so the
    sums, comparisons and ratios must carry as many digits as the tolerance
    asks for; at 50 digits their rounding alone exceeds the budget (or the
    recognition window)."""

    @pytest.mark.parametrize("check", [
        lambda tol: [verify_mzsv_family(FamilySpec(TWO_ONE, a=(1, 1)), tol)
                     ["within_tol"]],
        lambda tol: [check_zlobin(2, tol)["within_tol"]],
        lambda tol: [verify_muneta(1, tol)["within_tol"]],
        lambda tol: [verify_yamamoto(1, 0, tol)["within_tol"]],
        _ittw_suite,
        lambda tol: [verify_theorem81("i", (1, 0), tol)["recognition_ok"]],
    ], ids=["family", "zlobin", "muneta", "yamamoto", "ittw_suite",
            "theorem81"])
    def test_true_identities_pass_at_1e55(self, check):
        clear_value_cache()
        verdicts = check(1e-55)
        assert verdicts and all(v is True for v in verdicts)
