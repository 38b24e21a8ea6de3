"""Exact evaluator tests, oracle-first.

Every recursive engine is checked against the definition-level enumeration
before anything else trusts it; the spot values used elsewhere in the suite
(11/8, 11/16, ...) are pinned here too.
"""

import ast
import hashlib
import itertools
import pathlib
import random
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import given, settings, strategies as st

from starsum import cli
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
        # a step weight (L/k)^|a| off by one must move the recurrence and
        # only it
        step_weight = ee._step_weight
        monkeypatch.setattr(ee, "_step_weight", lambda scale, part, k:
                            step_weight(scale, part, k) + 1)
        ee.clear_memo()
        try:
            assert [(ee.mhs_oracle(n, s), ee.mhs_star_oracle(n, s))
                    for n, s in cases] == expected
            outcomes = []
            for (n, s), value in zip(cases, engine):
                # each case grows on a cold memo.  The +1 gives a grown
                # integer that its lift (lcm(1..n)/lcm(1..k))^w need not
                # divide: the store refuses that value by name, and a value
                # it stores (a lift of 1, as at n = 1) is moved
                ee.clear_memo()
                try:
                    outcomes.append("moved" if ee.mhs(n, s) != value
                                    else "kept")
                except ArithmeticError as refusal:
                    assert str(refusal).startswith("list value L_")
                    assert str(refusal).endswith(
                        " is not over lcm(1..n)^weight")
                    outcomes.append("refused")
            # every case with a nonzero sum moves or is refused, and every
            # case that reads no list keeps its value
            assert [outcome != "kept" for outcome in outcomes] == [
                n >= len(s) for n, s in cases]
            assert {"moved", "refused"} <= set(outcomes)
        finally:
            ee.clear_memo()

    def test_oracle_guards(self):
        with pytest.raises(ValueError):
            ee.mhs_oracle(100, (2,))
        with pytest.raises(ValueError):
            ee.mhs_star_oracle(4, (1,) * 6)

    def test_negative_n_rejected(self):
        for evaluate in (ee.mhs, ee.mhs_oracle, ee.mhs_star_oracle):
            with pytest.raises(ValueError, match="^n must be >= 0"):
                evaluate(-1, (2,))

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
        # the defining weights, not kernel rows: the companions are summed
        # as Lemma 3.1 kernel sums, through C(n,k)/C(n+k,k) =
        # C(2n,n-k)/C(2n,n) and C(n,k) = C(n,n-k)
        weights = {
            ee.mollified_big: lambda n, k: ee.rational(comb(n, k),
                                                       comb(n + k, k)),
            ee.mollified_small: comb,
        }
        for n in (1, 2, 7, 30):
            for parts in ((2,), (-2,), (2, 1), (-3, 1), (-1, 2, -1)):
                head, tail = parts[0], parts[1:]
                for evaluate, weight in weights.items():
                    expect = ee.rational(0)
                    for k in range(1, n + 1):
                        inner = ee.mhs(k - 1, tail)
                        if inner == 0:
                            continue
                        term = weight(n, k) * ee.rational(
                            (-1) ** k if head < 0 else 1, k ** abs(head))
                        expect += term * inner
                    assert evaluate(n, parts) == expect, (evaluate, n, parts)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            ee.mollified_big(0, (2,))
        with pytest.raises(ValueError):
            ee.mollified_big(3, ())


def test_kernel_sum_matches_its_definition():
    # S(x, e) = sum_k H_{k-1}(x) K_{n,k} / k^e times lcm(1..n)^p, summed as
    # rationals from the oracle and comb, with no memo and no cached row.
    # Each x's list is grown past n first, so a row that read more of it
    # than H_0..H_{n-1} would be refused by its scale check
    ee.clear_memo()
    ee._kernel_sum.cache_clear()
    ee._h_row.cache_clear()
    rng = random.Random(2307)
    pool = (-3, -2, -1, 1, 2, 3)
    xs = [()] + [tuple(rng.choice(pool) for _ in range(depth))
                 for depth in (1, 2, 3) for _ in range(8)]
    checked = 0
    for x in xs:
        ee.mhs(24, x)
        oracle = [ee.mhs_oracle(k, x) for k in range(20)]
        for n in rng.sample(range(1, 21), 3):
            for kind, m, e in itertools.product("AB", (1, 2, 3, 4),
                                                (-1, 0, 1, 3)):
                sign = -1 if kind == "A" else 1
                total = sum((oracle[k - 1] * sign ** k * comb(m * n, n - k)
                             * Fraction(1, k) ** e for k in range(1, n + 1)),
                            Fraction(0))
                power = sum(map(abs, x)) + max(e, 0)
                scaled = total * lcm(*range(1, n + 1)) ** power
                assert scaled.denominator == 1, (x, e, kind, m, n)
                assert ee._kernel_sum(x, e, kind, m, n) == scaled, \
                    (x, e, kind, m, n)
                checked += 1
    assert checked == 25 * 3 * 32


@pytest.mark.parametrize("m,ns", [
    (m, range(65)) for m in (1, 2, 3, 4)] + [
    (m, (199, 200, 500)) for m in (1, 2)])
def test_kernel_row_matches_comb(m, ns):
    # the recurrence against the binomial definition, entry by entry; so
    # K[0] is C(mn, n), the 1/c_n that the companions divide by
    for n in ns:
        b_row = tuple(comb(m * n, n - k) for k in range(n + 1))
        a_row = tuple((-1) ** k * c for k, c in enumerate(b_row))
        assert ee._kernel_row("B", m, n) == b_row, (m, n)
        assert ee._kernel_row("A", m, n) == a_row, (m, n)


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

    @pytest.mark.parametrize("global_sign", [1.0, -1.0])
    def test_float_global_sign_refused(self, global_sign):
        # 1.0 passed the +-1 check and failed inside Fraction with a
        # TypeError
        with pytest.raises(ValueError, match="^global_sign must be an "
                           "integer, got %r$" % global_sign):
            ee.pi_companion_sum((2, 1), 2, global_sign, "big", 3)

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


class TestIntegerGrowth:
    """The lists are stored as integers on their natural scale,
    N_k = L_k * lcm(1..k)^weight: growth lifts them onto lcm(1..n)^weight,
    stores each new value by one checked division, and forms no rational;
    a reader forms each value it reads as one rational, once."""

    KINDS = ((0, 1), (1, 1), (1, 2), (1, 3), (0, 2), (0, 3))

    @staticmethod
    def expected(parts, eq, lt, n):
        # L_0..L_n from the oracle of the list kind (eq, lt)
        return [ee._oracle(k, parts, eq, lt) for k in range(n + 1)]

    @staticmethod
    def plant(parts, n, shift):
        # grow the strict list of parts to n, reading no value, then shift
        # its stored integers
        vals = ee._stored(parts, 0, 1, n)
        vals[:] = [v + shift(k) for k, v in enumerate(vals)]

    # the list stored before a fault is planted, and the list grown after
    # it: the list itself grows on, or only a list over its stored tail
    PLANTED = pytest.mark.parametrize("planted,grown", [((2, 1), (2, 1)),
                                                        ((1,), (3, 1))])

    @PLANTED
    def test_foreign_denominator_raises(self, monkeypatch, planted, grown):
        # a step weight off by one grows integers that their lift need not
        # divide, that is values not over lcm(1..k)^weight: the store
        # refuses the first such value by name instead of carrying it on,
        # and keeps no value of the refused growth
        stored_to, grown_to, named = {
            (2, 1): (10, 16, r"L_11\(1,\)"),  # the tail (1,) grows on
            (1,): (16, 12, r"L_2\(3, 1\)"),   # (1,) is read, not grown
        }[planted]
        ee.clear_memo()
        try:
            ee._stored(planted, 0, 1, stored_to)
            lengths = {key: len(vals) for key, vals in ee._lists.items()}
            step_weight = ee._step_weight
            monkeypatch.setattr(ee, "_step_weight", lambda scale, part, k:
                                step_weight(scale, part, k) + 1)
            with pytest.raises(ArithmeticError, match=r"^list value %s is "
                               r"not over lcm\(1\.\.n\)\^weight$" % named):
                ee.mhs(grown_to, grown)
            for key, length in lengths.items():
                assert len(ee._lists[key]) == length, key
            assert (ee.memo_stats()["stored_values"]
                    == sum(map(len, ee._lists.values())))
        finally:
            ee.clear_memo()

    @PLANTED
    def test_shift_inside_the_scale_moves_the_value(self, planted, grown):
        # an integer shift of N_k moves L_k by 1/lcm(1..k)^weight, which is
        # on the scale: growth takes it and carries it on, so the value it
        # gives is wrong, and the check is on the scale alone
        ee.clear_memo()
        try:
            self.plant(planted, 10, lambda k: 1)
            weight = sum(map(abs, planted))
            assert ee.mhs(10, planted) == (ee.mhs_oracle(10, planted)
                                           + ee.rational(1, lcm(*range(
                                               1, 11)) ** weight))
            assert ee.mhs(12, grown) != ee.mhs_oracle(12, grown)
        finally:
            ee.clear_memo()

    def test_growth_patterns_agree(self):
        # one call to n, one value per call, and random chunks interleaved
        # with lists that share suffixes all give the oracle's lists
        rng = random.Random(20261020)
        pool = (-4, -3, -2, -1, 1, 2, 3, 4)
        n = 12
        try:
            for case in range(16):
                eq, lt = self.KINDS[case % len(self.KINDS)]
                parts = tuple(rng.choice(pool)
                              for _ in range(rng.randint(1, 4)))
                ee.clear_memo()
                whole = list(ee._ensure(parts, eq, lt, n))
                assert whole == self.expected(parts, eq, lt, n), (parts, eq,
                                                                  lt)

                ee.clear_memo()
                for m in range(n + 1):
                    stepped = ee._ensure(parts, eq, lt, m)
                assert stepped == whole

                # the same tail under other heads, and the tail itself
                keys = [parts] + [(head,) + parts[1:]
                                  for head in rng.sample(pool, 2)]
                keys += [parts[1:]] if parts[1:] else []
                reached = dict.fromkeys(keys, 0)
                ee.clear_memo()
                while any(m < n for m in reached.values()):
                    key = rng.choice(keys)
                    reached[key] = min(n, reached[key] + rng.randint(1, 5))
                    ee._ensure(key, eq, lt, reached[key])
                    assert (ee.memo_stats()["stored_values"]
                            == sum(map(len, ee._lists.values())))
                assert ee._ensure(parts, eq, lt, n) == whole
                for key in keys[1:]:
                    assert ee._ensure(key, eq, lt, n) == self.expected(
                        key, eq, lt, n), (key, eq, lt)
        finally:
            ee.clear_memo()

    @pytest.mark.parametrize("pattern", ["one call", "stepped",
                                         "interleaved"])
    def test_stored_integers_are_on_their_natural_scale(self, pattern):
        # every stored N_k is the oracle's L_k times lcm(1..k)^weight, an
        # int, however the list and the lists beside it grew
        rng = random.Random(3401)
        pool = (-3, -2, -1, 1, 2, 3)
        n = 14
        try:
            for case in range(18):
                eq, lt = self.KINDS[case % len(self.KINDS)]
                parts = tuple(rng.choice(pool)
                              for _ in range(rng.randint(1, 4)))
                keys = [parts] + [(head,) + parts[1:]
                                  for head in rng.sample(pool, 2)]
                ee.clear_memo()
                if pattern == "one call":
                    for key in keys:
                        ee._stored(key, eq, lt, n)
                elif pattern == "stepped":
                    for m, key in itertools.product(range(n + 1), keys):
                        ee._stored(key, eq, lt, m)
                else:
                    reached = dict.fromkeys(keys, 0)
                    while any(m < n for m in reached.values()):
                        key = rng.choice(keys)
                        reached[key] = min(n,
                                           reached[key] + rng.randint(1, 5))
                        ee._stored(key, eq, lt, reached[key])
                assert ee.memo_stats()["rationals"] == 0
                for (key, key_eq, key_lt), vals in ee._lists.items():
                    weight = sum(map(abs, key))
                    assert all(type(v) is int for v in vals)
                    assert vals == [ee._oracle(k, key, key_eq, key_lt)
                                    * lcm(*range(1, k + 1)) ** weight
                                    for k in range(len(vals))], key
        finally:
            ee.clear_memo()

    def test_one_rational_per_new_value(self, monkeypatch):
        # growth forms no rational; a read forms each value it reads as
        # one rational N_k / lcm(1..k)^weight, once, and a later read
        # returns that object, whatever list read it first
        made = []
        make = ee._Q

        def counting(*args):
            made.append(make(*args))
            return made[-1]

        monkeypatch.setattr(ee, "_Q", counting)
        rng = random.Random(5)
        try:
            ee.clear_memo()
            cases = []
            for case in range(12):
                eq, lt = self.KINDS[case % len(self.KINDS)]
                parts = tuple(rng.choice((-3, -2, -1, 1, 2, 3))
                              for _ in range(rng.randint(1, 4)))
                cases.append((parts, eq, lt, rng.randint(5, 30)))
                ee._stored(*cases[-1])
            assert made == []
            first = {}
            for parts, eq, lt, n in cases:
                before = len(made)
                read = ee._ensure(parts, eq, lt, n)
                new = [k for k in range(n + 1) if (parts, eq, lt, k)
                       not in first]
                assert len(made) - before == len(new)
                for k in new:
                    first[(parts, eq, lt, k)] = read[k]
                assert all(read[k] is first[(parts, eq, lt, k)]
                           for k in range(n + 1))
            assert ee.memo_stats()["rationals"] == len(made) == len(first)
            ids = {id(value) for value in made}
            assert all(id(value) in ids for value in first.values())
            # reading everything again forms nothing
            for parts, eq, lt, n in cases:
                ee._ensure(parts, eq, lt, n)
                if lt == 1:
                    ee._h_value(n, parts, eq)
            assert ee.memo_stats()["rationals"] == len(made) == len(first)
        finally:
            ee.clear_memo()

    @pytest.mark.parametrize("evaluate", [ee.mhs, ee.mhs_star])
    def test_a_cold_call_forms_one_rational(self, monkeypatch, evaluate):
        # mhs and mhs_star read the one value they return: on a cold memo
        # a call grows its lists and forms exactly one rational, and the
        # same call again forms none
        made = []
        make = ee._Q

        def counting(*args):
            made.append(make(*args))
            return made[-1]

        monkeypatch.setattr(ee, "_Q", counting)
        try:
            for n, parts in ((1, (2,)), (12, (2, 1)), (30, (-3, 1, 2)),
                             (25, (1, 1, 1, -1))):
                ee.clear_memo()
                made.clear()
                value = evaluate(n, parts)
                assert made == [value]
                assert ee.memo_stats()["rationals"] == 1
                assert evaluate(n, parts) is value
                assert len(made) == 1
        finally:
            ee.clear_memo()


class TestListOracle:
    """_oracle(n, s, eq, lt) checks every list kind, not only the strict
    and weak ones: it agrees with the images route for the T lists and
    with the grown lists of every kind."""

    KINDS = ((0, 1), (1, 1), (1, 2), (1, 3), (1, 4), (0, 2), (0, 3))
    POOL = (1, 2, 3, -1, -2)

    @staticmethod
    def sample(seed, count, kinds, pool):
        rng = random.Random(seed)
        return [(rng.randint(0, 12),
                 tuple(rng.choice(pool) for _ in range(rng.randint(1, 4))))
                + rng.choice(kinds) for _ in range(count)]

    def test_agrees_with_the_images(self):
        # (1, c): the comma-or-merge images q of s, each weighted by
        # c^depth(q); (0, c): c^depth(s) times the strict sum
        kinds = [(eq, c) for eq in (0, 1) for c in (2, 3, 4)]
        for n, parts, eq, lt in self.sample(3, 60, kinds, self.POOL):
            if eq:
                images = pi_expand_weighted(SignedIndex(parts), lt)
                expect = sum((c * ee.mhs_oracle(n, q) for q, c in images),
                             ee.rational(0))
            else:
                expect = lt ** len(parts) * ee.mhs_oracle(n, parts)
            assert ee._oracle(n, parts, eq, lt) == expect, (n, parts, eq,
                                                            lt)

    def test_agrees_with_the_grown_lists(self):
        # one warm memo: the lists grow in steps and share suffixes
        cases = self.sample(14, 300, self.KINDS, self.POOL)
        ee.clear_memo()
        try:
            for n, parts, eq, lt in cases:
                assert (ee._ensure(parts, eq, lt, n)[n]
                        == ee._oracle(n, parts, eq, lt)), (n, parts, eq, lt)
            stats = ee.memo_stats()
            assert stats["hits"] > 0 and stats["grown"] > len(ee._lists)
        finally:
            ee.clear_memo()

    def test_missing_leading_factor_is_caught(self):
        # negative control: every nonempty chain carries one factor lt
        # besides its strict steps, so an oracle without it is the oracle
        # over lt, and it misses every nonzero case with lt >= 2
        nonzero = missed = 0
        ee.clear_memo()
        try:
            for n, parts, eq, lt in self.sample(14, 300, self.KINDS,
                                                self.POOL):
                value = ee._oracle(n, parts, eq, lt)
                if lt >= 2 and value:
                    nonzero += 1
                    missed += value / lt != ee._ensure(parts, eq, lt, n)[n]
        finally:
            ee.clear_memo()
        assert missed == nonzero > 150


class TestMemo:
    def test_stats_and_clear(self):
        ee.clear_memo()
        before = ee.memo_stats()
        assert set(before) == {"stored_values", "h_lists", "t_lists", "hits",
                               "grown", "rationals"}
        assert (before["stored_values"] == before["hits"] == before["grown"]
                == before["rationals"] == 0)
        ee.mhs(50, (2, 1))
        assert ee.memo_stats()["stored_values"] > 0
        assert ee.memo_stats()["rationals"] == 1
        ee.clear_memo()
        assert ee.memo_stats()["stored_values"] == 0
        assert ee.memo_stats()["rationals"] == 0
        assert ee._formed == {}

    def test_clear_empties_the_caches_read_off_the_lists(self):
        # a caller that clears the memo to free memory must not keep the H
        # rows or kernel sums read off the dropped lists
        caches = (ee._h_row, ee._kernel_sum, ee._term_weights)
        ee.mollified_big(40, (2, 1, 1))
        ee.mollified_small(40, (-1, 2))
        assert all(cache.cache_info().currsize for cache in caches)
        ee.clear_memo()
        assert [cache.cache_info().currsize for cache in caches] == [0, 0, 0]

    def test_hits_and_growths_counted(self):
        # hits: calls that find their list long enough; grown: lists grown
        ee.clear_memo()
        try:
            steps = (
                (lambda: ee.mhs(10, (2, 1)), 0, 2),  # (1,) and (2, 1), new
                (lambda: ee.mhs(7, (2, 1)), 1, 2),
                (lambda: ee.mhs(10, (2, 1)), 2, 2),
                # (1,) and (2, 1) grow on, (3, 2, 1) is new
                (lambda: ee.mhs(12, (3, 2, 1)), 2, 5),
                (lambda: ee.mhs(12, (2, 1)), 3, 5),
                # the weak lists are others: (1,) and (2, 1) again
                (lambda: ee.mhs_star(12, (2, 1)), 3, 7),
                # (1,) is long enough, (4, 1) is new
                (lambda: ee.mhs(9, (4, 1)), 3, 8),
            )
            for compute, hits, grown in steps:
                compute()
                stats = ee.memo_stats()
                assert (stats["hits"], stats["grown"]) == (hits, grown)
            ee.clear_memo()
            assert ee.memo_stats()["hits"] == ee.memo_stats()["grown"] == 0
        finally:
            ee.clear_memo()

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

    def test_eviction_keeps_results_correct(self):
        # The memo's lists live until clear_memo(): a random mix of calls
        # agrees with the oracle and the expansion, and after each call
        # stored_values (never falling) is the sum of the list lengths,
        # every list grown so far is still stored, at least as long, and no
        # tail list is shorter than a list it is the tail of (_grow reads a
        # tail's stored values).
        seen, stored = {}, 0

        def checked(compute, expect):
            nonlocal seen, stored
            assert compute() == expect
            now = ee.memo_stats()["stored_values"]
            assert now >= stored
            assert now == sum(map(len, ee._lists.values()))
            for key, length in seen.items():
                assert len(ee._lists[key]) >= length, key
            for (p, eq, lt), vals in ee._lists.items():
                for i in range(1, len(p)):
                    assert len(ee._lists[(p[i:], eq, lt)]) >= len(vals)
            seen = {key: len(vals) for key, vals in ee._lists.items()}
            stored = now

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
            # enough calls that lists of every kind grew and were read
            assert stored > 1000
            ee.clear_memo()
            assert ee._lists == {} and ee._formed == {}
            assert ee.memo_stats()["stored_values"] == 0
        finally:
            ee.clear_memo()


def test_only_on_scale_calls_divmod():
    # every rescaling of a stored rational onto its lcm(1..n) scale is the
    # one checked _on_scale, so no second copy of the check can drift
    def divmods(node):
        return sum(1 for name in ast.walk(node)
                   if isinstance(name, ast.Name) and name.id == "divmod")

    tree = ast.parse(pathlib.Path(ee.__file__).read_text())
    on_scale, = (node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "_on_scale")
    assert divmods(on_scale) >= 1
    assert divmods(tree) == divmods(on_scale)


def _names(path):
    """Every name, attribute and import (and its alias) in a source file."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name for alias in node.names)
            found.update(alias.asname for alias in node.names)
    return found


def test_exact_eval_names_no_comb():
    # kernel rows come from one ratio recurrence and c_n from their first
    # entry, so no binomial is formed per entry; math.comb is the tests'
    # oracle, and a second route to the rows could drift from the first
    assert "comb" not in _names(pathlib.Path(ee.__file__))


def test_cli_has_no_tolerance_rule_of_its_own():
    # the CLI refuses a --tol through zeta_numeric's one rule, read as it
    # reads families._cells, so the CLI and the library cannot drift back
    # to two rules with two wordings
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    nodes = list(ast.walk(tree))
    assert not [node.name for node in nodes
                if isinstance(node, ast.FunctionDef) and "tol" in node.name]
    assert "inf" not in _names(pathlib.Path(cli.__file__))
    uses = [node for node in nodes
            if isinstance(node, ast.Attribute) and node.attr == "_check_tol"]
    assert uses
    assert all(isinstance(node.value, ast.Name) and node.value.id == "zn"
               for node in uses)
    assert not [node for node in nodes
                if isinstance(node, ast.Name) and node.id == "_check_tol"]


def test_only_exact_eval_names_ensure():
    # every reader of the memo's lists sits in exact_eval, and only it
    # grows them or the integer lists of a sweep's verdicts, so the list
    # recurrence can be replaced in one module
    package = pathlib.Path(ee.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 1
    for path in modules:
        for name in ("_ensure", "_grow", "_grow_ints"):
            assert (name in _names(path)) == (path.name == "exact_eval.py"), \
                (name, path.name)
