"""Exact evaluator tests, oracle-first.

Every recursive engine is checked against the definition-level enumeration
before anything else trusts it; the spot values used elsewhere in the suite
(11/8, 11/16, ...) are pinned here too.
"""

import ast
import hashlib
import pathlib
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
        # a step weight (L/k)^|a| off by one must move the recurrence and
        # only it
        step_weight = ee._step_weight
        monkeypatch.setattr(ee, "_step_weight", lambda scale, part, k:
                            step_weight(scale, part, k) + 1)
        ee.clear_memo()
        try:
            assert [(ee.mhs_oracle(n, s), ee.mhs_star_oracle(n, s))
                    for n, s in cases] == expected
            moved = []
            for (n, s), value in zip(cases, engine):
                # each case grows on a cold memo: the +1 puts a stored value
                # over the lcm(1..n) of its own call, which a later call with
                # a smaller n would refuse (ArithmeticError), not carry on
                ee.clear_memo()
                moved.append(ee.mhs(n, s) != value)
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


class TestIntegerGrowth:
    """The lists grow on integers over lcm(1..n)^weight: stored values are
    put on that scale with a checked division, and each new value is stored
    as one rational."""

    KINDS = ((0, 1), (1, 1), (1, 2), (1, 3))

    @staticmethod
    def expected(parts, eq, lt, n):
        # L_0..L_n from the oracles: the strict or weak sum for lt = 1, the
        # comma-or-merge images weighted by lt^depth otherwise
        if lt == 1:
            oracle = ee.mhs_star_oracle if eq else ee.mhs_oracle
            return [oracle(k, parts) for k in range(n + 1)]
        images = list(pi_expand_weighted(SignedIndex(parts), lt))
        return [sum((c * ee.mhs_oracle(k, q) for q, c in images),
                    ee.rational(0)) for k in range(n + 1)]

    @staticmethod
    def plant(parts, n, shift):
        # grow the strict list of parts to n, then shift its stored values
        ee.mhs(n, parts)
        vals = ee._lists[(parts, 0, 1)]
        vals[:] = [v + shift(k) for k, v in enumerate(vals)]

    # a shift planted in the list's own last value, and in the values of a
    # tail that the call does not grow
    PLANTED = pytest.mark.parametrize("planted,grown", [((2, 1), (2, 1)),
                                                        ((1,), (3, 1))])

    @PLANTED
    def test_foreign_denominator_raises(self, planted, grown):
        # k/97 is not over lcm(1..n)^weight for n < 97: the next growth
        # refuses it instead of carrying it on
        ee.clear_memo()
        try:
            self.plant(planted, 10, lambda k: ee.rational(k, 97))
            with pytest.raises(ArithmeticError, match="lcm"):
                ee.mhs(12, grown)
        finally:
            ee.clear_memo()

    @PLANTED
    def test_shift_inside_the_scale_moves_the_value(self, planted, grown):
        # 1/(k+1) with k <= 10 is over lcm(1..12): growth takes it, and the
        # value it gives is wrong, so the check is on the scale alone
        ee.clear_memo()
        try:
            self.plant(planted, 10, lambda k: ee.rational(1, k + 1))
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

    def test_one_rational_per_new_value(self, monkeypatch):
        # growth forms each new value as one rational N/D and stores that
        # object: a stored value made by rational arithmetic (a sum or a
        # product of fractions) is not one of those made here
        made = []
        make = ee._Q

        def counting(*args):
            made.append(make(*args))
            return made[-1]

        monkeypatch.setattr(ee, "_Q", counting)
        rng = random.Random(5)
        try:
            ee.clear_memo()
            for case in range(12):
                eq, lt = self.KINDS[case % len(self.KINDS)]
                parts = tuple(rng.choice((-3, -2, -1, 1, 2, 3))
                              for _ in range(rng.randint(1, 4)))
                ee._ensure(parts, eq, lt, rng.randint(5, 30))
            # every list starts with the one shared zero
            new_values = ee.memo_stats()["stored_values"] - len(ee._lists)
            assert 0 < len(made) <= new_values
            ids = {id(value) for value in made}
            for vals in ee._lists.values():
                assert vals[0] is ee._ZERO
                for before, value in zip(vals, vals[1:]):
                    # an unchanged value is the previous object itself
                    assert id(value) in ids or value is before
        finally:
            ee.clear_memo()


class TestMemo:
    def test_stats_and_clear(self):
        ee.clear_memo()
        before = ee.memo_stats()
        assert set(before) == {"stored_values", "h_lists", "t_lists", "drops",
                               "hits", "grown", "limit"}
        assert (before["stored_values"] == before["drops"] == before["hits"]
                == before["grown"] == 0)
        ee.mhs(50, (2, 1))
        assert ee.memo_stats()["stored_values"] > 0
        ee.clear_memo()
        assert ee.memo_stats()["stored_values"] == 0

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
            assert ee.memo_stats()["drops"] == evictions
        finally:
            ee.clear_memo()

    def test_drops_counted_across_drops(self, monkeypatch):
        # each wholesale drop is one clear() of the lists; clear_memo()
        # clears them too, so count only after it
        class CountingLists(dict):
            clears = 0

            def clear(self):
                self.clears += 1
                super().clear()

        lists = CountingLists()
        monkeypatch.setattr(ee, "_lists", lists)
        monkeypatch.setattr(ee, "_MEMO_LIMIT", 200)
        try:
            ee.clear_memo()
            lists.clears = 0
            # ten new lists of 61 values: the 5th and the 9th drop the memo
            for part in (1, -1, 2, -2, 3, -3, 4, -4, 5, -5):
                assert ee.mhs_star(60, (part,)) == ee.mhs_star_oracle(60,
                                                                      (part,))
            assert lists.clears >= 2
            assert ee.memo_stats()["drops"] == lists.clears
        finally:
            ee.clear_memo()


    def test_drop_only_on_entry(self, monkeypatch):
        # A call that finds its list short while more than _MEMO_LIMIT
        # values are stored drops the memo before it grows anything: after
        # the drop the memo holds just the lists of its own index, every
        # one of them counted.  A call that finds its list long enough
        # drops nothing.
        def lengths():
            return sum(map(len, ee._lists.values()))

        try:
            ee.clear_memo()
            ee.mhs(10, (2, 1))  # 22 values
            monkeypatch.setattr(ee, "_MEMO_LIMIT", 22)
            # at the limit, not past it: both new lists of (3, 2) are kept
            assert ee.mhs(12, (3, 2)) == ee.mhs_oracle(12, (3, 2))
            stats = ee.memo_stats()
            assert (stats["drops"], stats["h_lists"]) == (0, 4)
            assert stats["stored_values"] == lengths() == 48
            # past it, a call that only grows lists drops first
            assert ee.mhs(11, (2, 1)) == ee.mhs_oracle(11, (2, 1))
            assert ee.memo_stats()["drops"] == 1
            assert set(ee._lists) == {((2, 1), 0, 1), ((1,), 0, 1)}
            assert ee.memo_stats()["stored_values"] == lengths() == 24
            ee.mhs(11, (2, 1))  # a hit drops nothing
            assert ee.memo_stats()["drops"] == 1

            monkeypatch.setattr(ee, "_MEMO_LIMIT", 150)
            ee.clear_memo()
            rng = random.Random(19)
            for _ in range(60):
                # n >= depth: mhs returns 0 below it without reading a list
                n = rng.randint(3, 30)
                parts = tuple(rng.choice((-3, -2, -1, 1, 2, 3))
                              for _ in range(rng.randint(1, 3)))
                star = rng.random() < 0.5
                key = (parts, int(star), 1)
                hit = key in ee._lists and len(ee._lists[key]) > n
                over = ee.memo_stats()["stored_values"] > ee._MEMO_LIMIT
                drops = ee.memo_stats()["drops"]
                evaluate, oracle = ((ee.mhs_star, ee.mhs_star_oracle) if star
                                    else (ee.mhs, ee.mhs_oracle))
                assert evaluate(n, parts) == oracle(n, parts)
                stats = ee.memo_stats()
                dropped = over and not hit
                assert stats["drops"] - drops == dropped
                if dropped:
                    assert set(ee._lists) == {
                        (parts[i:], int(star), 1) for i in range(len(parts))}
                assert stats["stored_values"] == lengths()
                # _ensure stops its walk at the first suffix list long
                # enough, which is sound only while no suffix list is
                # shorter than the list it is a suffix of
                for (p, eq, lt), vals in ee._lists.items():
                    for i in range(1, len(p)):
                        assert len(ee._lists[(p[i:], eq, lt)]) >= len(vals)
            assert ee.memo_stats()["drops"] >= 3
        finally:
            ee.clear_memo()


def test_only_exact_eval_names_ensure():
    # every reader of the memo's lists sits in exact_eval, so the list
    # recurrence can be replaced in one module
    def names(path):
        tree = ast.parse(path.read_text())
        found = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                found.update(alias.name for alias in node.names)
        return found

    package = pathlib.Path(ee.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 1
    for path in modules:
        assert ("_ensure" in names(path)) == (path.name == "exact_eval.py"), \
            path.name
