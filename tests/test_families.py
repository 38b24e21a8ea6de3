"""Family builders, sweeps, and the kernel / closed-form checks.

The expansions in TestDisplayRegressions were transcribed by hand from the
printed right-hand sides and are deliberately independent of build_rhs: they
pin both the term multiset and the coefficients, so a refactor of the builder
cannot silently drop a merge or flip a sign.
"""

import hashlib
import itertools
import json
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starsum.exact_eval import (
    _ensure,
    _kernel_sum,
    _lcm_to,
    clear_memo,
    mhs,
    mhs_star,
    mollified_big,
    mollified_small,
    pi_companion_sum,
    rational,
)
from starsum import families
from starsum.families import (
    _rhs_form,
    BIG,
    C2_TWO_ONE_C2,
    C21,
    C212,
    FAMILIES,
    ONE_C21,
    ONE_C212,
    ONES_C,
    SMALL,
    TWO_ONE,
    TWO_ONE_C2,
    TWO_ONE_TWO,
    FamilySpec,
    KernelParams,
    RhsForm,
    build_lhs,
    build_rhs,
    check_geometric_sum,
    check_lemma31,
    check_ones_bar_one,
    check_tail_weight_sum,
    enumerate_specs,
    rhs_value,
    rhs_value_expanded,
    verify_instance,
    verify_sweep,
)
from starsum.index_core import (
    FormalSum,
    SignedIndex,
    pi_expand,
    pi_expand_weighted,
)


def expansion(spec):
    form = build_rhs(spec)
    return pi_expand_weighted(form.base, form.coeff_base, form.sign)


def companion_total(spec, n):
    """Evaluate a spec's expansion image by image (display-side route)."""
    form = build_rhs(spec)
    evaluate = mollified_big if form.companion == BIG else mollified_small
    return sum((coeff * evaluate(n, idx) for idx, coeff in expansion(spec)),
               rational(0))


SAMPLE_SPECS = [
    FamilySpec(TWO_ONE, a=(1,)),
    FamilySpec(TWO_ONE, a=(2, 0)),
    FamilySpec(TWO_ONE, a=(1, 1, 2)),
    FamilySpec(TWO_ONE_TWO, a=(1,)),
    FamilySpec(TWO_ONE_TWO, a=(0, 2)),
    FamilySpec(TWO_ONE_TWO, a=(1, 0, 1)),
    FamilySpec(C21, a=(0,), b=(0,), c=(3,)),
    FamilySpec(C21, a=(1, 0), b=(0, 1), c=(4, 3)),
    FamilySpec(C212, a=(0,), b=(1,), c=(3,), t=1),
    FamilySpec(ONE_C21, a=(1,)),
    FamilySpec(ONE_C21, a=(0, 1), b=(0,), c=(4,)),
    FamilySpec(ONE_C212, a=(1, 0), b=(1,), c=(3,), t=2),
    FamilySpec(TWO_ONE_C2, a=(0,), b=(0,), c=(3,), t=0),
    FamilySpec(TWO_ONE_C2, a=(1,), b=(1,), c=(4,), t=1),
    FamilySpec(C2_TWO_ONE_C2, a=(), b=(0,), c=(3,), t=0),
    FamilySpec(C2_TWO_ONE_C2, a=(1,), b=(0, 1), c=(3, 4), t=1),
    FamilySpec(ONES_C, t=2),
    FamilySpec(ONES_C, a=(2,), c=(2,), t=1),
    FamilySpec(ONES_C, a=(1, 2), c=(1, 3)),
]


class TestSpecValidation:
    def test_r_is_inferred_per_family(self):
        assert FamilySpec(TWO_ONE, a=(1, 0, 2)).r == 3
        assert FamilySpec(TWO_ONE_TWO, a=(0, 1)).r == 1
        assert FamilySpec(C21, a=(0,), b=(0,), c=(3,)).r == 1
        assert FamilySpec(ONE_C21, a=(1,)).r == 0
        assert FamilySpec(C2_TWO_ONE_C2, a=(), b=(1,), c=(4,)).r == 0
        assert FamilySpec(ONES_C, a=(0, 0), c=(1, 1)).r == 2

    def test_scalar_arguments_are_promoted_to_tuples(self):
        spec = FamilySpec(TWO_ONE, a=2)
        assert spec.a == (2,) and spec.r == 1

    def test_params_dict(self):
        spec = FamilySpec(C212, a=(1,), b=(0,), c=(4,), t=2)
        assert spec.params() == {
            "family": C212, "a": [1], "b": [0], "c": [4], "t": 2, "r": 1,
        }

    @pytest.mark.parametrize("family,kwargs,message", [
        (TWO_ONE, dict(a=(0, 1)), "leading 2-run must be nonempty"),
        (TWO_ONE, dict(a=()), "needs r >= 1 with len"),
        (TWO_ONE, dict(a=(1,), b=(1,)), "parameter b is not used"),
        (TWO_ONE, dict(a=(1,), t=1), "parameter t is not used"),
        (TWO_ONE_TWO, dict(a=(1, 0)), "trailing 2-run must be nonempty"),
        (C21, dict(a=(0,), b=(0,), c=(2,)), "every c_j must be >= 3"),
        (C21, dict(a=(0,), b=(0,), c=(3,), t=1), "parameter t is not used"),
        (C212, dict(a=(0,), b=(0,), c=(3,)), "trailing 2-run must be nonempty"),
        (ONE_C21, dict(a=(0, 0), b=(0,), c=(3,), t=2),
         "parameter t is not used"),
        (ONE_C212, dict(a=(0, 0), b=(0,), c=(3,)),
         "trailing 2-run must be nonempty"),
        (TWO_ONE_C2, dict(a=(0,), b=(0,), c=(1,)), "every c_j must be >= 3"),
        (C2_TWO_ONE_C2, dict(a=(0,), b=(0,), c=(3,)),
         "needs r >= 0 with len"),
        (ONES_C, dict(), "empty spec"),
        (ONES_C, dict(a=(1,), c=(0,)), "every c_j must be >= 1"),
        (ONES_C, dict(a=(1,), c=(3,), b=(1,)), "parameter b is not used"),
        (TWO_ONE, dict(a=(1, -1)), "a entries must be nonnegative"),
        (C21, dict(a=(0,), b=(-2,), c=(3,)), "b entries must be nonnegative"),
        (C212, dict(a=(0,), b=(0,), c=(3,), t=-1), "t must be nonnegative"),
    ])
    def test_rejections_name_the_constraint(self, family, kwargs, message):
        with pytest.raises(ValueError) as err:
            FamilySpec(family, **kwargs)
        assert message in str(err.value)
        assert family in str(err.value)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            FamilySpec("TWO_ONE_THREE", a=(1,))

    def test_explicit_r_must_match_lengths(self):
        with pytest.raises(ValueError):
            FamilySpec(TWO_ONE, a=(1,), r=2)

    @pytest.mark.parametrize("family,kwargs,field", [
        (TWO_ONE, dict(a=(1.7,)), "a"),
        (C21, dict(a=(0,), b=(0,), c=(3.9,)), "c"),
        (C212, dict(a=(0,), b=(0,), c=(3,), t=1.5), "t"),
        (TWO_ONE, dict(a=(1,), r=1.0), "r"),
        (TWO_ONE, dict(a=(1,), r="1"), "r"),
        (TWO_ONE, dict(a=(1,), r=True), None),
    ])
    def test_non_integral_entries_rejected(self, family, kwargs, field):
        if field is None:
            # a bool is an integer: True is kept, as the int 1
            r = FamilySpec(family, **kwargs).params()["r"]
            assert r == 1 and type(r) is int
            return
        # int() would cut these to 1, 3 and 1 without a word
        with pytest.raises(ValueError, match="^%s must" % field):
            FamilySpec(family, **kwargs)


class TestBuilders:
    @pytest.mark.parametrize("spec,parts", [
        (FamilySpec(TWO_ONE, a=(1,)), (2, 1)),
        (FamilySpec(TWO_ONE, a=(1, 0)), (2, 1, 1)),
        (FamilySpec(TWO_ONE_TWO, a=(1, 2)), (2, 1, 2, 2)),
        (FamilySpec(TWO_ONE_TWO, a=(1,)), (2,)),
        (FamilySpec(C21, b=(0,), c=(3,), a=(1,)), (3, 2, 1)),
        (FamilySpec(C212, b=(1,), c=(4,), a=(0,), t=2), (2, 4, 1, 2, 2)),
        (FamilySpec(ONE_C21, a=(1, 0), b=(0,), c=(3,)), (2, 1, 3, 1)),
        (FamilySpec(TWO_ONE_C2, a=(2,), b=(0,), c=(3,), t=1),
         (2, 2, 1, 3, 2)),
        (FamilySpec(C2_TWO_ONE_C2, b=(0, 1), c=(3, 3), a=(1,)),
         (3, 2, 1, 2, 3)),
        (FamilySpec(ONES_C, a=(2,), c=(2,), t=1), (1, 1, 2, 1)),
        (FamilySpec(ONES_C, a=(1, 2), c=(1, 3)), (1, 1, 1, 1, 3)),
        (FamilySpec(ONES_C, t=2), (1, 1)),
    ])
    def test_lhs_layout(self, spec, parts):
        assert build_lhs(spec) == SignedIndex(parts)

    @pytest.mark.parametrize("spec,base,coeff,sign,companion", [
        (FamilySpec(TWO_ONE, a=(1,)), (3,), 2, 1, BIG),
        (FamilySpec(TWO_ONE, a=(1, 0, 2)), (3, 1, 5), 2, 1, BIG),
        (FamilySpec(TWO_ONE_TWO, a=(0, 1)), (1, -2), 2, -1, BIG),
        (FamilySpec(C21, b=(1,), c=(4,), a=(0,)), (-4, 1, -2), 2, 1, BIG),
        (FamilySpec(C212, b=(0,), c=(4,), a=(1,), t=1),
         (-2, 1, -4, -2), 2, -1, BIG),
        (FamilySpec(ONE_C21, a=(2, 0), b=(1,), c=(3,)), (5, -4, -2), 2, 1,
         BIG),
        (FamilySpec(ONE_C212, a=(1, 0), b=(0,), c=(3,), t=1),
         (3, -2, -2, -2), 2, -1, BIG),
        (FamilySpec(TWO_ONE_C2, a=(0,), b=(0,), c=(3,), t=0),
         (1, -2, 1), 2, -1, BIG),
        (FamilySpec(C2_TWO_ONE_C2, a=(1,), b=(0, 0), c=(3, 3), t=1),
         (-2, -4, -2, 3), 2, -1, BIG),
        (FamilySpec(ONES_C, a=(0,), c=(1,)), (-1,), 1, -1, SMALL),
        (FamilySpec(ONES_C, t=2), (-2,), 1, -1, SMALL),
        (FamilySpec(ONES_C, a=(2,), c=(2,), t=1), (-3, 2), 1, -1, SMALL),
        (FamilySpec(ONES_C, a=(1,), c=(4,), t=0), (-2, 1, 1, 1), 1, -1,
         SMALL),
    ])
    def test_rhs_form(self, spec, base, coeff, sign, companion):
        form = build_rhs(spec)
        assert form == RhsForm(SignedIndex(base), coeff, sign, companion)

    def test_ones_c_unit_entries_canonicalize(self):
        # c_j = 1 dissolves into the neighbouring 1-runs before the base
        # index is formed, so both spellings share one right-hand side.
        folded = FamilySpec(ONES_C, a=(1, 2), c=(1, 3))
        canonical = FamilySpec(ONES_C, a=(4,), c=(3,))
        assert build_lhs(folded) == build_lhs(canonical)
        assert build_rhs(folded) == build_rhs(canonical)

    def test_ones_c_images_keep_unit_coefficients(self):
        for spec in SAMPLE_SPECS:
            if spec.family != ONES_C:
                continue
            assert all(coeff == -1 for _, coeff in expansion(spec))

    def test_weight_is_conserved_by_every_image(self):
        for spec in SAMPLE_SPECS:
            target = build_lhs(spec).weight()
            for idx, _ in expansion(spec):
                assert idx.weight() == target, spec


def _compositions(max_weight):
    """Every composition of positive parts with weight 1..max_weight, each
    from the set of cuts between the w units of its weight."""
    for w in range(1, max_weight + 1):
        for cuts in itertools.product((False, True), repeat=w - 1):
            parts, run = [], 1
            for cut in cuts:
                if cut:
                    parts.append(run)
                    run = 0
                run += 1
            yield tuple(parts) + (run,)


class TestCompositionRule:
    """The right side is a rule on the composition, not on a family: both
    forms hold for every composition of positive parts, not only for the
    layouts of FAMILY_TABLE."""

    N_MAX = 12

    def _failed_cells(self, perturb=lambda form: form):
        cells = failed = 0
        for parts in _compositions(8):
            for unit in (2, 1):
                form = perturb(_rhs_form(parts, unit))
                for n in range(1, self.N_MAX + 1):
                    cells += 1
                    failed += mhs_star(n, parts) != pi_companion_sum(
                        form.base, form.coeff_base, form.sign,
                        form.companion, n)
        # 255 compositions, two units, n = 1..12
        assert cells == 6120
        return failed

    def test_both_units_hold_for_every_composition(self):
        assert self._failed_cells() == 0

    @pytest.mark.parametrize("perturb", [
        lambda form: form._replace(coeff_base=3),
        lambda form: form._replace(sign=-form.sign),
        lambda form: form._replace(
            companion=SMALL if form.companion == BIG else BIG),
    ], ids=["coeff_base", "sign", "companion"])
    def test_wrong_form_fails_every_cell(self, perturb):
        # negative controls: a comparison that could not fail would pass
        # these too
        assert self._failed_cells(perturb) == 6120


class TestRuleCensus:
    """Every right side of one ansatz against every H*_n(s) of weight <= 6.

    A candidate is sign * sum_{k<=n} eps^k C(mn, n-k)/C(mn, n) dT_k(q), with
    T the (1, c) list of a signed composition q of the weight of s, c and m
    in 1..4 and eps and sign in +-1; it matches s when the two agree at
    n = 1..8.  The pass with eps = +1 and m = 2 or 1 is pi_companion_sum.
    Nothing is claimed outside the ansatz.
    """

    N_MAX = 8

    def census(self):
        """{s: its matches (q, c, m, eps, sign)} over the signed s of
        weight 1..6, and the number of candidates."""
        matches, candidates = {}, 0
        for weight in range(1, 7):
            signed = [tuple(sign * p for sign, p in zip(signs, parts))
                      for parts in compositions(weight)
                      for signs in itertools.product((1, -1),
                                                     repeat=len(parts))]
            # the candidates with sign +1 by their value sequence; sign -1
            # matches s where +1 matches -H*(s)
            scale = _lcm_to(self.N_MAX) ** weight
            by_values = {}
            for q, c in itertools.product(signed, range(1, 5)):
                t_vals = _ensure(q, 1, c, self.N_MAX)[:self.N_MAX + 1]
                steps = [(now - before) * scale
                         for before, now in zip(t_vals, t_vals[1:])]
                assert all(step.denominator == 1 for step in steps)
                steps = [step.numerator for step in steps]
                for m, eps in itertools.product(range(1, 5), (1, -1)):
                    values = tuple(rational(
                        sum(eps ** k * comb(m * n, n - k) * steps[k - 1]
                            for k in range(1, n + 1)),
                        scale * comb(m * n, n))
                        for n in range(1, self.N_MAX + 1))
                    by_values.setdefault(values, []).append((q, c, m, eps))
                    candidates += 2
            for s in signed:
                values = tuple(mhs_star(n, s)
                               for n in range(1, self.N_MAX + 1))
                matches[s] = {key + (sign,) for sign in (1, -1)
                              for key in by_values.get(
                                  tuple(sign * v for v in values), ())}
        return matches, candidates

    def test_only_the_two_walks_and_their_mirrors_match(self):
        matches, candidates = self.census()
        positive = [s for s in matches if min(s) > 0]
        signed = [s for s in matches if min(s) < 0]
        assert (len(matches), len(positive), len(signed), candidates) == (
            728, 63, 665, 46592)
        for s in positive:
            expected = set()
            for unit in (2, 1):
                form = _rhs_form(s, unit)
                base = form.base.parts
                m = 2 if form.companion == BIG else 1
                # the mirror: the first part of q negated turns every dT_k
                # into (-1)^k dT_k, which eps = -1 undoes
                expected |= {(base, form.coeff_base, m, 1, form.sign),
                             ((-base[0],) + base[1:], form.coeff_base, m, -1,
                              form.sign)}
            assert matches[s] == expected, s
        assert not any(matches[s] for s in signed)


class TestVerifyInstance:
    def test_two_one_depth_one(self):
        report = verify_instance(FamilySpec(TWO_ONE, a=(1,)), 2)
        assert report["lhs"] == rational(11, 8)
        assert report["rhs"] == rational(11, 8)
        assert report["equal"] is True

    def test_trivial_n(self):
        # At n = 1 every companion sum collapses to its k = 1 term.
        for spec in SAMPLE_SPECS:
            report = verify_instance(spec, 1)
            assert report["lhs"] == 1
            assert report["rhs"] == 1
            assert report["equal"]

    def test_n_below_one_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            verify_instance(FamilySpec(TWO_ONE, a=(1,)), 0)

    @pytest.mark.parametrize("spec", SAMPLE_SPECS)
    def test_sample_specs_hold_to_n_20(self, spec):
        for n in (2, 3, 5, 9, 20):
            assert verify_instance(spec, n)["equal"], (spec, n)

    def test_aggregated_and_expanded_routes_agree(self):
        for spec in SAMPLE_SPECS:
            for n in (1, 3, 7, 16):
                assert rhs_value(spec, n) == rhs_value_expanded(spec, n)

    # one c1 spec per family of left-hand weight 6 (7 for ONE_C212, which
    # has none of weight 6), far past c1's n = 50, where the companion
    # pass's denominator lcm(1..n)^weight is largest
    FAR_SPECS = [
        FamilySpec(TWO_ONE, a=(1, 1)),
        FamilySpec(TWO_ONE_TWO, a=(0, 0, 2)),
        FamilySpec(C21, a=(0,), b=(1,), c=(3,)),
        FamilySpec(C212, a=(0,), b=(0,), c=(3,), t=1),
        FamilySpec(ONE_C21, a=(0, 0), b=(0,), c=(4,)),
        FamilySpec(ONE_C212, a=(0, 0), b=(0,), c=(3,), t=1),
        FamilySpec(TWO_ONE_C2, a=(0,), b=(0,), c=(3,), t=1),
        FamilySpec(C2_TWO_ONE_C2, b=(0,), c=(4,), t=1),
        FamilySpec(ONES_C, a=(1,), c=(3,), t=2),
    ]

    @pytest.mark.parametrize("spec", FAR_SPECS, ids=lambda spec: spec.family)
    def test_far_cells(self, spec):
        for n in (200, 500):
            rhs = rhs_value(spec, n)
            assert rhs == rhs_value_expanded(spec, n), n
            assert rhs == mhs_star(n, build_lhs(spec)), n


class TestCompanionDenominator:
    """Negative controls for the companion pass's stated denominator
    lcm(1..n)^weight(base), one big and one small companion."""

    SPECS = [FamilySpec(C21, a=(0,), b=(1,), c=(3,)),
             FamilySpec(ONES_C, a=(1,), c=(3,), t=2)]

    @pytest.fixture
    def cold_memo(self):
        # no list grown under a patched reader is left in the memo
        clear_memo()
        yield
        clear_memo()

    @staticmethod
    def shift_t_values(monkeypatch, spec, shift):
        # only the base's (1, coeff_base) list, the T values the companion
        # pass reads, is shifted, and as a new list; the H* lists mhs_star
        # reads are not (no suffix of a left side is a base)
        form = build_rhs(spec)
        key = (form.base.parts, 1, form.coeff_base)

        def shifted(parts, eq, lt, n):
            vals = _ensure(parts, eq, lt, n)
            if (parts, eq, lt) != key:
                return vals
            return [t + shift(k) for k, t in enumerate(vals)]

        monkeypatch.setattr("starsum.exact_eval._ensure", shifted)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.family)
    def test_foreign_denominator_raises(self, monkeypatch, cold_memo, spec):
        # k/97 moves every increment by 1/97, which is not over
        # lcm(1..n)^weight for n < 97: the pass refuses it
        self.shift_t_values(monkeypatch, spec, lambda k: rational(k, 97))
        for n in (1, 2, 7, 50, 96):
            with pytest.raises(ArithmeticError, match="lcm"):
                rhs_value(spec, n)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.family)
    def test_shift_within_the_denominator_fails(self, monkeypatch, cold_memo,
                                                spec):
        # 1/k for k >= 1 moves increment 1 by 1 and increment k > 1 by
        # -1/(k(k-1)), both over lcm(1..n)^weight: the pass accepts them,
        # so only the comparison with H*_n can catch the shift
        self.shift_t_values(monkeypatch, spec,
                            lambda k: rational(1, k) if k else 0)
        lhs = build_lhs(spec)
        for n in (1, 2, 7, 50, 200):
            report = verify_instance(spec, n)
            assert report["lhs"] == mhs_star(n, lhs)
            assert report["rhs"] != report["lhs"], n


def compositions(total):
    """Positive integer compositions; the empty one for total = 0."""
    if total == 0:
        yield ()
        return
    for head in range(1, total + 1):
        for tail in compositions(total - head):
            yield (head,) + tail


def splits(c):
    # (i, j, x) with i, j >= 1 and x a composition of the remainder
    for i in range(1, c):
        for j in range(1, c - i + 1):
            for x in compositions(c - i - j):
                yield i, j, x


class TestDisplayRegressions:
    """Hand-written right-hand sides pinned against the generic builder.

    Each display is one literal formula: a coefficient map for the shallow
    families, a composition sum for the trailing-ones family.  Checked two
    ways: the term multiset must equal the builder's expansion exactly, and
    the display evaluated through the companion sums must reproduce the
    strict-star side for n up to 30.
    """

    N_GRID = (1, 2, 5, 13, 30)

    def check(self, spec, displayed):
        assert expansion(spec) == displayed, spec
        form = build_rhs(spec)
        evaluate = mollified_big if form.companion == BIG else mollified_small
        lhs_index = build_lhs(spec)
        for n in self.N_GRID:
            rhs = sum((coeff * evaluate(n, idx) for idx, coeff in displayed),
                      rational(0))
            assert mhs_star(n, lhs_index) == rhs, (spec, n)

    def test_depth_two_pair_runs(self):
        for a in (1, 2):
            for b in (0, 1, 2):
                spec = FamilySpec(TWO_ONE, a=(a, b))
                self.check(spec, FormalSum({
                    (2 * a + 1, 2 * b + 1): 4,
                    (2 * a + 2 * b + 2,): 2,
                }))

    def test_depth_three_pair_runs(self):
        for a, b, c in itertools.product((1, 2), (0, 1), (0, 2)):
            spec = FamilySpec(TWO_ONE, a=(a, b, c))
            self.check(spec, FormalSum({
                (2 * a + 1, 2 * b + 1, 2 * c + 1): 8,
                (2 * a + 2 * b + 2, 2 * c + 1): 4,
                (2 * a + 1, 2 * b + 2 * c + 2): 4,
                (2 * a + 2 * b + 2 * c + 3,): 2,
            }))

    def test_depth_three_trailing_pair_run(self):
        for a, b, c in itertools.product((0, 1, 2), (0, 1), (1, 2)):
            spec = FamilySpec(TWO_ONE_TWO, a=(a, b, c))
            self.check(spec, FormalSum({
                (2 * a + 1, 2 * b + 1, -2 * c): -8,
                (2 * a + 2 * b + 2, -2 * c): -4,
                (2 * a + 1, -(2 * b + 1 + 2 * c)): -4,
                (-(2 * a + 2 * b + 2 * c + 2),): -2,
            }))

    def test_three_block_r1(self):
        for a, b in itertools.product((0, 1, 2), repeat=2):
            spec = FamilySpec(C21, a=(a,), b=(b,), c=(3,))
            self.check(spec, FormalSum({
                (-(2 * b + 2), -(2 * a + 2)): 4,
                (2 * a + 2 * b + 4,): 2,
            }))

    def test_leading_pair_three_block_r1(self):
        for a1, b, a2 in itertools.product((0, 1), (0, 1), (0, 1)):
            spec = FamilySpec(ONE_C21, a=(a1, a2), b=(b,), c=(3,))
            self.check(spec, FormalSum({
                (2 * a1 + 1, -(2 * b + 2), -(2 * a2 + 2)): 8,
                (-(2 * a1 + 2 * b + 3), -(2 * a2 + 2)): 4,
                (2 * a1 + 1, 2 * b + 2 * a2 + 4): 4,
                (2 * a1 + 2 * b + 2 * a2 + 5,): 2,
            }))

    def test_three_block_trailing_run_r1(self):
        for a, b, t in itertools.product((0, 1), (0, 1), (1, 2)):
            spec = FamilySpec(C212, a=(a,), b=(b,), c=(3,), t=t)
            self.check(spec, FormalSum({
                (-(2 * b + 2), -(2 * a + 2), -2 * t): -8,
                (2 * b + 2 * a + 4, -2 * t): -4,
                (-(2 * b + 2), 2 * a + 2 * t + 2): -4,
                (-(2 * b + 2 * a + 2 * t + 4),): -2,
            }))

    def test_leading_pair_three_block_trailing_run_r1(self):
        for a1, b, a2, t in itertools.product((0, 1), (0, 1), (0, 1), (1,)):
            spec = FamilySpec(ONE_C212, a=(a1, a2), b=(b,), c=(3,), t=t)
            self.check(spec, FormalSum({
                (2 * a1 + 1, -(2 * b + 2), -(2 * a2 + 2), -2 * t): -16,
                (-(2 * a1 + 2 * b + 3), -(2 * a2 + 2), -2 * t): -8,
                (2 * a1 + 1, 2 * b + 2 * a2 + 4, -2 * t): -8,
                (2 * a1 + 1, -(2 * b + 2), 2 * a2 + 2 * t + 2): -8,
                (-(2 * a1 + 2 * b + 3), 2 * a2 + 2 * t + 2): -4,
                (2 * a1 + 2 * b + 2 * a2 + 5, -2 * t): -4,
                (2 * a1 + 1, -(2 * b + 2 * a2 + 2 * t + 4)): -4,
                (-(2 * a1 + 2 * b + 2 * a2 + 2 * t + 5),): -2,
            }))

    def test_pair_one_block_r1(self):
        for a, b in itertools.product((0, 1, 2), (0, 1)):
            spec = FamilySpec(TWO_ONE_C2, a=(a,), b=(b,), c=(3,), t=0)
            self.check(spec, FormalSum({
                (2 * a + 1, -(2 * b + 2), 1): -8,
                (-(2 * a + 2 * b + 3), 1): -4,
                (2 * a + 1, -(2 * b + 3)): -4,
                (-(2 * a + 2 * b + 4),): -2,
            }))

    def test_block_pair_block_r1(self):
        for b1, a, b2 in itertools.product((0, 1), (0, 1), (0, 1)):
            spec = FamilySpec(C2_TWO_ONE_C2, a=(a,), b=(b1, b2), c=(3, 3),
                              t=0)
            self.check(spec, FormalSum({
                (-(2 * b1 + 2), -(2 * a + 2), -(2 * b2 + 2), 1): -16,
                (2 * b1 + 2 * a + 4, -(2 * b2 + 2), 1): -8,
                (-(2 * b1 + 2), 2 * a + 2 * b2 + 4, 1): -8,
                (-(2 * b1 + 2), -(2 * a + 2), -(2 * b2 + 3)): -8,
                (-(2 * b1 + 2 * a + 2 * b2 + 6), 1): -4,
                (-(2 * b1 + 2), 2 * a + 2 * b2 + 5): -4,
                (2 * b1 + 2 * a + 4, -(2 * b2 + 3)): -4,
                (-(2 * b1 + 2 * a + 2 * b2 + 7),): -2,
            }))

    def test_trailing_ones_two_blocks(self):
        # Composition-sum spelling of the depth-two trailing-ones family.
        for a1, c1, a2, c2, t in itertools.product(
                (0, 1), (2, 3), (0, 2), (2, 3), (0, 1)):
            spec = FamilySpec(ONES_C, a=(a1, a2), c=(c1, c2), t=t)
            displayed = FormalSum()
            displayed.add_term((-(a1 + c1 + a2 + c2 + t),), -1)
            for i2, j2, x2 in splits(c2):
                displayed.add_term(
                    (-(a1 + c1 + a2 + j2),) + x2 + (i2 + t,), -1)
            for i1, j1, x1 in splits(c1):
                displayed.add_term(
                    (-(a1 + j1),) + x1 + (i1 + a2 + c2 + t,), -1)
            for i1, j1, x1 in splits(c1):
                for i2, j2, x2 in splits(c2):
                    displayed.add_term(
                        (-(a1 + j1),) + x1 + (i1 + a2 + j2,) + x2
                        + (i2 + t,), -1)
            self.check(spec, displayed)


class TestBinomialReductions:
    """Depth-one instances against their raw binomial-sum spellings."""

    def test_single_pair_run(self):
        for a in range(1, 5):
            spec = FamilySpec(TWO_ONE, a=(a,))
            assert expansion(spec) == FormalSum({(2 * a + 1,): 2})
            for n in (1, 4, 11, 30):
                total = sum(
                    rational(2 * comb(n, k),
                             k ** (2 * a + 1) * comb(n + k, k))
                    for k in range(1, n + 1))
                assert mhs_star(n, build_lhs(spec)) == total

    def test_pair_run_with_tail(self):
        for a in range(3):
            for b in range(1, 4):
                spec = FamilySpec(TWO_ONE_TWO, a=(a, b))
                assert expansion(spec) == FormalSum({
                    (2 * a + 1, -2 * b): -4,
                    (-(2 * a + 2 * b + 1),): -2,
                })
                for n in (1, 5, 17):
                    plain = sum(
                        rational((-1) ** k * 2 * comb(n, k),
                                 k ** (2 * a + 2 * b + 1) * comb(n + k, k))
                        for k in range(1, n + 1))
                    nested = sum(
                        rational(4 * comb(n, k),
                                 k ** (2 * a + 1) * comb(n + k, k))
                        * mhs(k - 1, (-2 * b,))
                        for k in range(1, n + 1))
                    assert mhs_star(n, build_lhs(spec)) == -plain - nested


class TestEnumerateSpecs:
    def test_deterministic_order(self):
        kwargs = dict(r_values=(1, 2), a_values=(0, 1), b_values=(0, 1),
                      c_values=(3, 4), t_values=(0, 1))
        for family in FAMILIES:
            first = list(enumerate_specs(family, **kwargs))
            second = list(enumerate_specs(family, **kwargs))
            assert first == second
            assert all(s.family == family for s in first)

    def test_pair_run_leading_slot_filter(self):
        specs = list(enumerate_specs(TWO_ONE, r_values=(1, 2),
                                     a_values=(0, 1, 2)))
        assert len(specs) == 2 + 2 * 3
        assert specs[0] == FamilySpec(TWO_ONE, a=(1,))
        assert all(s.a[0] >= 1 for s in specs)

    def test_trailing_slot_filter(self):
        specs = list(enumerate_specs(TWO_ONE_TWO, r_values=(0, 1),
                                     a_values=(0, 1)))
        assert [s.a for s in specs] == [(1,), (0, 1), (1, 1)]

    def test_c_pools_are_filtered_not_rejected(self):
        shared = dict(r_values=(1,), a_values=(0,), b_values=(0,),
                      c_values=(1, 2, 3, 4))
        assert [s.c for s in enumerate_specs(C21, **shared)] == [(3,), (4,)]
        ones = list(enumerate_specs(ONES_C, r_values=(1,), a_values=(1,),
                                    c_values=(1, 2, 3, 4)))
        assert [s.c for s in ones] == [(1,), (2,), (3,), (4,)]

    def test_trailing_ones_r0_needs_t(self):
        specs = list(enumerate_specs(ONES_C, r_values=(0,),
                                     t_values=(0, 1, 2)))
        assert [s.t for s in specs] == [1, 2]

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            list(enumerate_specs("NOPE", r_values=(1,)))


# The nine acceptance (c1) grids with their spec counts, and the sha256 of
# every spec's parameters, left-hand parts and right-hand form over them in
# enumeration order, as the per-family builders produced them before the
# families became rows of one table.
C1_GRIDS = {
    TWO_ONE: (dict(r_values=(1, 2, 3), a_values=(0, 1, 2)), 26),
    TWO_ONE_TWO: (dict(r_values=(0, 1, 2), a_values=(0, 1, 2)), 26),
    C21: (dict(r_values=(1, 2), a_values=(0, 1, 2), b_values=(0, 1, 2),
               c_values=(3, 4)), 342),
    C212: (dict(r_values=(1, 2), a_values=(0, 1, 2), b_values=(0, 1, 2),
                c_values=(3, 4), t_values=(0, 1, 2)), 684),
    ONE_C21: (dict(r_values=(0, 1, 2), a_values=(0, 1, 2),
                   b_values=(0, 1, 2), c_values=(3, 4)), 1029),
    ONE_C212: (dict(r_values=(0, 1, 2), a_values=(0, 1, 2),
                    b_values=(0, 1, 2), c_values=(3, 4),
                    t_values=(0, 1, 2)), 2058),
    TWO_ONE_C2: (dict(r_values=(1, 2), a_values=(0, 1, 2),
                      b_values=(0, 1, 2), c_values=(3, 4),
                      t_values=(0, 1, 2)), 1026),
    C2_TWO_ONE_C2: (dict(r_values=(0, 1, 2), a_values=(0, 1, 2),
                         b_values=(0, 1, 2), c_values=(3, 4),
                         t_values=(0, 1, 2)), 6174),
    ONES_C: (dict(r_values=(0, 1, 2), a_values=(0, 1, 2),
                  c_values=(1, 2, 3), t_values=(0, 1, 2)), 272),
}
C1_DIGEST = ("cc1121dc27dd5249f0a719cca7aba886"
              "1126e18b6e2e24198c8d4c3254b245e1")


def c1_digest():
    digest = hashlib.sha256()
    counts = {}
    for family, (grid, _) in C1_GRIDS.items():
        specs = list(enumerate_specs(family, **grid))
        counts[family] = len(specs)
        for spec in specs:
            form = build_rhs(spec)
            record = [spec.params(), build_lhs(spec).parts, form.base.parts,
                      form.coeff_base, form.sign, form.companion]
            digest.update(json.dumps(record).encode() + b"\n")
    return counts, digest.hexdigest()


class TestFamilyTable:
    def test_c1_grids_are_unchanged(self):
        counts, digest = c1_digest()
        assert counts == {family: count
                          for family, (_, count) in C1_GRIDS.items()}
        assert digest == C1_DIGEST
        assert FAMILIES == (TWO_ONE, TWO_ONE_TWO, C21, ONE_C21, C212,
                            ONE_C212, TWO_ONE_C2, C2_TWO_ONE_C2, ONES_C)

    def test_c1_limit_images_are_admissible(self):
        # the limit form's right side is a sum of the strict limits of the
        # images of the base; verify_mzsv_family takes it as one chain, but
        # its per-image oracle _limit_sum(zeta, terms) takes each image's
        # limit, so no image of an admissible big-companion spec may lead
        # with +1 (zeta would refuse it)
        big = checked = 0
        for family, (grid, _) in C1_GRIDS.items():
            for spec in enumerate_specs(family, **grid):
                form = build_rhs(spec)
                if form.companion != BIG:
                    continue
                big += 1
                if build_lhs(spec).parts[0] == 1:
                    continue
                checked += 1
                for idx in pi_expand(form.base):
                    assert idx.parts[0] != 1, (spec, idx)
        assert (big, checked) == (11365, 9986)


class TestKernelIdentities:
    EXAMPLES = (
        ("i", KernelParams(m=1, kind="A", a=0, c=2, v=(1,)), 6),
        ("ii", KernelParams(m=2, kind="B", a=1), 5),
        ("iii", KernelParams(m=2, kind="B", a=1, c=1, v=(-2,)), 7),
        ("iv", KernelParams(m=2, kind="A", a=2, v=(-1,)), 8),
    )

    def test_examples(self):
        for variant, kp, n in self.EXAMPLES:
            assert check_lemma31(variant, kp, n) is True

    @pytest.fixture
    def cold_kernel_sums(self):
        # no sum from a patched list reader is served from the cache or
        # left in it
        _kernel_sum.cache_clear()
        yield
        _kernel_sum.cache_clear()

    @staticmethod
    def shift_lists(monkeypatch, shift):
        # the patched list reader returns a new list and leaves the memo's
        # lists as they are
        def shifted(parts, eq, lt, n):
            return [h + shift(k)
                    for k, h in enumerate(_ensure(parts, eq, lt, n))]

        monkeypatch.setattr("starsum.exact_eval._ensure", shifted)

    def test_perturbed_sums_fail(self, monkeypatch, cold_kernel_sums):
        # negative control: a check that compared a side with itself would
        # still pass once every H_k(v) is off by 1/(k + 1), a shift that
        # keeps every term over the known denominator lcm(1..n)^p
        self.shift_lists(monkeypatch, lambda k: rational(1, k + 1))
        for variant, kp, n in self.EXAMPLES:
            assert check_lemma31(variant, kp, n) is False

    def test_foreign_denominator_raises(self, monkeypatch, cold_kernel_sums):
        # 1/97 is not over lcm(1..n)^p for n < 97: the sum refuses it
        self.shift_lists(monkeypatch, lambda k: rational(1, 97))
        for variant, kp, n in self.EXAMPLES:
            with pytest.raises(ArithmeticError, match="lcm"):
                check_lemma31(variant, kp, n)

    def test_grid(self):
        inner = (SignedIndex(()), SignedIndex((1,)), SignedIndex((-2,)))
        for m, a, c, v in itertools.product((1, 2), (0, 1), (1, 2), inner):
            for n in (1, 2, 5, 9):
                assert check_lemma31("i", KernelParams(m=m, kind="A", a=a,
                                                       c=c, v=v), n)
                assert check_lemma31("iii", KernelParams(m=m, kind="B", a=a,
                                                         c=c, v=v), n)
        for a, v in itertools.product((1, 2, 3), inner):
            for n in (1, 3, 8):
                assert check_lemma31("ii", KernelParams(m=2, kind="B", a=a,
                                                        v=v), n)
                assert check_lemma31("iv", KernelParams(m=2, kind="A", a=a,
                                                        v=v), n)

    @pytest.mark.parametrize("m", (2, 3))
    def test_kernel_one_order_up_fails(self, monkeypatch, m):
        # negative control for the shift forms at every order: the weights
        # m^len(x) against the kernel rows of order m + 1 fail 240 of the 288
        # cells per variant (a <= 2, c <= 2, c2's four v, n <= 12)
        kernel_sum = families._kernel_sum
        monkeypatch.setattr(families, "_kernel_sum",
                            lambda x, expo, kind, order, n:
                            kernel_sum(x, expo, kind, order + 1, n))
        inner = ((), (1,), (-2,), (2, 1))
        for variant, kind in (("i", "A"), ("iii", "B")):
            failed = sum(
                not check_lemma31(variant, KernelParams(m=m, kind=kind, a=a,
                                                        c=c, v=v), n)
                for a, c, v in itertools.product(range(3), (1, 2), inner)
                for n in range(1, 13))
            assert failed == 240, variant

    @pytest.mark.parametrize("variant,kp_kwargs,message", [
        ("v", dict(kind="A"), "variant must be one of"),
        ("i", dict(kind="B"), "uses kernel kind"),
        ("i", dict(kind="A", c=0), "need c >= 1"),
        ("ii", dict(m=1, kind="B", a=1), "need m = 2"),
        ("ii", dict(m=2, kind="B", a=0), "need a >= 1"),
        ("iv", dict(m=2, kind="B", a=1), "uses kernel kind"),
        ("iv", dict(m=4, kind="A", a=1), "need m = 2"),
    ])
    def test_rejections(self, variant, kp_kwargs, message):
        with pytest.raises(ValueError, match=message):
            check_lemma31(variant, KernelParams(**kp_kwargs), 4)

    def test_kernel_params_validation(self):
        with pytest.raises(ValueError, match="kernel order m"):
            KernelParams(m=0)
        with pytest.raises(ValueError, match="kernel kind"):
            KernelParams(kind="C")
        with pytest.raises(ValueError, match="exponent a"):
            KernelParams(a=-1)
        with pytest.raises(ValueError, match="n must be >= 1"):
            check_lemma31("i", KernelParams(), 0)

    @pytest.mark.parametrize("kwargs,field", [
        (dict(a=1.5), "a"),
        (dict(m=1.0), "m"),
        (dict(c="2"), "c"),
        (dict(a=True), None),
    ])
    def test_kernel_params_refuse_non_integers(self, kwargs, field):
        if field is None:
            # a bool is an integer: True is kept, as the int 1
            a = KernelParams(kind="A", **kwargs).a
            assert a == 1 and type(a) is int
            return
        # a = 1.5 used to fail later, inside range(), with a TypeError
        with pytest.raises(ValueError, match="^%s must be an integer" % field):
            KernelParams(kind="A", **kwargs)


class TestClosedFormChecks:
    def test_ones_bar_one_base_case(self):
        # a = 0, n = 1: both sides are the single signed term -1.
        assert mhs_star(1, (-1,)) == -1
        assert check_ones_bar_one(0, 1)

    def test_ones_bar_one_grid(self):
        for a in range(5):
            for n in (1, 2, 7, 25):
                assert check_ones_bar_one(a, n)

    def test_ones_bar_one_perturbed_fails(self, monkeypatch):
        # negative control: the closed form must be compared with H*_n
        monkeypatch.setattr("starsum.families.mhs_star",
                            lambda n, s: mhs_star(n, s) + rational(1, n + 2))
        for a in range(3):
            for n in (1, 2, 7):
                assert check_ones_bar_one(a, n) is False

    def test_tail_weight_sum_grid(self):
        for n in (1, 2, 9, 30):
            for l in range(n):
                assert check_tail_weight_sum(l, n)

    def test_tail_weight_sum_perturbed_fails(self, monkeypatch):
        # negative control: with every binomial off by one, the sum must
        # miss its closed forms, not only the forms each other (they still
        # agree at l = 0)
        monkeypatch.setattr("starsum.families.comb",
                            lambda n, k: comb(n, k) + 1)
        for n in (1, 2, 9):
            for l in range(n):
                assert check_tail_weight_sum(l, n) is False

    def test_geometric_sum_grid(self):
        for a in range(5):
            for n in (2, 3, 11, 20):
                for k in range(1, n):
                    assert check_geometric_sum(a, k, n)

    @pytest.mark.parametrize("call", [
        lambda: check_ones_bar_one(-1, 3),
        lambda: check_ones_bar_one(2, 0),
        lambda: check_tail_weight_sum(3, 3),
        lambda: check_tail_weight_sum(-1, 3),
        lambda: check_geometric_sum(-1, 1, 2),
        lambda: check_geometric_sum(2, 2, 2),
    ])
    def test_domain_errors(self, call):
        with pytest.raises(ValueError):
            call()

    @pytest.mark.parametrize("call,name", [
        (lambda: check_ones_bar_one(1.5, 3), "a"),
        (lambda: check_ones_bar_one(1, 3.0), "n"),
        (lambda: check_tail_weight_sum(1.0, 3), "l"),
        (lambda: check_tail_weight_sum(1, "3"), "n"),
        (lambda: check_geometric_sum(0.5, 1, 2), "a"),
        (lambda: check_geometric_sum(1, 1.0, 2), "k"),
        (lambda: check_geometric_sum(1, 1, 2.5), "n"),
        (lambda: check_lemma31("i", KernelParams(), 4.0), "n"),
        (lambda: verify_sweep(TWO_ONE, {"a": (1,)}, 2.5), "n_max"),
    ])
    def test_non_integers_name_the_argument(self, call, name):
        # each failed with an internal TypeError
        with pytest.raises(ValueError, match="^%s must be an integer" % name):
            call()


@st.composite
def family_specs(draw):
    family = draw(st.sampled_from(FAMILIES))
    r = draw(st.integers(0, 2))
    a = st.integers(0, 2)
    pool = list(enumerate_specs(
        family, r_values=(r,),
        a_values=(draw(a), draw(a) + 1),
        b_values=(draw(st.integers(0, 1)),),
        c_values=(draw(st.integers(1, 4)), 3),
        t_values=(draw(st.integers(0, 2)),)))
    if not pool:
        return FamilySpec(TWO_ONE, a=(1,))
    return pool[draw(st.integers(0, len(pool) - 1))]


class TestSpecProperties:
    @given(spec=family_specs(), n=st.integers(1, 14))
    @settings(max_examples=60, deadline=None)
    def test_identity_holds(self, spec, n):
        assert verify_instance(spec, n)["equal"]

    @given(spec=family_specs())
    @settings(max_examples=60, deadline=None)
    def test_images_conserve_weight(self, spec):
        target = build_lhs(spec).weight()
        for idx, _ in expansion(spec):
            assert idx.weight() == target

    @given(spec=family_specs(), n=st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_dual_route(self, spec, n):
        assert rhs_value(spec, n) == rhs_value_expanded(spec, n)
