"""Data-model tests: signed indices, formal sums, expansions, and the
argument rules every public entry reads from index_core."""

import ast
import contextlib
import io
import pathlib
import pickle
import re

import pytest
from hypothesis import given, strategies as st

from starsum import exact_eval as ee
from starsum import families as fam
from starsum import index_core
from starsum import zeta_numeric as zn
from starsum.cli import main
from starsum.index_core import (
    EMPTY,
    FormalSum,
    SignedIndex,
    as_index,
    as_int,
    format_index,
    oplus,
    parse_index,
    pi_expand,
    pi_expand_weighted,
    star_expand,
)
from starsum.stuffle import verify_middlestep_1, verify_middlestep_2


def sign_rule_holds(p: SignedIndex) -> bool:
    """True iff every part a satisfies: a is positive exactly when 4 divides a."""
    return all((a > 0) == (a % 4 == 0) for a in as_index(p))


nonzero = st.integers(min_value=-9, max_value=9).filter(lambda v: v != 0)
indices = st.lists(nonzero, min_size=1, max_size=6).map(SignedIndex)


class TestSignedIndex:
    def test_basic_accessors(self):
        idx = SignedIndex((2, -3, 1))
        assert idx.depth() == 3
        assert idx.weight() == 6
        assert idx.head() == 2
        assert idx.tail() == SignedIndex((-3, 1))
        assert list(idx) == [2, -3, 1]
        assert idx[1] == -3
        assert idx[1:] == SignedIndex((-3, 1))

    def test_zero_part_rejected(self):
        with pytest.raises(ValueError):
            SignedIndex((2, 0, 1))

    @pytest.mark.parametrize("parts", [(1.7, 3), (1, "3"), (2.0,), 5])
    def test_non_integral_parts_rejected(self, parts):
        # int() would cut (1.7, "3") to (1, 3) without a word
        with pytest.raises(ValueError, match="^index must hold integers"):
            SignedIndex(parts)

    def test_bool_part_is_the_int_one(self):
        parts = SignedIndex((True, 2)).parts
        assert parts == (1, 2) and type(parts[0]) is int

    def test_immutability(self):
        idx = SignedIndex((2,))
        with pytest.raises(AttributeError):
            idx.parts = (3,)

    def test_empty(self):
        assert EMPTY.is_empty()
        assert EMPTY.depth() == 0
        assert EMPTY.weight() == 0
        with pytest.raises(IndexError):
            EMPTY.head()

    def test_as_index_coercions(self):
        assert as_index(5) == SignedIndex((5,))
        assert as_index([2, 1]) == SignedIndex((2, 1))
        idx = SignedIndex((3,))
        assert as_index(idx) is idx
        with pytest.raises(ValueError, match="^index must hold integers"):
            as_index(1.5)

    @given(st.lists(nonzero, max_size=6))
    def test_hash_and_eq_follow_parts(self, parts):
        a = SignedIndex(parts)
        b = SignedIndex(tuple(parts))
        assert a == b
        assert hash(a) == hash(b)


class TestCheckedTuple:
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        idx = SignedIndex((2, -3, 1))
        back = pickle.loads(pickle.dumps(idx, protocol))
        assert type(back) is SignedIndex
        assert back == idx

    @given(st.lists(nonzero, max_size=6))
    def test_equals_and_hashes_like_its_tuple(self, parts):
        idx = SignedIndex(parts)
        assert idx == tuple(idx) and tuple(idx) == idx
        assert hash(idx) == hash(tuple(idx))
        assert {tuple(idx): 1}[idx] == 1

    def test_tail_is_typed_and_a_slice_is_a_plain_tuple(self):
        idx = SignedIndex((2, -3, 1))
        assert type(idx.tail()) is SignedIndex
        assert type(SignedIndex((5,)).tail()) is SignedIndex
        assert type(idx[1:]) is tuple
        assert idx.parts is idx

    @pytest.mark.parametrize("name", ["parts", "depth", "extra"])
    def test_no_attribute_can_be_set(self, name):
        idx = SignedIndex((2,))
        with pytest.raises(AttributeError):
            setattr(idx, name, (3,))
        assert idx == (2,)


class TestParseFormat:
    def test_round_trip(self):
        for text in ("2,1", "-2", "3,-4,1", "10,-12"):
            assert format_index(parse_index(text)) == text

    def test_whitespace_tolerated(self):
        assert parse_index(" 2 , -1 ") == SignedIndex((2, -1))

    @pytest.mark.parametrize("bad", ["", "  ", "2,,1", "2,0", "x", "1.5"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_index(bad)

    @given(indices)
    def test_round_trip_property(self, idx):
        assert parse_index(format_index(idx)) == idx


class TestOplus:
    def test_table(self):
        assert oplus(2, 3) == 5
        assert oplus(2, -3) == -5
        assert oplus(-2, 3) == -5
        assert oplus(-2, -3) == 5
        assert oplus(-2, -2) == 4

    @given(nonzero, nonzero)
    def test_magnitudes_add_signs_multiply(self, a, b):
        merged = oplus(a, b)
        assert abs(merged) == abs(a) + abs(b)
        assert (merged > 0) == ((a > 0) == (b > 0))

    @given(nonzero, nonzero)
    def test_commutative(self, a, b):
        assert oplus(a, b) == oplus(b, a)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            oplus(0, 2)


class TestFormalSum:
    def test_zero_coefficients_pruned(self):
        fs = FormalSum()
        fs.add_term(SignedIndex((2,)), 3)
        fs.add_term(SignedIndex((2,)), -3)
        assert not fs
        assert len(fs) == 0

    def test_arithmetic(self):
        a = FormalSum(((SignedIndex((2,)), 1), (SignedIndex((3,)), 2)))
        b = FormalSum(((SignedIndex((3,)), -2),))
        assert (a + b).terms == {SignedIndex((2,)): 1}
        assert (a - a).terms == {}
        assert (2 * a).terms == {SignedIndex((2,)): 2, SignedIndex((3,)): 4}
        assert (a * 0).terms == {}

    def test_format_matches_report_style(self):
        fs = FormalSum(((SignedIndex((3, 3)), 4), (SignedIndex((6,)), 2)))
        assert str(fs) == "4*(3,3) + 2*(6)"
        assert fs.format(wrap="zeta") == "4*zeta(3,3) + 2*zeta(6)"
        assert FormalSum().format() == "0"

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(FormalSum())

    def test_tuple_list_and_index_keys_merge(self):
        fs = FormalSum((((2, -1), 1), ([2, -1], 2), (SignedIndex((2, -1)), 4)))
        fs.add_term((2, -1), -2)
        assert fs.terms == {SignedIndex((2, -1)): 5}
        assert [type(idx) for idx, _ in fs] == [SignedIndex]


class TestPiExpand:
    def test_two_part_base(self):
        assert pi_expand(SignedIndex((3, 3))) == [
            SignedIndex((3, 3)),
            SignedIndex((6,)),
        ]

    def test_mask_order_three_parts(self):
        images = pi_expand(SignedIndex((-2, -2, -2)))
        assert images == [
            SignedIndex((-2, -2, -2)),
            SignedIndex((4, -2)),
            SignedIndex((-2, 4)),
            SignedIndex((-6,)),
        ]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pi_expand(EMPTY)

    @given(indices)
    def test_count_and_weight_preserved(self, idx):
        images = pi_expand(idx)
        assert len(images) == 2 ** (idx.depth() - 1)
        assert all(p.weight() == idx.weight() for p in images)

    @given(st.integers(min_value=1, max_value=6))
    def test_sign_rule_on_bar_two_powers(self, k):
        # every comma-or-merge image of ({-2})^k obeys: positive iff
        # divisible by 4
        for image in pi_expand(SignedIndex((-2,) * k)):
            assert sign_rule_holds(image)

    def test_sign_rule_spot_checks(self):
        assert sign_rule_holds(SignedIndex((4, -2)))
        assert not sign_rule_holds(SignedIndex((2,)))
        assert not sign_rule_holds(SignedIndex((-4,)))
        assert sign_rule_holds(EMPTY)


class TestWeightedExpansion:
    def test_coefficients_are_powers_of_base(self):
        fs = pi_expand_weighted(SignedIndex((3, 3)), 2, 1)
        assert fs.terms == {SignedIndex((3, 3)): 4, SignedIndex((6,)): 2}

    def test_global_sign(self):
        fs = pi_expand_weighted(SignedIndex((3, 3)), 2, -1)
        assert fs.terms == {SignedIndex((3, 3)): -4, SignedIndex((6,)): -2}

    def test_single_part(self):
        assert pi_expand_weighted(SignedIndex((5,)), 2, 1).terms == {
            SignedIndex((5,)): 2
        }

    @pytest.mark.parametrize("kwargs,name", [
        (dict(coeff_base=2.0), "coeff_base"),
        (dict(global_sign=1.0), "global_sign"),
    ])
    def test_non_integers_refused(self, kwargs, name):
        # coeff_base 2.0 gave float coefficients, printed as 4*(2,1)
        with pytest.raises(ValueError, match="^%s must be an integer" % name):
            pi_expand_weighted(SignedIndex((2, 1)), **kwargs)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            pi_expand_weighted(SignedIndex((2,)), 0, 1)
        with pytest.raises(ValueError):
            pi_expand_weighted(SignedIndex((2,)), 2, 3)

    @given(indices, st.integers(min_value=1, max_value=3))
    def test_total_coefficient_mass(self, idx, base):
        # sum over images of base^depth equals prod over slots of (base+...)
        # only when no collisions merge coefficients; compare against the
        # raw image list instead of a closed form
        fs = pi_expand_weighted(idx, base, 1)
        raw = pi_expand(idx)
        assert sum(fs.terms.values()) == sum(base ** p.depth() for p in raw)


class TestStarExpand:
    def test_unit_coefficients(self):
        fs = star_expand(SignedIndex((2, 1, 1)))
        assert set(fs.terms.values()) == {1}
        assert len(fs) == 4

    def test_matches_pi_images(self):
        idx = SignedIndex((2, -3))
        assert sorted(fs_idx for fs_idx, _ in star_expand(idx)) == sorted(
            pi_expand(idx)
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            star_expand(EMPTY)


def _cli(*argv):
    """Run the CLI; a usage error (exit 2) is raised as the ValueError it
    reports, so a flag's floor reads like a library argument's."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    if code == 2:
        raise ValueError(err.getvalue().removeprefix("error: ").rstrip("\n"))
    return code


_SPEC = fam.FamilySpec(fam.TWO_ONE, a=(1,))

# (argument name, floor, call with the argument set to the value), one row
# per public entry and argument with a plain lower bound
FLOORS = [
    pytest.param("n", 0, lambda v: ee.mhs(v, (2,)), id="mhs"),
    pytest.param("n", 0, lambda v: ee.mhs_star(v, (2,)), id="mhs_star"),
    pytest.param("n", 0, lambda v: ee.mhs_oracle(v, (2,)), id="mhs_oracle"),
    pytest.param("n", 0, lambda v: ee.mhs_star_oracle(v, (2,)),
                 id="mhs_star_oracle"),
    pytest.param("n", 1, lambda v: ee.mollified_big(v, (2,)),
                 id="mollified_big"),
    pytest.param("n", 1, lambda v: ee.mollified_small(v, (2,)),
                 id="mollified_small"),
    pytest.param("n", 1, lambda v: ee.pi_companion_sum((2, 1), 2, 1, "big", v),
                 id="pi_companion_sum-n"),
    pytest.param("coeff_base", 1,
                 lambda v: ee.pi_companion_sum((2, 1), v, 1, "big", 3),
                 id="pi_companion_sum-coeff_base"),
    pytest.param("coeff_base", 1,
                 lambda v: pi_expand_weighted(SignedIndex((2, 1)), v),
                 id="pi_expand_weighted"),
    pytest.param("n", 1, lambda v: fam.verify_instance(_SPEC, v),
                 id="verify_instance"),
    pytest.param("n_max", 1,
                 lambda v: fam.verify_sweep(fam.TWO_ONE, {"a": (1,)}, v),
                 id="verify_sweep"),
    pytest.param("m", 1, lambda v: fam.KernelParams(m=v),
                 id="KernelParams-m"),
    pytest.param("a", 0, lambda v: fam.KernelParams(a=v),
                 id="KernelParams-a"),
    pytest.param("n", 1, lambda v: fam.check_lemma31("i", fam.KernelParams(),
                                                     v),
                 id="check_lemma31"),
    pytest.param("a", 0, lambda v: fam.check_ones_bar_one(v, 3),
                 id="check_ones_bar_one-a"),
    pytest.param("n", 1, lambda v: fam.check_ones_bar_one(1, v),
                 id="check_ones_bar_one-n"),
    pytest.param("a", 0, lambda v: fam.check_geometric_sum(v, 1, 2),
                 id="check_geometric_sum"),
    pytest.param("n", 1, verify_middlestep_1, id="verify_middlestep_1"),
    pytest.param("n", 1, verify_middlestep_2, id="verify_middlestep_2"),
    pytest.param("n", 0, lambda v: zn.mhs_float(v, (2,)), id="mhs_float"),
    pytest.param("n", 1, zn.check_zlobin, id="check_zlobin"),
    pytest.param("n", 1, zn.check_three_n, id="check_three_n"),
    pytest.param("r", 1, lambda v: zn.yamamoto_rhs(v, 0), id="yamamoto_rhs-r"),
    pytest.param("m", 0, lambda v: zn.yamamoto_rhs(1, v), id="yamamoto_rhs-m"),
    pytest.param("n", 0, zn.muneta_value, id="muneta_value"),
    pytest.param("m", 0, lambda v: zn.verify_ittw_conj2("i", {"m": v, "n": 0}),
                 id="verify_ittw_conj2-i-m"),
    pytest.param("n", 0, lambda v: zn.verify_ittw_conj2("i", {"m": 0, "n": v}),
                 id="verify_ittw_conj2-i-n"),
    pytest.param("n", 1, lambda v: zn.verify_ittw_conj2("ii", {"n": v}),
                 id="verify_ittw_conj2-ii"),
    pytest.param("n", 1, lambda v: zn.verify_ittw_conj2("iii", {"n": v}),
                 id="verify_ittw_conj2-iii"),
    pytest.param("--n", 0, lambda v: _cli("eval-mhs", "--index", "2", "--n",
                                          str(v)),
                 id="cli-eval-mhs"),
    pytest.param("--n", 1, lambda v: _cli("eval-mhs", "--index", "2",
                                          "--mollified", "big", "--n", str(v)),
                 id="cli-eval-mhs-mollified"),
    pytest.param("--coeff", 1, lambda v: _cli("expand", "--base", "2,1",
                                              "--coeff", str(v)),
                 id="cli-expand"),
    pytest.param("--n-max", 1, lambda v: _cli("verify", "--family", "two-one",
                                              "--a", "1", "--n-max", str(v)),
                 id="cli-verify"),
    pytest.param("--n", 1, lambda v: _cli("suite", "--suite", "middlestep",
                                          "--n", str(v)),
                 id="cli-suite"),
]


@pytest.mark.parametrize("name, least, call", FLOORS)
def test_floors_name_the_callers_value(name, least, call):
    # one rule and one wording for every floor, where there were 16
    # wordings and only one named the value
    for value in (least - 1, least - 5):
        with pytest.raises(ValueError, match="^%s$" % re.escape(
                "%s must be >= %d, got %d" % (name, least, value))):
            call(value)
    call(least)


def test_as_int_floor():
    assert as_int("n", 3, 3) == 3
    assert as_int("n", -7) == -7
    with pytest.raises(ValueError, match="^n must be >= 3, got 2$"):
        as_int("n", 2, 3)
    # an integer check comes before the floor
    with pytest.raises(ValueError, match="^n must be an integer, got 2.5$"):
        as_int("n", 2.5, 3)


_T81 = zn.verify_theorem81
_LEMMA31 = fam.check_lemma31
_KP = fam.KernelParams

# (call with the value set, a refused value, its full refusal, the nearest
# accepted value), one row per refusal site that is not a plain floor
# (FLOORS above): entry floors, caps, relations, named choices and the rules
# that fit none of them
REFUSALS = [
    # entry floors
    pytest.param(lambda v: fam.FamilySpec(fam.TWO_ONE_C2, a=(1,), b=(0,),
                                          c=(3,), t=v),
                 -1, "t must be >= 0, got -1", 0, id="FamilySpec-t"),
    pytest.param(lambda v: fam.FamilySpec(fam.TWO_ONE, a=(1, v)),
                 -1, "a must hold integers >= 0, got (1, -1)", 0,
                 id="FamilySpec-a"),
    pytest.param(lambda v: fam.FamilySpec(fam.C21, a=(0,), b=(v,), c=(3,)),
                 -2, "b must hold integers >= 0, got (-2,)", 0,
                 id="FamilySpec-b"),
    pytest.param(lambda v: fam.FamilySpec(fam.C21, a=(0,), b=(0,), c=(v,)),
                 2, "c must hold integers >= 3, got (2,)", 3,
                 id="FamilySpec-c"),
    pytest.param(lambda v: fam.FamilySpec(fam.ONES_C, a=(1,), c=(v,)),
                 0, "c must hold integers >= 1, got (0,)", 1,
                 id="FamilySpec-c-ones"),
    pytest.param(lambda v: _T81("i", (v, 0)),
                 -1, "e_values must hold integers >= 0, got (-1, 0)", 0,
                 id="verify_theorem81-runs"),
    pytest.param(lambda v: zn.partial_sum_tail_bound((2, 1), v),
                 511, "n must be >= 512, got 511", 512,
                 id="partial_sum_tail_bound"),
    pytest.param(lambda v: _LEMMA31("ii", _KP(m=2, kind="B", a=v), 4),
                 0, "a must be >= 1, got 0", 1, id="check_lemma31-a"),
    pytest.param(lambda v: _LEMMA31("i", _KP(kind="A", c=v), 4),
                 0, "c must be >= 1, got 0", 1, id="check_lemma31-c"),
    # caps, and the floors that come with them
    pytest.param(zn.bernoulli, 81, "k must be <= 80, got 81", 80,
                 id="bernoulli-cap"),
    pytest.param(zn.bernoulli, -1, "k must be >= 0, got -1", 0,
                 id="bernoulli-floor"),
    pytest.param(zn.bernoulli, 2.5, "k must be an integer, got 2.5", 2,
                 id="bernoulli-integer"),
    pytest.param(zn.beta_coeff, 41, "n must be <= 40, got 41", 40,
                 id="beta_coeff-cap"),
    pytest.param(zn.beta_coeff, -1, "n must be >= 0, got -1", 0,
                 id="beta_coeff-floor"),
    pytest.param(zn.beta_coeff, 1.5, "n must be an integer, got 1.5", 1,
                 id="beta_coeff-integer"),
    pytest.param(lambda v: ee.mhs_oracle(v, (2,)),
                 65, "n must be <= 64, got 65", 64, id="oracle-n"),
    pytest.param(lambda v: ee.mhs_star_oracle(4, (1,) * v),
                 6, "len(s) must be <= 5, got 6", 5, id="oracle-depth"),
    pytest.param(lambda v: verify_middlestep_1(v, depth_cap=5),
                 3, "n must be <= 2, got 3", 2, id="verify_middlestep_1-cap"),
    pytest.param(lambda v: verify_middlestep_2(v, depth_cap=5),
                 3, "n must be <= 2, got 3", 2, id="verify_middlestep_2-cap"),
    pytest.param(lambda v: zn.hoffman_symmetric_check((2,) * v),
                 5, "len(args) must be <= 4, got 5", 4,
                 id="hoffman_symmetric_check-cap"),
    pytest.param(lambda v: zn.hoffman_symmetric_check((2,) * v),
                 0, "len(args) must be >= 1, got 0", 1,
                 id="hoffman_symmetric_check-floor"),
    pytest.param(lambda v: _T81("i", (0,) * v),
                 5, "len(e_values) must be <= 4, got 5", 4,
                 id="verify_theorem81-cap"),
    pytest.param(lambda v: _T81("ii", (0,) * v),
                 2, "len(e_values) must be >= 3, got 2", 3,
                 id="verify_theorem81-floor"),
    pytest.param(lambda v: _cli("suite", "--suite", "middlestep", "--n",
                                str(v)),
                 5, "--n must be <= 4, got 5", 4, id="cli-suite-cap"),
    # relations: a floor or cap read from an argument already checked
    pytest.param(lambda v: fam.check_tail_weight_sum(v, 3),
                 3, "l must be <= 2, got 3", 2, id="check_tail_weight_sum-l"),
    pytest.param(lambda v: fam.check_tail_weight_sum(v, 3),
                 -1, "l must be >= 0, got -1", 0,
                 id="check_tail_weight_sum-l-floor"),
    pytest.param(lambda v: fam.check_tail_weight_sum(0, v),
                 0, "n must be >= 1, got 0", 1, id="check_tail_weight_sum-n"),
    pytest.param(lambda v: fam.check_geometric_sum(1, v, 3),
                 3, "k must be <= 2, got 3", 2, id="check_geometric_sum-k"),
    pytest.param(lambda v: fam.check_geometric_sum(1, v, 3),
                 0, "k must be >= 1, got 0", 1,
                 id="check_geometric_sum-k-floor"),
    pytest.param(lambda v: fam.check_geometric_sum(1, 1, v),
                 1, "n must be >= 2, got 1", 2, id="check_geometric_sum-n"),
    # named choices
    pytest.param(lambda v: ee.pi_companion_sum((2, 1), 2, 1, v, 3),
                 "huge", "companion must be one of ('big', 'small'), "
                 "got 'huge'", "small", id="pi_companion_sum-companion"),
    pytest.param(lambda v: ee.pi_companion_sum((2, 1), 2, v, "big", 3),
                 2, "global_sign must be one of (1, -1), got 2", 1,
                 id="pi_companion_sum-global_sign"),
    pytest.param(lambda v: pi_expand_weighted(SignedIndex((2,)), 2, v),
                 -2, "global_sign must be one of (1, -1), got -2", -1,
                 id="pi_expand_weighted-global_sign"),
    pytest.param(lambda v: _KP(kind=v), "C",
                 "kind must be one of ('A', 'B'), got 'C'", "B",
                 id="KernelParams-kind"),
    pytest.param(lambda v: _LEMMA31(v, _KP(kind="A"), 4), "v",
                 "variant must be one of ('i', 'ii', 'iii', 'iv'), got 'v'",
                 "i", id="check_lemma31-variant"),
    pytest.param(lambda v: _LEMMA31("ii", _KP(m=v, kind="B", a=1), 4),
                 3, "m must be one of (2,), got 3", 2, id="check_lemma31-m"),
    pytest.param(fam.family_row, "TWO_ONE_THREE",
                 "family must be one of %r, got 'TWO_ONE_THREE'"
                 % (fam.FAMILIES,), "TWO_ONE", id="family_row"),
    pytest.param(lambda v: zn.verify_ittw_conj2(v, {"n": 1}), "iv",
                 "part must be one of ('i', 'ii', 'iii'), got 'iv'", "iii",
                 id="verify_ittw_conj2-part"),
    pytest.param(lambda v: _T81(v, (0, 0)), "iii",
                 "part must be one of ('i', 'ii'), got 'iii'", "i",
                 id="verify_theorem81-part"),
    # enumerate_specs refuses a pool value no family takes before any spec
    pytest.param(lambda v: list(fam.enumerate_specs(
                     fam.TWO_ONE, r_values=(2,), a_values=(v, 1))),
                 -1, "a_values must hold integers >= 0, got (-1, 1)", 0,
                 id="enumerate_specs-a"),
    pytest.param(lambda v: list(fam.enumerate_specs(
                     fam.C21, r_values=(1,), b_values=(v,))),
                 -1, "b_values must hold integers >= 0, got (-1,)", 0,
                 id="enumerate_specs-b"),
    pytest.param(lambda v: list(fam.enumerate_specs(
                     fam.ONES_C, r_values=(1,), a_values=(1,),
                     c_values=(v,))),
                 0, "c_values must hold integers >= 1, got (0,)", 1,
                 id="enumerate_specs-c"),
    pytest.param(lambda v: list(fam.enumerate_specs(
                     fam.TWO_ONE_C2, r_values=(1,), t_values=(v,))),
                 -1, "t_values must hold integers >= 0, got (-1,)", 0,
                 id="enumerate_specs-t"),
    pytest.param(lambda v: list(fam.enumerate_specs(
                     fam.C21, r_values=(v,))),
                 -1, "r_values must hold integers >= 0, got (-1,)", 0,
                 id="enumerate_specs-r"),
    # rules that fit no kind, each naming the value given
    pytest.param(lambda v: SignedIndex((1, v)), 0,
                 "index parts must be nonzero integers, got (1, 0)", 1,
                 id="SignedIndex"),
    pytest.param(lambda v: zn.hoffman_symmetric_check((v, 2)), 3,
                 "args must be even and nonzero, got (3, 2)", 2,
                 id="hoffman_symmetric_check-even"),
    pytest.param(lambda v: _T81("i", (0,) * v), 3,
                 "part i needs an even number of runs, got 3", 2,
                 id="verify_theorem81-parity-i"),
    pytest.param(lambda v: _T81("ii", (0,) * v), 4,
                 "part ii needs an odd number of runs, got 4", 3,
                 id="verify_theorem81-parity-ii"),
    pytest.param(lambda v: fam.FamilySpec(fam.TWO_ONE, a=(1,), b=v), (1,),
                 "TWO_ONE spec invalid: parameter b is not used by this "
                 "family, got (1,)", (), id="FamilySpec-unused"),
    # an unused slot is refused as unused, before any floor
    pytest.param(lambda v: fam.FamilySpec(fam.TWO_ONE, a=(1,), c=v), (1,),
                 "TWO_ONE spec invalid: parameter c is not used by this "
                 "family, got (1,)", (), id="FamilySpec-unused-c"),
    pytest.param(lambda v: fam.FamilySpec(fam.TWO_ONE, a=(1,), t=v), -1,
                 "TWO_ONE spec invalid: parameter t is not used by this "
                 "family, got -1", 0, id="FamilySpec-unused-t"),
]


@pytest.mark.parametrize("call, refused, message, accepted", REFUSALS)
def test_refusals_name_the_callers_value(call, refused, message, accepted):
    # one rule per kind (as_int, as_ints, as_choice), each naming the value
    # the caller gave; the accepted value pins the other side of the line
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        call(refused)
    call(accepted)


def test_no_hand_written_rule_comes_back():
    # a membership refusal is as_choice's, and the wordings of the floor,
    # cap and choice rules live in index_core only, so a rule written by
    # hand beside them would show here
    package = pathlib.Path(index_core.__file__).parent
    membership_raises, wordings, choice_nodes = [], [], 0
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {id(node) for def_ in ast.walk(tree)
                   if isinstance(def_, ast.FunctionDef)
                   and def_.name == "as_choice" for node in ast.walk(def_)}
        choice_nodes += len(allowed)
        for node in ast.walk(tree):
            if (isinstance(node, ast.If) and id(node) not in allowed
                    and any(isinstance(op, ast.NotIn)
                            for test in ast.walk(node.test)
                            if isinstance(test, ast.Compare)
                            for op in test.ops)
                    and any(isinstance(stmt, ast.Raise)
                            for stmt in node.body)):
                membership_raises.append((path.name, node.lineno))
            if (path.name != "index_core.py"
                    and isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and any(word in node.value for word in (
                        "must be >=", "must be <=", "must be one of"))):
                wordings.append((path.name, node.lineno))
    assert choice_nodes
    assert not membership_raises
    assert not wordings
