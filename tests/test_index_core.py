"""Data-model tests: signed indices, formal sums, expansions."""

import pickle

import pytest
from hypothesis import given, strategies as st

from starsum.index_core import (
    EMPTY,
    FormalSum,
    SignedIndex,
    as_index,
    format_index,
    oplus,
    parse_index,
    pi_expand,
    pi_expand_weighted,
    star_expand,
)


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
