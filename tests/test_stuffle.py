"""Quasi-shuffle product and the two telescoping coefficient identities."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starsum.exact_eval import mhs, rational
from starsum.index_core import FormalSum, SignedIndex, pi_expand_weighted
from starsum.stuffle import (
    DEPTH_CAP,
    stuffle,
    stuffle_product,
    verify_middlestep_1,
    verify_middlestep_2,
)

nonzero = st.integers(-5, 5).filter(lambda v: v != 0)
indices = st.lists(nonzero, min_size=1, max_size=3).map(tuple)


class TestStuffleBasics:
    def test_empty_index_is_the_unit(self):
        assert stuffle((), (3,)) == FormalSum({(3,): 1})
        assert stuffle((2, 1), ()) == FormalSum({(2, 1): 1})
        assert stuffle((), ()) == FormalSum({(): 1})

    def test_depth_one_times_depth_one(self):
        assert stuffle((2,), (3,)) == FormalSum({
            (2, 3): 1, (3, 2): 1, (5,): 1,
        })
        assert stuffle((2,), (2,)) == FormalSum({(2, 2): 2, (4,): 1})

    def test_signed_heads_merge_through_oplus(self):
        assert stuffle((-2,), (3,)) == FormalSum({
            (-2, 3): 1, (3, -2): 1, (-5,): 1,
        })
        assert stuffle((-2,), (-3,)) == FormalSum({
            (-2, -3): 1, (-3, -2): 1, (5,): 1,
        })

    def test_depth_two_times_depth_one(self):
        assert stuffle((2, 1), (2,)) == FormalSum({
            (2, 1, 2): 1, (2, 2, 1): 2, (2, 3): 1, (4, 1): 1,
        })

    def test_bilinear_extension(self):
        f = FormalSum({(2,): 2})
        g = FormalSum({(3,): 3, (): 1})
        product = stuffle_product(f, g)
        assert product == FormalSum({
            (2, 3): 6, (3, 2): 6, (5,): 6, (2,): 2,
        })

    @given(s=indices, t=indices)
    @settings(max_examples=80, deadline=None)
    def test_commutative(self, s, t):
        assert stuffle(s, t) == stuffle(t, s)

    @given(s=indices, t=indices)
    @settings(max_examples=80, deadline=None)
    def test_terms_conserve_weight_and_bound_depth(self, s, t):
        weight = sum(abs(v) for v in s) + sum(abs(v) for v in t)
        for idx, coeff in stuffle(s, t):
            assert idx.weight() == weight
            assert max(len(s), len(t)) <= idx.depth() <= len(s) + len(t)
            assert coeff >= 1

    @given(s=indices, t=indices)
    @settings(max_examples=60, deadline=None)
    def test_interleaving_mass(self, s, t):
        # The merge-free layer carries exactly the binomial number of
        # interleavings, aggregated over coinciding words.
        full = len(s) + len(t)
        mass = sum(coeff for idx, coeff in stuffle(s, t)
                   if idx.depth() == full)
        expected = 1
        for i in range(1, len(s) + 1):
            expected = expected * (full - i + 1) // i
        assert mass == expected


class TestProductLaw:
    def test_seeded_pairs_exact(self):
        rng = random.Random(2026)
        for _ in range(40):
            s = tuple(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
                      for _ in range(rng.randint(1, 3)))
            t = tuple(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
                      for _ in range(rng.randint(1, 3)))
            terms = stuffle(s, t)
            for n in (1, 2, 3, 7, 19, 30):
                direct = mhs(n, s) * mhs(n, t)
                combined = sum((coeff * mhs(n, u) for u, coeff in terms),
                               rational(0))
                assert direct == combined, (s, t, n)

    @given(s=indices, t=indices, n=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_random_pairs_exact(self, s, t, n):
        combined = sum((coeff * mhs(n, u) for u, coeff in stuffle(s, t)),
                       rational(0))
        assert mhs(n, s) * mhs(n, t) == combined


class TestMiddlesteps:
    @pytest.mark.parametrize("n", [1, 2])
    def test_first_identity(self, n):
        report = verify_middlestep_1(n)
        assert report["equal"] is True
        assert report["difference"] == "0"
        assert report["n"] == n
        assert report["depth"] == 2 * n + 1
        assert report["lhs_multiplicity"] == 2 * n + 1
        assert report["lhs_terms"] > 0
        assert report["rhs_terms"] > 0

    @pytest.mark.parametrize("n", [1, 2])
    def test_second_identity(self, n):
        report = verify_middlestep_2(n)
        assert report["equal"] is True
        assert report["difference"] == "0"
        assert report["depth"] == 2 * n
        assert report["lhs_multiplicity"] == 1

    def test_first_identity_needs_the_multiplicity(self):
        # Dropping the 2n+1 factor must break the n = 1 case; guards
        # against the check degenerating into a tautology.
        lhs = pi_expand_weighted(SignedIndex((-2, -2, -2)), 2, 1)
        rhs = FormalSum()
        for j in (0, 1):
            tail = FormalSum({(-(4 * (1 - j) + 2),): 2})
            run = (FormalSum({(): 1}) if j == 0 else
                   pi_expand_weighted(SignedIndex((-2,) * (2 * j)), 2, 1))
            for idx, coeff in stuffle_product(run, tail):
                rhs.add_term(idx, coeff)
        assert lhs * 3 == rhs
        assert lhs != rhs

    def test_depth_cap(self):
        with pytest.raises(ValueError, match="exceeds the cap"):
            verify_middlestep_1(5)
        with pytest.raises(ValueError, match="exceeds the cap"):
            verify_middlestep_2(5, depth_cap=DEPTH_CAP)
        assert verify_middlestep_1(4, depth_cap=9)["equal"]

    def test_n_below_one(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            verify_middlestep_1(0)
        with pytest.raises(ValueError, match="n must be >= 1"):
            verify_middlestep_2(0)

    @pytest.mark.parametrize("verify", [verify_middlestep_1,
                                        verify_middlestep_2])
    def test_non_integers_refused(self, verify):
        # n = 1.5 failed inside the expansion with a TypeError
        with pytest.raises(ValueError, match="^n must be an integer"):
            verify(1.5)
        with pytest.raises(ValueError, match="^depth_cap must be an integer"):
            verify(1, depth_cap=9.0)

    def test_numeric_consequence(self):
        # The formal equality must survive evaluation: both sides of the
        # n = 1 identity give the same rational once every image is run
        # through the strict evaluator.
        report = verify_middlestep_1(1)
        assert report["equal"]
        lhs = pi_expand_weighted(SignedIndex((-2, -2, -2)), 2, 1)
        total = sum((coeff * mhs(6, idx) for idx, coeff in lhs), rational(0))
        rhs_total = rational(0)
        for j in (0, 1):
            tail = FormalSum({(-(4 * (1 - j) + 2),): 2})
            run = (FormalSum({(): 1}) if j == 0 else
                   pi_expand_weighted(SignedIndex((-2, -2)), 2, 1))
            for idx, coeff in stuffle_product(run, tail):
                rhs_total += coeff * mhs(6, idx)
        assert 3 * total == rhs_total
