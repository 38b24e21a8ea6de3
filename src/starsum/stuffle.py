"""Quasi-shuffle product over signed indices, plus the two formal
coefficient identities that reduce the symmetric-insertion sums to it.

The product interleaves two indices and additionally lets the current heads
merge through the sign-aware oplus, so H_n(s) * H_n(t) expands exactly over
the resulting integer combination.  The two verify_middlestep functions
check, as coefficient-exact FormalSum equalities, that the weighted
comma-or-merge expansions of runs of -2 (with one -4 slipped in for the
second identity) telescope against products with a single even alternating
tail term.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from .index_core import (
    FormalSum,
    SignedIndex,
    as_index,
    as_int,
    oplus,
    pi_expand_weighted,
)

DEPTH_CAP = 9


def _stuffle_terms(sp: Tuple[int, ...], tp: Tuple[int, ...]) -> dict:
    if not sp or not tp:
        return {sp + tp: 1}
    acc = {}
    for head, branch in (
            (sp[0], _stuffle_terms(sp[1:], tp)),
            (tp[0], _stuffle_terms(sp, tp[1:])),
            (oplus(sp[0], tp[0]), _stuffle_terms(sp[1:], tp[1:]))):
        for parts, coeff in branch.items():
            key = (head,) + parts
            acc[key] = acc.get(key, 0) + coeff
    return acc


def stuffle(s, t) -> FormalSum:
    """Quasi-shuffle product of two signed indices.

    st(emptyset, t) = {t: 1}; st(a*s', b*t') = a*st(s', b*t')
    + b*st(a*s', t') + (a opl b)*st(s', t').  Coefficients are integers;
    the empty index is the unit.
    """
    sp = as_index(s).parts
    tp = as_index(t).parts
    return FormalSum((SignedIndex(parts), coeff)
                     for parts, coeff in _stuffle_terms(sp, tp).items())


def stuffle_product(f: FormalSum, g: FormalSum) -> FormalSum:
    """Bilinear extension of stuffle to integer combinations."""
    out = FormalSum()
    for s, cs in f:
        for t, ct in g:
            for u, cu in stuffle(s, t):
                out.add_term(u, cs * ct * cu)
    return out


def _minus_two_expansion(count: int) -> FormalSum:
    """Weighted comma-or-merge expansion of ({-2})^count; the empty run
    contributes the unit with coefficient 1."""
    if count == 0:
        return FormalSum(((SignedIndex(()), 1),))
    return pi_expand_weighted(SignedIndex((-2,) * count), 2, 1)


def _report(n: int, depth: int, lhs: FormalSum,
            telescope: Iterable[Tuple[int, int]], multiplicity: int) -> dict:
    """lhs against the sum over the (count, weight) pairs of the stuffle
    product of the ({-2})^count expansion with 2 * (-weight)."""
    rhs = FormalSum()
    for count, weight in telescope:
        tail = FormalSum(((SignedIndex((-weight,)), 2),))
        for idx, coeff in stuffle_product(_minus_two_expansion(count), tail):
            rhs.add_term(idx, coeff)
    diff = lhs - rhs
    return {
        "n": n,
        "depth": depth,
        "lhs_multiplicity": multiplicity,
        "lhs_terms": len(lhs),
        "rhs_terms": len(rhs),
        "equal": not diff,
        "difference": diff.format(wrap="zeta"),
    }


def verify_middlestep_1(n: int, depth_cap: int = DEPTH_CAP) -> dict:
    """Expansion of ({-2})^(2n+1) against the telescoped product form.

    LHS: the weighted comma-or-merge expansion with coefficients 2^depth,
    taken with multiplicity 2n+1.  The multiplicity is forced by the
    product form: distributing the tail factor produces every image once
    per unit of half its weight, and the weight is 4n+2 throughout.  (The
    factor also matches the product identity this equality feeds, which
    carries 2n+1 on the same side.)
    RHS: sum over j = 0..n of the stuffle product of the ({-2})^(2j)
    expansion with the single term 2 * (-(4(n-j)+2)).  Checked as an exact
    FormalSum identity.
    """
    # the expansion depth 2n + 1 is at most depth_cap
    depth_cap = as_int("depth_cap", depth_cap)
    n = as_int("n", n, 1, (depth_cap - 1) // 2)
    depth = 2 * n + 1
    multiplicity = 2 * n + 1
    lhs = _minus_two_expansion(depth) * multiplicity
    telescope = [(2 * j, 4 * (n - j) + 2) for j in range(n + 1)]
    return _report(n, depth, lhs, telescope, multiplicity)


def verify_middlestep_2(n: int, depth_cap: int = DEPTH_CAP) -> dict:
    """One -4 among (2n-1) copies of -2, against the telescoped products.

    LHS: sum over the position of the -4 of the weighted comma-or-merge
    expansions.  RHS: sum over j = 0..n-1 of the stuffle product of the
    ({-2})^(2j+1) expansion with the single term 2 * (-4(n-j)).  No extra
    multiplicity here: summing over the -4 position already supplies the
    copies the product form generates.
    """
    # the expansion depth 2n is at most depth_cap
    depth_cap = as_int("depth_cap", depth_cap)
    n = as_int("n", n, 1, depth_cap // 2)
    depth = 2 * n
    lhs = FormalSum()
    for position in range(depth):
        base = [-2] * depth
        base[position] = -4
        for idx, coeff in pi_expand_weighted(SignedIndex(base), 2, 1):
            lhs.add_term(idx, coeff)
    telescope = [(2 * j + 1, 4 * (n - j)) for j in range(n)]
    return _report(n, depth, lhs, telescope, 1)
