"""Exact rational evaluation of nested harmonic sums.

Everything in this module is exact: values are arbitrary-precision
rationals, never floats.  The public evaluators are

* ``mhs(n, s)``       strict nested sum over n >= k_1 > ... > k_m >= 1
* ``mhs_star(n, s)``  weak nested sum over n >= k_1 >= ... >= k_m >= 1
* ``mollified_big``   the same outer sum damped by C(n,k)/C(n+k,k)
* ``mollified_small`` damped by C(n,k)
* ``pi_companion_sum``  a comma-or-merge expansion of a base index,
  evaluated against either mollified companion in one pass

``mhs``, ``mhs_star`` and ``pi_companion_sum`` read one memoized list
recurrence, L_k(s) = L_{k-1}(s) + term(s_1,k) * (eq * L_k(tail) + (lt - eq) *
L_{k-1}(tail)); the three kinds of list differ only in the weight eq of an
equal step and lt of a strict step (table at the memo below).  The lists
grow on integers over lcm(1..n)^weight and store one normalized rational
per value.  There are also brute-force oracles that re-evaluate the
defining sums by direct enumeration (no recursion, no caching) so the fast
engine has something independent to be checked against; each strict/weak
pair is one body.  They share no code with the recurrence: each chain's
term is an integer product over lcm(1..n)^weight, and one rational is
formed per sum.

The damping weights C(n,k) and C(n,k)/C(n+k,k) = C(2n,n-k)/C(2n,n) are
Lemma 3.1's integer kernel rows C(mn,n-k) over C(mn,n), so each companion
of an index is one cached kernel sum (``_kernel_sum``) over lcm(1..n)^weight.
The companion pass is one checked integer sum over lcm(1..n)^weight(base),
the denominator its mathematics fixes (``_lcm_to`` caches lcm(1..n)).

Arithmetic uses gmpy2.mpq when available and falls back to
fractions.Fraction otherwise; results are identical, the fallback is just
slower on large sweeps.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import Dict, List, Tuple

from starsum.index_core import as_index, as_int

__all__ = [
    "RATIONAL_BACKEND",
    "rational",
    "rat_str",
    "mhs",
    "mhs_star",
    "mollified_big",
    "mollified_small",
    "pi_companion_sum",
    "mhs_oracle",
    "mhs_star_oracle",
    "clear_memo",
    "memo_stats",
]

try:
    from gmpy2 import mpq as _mpq
except ImportError:  # pragma: no cover - exercised only without gmpy2
    _mpq = None

RATIONAL_BACKEND = "gmpy2" if _mpq is not None else "fractions"
_Q = _mpq if _mpq is not None else Fraction

_ZERO = _Q(0)
_ONE = _Q(1)


def rational(numerator, denominator=1):
    """Exact rational in the active backend (normalized, denominator > 0)."""
    return _Q(numerator, denominator)


def rat_str(value) -> str:
    """Serialize a rational as "p/q" (always with an explicit denominator)."""
    return "%d/%d" % (value.numerator, value.denominator)


# ---------------------------------------------------------------------------
# memoized fast engine
#
# One growing list per (suffix, eq, lt): _lists[(parts, eq, lt)][k] == L_k,
# where, with s = (s_1, tail) and L(()) == 1,
#
#     L_k(s) = L_{k-1}(s) + term(s_1, k) * (eq * L_k(tail)
#                                           + (lt - eq) * L_{k-1}(tail)).
#
#     (eq, lt) = (0, 1)   H_k(s), the strict sum (mhs)
#     (eq, lt) = (1, 1)   H*_k(s), the weak sum (mhs_star)
#     (eq, lt) = (1, c)   T_k(s), the sum over the comma-or-merge images q of
#                         s of c^depth(q) * H_k(q) (pi_companion_sum)
#
# T is a weak sum in which an equal step weighs 1 and a strict step weighs c:
# term(a,k) * term(b,k) == term(a (+) b, k), so a run of equal indices is one
# merged entry, and each entry carries one factor c.  For c = 1 this is H*,
# so the companion pass shares the mhs_star lists.  Sweep drivers share work
# across cells only through these lists.
#
# Growth to n runs on integers.  With scale = lcm(1..n) and w = weight(s),
# N_k = L_k(s) * scale^w, and term(s_1, k) * scale^|s_1| is the integer
# sgn(s_1)^k * (scale/k)^|s_1| (_step_weight), so
#
#     N_k = N_{k-1} + sgn(s_1)^k (scale/k)^|s_1| (eq * M_k
#                                                  + (lt - eq) * M_{k-1})
#
# with M the tail's integers over scale^weight(tail) (M == 1 for an empty
# tail).  A stored value a growth starts from is put on the scale by a
# checked division (_on_scale), and each new value is stored as the one
# normalized rational N_k / scale^w; an unchanged value is the previous
# object itself.
#
# Memory bound: _ensure, which alone stores lists, drops them all on entry
# once more than _MEMO_LIMIT values are stored (the sum of the list
# lengths), and counts the drop.  Every reader of the lists is here.
# ---------------------------------------------------------------------------

_lists: Dict[Tuple[tuple, int, int], List] = {}
_stored_values = _drops = _hits = _grown = 0
_MEMO_LIMIT = 600_000


def clear_memo() -> None:
    global _stored_values, _drops, _hits, _grown
    _lists.clear()
    _stored_values = _drops = _hits = _grown = 0


def memo_stats() -> dict:
    """The stored values, the H and T lists, the limit, and since the last
    clear_memo() the drops by it, the lists grown and the hits (_ensure
    calls that returned at once)."""
    h_lists = sum(1 for _, _, lt in _lists if lt == 1)
    return {"stored_values": _stored_values, "h_lists": h_lists,
            "t_lists": len(_lists) - h_lists, "drops": _drops, "hits": _hits,
            "grown": _grown, "limit": _MEMO_LIMIT}


# Sized from the traffic: deep asks for n = 1..200, sweeps and caps n <= 50.
@lru_cache(maxsize=256)
def _lcm_to(n: int) -> int:
    """lcm(1..n)."""
    return lcm(*range(1, n + 1))


def _step_weight(scale: int, part: int, k: int) -> int:
    """sgn(part)^k * (scale/k)^|part|: term(part, k) over scale^|part|."""
    weight = (scale // k) ** abs(part)
    return -weight if part < 0 and k % 2 else weight


def _on_scale(value, den: int, where: Tuple[int, tuple]) -> int:
    """The integer N with value == N / den, for the stored value L_k(s) at
    where = (k, s); ArithmeticError if there is none, so the premise that
    den = lcm(1..n)^weight(s) is a common denominator is checked."""
    quotient, remainder = divmod(den, value.denominator)
    if remainder:
        raise ArithmeticError("L_%d%s is not over lcm(1..n)^weight" % where)
    return value.numerator * quotient


def _ensure(parts: tuple, eq: int, lt: int, n: int) -> List:
    """Grow (and return) the cached list L_0..L_n of a nonempty suffix.  The
    lists of its own suffixes grow first, so none is shorter than it: only
    the lists outside the outermost one long enough grow, innermost first,
    on integers over lcm(1..n)^weight (see the memo comment)."""
    global _stored_values, _drops, _hits, _grown
    suffix = parts
    vals = _lists.get((suffix, eq, lt))
    if vals is not None and len(vals) > n:
        _hits += 1
        return vals
    if _stored_values > _MEMO_LIMIT:
        _lists.clear()
        _stored_values = 0
        _drops += 1
        vals = None
    chain, tail_vals = [], None  # (suffix, list) to grow, outermost first
    while True:
        if vals is None:
            vals = _lists[(suffix, eq, lt)] = [_ZERO]
            _stored_values += 1
        chain.append((suffix, vals))
        suffix = suffix[1:]
        if not suffix:
            break
        vals = _lists.get((suffix, eq, lt))
        if vals is not None and len(vals) > n:
            tail_vals = vals
            break
    scale = _lcm_to(n)
    # The tail's integers over tail_den: below tail_lo its values are only
    # stored, and tail_ints[k - tail_lo] is the one this call grew at k.  A
    # tail list is at least as long as the list it is a suffix of, so what
    # this call grew of it starts at or after the first index the list reads.
    tail_den = scale ** sum(map(abs, suffix))  # 1 for the empty tail
    tail_lo, tail_ints = n + 1, []
    for suffix_now, vals in reversed(chain):
        head, lo = suffix_now[0], len(vals) - 1
        den = tail_den * scale ** abs(head)
        if tail_vals is None:
            # L(()) == 1, so the bracket is eq + (lt - eq) == lt
            brackets = itertools.repeat(lt)
        else:
            inner = [_on_scale(tail_vals[k], tail_den, (k, suffix))
                     for k in range(lo, tail_lo)] + tail_ints
            if not eq:
                brackets = inner[:-1]
            elif lt == 1:
                brackets = inner[1:]
            else:
                brackets = [now + (lt - 1) * before
                            for before, now in zip(inner, inner[1:])]
        total = _on_scale(vals[lo], den, (lo, suffix_now))
        ints = [total]
        for k, bracket in zip(range(lo + 1, n + 1), brackets):
            if bracket:
                total += _step_weight(scale, head, k) * bracket
                vals.append(_Q(total, den))
            else:
                vals.append(vals[k - 1])
            ints.append(total)
        _stored_values += n - lo
        _grown += 1
        suffix, tail_vals, tail_den = suffix_now, vals, den
        tail_lo, tail_ints = lo, ints
    return vals


def _h_value(n: int, s, star: bool):
    n = as_int("n", n)
    parts = as_index(s).parts
    if n < 0:
        raise ValueError("n must be >= 0")
    if not parts:
        return _ONE
    if n == 0 or (n < len(parts) and not star):
        return _ZERO
    return _ensure(parts, int(star), 1, n)[n]


def mhs(n: int, s) -> "rational":
    """H_n(s): strict nested sum.  H_n(empty)=1; H_n(s)=0 when n < depth."""
    return _h_value(n, s, star=False)


def mhs_star(n: int, s) -> "rational":
    """H*_n(s): weak nested sum.  Same conventions as mhs."""
    return _h_value(n, s, star=True)


# Sized from the traffic, like _kernel_sum below: the c2 grid asks for 120
# distinct rows, a perfbench kernels pass for 40.
@lru_cache(maxsize=128)
def _kernel_row(kind: str, m: int, n: int) -> Tuple[int, ...]:
    """K[k] = (-1)^k C(mn, n-k) for k = 0..n ("A"), or its unsigned
    counterpart ("B").  The kernels of Lemma 3.1 carry a further factor c_n
    (1 for m = 1, 1/C(2n,n) for m = 2, so that |K| = C(n,k)/C(n+k,k) in
    the damped case); it is left out, see families.check_lemma31."""
    sign = -1 if kind == "A" else 1
    return tuple(sign ** k * comb(m * n, n - k) for k in range(n + 1))


def _kernel_power(x: Tuple[int, ...], expo: int) -> int:
    """p = weight(x) + max(expo, 0): S(x, expo) is an integer over
    lcm(1..n)^p.  _kernel_sum and check_lemma31 both read p from here."""
    return sum(map(abs, x)) + max(expo, 0)


# Sized from the traffic: a perfbench kernels pass asks for 11,600 sums,
# 6,060 of them distinct, and the bound holds them all.  The c2 grid asks
# for 34,800 (18,180 distinct) but reuses each soon; the bound costs it 69
# of 16,620 hits.
@lru_cache(maxsize=1 << 13)
def _kernel_sum(x: Tuple[int, ...], expo: int, kind: str, m: int,
                n: int) -> int:
    """The integer N with S(x, expo) = N / lcm(1..n)^p, where
    S(x, e) = sum_{k=1..n} H_{k-1}(x) K_{n,k} / k^e over the row
    _kernel_row(kind, m, n) and p = _kernel_power(x, expo); expo = -1
    gives the k-weighted form on the right of the two difference identities.

    Every denominator of H_{k-1}(x) divides lcm(1..n)^weight(x), and k^expo
    divides lcm(1..n)^expo, so each term is an integer over lcm(1..n)^p.
    The list H_0..H_{n-1}(x) is read once from the memo, and each quotient
    is taken with divmod: a remainder raises ArithmeticError, so the premise
    is checked, not assumed.
    """
    h_vals = _ensure(x, 0, 1, n - 1) if x else (1,) * n
    row = _kernel_row(kind, m, n)
    p = _kernel_power(x, expo)
    scale = _lcm_to(n) ** p
    total = 0
    for k, h in zip(range(1, n + 1), h_vals):
        if not h:
            continue
        den = h.denominator * k ** expo if expo > 0 else h.denominator
        quotient, remainder = divmod(scale, den)
        if remainder:
            raise ArithmeticError("term %d of S(%s, %d) is not over "
                                  "lcm(1..%d)^%d" % (k, x, expo, n, p))
        term = h.numerator * quotient * row[k]
        total += term * k ** -expo if expo < 0 else term
    return total


def _mollified(n: int, s, m: int):
    """S(tail, |s_1|) of kind "A" (s_1 < 0) or "B", with m = 2 (big) or 1
    (small), times the kernel factor c_n = 1/C(mn, n)."""
    n = as_int("n", n)
    if n < 1:
        raise ValueError("mollified sums need n >= 1")
    s = as_index(s)
    if s.is_empty():
        raise ValueError("mollified sums need a nonempty index")
    head, tail = s.head(), s.parts[1:]
    return _Q(_kernel_sum(tail, abs(head), "A" if head < 0 else "B", m, n),
              _lcm_to(n) ** s.weight() * comb(m * n, n))


def mollified_big(n: int, s) -> "rational":
    """Outer sum damped by C(n,k)/C(n+k,k); exact."""
    return _mollified(n, s, 2)


def mollified_small(n: int, s) -> "rational":
    """Outer sum damped by C(n,k); exact."""
    return _mollified(n, s, 1)


def pi_companion_sum(base, coeff_base: int, global_sign: int, companion: str,
                     n: int) -> "rational":
    """sign * sum over the comma-or-merge expansion p of base of
    coeff_base^depth(p) * companion_n(p), exactly.

    companion is "big" (weights C(n,k)/C(n+k,k)) or "small" (C(n,k)).
    Equivalent to expanding with pi_expand_weighted and evaluating each
    image separately; this pass is O(n * depth) after cache warmup and is
    what the sweep drivers call.

    T(k) is the sum of coeff_base^depth(p) * H_k(p) over the images p: the
    weak nested sum of base in which an equal step weighs 1 and a strict step
    weighs coeff_base, grown by the list recurrence with (eq, lt) =
    (1, coeff_base).  For coeff_base 1 it is the mhs_star list itself.

    A merge keeps the weight, so each increment dT(k) = T(k) - T(k-1) is
    over D = lcm(1..n)^weight(base) (divmod checks it, ArithmeticError if
    not) and the pass is one integer sum: sign * sum_k w_k * dT(k)*D over D
    (small, w_k = C(n,k)) or over D*C(2n,n) (big, w_k = C(2n,n-k)).
    """
    n = as_int("n", n)
    base = as_index(base)
    if base.is_empty():
        raise ValueError("pi_companion_sum needs a nonempty base")
    if companion not in ("big", "small"):
        raise ValueError("companion must be 'big' or 'small'")
    if global_sign not in (1, -1):
        raise ValueError("global_sign must be +1 or -1")
    if n < 1:
        raise ValueError("n must be >= 1")
    coeff_base = as_int("coeff_base", coeff_base)
    if coeff_base < 1:
        raise ValueError("coeff_base must be >= 1, got %d" % coeff_base)
    tvals = _ensure(base.parts, 1, coeff_base, n)
    denom = _lcm_to(n) ** base.weight()
    total = 0
    for k in range(1, n + 1):
        delta = tvals[k] - tvals[k - 1]
        quotient, remainder = divmod(denom, delta.denominator)
        if remainder:
            raise ArithmeticError("dT(%d) is not over lcm(1..%d)^w" % (k, n))
        weight = comb(2 * n, n - k) if companion == "big" else comb(n, k)
        total += weight * delta.numerator * quotient
    if companion == "big":
        denom *= comb(2 * n, n)
    return _Q(global_sign * total, denom)


# ---------------------------------------------------------------------------
# brute-force oracles: direct enumeration of the defining sums
# ---------------------------------------------------------------------------

_ORACLE_N_MAX = 64
_ORACLE_DEPTH_MAX = 5


def _oracle(n: int, s, star: bool) -> "rational":
    """Sum over every chain of n >= k_1 > ... > k_m >= 1 (>= when star) of
    prod sgn(s_i)^k_i / k_i^|s_i|.  With L = lcm(1..n) each term is the
    integer prod sgn(s_i)^k_i (L/k_i)^|s_i| over L^weight(s), so the chains
    are summed as integers and one rational is formed at the end."""
    n = as_int("n", n)
    s = as_index(s)
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > _ORACLE_N_MAX:
        raise ValueError("oracle guard: n=%d exceeds %d" % (n, _ORACLE_N_MAX))
    if s.depth() > _ORACLE_DEPTH_MAX:
        raise ValueError("oracle guard: depth %d exceeds %d"
                         % (s.depth(), _ORACLE_DEPTH_MAX))
    # chains come out ascending; an empty index has the one empty chain
    chains = (itertools.combinations_with_replacement if star
              else itertools.combinations)(range(1, n + 1), s.depth())
    scale = lcm(*range(1, n + 1))  # L
    # rows[i][k] = sgn(s_i)^k (L/k)^|s_i|; index 0 is never read
    rows = [[0] + [(-1 if part < 0 and k % 2 else 1)
                   * (scale // k) ** abs(part) for k in range(1, n + 1)]
            for part in s.parts]
    total = 0
    for chain in chains:
        term = 1
        # pair the largest k with the first part
        for row, k in zip(rows, reversed(chain)):
            term *= row[k]
        total += term
    return _Q(total, scale ** s.weight())


def mhs_oracle(n: int, s) -> "rational":
    """Definition-level evaluation of the strict sum; no recursion, no cache."""
    return _oracle(n, s, star=False)


def mhs_star_oracle(n: int, s) -> "rational":
    """Definition-level evaluation of the weak sum; no recursion, no cache."""
    return _oracle(n, s, star=True)
