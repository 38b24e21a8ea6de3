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
equal step and lt of a strict step (table at the memo below).  A list
grows by one recursion, its tail's list first, on integers over
lcm(1..n)^weight, and is stored as integers on its natural scale, L_k *
lcm(1..k)^weight, each checked by one exact division as it is stored.  A
rational is formed only when a reader asks for one: ``mhs`` and
``mhs_star`` form the one value they return, and the companion pass the
values it reads, each once.  There is
also one brute-force oracle for every list kind, keyed by the same
(eq, lt), that re-evaluates the defining sum by direct enumeration (no
recursion, no caching) so the fast engine has something independent to be
checked against.  It shares no code with the recurrence: each chain's term
is an integer product over lcm(1..n)^weight, and one rational is formed
per sum.

The damping weights C(n,k) and C(n,k)/C(n+k,k) = C(2n,n-k)/C(2n,n) are
Lemma 3.1's unsigned kernel rows ``_kernel_row("B", m, n)``, C(mn,n-k) with
c_n = 1/C(mn,n), for m = 1 (small) and m = 2 (big).  A row is built by the
exact integer ratio step C(mn,j+1) = C(mn,j) * (mn-j) // (j+1), with no
binomial formed per entry, and c_n is 1/row[0].  So each companion of
an index is one cached kernel sum (``_kernel_sum``) over lcm(1..n)^weight,
and the companion pass sums the same row against the increments of its T
list over lcm(1..n)^weight(base), the denominator its mathematics fixes
(``_lcm_to`` caches lcm(1..n)).  A kernel sum is the dot product of three
cached integer rows over k: H_{k-1} on lcm(1..n)^weight (``_h_row``), the
weight that puts 1/k^e on its lcm power (``_term_weights``) and the kernel
row.  An H row is the list's stored integers lifted onto lcm(1..n)^weight,
so the kernel sums form no rational; the one checked rescaling,
``_on_scale``, checks each value as it is stored and each increment of the
companion pass.

A sweep that keeps no record of a passing cell (``families.verify_sweep``
with failures_only) reads no rational: ``_companion_failures`` reads the
integer lists of both sides of one identity, to n_max over lcm(1..n_max),
from one cache that every spec of the sweep shares (``_grow_ints``), grown
by the recurrence the memo's lists grow by (``_recur``).  It divides both
sides by their common power of lcm(1..n_max), which leaves none because
the right side keeps the left side's weight, and names the cells where the
two sides differ.

Arithmetic uses gmpy2.mpq when available and falls back to
fractions.Fraction otherwise; results are identical, the fallback is just
slower where rationals are formed: the records a sweep keeps, as in
``starsum verify``.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import is_, mul
from typing import Dict, Iterator, List, Tuple

from starsum.index_core import as_choice, as_index, as_int

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
# One growing list per (suffix, eq, lt), where, with s = (s_1, tail) and
# L(()) == 1,
#
#     L_k(s) = L_{k-1}(s) + term(s_1, k) * (eq * L_k(tail)
#                                           + (lt - eq) * L_{k-1}(tail)).
#
#     (eq, lt) = (0, 1)   H_k(s), the strict sum (mhs)
#     (eq, lt) = (1, 1)   H*_k(s), the weak sum (mhs_star)
#     (eq, lt) = (1, c)   T_k(s), the sum over the comma-or-merge images q of
#                         s of c^depth(q) * H_k(q) (pi_companion_sum)
#     (eq, lt) = (0, c)   c^depth(s) * H_k(s) (no caller)
#
# T is a weak sum in which an equal step weighs 1 and a strict step weighs c:
# term(a,k) * term(b,k) == term(a (+) b, k), so a run of equal indices is one
# merged entry, and each entry carries one factor c.  For c = 1 this is H*,
# so the companion pass shares the mhs_star lists.  Cells whose records are
# kept share work only through these lists; a failures-only sweep decides
# its cells on integer lists cached apart from them (_grow_ints, below).
#
# A list is stored as integers on its natural scale: with w = weight(s),
# _lists[(parts, eq, lt)][k] == N_k == L_k(s) * lcm(1..k)^w, and N_0 == 0.
# Growth to n runs on integers over scale^w, scale = lcm(1..n), the tail's
# list first (_grow recurses on it).  term(s_1, k) * scale^|s_1| is the
# integer sgn(s_1)^k * (scale/k)^|s_1| (_step_weight), so over scale^w
#
#     N_k = N_{k-1} + sgn(s_1)^k (scale/k)^|s_1| (eq * M_k
#                                                  + (lt - eq) * M_{k-1})
#
# with M the tail's integers over scale^weight(tail) (M == 1 for an empty
# tail, so its bracket is lt).  For lt = 1 the bracket is M_k (weak) or
# M_{k-1} (strict), a slice of the tail's integers.  _recur is this step,
# and both growers call it.  _grow reads the tail's integers from the
# tail's own growth in the same call; a value stored before the call (the
# value a growth starts from, a tail value it did not grow) is lifted onto
# scale^w by (scale/lcm(1..k))^w, one power per distinct lcm(1..k) in the
# range (_lifts).  Each new value is stored divided by that same factor.
# Every denominator of L_k divides lcm(1..k)^w, so the division is exact,
# and it is the store check: a remainder raises ArithmeticError naming the
# value (_on_scale, the one checked rescaling).
#
# A rational is formed only when a reader asks for one.  _ensure (L_0..L_n,
# the companion pass) and mhs and mhs_star (L_n) form a value as
# N_k / lcm(1..k)^w once, on its first read, and keep it in _formed beside
# its integers; _h_row reads the integers themselves and forms none.
#
# _stored, the one entry to the lists, returns a list long enough at once (a
# hit) and hands growth to _grow, which alone stores lists.  The lists live
# until clear_memo().  Every reader of the lists is here.
# ---------------------------------------------------------------------------

_lists: Dict[Tuple[tuple, int, int], List[int]] = {}
_formed: Dict[Tuple[tuple, int, int], List] = {}
_hits = _grown = _rationals = 0


def clear_memo() -> None:
    """Empty this process's memo: the integer lists, the rationals formed
    from them, their counts and the caches read off them (the H rows and
    the kernel sums, and the weight rows beside them), and the integer
    lists of a failures-only sweep.  A sweep's children
    (families.verify_sweep) each hold a memo of their own, which ends with
    them."""
    global _hits, _grown, _rationals
    _lists.clear()
    _formed.clear()
    _hits = _grown = _rationals = 0
    for cache in (_h_row, _kernel_sum, _term_weights, _step_weights,
                  _grow_ints):
        cache.cache_clear()


def memo_stats() -> dict:
    """The stored values (the sum of the list lengths), the H and T lists,
    and since the last clear_memo() the lists grown, the hits (_stored
    calls that returned at once) and the rationals formed from the lists
    (each value at most once).  All of them count this process's memo
    only, not that of a sweep's children."""
    h_lists = sum(1 for _, _, lt in _lists if lt == 1)
    return {"stored_values": sum(map(len, _lists.values())),
            "h_lists": h_lists, "t_lists": len(_lists) - h_lists,
            "hits": _hits, "grown": _grown, "rationals": _rationals}


# Sized from the traffic: deep asks for n = 1..200, sweeps and caps n <= 50.
@lru_cache(maxsize=256)
def _lcm_to(n: int) -> int:
    """lcm(1..n)."""
    return lcm(*range(1, n + 1))


def _step_weight(scale: int, part: int, k: int) -> int:
    """sgn(part)^k * (scale/k)^|part|: term(part, k) over scale^|part|."""
    weight = (scale // k) ** abs(part)
    return -weight if part < 0 and k % 2 else weight


def _on_scale(num: int, den: int, what: str, *args) -> int:
    """The integer num / den, where the mathematics says den divides num:
    a grown integer over lcm(1..n)^weight and the lift onto that scale from
    lcm(1..k)^weight, or a scale lcm(1..n)^weight and the denominator of a
    value over it.  The premise is checked, not assumed: if it fails, this
    raises ArithmeticError naming the refused value (what % args)."""
    quotient, remainder = divmod(num, den)
    if remainder:
        raise ArithmeticError("%s is not over lcm(1..n)^weight"
                              % (what % args))
    return quotient


# Sized from the traffic: _lifts asks for a power of two past its hi, and
# hi <= 200 outside the far cells.
@lru_cache(maxsize=16)
def _lcm_steps(n: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The k in 2..n with lcm(1..k) == p * lcm(1..k-1), p > 1 (the powers k
    of a prime p), and their p."""
    ks, ps, low = [], [], 1
    for k in range(2, n + 1):
        high = lcm(low, k)
        if high > low:
            ks.append(k)
            ps.append(high // low)
            low = high
    return tuple(ks), tuple(ps)


def _lifts(lo: int, hi: int, n: int, weight: int) -> List[int]:
    """(lcm(1..n)/lcm(1..k))^weight for k = lo..hi: the factor that lifts
    N_k from its natural scale onto lcm(1..n)^weight.  It is one power at
    k = hi, read down from there with one product by p^weight at each power
    k of a prime p in lo+1..hi, where lcm(1..k-1) drops by p."""
    ks, ps = _lcm_steps(1 << hi.bit_length())
    lift = 1 if hi == n else (_lcm_to(n) // _lcm_to(hi)) ** weight
    lifts, stop = [], hi + 1
    for i in reversed(range(bisect_right(ks, lo), bisect_right(ks, hi))):
        lifts += [lift] * (stop - ks[i])
        lift *= ps[i] ** weight
        stop = ks[i]
    lifts += [lift] * (stop - lo)
    lifts.reverse()
    return lifts


def _stored(parts: tuple, eq: int, lt: int, n: int) -> List[int]:
    """The stored integers N_0..N_m (m >= n) of a nonempty suffix, grown by
    _grow if the list is shorter.  This is the memo's entry policy: a list
    long enough is a hit."""
    global _hits
    vals = _lists.get((parts, eq, lt))
    if vals is not None and len(vals) > n:
        _hits += 1
        return vals
    _grow(parts, eq, lt, n, n)
    return _lists[(parts, eq, lt)]


def _read(parts: tuple, eq: int, lt: int, n: int) -> List:
    """The rationals formed so far from the list of a nonempty suffix, grown
    through the memo's entry (_stored) if it is shorter: at least n + 1 of
    them, None where a value is unread."""
    _stored(parts, eq, lt, n)
    formed = _formed.setdefault((parts, eq, lt), [])
    if len(formed) <= n:
        formed += [None] * (n + 1 - len(formed))
    return formed


def _form(key: Tuple[tuple, int, int], formed: List, ks) -> None:
    """Form L_k of key's list for each k of ks, on its first read, as
    N_k / lcm(1..k)^weight, and keep it in formed until clear_memo()."""
    global _rationals
    vals, weight = _lists[key], sum(map(abs, key[0]))
    for k in ks:
        formed[k] = _Q(vals[k], _lcm_to(k) ** weight)
        _rationals += 1


def _ensure(parts: tuple, eq: int, lt: int, n: int) -> List:
    """The rationals L_0..L_n of a nonempty suffix's list (_read); each
    value is formed once, on its first read, and later reads return the
    same object."""
    formed = _read(parts, eq, lt, n)
    _form((parts, eq, lt), formed,
          itertools.compress(range(n + 1), map(is_, formed[:n + 1],
                                               itertools.repeat(None))))
    return formed[:n + 1]


def _recur(weights, eq: int, lt: int, start: int, inner) -> Iterator[int]:
    """N_lo..N_n of a list from N_lo = start, the step weights of its first
    part at k = lo+1..n (_step_weight) and the tail's integers inner =
    M_lo..M_n (None for the empty tail), all over one scale: the recurrence
    of the memo comment, written here once for both growers, as one running
    sum of weight * bracket."""
    if inner is None:
        # L(()) == 1, so the bracket is eq + (lt - eq) == lt
        brackets = itertools.repeat(lt)
    elif lt == 1:
        # M_k (weak) or M_{k-1} (strict); map stops at the last weight
        brackets = itertools.islice(inner, 1, None) if eq else inner
    else:
        brackets = [eq * now + (lt - eq) * before
                    for before, now in zip(inner, inner[1:])]
    return itertools.accumulate(map(mul, weights, brackets), initial=start)


def _grow(parts: tuple, eq: int, lt: int, n: int, lo: int) -> List[int]:
    """Grow the list of a nonempty suffix to N_0..N_n, the tail's list to n
    first, and return its values lo..n over lcm(1..n)^weight (see the memo
    comment).  A value stored before the call is lifted onto that scale; a
    value grown here is the integer it was grown as, and is stored on its
    natural scale by the checked division _on_scale."""
    global _grown
    vals = _lists.setdefault((parts, eq, lt), [0])
    weight = sum(map(abs, parts))
    last = len(vals) - 1
    if last >= n:
        # a tail stored far enough: nothing grows
        return list(map(mul, vals[lo:n + 1], _lifts(lo, n, n, weight)))
    scale = _lcm_to(n)
    inner = _grow(parts[1:], eq, lt, n, last) if parts[1:] else None
    start = vals[last] * (scale // _lcm_to(last)) ** weight
    grown = list(_recur([_step_weight(scale, parts[0], k)
                         for k in range(last + 1, n + 1)],
                        eq, lt, start, inner))
    # all or nothing: a refused value leaves the list as it was; it is
    # named by its k and its parts as a plain tuple (an index prints "3,1")
    name = tuple(parts)
    vals.extend([_on_scale(value, lift, "list value L_%d%r", k, name)
                 for k, value, lift in zip(range(last + 1, n + 1),
                                           grown[1:],
                                           _lifts(last + 1, n, n, weight))])
    _grown += 1
    if lo >= last:
        return grown[lo - last:]
    # a tail stored past its caller's start
    return list(map(mul, vals[lo:last], _lifts(lo, last - 1, n, weight))) \
        + grown


def _h_value(n: int, s, eq: int):
    """H_n(s) (eq = 0) or H*_n(s) (eq = 1) as a rational: the one value L_n
    of its list, formed from its integer on the first read and kept, so a
    cold call forms one rational."""
    n = as_int("n", n, 0)
    parts = as_index(s).parts
    if not parts:
        return _ONE
    if n == 0 or (n < len(parts) and not eq):
        return _ZERO
    formed = _read(parts, eq, 1, n)
    if formed[n] is None:
        _form((parts, eq, 1), formed, (n,))
    return formed[n]


def mhs(n: int, s) -> "rational":
    """H_n(s): strict nested sum.  H_n(empty)=1; H_n(s)=0 when n < depth."""
    return _h_value(n, s, 0)


def mhs_star(n: int, s) -> "rational":
    """H*_n(s): weak nested sum.  Same conventions as mhs."""
    return _h_value(n, s, 1)


# Sized from the traffic, like _kernel_sum below.  Distinct rows and hits,
# measured in one process: the c2 grid 168 and 25,956 (it reads a row's
# uses together, so it misses each row once), a perfbench kernels pass 40
# and 6,020; the companion pass and the integer verdicts read (B, 1..2, n),
# one row per cell, so c1 100 and 581,750 and a sweep pass 100 and 5,650
# (n <= 50).  A deep verify reads its 200 rows (B, m, n) once each: no
# bound gives it hits, so the bound is the least power of two that holds
# c1's 100, and keeps as few of deep's rows as that allows.  A missed row
# costs one multiply and one exact division per entry.
@lru_cache(maxsize=128)
def _kernel_row(kind: str, m: int, n: int) -> Tuple[int, ...]:
    """K[k] = (-1)^k C(mn, n-k) for k = 0..n ("A"), or its unsigned
    counterpart ("B").  The kernels of Lemma 3.1 carry a further factor
    c_n = 1/C(mn, n) for both m (so c_n |K| is C(n,k) for m = 1 and
    C(n,k)/C(n+k,k) for m = 2); it is left out of the row, and is 1/K[0].
    check_lemma31 never forms it, and _mollified and pi_companion_sum
    divide by K[0] once.

    C(mn, 0..n) come from the exact integer steps
    C(mn, j+1) = C(mn, j) * (mn - j) // (j + 1), read back to front."""
    top = m * n
    up = [1]
    for j in range(n):
        up.append(up[-1] * (top - j) // (j + 1))
    if kind == "A":
        return tuple(-c if k % 2 else c for k, c in enumerate(reversed(up)))
    return tuple(reversed(up))


def _kernel_power(x: Tuple[int, ...], expo: int) -> int:
    """p = weight(x) + max(expo, 0): S(x, expo) is an integer over
    lcm(1..n)^p, the power _kernel_sum's rows put it on (weight(x) from
    _h_row, max(expo, 0) from _term_weights).  check_lemma31 reads p from
    here."""
    return sum(map(abs, x)) + max(expo, 0)


# Sized from the traffic, by hits and by size.  A kernel sum reads the row
# of its (x, n) whatever its exponent, kind and order.  Distinct rows and
# the reads that miss the sum cache: a perfbench kernels pass 1,440 and
# 6,060, and the c2 grid 4,320 and 26,124; a row there (n <= 30) is at most
# 2.4 KB.  The bound holds a kernels pass whole (4,620 hits; 1,024 rows
# would give 3,149) and gives c2 15,748 of its 21,804, in at most 5 MB.
# Large n reads few rows: test_far_cells 40 (n = 200 and 500, 5.3 MB in
# all, up to 305 KB each, 22 hits) and a deep references pass at most 8
# per spec (n = 200, up to 38 KB each, no hits), so no counted traffic
# comes near a bound filled with rows that large.
@lru_cache(maxsize=1 << 11)
def _h_row(x: Tuple[int, ...], n: int) -> Tuple[int, ...]:
    """H_{k-1}(x) * lcm(1..n)^weight(x) for k = 1..n: the memo's stored
    integers N_0..N_{n-1} of the strict list (it may be longer), each lifted
    from its natural scale lcm(1..k-1)^weight(x) by _lifts.  No rational is
    formed; the premise that lcm(1..k)^weight(x) is a denominator of H_k(x)
    was checked when the integer was stored."""
    if not x:
        return (1,) * n
    return tuple(map(mul, _stored(x, 0, 1, n - 1)[:n],
                     _lifts(0, n - 1, n, sum(map(abs, x)))))


# Sized from the traffic: distinct (expo, n) pairs are 80 in a perfbench
# kernels pass, 240 in the c2 grid and 14 in the far cells; at n <= 30 a
# row is at most 2 KB.
@lru_cache(maxsize=256)
def _term_weights(expo: int, n: int) -> Tuple[int, ...]:
    """(lcm(1..n)/k)^expo for k = 1..n if expo >= 0, else k^-expo: the
    factor that puts 1/k^expo on lcm(1..n)^max(expo, 0)."""
    if expo < 0:
        return tuple(k ** -expo for k in range(1, n + 1))
    scale = _lcm_to(n)
    return tuple((scale // k) ** expo for k in range(1, n + 1))


# Sized from the traffic: a perfbench kernels pass asks for 11,600 sums,
# 6,060 of them distinct, and the bound holds them all.  The c2 grid asks
# for 47,856 (25,164 distinct) but reuses each soon; it misses 26,124.
@lru_cache(maxsize=1 << 13)
def _kernel_sum(x: Tuple[int, ...], expo: int, kind: str, m: int,
                n: int) -> int:
    """The integer N with S(x, expo) = N / lcm(1..n)^p, where
    S(x, e) = sum_{k=1..n} H_{k-1}(x) K_{n,k} / k^e over the row
    _kernel_row(kind, m, n) and p = _kernel_power(x, expo); expo = -1
    gives the k-weighted form on the right of the two difference identities.

    Every denominator of H_{k-1}(x) divides lcm(1..n)^weight(x), and k^expo
    divides lcm(1..n)^expo, so each term is an integer over lcm(1..n)^p:
    the product of three cached integer rows at k, H_{k-1}(x) on
    lcm(1..n)^weight(x) (_h_row; the store checked that premise),
    the weight _term_weights(expo, n) and K_{n,k}.  N is their dot product.
    """
    return sum(map(mul, map(mul, _h_row(x, n), _term_weights(expo, n)),
                   itertools.islice(_kernel_row(kind, m, n), 1, None)))


def _mollified(n: int, s, m: int):
    """S(tail, |s_1|) of kind "A" (s_1 < 0) or "B", with m = 2 (big) or 1
    (small), times the kernel factor c_n = 1/C(mn, n), the 1/row[0] of
    the kernel row the sum reads."""
    n = as_int("n", n, 1)
    s = as_index(s)
    if s.is_empty():
        raise ValueError("mollified sums need a nonempty index")
    head, tail = s.head(), s.parts[1:]
    kind = "A" if head < 0 else "B"
    return _Q(_kernel_sum(tail, abs(head), kind, m, n),
              _lcm_to(n) ** s.weight() * _kernel_row(kind, m, n)[0])


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
    image separately; a call is n checked increments plus the growth of its
    list, and it is what the sweep drivers call.

    T(k) is the sum of coeff_base^depth(p) * H_k(p) over the images p: the
    weak nested sum of base in which an equal step weighs 1 and a strict step
    weighs coeff_base, grown by the list recurrence with (eq, lt) =
    (1, coeff_base).  For coeff_base 1 it is the mhs_star list itself.

    The weights are the Lemma 3.1 kernel row _kernel_row("B", m, n),
    C(mn, n-k) with c_n = 1/C(mn, n) = 1/row[0], of order m = 2 (big) or
    1 (small), as in _mollified.  A merge keeps the weight, so each increment
    dT(k) = T(k) - T(k-1) is over D = lcm(1..n)^weight(base) (_on_scale
    checks it) and the pass is one integer sum:
    sign * sum_k C(mn, n-k) * dT(k)*D over D*row[0].
    """
    n = as_int("n", n, 1)
    base = as_index(base)
    if base.is_empty():
        raise ValueError("pi_companion_sum needs a nonempty base")
    companion = as_choice("companion", companion, ("big", "small"))
    global_sign = as_choice("global_sign", as_int("global_sign", global_sign),
                            (1, -1))
    coeff_base = as_int("coeff_base", coeff_base, 1)
    tvals = _ensure(base.parts, 1, coeff_base, n)
    row = _kernel_row("B", 2 if companion == "big" else 1, n)
    denom = _lcm_to(n) ** base.weight()
    total = 0
    for k in range(1, n + 1):
        step = tvals[k] - tvals[k - 1]
        total += row[k] * (step.numerator * _on_scale(
            denom, step.denominator, "increment dT(%d)", k))
    return _Q(global_sign * total, denom * row[0])


# ---------------------------------------------------------------------------
# integer verdicts: every cell of one identity in one pass, no rational
#
# Over a fixed scale = lcm(1..n_max), H*_n(lhs) == pi_companion_sum(base,
# coeff_base, sign, companion, n) reads, with the C(mn, .) row of
# pi_companion_sum and N_H, N_T the integer lists of both sides,
#
#     N_H(n) * scale^weight(base) * C(mn, n)
#         == sign * scale^weight(lhs) * sum_{k<=n} C(mn, n-k) * dN_T(k).
#
# Both sides are divided by scale^min(weight(lhs), weight(base)) before the
# loop.  A family's right side is the walk of its left side, which keeps
# the weight (families._rhs_form), so both powers left are 1 and a cell is
# N_H(n) * C(mn, n) * sign == sum_{k<=n} C(mn, n-k) * dN_T(k).  The lists
# are not the memo's: one cache of integer lists (_grow_ints), keyed by
# (suffix, eq, lt, n_max), serves every spec of a sweep, so a tail that
# several left sides or bases end in grows once while it is cached.
# ---------------------------------------------------------------------------

# Sized from the traffic: a sweep reads one row per distinct part at its
# n_max, and c1's left sides and bases hold 14 distinct parts.
@lru_cache(maxsize=64)
def _step_weights(part: int, n: int) -> Tuple[int, ...]:
    """_step_weight(lcm(1..n), part, k) for k = 1..n."""
    scale = _lcm_to(n)
    return tuple(_step_weight(scale, part, k) for k in range(1, n + 1))


# Sized from the traffic, like _kernel_sum above.  A sweep's specs share
# tails (its left sides differ in few parts, and _check_share visits them
# in the order of their left sides read back to front), so most lists are
# read again within a few specs.  Lists a store per spec would grow, and
# distinct keys, in one process: a perfbench sweep pass (seed 5) 1,494 and
# 392, missing 420 at this bound; c1 197,474 and 25,264, missing 31,064
# here (148,293 unsorted) against 25,305 at 16,384.  The bound holds c1 at
# 26.4 MB peak RSS in one process, where 16,384 lists held 244 MB and
# 4,096 visited unsorted 91 MB.
@lru_cache(maxsize=64)
def _grow_ints(parts: tuple, eq: int, lt: int, n: int) -> Tuple[int, ...]:
    """N_0..N_n of a nonempty suffix over lcm(1..n)^weight, the tail's list
    first, by the memo's recurrence; a list is grown once while cached."""
    inner = _grow_ints(parts[1:], eq, lt, n) if parts[1:] else None
    return tuple(_recur(_step_weights(parts[0], n), eq, lt, 0, inner))


def _companion_failures(lhs, base, coeff_base: int, global_sign: int,
                        companion: str, n_max: int) -> List[int]:
    """The n in 1..n_max at which H*_n(lhs) differs from
    pi_companion_sum(base, coeff_base, global_sign, companion, n), decided
    by the integer equality above.  Both indices are nonempty SignedIndex
    objects and the arguments are as pi_companion_sum takes them, so the
    sweep that calls this forms rationals only for the cells it names."""
    h = _grow_ints(lhs.parts, 1, 1, n_max)
    t = _grow_ints(base.parts, 1, coeff_base, n_max)
    dt = [now - before for before, now in zip(t, t[1:])]  # dN_T(1..n_max)
    scale = _lcm_to(n_max)
    low = min(lhs.weight(), base.weight())
    left = global_sign * scale ** (base.weight() - low)
    right = scale ** (lhs.weight() - low)
    m = 2 if companion == "big" else 1
    failed = []
    for n in range(1, n_max + 1):
        row = _kernel_row("B", m, n)
        if h[n] * row[0] * left != right * sum(
                map(mul, itertools.islice(row, 1, None), dt)):
            failed.append(n)
    return failed


# ---------------------------------------------------------------------------
# brute-force oracles: direct enumeration of the defining sums
# ---------------------------------------------------------------------------

_ORACLE_N_MAX = 64
_ORACLE_DEPTH_MAX = 5


def _oracle(n: int, s, eq: int, lt: int) -> "rational":
    """L_n(s) of the list kind (eq, lt): the sum over every chain
    n >= k_1 >= ... >= k_m >= 1 (strict chains only when eq == 0) of
    prod sgn(s_i)^k_i / k_i^|s_i|, weighted lt^(1 + strict steps) *
    eq^(equal steps), the empty chain 1.  With L = lcm(1..n) each term is
    the integer prod sgn(s_i)^k_i (L/k_i)^|s_i| over L^weight(s), so one
    rational is formed at the end."""
    n = as_int("n", n, 0, _ORACLE_N_MAX)
    s = as_index(s)
    as_int("len(s)", len(s), most=_ORACLE_DEPTH_MAX)
    # chains come out ascending; an empty index has the one empty chain
    chains = (itertools.combinations_with_replacement if eq
              else itertools.combinations)(range(1, n + 1), s.depth())
    scale = lcm(*range(1, n + 1))  # L
    # rows[i][k] = sgn(s_i)^k (L/k)^|s_i|; index 0 is never read
    rows = [[0] + [(-1 if part < 0 and k % 2 else 1)
                   * (scale // k) ** abs(part) for k in range(1, n + 1)]
            for part in s.parts]
    total = 0
    for chain in chains:
        # a chain of d distinct values has d - 1 strict steps
        distinct = len(set(chain))
        term = lt ** distinct * eq ** (len(chain) - distinct)
        # pair the largest k with the first part
        for row, k in zip(rows, reversed(chain)):
            term *= row[k]
        total += term
    return _Q(total, scale ** s.weight())


def mhs_oracle(n: int, s) -> "rational":
    """Definition-level evaluation of the strict sum; no recursion, no cache."""
    return _oracle(n, s, 0, 1)


def mhs_star_oracle(n: int, s) -> "rational":
    """Definition-level evaluation of the weak sum; no recursion, no cache."""
    return _oracle(n, s, 1, 1)
