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
lcm(1..n)^weight, and stores one normalized rational per value.  There is
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
row.  Every stored rational these sums read is put on its scale by one
checked rescaling, ``_on_scale``, once per H row and once per increment.

Arithmetic uses gmpy2.mpq when available and falls back to
fractions.Fraction otherwise; results are identical, the fallback is just
slower on large sweeps.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
from typing import Dict, List, Tuple

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
#     (eq, lt) = (0, c)   c^depth(s) * H_k(s) (no caller)
#
# T is a weak sum in which an equal step weighs 1 and a strict step weighs c:
# term(a,k) * term(b,k) == term(a (+) b, k), so a run of equal indices is one
# merged entry, and each entry carries one factor c.  For c = 1 this is H*,
# so the companion pass shares the mhs_star lists.  Sweep drivers share work
# across cells only through these lists.
#
# Growth to n runs on integers, the tail's list first (_grow recurses on
# it).  With scale = lcm(1..n) and w = weight(s), N_k = L_k(s) * scale^w,
# and term(s_1, k) * scale^|s_1| is the integer sgn(s_1)^k * (scale/k)^|s_1|
# (_step_weight), so
#
#     N_k = N_{k-1} + sgn(s_1)^k (scale/k)^|s_1| (eq * M_k
#                                                  + (lt - eq) * M_{k-1})
#
# with M the tail's integers over scale^weight(tail) (M == 1 for an empty
# tail, so its bracket is lt).  For lt = 1 the bracket is M_k (weak) or
# M_{k-1} (strict), a slice of the tail's integers.  The value a growth
# starts from and the tail's values it reads are put on the scale by the
# one checked rescaling (_on_scale), and each new value is stored as the one
# normalized rational N_k / scale^w; an unchanged value is the previous
# object itself.
#
# Memory bound: _ensure, the one entry to the lists, returns a list long
# enough at once (a hit); a call that will grow drops every list first once
# more than _MEMO_LIMIT values are stored (the sum of the list lengths),
# counts the drop, and hands growth to _grow, which alone stores lists.
# Every reader of the lists is here.
# ---------------------------------------------------------------------------

_lists: Dict[Tuple[tuple, int, int], List] = {}
_stored_values = _drops = _hits = _grown = 0
_MEMO_LIMIT = 600_000


def clear_memo() -> None:
    """Empty this process's memo: the lists, their counts and the caches
    read off them (the H rows and the kernel sums, and the weight rows
    beside them).  A sweep's children (families.verify_sweep) each hold a
    memo of their own, which ends with them."""
    global _stored_values, _drops, _hits, _grown
    _lists.clear()
    _stored_values = _drops = _hits = _grown = 0
    for cache in (_h_row, _kernel_sum, _term_weights):
        cache.cache_clear()


def memo_stats() -> dict:
    """The stored values, the H and T lists, the limit, and since the last
    clear_memo() the drops by it, the lists grown and the hits (_ensure
    calls that returned at once).  All of them count this process's memo
    only, not that of a sweep's children."""
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


def _on_scale(value, den: int, what: str, *args) -> int:
    """The integer N with value == N / den.  den is the scale the value's
    mathematics fixes (a power of lcm(1..n)), so the premise that it is a
    common denominator is checked, not assumed: if there is no such N, this
    raises ArithmeticError naming the refused value (what % args)."""
    quotient, remainder = divmod(den, value.denominator)
    if remainder:
        raise ArithmeticError("%s is not over lcm(1..n)^weight"
                              % (what % args))
    return value.numerator * quotient


def _ensure(parts: tuple, eq: int, lt: int, n: int) -> List:
    """The cached list L_0..L_n of a nonempty suffix, grown by _grow if it
    is shorter.  This is the memo's entry policy: a list long enough is a
    hit, and a call that will grow drops every list first once more than
    _MEMO_LIMIT values are stored."""
    global _stored_values, _drops, _hits
    vals = _lists.get((parts, eq, lt))
    if vals is not None and len(vals) > n:
        _hits += 1
        return vals
    if _stored_values > _MEMO_LIMIT:
        _lists.clear()
        _stored_values = 0
        _drops += 1
    return _grow(parts, eq, lt, n)


def _grow(parts: tuple, eq: int, lt: int, n: int) -> List:
    """Grow the list of a nonempty suffix to L_0..L_n: the tail's list to n
    first, then this one from its stored length, on integers over
    lcm(1..n)^weight (see the memo comment)."""
    global _stored_values, _grown
    vals = _lists.get((parts, eq, lt))
    if vals is not None and len(vals) > n:
        return vals
    if vals is None:
        vals = _lists[(parts, eq, lt)] = [_ZERO]
        _stored_values += 1
    head, tail, lo = parts[0], parts[1:], len(vals) - 1
    scale = _lcm_to(n)
    tail_den = scale ** sum(map(abs, tail))  # 1 for the empty tail
    den = tail_den * scale ** abs(head)
    if not tail:
        # L(()) == 1, so the bracket is eq + (lt - eq) == lt
        brackets = itertools.repeat(lt)
    else:
        tail_vals = _grow(tail, eq, lt, n)
        inner = [_on_scale(tail_vals[k], tail_den, "list value L_%d%s", k,
                           tail) for k in range(lo, n + 1)]
        if lt == 1:
            brackets = inner[1:] if eq else inner[:-1]
        else:
            brackets = [eq * now + (lt - eq) * before
                        for before, now in zip(inner, inner[1:])]
    total = _on_scale(vals[lo], den, "list value L_%d%s", lo, parts)
    for k, bracket in zip(range(lo + 1, n + 1), brackets):
        if bracket:
            total += _step_weight(scale, head, k) * bracket
            vals.append(_Q(total, den))
        else:
            vals.append(vals[k - 1])
    _stored_values += n - lo
    _grown += 1
    return vals


def _h_value(n: int, s, eq: int):
    n = as_int("n", n, 0)
    parts = as_index(s).parts
    if not parts:
        return _ONE
    if n == 0 or (n < len(parts) and not eq):
        return _ZERO
    return _ensure(parts, eq, 1, n)[n]


def mhs(n: int, s) -> "rational":
    """H_n(s): strict nested sum.  H_n(empty)=1; H_n(s)=0 when n < depth."""
    return _h_value(n, s, 0)


def mhs_star(n: int, s) -> "rational":
    """H*_n(s): weak nested sum.  Same conventions as mhs."""
    return _h_value(n, s, 1)


# Sized from the traffic, like _kernel_sum below.  Distinct rows and hits:
# the c2 grid 120 and 18,129, a perfbench kernels pass 40 and 6,020; the
# companion pass reads (B, 1..2, n), so c1 100 and 581,750 and a sweep pass
# 100 and 5,650 (n <= 50).  A deep verify reads its 200 rows (B, m, n) once
# each: no bound gives it hits, so the bound is the least power of two
# that holds c2's 120, and keeps as few of deep's rows as that allows.  A
# missed row costs one multiply and one exact division per entry.
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
    """H_{k-1}(x) * lcm(1..n)^weight(x) for k = 1..n.  Only H_0..H_{n-1}
    of the memo's list are read (it may be longer), and each is put on the
    scale by _on_scale, so the premise that lcm(1..n)^weight(x) is a common
    denominator is checked, not assumed."""
    if not x:
        return (1,) * n
    scale = _lcm_to(n) ** sum(map(abs, x))
    return tuple(_on_scale(h, scale, "list value H_%d%s", k, x)
                 for k, h in enumerate(_ensure(x, 0, 1, n - 1)[:n]))


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
    lcm(1..n)^weight(x) (_h_row, where _on_scale checks that premise),
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
        total += row[k] * _on_scale(tvals[k] - tvals[k - 1], denom,
                                    "increment dT(%d)", k)
    return _Q(global_sign * total, denom * row[0])


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
