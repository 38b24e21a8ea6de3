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
equal step and lt of a strict step (table at the memo below).  There are
also brute-force oracles that re-evaluate the defining sums by direct
enumeration (no recursion, no caching) so the fast engine has something
independent to be checked against; each strict/weak pair is one body.  They
share no code with the recurrence: each chain's term is an integer product
over lcm(1..n)^weight, and one rational is formed per sum.

The damping weights are plain integers from ``math.comb``: C(n,k) for the
small companion, and C(n,k)/C(n+k,k) = C(2n,n-k)/C(2n,n) for the big one,
whose shared denominator C(2n,n) the companion pass applies once per sum.
The companion pass and the closed forms in ``families`` add their terms with
``_lcm_sum``: one integer sum over the lcm of the term denominators, reduced
once by the caller.

Arithmetic uses gmpy2.mpq when available and falls back to
fractions.Fraction otherwise; results are identical, the fallback is just
slower on large sweeps.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, lcm
from typing import Dict, Iterable, List, Tuple

from starsum.index_core import SignedIndex, as_index, as_int

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
# Memory bound: _ensure, which alone stores lists, drops them all before it
# stores a new one once more than _MEMO_LIMIT rational values are cached, and
# counts the drop.  A list further up the recursion, being grown at the drop,
# still grows correctly; it is just no longer cached, and its values are not
# counted.
# ---------------------------------------------------------------------------

_lists: Dict[Tuple[tuple, int, int], List] = {}
_stored_values = 0
_drops = 0
_MEMO_LIMIT = 600_000


def clear_memo() -> None:
    global _stored_values, _drops
    _lists.clear()
    _stored_values = 0
    _drops = 0


def memo_stats() -> dict:
    """The stored values, the H and T lists, the wholesale drops by the
    limit since the last clear_memo(), and the limit."""
    h_lists = sum(1 for _, _, lt in _lists if lt == 1)
    return {
        "stored_values": _stored_values,
        "h_lists": h_lists,
        "t_lists": len(_lists) - h_lists,
        "drops": _drops,
        "limit": _MEMO_LIMIT,
    }


def _lcm_sum(terms: Iterable[Tuple[int, int]]) -> Tuple[int, int]:
    """(N, D) with N/D the sum of the fractions num/den of the (num, den)
    pairs in terms and D the lcm of the den: one integer sum, not reduced.
    Its callers are pi_companion_sum and the closed forms in families; the
    kernel sums there know their denominator, lcm(1..n)^p, in advance."""
    terms = list(terms)
    denom = lcm(*(den for _, den in terms))
    return sum(num * (denom // den) for num, den in terms), denom


def _term(part: int, k: int, numerator: int = 1):
    """numerator * sgn(part)^k / k^|part| as an exact rational."""
    if part > 0 or k % 2 == 0:
        return _Q(numerator, k ** abs(part))
    return _Q(-numerator, k ** abs(part))


def _ensure(parts: tuple, eq: int, lt: int, n: int) -> List:
    """Grow (and return) the cached list L_0..L_n of a nonempty suffix."""
    global _stored_values, _drops
    key = (parts, eq, lt)
    vals = _lists.get(key)
    if vals is None:
        if _stored_values > _MEMO_LIMIT:
            # not clear_memo(), which would also reset _drops
            _lists.clear()
            _stored_values = 0
            _drops += 1
        vals = [_ZERO]
        _lists[key] = vals
        _stored_values += 1
    if len(vals) > n:
        return vals
    head, tail = parts[0], parts[1:]
    tail_vals = _ensure(tail, eq, lt, n) if tail else None
    grown = len(vals)
    for k in range(grown, n + 1):
        if tail_vals is None:
            # L(()) == 1, so the bracket is eq + (lt - eq) == lt
            vals.append(vals[k - 1] + _term(head, k, lt))
            continue
        if not eq:
            inner = tail_vals[k - 1]
        elif lt == 1:
            inner = tail_vals[k]
        else:
            inner = tail_vals[k] + (lt - 1) * tail_vals[k - 1]
        if inner:
            vals.append(vals[k - 1] + _term(head, k) * inner)
        else:
            vals.append(vals[k - 1])
    if _lists.get(key) is vals:  # not dropped while the tail grew
        _stored_values += len(vals) - grown
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


def _mollified(n: int, s: SignedIndex, kind: str):
    n = as_int("n", n)
    if n < 1:
        raise ValueError("mollified sums need n >= 1")
    s = as_index(s)
    if s.is_empty():
        raise ValueError("mollified sums need a nonempty index")
    head = s.head()
    tail = s.parts[1:]
    tail_vals = _ensure(tail, 0, 1, n - 1) if tail else None
    total = _ZERO
    for k in range(1, n + 1):
        if tail_vals is None:
            inner = _ONE
        else:
            inner = tail_vals[k - 1]
            if inner == 0:
                continue
        if kind == "big":
            weight = _Q(comb(n, k), comb(n + k, k))
        else:
            weight = comb(n, k)
        total += _term(head, k) * weight * inner
    return total


def mollified_big(n: int, s) -> "rational":
    """Outer sum damped by C(n,k)/C(n+k,k); exact."""
    return _mollified(n, s, "big")


def mollified_small(n: int, s) -> "rational":
    """Outer sum damped by C(n,k); exact."""
    return _mollified(n, s, "small")


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

    The pass is one integer sum: with D the lcm of the denominators of the
    increments dT(k) = T(k) - T(k-1), the result is sign * sum_k w_k *
    dT(k)*D over D (small, w_k = C(n,k)) or over D*C(2n,n) (big,
    w_k = C(2n,n-k)).
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
    deltas = [tvals[k] - tvals[k - 1] for k in range(1, n + 1)]
    if companion == "big":
        weights = [comb(2 * n, n - k) for k in range(1, n + 1)]
    else:
        weights = [comb(n, k) for k in range(1, n + 1)]
    total, denom = _lcm_sum((w * delta.numerator, delta.denominator)
                            for w, delta in zip(weights, deltas))
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
