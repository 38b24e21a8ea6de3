"""Exact rational evaluation of nested harmonic sums.

Everything in this module is exact: values are arbitrary-precision
rationals, never floats.  The public evaluators are

* ``mhs(n, s)``       strict nested sum over n >= k_1 > ... > k_m >= 1
* ``mhs_star(n, s)``  weak nested sum over n >= k_1 >= ... >= k_m >= 1
* ``mollified_big``   the same outer sum damped by C(n,k)/C(n+k,k)
* ``mollified_small`` damped by C(n,k)
* ``pi_companion_sum``  a comma-or-merge expansion of a base index,
  evaluated against either mollified companion in one pass

plus brute-force oracles that re-evaluate the defining sums by direct
enumeration (no recursion, no caching) so the fast engine has something
independent to be checked against.

The damping weights are plain integers from ``math.comb``: C(n,k) for the
small companion, and C(n,k)/C(n+k,k) = C(2n,n-k)/C(2n,n) for the big one,
whose shared denominator C(2n,n) the companion pass applies once per sum.

Arithmetic uses gmpy2.mpq when available and falls back to
fractions.Fraction otherwise; results are identical, the fallback is just
slower on large sweeps.
"""

from __future__ import annotations

import itertools
import threading
from fractions import Fraction
from math import comb, lcm
from typing import Dict, List, Tuple

from starsum.index_core import SignedIndex, as_index, oplus

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
# Growing lists per suffix: _h_cache[(parts, star)][k] == H_k(parts) (or the
# star value).  _t_cache[(parts, coeff)][x] holds the comma-or-merge
# aggregate T(x) = sum over the expansion q of parts of coeff^depth(q) *
# H_x(q); the pi_companion_sum of a base against either companion is then a
# single integer-weighted pass over the increments of the base's own T list.
# Sweep drivers share work across cells only through these caches.
#
# Memory bound: once more than _MEMO_LIMIT rational values are cached, the
# caches are dropped wholesale at the next public entry point; computations
# started before the drop are unaffected.
# ---------------------------------------------------------------------------

_lock = threading.RLock()
_h_cache: Dict[Tuple[tuple, bool], List] = {}
_t_cache: Dict[Tuple[tuple, int], List] = {}
_stored_values = 0
_MEMO_LIMIT = 600_000


def clear_memo() -> None:
    global _stored_values
    with _lock:
        _h_cache.clear()
        _t_cache.clear()
        _stored_values = 0


def memo_stats() -> dict:
    with _lock:
        return {
            "stored_values": _stored_values,
            "h_lists": len(_h_cache),
            "t_lists": len(_t_cache),
            "limit": _MEMO_LIMIT,
        }


def _maybe_evict() -> None:
    if _stored_values > _MEMO_LIMIT:
        clear_memo()


def _term(part: int, k: int):
    """sgn(part)^k / k^|part| as an exact rational."""
    if part > 0 or k % 2 == 0:
        return _Q(1, k ** abs(part))
    return _Q(-1, k ** abs(part))


def _ensure_h(parts: tuple, star: bool, n: int) -> List:
    """Grow (and return) the cached list of H_0..H_n for a nonempty suffix."""
    global _stored_values
    key = (parts, star)
    vals = _h_cache.get(key)
    if vals is None:
        vals = [_ZERO]
        _h_cache[key] = vals
        _stored_values += 1
    if len(vals) > n:
        return vals
    tail = parts[1:]
    tail_vals = _ensure_h(tail, star, n) if tail else None
    head = parts[0]
    grown = len(vals)
    for k in range(grown, n + 1):
        if tail_vals is None:
            inner = _ONE
        elif star:
            inner = tail_vals[k]
        else:
            inner = tail_vals[k - 1]
        vals.append(vals[k - 1] + _term(head, k) * inner)
    _stored_values += len(vals) - grown
    return vals


def _h_value(n: int, parts: tuple, star: bool):
    if not parts:
        return _ONE
    if n < len(parts) and not star:
        return _ZERO
    if n == 0:
        return _ZERO
    return _ensure_h(parts, star, n)[n]


def mhs(n: int, s) -> "rational":
    """H_n(s): strict nested sum.  H_n(empty)=1; H_n(s)=0 when n < depth."""
    s = as_index(s)
    if n < 0:
        raise ValueError("n must be >= 0")
    with _lock:
        _maybe_evict()
        return _h_value(n, s.parts, star=False)


def mhs_star(n: int, s) -> "rational":
    """H*_n(s): weak nested sum.  Same conventions as mhs."""
    s = as_index(s)
    if n < 0:
        raise ValueError("n must be >= 0")
    with _lock:
        _maybe_evict()
        return _h_value(n, s.parts, star=True)


def _mollified(n: int, s: SignedIndex, kind: str):
    if n < 1:
        raise ValueError("mollified sums need n >= 1")
    s = as_index(s)
    if s.is_empty():
        raise ValueError("mollified sums need a nonempty index")
    head = s.head()
    tail = s.parts[1:]
    with _lock:
        _maybe_evict()
        tail_vals = _ensure_h(tail, False, n - 1) if tail else None
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


def _ensure_t(parts: tuple, coeff: int, x: int) -> List:
    """Aggregate T(x) = sum over comma-or-merge images q of parts of
    coeff^depth(q) * H_x(q), as a growing list T[0..x].

    Recurrence: T(x) - T(x-1) collects, for every choice of how many leading
    parts merge into the outermost entry, the merged head evaluated at x
    times the deeper suffix aggregate at x-1.
    """
    global _stored_values
    key = (parts, coeff)
    vals = _t_cache.get(key)
    if vals is None:
        vals = [_ZERO]
        _t_cache[key] = vals
        _stored_values += 1
    if len(vals) > x:
        return vals
    m = len(parts)
    # oplus-chains of the leading parts and the matching deeper aggregates
    heads = []
    acc = None
    for i in range(m):
        acc = parts[i] if acc is None else oplus(acc, parts[i])
        heads.append(acc)
    suffix_lists = [_ensure_t(parts[i + 1:], coeff, x) for i in range(m - 1)]
    grown = len(vals)
    for k in range(grown, x + 1):
        delta = _ZERO
        for i in range(m):
            if i < m - 1:
                inner = suffix_lists[i][k - 1]
                if inner == 0:
                    continue
            else:
                inner = _ONE
            delta += _term(heads[i], k) * inner
        # the coeff per expansion image factors as coeff * coeff^depth(rest)
        vals.append(vals[k - 1] + coeff * delta)
    _stored_values += len(vals) - grown
    return vals


def pi_companion_sum(base, coeff_base: int, global_sign: int, companion: str,
                     n: int) -> "rational":
    """sign * sum over the comma-or-merge expansion p of base of
    coeff_base^depth(p) * companion_n(p), exactly.

    companion is "big" (weights C(n,k)/C(n+k,k)) or "small" (C(n,k)).
    Equivalent to expanding with pi_expand_weighted and evaluating each
    image separately; this pass is O(n * depth) after cache warmup and is
    what the sweep drivers call.

    The pass is one integer sum: with D the lcm of the denominators of the
    increments dT(k) = T(k) - T(k-1), the result is sign * sum_k w_k *
    dT(k)*D over D (small, w_k = C(n,k)) or over D*C(2n,n) (big,
    w_k = C(2n,n-k)).
    """
    base = as_index(base)
    if base.is_empty():
        raise ValueError("pi_companion_sum needs a nonempty base")
    if companion not in ("big", "small"):
        raise ValueError("companion must be 'big' or 'small'")
    if global_sign not in (1, -1):
        raise ValueError("global_sign must be +1 or -1")
    if n < 1:
        raise ValueError("n must be >= 1")
    with _lock:
        _maybe_evict()
        tvals = _ensure_t(base.parts, coeff_base, n)
        deltas = [tvals[k] - tvals[k - 1] for k in range(1, n + 1)]
    denom = lcm(*(delta.denominator for delta in deltas))
    if companion == "big":
        weights = [comb(2 * n, n - k) for k in range(1, n + 1)]
    else:
        weights = [comb(n, k) for k in range(1, n + 1)]
    total = sum(w * delta.numerator * (denom // delta.denominator)
                for w, delta in zip(weights, deltas))
    if companion == "big":
        denom *= comb(2 * n, n)
    return _Q(global_sign * total, denom)


# ---------------------------------------------------------------------------
# brute-force oracles: direct enumeration of the defining sums
# ---------------------------------------------------------------------------

_ORACLE_N_MAX = 64
_ORACLE_DEPTH_MAX = 5


def _oracle_guard(n: int, s: SignedIndex) -> None:
    if n > _ORACLE_N_MAX:
        raise ValueError("oracle guard: n=%d exceeds %d" % (n, _ORACLE_N_MAX))
    if s.depth() > _ORACLE_DEPTH_MAX:
        raise ValueError("oracle guard: depth %d exceeds %d"
                         % (s.depth(), _ORACLE_DEPTH_MAX))


def _oracle_sum(n: int, s: SignedIndex, chains) -> "rational":
    parts = s.parts
    total = _Q(0)
    for chain in chains:
        term = _Q(1)
        # chains come out ascending; pair the largest k with the first part
        for part, k in zip(parts, reversed(chain)):
            term *= _term(part, k)
        total += term
    return total


def mhs_oracle(n: int, s) -> "rational":
    """Definition-level evaluation of the strict sum; no recursion, no cache."""
    s = as_index(s)
    if n < 0:
        raise ValueError("n must be >= 0")
    _oracle_guard(n, s)
    if s.is_empty():
        return _Q(1)
    if n < s.depth():
        return _Q(0)
    return _oracle_sum(n, s, itertools.combinations(range(1, n + 1), s.depth()))


def mhs_star_oracle(n: int, s) -> "rational":
    """Definition-level evaluation of the weak sum; no recursion, no cache."""
    s = as_index(s)
    if n < 0:
        raise ValueError("n must be >= 0")
    _oracle_guard(n, s)
    if s.is_empty():
        return _Q(1)
    if n == 0:
        return _Q(0)
    return _oracle_sum(
        n, s, itertools.combinations_with_replacement(range(1, n + 1), s.depth()))
