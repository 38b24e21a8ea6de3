"""Tolerance-controlled numeric limits of the nested (alternating) sums.

The workhorse evaluator completes each nesting level of the series
analytically: level i keeps the tail function U_i(m) = sum over the i
outermost indices constrained to lie above m.  U_i obeys an exact backward
recurrence in m, and for large m it has an asymptotic expansion of the form
P(1/m) + (-1)^m A(1/m) with no logarithms, generated symbolically from the
level below.  Seeding the recurrences from the expansions at an even point N
and running them down to m = 0 yields the value; running again from 2N gives
the doubling-based error estimate that justifies the reported tolerance.

The mollified and plain partial-sum evaluators are kept as independent
cross-check paths; they only reach loose tolerances.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from mpmath import mp, mpf

from . import families as fam
from .index_core import EMPTY, SignedIndex, as_index, format_index, oplus, \
    pi_expand_weighted, star_expand

DEFAULT_TOL = 1e-6
RECOGNITION_DEN_CAP = 10 ** 6

_DPS = 50
_SEED_N = 128
_SEED_CHECK_N = 256
_EXTRA_ORDERS = 20


@dataclass(frozen=True)
class NumericValue:
    """One evaluated limit with the error contract it was produced under.

    value is a high-precision float (mpmath mpf); the evaluator guarantees
    |value - truth| <= tol and records the path taken in method_note.
    """

    value: object
    tol: float
    method_note: str

    def __float__(self) -> float:
        return float(self.value)


class EvaluationError(ArithmeticError):
    """Requested tolerance could not be certified by the chosen method."""


# ---------------------------------------------------------------------------
# Bernoulli numbers and the beta weights
# ---------------------------------------------------------------------------

class BernoulliTable:
    """Exact rationals B_0 .. B_{2 n_max} plus the derived beta weights.

    The table is filled once from the defining recurrence
    sum_{j=0}^{m} C(m+1, j) B_j = 0 (m >= 1), so B_1 = -1/2.
    """

    def __init__(self, n_max: int = 40):
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        self.n_max = n_max
        values = [Fraction(1)]
        for m in range(1, 2 * n_max + 1):
            acc = Fraction(0)
            for j in range(m):
                acc += comb(m + 1, j) * values[j]
            values.append(-acc / (m + 1))
        self._values = values

    def bernoulli(self, k: int) -> Fraction:
        if k < 0 or k > 2 * self.n_max:
            raise ValueError("B_%d outside table range 0..%d" % (k, 2 * self.n_max))
        return self._values[k]

    def beta_coeff(self, n: int) -> Fraction:
        """beta_n = (-1)^n (2 - 2^(2n)) B_(2n) / (2n)!"""
        if n < 0 or 2 * n > 2 * self.n_max:
            raise ValueError("beta_%d outside table range" % n)
        return (Fraction((-1) ** n) * (2 - 2 ** (2 * n))
                * self._values[2 * n] / factorial(2 * n))


_BERNOULLI = BernoulliTable(40)


def bernoulli(k: int) -> Fraction:
    return _BERNOULLI.bernoulli(k)


def beta_coeff(n: int) -> Fraction:
    return _BERNOULLI.beta_coeff(n)


# ---------------------------------------------------------------------------
# Symbolic 1/m expansions (plain component P, alternating component A)
# ---------------------------------------------------------------------------

# A series is a dict {exponent: Fraction} standing for sum c_e * m**(-e).
_Series = Dict[int, Fraction]


def _series_add(target: _Series, source: _Series, scale: Fraction) -> None:
    for e, c in source.items():
        v = target.get(e, Fraction(0)) + c * scale
        if v:
            target[e] = v
        elif e in target:
            del target[e]


def _series_shift(series: _Series, delta: int, cap: int) -> _Series:
    return {e + delta: c for e, c in series.items() if e + delta <= cap and c}


def _series_reexpand(series: _Series, cap: int) -> _Series:
    """Rewrite a series in 1/(m-1) as a series in 1/m.

    Uses (m-1)^(-e) = sum_t C(e+t-1, t) m^(-e-t); the constant term passes
    through unchanged.
    """
    out: Dict[int, Fraction] = {}
    for e, c in series.items():
        if not c:
            continue
        if e == 0:
            out[0] = out.get(0, Fraction(0)) + c
            continue
        for t in range(0, cap - e + 1):
            out[e + t] = out.get(e + t, Fraction(0)) + c * comb(e + t - 1, t)
    return out


@lru_cache(maxsize=None)
def _psi_series(j: int, cap: int) -> Tuple[Tuple[int, Fraction], ...]:
    """Expansion of sum_{k>m} k^(-j) in 1/m, j >= 2, exponents j-1 .. cap.

    Coefficients solve the exact functional equation
    psi(m-1) - psi(m) = m^(-j) order by order; this reproduces the
    Euler-Maclaurin series without tracking its sign conventions by hand.
    """
    if j < 2:
        raise ValueError("plain tail needs exponent >= 2, got %d" % j)
    b: Dict[int, Fraction] = {}
    for u in range(0, cap - j + 2):
        acc = Fraction(1 if u == 0 else 0)
        for r in range(-1, u - 1):
            acc -= b[r] * comb(j + u - 1, u - r)
        b[u - 1] = acc / (j + u - 1)
    return tuple((j + r, c) for r, c in sorted(b.items()) if j + r <= cap and c)


@lru_cache(maxsize=None)
def _phi_series(j: int, cap: int) -> Tuple[Tuple[int, Fraction], ...]:
    """Expansion of phi_j(m) = sum_{i>=1} (-1)^(i-1) (m+i)^(-j), j >= 1.

    Solves phi(m-1) + phi(m) = m^(-j) order by order; the tail identity
    sum_{k>m} (-1)^k k^(-j) = (-1)^m * (-phi_j(m)) hooks it into the
    alternating component.
    """
    if j < 1:
        raise ValueError("alternating tail needs exponent >= 1, got %d" % j)
    c: Dict[int, Fraction] = {0: Fraction(1, 2)}
    for u in range(1, cap - j + 1):
        acc = Fraction(0)
        for r in range(0, u):
            acc += c[r] * comb(j + u - 1, u - r)
        c[u] = -acc / 2
    return tuple((j + r, v) for r, v in sorted(c.items()) if j + r <= cap and v)


def _tail_sum(plain: _Series, alt: _Series, cap: int) -> Tuple[_Series, _Series]:
    """Apply sum_{k>m} to a per-term series P(k) + (-1)^k A(k)."""
    out_p: _Series = {}
    out_a: _Series = {}
    for e, c in plain.items():
        if not c:
            continue
        if e < 2:
            raise ValueError("divergent plain tail at exponent %d" % e)
        _series_add(out_p, dict(_psi_series(e, cap)), c)
    for e, c in alt.items():
        if not c:
            continue
        _series_add(out_a, dict(_phi_series(e, cap)), -c)
    return out_p, out_a


def _chain_expansions(parts: Tuple[int, ...], star: bool,
                      cap: int) -> List[Tuple[_Series, _Series]]:
    """Per-level asymptotic expansions of the tail functions U_i(m)."""
    levels: List[Tuple[_Series, _Series]] = []
    plain: _Series = {0: Fraction(1)}
    alt: _Series = {}
    for part in parts:
        if star:
            plain = _series_reexpand(plain, cap)
            alt = {e: -c for e, c in _series_reexpand(alt, cap).items()}
        a = abs(part)
        if part > 0:
            plain, alt = _series_shift(plain, a, cap), _series_shift(alt, a, cap)
        else:
            plain, alt = _series_shift(alt, a, cap), _series_shift(plain, a, cap)
        plain, alt = _tail_sum(plain, alt, cap)
        levels.append((plain, alt))
    return levels


def _series_eval(series: _Series, m: int):
    total = mpf(0)
    for e, c in series.items():
        total += (mpf(c.numerator) / c.denominator) * mpf(m) ** (-e)
    return total


def _chain_value(parts: Tuple[int, ...], star: bool, seed_n: int,
                 levels: Sequence[Tuple[_Series, _Series]]):
    """Backward recurrences from the expansion seeds down to m = 0.

    seed_n must be even so the (-1)^m component enters with a fixed sign.
    """
    prev = [mpf(1)] * (seed_n + 1)
    for (plain, alt), part in zip(levels, parts):
        a = abs(part)
        negative = part < 0
        cur = [mpf(0)] * (seed_n + 1)
        cur[seed_n] = _series_eval(plain, seed_n) + _series_eval(alt, seed_n)
        for m in range(seed_n - 1, -1, -1):
            k = m + 1
            w = mpf(k) ** (-a)
            if negative and (k & 1):
                w = -w
            upstream = prev[m] if star else prev[k]
            cur[m] = cur[m + 1] + w * upstream
        prev = cur
    return prev[0]


_EVAL_LOCK = threading.Lock()
_VALUE_CACHE: Dict[Tuple[Tuple[int, ...], bool], Tuple[object, float]] = {}


def clear_value_cache() -> None:
    with _EVAL_LOCK:
        _VALUE_CACHE.clear()


def _require_admissible(parts: Tuple[int, ...]) -> None:
    if parts and parts[0] == 1:
        raise ValueError("index %s diverges: leading part +1"
                         % format_index(SignedIndex(parts)))


def _chain_eval(parts: Tuple[int, ...], star: bool,
                tol: float) -> Tuple[object, float, str]:
    key = (parts, star)
    with _EVAL_LOCK:
        hit = _VALUE_CACHE.get(key)
        if hit is not None and hit[1] <= tol:
            return hit[0], hit[1], "tail-chain (cached)"
        weight = sum(abs(p) for p in parts)
        configs = (
            (_SEED_N, _SEED_CHECK_N, weight + _EXTRA_ORDERS, _DPS),
            (_SEED_CHECK_N, 2 * _SEED_CHECK_N, weight + _EXTRA_ORDERS + 12,
             _DPS + 20),
        )
        for seed_n, check_n, cap, dps in configs:
            with mp.workdps(dps):
                levels = _chain_expansions(parts, star, cap)
                first = _chain_value(parts, star, seed_n, levels)
                second = _chain_value(parts, star, check_n, levels)
                diff = abs(second - first)
                floor = (abs(second) + 1) * mpf(10) ** (8 - dps)
                bound = float(2 * diff + floor)
            if bound <= tol:
                note = "tail-chain seeds %d/%d dps %d" % (seed_n, check_n, dps)
                _VALUE_CACHE[key] = (second, bound)
                return second, bound, note
    raise EvaluationError("tail-chain could not certify tol=%g for %s"
                          % (tol, parts,))


# ---------------------------------------------------------------------------
# Cross-check evaluators (float64): plain partial sums and the damped sum
# ---------------------------------------------------------------------------

def mhs_float(n: int, s) -> float:
    """Strict-descent partial sum H_n(s) in ordinary floats.

    Diagnostic bridge between the exact evaluators and the limits; float64
    roundoff (~1e-13 here) is far below every tail bound it is compared to.
    """
    parts = as_index(s).parts
    if n < 0:
        raise ValueError("n must be nonnegative")
    level = [1.0] * (n + 1)
    for part in reversed(parts):
        a = abs(part)
        negative = part < 0
        nxt = [0.0] * (n + 1)
        acc = 0.0
        for k in range(1, n + 1):
            w = float(k) ** (-a)
            if negative and (k & 1):
                w = -w
            acc += w * level[k - 1]
            nxt[k] = acc
        level = nxt
    return level[n]


def mollified_float(n: int, s) -> float:
    """Damped companion sum (binomial-ratio weights) in ordinary floats."""
    parts = as_index(s).parts
    if not parts:
        return 1.0
    if n < 1:
        raise ValueError("n must be positive")
    head, rest = parts[0], parts[1:]
    inner = [1.0] * (n + 1)
    for part in reversed(rest):
        a = abs(part)
        negative = part < 0
        nxt = [0.0] * (n + 1)
        acc = 0.0
        for k in range(1, n + 1):
            w = float(k) ** (-a)
            if negative and (k & 1):
                w = -w
            acc += w * inner[k - 1]
            nxt[k] = acc
        inner = nxt
    a = abs(head)
    negative = head < 0
    ratio = 1.0
    total = 0.0
    for k in range(1, n + 1):
        ratio *= (n - k + 1) / (n + k)
        w = ratio * float(k) ** (-a)
        if negative and (k & 1):
            w = -w
        total += w * inner[k - 1]
    return total


def partial_sum_tail_bound(s, n: int) -> float:
    """Upper bound for |zeta(s) - H_n(s)|, valid for admissible s.

    Bounds the inner sums by (1 + ln k)^(depth-1) and the outer tail by the
    integral of a decreasing majorant; n must sit beyond the majorant's hump.
    """
    parts = as_index(s).parts
    if not parts:
        return 0.0
    _require_admissible(parts)
    rest_depth = len(parts) - 1
    lead = abs(parts[0])
    if n < max(512, int(math.exp(rest_depth)) + 1):
        raise ValueError("n too small for the monotone tail bound")
    with mp.workdps(30):
        integrand = lambda x: x ** (-lead) * (1 + mp.log(x)) ** rest_depth
        bound = mp.quad(integrand, [n, mp.inf]) + integrand(mpf(n))
    return float(bound)


def _aitken(seq: Sequence[float]) -> List[float]:
    out = []
    for a, b, c in zip(seq, seq[1:], seq[2:]):
        second = c - 2 * b + a
        out.append(c - (c - b) ** 2 / second if second else c)
    return out


def _mollified_eval(parts: Tuple[int, ...],
                    tol: float) -> Tuple[object, float, str]:
    """Doubling sequence of damped sums, accelerated by iterated Aitken.

    The error of the damped sum decays like a power of n (the power depends
    on the index class), so in the doubling index the error is close to
    geometric and two Aitken passes extrapolate it; the last-change bound is
    the doubling-based error estimate.  Loose tolerances only.
    """
    if tol < 1e-9:
        raise EvaluationError("mollified float path is limited to tol >= 1e-9")
    seq: List[float] = []
    n = 64
    while n <= (1 << 14):
        n *= 2
        seq.append(mollified_float(n, parts))
        if len(seq) < 6:
            continue
        twice = _aitken(_aitken(seq))
        bound = 6 * abs(twice[-1] - twice[-2]) + 1e-12
        if bound <= tol:
            return mpf(twice[-1]), bound, "mollified Aitken n=%d" % n
    raise EvaluationError("mollified extrapolation stalled before tol=%g" % tol)


def _partial_eval(parts: Tuple[int, ...],
                  tol: float) -> Tuple[object, float, str]:
    n = 4096
    while n <= (1 << 21):
        bound = partial_sum_tail_bound(parts, n) + 1e-11
        if bound <= tol:
            return mpf(mhs_float(n, parts)), bound, "partial sum n=%d" % n
        n *= 2
    raise EvaluationError("partial-sum tail bound cannot reach tol=%g" % tol)


# ---------------------------------------------------------------------------
# Public evaluators
# ---------------------------------------------------------------------------

def zeta(s, tol: float = DEFAULT_TOL, method: str = "chain") -> NumericValue:
    """Limit of the strict-descent sums H_n(s) as n grows.

    The index must be admissible (leading part != +1); the returned value
    carries |value - truth| <= tol backed by a doubling check.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    parts = as_index(s).parts
    if not parts:
        return NumericValue(mpf(1), tol, "empty index")
    _require_admissible(parts)
    if method == "chain":
        value, _, note = _chain_eval(parts, False, tol)
    elif method == "mollified":
        value, _, note = _mollified_eval(parts, tol)
    elif method == "partial":
        value, _, note = _partial_eval(parts, tol)
    else:
        raise ValueError("unknown method %r" % (method,))
    return NumericValue(value, tol, note)


def zeta_star(s, tol: float = DEFAULT_TOL, method: str = "chain") -> NumericValue:
    """Limit of the weak-descent sums H*_n(s) as n grows.

    method="expand" routes through the strict limits of the contraction
    expansion instead of the native weak-descent chain; the two paths are
    required to agree within their summed tolerances.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    parts = as_index(s).parts
    if not parts:
        return NumericValue(mpf(1), tol, "empty index")
    _require_admissible(parts)
    if method == "chain":
        value, _, note = _chain_eval(parts, True, tol)
    elif method == "expand":
        terms = list(star_expand(SignedIndex(parts)))
        each = tol / sum(abs(c) for _, c in terms)
        with mp.workdps(_DPS):
            value = mpf(0)
            for idx, coeff in terms:
                value += coeff * zeta(idx, each).value
        note = "star expansion over %d strict limits" % len(terms)
    else:
        raise ValueError("unknown method %r" % (method,))
    return NumericValue(value, tol, note)


# ---------------------------------------------------------------------------
# Rational recognition
# ---------------------------------------------------------------------------

def recognize_rational(value, window: float,
                       den_cap: int = RECOGNITION_DEN_CAP) -> Optional[Fraction]:
    """Best continued-fraction convergent within window, denominator capped.

    Walks every convergent with denominator <= den_cap and keeps the one
    closest to the value; a coarse early convergent inside the window must
    not shadow a finer one the working precision clearly prefers.  Returns
    None when no capped convergent lands inside the window; callers must
    report that outcome, never substitute a guess.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    with mp.workdps(_DPS):
        x = mpf(value)
        h0, k0, h1, k1 = 1, 0, int(mp.floor(x)), 1
        y = x - mp.floor(x)
        best = None
        best_err = None
        for _ in range(64):
            if k1 > den_cap:
                break
            err = abs(x - mpf(h1) / k1)
            if best_err is None or err < best_err:
                best, best_err = Fraction(h1, k1), err
            if y == 0:
                break
            y = 1 / y
            a = int(mp.floor(y))
            h0, k0, h1, k1 = h1, k1, a * h1 + h0, a * k1 + k0
            y -= a
        if best is not None and best_err <= window:
            return best
    return None


def _value_str(v) -> str:
    with mp.workdps(_DPS):
        return mp.nstr(mpf(v), 20)


def _pi_power(power: int):
    with mp.workdps(_DPS):
        return mp.pi ** power


# ---------------------------------------------------------------------------
# Family limit identities
# ---------------------------------------------------------------------------

def verify_mzsv_family(spec: fam.FamilySpec, tol: float = DEFAULT_TOL) -> dict:
    """Numeric check of one family identity in the limit.

    Left side: weak-descent limit of the family's argument composition.
    Right side: the signed expansion of the base index, each image taken to
    its strict limit.  The per-call tolerance is split so the combined error
    budget stays at or below 10*tol.
    """
    form = fam.build_rhs(spec)
    if form.companion != fam.BIG:
        raise ValueError("%s has no limit form: its companion weight does not "
                         "converge" % spec.family)
    lhs_idx = fam.build_lhs(spec)
    if lhs_idx.parts and lhs_idx.parts[0] == 1:
        raise ValueError("left side diverges for %s: leading part is 1 "
                         "(needs a nonempty leading 2-run)" % (spec.params(),))
    terms = list(pi_expand_weighted(form.base, form.coeff_base, form.sign))
    for idx, _ in terms:
        if idx.parts[0] == 1:
            raise ValueError("inadmissible right-side index %s"
                             % format_index(idx))
    coeff_mass = sum(abs(c) for _, c in terms)
    tol_each = min(tol, 10.0 * tol / (1 + coeff_mass))
    lhs = zeta_star(lhs_idx, tol_each)
    with mp.workdps(_DPS):
        rhs = mpf(0)
        for idx, coeff in terms:
            rhs += coeff * zeta(idx, tol_each).value
        diff = float(abs(lhs.value - rhs))
    budget = (1 + coeff_mass) * tol_each
    return {
        "family": spec.family,
        "params": spec.params(),
        "lhs_index": format_index(lhs_idx),
        "lhs": _value_str(lhs.value),
        "rhs": _value_str(rhs),
        "rhs_terms": len(terms),
        "diff": diff,
        "budget": budget,
        "within_tol": diff <= budget,
    }


def check_zlobin(n: int, tol: float = DEFAULT_TOL) -> dict:
    """zeta*({2}^n) against -2 * zeta of the single bar argument 2n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    each = tol / 3
    lhs = zeta_star(SignedIndex((2,) * n), each)
    rhs_term = zeta(SignedIndex((-2 * n,)), each)
    with mp.workdps(_DPS):
        rhs = -2 * rhs_term.value
        diff = float(abs(lhs.value - rhs))
    return {
        "n": n,
        "lhs": _value_str(lhs.value),
        "rhs": _value_str(rhs),
        "diff": diff,
        "budget": 3 * each,
        "within_tol": diff <= 3 * each,
    }


def check_three_n(n: int, tol: float = DEFAULT_TOL) -> dict:
    """zeta({3}^n) against 8^n * zeta((-2,1)^n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    scale = 8 ** n
    lhs = zeta(SignedIndex((3,) * n), tol / 2)
    rhs_term = zeta(SignedIndex((-2, 1) * n), tol / (2 * scale))
    with mp.workdps(_DPS):
        rhs = scale * rhs_term.value
        diff = float(abs(lhs.value - rhs))
    return {
        "n": n,
        "lhs": _value_str(lhs.value),
        "rhs": _value_str(rhs),
        "diff": diff,
        "budget": tol,
        "within_tol": diff <= tol,
    }


# ---------------------------------------------------------------------------
# Symmetric sums and permutation identities
# ---------------------------------------------------------------------------

def _set_partitions(items: List[int]) -> Iterable[List[List[int]]]:
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for partial in _set_partitions(rest):
        for i in range(len(partial)):
            yield partial[:i] + [[head] + partial[i]] + partial[i + 1:]
        yield [[head]] + partial


def hoffman_symmetric_check(args, tol: float = DEFAULT_TOL,
                            den_cap: int = RECOGNITION_DEN_CAP) -> dict:
    """Full symmetrization of a depth-<=4 strict limit vs its partition form.

    Left side sums the strict limit over every permutation of the given even
    nonzero arguments; the right side is the signed sum over set partitions
    with (block size - 1)! weights and merged single arguments.  The ratio of
    the left side to pi^weight is also pushed through rational recognition.
    """
    parts = tuple(int(v) for v in args)
    depth = len(parts)
    if depth < 1 or depth > 4:
        raise ValueError("permutation sum capped at 4 arguments")
    if any(v == 0 or v % 2 for v in parts):
        raise ValueError("arguments must be even and nonzero")
    perms = list(itertools.permutations(parts))
    each = tol / (2 * len(perms))
    with mp.workdps(_DPS):
        lhs = mpf(0)
        for perm in perms:
            lhs += zeta(SignedIndex(perm), each).value
        rhs = mpf(0)
        for partition in _set_partitions(list(range(depth))):
            coeff = (-1) ** (depth - len(partition))
            block_product = mpf(1)
            for block in partition:
                coeff *= factorial(len(block) - 1)
                merged = parts[block[0]]
                for pos in block[1:]:
                    merged = oplus(merged, parts[pos])
                block_product *= zeta(SignedIndex((merged,)), 1e-16).value
            rhs += coeff * block_product
        diff = float(abs(lhs - rhs))
        weight = sum(abs(v) for v in parts)
        ratio = lhs / _pi_power(weight)
    budget = tol / 2 + 1e-10
    recognized = recognize_rational(ratio, tol * 10, den_cap)
    return {
        "args": list(parts),
        "lhs": _value_str(lhs),
        "rhs": _value_str(rhs),
        "diff": diff,
        "budget": budget,
        "within_tol": diff <= budget,
        "pi_power": weight,
        "ratio": _value_str(ratio),
        "recognized": str(recognized) if recognized is not None else "unrecognized",
        "recognition_ok": recognized is not None,
    }


def _weak_compositions(total: int, slots: int) -> Iterable[Tuple[int, ...]]:
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, slots - 1):
            yield (first,) + rest


def _interleaved_index(e: Sequence[int], pairs: int,
                       trailing: Optional[int] = None) -> SignedIndex:
    """({2}^e0, 3, {2}^e1, 1, ...) with `pairs` alternating 3/1 separators.

    With trailing=q a final run {2}^q is appended after the last separator.
    """
    parts: List[int] = []
    for pos in range(pairs):
        parts += [2] * e[pos]
        parts.append(3 if pos % 2 == 0 else 1)
    if trailing is not None:
        parts += [2] * trailing
    return SignedIndex(parts)


def yamamoto_rhs(r: int, m: int) -> Fraction:
    """Exact coefficient of pi^(4r+2m) in the symmetrized composition sum.

    Quadruple Bernoulli-beta sum over 2i+k+u = 2r and j+l+v = m with the
    (-1)^(j+k) sign, binomial interleavings and the 1/((2i+1)(4i+2j+1)!)
    kernel.
    """
    if r < 1 or m < 0:
        raise ValueError("needs r >= 1, m >= 0")
    total = Fraction(0)
    for i in range(r + 1):
        for k in range(2 * r - 2 * i + 1):
            u = 2 * r - 2 * i - k
            for j in range(m + 1):
                for l in range(m - j + 1):
                    v = m - j - l
                    term = Fraction((-1) ** (j + k))
                    term *= comb(k + l, k) * comb(u + v, u) * comb(2 * i + j, j)
                    term *= beta_coeff(k + l) * beta_coeff(u + v)
                    term /= (2 * i + 1) * factorial(4 * i + 2 * j + 1)
                    total += term
    return total


def verify_yamamoto(r: int, m: int, tol: float = DEFAULT_TOL,
                    den_cap: int = RECOGNITION_DEN_CAP) -> dict:
    """Composition sum of weak-descent limits vs the exact pi-power formula."""
    coefficient = yamamoto_rhs(r, m)
    comps = list(_weak_compositions(m, 2 * r + 1))
    each = tol / (len(comps) + 1)
    power = 4 * r + 2 * m
    with mp.workdps(_DPS):
        lhs = mpf(0)
        for e in comps:
            idx = _interleaved_index(e, 2 * r, trailing=e[2 * r])
            lhs += zeta_star(idx, each).value
        rhs = (mpf(coefficient.numerator) / coefficient.denominator
               * _pi_power(power))
        diff = float(abs(lhs - rhs))
        ratio = lhs / _pi_power(power)
    budget = len(comps) * each
    recognized = recognize_rational(ratio, tol * 10, den_cap)
    return {
        "r": r,
        "m": m,
        "lhs": _value_str(lhs),
        "rhs": _value_str(rhs),
        "rhs_coefficient": str(coefficient),
        "pi_power": power,
        "diff": diff,
        "budget": budget,
        "within_tol": diff <= budget,
        "recognized": str(recognized) if recognized is not None else "unrecognized",
        "recognition_ok": recognized == coefficient,
    }


def muneta_value(n: int) -> Fraction:
    """Exact coefficient of pi^(4n) for the weak-descent limit of (3,1)^n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = Fraction(0)
    for i in range(n + 1):
        inner = Fraction(0)
        for n0 in range(2 * (n - i) + 1):
            n1 = 2 * (n - i) - n0
            g0 = (2 ** (2 * n0) - 2) * bernoulli(2 * n0) / factorial(2 * n0)
            g1 = (2 ** (2 * n1) - 2) * bernoulli(2 * n1) / factorial(2 * n1)
            inner += (-1) ** n1 * g0 * g1
        total += Fraction(2, factorial(4 * i + 2)) * inner
    return total


def verify_muneta(n: int, tol: float = DEFAULT_TOL,
                  den_cap: int = RECOGNITION_DEN_CAP) -> dict:
    """zeta*((3,1)^n) against the double-Bernoulli pi^(4n) closed form."""
    coefficient = muneta_value(n)
    power = 4 * n
    lhs = zeta_star(SignedIndex((3, 1) * n), tol / 2)
    with mp.workdps(_DPS):
        rhs = (mpf(coefficient.numerator) / coefficient.denominator
               * _pi_power(power))
        diff = float(abs(lhs.value - rhs))
        ratio = lhs.value / _pi_power(power)
    recognized = recognize_rational(ratio, tol * 10, den_cap)
    return {
        "n": n,
        "lhs": _value_str(lhs.value),
        "rhs": _value_str(rhs),
        "rhs_coefficient": str(coefficient),
        "pi_power": power,
        "diff": diff,
        "budget": tol / 2,
        "within_tol": diff <= tol / 2,
        "recognized": str(recognized) if recognized is not None else "unrecognized",
        "recognition_ok": recognized == coefficient,
    }


def _product_err(va: float, ea: float, vb: float, eb: float) -> float:
    return abs(va) * eb + abs(vb) * ea + ea * eb


def verify_ittw_conj2(part: str, params: dict, tol: float = DEFAULT_TOL) -> dict:
    """Numeric check of the three product identities for the (3,1)-pattern.

    part "i": pair sum of ({2}^n,3,{2}^m,1) and its swap vs the product of
    the two all-2 weak limits.  part "ii": (2n+1) times the weak limit of
    ((3,1)^n,2) vs the convolution of (3,1)-blocks with odd all-2 blocks.
    part "iii": the single-insertion composition sum vs the convolution with
    even all-2 blocks.
    """
    if part == "i":
        m, n = int(params["m"]), int(params["n"])
        if m < 0 or n < 0:
            raise ValueError("needs m, n >= 0")
        each = tol / 8
        left_a = zeta_star(SignedIndex((2,) * n + (3,) + (2,) * m + (1,)), each)
        left_b = zeta_star(SignedIndex((2,) * m + (3,) + (2,) * n + (1,)), each)
        right_a = zeta_star(SignedIndex((2,) * (n + 1)), each)
        right_b = zeta_star(SignedIndex((2,) * (m + 1)), each)
        with mp.workdps(_DPS):
            lhs = left_a.value + left_b.value
            rhs = right_a.value * right_b.value
            diff = float(abs(lhs - rhs))
            budget = 2 * each + _product_err(float(right_a.value), each,
                                             float(right_b.value), each)
    elif part == "ii":
        n = int(params["n"])
        if n < 1:
            raise ValueError("needs n >= 1")
        each = tol / (8 * (n + 2))
        with mp.workdps(_DPS):
            core = zeta_star(SignedIndex((3, 1) * n + (2,)), each)
            lhs = (2 * n + 1) * core.value
            rhs = mpf(0)
            budget = (2 * n + 1) * each
            for j in range(n + 1):
                va = zeta_star(SignedIndex((3, 1) * j), each)
                vb = zeta_star(SignedIndex((2,) * (2 * (n - j) + 1)), each)
                rhs += va.value * vb.value
                budget += _product_err(float(va.value), each,
                                       float(vb.value), each)
            diff = float(abs(lhs - rhs))
    elif part == "iii":
        n = int(params["n"])
        if n < 1:
            raise ValueError("needs n >= 1")
        comps = list(_weak_compositions(1, 2 * n))
        each = tol / (4 * (len(comps) + n + 1))
        with mp.workdps(_DPS):
            lhs = mpf(0)
            for e in comps:
                idx = _interleaved_index(e, 2 * n)
                lhs += zeta_star(idx, each).value
            rhs = mpf(0)
            budget = len(comps) * each
            for j in range(n):
                va = zeta_star(SignedIndex((3, 1) * j + (2,)), each)
                vb = zeta_star(SignedIndex((2,) * (2 * (n - 1 - j) + 2)), each)
                rhs += va.value * vb.value
                budget += _product_err(float(va.value), each,
                                       float(vb.value), each)
            diff = float(abs(lhs - rhs))
    else:
        raise ValueError("part must be 'i', 'ii' or 'iii'")
    return {
        "part": part,
        "params": dict(params),
        "lhs": _value_str(lhs),
        "rhs": _value_str(rhs),
        "diff": diff,
        "budget": budget,
        "within_tol": diff <= budget,
    }


def verify_theorem81(part: str, e_values, tol: float = DEFAULT_TOL,
                     den_cap: int = RECOGNITION_DEN_CAP) -> dict:
    """Permutation-symmetrized composition sums recognized as pi powers.

    part "i" takes 2r run lengths (r >= 1), part "ii" takes 2r+1 where the
    last run is lengthened by one; both sum the weak-descent limit over all
    permutations of the runs and recognize the ratio to the predicted pi
    power.  The permutation count is capped at 4! by refusing longer inputs.
    There is no predicted coefficient to compare against, so the report
    carries recognition_ok (a small-denominator rational was found) and no
    within_tol.
    """
    e = tuple(int(v) for v in e_values)
    if any(v < 0 for v in e):
        raise ValueError("run lengths must be nonnegative")
    if part == "i":
        if len(e) < 2 or len(e) % 2:
            raise ValueError("part i needs an even number of runs, >= 2")
        r = len(e) // 2
        trailing = False
    elif part == "ii":
        if len(e) < 3 or len(e) % 2 == 0:
            raise ValueError("part ii needs an odd number of runs, >= 3 "
                             "(r >= 1)")
        r = (len(e) - 1) // 2
        trailing = True
    else:
        raise ValueError("part must be 'i' or 'ii'")
    if len(e) > 4:
        raise ValueError("permutation sum capped at 4 runs")
    m = sum(e)
    power = 4 * r + 2 * m + (2 if trailing else 0)
    perms = list(itertools.permutations(e))
    each = tol / (2 * len(perms))
    with mp.workdps(_DPS):
        lhs = mpf(0)
        for tau in perms:
            if trailing:
                idx = _interleaved_index(tau, 2 * r, trailing=tau[2 * r] + 1)
            else:
                idx = _interleaved_index(tau, 2 * r)
            lhs += zeta_star(idx, each).value
        ratio = lhs / _pi_power(power)
    recognized = recognize_rational(ratio, tol * 10, den_cap)
    return {
        "part": part,
        "e_values": list(e),
        "terms": len(perms),
        "lhs": _value_str(lhs),
        "pi_power": power,
        "ratio": _value_str(ratio),
        "recognized": str(recognized) if recognized is not None else "unrecognized",
        "recognition_ok": recognized is not None,
    }
