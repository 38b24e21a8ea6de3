"""Tolerance-controlled numeric limits of the nested (alternating) sums.

The workhorse evaluator completes each nesting level of the series
analytically: level i keeps the tail function U_i(m) = sum over the i
outermost indices constrained to lie above m.  U_i obeys an exact backward
recurrence in m, and for large m it has an asymptotic expansion of the form
P(1/m) + (-1)^m A(1/m) with no logarithms, generated symbolically from the
level below.  Seeding the recurrences from the expansions at an even point N
and running them down to m = 0 yields the value; running again from 2N gives
a doubling-based error estimate, which must fall below the requested
tolerance.  That estimate is a heuristic, not a rigorous enclosure: it
assumes the seed error shrinks when N doubles.

The chain is keyed by the step weights (eq, lt) of the exact engine's
lists: an equal step weighs eq and a strict step lt, so (0, 1) is the
strict limit, (1, 1) the weak one, and (1, c) the sum over the comma-or-merge
images q of the index of c^depth(q) times the strict limit of q.  The right
side of a family limit identity is that last sum, one chain of the base
instead of one strict chain per image.

The level expansions are exact: each is one integer triple (den, plain,
alt), coefficient rows for the exponents 0..cap over one denominator in
lowest terms, memoized per prefix of the index.  The expansion of level i
depends only on the first i parts, the step weights and the expansion cap,
and indices of equal weight share the cap, hence the levels of their common
prefixes.  A level takes the one below to its tail sums term by term in
closed form: the Euler-Maclaurin coefficients of sum_{k>m} k^-e and the
Boole coefficients of sum_{k>m} (-1)^k k^-e are Bernoulli numbers times
binomials, read from one cached integer weight row per cap.  Each seed is
one integer sum over den * m^cap.

The backward recurrences run on fixed-point integers at mp.prec + 32 bits:
each seed is its exact expansion rounded once, the signed weights
sgn^k * k^-|a| are rounded rows cached per part, seed and precision, each
step adds (w * u) >> bits for the bracket u = eq * U(k-1) + (lt - eq) *
U(k) of the level below, and the result is rounded once to an mpf.  The
kernel's rounding error has a proven bound, about levels * N *
(lt * (1 + ln N))^(levels-1) * 2^-(mp.prec+32) (see _chain_value), which is
added to the doubling estimate; the sum is the achieved error that
NumericValue.error carries.  clear_value_cache() empties the weight, level
and row caches along with the value cache, which keeps every value it
stores until then.

Every limit enters through _limit, which checks tol, reads the empty index
as 1 and refuses a leading +1 before it calls its evaluator: a chain, or in
the tests one of two independent cross-checks, _partial_eval (a float
partial sum with an explicit tail bound, loose tolerances only) and
_expand_eval (the strict limits of the contraction expansion, summed).

recognize_rational reads a limit exactly as a Fraction and accepts its
limit_denominator(RECOGNITION_DEN_CAP) only within the caller's window.  A
check recognizes lhs / pi^power within its own budget carried to the ratio,
and only a check with a predicted coefficient gives a verdict on it
(recognition_ok, equality with the coefficient).  recognized alone is a
report, not a verdict: at a loose tol almost any real has a fraction under
the cap inside the window.

A tol that is not positive and finite is refused by one rule, _check_tol,
naming the value the caller gave: _limit and every public verifier check
their tol before deriving any share of it, and the CLI checks --tol.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, round_nearest, to_rational

from . import exact_eval, families as fam
from .index_core import SignedIndex, as_choice, as_index, as_int, as_ints, \
    format_index, oplus, star_expand

DEFAULT_TOL = 1e-6
RECOGNITION_DEN_CAP = 10 ** 6

_DPS = 50
_SEED_N = 128
_SEED_CHECK_N = 256
_EXTRA_ORDERS = 20


@dataclass(frozen=True)
class NumericValue:
    """One evaluated limit with the error contract it was produced under.

    value is a high-precision float (mpmath mpf); the evaluator's error
    estimate for it (a doubling check, not a proof) is at most tol, and
    method_note records the path taken.  error is that achieved estimate:
    the chain's doubling estimate plus its proven rounding bound, or the
    partial sum's tail bound; inf where the path gives none (_expand_eval,
    a value made by hand).
    """

    value: object
    tol: float
    method_note: str
    error: float = math.inf

    def __float__(self) -> float:
        return float(self.value)


class EvaluationError(ArithmeticError):
    """The evaluator's error estimate could not reach the requested
    tolerance."""


# ---------------------------------------------------------------------------
# Bernoulli numbers and the beta weights
# ---------------------------------------------------------------------------

def bernoulli(k: int) -> Fraction:
    """B_k for 0 <= k <= 80 (mpmath's bernfrac), with B_1 = -1/2."""
    return Fraction(*mp.bernfrac(as_int("k", k, 0, 80)))


def beta_coeff(n: int) -> Fraction:
    """beta_n = (-1)^n (2 - 2^(2n)) B_(2n) / (2n)!, for 0 <= n <= 40."""
    n = as_int("n", n, 0, 40)
    return (Fraction((-1) ** n) * (2 - 2 ** (2 * n))
            * bernoulli(2 * n) / factorial(2 * n))


# ---------------------------------------------------------------------------
# Symbolic 1/m expansions (plain component P, alternating component A)
# ---------------------------------------------------------------------------

# A level is an integer triple (den, plain, alt) standing for
# sum_e (plain[e] + (-1)^m alt[e]) / den * m^-e over exponents e = 0..cap.
_Level = Tuple[int, Tuple[int, ...], Tuple[int, ...]]


def _series_reexpand(row: Sequence[int], cap: int) -> List[int]:
    """Rewrite a row in 1/(m-1) as a row in 1/m, over the same denominator.

    Uses (m-1)^(-e) = sum_t C(e+t-1, t) m^(-e-t); the constant term passes
    through unchanged.
    """
    out = [row[0]] + [0] * cap
    for e in range(1, cap + 1):
        if row[e]:
            for t in range(cap - e + 1):
                out[e + t] += row[e] * comb(e + t - 1, t)
    return out


@lru_cache(maxsize=64)
def _tail_weights(cap: int) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
    """(den, plain, alt): the tail weights through cap as integers over den.

    plain[j] = den * B_j for j = 0..cap, and alt[t] = den * (2^(t+1) - 1)
    * B_(t+1) / (t+1) for t = 0..cap-1, with B_1 = -1/2.
    """
    bern = [Fraction(*mp.bernfrac(j)) for j in range(cap + 1)]
    boole = [(2 ** (t + 1) - 1) * bern[t + 1] / (t + 1) for t in range(cap)]
    den = lcm(*(w.denominator for w in bern + boole))
    return (den,
            tuple(w.numerator * (den // w.denominator) for w in bern),
            tuple(w.numerator * (den // w.denominator) for w in boole))


def _tail_sum(den: int, plain: Sequence[int], alt: Sequence[int],
              cap: int) -> _Level:
    """Apply sum_{k>m} to a per-term row P(k) + (-1)^k A(k) over den.

    Each term goes to its tail in closed form, through exponent cap:
    sum_{k>m} k^-e = sum_E C(E-1, e-2) B_(E+1-e) / (e-1) * m^-E for
    E >= e-1 (Euler-Maclaurin; C(E, e-1) / E = C(E-1, e-2) / (e-1) moves
    the division to the input exponent), and sum_{k>m} (-1)^k k^-e = (-1)^m
    sum_t (2^(t+1) - 1) B_(t+1) / (t+1) * C(e+t-1, t) * m^-(e+t) for t >= 0
    (Boole).  The output is over den times the weight denominator times
    L = lcm(1..cap), reduced once to lowest terms.
    """
    for e in (0, 1):
        if plain[e]:
            raise ValueError("divergent plain tail at exponent %d" % e)
    if alt[0]:
        raise ValueError("divergent alternating tail at exponent 0")
    w_den, bern, boole = _tail_weights(cap)
    big_l = exact_eval._lcm_to(cap)
    plain_tail = [0] * (cap + 1)
    for e in range(2, cap + 1):
        v = plain[e] * (big_l // (e - 1))
        if v:
            for j, b in enumerate(bern[:cap + 2 - e]):
                if b:
                    plain_tail[e - 1 + j] += v * comb(e - 2 + j, j) * b
    alt_tail = [0] * (cap + 1)
    for e in range(1, cap + 1):
        v = alt[e] * big_l
        if v:
            for t, w in enumerate(boole[:cap + 1 - e]):
                if w:
                    alt_tail[e + t] += v * comb(e - 1 + t, t) * w
    den *= w_den * big_l
    g = math.gcd(den, *plain_tail, *alt_tail)
    return (den // g, tuple(c // g for c in plain_tail),
            tuple(c // g for c in alt_tail))


@lru_cache(maxsize=1024)
def _chain_level(prefix: Tuple[int, ...], eq: int, lt: int,
                 cap: int) -> _Level:
    """Expansion of the tail function of the last level of prefix, as an
    integer triple (den, plain, alt) in lowest terms.

    Grown from the level below, which is shared by every index that starts
    with prefix[:-1] and has the same step weights and cap (all images of
    one base do): the bracket eq * E(m-1) + (lt - eq) * E(m) of the level
    below, E(m-1) re-expanded at m (the (-1)^m component changes sign),
    multiplied by the part's weight k^-|a| (with (-1)^k swapping the
    components for a negative part), and taken to its tail by _tail_sum.
    """
    if len(prefix) > 1:
        den, plain, alt = _chain_level(prefix[:-1], eq, lt, cap)
    else:
        den, plain, alt = 1, (1,) + (0,) * cap, (0,) * (cap + 1)
    back_plain = _series_reexpand(plain, cap) if eq else plain
    back_alt = _series_reexpand(alt, cap) if eq else alt
    plain = [eq * r + (lt - eq) * c for r, c in zip(back_plain, plain)]
    alt = [(lt - eq) * c - eq * r for r, c in zip(back_alt, alt)]
    part = prefix[-1]
    a = abs(part)
    if part < 0:
        plain, alt = alt, plain
    pad = (0,) * a
    return _tail_sum(den, pad + tuple(plain[:cap + 1 - a]),
                     pad + tuple(alt[:cap + 1 - a]), cap)


# The backward recurrences run on fixed-point integers: an integer x stands
# for x * 2^-bits, with bits = mp.prec + _GUARD_BITS.
_GUARD_BITS = 32


@lru_cache(maxsize=64)
def _weight_row(part: int, n: int, bits: int) -> Tuple[int, ...]:
    """The step weights sgn(part)^k * k^(-|part|), k = 1..n, each rounded
    to the nearest multiple of 2^-bits."""
    a = abs(part)
    row = []
    for k in range(1, n + 1):
        power = k ** a
        w = ((1 << (bits + 1)) + power) // (2 * power)
        row.append(-w if part < 0 and k & 1 else w)
    return tuple(row)


def _seed(level: _Level, m: int, bits: int) -> int:
    """P(m) + A(m) at an even m, summed exactly over den * m^cap and
    rounded once to the nearest multiple of 2^-bits."""
    den, plain, alt = level
    num = 0
    for p, q in zip(plain, alt):
        num = num * m + p + q
    den *= m ** (len(plain) - 1)
    return ((num << (bits + 1)) + den) // (2 * den)


def _chain_value(parts: Tuple[int, ...], eq: int, lt: int, seed_n: int,
                 levels: Sequence[_Level]):
    """Backward recurrences from the expansion seeds down to m = 0.

    seed_n must be even so the (-1)^m component enters with a fixed sign.
    Returns the value, rounded to an mpf at mp.prec, and a proven bound on
    its distance to the same recurrences run in exact arithmetic from the
    exact seeds.

    The bound, with N = seed_n and eps = 2^-bits: let E_i bound the error
    of level i over m = 0..N (E_0 = 0, as U_0 = 1 exactly) and M_i the
    largest |U_i(m)| the kernel computed.  The bracket eq * U(k-1) +
    (lt - eq) * U(k) is formed exactly, so, as eq and lt - eq are
    nonnegative, its error is at most lt * E_(i-1) and its size at most
    lt * M_(i-1).  The seed is rounded once (eps/2).  Each of the N steps
    adds w times the bracket's error, at most eps/2 * lt * M_(i-1) from the
    rounded weight and less than eps from the floor shift, so E_i <= eps/2
    + N * (1 + lt * M_(i-1)/2) * eps + lt * A * E_(i-1), where A = sum_k
    k^-|a| <= 1 + ln N for |a| = 1 and <= 1 + 1/(|a|-1) otherwise.  So the
    bound is about levels * N * (lt * A)^(levels-1) * eps; the final
    rounding to mp.prec adds |value| * 2^-prec.
    """
    prec = mp.prec
    bits = prec + _GUARD_BITS
    prev = [1 << bits] * (seed_n + 1)
    err = 0.0  # E_i in units of eps
    for level, part in zip(levels, parts):
        a = abs(part)
        size = math.ldexp(max(map(abs, prev)), -bits)
        gain = 1 + math.log(seed_n) if a == 1 else 1 + 1 / (a - 1)
        err = 0.5 + seed_n * (1 + lt * size / 2) + lt * gain * err
        row = _weight_row(part, seed_n, bits)
        # U_i(m) = U_i(m+1) + w(m+1) * (eq * U_{i-1}(m) + (lt - eq) *
        # U_{i-1}(m+1)); a strict (0, 1) or weak (1, 1) step reads one term
        if (eq, lt) == (0, 1):
            bracket = prev[1:]
        elif (eq, lt) == (1, 1):
            bracket = prev
        else:
            bracket = [eq * u + (lt - eq) * v for u, v in zip(prev, prev[1:])]
        steps = [(w * u) >> bits for w, u in zip(row, bracket)]
        seed = _seed(level, seed_n, bits)
        prev = list(itertools.accumulate(reversed(steps), initial=seed))
        prev.reverse()
    value = mp.make_mpf(from_man_exp(prev[0], -bits, prec, round_nearest))
    return value, math.ldexp(err, -bits) + math.ldexp(abs(float(value)), -prec)


# (parts, eq, lt) -> (value, error bound), kept until clear_value_cache()
_VALUE_CACHE: Dict[Tuple[Tuple[int, ...], int, int], Tuple[object, float]] = {}


def clear_value_cache() -> None:
    """Empty the value cache and the chain's caches: the tail weights per
    cap, the level expansions and the fixed-point weight rows."""
    _VALUE_CACHE.clear()
    for cached in (_tail_weights, _chain_level, _weight_row):
        cached.cache_clear()


def _require_admissible(parts: Tuple[int, ...]) -> None:
    if parts and parts[0] == 1:
        raise ValueError("index %s diverges: leading part +1"
                         % format_index(SignedIndex(parts)))


def _chain_eval(parts: Tuple[int, ...], eq: int, lt: int,
                tol: float) -> Tuple[object, float, str]:
    """The tail chain of parts with step weights (eq, lt): an equal step
    weighs eq and a strict step lt, so (0, 1) is zeta, (1, 1) zeta_star and
    (1, c) the sum over the comma-or-merge images q of parts of
    c^depth(q) * zeta(q)."""
    key = (parts, eq, lt)
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
            # the expansions of the tail functions U_i(m), one per level
            levels = [_chain_level(parts[:i + 1], eq, lt, cap)
                      for i in range(len(parts))]
            first, _ = _chain_value(parts, eq, lt, seed_n, levels)
            second, rounding = _chain_value(parts, eq, lt, check_n, levels)
            diff = abs(second - first)
            floor = (abs(second) + 1) * mpf(10) ** (8 - dps)
            bound = float(2 * diff + floor) + rounding
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
    n = as_int("n", n, 0)
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


def _tail_bound_min_n(depth: int) -> int:
    """The least n past the hump of partial_sum_tail_bound's majorant."""
    return max(512, int(math.exp(depth - 1)) + 1)


def partial_sum_tail_bound(s, n: int) -> float:
    """Upper bound for |zeta(s) - H_n(s)|, valid for admissible s.

    Bounds the inner sums by (1 + ln k)^(depth-1) and the outer tail by the
    integral of a decreasing majorant; n must sit beyond the majorant's hump.
    """
    parts = as_index(s).parts
    n = as_int("n", n, _tail_bound_min_n(len(parts)) if parts else None)
    if not parts:
        return 0.0
    _require_admissible(parts)
    rest_depth = len(parts) - 1
    lead = abs(parts[0])
    with mp.workdps(30):
        integrand = lambda x: x ** (-lead) * (1 + mp.log(x)) ** rest_depth
        bound = mp.quad(integrand, [n, mp.inf]) + integrand(mpf(n))
    return float(bound)


def _partial_eval(parts: Tuple[int, ...],
                  tol: float) -> Tuple[object, float, str]:
    for n in (1 << e for e in range(12, 22)):  # 4096 .. 2^21
        if n < _tail_bound_min_n(len(parts)):
            continue
        bound = partial_sum_tail_bound(parts, n) + 1e-11
        if bound <= tol:
            return mpf(mhs_float(n, parts)), bound, "partial sum n=%d" % n
    raise EvaluationError("partial-sum tail bound cannot reach tol=%g" % tol)


# ---------------------------------------------------------------------------
# Public evaluators
# ---------------------------------------------------------------------------

def _check_tol(tol: float, name: str = "tol") -> None:
    """Refuse a tol that is not a positive finite number (0, negative,
    inf or nan), naming the value given, before any arithmetic reads it.

    The package's one tolerance rule.  _limit (so every limit) and every
    public verifier call it on the caller's tol before deriving any share
    of it; _digits calls it on each share; recognize_rational calls it on
    its window; and the CLI calls it on every --tol.
    """
    if not 0 < tol < math.inf:
        raise ValueError("%s must be positive and finite, got %r"
                         % (name, tol))


def _limit(s, tol: float, evaluate) -> NumericValue:
    """The one entry of every limit: tol is checked, the empty index is 1
    exactly and a leading +1 is refused before evaluate(parts, tol) ->
    (value, error, note) is called on the index's parts."""
    _check_tol(tol)
    parts = as_index(s).parts
    if not parts:
        return NumericValue(mpf(1), tol, "empty index", 0.0)
    _require_admissible(parts)
    value, error, note = evaluate(parts, tol)
    return NumericValue(value, tol, note, error)


def _expand_eval(parts: Tuple[int, ...],
                 tol: float) -> Tuple[object, float, str]:
    """zeta_star's cross-check: the strict limits of the contraction
    expansion, summed; it gives no error estimate."""
    terms = list(star_expand(parts))
    value = _limit_sum(zeta, terms, tol / sum(abs(c) for _, c in terms))
    return value, math.inf, "star expansion over %d strict limits" % len(terms)


def zeta(s, tol: float = DEFAULT_TOL) -> NumericValue:
    """Limit of the strict-descent sums H_n(s) as n grows: the (0, 1) chain.

    The index must be admissible (leading part != +1); the returned value
    has a doubling-based error estimate of at most tol (an estimate, not a
    rigorous bound on |value - truth|), carried as its error field.
    """
    return _limit(s, tol, lambda parts, tol: _chain_eval(parts, 0, 1, tol))


def zeta_star(s, tol: float = DEFAULT_TOL) -> NumericValue:
    """Limit of the weak-descent sums H*_n(s) as n grows: the (1, 1) chain,
    under the same contract as zeta."""
    return _limit(s, tol, lambda parts, tol: _chain_eval(parts, 1, 1, tol))


# ---------------------------------------------------------------------------
# Rational recognition
# ---------------------------------------------------------------------------

def recognize_rational(value, window: float) -> Optional[Fraction]:
    """The fraction nearest value with denominator <= RECOGNITION_DEN_CAP
    (Fraction.limit_denominator) if it lies within window, else None.

    An mpf is read exactly, at its own precision; any other value is made
    an mpf at _DPS digits first.  Callers must report None, never
    substitute a guess.
    """
    _check_tol(window, "window")
    if not isinstance(value, mpf):
        value = mpf(value, dps=_DPS)
    if not mp.isfinite(value):
        raise ValueError("value must be finite, got %s" % value)
    x = Fraction(*to_rational(value._mpf_))
    found = x.limit_denominator(RECOGNITION_DEN_CAP)
    return found if abs(x - found) <= window else None


def _value_str(v) -> str:
    with mp.workdps(_DPS):
        return mp.nstr(mpf(v), 20)


# ---------------------------------------------------------------------------
# The comparison record shared by the limit checks
# ---------------------------------------------------------------------------

def _digits(tol: float) -> int:
    """Working digits for summing and comparing limits at tolerance tol:
    _DPS, or ten more than tol's decimal places when that is more.  A tol
    that is not positive and finite is refused as _limit refuses it."""
    _check_tol(tol)
    return max(_DPS, 10 - math.floor(math.log10(tol)))


def _limit_sum(evaluate, terms, tol: float):
    """Sum of coeff * evaluate(idx, tol).value over (idx, coeff) terms.

    Summed at _digits(tol) in the order given.  A unit coefficient adds the
    value as evaluated, without first rounding it by a product.
    """
    with mp.workdps(_digits(tol)):
        total = mpf(0)
        for idx, coeff in terms:
            value = evaluate(idx, tol).value
            total += value if coeff == 1 else coeff * value
    return total


def _compare(lhs, rhs, budget: float) -> dict:
    """Both sides, their distance and whether it is within the budget."""
    with mp.workdps(_digits(budget)):
        diff = float(abs(lhs - rhs))
    return {
        "lhs": _value_str(lhs),
        "rhs": _value_str(rhs),
        "diff": diff,
        "budget": budget,
        "within_tol": diff <= budget,
    }


def _against_pi_power(lhs, coefficient: Fraction, power: int,
                      budget: float) -> dict:
    """lhs against coefficient * pi^power within budget, and lhs / pi^power
    recognized within the same budget carried to the ratio.

    recognition_ok is equality of the recognized fraction with the
    coefficient, so a ratio whose nearest fraction under the cap lies
    farther than budget / pi^power reads "unrecognized" and fails it.
    """
    with mp.workdps(_digits(budget)):
        pi_power = mp.pi ** power
        rhs = mpf(coefficient.numerator) / coefficient.denominator * pi_power
        found = recognize_rational(lhs / pi_power, budget / math.pi ** power)
    return {
        "rhs_coefficient": str(coefficient),
        "pi_power": power,
        **_compare(lhs, rhs, budget),
        "recognized": "unrecognized" if found is None else str(found),
        "recognition_ok": found == coefficient,
    }


# ---------------------------------------------------------------------------
# Family limit identities
# ---------------------------------------------------------------------------

def verify_mzsv_family(spec: fam.FamilySpec, tol: float = DEFAULT_TOL) -> dict:
    """Numeric check of one family identity in the limit.

    Left side: weak-descent limit of the family's argument composition.
    Right side: the signed comma-or-merge expansion of the base index, sign
    times the sum over its images q of coeff_base^depth(q) * zeta(q), taken
    as one tail chain of the base in which an equal step weighs 1 and a
    strict step coeff_base.  The tolerances are split as if each image were
    a limit of its own, so the combined error budget stays at or below
    10*tol.  lhs_error and rhs_error are the errors the two sides achieved
    (each a NumericValue.error), each within its share.
    """
    _check_tol(tol)
    form = fam.build_rhs(spec)
    if form.companion != fam.BIG:
        raise ValueError("%s has no limit form: its companion weight does not "
                         "converge" % spec.family)
    lhs_idx = fam.build_lhs(spec)
    # the base leads with +1 only when the left side leads with 1
    if lhs_idx.parts and lhs_idx.parts[0] == 1:
        raise ValueError("left side diverges for %s: leading part is 1 "
                         "(needs a nonempty leading 2-run)" % (spec.params(),))
    # Each of the d - 1 slots of a depth-d base is a comma (weight c) or a
    # merge (weight 1), and distinct choices give distinct images, since the
    # cuts follow from the partial sums of |parts|: 2^(d-1) images of total
    # |coefficient| c (c + 1)^(d-1), with no image listed.
    c, slots = form.coeff_base, form.base.depth() - 1
    coeff_mass = c * (c + 1) ** slots
    tol_each = min(tol, 10.0 * tol / (1 + coeff_mass))
    lhs = zeta_star(lhs_idx, tol_each)
    chain = _limit(form.base, coeff_mass * tol_each, lambda parts, tol:
                   _chain_eval(parts, 1, form.coeff_base, tol))
    with mp.workdps(_digits(tol_each)):
        rhs = form.sign * chain.value
    return {
        "family": spec.family,
        "params": spec.params(),
        "lhs_index": format_index(lhs_idx),
        "rhs_terms": 2 ** slots,
        **_compare(lhs.value, rhs, (1 + coeff_mass) * tol_each),
        "lhs_error": lhs.error,
        "rhs_error": chain.error,
    }


def check_zlobin(n: int, tol: float = DEFAULT_TOL) -> dict:
    """zeta*({2}^n) against -2 * zeta of the single bar argument 2n, which
    is an exact rational times pi^(2n) (_even_zeta_coefficient): the left
    side is the only limit taken, checked as verify_muneta checks its own."""
    _check_tol(tol)
    n = as_int("n", n, 1)
    coefficient = -2 * _even_zeta_coefficient(-2 * n)
    lhs = zeta_star(SignedIndex((2,) * n), tol / 2).value
    return {"n": n, **_against_pi_power(lhs, coefficient, 2 * n, tol / 2)}


def check_three_n(n: int, tol: float = DEFAULT_TOL) -> dict:
    """zeta({3}^n) against 8^n * zeta((-2,1)^n)."""
    _check_tol(tol)
    n = as_int("n", n, 1)
    scale = 8 ** n
    lhs = zeta(SignedIndex((3,) * n), tol / 2).value
    rhs = _limit_sum(zeta, [(SignedIndex((-2, 1) * n), scale)],
                     tol / (2 * scale))
    return {"n": n, **_compare(lhs, rhs, tol)}


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


def _even_zeta_coefficient(v: int) -> Fraction:
    """zeta(v) / pi^|v| for one even nonzero argument v, exactly:
    zeta(2j) / pi^(2j) = (-1)^(j+1) B_2j 2^(2j-1) / (2j)!, and the
    alternating zeta(-2j) = -(1 - 2^(1-2j)) zeta(2j)."""
    j = abs(v) // 2
    plain = (Fraction(*mp.bernfrac(2 * j)) * (-1) ** (j + 1) * 2 ** (2 * j - 1)
             / factorial(2 * j))
    return plain if v > 0 else -(1 - Fraction(1, 2 ** (2 * j - 1))) * plain


def hoffman_symmetric_check(args, tol: float = DEFAULT_TOL) -> dict:
    """Full symmetrization of a depth-<=4 strict limit vs its partition form.

    Left side sums the strict limit over every permutation of the given even
    nonzero arguments, each at tol / (2 * permutations).  The right side is
    the signed sum over set partitions, with (block size - 1)! weights, of
    products of the single limits of the merged blocks.  Each of those is an
    exact rational multiple of pi^|v|, so the right side is an exact
    coefficient times pi^weight, and the left side is checked against it as
    _against_pi_power does, with budget tol / 2.
    """
    _check_tol(tol)
    parts = as_ints("args", args)
    depth = as_int("len(args)", len(parts), 1, 4)
    if any(v == 0 or v % 2 for v in parts):
        raise ValueError("args must be even and nonzero, got %r" % (parts,))
    perms = list(itertools.permutations(parts))
    lhs = _limit_sum(zeta, [(SignedIndex(perm), 1) for perm in perms],
                     tol / (2 * len(perms)))
    coefficient = Fraction(0)
    for partition in _set_partitions(list(range(depth))):
        term = Fraction((-1) ** (depth - len(partition)))
        for block in partition:
            merged = parts[block[0]]
            for pos in block[1:]:
                merged = oplus(merged, parts[pos])
            term *= factorial(len(block) - 1) * _even_zeta_coefficient(merged)
        coefficient += term
    return {"args": list(parts), **_against_pi_power(
        lhs, coefficient, sum(abs(v) for v in parts), tol / 2)}


def _weak_compositions(total: int, slots: int) -> List[Tuple[int, ...]]:
    """Nonnegative slots-tuples summing to total, in lexicographic order."""
    return [e for e in itertools.product(range(total + 1), repeat=slots)
            if sum(e) == total]


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
    r, m = as_int("r", r, 1), as_int("m", m, 0)
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


def verify_yamamoto(r: int, m: int, tol: float = DEFAULT_TOL) -> dict:
    """Composition sum of weak-descent limits vs the exact pi-power formula."""
    _check_tol(tol)
    r, m = as_int("r", r), as_int("m", m)
    coefficient = yamamoto_rhs(r, m)
    comps = _weak_compositions(m, 2 * r + 1)
    each = tol / (len(comps) + 1)
    terms = [(_interleaved_index(e, 2 * r, trailing=e[2 * r]), 1)
             for e in comps]
    lhs = _limit_sum(zeta_star, terms, each)
    return {"r": r, "m": m, **_against_pi_power(
        lhs, coefficient, 4 * r + 2 * m, len(comps) * each)}


def muneta_value(n: int) -> Fraction:
    """Exact coefficient of pi^(4n) for the weak-descent limit of (3,1)^n."""
    n = as_int("n", n, 0)
    total = Fraction(0)
    for i in range(n + 1):
        k = 2 * (n - i)
        # (2^(2j) - 2) B_2j / (2j)! is (-1)^(j+1) beta_j, and the two signs
        # of a pair cancel, since their indices sum to the even k
        inner = sum((-1) ** j * beta_coeff(k - j) * beta_coeff(j)
                    for j in range(k + 1))
        total += Fraction(2, factorial(4 * i + 2)) * inner
    return total


def verify_muneta(n: int, tol: float = DEFAULT_TOL) -> dict:
    """zeta*((3,1)^n) against the double-Bernoulli pi^(4n) closed form."""
    _check_tol(tol)
    n = as_int("n", n)
    coefficient = muneta_value(n)
    lhs = zeta_star(SignedIndex((3, 1) * n), tol / 2).value
    return {"n": n, **_against_pi_power(lhs, coefficient, 4 * n, tol / 2)}


def _product_sum(pairs, each: float, budget: float):
    """Sum of zeta*(a) * zeta*(b) over index pairs (a, b) at _digits(each),
    every limit taken to tolerance each, and budget grown by each product's
    error bound."""
    with mp.workdps(_digits(each)):
        total = mpf(0)
        for a, b in pairs:
            va = zeta_star(a, each).value
            vb = zeta_star(b, each).value
            total += va * vb
            budget += (abs(float(va)) * each + abs(float(vb)) * each
                       + each * each)
    return total, budget


def verify_ittw_conj2(part: str, params: dict, tol: float = DEFAULT_TOL) -> dict:
    """Numeric check of the three product identities for the (3,1)-pattern.

    part "i": pair sum of ({2}^n,3,{2}^m,1) and its swap vs the product of
    the two all-2 weak limits.  part "ii": (2n+1) times the weak limit of
    ((3,1)^n,2) vs the convolution of (3,1)-blocks with odd all-2 blocks.
    part "iii": the single-insertion composition sum vs the convolution with
    even all-2 blocks.  Part i takes params m and n, parts ii and iii take
    n; a missing or an extra key is refused by name.
    """
    _check_tol(tol)
    keys = {"i": ("m", "n"), "ii": ("n",), "iii": ("n",)}[
        as_choice("part", part, ("i", "ii", "iii"))]
    missing = [key for key in keys if key not in params]
    extra = [key for key in params if key not in keys]
    if missing or extra:
        raise ValueError("part %s takes %s; missing %s, extra %s" % (
            part, " and ".join(keys), missing, extra))
    n = as_int("n", params["n"], 0 if part == "i" else 1)
    if part == "i":
        m = as_int("m", params["m"], 0)
        each = tol / 8
        lhs = _limit_sum(zeta_star, [
            (SignedIndex((2,) * n + (3,) + (2,) * m + (1,)), 1),
            (SignedIndex((2,) * m + (3,) + (2,) * n + (1,)), 1)], each)
        pairs = [(SignedIndex((2,) * (n + 1)), SignedIndex((2,) * (m + 1)))]
        rhs, budget = _product_sum(pairs, each, 2 * each)
    elif part == "ii":
        each = tol / (8 * (n + 2))
        core = SignedIndex((3, 1) * n + (2,))
        lhs = _limit_sum(zeta_star, [(core, 2 * n + 1)], each)
        pairs = [(SignedIndex((3, 1) * j),
                  SignedIndex((2,) * (2 * (n - j) + 1))) for j in range(n + 1)]
        rhs, budget = _product_sum(pairs, each, (2 * n + 1) * each)
    else:
        comps = _weak_compositions(1, 2 * n)
        each = tol / (4 * (len(comps) + n + 1))
        lhs = _limit_sum(zeta_star, [(_interleaved_index(e, 2 * n), 1)
                                     for e in comps], each)
        pairs = [(SignedIndex((3, 1) * j + (2,)),
                  SignedIndex((2,) * (2 * (n - 1 - j) + 2))) for j in range(n)]
        rhs, budget = _product_sum(pairs, each, len(comps) * each)
    return {"part": part, "params": dict(params), **_compare(lhs, rhs, budget)}


def verify_theorem81(part: str, e_values, tol: float = DEFAULT_TOL) -> dict:
    """Permutation-symmetrized composition sums recognized as pi powers.

    part "i" takes 2r run lengths (r >= 1), part "ii" takes 2r+1 where the
    last run is lengthened by one; both sum the weak-descent limit over all
    permutations of the runs, each at tol / (2 * permutations), and
    recognize the ratio to the predicted pi power within that sum's budget
    tol / 2 carried to the ratio.  The permutation count is capped at 4! by
    refusing longer inputs.  There is no predicted coefficient, so the
    report carries recognized and no verdict: neither within_tol nor
    recognition_ok.  recognized is a report, not a pass; at a loose tol
    almost any real has a fraction under the cap inside the window.
    """
    _check_tol(tol)
    e = as_ints("e_values", e_values, 0)
    trailing = as_choice("part", part, ("i", "ii")) == "ii"
    runs = as_int("len(e_values)", len(e), 2 + trailing, 4)
    if runs % 2 != trailing:
        raise ValueError("part %s needs an %s number of runs, got %d"
                         % (part, ("even", "odd")[trailing], runs))
    r = runs // 2
    m = sum(e)
    power = 4 * r + 2 * m + (2 if trailing else 0)
    perms = list(itertools.permutations(e))
    terms = [(_interleaved_index(tau, 2 * r,
                                 tau[2 * r] + 1 if trailing else None), 1)
             for tau in perms]
    lhs = _limit_sum(zeta_star, terms, tol / (2 * len(perms)))
    with mp.workdps(_digits(tol)):
        ratio = lhs / mp.pi ** power
    found = recognize_rational(ratio, tol / 2 / math.pi ** power)
    return {
        "part": part,
        "e_values": list(e),
        "terms": len(perms),
        "lhs": _value_str(lhs),
        "pi_power": power,
        "ratio": _value_str(ratio),
        "recognized": "unrecognized" if found is None else str(found),
    }
