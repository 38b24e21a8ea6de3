"""Builders and exact verifiers for the harmonic-sum identity families.

Each family ties a weak-descent sum H*_n over a patterned composition to a
signed comma-or-merge expansion of a short base index, evaluated through one
of the two damped companion sums.  This module constructs both sides from a
parameter tuple and compares them as exact rationals one cell (spec, n) at
a time.  One per-spec generator, _cells, builds both sides once and yields
every cell's two values; verify_instance, verify_sweep and the CLI's verify
read their cells from it, and _cell_item is the one record of a cell.  The
module also hosts the binomial-kernel identities and small closed forms used
as independent cross-checks.  None of them is rewritten through
the engine's own binomial identities.  Each kernel sum is summed as written
by exact_eval._kernel_sum, the owner of the engine's lists, as one cached
integer numerator over lcm(1..n)^p (p its weight plus its exponent), so a
check of Lemma 3.1 is one integer equality over a common power of
lcm(1..n) (exact_eval._lcm_to).  Each closed form states the denominator
its terms are summed over; the geometric sum is an integer identity.

The families are declared once, in FAMILY_TABLE, one row each (see Family);
a new family is one new row.  Slot lengths, r inference, validation, the
left-hand builder, enumeration and the CLI defaults are read off the row.
The right-hand side is not: build_rhs reads it off the expanded left-hand
composition by one rule on the composition (_rhs_form), and the row only
says whether that rule reads runs of 2 or runs of 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, lcm
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple

from .exact_eval import (
    _kernel_power,
    _kernel_sum,
    _lcm_to,
    mhs_star,
    mollified_big,
    mollified_small,
    pi_companion_sum,
    rat_str,
    rational,
)
from .index_core import EMPTY, SignedIndex, as_index, as_int, as_ints, \
    pi_expand_weighted

TWO_ONE = "TWO_ONE"
TWO_ONE_TWO = "TWO_ONE_TWO"
C21 = "C21"
ONE_C21 = "ONE_C21"
C212 = "C212"
ONE_C212 = "ONE_C212"
TWO_ONE_C2 = "TWO_ONE_C2"
C2_TWO_ONE_C2 = "C2_TWO_ONE_C2"
ONES_C = "ONES_C"

BIG = "big"
SMALL = "small"


class Family(NamedTuple):
    """One identity family: H*_n of prefix + block * (r - r_min) + suffix.

    Layout letters: "a", "b" and "t" are runs of `part` (2, or 1 for the
    trailing-ones family) whose lengths are the next a_j, the next b_j and
    t; "c" is the next block c_j >= c_min; "1" is a literal 1.  An upper-case
    "A" or "T" is a run that must be nonempty; it opens or closes the layout.
    Only build_lhs reads the layout; the right side is a rule on the
    composition it builds, read in runs of `part`.
    examples is the grid (as in verify_sweep) of the paper-example suite, or
    None when the family has no limit form there.
    """

    family: str
    cli_name: str
    prefix: str
    block: str
    suffix: str
    r_min: int
    c_min: int = 3
    part: int = 2
    examples: Optional[dict] = None

    def slot_len(self, slot: str, r: int) -> int:
        """Number of entries of slot "a", "b" or "c" at block count r."""
        fixed = (self.prefix + self.suffix).lower().count(slot)
        return fixed + self.block.lower().count(slot) * (r - self.r_min)

    def infer_r(self, a: Tuple[int, ...], c: Tuple[int, ...]) -> int:
        """Block count implied by the c list, or by a without blocks c_j."""
        slot, values = ("c", c) if "c" in self.block else ("a", a)
        return len(values) - self.slot_len(slot, 0)


FAMILY_TABLE = (
    Family(TWO_ONE, "two-one", "A1", "a1", "", r_min=1,
           examples=dict(r=(1, 2), a=(0, 1, 2))),
    Family(TWO_ONE_TWO, "two-one-two", "", "a1", "A", r_min=0,
           examples=dict(r=(2,), a=(0, 1, 2))),
    Family(C21, "c21", "bca1", "bca1", "", r_min=1,
           examples=dict(r=(1,), a=(0, 1), b=(0, 1))),
    Family(ONE_C21, "one-c21", "a1", "bca1", "", r_min=0),
    Family(C212, "c212", "bca1", "bca1", "T", r_min=1,
           examples=dict(r=(1,), a=(0, 1), b=(0, 1), t=(1,))),
    Family(ONE_C212, "one-c212", "a1", "bca1", "T", r_min=0,
           examples=dict(r=(0, 1), a=(0, 1), b=(0, 1), t=(1,))),
    Family(TWO_ONE_C2, "two-one-c2", "a1bc", "a1bc", "t", r_min=1,
           examples=dict(r=(1,), a=(0, 1), b=(0, 1), t=(0, 1))),
    Family(C2_TWO_ONE_C2, "c2-two-one-c2", "bc", "a1bc", "t", r_min=0,
           examples=dict(r=(0,), b=(0, 1), t=(0, 1))),
    Family(ONES_C, "ones-c", "", "ac", "t", r_min=0, c_min=1, part=1),
)

FAMILIES = tuple(row.family for row in FAMILY_TABLE)
_ROWS = {row.family: row for row in FAMILY_TABLE}


def family_row(family: str) -> Family:
    if family not in _ROWS:
        raise ValueError("unknown family %r" % (family,))
    return _ROWS[family]


@lru_cache(maxsize=256)
def _shape(family: str, r: int) -> tuple:
    """Layout at block count r and its (len a, len b, len c)."""
    row = _ROWS[family]
    layout = row.prefix + row.block * (r - row.r_min) + row.suffix
    return layout, tuple(map(layout.lower().count, "abc"))


class RhsForm(NamedTuple):
    """Right-hand side shape: sign * sum over images p of base of
    coeff_base^depth(p) * companion_n(p)."""

    base: SignedIndex
    coeff_base: int
    sign: int
    companion: str


def _int_tuple(name: str, value) -> Tuple[int, ...]:
    """None, one int or ints as a tuple; 1.7 or "3" is refused, not cut."""
    if value is None:
        return ()
    if isinstance(value, int):
        value = (value,)
    return as_ints(name, value)


@dataclass(frozen=True)
class FamilySpec:
    """Parameter tuple selecting one instance of one identity family.

    Which fields are meaningful depends on the family's row in FAMILY_TABLE;
    unused fields must be left at their defaults.  r may be omitted, in
    which case it is inferred from the list lengths.
    """

    family: str
    a: Tuple[int, ...] = ()
    b: Tuple[int, ...] = ()
    c: Tuple[int, ...] = ()
    t: int = 0
    r: Optional[int] = None

    def __post_init__(self):
        for name in "abc":
            object.__setattr__(self, name,
                               _int_tuple(name, getattr(self, name)))
        object.__setattr__(self, "t", as_int("t", self.t))
        row = family_row(self.family)
        if self.r is None:
            object.__setattr__(self, "r", row.infer_r(self.a, self.c))
        else:
            object.__setattr__(self, "r", as_int("r", self.r))
        _validate(self, row)

    def params(self) -> dict:
        return {
            "family": self.family,
            "a": list(self.a),
            "b": list(self.b),
            "c": list(self.c),
            "t": self.t,
            "r": self.r,
        }


def _fail(spec: FamilySpec, message: str) -> None:
    raise ValueError("%s spec invalid: %s" % (spec.family, message))


def _validate(spec: FamilySpec, row: Family) -> None:
    if spec.t < 0:
        _fail(spec, "t must be nonnegative")
    for slot in "ab":
        if min(getattr(spec, slot), default=0) < 0:
            _fail(spec, "%s entries must be nonnegative" % slot)
    used = (row.prefix + row.block + row.suffix).lower()
    for slot in "bct":
        if getattr(spec, slot) and slot not in used:
            _fail(spec, "parameter %s is not used by this family" % slot)
    r = spec.r
    # each block holds an a or c: r past the lists fails before any layout
    lists = (len(spec.a), len(spec.b), len(spec.c))
    if (r < row.r_min or r - row.r_min > lists[0] + lists[2]
            or lists != _shape(spec.family, r)[1]):
        groups: dict = {}
        for slot in "abc":
            if slot in used:
                offset = row.slot_len(slot, 0)
                groups.setdefault("r + %d" % offset if offset else "r",
                                  []).append("len(%s)" % slot)
        _fail(spec, "needs r >= %d with %s" % (row.r_min, " and ".join(
            " == ".join(names + [expr]) for expr, names in groups.items())))
    layout = _shape(spec.family, r)[0]
    if min(spec.c, default=row.c_min) < row.c_min:
        _fail(spec, "every c_j must be >= %d" % row.c_min)
    if layout.endswith("A") and spec.a[-1] < 1:
        _fail(spec, "trailing %d-run must be nonempty (a_{r+%d} >= 1)"
              % (row.part, row.slot_len("a", 0)))
    if layout.startswith("A") and spec.a[0] < 1:
        _fail(spec, "leading %d-run must be nonempty (a_1 >= 1)" % row.part)
    if layout.endswith("T") and spec.t < 1:
        _fail(spec, "trailing %d-run must be nonempty (t >= 1)" % row.part)
    if not ("1" in layout or spec.c or any(spec.a) or any(spec.b) or spec.t):
        _fail(spec, "empty spec; needs r >= %d or t >= 1" % (row.r_min + 1))


def build_lhs(spec: FamilySpec) -> SignedIndex:
    """Fully expanded left-hand argument composition (runs written out)."""
    part = _ROWS[spec.family].part
    a, b, c = iter(spec.a), iter(spec.b), iter(spec.c)
    parts: List[int] = []
    for letter in _shape(spec.family, spec.r)[0]:
        if letter == "1":
            parts.append(1)
        elif letter == "c":
            parts.append(next(c))
        elif letter in "tT":
            parts += [part] * spec.t
        else:
            parts += [part] * next(b if letter == "b" else a)
    return SignedIndex(parts)


def _walk(parts: Tuple[int, ...], unit: int) -> List[int]:
    """Closed run values of a composition of positive parts.

    Along the parts, one equal to unit adds unit to the open run; a 1 (only
    when unit is 2) closes it at run + 1 and opens the next at 0; a larger
    part p closes it at run + unit, writes p - unit - 1 ones and opens the
    next run at 1.  A nonzero run left open is closed.  No rule is claimed
    for compositions with negative parts.
    """
    closed: List[int] = []
    run = 0
    for p in parts:
        if p == unit:
            run += unit
        elif p == 1:
            closed.append(run + 1)
            run = 0
        else:
            closed.append(run + unit)
            closed += [1] * (p - unit - 1)
            run = 1
    if run:
        closed.append(run)
    return closed


def _rhs_form(parts: Tuple[int, ...], unit: int) -> RhsForm:
    """Right side of H*_n(parts) read in runs of unit 2 or 1.

    The base is the walk of the parts.  With unit 2 the even closed values
    enter negated, each with a factor -1 in the sign, and an image weighs
    2^depth in the big companion; with unit 1 the first value enters
    negated, the sign is -1 and an image weighs 1 in the small companion.
    Neither form refers to a family: both are tested on every composition
    of positive parts up to weight 8.
    """
    closed = _walk(parts, unit)
    if unit == 2:
        # the negative entries are the even ones; their count, len - #odd,
        # has the parity of len + sum
        sign = (-1) ** (len(closed) + sum(closed))
        base = SignedIndex([v if v % 2 else -v for v in closed])
        return RhsForm(base, 2, sign, BIG)
    closed[0] = -closed[0]
    return RhsForm(SignedIndex(closed), 1, -1, SMALL)


def build_rhs(spec: FamilySpec) -> RhsForm:
    """Base index, per-image coefficient base, global sign and companion:
    the left side read in runs of the family's part (see _rhs_form)."""
    return _rhs_form(build_lhs(spec).parts, _ROWS[spec.family].part)


def rhs_value(spec: FamilySpec, n: int):
    """Right-hand side at n through the aggregated companion pass: the rhs of
    the cell _cells yields at n, without its left side."""
    return pi_companion_sum(*build_rhs(spec), n)


def rhs_value_expanded(spec: FamilySpec, n: int):
    """Right-hand side at n summed image by image.

    Slow route kept deliberately separate from rhs_value: expanding with
    pi_expand_weighted and evaluating every image through the plain
    companion evaluators exercises none of the aggregation shortcuts.
    """
    form = build_rhs(spec)
    evaluate = mollified_big if form.companion == BIG else mollified_small
    total = rational(0)
    for idx, coeff in pi_expand_weighted(form.base, form.coeff_base, form.sign):
        total += coeff * evaluate(n, idx)
    return total


def _cells(spec: FamilySpec, ns: Iterable[int]) -> Iterator[tuple]:
    """(n, H*_n of the left side, the right side at n) for each n of ns.

    Both sides are built once; each cell is one mhs_star call and one
    pi_companion_sum call.  verify_instance, verify_sweep and the CLI's
    verify read every cell from here.
    """
    lhs = build_lhs(spec)
    form = build_rhs(spec)
    for n in ns:
        yield n, mhs_star(n, lhs), pi_companion_sum(*form, n)


def _cell_item(spec: FamilySpec, cell: tuple) -> dict:
    """The report record of one cell: params, n, both sides as "p/q" and
    whether they are equal."""
    n, lhs, rhs = cell
    return {"params": spec.params(), "n": n, "lhs": rat_str(lhs),
            "rhs": rat_str(rhs), "equal": lhs == rhs}


def verify_instance(spec: FamilySpec, n: int) -> dict:
    """Exact comparison of both sides at a single n: the one cell _cells
    yields at n, as rationals."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _, lhs, rhs = next(_cells(spec, (n,)))
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs}


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def enumerate_specs(family: str, *, r_values: Iterable[int],
                    a_values: Iterable[int] = (0,),
                    b_values: Iterable[int] = (0,),
                    c_values: Iterable[int] = (3,),
                    t_values: Iterable[int] = (0,)) -> Iterator[FamilySpec]:
    """All valid specs over the given per-slot value pools.

    Deterministic order: r ascending as supplied, then odometer order over
    the a slots, b slots, c slots and t.  Values a family's invariants
    forbid in a given slot (for example a leading 2-run of length zero) are
    skipped rather than reported as errors, so the pools may be shared
    across slots.
    """
    row = family_row(family)
    av, bv, cv, tv = map(tuple, (a_values, b_values, c_values, t_values))
    pools = {"a": av, "A": tuple(v for v in av if v >= 1), "b": bv,
             "c": tuple(v for v in cv if v >= row.c_min),
             "t": tuple(v for v in tv if v >= 0),
             "T": tuple(v for v in tv if v >= 1)}
    for r in r_values:
        if r < row.r_min:
            continue
        layout, (na, nb, nc) = _shape(family, r)
        slots = sorted(layout.replace("1", ""), key=str.lower)  # a, b, c, t
        for v in itertools.product(*map(pools.get, slots)):
            if "1" not in layout and not any(v):
                continue  # the empty composition
            # the values of the a, b and c slots, then t if the layout has it
            yield FamilySpec(family, v[:na], v[na:na + nb],
                             v[na + nb:na + nb + nc], *v[na + nb + nc:], r=r)


def _grid_specs(family: str, grid: dict) -> Iterator[FamilySpec]:
    """enumerate_specs over a grid mapping any of "r", "a", "b", "c", "t" to
    value pools; r defaults to (1,)."""
    pools = {key + "_values": grid[key] for key in "abct" if key in grid}
    return enumerate_specs(family, r_values=grid.get("r", (1,)), **pools)


def verify_sweep(family: str, param_ranges: dict, n_max: int, *,
                 failures_only: bool = False) -> dict:
    """Verify every (spec, n) cell of a parameter grid, in enumeration order.

    param_ranges maps any of "r", "a", "b", "c", "t" to value pools (see
    enumerate_specs).  Each cell is one _cells comparison, and its record in
    results is the item `starsum verify` prints for it without elapsed_ms:
    {params, n, lhs, rhs, equal}, the sides as "p/q" (_cell_item).  With
    failures_only the records of passing cells are omitted (the summary
    still counts them), which is how the full acceptance grid stays within
    memory.
    """
    n_max = as_int("n_max", n_max)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    specs = list(_grid_specs(family, param_ranges))
    results: List[dict] = []
    passed = 0
    for spec in specs:
        for cell in _cells(spec, range(1, n_max + 1)):
            ok = cell[1] == cell[2]
            passed += ok
            if not (ok and failures_only):
                results.append(_cell_item(spec, cell))
    cells = len(specs) * n_max
    return {
        "family": family,
        "n_max": n_max,
        "specs": len(specs),
        "results": results,
        "summary": {
            "cells": cells,
            "passed": passed,
            "failed": cells - passed,
        },
    }


# ---------------------------------------------------------------------------
# binomial-kernel identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelParams:
    """Parameters of the kernel identities: kernel order m >= 1, signed or
    unsigned kind, outer exponent a, shift c and inner index v.  The shift
    forms of check_lemma31 take any m; the difference forms need m = 2."""

    m: int = 1
    kind: str = "A"
    a: int = 0
    c: int = 1
    v: SignedIndex = EMPTY

    def __post_init__(self):
        for name in ("m", "a", "c"):
            object.__setattr__(self, name, as_int(name, getattr(self, name)))
        object.__setattr__(self, "v", as_index(self.v))
        if self.m < 1:
            raise ValueError("kernel order m must be >= 1")
        if self.kind not in ("A", "B"):
            raise ValueError("kernel kind must be 'A' or 'B'")
        if self.a < 0:
            raise ValueError("exponent a must be nonnegative")


# Lemma 3.1, one row per variant: the kernel kind of the plain sums, the
# kind of the correction sums, and whether the correction's signed part
# (the last part of x, or the leading a) is negated.
LEMMA31 = {"i": ("A", "A", False), "ii": ("B", "B", False),
           "iii": ("B", "A", True), "iv": ("A", "B", True)}


def check_lemma31(variant: str, kp: KernelParams, n: int) -> bool:
    """Exact check of one of the four kernel summation identities.

    Write S(x, e) = sum_{k=1..n} H_{k-1}(x) K_{n,k} / k^e.  A variant's
    row in LEMMA31 gives the kernel kind of the plain sums S(v, .), the kind
    of the correction sums (all others) and the sign s = -1 or +1 of the
    correction's signed part.  The variants come in two shapes:

    * shift form ("i", "iii"), any kernel order m >= 1 and c >= 1:
      S(v, a) / n^c = S(v, a + c) + sum m^len(x) S(x + v, j), summed over
      j >= 0 and x = y + (s l,) with l > a and y a composition of
      a + c - j - l;
    * difference form ("ii", "iv"), m = 2 and a >= 1:
      n S(v, a) = S(v, a - 1) + 2 S((s a,) + v, -1).

    The shift forms are checked at m = 1..4 (c2); weights m^len(x) against
    a kernel of order m + 1 fail.  The difference form with factor f in
    place of 2 was found to hold only at m = f = 2 among m, f in 1..4, so it
    refuses every other m.

    The kernel factor c_n multiplies every sum on both sides alike, so the
    sums run over integer kernel rows and c_n is never formed.  Each sum is
    the cached integer numerator of exact_eval._kernel_sum over
    lcm(1..n)^p; the sides are compared as one integer equality over the
    largest power p of the check.
    """
    if variant not in LEMMA31:
        raise ValueError("variant must be one of 'i', 'ii', 'iii', 'iv'")
    n = as_int("n", n)
    if n < 1:
        raise ValueError("n must be >= 1")
    m, a, c, v = kp.m, kp.a, kp.c, kp.v.parts
    shift = variant in ("i", "iii")
    if shift and c < 1:
        raise ValueError("variants 'i' and 'iii' need c >= 1")
    if not shift:
        if m != 2:
            raise ValueError("variants 'ii' and 'iv' need m = 2")
        if a < 1:
            raise ValueError("variants 'ii' and 'iv' need a >= 1")
    plain, extra, negated = LEMMA31[variant]
    if kp.kind != plain:
        raise ValueError("variant %r uses kernel kind %r" % (variant, plain))
    sign = -1 if negated else 1
    big_l = _lcm_to(n)
    # every sum of the check is over lcm(1..n)^p with p <= top, the power
    # of S(v, a + c) in the shift form and of S(v, a) in the other
    top = _kernel_power(v, a + c if shift else a)

    def S(x: Tuple[int, ...], expo: int, kind: str = plain) -> int:
        return (_kernel_sum(x, expo, kind, m, n)
                * big_l ** (top - _kernel_power(x, expo)))

    if not shift:
        return n * S(v, a) == S(v, a - 1) + 2 * S((sign * a,) + v, -1, extra)
    rhs = S(v, a + c)
    for j in range(a + c):
        for last in range(a + 1, a + c - j + 1):
            rest = a + c - j - last
            # the compositions of rest, each weighted m^depth
            prefixes = (pi_expand_weighted(SignedIndex((1,) * rest), m)
                        if rest else ((EMPTY, 1),))
            for prefix, weight in prefixes:
                rhs += m * weight * S(prefix.parts + (sign * last,) + v, j,
                                      extra)
    return S(v, a) == n ** c * rhs


# ---------------------------------------------------------------------------
# small closed forms
# ---------------------------------------------------------------------------

def check_ones_bar_one(a: int, n: int) -> bool:
    """H*_n({1}^a, -1) against its closed form, summed over lcm(1..n)^(a+1)."""
    a, n = as_int("a", a), as_int("n", n)
    if a < 0 or n < 1:
        raise ValueError("need a >= 0 and n >= 1")
    lhs = mhs_star(n, (1,) * a + (-1,))
    big_l = _lcm_to(n)
    rhs = rational(sum((-1) ** k * (2 ** k - 1) * comb(n, k)
                       * (big_l // k) ** (a + 1) for k in range(1, n + 1)),
                   big_l ** (a + 1))
    return lhs == rhs


def check_tail_weight_sum(l: int, n: int) -> bool:
    """2 sum_{k=l+1}^n k C(n,k)/C(n+k,k), summed over the lcm of its C(n+k,k),
    against both closed forms over C(n+l,l); compared as integers."""
    l, n = as_int("l", l), as_int("n", n)
    if not 0 <= l < n:
        raise ValueError("need 0 <= l < n")
    dens = {k: comb(n + k, k) for k in range(l + 1, n + 1)}
    denom = lcm(*dens.values())
    total = sum(2 * k * comb(n, k) * (denom // den) for k, den in dens.items())
    return (total * comb(n + l, l) == n * comb(n - 1, l) * denom
            == (n - l) * comb(n, l) * denom)


def check_geometric_sum(a: int, k: int, n: int) -> bool:
    """sum_{l=0}^a (n/k)^{2l} = (n^(2a+2) - k^(2a+2)) / (k^(2a) (n^2 - k^2)),
    checked as sum_l n^(2l) k^(2a-2l) (n-k)(n+k) = n^(2a+2) - k^(2a+2)."""
    a, k, n = as_int("a", a), as_int("k", k), as_int("n", n)
    if a < 0:
        raise ValueError("need a >= 0")
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    total = sum(n ** (2 * l) * k ** (2 * a - 2 * l) for l in range(a + 1))
    return total * (n - k) * (n + k) == n ** (2 * a + 2) - k ** (2 * a + 2)
