"""Acceptance checklist: eight independent criteria, one test function each.

Criterion 1 sweeps roughly 580k exact cells and dominates the runtime of the
whole suite.  With the pure-Python fractions backend and mpmath's pure-Python
backend the whole suite took 287 s on a 2-core VM with Python 3.11, 250 s of
it in criterion 1, against 284 s and 250 s, run side by side, before every
cell was read from the one per-spec generator families._cells.  The
machine's speed drifts, so compare only times taken side by side.  Setting
STARSUM_NIGHTLY=1 additionally re-runs the two pair-run families at the
widened grid (run lengths up to 5, n up to 100).
"""

import itertools
import math
import os
import random
from fractions import Fraction

from mpmath import mp

from starsum.exact_eval import (
    mhs,
    mhs_oracle,
    mhs_star,
    mhs_star_oracle,
    rational,
)
from starsum.families import (
    C2_TWO_ONE_C2,
    C21,
    C212,
    ONE_C21,
    ONE_C212,
    ONES_C,
    TWO_ONE,
    TWO_ONE_C2,
    TWO_ONE_TWO,
    KernelParams,
    check_geometric_sum,
    check_lemma31,
    check_ones_bar_one,
    check_tail_weight_sum,
    enumerate_specs,
    verify_sweep,
)
from starsum.index_core import star_expand
from starsum.stuffle import stuffle, verify_middlestep_1, verify_middlestep_2
from starsum.zeta_numeric import (
    check_three_n,
    check_zlobin,
    hoffman_symmetric_check,
    verify_ittw_conj2,
    verify_muneta,
    verify_mzsv_family,
    verify_yamamoto,
    zeta,
    zeta_star,
)

SWEEP_GRIDS = {
    TWO_ONE: (dict(r=(1, 2, 3), a=(0, 1, 2)), 26),
    TWO_ONE_TWO: (dict(r=(0, 1, 2), a=(0, 1, 2)), 26),
    C21: (dict(r=(1, 2), a=(0, 1, 2), b=(0, 1, 2), c=(3, 4)), 342),
    C212: (dict(r=(1, 2), a=(0, 1, 2), b=(0, 1, 2), c=(3, 4), t=(0, 1, 2)),
           684),
    ONE_C21: (dict(r=(0, 1, 2), a=(0, 1, 2), b=(0, 1, 2), c=(3, 4)), 1029),
    ONE_C212: (dict(r=(0, 1, 2), a=(0, 1, 2), b=(0, 1, 2), c=(3, 4),
                    t=(0, 1, 2)), 2058),
    TWO_ONE_C2: (dict(r=(1, 2), a=(0, 1, 2), b=(0, 1, 2), c=(3, 4),
                      t=(0, 1, 2)), 1026),
    C2_TWO_ONE_C2: (dict(r=(0, 1, 2), a=(0, 1, 2), b=(0, 1, 2), c=(3, 4),
                         t=(0, 1, 2)), 6174),
    ONES_C: (dict(r=(0, 1, 2), a=(0, 1, 2), c=(1, 2, 3), t=(0, 1, 2)), 272),
}


def test_c1_exact_family_sweeps():
    for family, (grid, expected_specs) in SWEEP_GRIDS.items():
        report = verify_sweep(family, grid, 50, failures_only=True)
        assert report["specs"] == expected_specs, family
        assert report["summary"]["failed"] == 0, (family, report["results"])
        assert report["summary"]["cells"] == 50 * expected_specs
    if os.environ.get("STARSUM_NIGHTLY"):
        wide = (0, 1, 2, 3, 4, 5)
        for family, r_pool in ((TWO_ONE, (1, 2, 3)), (TWO_ONE_TWO, (0, 1, 2))):
            report = verify_sweep(family, dict(r=r_pool, a=wide), 100,
                                  failures_only=True)
            assert report["summary"]["failed"] == 0, family


def test_c2_kernel_identity_grid():
    inner = ((), (1,), (-2,), (2, 1))
    for m, a, c, v in itertools.product((1, 2), range(4), (1, 2, 3), inner):
        for n in range(1, 31):
            assert check_lemma31("i", KernelParams(m=m, kind="A", a=a, c=c,
                                                   v=v), n)
            assert check_lemma31("iii", KernelParams(m=m, kind="B", a=a, c=c,
                                                     v=v), n)
    # the shift forms hold at kernel orders 3 and 4 too (n <= 12); the
    # difference forms only at m = 2
    for m, a, c, v in itertools.product((3, 4), range(4), (1, 2, 3), inner):
        for n in range(1, 13):
            assert check_lemma31("i", KernelParams(m=m, kind="A", a=a, c=c,
                                                   v=v), n)
            assert check_lemma31("iii", KernelParams(m=m, kind="B", a=a, c=c,
                                                     v=v), n)
    for a, v in itertools.product((1, 2, 3), inner):
        for n in range(1, 31):
            assert check_lemma31("ii", KernelParams(m=2, kind="B", a=a, v=v),
                                 n)
            assert check_lemma31("iv", KernelParams(m=2, kind="A", a=a, v=v),
                                 n)


def test_c3_auxiliary_exact_identities():
    for n in range(1, 61):
        for l in range(n):
            assert check_tail_weight_sum(l, n)
    for a in range(6):
        for n in range(2, 41):
            for k in range(1, n):
                assert check_geometric_sum(a, k, n)
    for a in range(5):
        for n in range(1, 41):
            assert check_ones_bar_one(a, n)
    rng = random.Random(1108)
    pool = (-4, -3, -2, -1, 1, 2, 3, 4)
    for _ in range(200):
        parts = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))
        n = rng.randint(1, 25)
        expanded = sum(
            (coeff * mhs(n, idx) for idx, coeff in star_expand(parts)),
            rational(0))
        assert mhs_star(n, parts) == expanded, (parts, n)


def test_c4_stuffle_product_and_telescopes():
    rng = random.Random(41)
    pool = (-4, -3, -2, -1, 1, 2, 3, 4)
    for _ in range(100):
        s = tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
        t = tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
        n = rng.randint(1, 30)
        combined = sum((coeff * mhs(n, u) for u, coeff in stuffle(s, t)),
                       rational(0))
        assert mhs(n, s) * mhs(n, t) == combined, (s, t, n)
    for n in (1, 2, 3):
        assert verify_middlestep_1(n, depth_cap=7)["equal"], n
        assert verify_middlestep_2(n, depth_cap=7)["equal"], n


def _limit_suite_specs():
    specs = list(enumerate_specs(TWO_ONE, r_values=(1, 2),
                                 a_values=(0, 1, 2)))
    specs += [s for s in enumerate_specs(TWO_ONE_TWO, r_values=(2,),
                                         a_values=(0, 1, 2))
              if s.a[0] >= 1]
    specs += list(enumerate_specs(C21, r_values=(1,), a_values=(0, 1),
                                  b_values=(0, 1)))
    specs += list(enumerate_specs(C212, r_values=(1,), a_values=(0, 1),
                                  b_values=(0, 1), t_values=(1,)))
    specs += [s for s in enumerate_specs(ONE_C212, r_values=(0, 1),
                                         a_values=(0, 1), b_values=(0, 1),
                                         t_values=(1,))
              if s.a[0] >= 1]
    specs += [s for s in enumerate_specs(TWO_ONE_C2, r_values=(1,),
                                         a_values=(0, 1), b_values=(0, 1),
                                         t_values=(0, 1))
              if s.a[0] >= 1]
    specs += list(enumerate_specs(C2_TWO_ONE_C2, r_values=(0,),
                                  b_values=(0, 1), t_values=(0, 1)))
    return specs


def test_c5_numeric_limit_suite():
    specs = _limit_suite_specs()
    assert len(specs) == 41
    for spec in specs:
        report = verify_mzsv_family(spec, 1e-6)
        assert report["budget"] <= 1e-5 * (1 + 1e-9), spec
        assert report["within_tol"], report
        # the achieved errors of the two sides fit in the budget they split
        errors = report["lhs_error"], report["rhs_error"]
        assert all(map(math.isfinite, errors)), report
        assert sum(errors) <= report["budget"], report
    for n in (1, 2, 3):
        report = check_zlobin(n, 1e-6)
        assert report["budget"] <= 1e-5 and report["within_tol"], report
    for n in (1, 2):
        report = check_three_n(n, 1e-6)
        assert report["budget"] <= 1e-5 and report["within_tol"], report


def test_c6_closed_form_anchors():
    assert abs(zeta((2,), 1e-10).value - mp.pi ** 2 / 6) <= 1e-10
    assert abs(zeta((-2,), 1e-10).value + mp.pi ** 2 / 12) <= 1e-10
    assert abs(zeta_star((2, 2), 1e-9).value - 7 * mp.pi ** 4 / 360) <= 1e-9


def test_c7_symmetric_and_product_limits():
    for args in ((2, 2), (-2, -2), (2, 2, 2), (2, -2, -4)):
        report = hoffman_symmetric_check(args)
        assert report["within_tol"] and report["recognition_ok"], report
        assert Fraction(report["recognized"]).denominator <= 10 ** 6
    for m in (0, 1):
        for n in (0, 1):
            assert verify_ittw_conj2("i", {"m": m, "n": n})["within_tol"]
    assert verify_ittw_conj2("ii", {"n": 1})["within_tol"]
    assert verify_ittw_conj2("iii", {"n": 1})["within_tol"]
    for m in (0, 1):
        report = verify_yamamoto(1, m)
        assert report["within_tol"] and report["recognition_ok"], report
        assert Fraction(report["recognized"]).denominator <= 10 ** 6
    report = verify_muneta(1)
    assert report["within_tol"] and report["recognition_ok"], report


def test_c8_oracle_equivalence():
    rng = random.Random(8)
    pool = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)
    for _ in range(200):
        parts = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))
        n = rng.randint(0, 40)
        assert mhs(n, parts) == mhs_oracle(n, parts), (n, parts)
        assert mhs_star(n, parts) == mhs_star_oracle(n, parts), (n, parts)
