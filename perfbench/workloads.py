"""The four benchmark workloads: seeded inputs, one timed pass, its check.

Every pass starts with cold caches (see ``cold``) because every ``starsum``
process pays that warm-up: a memo kept warm across passes would time a
program nobody runs.  Inside a pass nothing is cleared, except before each
``starsum verify`` in ``deep`` and each drawn ``verify_mzsv_family`` in
``limits``, which stand for processes of their own.

A pass returns what it computed; ``check`` judges it afterwards, outside
the timed region, and returns the number of failed items.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import itertools
import json
import random
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from starsum import cli
from starsum import exact_eval
from starsum import families as fam
from starsum import index_core
from starsum import zeta_numeric as zn

import tracing
from clock import Clock

# the package re-exports the function stuffle under the submodule's name
stuffle = importlib.import_module("starsum.stuffle")

# The c1 acceptance grids, in c1 order.
C1_GRIDS: Tuple[Tuple[str, Dict[str, tuple]], ...] = (
    (fam.TWO_ONE, dict(r=(1, 2, 3), a=(0, 1, 2))),
    (fam.TWO_ONE_TWO, dict(r=(0, 1, 2), a=(0, 1, 2))),
    (fam.C21, dict(r=(1, 2), a=(0, 1, 2), b=(0, 1, 2), c=(3, 4))),
    (fam.C212, dict(r=(1, 2), a=(0, 1, 2), b=(0, 1, 2), c=(3, 4), t=(0, 1, 2))),
    (fam.ONE_C21, dict(r=(0, 1, 2), a=(0, 1, 2), b=(0, 1, 2), c=(3, 4))),
    (fam.ONE_C212, dict(r=(0, 1, 2), a=(0, 1, 2), b=(0, 1, 2), c=(3, 4),
                        t=(0, 1, 2))),
    (fam.TWO_ONE_C2, dict(r=(1, 2), a=(0, 1, 2), b=(0, 1, 2), c=(3, 4),
                          t=(0, 1, 2))),
    (fam.C2_TWO_ONE_C2, dict(r=(0, 1, 2), a=(0, 1, 2), b=(0, 1, 2), c=(3, 4),
                             t=(0, 1, 2))),
    (fam.ONES_C, dict(r=(0, 1, 2), a=(0, 1, 2), c=(1, 2, 3), t=(0, 1, 2))),
)

SWEEP_N = 50
# Pool sizes of the sweep sub-grids: about 115 specs (5.7k cells) in all,
# two fifths of them C2_TWO_ONE_C2 as in c1, so that a pass takes seconds.
SWEEP_SHAPES: Dict[str, Dict[str, int]] = {
    fam.TWO_ONE: dict(a=2),
    fam.TWO_ONE_TWO: dict(a=2),
    fam.C21: dict(a=1, b=2, c=1),
    fam.C212: dict(a=1, b=2, c=1, t=1),
    fam.ONE_C21: dict(a=2, b=1, c=1),
    fam.ONE_C212: dict(a=2, b=1, c=1, t=1),
    fam.TWO_ONE_C2: dict(a=2, b=1, c=1, t=2),
    fam.C2_TWO_ONE_C2: dict(a=2, b=2, c=1, t=1),
    fam.ONES_C: dict(a=2, c=1, t=1),
}
DEEP_N = 200
# Left-hand weight of the deep specs: cost at n = 200 grows with it.
DEEP_WEIGHT = 6
LIMITS_BASE_DEPTH = 4
LIMITS_TIGHT_TOL = 1e-30
KERNEL_N = tuple(range(3, 31, 3))

CLI_NAMES = {family: name for name, family in cli.FAMILY_NAMES.items()}


@dataclass
class PassResult:
    """What one pass did.  seconds (all timed work) and calls (latencies)
    are wall times; slowdown is the pass clock's (see clock.Clock)."""

    seconds: float
    items: int
    calls: List[float]
    outputs: list
    slowdown: float
    counters: Dict[str, float] = field(default_factory=dict)


def cold() -> None:
    """Empty starsum's caches as a fresh process has them: the memo, the
    numeric value cache and every functools cache in a starsum module."""
    exact_eval.clear_memo()
    zn.clear_value_cache()
    for name, module in list(sys.modules.items()):
        if module is not None and name.startswith("starsum"):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _add_memo_stats(counters: Dict[str, float]) -> None:
    for key, value in exact_eval.memo_stats().items():
        if key != "limit":
            counters["memo." + key] = counters.get("memo." + key, 0) + value


def _specs(family: str, grid: Dict[str, tuple]) -> List[fam.FamilySpec]:
    return list(fam.enumerate_specs(
        family, r_values=grid["r"], a_values=grid.get("a", (0,)),
        b_values=grid.get("b", (0,)), c_values=grid.get("c", (3,)),
        t_values=grid.get("t", (0,))))


def _lhs_weight(spec: fam.FamilySpec) -> int:
    return fam.build_lhs(spec).weight()


def _base_depth(spec: fam.FamilySpec) -> int:
    return fam.build_rhs(spec).base.depth()


def _pick(rng: random.Random, classes: Dict[tuple, list], target: float):
    """Seeded choice inside one class of candidates that cost about the
    same: the class whose key starts nearest target, preferring classes with
    two or more members.  So seeds vary the inputs but hardly their cost."""
    key = min(classes, key=lambda k: (len(classes[k]) < 2, abs(k[0] - target), k))
    return rng.choice(classes[key])


# ---------------------------------------------------------------------------
# sweep: c1 traffic on seeded sub-grids
# ---------------------------------------------------------------------------

def sweep_inputs(rng: random.Random) -> list:
    """[(family, pools, spec count), ...] in c1 order.

    A candidate sub-grid keeps the c1 r pool and takes a subset of the size
    SWEEP_SHAPES gives from every other pool.  Candidates with the most
    common spec count are classed by the mean left-hand weight and mean
    base depth of their specs, and the seed picks in the class nearest the
    median candidate's weight.
    """
    out = []
    for family, grid in C1_GRIDS:
        shape = SWEEP_SHAPES[family]
        candidates = []
        for subsets in itertools.product(
                *(itertools.combinations(grid[key], size)
                  for key, size in shape.items())):
            pools = dict(grid, **dict(zip(shape, subsets)))
            specs = _specs(family, pools)
            if specs:
                key = tuple(round(statistics.mean(map(measure, specs)), 9)
                            for measure in (_lhs_weight, _base_depth))
                candidates.append((len(specs), key, pools))
        count = Counter(c[0] for c in candidates).most_common(1)[0][0]
        classes: Dict[tuple, list] = {}
        for size, key, pools in candidates:
            if size == count:
                classes.setdefault(key, []).append(pools)
        middle = statistics.median(key[0] for size, key, _ in candidates
                                   if size == count)
        pools = _pick(rng, classes, middle)
        out.append((family, pools, count))
    return out


def sweep_pass(inputs: list, clock: Clock) -> PassResult:
    cold()
    calls, reports = [], []
    with tracing.patched([("starsum.exact_eval", "mhs_star", clock.sampled)]):
        for family, pools, _ in inputs:
            with clock.timing() as elapsed:
                try:
                    reports.append(fam.verify_sweep(family, pools, SWEEP_N,
                                                    failures_only=True))
                except Exception as exc:  # counted as failed cells by the check
                    reports.append(exc)
            calls.append(elapsed[0])
    specs = sum(count for _, _, count in inputs)
    counters = {"cells": SWEEP_N * specs, "specs": specs}
    _add_memo_stats(counters)
    return PassResult(clock.total, SWEEP_N * specs, calls, reports,
                      clock.slowdown(), counters)


def sweep_check(inputs: list, result: PassResult, references: None) -> int:
    failed = 0
    for (_, _, count), report in zip(inputs, result.outputs):
        if isinstance(report, Exception):
            failed += SWEEP_N * count
        elif (report["specs"] != count
              or report["summary"]["cells"] != SWEEP_N * count):
            failed += SWEEP_N * count
        else:
            failed += report["summary"]["failed"]
    return failed


# ---------------------------------------------------------------------------
# deep: one large-n verify per family through the CLI
# ---------------------------------------------------------------------------

def _verify_argv(spec: fam.FamilySpec) -> List[str]:
    argv = ["verify", "--family", CLI_NAMES[spec.family],
            "--n-max", str(DEEP_N), "--format", "json"]
    for key in ("a", "b", "c"):
        values = getattr(spec, key)
        if values:
            argv += ["--" + key, ",".join(map(str, values))]
    return argv + ["--t", str(spec.t), "--r", str(spec.r)]


def deep_inputs(rng: random.Random) -> list:
    """[(spec, argv), ...]: per family one c1 spec, classed by left-hand
    weight and depth and base depth, from a class of weight near
    DEEP_WEIGHT."""
    out = []
    for family, grid in C1_GRIDS:
        classes: Dict[tuple, list] = {}
        for spec in _specs(family, grid):
            lhs = fam.build_lhs(spec)
            key = (lhs.weight(), lhs.depth(), fam.build_rhs(spec).base.depth())
            classes.setdefault(key, []).append(spec)
        spec = _pick(rng, classes, DEEP_WEIGHT)
        out.append((spec, _verify_argv(spec)))
    return out


def run_cli(argv: List[str]) -> Tuple[int, str]:
    """cli.main in-process with stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def deep_pass(inputs: list, clock: Clock) -> PassResult:
    calls, outputs = [], []
    counters: Dict[str, float] = {"report_bytes": 0}
    with tracing.patched([("starsum.exact_eval", "mhs_star", clock.sampled)]):
        for _, argv in inputs:
            cold()
            with clock.timing() as elapsed:
                try:
                    outputs.append(run_cli(argv))
                except Exception as exc:
                    outputs.append((None, repr(exc)))
            calls.append(elapsed[0])
            counters["report_bytes"] += len(outputs[-1][1].encode())
            _add_memo_stats(counters)
    counters["cells"] = DEEP_N * len(inputs)
    counters["specs"] = len(inputs)
    return PassResult(clock.total, DEEP_N * len(inputs), calls, outputs,
                      clock.slowdown(), counters)


def deep_references(inputs: list) -> list:
    """rat_str of the n = DEEP_N right side of every spec, summed image by
    image through families.rhs_value_expanded (no aggregation shortcut)."""
    out = []
    for spec, _ in inputs:
        cold()
        out.append(exact_eval.rat_str(fam.rhs_value_expanded(spec, DEEP_N)))
    cold()
    return out


def deep_check(inputs: list, result: PassResult, references: list) -> int:
    failed = 0
    for (spec, _), (code, text), reference in zip(inputs, result.outputs,
                                                  references):
        try:
            report = json.loads(text) if code == 0 else None
        except ValueError:
            report = None
        if report is None or len(report["items"]) != DEEP_N:
            failed += DEEP_N
            continue
        items = report["items"]
        bad = sum(1 for item in items
                  if not (item["equal"] and item["lhs"] == item["rhs"]
                          and item["params"] == spec.params()))
        if items[-1]["n"] != DEEP_N or items[-1]["rhs"] != reference:
            bad = DEEP_N
        failed += bad
    return failed


# ---------------------------------------------------------------------------
# limits: numeric tail chain, recognition and the CLI suite path
# ---------------------------------------------------------------------------

def limits_inputs(rng: random.Random) -> list:
    """[(spec, tol), ...]: per big-companion family one admissible c1 spec,
    classed by base depth and weight, with a base of depth near
    LIMITS_BASE_DEPTH; every second one at the tight tol."""
    draw = []
    for family, grid in C1_GRIDS:
        classes: Dict[tuple, list] = {}
        for spec in _specs(family, grid):
            form = fam.build_rhs(spec)
            # a leading +1 on either side makes the limit diverge; merged
            # heads of the base's images are never +1
            if (form.companion == fam.BIG and form.base.parts[0] != 1
                    and fam.build_lhs(spec).parts[0] != 1):
                key = (form.base.depth(), form.base.weight())
                classes.setdefault(key, []).append(spec)
        if classes:
            draw.append(_pick(rng, classes, LIMITS_BASE_DEPTH))
    return [(spec, LIMITS_TIGHT_TOL if i % 2 else zn.DEFAULT_TOL)
            for i, spec in enumerate(draw)]


def _latency_wrapper(calls: List[float], depth: List[int], fn: Callable) -> Callable:
    """fn that appends its wall time to calls when not nested in another."""
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        depth[0] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            depth[0] -= 1
            if depth[0] == 0:
                calls.append(time.perf_counter() - t0)
    return timed


def _attempt(clock: Clock, fn: Callable, *args):
    """fn(*args), timed by clock; an exception is returned, not raised."""
    with clock.timing():
        try:
            return fn(*args)
        except Exception as exc:
            return exc


def limits_pass(inputs: list, clock: Clock) -> PassResult:
    cold()
    calls: List[float] = []
    depth = [0]
    def make(fn):
        # the probe runs before the latency timer starts
        return clock.sampled(_latency_wrapper(calls, depth, fn))
    outputs = []
    counters: Dict[str, float] = {"report_bytes": 0}
    with tracing.patched([("starsum.zeta_numeric", name, make)
                          for name in tracing.VERIFIERS]):
        for suite in ("paper-examples", "ittw"):
            with clock.timing():
                try:
                    outputs.append(("suite", run_cli(
                        ["suite", "--suite", suite, "--format", "json"])))
                except Exception as exc:
                    outputs.append(("suite", (None, repr(exc))))
            counters["report_bytes"] += len(outputs[-1][1][1].encode())
        checks = [(zn.hoffman_symmetric_check, (args,))
                  for args in ((2, 2), (-2, -2), (2, 2, 2), (2, -2, -4))]
        checks += [(zn.verify_yamamoto, (1, 0)), (zn.verify_yamamoto, (1, 1)),
                   (zn.verify_muneta, (1,))]
        for fn, args in checks:
            outputs.append(("check", _attempt(clock, fn, *args)))
        for spec, tol in inputs:
            cold()  # each stands for its own `starsum verify-mzsv` process
            outputs.append(("check", _attempt(
                clock, zn.verify_mzsv_family, spec, tol)))
    items = sum(_limits_items(output) for output in outputs)
    return PassResult(clock.total, items, calls, outputs, clock.slowdown(),
                      counters)


def _limits_items(output) -> int:
    kind, value = output
    if kind == "check":
        return 1
    code, text = value
    try:
        return json.loads(text)["summary"]["items"] if code == 0 else 1
    except (ValueError, KeyError):
        return 1


def limits_check(inputs: list, result: PassResult, references: None) -> int:
    failed = 0
    for kind, value in result.outputs:
        if kind == "check":
            ok = (not isinstance(value, Exception) and value["within_tol"]
                  and value.get("recognition_ok", True))
            failed += 0 if ok else 1
            continue
        code, text = value
        try:
            report = json.loads(text) if code == 0 else None
        except ValueError:
            report = None
        if report is None:
            failed += 1
        else:
            failed += sum(1 for item in report["items"]
                          if not item["within_tol"])
    return failed


# ---------------------------------------------------------------------------
# kernels: many short exact checks at small n
# ---------------------------------------------------------------------------

def star_expand_check(parts: tuple, n: int) -> bool:
    """H*_n(s) against the sum of strict sums over its star expansion."""
    expanded = sum((coeff * exact_eval.mhs(n, idx)
                    for idx, coeff in index_core.star_expand(parts)),
                   exact_eval.rational(0))
    return exact_eval.mhs_star(n, parts) == expanded


def stuffle_product_check(s: tuple, t: tuple, n: int) -> bool:
    """H_n(s) * H_n(t) against the sum over their stuffle product."""
    combined = sum((coeff * exact_eval.mhs(n, u)
                    for u, coeff in stuffle.stuffle(s, t)), exact_eval.rational(0))
    return exact_eval.mhs(n, s) * exact_eval.mhs(n, t) == combined


def middlestep_check(which: int, n: int) -> bool:
    check = (stuffle.verify_middlestep_1 if which == 1
             else stuffle.verify_middlestep_2)
    return check(n, depth_cap=7)["equal"]


# Resolved at call time, so that traced passes see the wrapped functions.
KERNEL_CHECKS: Dict[str, Callable] = {
    "check_lemma31": lambda *args: fam.check_lemma31(*args),
    "check_tail_weight_sum": lambda *args: fam.check_tail_weight_sum(*args),
    "check_geometric_sum": lambda *args: fam.check_geometric_sum(*args),
    "check_ones_bar_one": lambda *args: fam.check_ones_bar_one(*args),
    "star_expand": star_expand_check,
    "stuffle": stuffle_product_check,
    "middlestep": middlestep_check,
}


def kernels_inputs(rng: random.Random) -> list:
    """[(check name, args), ...]: the c2 grid at n in KERNEL_N, the c3
    closed-form grids, and seeded c3/c4 draws."""
    inner = ((), (1,), (-2,), (2, 1))
    out = []
    for m, a, c, v in itertools.product((1, 2), range(4), (1, 2, 3), inner):
        for n in KERNEL_N:
            out.append(("check_lemma31",
                        ("i", fam.KernelParams(m=m, kind="A", a=a, c=c, v=v), n)))
            out.append(("check_lemma31",
                        ("iii", fam.KernelParams(m=m, kind="B", a=a, c=c, v=v), n)))
    for a, v in itertools.product((1, 2, 3), inner):
        for n in KERNEL_N:
            out.append(("check_lemma31",
                        ("ii", fam.KernelParams(m=2, kind="B", a=a, v=v), n)))
            out.append(("check_lemma31",
                        ("iv", fam.KernelParams(m=2, kind="A", a=a, v=v), n)))
    out += [("check_tail_weight_sum", (l, n))
            for n in range(1, 61) for l in range(n)]
    out += [("check_geometric_sum", (a, k, n))
            for a in range(6) for n in range(2, 41) for k in range(1, n)]
    out += [("check_ones_bar_one", (a, n)) for a in range(5) for n in range(1, 41)]
    pool = (-4, -3, -2, -1, 1, 2, 3, 4)

    def word(longest: int) -> tuple:
        return tuple(rng.choice(pool) for _ in range(rng.randint(1, longest)))

    out += [("star_expand", (word(4), rng.randint(1, 25))) for _ in range(200)]
    out += [("stuffle", (word(3), word(3), rng.randint(1, 30)))
            for _ in range(100)]
    out += [("middlestep", (which, n)) for n in (1, 2, 3) for which in (1, 2)]
    return out


def kernels_pass(inputs: list, clock: Clock) -> PassResult:
    cold()
    calls, outputs = [], []
    counters: Dict[str, float] = {}
    for name, args in inputs:
        check = KERNEL_CHECKS[name]
        with clock.timing() as elapsed:
            try:
                outputs.append(check(*args))
            except Exception as exc:
                outputs.append(exc)
        # the closed forms take microseconds; their latency would be the
        # median, and microsecond timings swing most with machine load
        if name == "check_lemma31":
            calls.append(elapsed[0])
    _add_memo_stats(counters)
    return PassResult(clock.total, len(inputs), calls, outputs,
                      clock.slowdown(), counters)


def kernels_check(inputs: list, result: PassResult, references: None) -> int:
    return sum(1 for output in result.outputs if output is not True)


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[random.Random], list]
    run: Callable[[list, Clock], PassResult]
    check: Callable[[list, PassResult, object], int]
    call: str  # what one timed call is, for the report
    # expected outputs computed once per run, outside every timed region
    references: Callable[[list], object] = lambda inputs: None


WORKLOADS: Dict[str, Workload] = {
    "sweep": Workload("sweep", sweep_inputs, sweep_pass, sweep_check,
                      "one families.verify_sweep call on one family's sub-grid"),
    "deep": Workload("deep", deep_inputs, deep_pass, deep_check,
                     "one in-process `starsum verify --n-max 200` invocation",
                     deep_references),
    "limits": Workload("limits", limits_inputs, limits_pass, limits_check,
                       "one zeta_numeric verifier call"),
    "kernels": Workload("kernels", kernels_inputs, kernels_pass, kernels_check,
                        "one families.check_lemma31 call"),
}


def make_inputs(name: str, seed: int) -> list:
    """The workload's inputs; a function of (name, seed) only."""
    return WORKLOADS[name].inputs(random.Random("%s:%d" % (name, seed)))
