"""Command line front end: evaluate, expand, verify, sweep, run suites.

Subcommands map onto the library layers: ``eval-mhs`` and ``expand`` expose
the exact evaluators and the comma-or-merge expansion, ``verify`` runs an
exact finite-n sweep for one family instance, ``verify-mzsv`` checks the
n -> infinity limit form numerically, and ``suite`` bundles the canned check
sets.  Reports use one schema everywhere: a ``command`` echo, the effective
``config`` (a tolerance, seed or suite size only where it applied), an
``items`` list and a ``summary``; formats are text (default), json and csv.
Exit code 0 means every item passed, 1 means some item failed, 2 means the
invocation itself was invalid (a --tol that is not finite and positive, or
that the limit evaluator cannot certify, included).

Reports are byte-identical across runs for the same arguments: the lemma31
sample is seeded (--seed, default 0) and per-item timings are zeroed unless
--timings is given.
"""

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass
from functools import partial
from random import Random
from typing import List, Optional, Sequence

from starsum import exact_eval
from starsum import families as fam
from starsum.stuffle import DEPTH_CAP, verify_middlestep_1, verify_middlestep_2
from starsum import zeta_numeric as zn
from starsum.index_core import as_int, parse_index, pi_expand_weighted

FAMILY_NAMES = {row.cli_name: row.family for row in fam.FAMILY_TABLE}


@dataclass(frozen=True)
class RunConfig:
    """Effective settings of one invocation, echoed into every report.

    tol, seed and n are None where they do not apply, and are then not
    echoed."""

    command: str
    tol: Optional[float] = None
    fmt: str = "text"
    seed: Optional[int] = None
    timings: bool = False
    n: Optional[int] = None

    def __post_init__(self):
        if self.tol is not None:
            zn._check_tol(self.tol)

    def as_dict(self) -> dict:
        out = {"format": self.fmt, "timings": self.timings}
        for key in ("n", "seed", "tol"):
            if getattr(self, key) is not None:
                out[key] = getattr(self, key)
        return out


def _int_list(text: Optional[str]) -> tuple:
    if text is None or text == "":
        return ()
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise ValueError("expected a comma-separated integer list, got %r"
                         % (text,))


def _build_spec(args) -> fam.FamilySpec:
    """FamilySpec from CLI flags, zero-filling omitted 2-run lists.

    The family's table row sizes them from --c (or --a for the two families
    without c), so "--family c21 --c 3" means a_1 = b_1 = 0 rather than a
    length error; constraints that have no such default (c >= 3, t >= 1,
    nonempty leading run) surface as usage errors.
    """
    row = fam.family_row(FAMILY_NAMES[args.family])
    a, b, c = map(_int_list, (args.a, args.b, args.c))
    r = row.infer_r(a, c)
    a = a or (0,) * row.slot_len("a", r)
    b = b or (0,) * row.slot_len("b", r)
    return fam.FamilySpec(row.family, a=a, b=b, c=c, t=args.t, r=args.r)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _ok(item: dict) -> bool:
    return bool(item.get("equal", item.get("within_tol", False)))


def _report(config: RunConfig, items: List[dict]) -> dict:
    passed = sum(1 for item in items if _ok(item))
    return {
        "command": config.command,
        "config": config.as_dict(),
        "items": items,
        "summary": {
            "items": len(items),
            "passed": passed,
            "failed": len(items) - passed,
        },
    }


def _emit(report: dict, fmt: str, stream) -> None:
    if fmt == "json":
        stream.write(json.dumps(report, sort_keys=True) + "\n")
        return
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["params", "n", "lhs", "rhs", "ok", "elapsed_ms"])
        for item in report["items"]:
            writer.writerow([
                json.dumps(item["params"], sort_keys=True),
                "" if item.get("n") is None else item["n"],
                item.get("lhs", ""),
                item.get("rhs", ""),
                _ok(item),
                item.get("elapsed_ms", 0),
            ])
        stream.write(buf.getvalue())
        return
    for item in report["items"]:
        status = "PASS" if _ok(item) else "FAIL"
        where = json.dumps(item["params"], sort_keys=True)
        n = item.get("n")
        suffix = "" if n is None else " n=%s" % n
        stream.write("%s %s%s\n" % (status, where, suffix))
    summary = report["summary"]
    stream.write("summary: %d/%d passed\n"
                 % (summary["passed"], summary["items"]))


def _exit_code(report: dict) -> int:
    return 0 if report["summary"]["failed"] == 0 else 1


def _timed_item(timings: bool, build, check, *args) -> dict:
    """The report item build(check(*args)), plus elapsed_ms: the wall time
    in ms from the call to the built item, or 0 unless timings is set."""
    started = time.perf_counter()
    item = build(check(*args))
    item["elapsed_ms"] = (int((time.perf_counter() - started) * 1000)
                          if timings else 0)
    return item


def _compared(params: dict, n: Optional[int], *extra: str):
    """Item builder for a numeric limit check: its two sides and verdict,
    plus the extra keys of its report named."""
    keys = ("lhs", "rhs", "within_tol") + extra
    return lambda result: {"params": params, "n": n,
                           **{key: result[key] for key in keys}}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_eval_mhs(args, stream) -> int:
    index = parse_index(args.index)
    if args.mollified == "big":
        value = exact_eval.mollified_big(args.n, index)
    elif args.mollified == "small":
        value = exact_eval.mollified_small(args.n, index)
    elif args.star:
        value = exact_eval.mhs_star(args.n, index)
    else:
        value = exact_eval.mhs(args.n, index)
    stream.write(exact_eval.rat_str(value) + "\n")
    return 0


def _cmd_expand(args, stream) -> int:
    base = parse_index(args.base)
    stream.write(str(pi_expand_weighted(base, args.coeff, args.sign)) + "\n")
    return 0


def _cmd_verify(args, stream) -> int:
    spec = _build_spec(args)
    as_int("--n-max", args.n_max, 1)
    config = RunConfig("verify", fmt=args.format, timings=args.timings)
    cells = fam._cells(spec, range(1, args.n_max + 1))
    items = [_timed_item(args.timings, partial(fam._cell_item, spec), next,
                         cells)
             for _ in range(args.n_max)]
    report = _report(config, items)
    _emit(report, args.format, stream)
    return _exit_code(report)


def _mzsv_item(spec: fam.FamilySpec, tol: float, timings: bool) -> dict:
    build = _compared(spec.params(), None, "diff", "budget", "lhs_index")
    return _timed_item(timings, build, zn.verify_mzsv_family, spec, tol)


def _cmd_verify_mzsv(args, stream) -> int:
    spec = _build_spec(args)
    config = RunConfig("verify-mzsv", tol=args.tol, fmt=args.format,
                       timings=args.timings)
    items = [_mzsv_item(spec, args.tol, args.timings)]
    report = _report(config, items)
    _emit(report, args.format, stream)
    return _exit_code(report)


# -- suites -----------------------------------------------------------------

def _suite_middlestep(config: RunConfig) -> List[dict]:
    items = []
    for n in range(1, config.n + 1):
        for name, check in (("middlestep-1", verify_middlestep_1),
                            ("middlestep-2", verify_middlestep_2)):
            items.append(_timed_item(config.timings, lambda result: {
                "params": {"check": name, "depth": result["depth"],
                           "lhs_multiplicity": result["lhs_multiplicity"]},
                "n": n,
                "lhs": "%d terms" % result["lhs_terms"],
                "rhs": "%d terms" % result["rhs_terms"],
                "equal": result["equal"],
            }, check, n))
    return items


def _suite_ittw(config: RunConfig) -> List[dict]:
    cases = [("i", {"m": m, "n": n}) for m in range(2) for n in range(2)]
    cases += [("ii", {"n": n}) for n in range(1, config.n + 1)]
    cases += [("iii", {"n": n}) for n in range(1, config.n + 1)]
    return [_timed_item(config.timings,
                        _compared({"part": part, **params}, params.get("n"),
                                  "diff", "budget"),
                        zn.verify_ittw_conj2, part, params, config.tol)
            for part, params in cases]


def _suite_lemma31(config: RunConfig) -> List[dict]:
    rng = Random(config.seed)
    inner = ((), (1,), (-2,), (2, 1))
    items = []
    for variant, (kind, _, _) in fam.LEMMA31.items():
        for _ in range(config.n):
            shift = variant in ("i", "iii")
            if shift:
                kp = fam.KernelParams(m=rng.choice((1, 2)), kind=kind,
                                      a=rng.randint(0, 3),
                                      c=rng.randint(1, 3),
                                      v=rng.choice(inner))
            else:
                kp = fam.KernelParams(m=2, kind=kind, a=rng.randint(1, 3),
                                      v=rng.choice(inner))
            params = {"variant": variant, "m": kp.m, "kind": kp.kind,
                      "a": kp.a, "v": list(kp.v.parts)}
            if shift:  # the difference form has no c
                params["c"] = kp.c
            n = rng.randint(1, 12)
            items.append(_timed_item(config.timings, lambda equal: {
                "params": params,
                "n": n,
                "lhs": None,
                "rhs": None,
                "equal": equal,
            }, fam.check_lemma31, variant, kp, n))
    return items


def _suite_paper_examples(config: RunConfig) -> List[dict]:
    items = [_mzsv_item(spec, config.tol, config.timings)
             for spec in fam.paper_example_specs()]
    checks = [("zlobin", zn.check_zlobin, n) for n in (1, 2, 3)]
    checks += [("three-n", zn.check_three_n, n) for n in (1, 2)]
    items += [_timed_item(config.timings, _compared({"check": name}, n),
                          check, n, config.tol)
              for name, check, n in checks]
    return items


# suite -> (runner, default --n or None where --n does not apply, largest
# --n or None, whether --tol applies, whether --seed applies); a runner reads
# only its RunConfig, so what it uses is what the report echoes
SUITES = {
    "ittw": (_suite_ittw, 1, None, True, False),
    "lemma31": (_suite_lemma31, 3, None, False, True),
    # the largest n both checks take: depth 2n + 1 is at most DEPTH_CAP
    "middlestep": (_suite_middlestep, 2, (DEPTH_CAP - 1) // 2, False, False),
    "paper-examples": (_suite_paper_examples, None, None, True, False),
}


def _cmd_suite(args, stream) -> int:
    runner, default_n, most_n, uses_tol, uses_seed = SUITES[args.suite]
    if args.n is not None and default_n is None:
        raise ValueError("--n does not apply to the %s suite" % args.suite)
    if args.n is not None:
        as_int("--n", args.n, 1, most_n)
    # a --tol that no tolerance reads is still refused when it is invalid
    zn._check_tol(args.tol)
    config = RunConfig("suite", tol=args.tol if uses_tol else None,
                       fmt=args.format,
                       seed=args.seed if uses_seed else None,
                       timings=args.timings,
                       n=default_n if args.n is None else args.n)
    report = _report(config, runner(config))
    report["suite"] = args.suite
    _emit(report, args.format, stream)
    return _exit_code(report)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_family_flags(parser) -> None:
    parser.add_argument("--family", required=True,
                        choices=sorted(FAMILY_NAMES))
    parser.add_argument("--a", help="comma-separated 2-run lengths")
    parser.add_argument("--b", help="comma-separated 2-run lengths")
    parser.add_argument("--c", help="comma-separated block heights")
    parser.add_argument("--t", type=int, default=0,
                        help="trailing run length")
    parser.add_argument("--r", type=int, default=None,
                        help="block count (inferred when omitted)")


def _add_report_flags(parser, with_tol: bool) -> None:
    parser.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")
    parser.add_argument("--timings", action="store_true",
                        help="record per-item wall time (reports are no "
                             "longer byte-identical across runs)")
    if with_tol:
        parser.add_argument("--tol", type=float, default=zn.DEFAULT_TOL)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starsum",
        description="exact and numeric checks for nested harmonic sum "
                    "identities")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval-mhs", help="print one exact rational value")
    p.add_argument("--index", required=True, help='e.g. "2,1" or "-2"')
    p.add_argument("--n", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--star", action="store_true",
                      help="weak-descent variant")
    mode.add_argument("--mollified", choices=("big", "small"),
                      help="binomial-weighted companion sum")
    p.set_defaults(handler=_cmd_eval_mhs)

    p = sub.add_parser("expand", help="print a comma-or-merge expansion")
    p.add_argument("--base", required=True)
    p.add_argument("--coeff", type=int, default=2,
                   help="per-depth coefficient base (default 2)")
    p.add_argument("--sign", type=int, choices=(-1, 1), default=1)
    p.set_defaults(handler=_cmd_expand)

    p = sub.add_parser("verify",
                       help="exact sweep of one family instance over n")
    _add_family_flags(p)
    p.add_argument("--n-max", type=int, required=True)
    _add_report_flags(p, with_tol=False)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("verify-mzsv",
                       help="numeric check of one family's limit form")
    _add_family_flags(p)
    _add_report_flags(p, with_tol=True)
    p.set_defaults(handler=_cmd_verify_mzsv)

    p = sub.add_parser("suite", help="run a canned check set")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--n", type=int, default=None,
                   help="size knob: max n (middlestep, ittw) or cases per "
                        "variant (lemma31); refused by paper-examples")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the lemma31 sample; no other suite draws")
    _add_report_flags(p, with_tol=True)
    p.set_defaults(handler=_cmd_suite)
    return parser


_VALUE_FLAGS = ("--index", "--base", "--a", "--b", "--c")


def _normalize_argv(argv: Sequence[str]) -> List[str]:
    """Join value flags with dash-leading arguments ("--base -2,-2")."""
    out: List[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if (token in _VALUE_FLAGS and i + 1 < len(argv)
                and argv[i + 1].startswith("-")):
            out.append("%s=%s" % (token, argv[i + 1]))
            i += 2
            continue
        out.append(token)
        i += 1
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_normalize_argv(list(argv)))
    try:
        return args.handler(args, sys.stdout)
    except (ValueError, zn.EvaluationError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
