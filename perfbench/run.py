"""starsum benchmark: run one workload for a while, check it, print metrics.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0

A run repeats passes of the workload (closed loop, one caller, in this
process) until --seconds have passed, then checks every pass's outputs.
With --trace 0 it prints the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and prints the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 only
when every item passed; without the starsum sources under src/ it is 2 and
nothing is printed on standard output.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import tracing
from clock import Clock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweep", "deep", "limits", "kernels")
SETUP_RUNS = 7
TAIL_BEYOND = 10

# name, unit, better; BENCHMARK.json lists the same metrics.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("call_ms_p50", "ms", "lower"),
    ("call_ms_tail", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_CALLS_AND_SELF = ("exact_eval.pi_companion_sum", "exact_eval.mhs_star",
                   "exact_eval.mhs", "families.check_lemma31", "stuffle.stuffle",
                   "index_core.pi_expand_weighted", "index_core.star_expand",
                   "zeta_numeric.zeta", "zeta_numeric.zeta_star",
                   "zeta_numeric.recognize_rational", "cli.main")
_SELF_ONLY = ("families.verify_sweep", "families.enumerate_specs",
              "families.build_lhs", "families.build_rhs")
# reported self time of a group of spans
_GROUPS = {
    "families.closed_forms": ("families.check_tail_weight_sum",
                              "families.check_geometric_sum",
                              "families.check_ones_bar_one"),
    "stuffle.middlestep": ("stuffle.verify_middlestep_1",
                           "stuffle.verify_middlestep_2"),
    "zeta_numeric.verifiers": tuple("zeta_numeric." + name
                                    for name in tracing.VERIFIERS),
}
_MEMO = ("stored_values", "h_lists", "t_lists", "w_rows")

PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    tuple(m for name in _CALLS_AND_SELF
          for m in ((name + ".calls", "count", "lower"),
                    (name + ".self_s", "s", "lower")))
    + tuple((name + ".self_s", "s", "lower")
            for name in _SELF_ONLY + tuple(_GROUPS))
    + tuple(("exact_eval.memo." + key, "count", "lower") for key in _MEMO)
    + (("exact_eval.memo.lists_per_spec", "ratio", "lower"),
       ("families.cells", "count", "higher"),
       ("families.specs", "count", "higher"),
       ("zeta_numeric.value_cache.hit_ratio", "ratio", "higher"),
       ("cli.report_bytes", "bytes", "lower"),
       ("trace.items_per_s_untraced", "1/s", "higher"),
       ("trace.items_per_s_traced", "1/s", "higher"),
       ("trace.slowdown", "ratio", "lower"))
)


def load_program():
    """Put the checkout's src/ first on sys.path and import the workloads."""
    sys.path.insert(0, str(SRC))
    import starsum.cli  # noqa: F401  (part of what setup_s times)
    import workloads
    return workloads


def environment(seed: int) -> dict:
    """What makes numbers comparable: they are not across rational or mpmath
    backends, Python versions or core counts."""
    import mpmath.libmp
    from starsum import exact_eval
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count()
    return {
        "python": platform.python_version(),
        "rational_backend": exact_eval.RATIONAL_BACKEND,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": cores,
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_seconds(name: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports starsum and starsum.cli
    and generates the workload's inputs."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(seed), "--setup-probe"],
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values
    above it; the maximum (percentile 100) when there are too few values."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def layer_metrics(totals: Dict[str, Tuple[int, float]], counters: Dict[str, float],
                  cache_hits: int) -> Dict[str, float]:
    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(*names):
        return sum(totals.get(name, (0, 0.0))[1] for name in names)

    out: Dict[str, float] = {}
    for name in _CALLS_AND_SELF:
        out[name + ".calls"] = calls(name)
        out[name + ".self_s"] = self_s(name)
    for name in _SELF_ONLY:
        out[name + ".self_s"] = self_s(name)
    for name, members in _GROUPS.items():
        out[name + ".self_s"] = self_s(*members)
    for key in _MEMO:
        out["exact_eval.memo." + key] = counters.get("memo." + key, 0)
    specs = counters.get("specs", 0)
    lists = counters.get("memo.h_lists", 0) + counters.get("memo.t_lists", 0)
    out["exact_eval.memo.lists_per_spec"] = lists / specs if specs else 0.0
    out["families.cells"] = counters.get("cells", 0)
    out["families.specs"] = specs
    evaluations = calls("zeta_numeric.zeta") + calls("zeta_numeric.zeta_star")
    out["zeta_numeric.value_cache.hit_ratio"] = (
        cache_hits / evaluations if evaluations else 0.0)
    out["cli.report_bytes"] = counters.get("report_bytes", 0)
    return out


def measure(workload, inputs, seconds: float, trace: bool, span_path: Path,
            between=lambda: None):
    """Passes until `seconds` have gone by; traced ones alternate with
    untraced ones when `trace` is set.  between() runs after each pass,
    outside the timed regions.  Returns [(traced, result, layer)]."""
    passes = []
    spans: List[list] = []
    started = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer = tracing.Tracer()
            with tracing.tracing(tracer), tracer.span("pass." + workload.name):
                result = workload.run(inputs, Clock(inner=False))
            layer = layer_metrics(tracing.aggregate(tracer.spans),
                                  result.counters, tracer.cache_hits)
            layer = {metric: value / result.slowdown
                     if metric.endswith(".self_s") else value
                     for metric, value in layer.items()}
            spans = tracer.spans
        else:
            result = workload.run(inputs, Clock())
            layer = None
        passes.append((traced, result, layer))
        between()
        if time.perf_counter() - started >= seconds and (
                not trace or len(passes) >= 2):
            break
    if spans:
        tracing.write_spans(span_path, spans)
    return passes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    # Set-up is timed SETUP_RUNS times, once before the first pass and then
    # after passes, so the samples see the machine's speed across the run.
    setups: List[float] = []

    def time_setup():
        if not trace and len(setups) < SETUP_RUNS:
            setups.append(setup_seconds(name, seed))

    time_setup()
    workloads = load_program()
    workload = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(name, seed)
    print("env " + json.dumps(environment(seed), sort_keys=True))

    passes = measure(workload, inputs, seconds, trace,
                     BENCH_DIR / "traces" / ("%s-seed%d.json.gz" % (name, seed)),
                     time_setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while not trace and len(setups) < SETUP_RUNS:
        time_setup()
    references = workload.references(inputs)
    attempted = sum(result.items for _, result, _ in passes)
    failed = sum(workload.check(inputs, result, references)
                 for _, result, _ in passes)

    def rate(results, scaled=True):
        """Items per second, at the reference machine speed if scaled."""
        return (sum(r.items for r in results)
                / sum(r.seconds / (r.slowdown if scaled else 1) for r in results))

    untraced = [result for traced, result, _ in passes if not traced]
    slowdown = statistics.mean(r.slowdown for r in untraced)
    values: Dict[str, float] = {}
    if trace:
        layers = [layer for _, _, layer in passes if layer is not None]
        for metric, _, _ in PER_LAYER:
            if not metric.startswith("trace."):
                values[metric] = statistics.median(l[metric] for l in layers)
        traced_rate = rate([r for traced, r, _ in passes if traced])
        values["trace.items_per_s_untraced"] = rate(untraced)
        values["trace.items_per_s_traced"] = traced_rate
        values["trace.slowdown"] = rate(untraced) / traced_rate
        units = PER_LAYER
    else:
        tails = [tail([call / r.slowdown for call in r.calls]) for r in untraced]
        values = {
            # set-up ran between passes, so the run's mean slowdown fits it
            "setup_s": statistics.median(setups) / slowdown,
            "items_per_s": rate(untraced),
            "call_ms_p50": 1e3 * statistics.median(
                [call / r.slowdown for r in untraced for call in r.calls]),
            "call_ms_tail": 1e3 * statistics.median(v for v, _ in tails),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        print("call: %s; tail is p%.1f of %d calls per pass, median of %d passes"
              % (workload.call, tails[0][1], len(untraced[0].calls), len(untraced)))
    print("%s: seed %d, %d passes, %.1f s of timed work, machine slowdown %.3f, "
          "unscaled items_per_s %.6g"
          % (name, seed, len(passes), sum(r.seconds for _, r, _ in passes),
             slowdown, rate(untraced, False)))
    for metric, unit, _ in units:
        print("  %-44s %14.6g %s" % (metric, values[metric], unit))
    print("  %-44s %14.6g (%d failed of %d items)"
          % ("fail_rate", failed / attempted, failed, attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit, _ in units},
    }))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process (so peak RSS is per workload); the
    last line merges their results with metric names prefixed."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 2
        print("\n".join(lines[:-1]))
        code = max(code, proc.returncode)
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][name + "." + metric] = value
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "starsum" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no starsum sources under %s\n" % SRC)
        return 2
    if args.setup_probe:
        load_program().make_inputs(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
