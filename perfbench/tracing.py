"""Spans around calls into starsum's public functions, recorded from outside.

Nothing under ``src/`` is edited: ``patched`` rebinds a function on its
module object and on every other ``starsum`` module that imported the same
object by name (``families`` imports ``mhs_star`` from ``exact_eval``, for
example), and puts the originals back when the block ends, also when it
raises.  Spans stay in memory; ``write_spans`` dumps them once at the end.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

# The zeta_numeric functions that check one identity each.
VERIFIERS = ("verify_mzsv_family", "check_zlobin", "check_three_n",
             "verify_ittw_conj2", "hoffman_symmetric_check",
             "verify_yamamoto", "verify_muneta")

# (module, function) pairs a traced pass wraps.  A span is named
# "<module>.<function>" with the "starsum." prefix dropped.
LAYER_FUNCTIONS: Tuple[Tuple[str, str], ...] = (
    ("starsum.index_core", "pi_expand_weighted"),
    ("starsum.index_core", "star_expand"),
    ("starsum.exact_eval", "mhs"),
    ("starsum.exact_eval", "mhs_star"),
    ("starsum.exact_eval", "pi_companion_sum"),
    ("starsum.families", "enumerate_specs"),
    ("starsum.families", "build_lhs"),
    ("starsum.families", "build_rhs"),
    ("starsum.families", "verify_sweep"),
    ("starsum.families", "check_lemma31"),
    ("starsum.families", "check_tail_weight_sum"),
    ("starsum.families", "check_geometric_sum"),
    ("starsum.families", "check_ones_bar_one"),
    ("starsum.stuffle", "stuffle"),
    ("starsum.stuffle", "verify_middlestep_1"),
    ("starsum.stuffle", "verify_middlestep_2"),
    ("starsum.zeta_numeric", "zeta"),
    ("starsum.zeta_numeric", "zeta_star"),
    ("starsum.zeta_numeric", "recognize_rational"),
) + tuple(("starsum.zeta_numeric", name) for name in VERIFIERS) + (
    ("starsum.cli", "main"),
)

# The note zeta/zeta_star put on a value served from the value cache.
CACHED_NOTE = "tail-chain (cached)"


def span_name(module: str, attr: str) -> str:
    return "%s.%s" % (module.split(".")[-1], attr)


class Tracer:
    """Flat list of spans [name, start, end, parent]; parent -1 is none."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.cache_hits = 0
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """fn with every call recorded as a span (each step of a generator)."""
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    with self.span(name):
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                    yield item
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if getattr(result, "method_note", None) == CACHED_NOTE:
                self.cache_hits += 1
            return result
        return traced


@contextmanager
def patched(replacements: Iterable[Tuple[str, str, Callable[[Callable], Callable]]]):
    """Rebind module attributes to make(original) for the block's duration.

    Each replacement is (module, attr, make).  Every loaded starsum module
    holding the same function object under the same name is rebound too, so
    callers that imported the name see the wrapper.  A name the module does
    not have is skipped, so that a function a later version removes reads
    as zero calls.  All bindings are restored in reverse order whatever the
    block does.
    """
    saved: List[Tuple[object, str, object]] = []
    try:
        for module_name, attr, make in replacements:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = make(original)
            for holder in _starsum_modules():
                if getattr(holder, attr, None) is original:
                    saved.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
        yield
    finally:
        for holder, attr, original in reversed(saved):
            setattr(holder, attr, original)


def _starsum_modules() -> List[object]:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "starsum" or name.startswith("starsum."))]


@contextmanager
def tracing(tracer: Tracer):
    """Wrap every function of LAYER_FUNCTIONS with tracer spans."""
    with patched([(module, attr,
                   functools.partial(tracer.wrap, span_name(module, attr)))
                  for module, attr in LAYER_FUNCTIONS]):
        yield


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Span duration minus the part of its interval its children cover."""
    children: List[List[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted((spans[c][1], spans[c][2])
                                             for c in children[index]):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def aggregate(spans: Sequence[Sequence]) -> Dict[str, Tuple[int, float]]:
    """name -> (span count, summed self time in seconds)."""
    totals: Dict[str, Tuple[int, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        calls, seconds = totals.get(span[0], (0, 0.0))
        totals[span[0]] = (calls + 1, seconds + own)
    return totals


def write_spans(path, spans: Sequence[Sequence]) -> None:
    """gzip'd JSON: span names once, then [name, start_us, end_us, parent]
    rows with times relative to the first span."""
    names: Dict[str, int] = {}
    origin = spans[0][1] if spans else 0.0
    rows = [[names.setdefault(name, len(names)),
             round((start - origin) * 1e6, 1), round((end - origin) * 1e6, 1),
             parent]
            for name, start, end, parent in spans]
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as out:
        json.dump({"names": list(names), "spans": rows}, out)
