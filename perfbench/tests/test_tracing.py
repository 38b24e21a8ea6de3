import gzip
import json

import pytest

import tracing
from starsum import exact_eval, families, zeta_numeric


def test_wrapped_functions_are_restored_when_a_pass_raises():
    originals = {
        (module.__name__, attr): getattr(module, attr)
        for module in (exact_eval, families, zeta_numeric)
        for attr in ("mhs", "mhs_star", "pi_companion_sum", "build_rhs",
                     "zeta", "verify_sweep")
        if hasattr(module, attr)
    }
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.tracing(tracer):
            # the name families imported is rebound along with the module's
            assert families.mhs_star is exact_eval.mhs_star
            assert families.mhs_star.__wrapped__ is originals[
                ("starsum.exact_eval", "mhs_star")]
            families.verify_instance(families.FamilySpec(families.TWO_ONE, a=(1,)), 3)
            raise RuntimeError("pass failed")
    for (module_name, attr), original in originals.items():
        module = {m.__name__: m for m in (exact_eval, families, zeta_numeric)}[module_name]
        assert getattr(module, attr) is original, (module_name, attr)
    names = {span[0] for span in tracer.spans}
    assert {"exact_eval.mhs_star", "exact_eval.pi_companion_sum",
            "families.build_lhs", "families.build_rhs"} <= names


def test_spans_nest_under_the_caller():
    tracer = tracing.Tracer()
    with tracing.tracing(tracer), tracer.span("pass"):
        families.verify_sweep(families.TWO_ONE, {"r": (1,), "a": (1,)}, 2)
    by_index = {i: span for i, span in enumerate(tracer.spans)}
    assert tracer.spans[0][0] == "pass" and tracer.spans[0][3] == -1
    assert all(span[3] >= 0 for span in tracer.spans[1:])
    companion = [s for s in tracer.spans if s[0] == "exact_eval.pi_companion_sum"]
    assert len(companion) == 2
    assert all(by_index[s[3]][0] == "families.verify_sweep" for s in companion)
    # generator steps of enumerate_specs are spans of their own
    assert any(s[0] == "families.enumerate_specs" for s in tracer.spans)


def test_self_time_on_a_hand_built_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 5.0, 9.0, 0],
        ["c", 8.5, 9.5, 3],  # overruns its parent: only 8.5..9 counts
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.5, 1.0])
    assert tracing.aggregate(spans) == {
        "root": (1, pytest.approx(3.0)),
        "a": (2, pytest.approx(5.5)),
        "b": (1, pytest.approx(1.0)),
        "c": (1, pytest.approx(1.0)),
    }


def test_overlapping_children_are_not_counted_twice():
    spans = [["p", 0.0, 10.0, -1], ["x", 1.0, 5.0, 0], ["y", 3.0, 7.0, 0]]
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def test_cache_hits_are_counted_from_the_method_note():
    tracer = tracing.Tracer()
    zeta_numeric.clear_value_cache()
    with tracing.tracing(tracer):
        zeta_numeric.zeta((2,), 1e-6)
        zeta_numeric.zeta((2,), 1e-6)
    zeta_numeric.clear_value_cache()
    assert tracer.cache_hits == 1


def test_write_spans_round_trips(tmp_path):
    spans = [["root", 2.0, 3.0, -1], ["leaf", 2.5, 2.75, 0]]
    path = tmp_path / "t" / "spans.json.gz"
    tracing.write_spans(path, spans)
    with gzip.open(path, "rt") as handle:
        data = json.load(handle)
    assert data == {"names": ["root", "leaf"],
                    "spans": [[0, 0.0, 1e6, -1], [1, 5e5, 7.5e5, 0]]}


def test_a_missing_function_is_skipped():
    with tracing.patched([("starsum.exact_eval", "no_such_function",
                           lambda fn: fn)]):
        pass
    assert not hasattr(exact_eval, "no_such_function")
