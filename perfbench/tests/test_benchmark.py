import json
from pathlib import Path

import pytest

import run
import workloads


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_inputs_are_a_function_of_the_seed(name):
    first = workloads.make_inputs(name, 0)
    assert first == workloads.make_inputs(name, 0)
    assert first != workloads.make_inputs(name, 1)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)


def test_layer_metrics_cover_the_per_layer_list():
    values = run.layer_metrics({}, {}, 0)
    names = {name for name, _, _ in run.PER_LAYER if not name.startswith("trace.")}
    assert set(values) == names


def test_tail_keeps_ten_calls_beyond_it():
    assert run.tail(list(range(100))) == (89, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
