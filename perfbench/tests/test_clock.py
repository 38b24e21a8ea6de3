import time

import pytest

import clock as clock_module


def test_probe_time_is_kept_out_of_timed_blocks(monkeypatch):
    def slow_probe():
        time.sleep(0.05)
        return 2 * clock_module.PROBE_REFERENCE_S

    monkeypatch.setattr(clock_module, "probe_seconds", slow_probe)
    monkeypatch.setattr(clock_module, "PROBE_INTERVAL", 0.0)
    clock = clock_module.Clock()
    with clock.timing() as elapsed:
        clock.sampled(lambda: None)()
    assert len(clock.samples) == 2
    assert elapsed[0] < 0.03
    assert clock.total == elapsed[0]
    assert clock.slowdown() == pytest.approx(2.0)


def test_without_inner_sampling_only_the_timing_boundaries_sample(monkeypatch):
    monkeypatch.setattr(clock_module, "PROBE_INTERVAL", 0.0)
    clock = clock_module.Clock(inner=False)

    def work():
        return 7

    assert clock.sampled(work) is work
    with clock.timing():
        work()
    assert len(clock.samples) == 1


def test_probe_is_positive_and_short():
    assert 0.0 < clock_module.probe_seconds() < 0.1
