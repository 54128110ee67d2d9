"""Tests of the benchmark's own helpers: ``python3 -m pytest perfbench``."""

import json
from pathlib import Path

import pytest

import run
from layers import Recorder, measure_call_cost
from stats import Checks, min_samples_for, percentile, samples_beyond, self_time_by_name, self_times


def span(sid, parent, start, end, name="s"):
    return {"span_id": sid, "parent_id": parent, "start_s": start, "end_s": end, "name": name}


class TestPercentile:
    def test_p99_needs_a_thousand_samples(self):
        assert min_samples_for(99) == 1000
        assert samples_beyond(1000, 99) == 10
        assert samples_beyond(999, 99) < 10
        with pytest.raises(ValueError):
            percentile(list(range(999)), 99)

    def test_p50_needs_twenty_samples(self):
        assert min_samples_for(50) == 20
        with pytest.raises(ValueError):
            percentile(list(range(19)), 50)

    def test_nearest_rank_leaves_ten_beyond(self):
        values = list(range(1, 1001))
        p99 = percentile(values, 99)
        assert p99 == 990
        assert sum(v > p99 for v in values) == 10

    def test_order_of_samples_does_not_matter(self):
        values = [float(v) for v in range(2000)]
        assert percentile(values[::-1], 99) == percentile(values, 99) == 1979.0


class TestSelfTimes:
    def test_nested_children_are_subtracted(self):
        spans = [span("a", None, 0.0, 10.0), span("b", "a", 1.0, 3.0), span("c", "b", 1.5, 2.0)]
        own = self_times(spans)
        assert own == {"a": 8.0, "b": 1.5, "c": 0.5}

    def test_child_that_outlives_its_parent_is_clipped(self):
        spans = [span("a", None, 0.0, 4.0), span("b", "a", 3.0, 9.0)]
        own = self_times(spans)
        assert own["a"] == pytest.approx(3.0)
        assert own["b"] == pytest.approx(6.0)

    def test_overlapping_siblings_are_counted_once(self):
        spans = [span("a", None, 0.0, 10.0), span("b", "a", 1.0, 5.0), span("c", "a", 4.0, 6.0)]
        assert self_times(spans)["a"] == pytest.approx(5.0)

    def test_orphans_keep_their_whole_duration(self):
        spans = [span("x", "evicted", 2.0, 5.0)]
        assert self_times(spans) == {"x": 3.0}

    def test_by_name_sums_spans_of_one_name(self):
        spans = [
            span("a", None, 0.0, 2.0, "job"),
            span("b", "a", 0.5, 1.0, "queue.wait"),
            span("c", None, 5.0, 6.0, "job"),
        ]
        assert self_time_by_name(spans) == {"job": 2.5, "queue.wait": 0.5}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestRecorder:
    def test_self_time_of_nested_wrapped_calls(self):
        clock = FakeClock()
        rec = Recorder(clock)

        def inner():
            clock.now += 2.0

        inner = rec.timed("layer.inner", inner)

        def outer():
            clock.now += 1.0
            inner()
            inner()
            clock.now += 1.0

        outer = rec.timed("layer.outer", outer)
        with rec.span("bench.block"):
            outer()
            clock.now += 0.5

        assert rec.calls("layer.inner") == 2
        assert rec.total_s("layer.outer") == 6.0
        assert rec.self_s("layer.outer") == 2.0
        assert rec.self_s("layer.inner") == 4.0
        assert rec.self_s("layer") == 6.0
        assert rec.self_s("bench.block") == 0.5

    def test_a_raising_call_still_closes_its_frame(self):
        clock = FakeClock()
        rec = Recorder(clock)

        def boom():
            clock.now += 1.0
            raise KeyError("x")

        boom = rec.timed("layer.boom", boom)
        with rec.span("outer"):
            with pytest.raises(KeyError):
                boom()
        assert rec.self_s("outer") == 0.0
        assert rec.total_s("layer.boom") == 1.0

    def test_wrapper_cost_is_subtracted_from_callee_caller_and_totals(self):
        inner, outer = 0.25, 0.5
        clock = FakeClock()
        rec = Recorder(clock, call_cost=(inner, outer))

        # the fake clock charges each wrapped call its cost: ``inner`` inside
        # the call's own window, ``outer`` in its caller's
        def leaf():
            clock.now += 2.0 + inner

        leaf = rec.timed("layer.leaf", leaf)

        def mid():
            clock.now += 1.0 + inner
            leaf()
            clock.now += outer

        mid = rec.timed("layer.mid", mid)
        with rec.span("bench.block"):
            mid()
            clock.now += outer

        assert rec.self_s("layer.leaf") == 2.0
        assert rec.self_s("layer.mid") == 1.0
        assert rec.total_s("layer.mid") == 3.0
        assert rec.total_s("bench.block") == 3.0
        assert rec.self_s("bench.block") == 0.0

    def test_measured_call_cost_is_positive_and_small(self):
        inner, outer = measure_call_cost(calls=2000, repeats=3)
        assert 0.0 < inner < 1e-4
        assert 0.0 < outer < 1e-4

    def test_patch_wraps_a_class_attribute(self):
        class Thing:
            def value(self):
                return 7

        rec = Recorder()
        rec.patch(Thing, "value", "thing.value")
        assert Thing().value() == 7
        assert rec.calls("thing.value") == 1


def test_checks_count_failed_operations():
    checks = Checks()
    assert checks.op(True, "fine")
    assert not checks.op(False, "broken")
    assert (checks.attempted, checks.failed, checks.errors) == (2, 1, ["broken"])


def test_benchmark_json_declares_what_run_prints():
    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(run.LAYER_METRICS)
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_refuses_to_run_without_program_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "density-sweep", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
