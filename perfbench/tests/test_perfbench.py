"""Self-tests of the benchmark: its checks, its generator and its spans.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

import checks
import harness
import metrics
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def tiny(name, **changes):
    shape = dataclasses.replace(
        workloads.SHAPES[name], monitored=40, gauges=20, counters=10,
        plants=2, transients=3, seasonal=3,
    )
    return dataclasses.replace(shape, **changes)


def run_tiny(shape, seed=3, damage=None):
    """Prepare, replay the minimum chunks, and check everything."""
    prepared = harness.prepare(shape, seed)
    if damage is not None:
        damage(prepared.inputs)
    done = harness.replay(prepared, chunks=shape.min_chunks)
    problems = harness.verify(prepared, done)
    reports = sorted((r.metric_id, r.change_time) for r in prepared.sink.reports)
    return prepared, done, problems, reports


@pytest.fixture(scope="module", params=sorted(workloads.SHAPES))
def tiny_run(request, tmp_path_factory):
    shape = tiny(request.param)
    prepared, done, problems, reports = run_tiny(shape)
    trip = harness.checkpoint_round_trip(
        prepared, done, str(tmp_path_factory.mktemp("ckpt")), 2)
    yield shape, prepared, problems + trip.problems, reports
    harness.release(prepared)


class TestTinyRuns:
    def test_every_workload_passes_the_check(self, tiny_run):
        shape, prepared, problems, reports = tiny_run
        assert problems == []
        assert len(reports) == shape.plants
        assert harness.failures(prepared)["failed"] == 0

    def test_inputs_depend_only_on_the_seed(self):
        shape = tiny("rescan_steady")
        first, again = workloads.build(shape, 5), workloads.build(shape, 5)
        other = workloads.build(shape, 6)
        values = [s.value for s in first.chunks[0].inputs]
        assert values == [s.value for s in again.chunks[0].inputs]
        assert values != [s.value for s in other.chunks[0].inputs]


class TestChecksCatchDefects:
    PLANTED = {"a": 600.0, "b": 1200.0}

    def test_exact_reports_pass(self):
        assert checks.check_reports([("b", 1200.0), ("a", 600.0)], self.PLANTED) == []

    def test_dropped_report_fails(self):
        assert checks.check_reports([("a", 600.0)], self.PLANTED)

    def test_moved_change_time_fails(self):
        moved = [("a", 600.0), ("b", 1200.0 + workloads.TICK)]
        assert checks.check_reports(moved, self.PLANTED)

    def test_duplicate_or_extra_report_fails(self):
        assert checks.check_reports([("a", 600.0), ("a", 600.0), ("b", 1200.0)], self.PLANTED)
        assert checks.check_reports([("a", 600.0), ("b", 1200.0), ("c", 60.0)], self.PLANTED)

    def test_dropped_report_in_a_run_fails(self):
        shape = tiny("rescan_steady")
        prepared, done, problems, _ = run_tiny(shape)
        assert problems == []
        prepared.sink.reports.pop()
        assert any("never reported" in p for p in harness.verify(prepared, done))
        harness.release(prepared)

    @pytest.mark.parametrize("name", ["rescan_steady", "remote_write_fanout"])
    def test_dropped_sample_fails(self, name):
        def drop_one(inputs):
            chunk = inputs.chunks[1]
            if inputs.shape.remote_write:
                chunk.inputs[0]["timeseries"][-1]["samples"].pop()
            else:
                chunk.inputs.pop(7)

        prepared, _, problems, _ = run_tiny(tiny(name), damage=drop_one)
        assert any(p.startswith("offered") for p in problems)
        assert any(p.startswith("TSDB holds") for p in problems)
        harness.release(prepared)

    def test_restore_mismatch_and_realert_fail(self):
        assert checks.check_restore({"scans": 3}, {"scans": 3}, 0) == []
        assert checks.check_restore({"scans": 3}, {"scans": 4}, 0)
        assert checks.check_restore({"scans": 3}, {"scans": 3}, 1)


class TestSpans:
    def test_self_time_of_nested_spans(self):
        # A[0,10] holds B[1,4] and C[5,9]; C holds D[6,7].
        parent = np.array([-1, 0, 0, 2])
        start = np.array([0.0, 1.0, 5.0, 6.0])
        end = np.array([10.0, 4.0, 9.0, 7.0])
        assert spans.self_times(parent, start, end).tolist() == [3.0, 3.0, 3.0, 1.0]
        totals = spans.layer_totals(["x", "y"], np.array([0, 1, 1, 0]), parent, start, end)
        assert totals == {"x": (2, 4.0), "y": (2, 6.0)}
        assert spans.covered_seconds(parent, start, end) == 10.0

    def test_recorder_nests_and_uninstalls(self):
        class Outer:
            def run(self, inner):
                return inner.work() + inner.work()

            @classmethod
            def make(cls):
                return cls()

        class Inner:
            def work(self):
                return 1

        originals = (vars(Outer)["run"], vars(Inner)["work"])
        recorder = spans.SpanRecorder()
        recorder.patch(Outer, "run", "outer")
        recorder.patch(Outer, "make", "outer")
        recorder.patch(Inner, "work", "inner",
                       lambda counts, result, args: counts.update(work=result))
        try:
            assert Outer.make().run(Inner()) == 2
        finally:
            recorder.uninstall()
        assert (vars(Outer)["run"], vars(Inner)["work"]) == originals
        arrays = recorder.arrays()
        assert [recorder.layers[i] for i in arrays["layer"]] == [
            "outer", "outer", "inner", "inner"]
        assert arrays["parent"].tolist() == [-1, -1, 1, 1]
        assert recorder.counts["work"] == 2
        own = spans.self_times(arrays["parent"], arrays["start"], arrays["end"])
        assert (own >= 0).all()

    def test_every_layer_is_wrapped(self):
        recorder = spans.SpanRecorder()
        harness.install_layers(recorder)
        recorder.uninstall()
        assert sorted(recorder.layers) == sorted(metrics.LAYERS)

    def test_missing_target_fails_loudly(self):
        with pytest.raises(KeyError):
            spans.SpanRecorder().patch(harness, "no_such_function", "x")


class TestMetadata:
    def test_benchmark_json_lists_every_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
            == metrics.END_TO_END
        assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
            == metrics.per_layer()
        assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
        assert sorted(metrics.WORKLOADS) == sorted(workloads.SHAPES)
        setup_bound = dict((m[0], m[3]) for m in metrics.END_TO_END)["setup_s"]
        assert setup_bound == max(m[3] for m in metrics.END_TO_END)

    def test_every_layer_says_what_it_should_move(self):
        assert set(metrics.MOVES) == set(metrics.LAYERS)
