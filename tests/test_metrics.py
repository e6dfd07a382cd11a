"""Unit tests for meters, run results, and output comparison."""

import time

import pytest

from repro import CpuMeter, MemoryMeter, RunResult, compare_outputs
from repro.metrics.meters import EVIDENCE_ENTRY_BYTES, POINT_STATE_BYTES


class TestCpuMeter:
    def test_accumulates_samples(self):
        meter = CpuMeter()
        for _ in range(3):
            meter.start()
            meter.stop()
        assert len(meter) == 3
        assert meter.total_seconds >= 0

    def test_mean_ms(self):
        meter = CpuMeter()
        meter.add(1_000_000)
        meter.add(3_000_000)
        assert meter.mean_ms_per_window == pytest.approx(2.0)
        assert meter.max_ms == pytest.approx(3.0)

    def test_empty_meter(self):
        meter = CpuMeter()
        assert meter.mean_ms_per_window == 0.0
        assert meter.max_ms == 0.0

    def test_measures_real_time(self):
        meter = CpuMeter()
        meter.start()
        time.sleep(0.01)
        meter.stop()
        assert meter.total_seconds >= 0.009


class TestMemoryMeter:
    def test_tracks_peak(self):
        meter = MemoryMeter()
        meter.sample(10, tracked_points=2)
        meter.sample(50, tracked_points=1)
        meter.sample(20, tracked_points=9)
        assert meter.peak_units == 50
        assert meter.peak_points == 9
        assert meter.last_units == 20

    def test_bytes_cost_model(self):
        meter = MemoryMeter()
        meter.sample(10, tracked_points=3)
        assert meter.peak_bytes == 10 * EVIDENCE_ENTRY_BYTES + \
            3 * POINT_STATE_BYTES
        assert meter.peak_kb == pytest.approx(meter.peak_bytes / 1024)


class TestRunResult:
    def _result(self):
        res = RunResult(detector="test")
        res.outputs = {
            (0, 10): frozenset({1, 2}),
            (0, 20): frozenset(),
            (1, 10): frozenset({3}),
        }
        return res

    def test_total_outliers(self):
        assert self._result().total_outliers() == 3

    def test_outliers_for_query(self):
        per_q = self._result().outliers_for_query(0)
        assert per_q == {10: frozenset({1, 2}), 20: frozenset()}

    def test_summary_mentions_detector(self):
        assert "test" in self._result().summary()

    def test_work_stats_snapshot_is_a_detached_plain_dict(self):
        res = self._result()
        res.work = {"distance_rows": 7, "kernel_calls": 2}
        snap = res.work_stats_snapshot()
        assert type(snap) is dict
        assert snap == {"distance_rows": 7, "kernel_calls": 2}
        # a snapshot, not a view: mutating it leaves the result intact
        snap["distance_rows"] = 0
        snap["new_key"] = 1
        assert res.work == {"distance_rows": 7, "kernel_calls": 2}

    def test_work_stats_snapshot_empty(self):
        assert RunResult(detector="x").work_stats_snapshot() == {}


class TestCompareOutputs:
    def test_identical(self):
        a = {(0, 1): frozenset({1})}
        assert compare_outputs(a, dict(a)) == []

    def test_missing_keys_both_directions(self):
        a = {(0, 1): frozenset()}
        b = {(0, 2): frozenset()}
        diffs = compare_outputs(a, b)
        assert any("only in first" in d for d in diffs)
        assert any("only in second" in d for d in diffs)

    def test_value_differences(self):
        a = {(0, 1): frozenset({1, 2})}
        b = {(0, 1): frozenset({2, 3})}
        diffs = compare_outputs(a, b)
        assert len(diffs) == 1
        assert "first-only=[1]" in diffs[0]
        assert "second-only=[3]" in diffs[0]

    def test_limit_respected(self):
        a = {(0, t): frozenset({t}) for t in range(50)}
        b = {(0, t): frozenset() for t in range(50)}
        assert len(compare_outputs(a, b, limit=5)) == 5
