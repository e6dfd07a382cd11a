"""Unit tests for dynamic workloads (runtime query add/remove)."""

import pytest

from repro import (
    DynamicSOPDetector,
    OutlierQuery,
    QueryGroup,
    SOPDetector,
    WindowSpec,
    make_synthetic_points,
)
from repro.streams.source import batches_by_boundary

from conftest import line_points


def q(r, k, win, slide, kind="count"):
    return OutlierQuery(r=float(r), k=k,
                        window=WindowSpec(win=win, slide=slide, kind=kind))


class TestWorkloadManagement:
    def test_handles_are_stable(self):
        det = DynamicSOPDetector()
        h0 = det.add_query(q(300, 4, 200, 50))
        h1 = det.add_query(q(700, 6, 200, 50))
        det.remove_query(h0)
        h2 = det.add_query(q(900, 3, 200, 50))
        assert h0 != h1 != h2
        assert set(det.queries) == {h1, h2}

    def test_remove_unknown_handle(self):
        det = DynamicSOPDetector()
        with pytest.raises(KeyError, match="handle"):
            det.remove_query(99)

    def test_add_requires_query(self):
        with pytest.raises(TypeError):
            DynamicSOPDetector().add_query("not a query")

    def test_kind_mismatch_rejected(self):
        det = DynamicSOPDetector([q(1, 1, 10, 5)])
        with pytest.raises(ValueError, match="kind"):
            det.add_query(q(1, 1, 10, 5, kind="time"))

    def test_swift_reflects_membership(self):
        det = DynamicSOPDetector()
        assert det.swift is None
        det.add_query(q(1, 1, 100, 20))
        assert det.swift.slide == 20 and det.swift.win == 100
        det.add_query(q(1, 1, 300, 30))
        assert det.swift.slide == 10 and det.swift.win == 300

    def test_len(self):
        det = DynamicSOPDetector([q(1, 1, 10, 5)])
        assert len(det) == 1


class TestExecution:
    def test_empty_workload_steps_are_noops(self):
        det = DynamicSOPDetector()
        assert det.step(10, line_points([0.0] * 10)) == {}
        assert det.memory_units() == 0

    def test_outputs_keyed_by_handle(self):
        det = DynamicSOPDetector()
        h0 = det.add_query(q(1, 2, 20, 10))
        h1 = det.add_query(q(5, 2, 20, 10))
        pts = line_points([0.0] * 10)
        out = det.step(10, pts)
        assert set(out) == {h0, h1}

    def test_matches_static_detector_from_scratch(self, small_stream):
        queries = [q(400, 5, 200, 50), q(900, 8, 300, 50)]
        static = SOPDetector(QueryGroup(queries)).run(small_stream)
        dyn = DynamicSOPDetector(queries)
        outputs = {}
        for t, batch in batches_by_boundary(small_stream, dyn.swift.slide,
                                            "count"):
            for h, seqs in dyn.step(t, batch).items():
                outputs[(h, t)] = seqs
        from repro import compare_outputs
        assert not compare_outputs(static.outputs, outputs)

    def test_added_query_answers_like_static_afterwards(self):
        """A query added mid-stream sees the retained window and from then
        on produces exactly what a static detector would."""
        pts = make_synthetic_points(800, seed=31)
        base = q(400, 4, 200, 50)
        extra = q(900, 6, 150, 50)
        dyn = DynamicSOPDetector([base])
        h_extra = None
        dyn_outputs = {}
        for t, batch in batches_by_boundary(pts, 50, "count"):
            out = dyn.step(t, batch)
            for h, seqs in out.items():
                dyn_outputs[(h, t)] = seqs
            if t == 400:
                h_extra = dyn.add_query(extra)
        static = SOPDetector(QueryGroup([base, extra])).run(pts)
        for (qi, t), seqs in static.outputs.items():
            if qi == 1 and t > 400:
                assert dyn_outputs[(h_extra, t)] == seqs, f"t={t}"
        # the pre-existing query is unaffected throughout
        for (qi, t), seqs in static.outputs.items():
            if qi == 0:
                assert dyn_outputs[(0, t)] == seqs, f"t={t}"

    def test_removed_query_stops_reporting(self):
        dyn = DynamicSOPDetector()
        h0 = dyn.add_query(q(1, 2, 20, 10))
        pts = line_points([0.0] * 40)
        batches = list(batches_by_boundary(pts, 10, "count"))
        out = dyn.step(*batches[0])
        assert h0 in out
        dyn.remove_query(h0)
        h1 = dyn.add_query(q(2, 2, 20, 10))
        out = dyn.step(*batches[1])
        assert h0 not in out and h1 in out

    def test_rebuild_retains_window(self):
        """After a mutation, old points still count as neighbors."""
        # neighbors arrive early; the probe point arrives after the rebuild
        values = [0.0] * 15 + [0.1] + [50.0] * 24
        pts = line_points(values)
        dyn = DynamicSOPDetector([q(1, 2, 40, 10)])
        batches = list(batches_by_boundary(pts, 10, "count"))
        dyn.step(*batches[0])
        dyn.add_query(q(1, 5, 40, 10))  # forces rebuild at next step
        out2 = dyn.step(*batches[1])
        # seq 15 has >= 2 neighbors among the retained seqs 0..14
        assert 15 not in out2[0]

    @pytest.mark.parametrize("shards", [1, 2])
    def test_rebuild_mid_stream_equals_dynamic_oracle(self, shards):
        """A registration mid-stream rebuilds detector state from the
        retained window -- through ``Runtime.preload`` in the service
        engine and ``DynamicSOPDetector._rebuild`` in the dynamic
        detector, both loading it via ``warm_start``.  The service equals
        the dynamic oracle, and both equal brute force before and after
        the switch."""
        from repro import DetectorConfig, NaiveDetector
        from repro.serve.engine import ServiceEngine

        pts = make_synthetic_points(900, seed=41)
        first, second = q(400, 4, 200, 50), q(900, 6, 150, 50)
        switch = 400
        engine = ServiceEngine(DetectorConfig(shards=shards),
                               queries=[first])
        oracle = DynamicSOPDetector([first])
        served, dynamic = {}, {}
        for t, batch in batches_by_boundary(pts, 50, "count"):
            if t == switch + 50:
                assert engine.register(second) == oracle.add_query(second)
            for p in batch:
                engine.feed(p)
            for bt, outs in engine.pump(t):
                served.update({(h, bt): seqs for h, seqs in outs.items()})
            dynamic.update({(h, t): seqs
                            for h, seqs in oracle.step(t, batch).items()})
        assert engine.pump(float("inf")) == []
        assert served == dynamic
        before = NaiveDetector(QueryGroup([first])).run(pts).outputs
        after = NaiveDetector(QueryGroup([first, second])).run(pts).outputs
        expected = {key: s for key, s in before.items() if key[1] <= switch}
        expected.update({key: s for key, s in after.items()
                         if key[1] > switch})
        assert dynamic == expected

    def test_plan_property(self):
        dyn = DynamicSOPDetector([q(1, 2, 20, 10)])
        assert dyn.plan is None  # stale until first step
        dyn.step(10, line_points([0.0] * 10))
        assert dyn.plan is not None and dyn.plan.k_max == 2
