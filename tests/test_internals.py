"""Edge-case tests for internal APIs added by the optimized paths."""

import pytest

from repro import (
    KSkyRunner,
    LSky,
    MCODDetector,
    OutlierQuery,
    QueryGroup,
    SOPDetector,
    WindowBuffer,
    WindowSpec,
    euclidean,
    parse_workload,
)

from conftest import line_points


def q(r, k, win=40, slide=10):
    return OutlierQuery(r=float(r), k=k,
                        window=WindowSpec(win=win, slide=slide))


class TestExtendOlder:
    def test_appends_in_bulk(self):
        sky = LSky(4)
        sky.insert(9, 9.0, 1)
        sky.extend_older([(5, 5.0, 0), (3, 3.0, 2)])
        assert list(sky.entries()) == [(9, 9.0, 1), (5, 5.0, 0),
                                       (3, 3.0, 2)]
        assert sky.dominator_count(1) == 2

    def test_rejects_younger_entries(self):
        sky = LSky(4)
        sky.insert(5, 5.0, 1)
        with pytest.raises(ValueError, match="older"):
            sky.extend_older([(9, 9.0, 0)])

    def test_rejects_unsorted_batch(self):
        sky = LSky(4)
        sky.insert(9, 9.0, 1)
        with pytest.raises(ValueError, match="descending"):
            sky.extend_older([(3, 3.0, 0), (5, 5.0, 0)])

    def test_rejects_bad_layer(self):
        sky = LSky(2)
        with pytest.raises(ValueError, match="layer"):
            sky.extend_older([(3, 3.0, 5)])

    def test_empty_batch_noop(self):
        sky = LSky(2)
        sky.extend_older([])
        assert len(sky) == 0

    def test_k_distance_after_bulk(self):
        sky = LSky(4)
        sky.insert(9, 9.0, 3)
        sky.extend_older([(5, 5.0, 0), (3, 3.0, 1)])
        assert sky.k_distance_layer(2) == 1


class TestScanNewArrivals:
    def test_scans_only_suffix(self):
        plan = parse_workload(QueryGroup([q(1.0, 2)]))
        buf = WindowBuffer(euclidean)
        buf.extend(line_points([0.0] * 30))
        runner = KSkyRunner(plan)
        res = runner.scan_new_arrivals((0.0,), -1, buf, new_from_index=25)
        assert res.examined <= 5
        assert all(seq >= 25 for seq in res.lsky.seqs)

    def test_empty_suffix(self):
        plan = parse_workload(QueryGroup([q(1.0, 2)]))
        buf = WindowBuffer(euclidean)
        buf.extend(line_points([0.0] * 10))
        res = KSkyRunner(plan).scan_new_arrivals((0.0,), -1, buf, 10)
        assert res.examined == 0 and len(res.lsky) == 0


class TestBufferViewCache:
    def test_view_refreshes_after_extend(self):
        buf = WindowBuffer(euclidean)
        buf.extend(line_points([1.0]))
        first = buf.points
        assert len(first) == 1
        buf.extend(line_points([2.0], start_seq=1))
        assert len(buf.points) == 2

    def test_view_refreshes_after_evict(self):
        buf = WindowBuffer(euclidean)
        buf.extend(line_points(range(10)))
        _ = buf.points
        buf.evict_before(5, by_time=False)
        assert [p.seq for p in buf.points] == list(range(5, 10))

    def test_view_identity_stable_without_mutation(self):
        buf = WindowBuffer(euclidean)
        buf.extend(line_points(range(10)))
        buf.evict_before(3, by_time=False)
        assert buf.points is buf.points  # cached, no re-slice


class TestMCODClusteringSwitch:
    def test_single_pattern_enables_clusters(self):
        g = QueryGroup([q(2.0, 3, win=40, slide=10),
                        q(2.0, 3, win=80, slide=20)])
        assert MCODDetector(g).clustering_enabled

    def test_multi_pattern_disables_clusters(self):
        g = QueryGroup([q(2.0, 3), q(4.0, 3)])
        det = MCODDetector(g)
        assert not det.clustering_enabled
        det.run(line_points([0.0] * 80))
        assert det.stats["clusters_formed"] == 0

    def test_range_query_mode_still_exact(self, small_stream):
        from conftest import assert_equivalent
        g = QueryGroup([q(300, 4, win=200, slide=50),
                        q(900, 7, win=200, slide=50)])
        assert_equivalent(g, small_stream, MCODDetector(g))


class TestDetectorRunUntil:
    def test_until_bounds_boundaries(self, small_stream, small_group):
        res = SOPDetector(small_group).run(small_stream, until=300)
        assert max(t for _, t in res.outputs) <= 300

    def test_until_beyond_stream_adds_empty_batches(self):
        g = QueryGroup([q(1.0, 1, win=20, slide=10)])
        res = SOPDetector(g).run(line_points([0.0] * 20), until=60)
        # boundaries 10..60 all processed; windows past the data drain
        assert res.boundaries == 6
        assert res.outputs[(0, 40)] == frozenset()
