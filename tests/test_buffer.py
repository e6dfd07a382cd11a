"""Unit tests for the window buffer substrate."""

import numpy as np
import pytest

from repro import Point, WindowBuffer, euclidean

from conftest import line_points


def make_buffer(values, **kw):
    buf = WindowBuffer(euclidean, **kw)
    buf.extend(line_points(values))
    return buf


class TestAppendExtend:
    def test_len(self):
        assert len(make_buffer([1, 2, 3])) == 3

    def test_points_in_order(self):
        buf = make_buffer([5, 6, 7])
        assert [p.seq for p in buf.points] == [0, 1, 2]

    def test_getitem_and_negative_index(self):
        buf = make_buffer([5, 6, 7])
        assert buf[0].values == (5.0,)
        assert buf[-1].values == (7.0,)

    def test_getitem_out_of_range(self):
        with pytest.raises(IndexError):
            make_buffer([1])[3]

    def test_seq_order_enforced(self):
        buf = make_buffer([1, 2])
        with pytest.raises(ValueError, match="increasing seq order"):
            buf.append(Point(seq=0, values=(3.0,)))

    def test_dim_enforced(self):
        buf = make_buffer([1.0])
        with pytest.raises(ValueError, match="dim"):
            buf.append(Point(seq=5, values=(1.0, 2.0)))

    def test_mixed_dim_batch_names_the_first_misfit(self):
        buf = make_buffer([1.0])
        batch = [Point(seq=5, values=(1.0,)), Point(seq=6, values=(1.0, 2.0)),
                 Point(seq=7, values=(3.0,))]
        with pytest.raises(ValueError, match="seq=6 has dim 2"):
            buf.extend(batch)
        assert len(buf) == 1

    def test_wrong_dim_batch_rejected_whole(self):
        buf = make_buffer([1.0])
        with pytest.raises(ValueError, match="seq=5 has dim 2"):
            buf.extend([Point(seq=5, values=(1.0, 2.0)),
                        Point(seq=6, values=(3.0, 4.0))])
        assert len(buf) == 1 and buf.matrix().shape == (1, 1)

    def test_empty_extend_noop(self):
        buf = make_buffer([1])
        buf.extend([])
        assert len(buf) == 1

    def test_capacity_growth(self):
        buf = WindowBuffer(euclidean)
        buf.extend(line_points(range(5000)))
        assert len(buf) == 5000
        assert buf.matrix().shape == (5000, 1)


class TestEviction:
    def test_evict_by_seq(self):
        buf = make_buffer(range(10))
        evicted = buf.evict_before(4, by_time=False)
        assert [p.seq for p in evicted] == [0, 1, 2, 3]
        assert [p.seq for p in buf.points] == list(range(4, 10))

    def test_evict_by_time(self):
        buf = WindowBuffer(euclidean)
        buf.extend(line_points([1, 2, 3], times=[0.5, 2.5, 9.0]))
        evicted = buf.evict_before(2.0, by_time=True)
        assert [p.seq for p in evicted] == [0]

    def test_evict_nothing(self):
        buf = make_buffer(range(5))
        assert buf.evict_before(0, by_time=False) == []

    def test_matrix_follows_eviction(self):
        buf = make_buffer(range(6))
        buf.evict_before(2, by_time=False)
        np.testing.assert_allclose(buf.matrix()[:, 0], [2, 3, 4, 5])

    def test_compaction_preserves_content(self):
        buf = WindowBuffer(euclidean)
        buf.extend(line_points(range(10_000)))
        buf.evict_before(9_000, by_time=False)
        # compaction threshold passed: storage shrank but content intact
        assert len(buf) == 1000
        assert buf.points[0].seq == 9000
        np.testing.assert_allclose(
            buf.matrix()[:, 0], np.arange(9000, 10000, dtype=float)
        )
        # still appendable after compaction
        buf.extend(line_points([1.0], start_seq=10_000))
        assert buf[-1].seq == 10_000

    def test_clear(self):
        buf = make_buffer(range(5))
        buf.clear()
        assert len(buf) == 0


class TestLookup:
    def test_position_of_seq(self):
        buf = make_buffer(range(10))
        buf.evict_before(3, by_time=False)
        assert buf.position_of_seq(3) == 0
        assert buf.position_of_seq(9) == 6

    def test_position_of_missing_seq(self):
        buf = make_buffer(range(10))
        buf.evict_before(3, by_time=False)
        with pytest.raises(KeyError):
            buf.position_of_seq(2)
        with pytest.raises(KeyError):
            buf.position_of_seq(10)

    def test_first_index_at_or_after_time(self):
        buf = WindowBuffer(euclidean)
        buf.extend(line_points([0, 0, 0], times=[1.0, 2.0, 3.0]))
        assert buf.first_index_at_or_after_time(2.0) == 1
        assert buf.first_index_at_or_after_time(2.5) == 2
        assert buf.first_index_at_or_after_time(99.0) == 3


class TestVectorized:
    def test_distances_from(self):
        buf = make_buffer([0, 3, 4])
        np.testing.assert_allclose(buf.distances_from((0.0,)), [0, 3, 4])

    def test_distances_slice(self):
        buf = make_buffer([0, 3, 4])
        np.testing.assert_allclose(buf.distances_from((0.0,), 1, 3), [3, 4])

    def test_neighbor_count_includes_self_match(self):
        buf = make_buffer([0, 1, 2, 10])
        # query vector equals the first point: self counted, caller subtracts
        assert buf.neighbor_count((0.0,), radius=2.0) == 3

    def test_empty_buffer_matrix(self):
        buf = WindowBuffer(euclidean)
        assert buf.matrix().shape[0] == 0
