"""Unit tests for the point model and distance metrics."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import (
    DistanceMetric,
    Point,
    available_metrics,
    chebyshev,
    euclidean,
    get_metric,
    manhattan,
    points_from_array,
    register_metric,
)
from repro.core.lsky_soa import near_entries
from repro.core.parser import RGrid


class TestPoint:
    def test_time_defaults_to_seq(self):
        p = Point(seq=7, values=(1.0, 2.0))
        assert p.time == 7.0

    def test_explicit_time_kept(self):
        p = Point(seq=7, values=(1.0,), time=3.5)
        assert p.time == 3.5

    def test_values_coerced_to_tuple(self):
        p = Point(seq=0, values=[1, 2, 3])
        assert p.values == (1.0, 2.0, 3.0)
        assert isinstance(p.values, tuple)

    def test_dim(self):
        assert Point(seq=0, values=(1.0, 2.0, 3.0)).dim == 3

    def test_hashable_and_frozen(self):
        p = Point(seq=1, values=(0.0,))
        assert p in {p}
        with pytest.raises(AttributeError):
            p.seq = 2

    def test_project_keeps_identity(self):
        p = Point(seq=5, values=(1.0, 2.0, 3.0), time=9.0)
        q = p.project([2, 0])
        assert q.values == (3.0, 1.0)
        assert q.seq == 5 and q.time == 9.0

    def test_equality_by_fields(self):
        assert Point(seq=1, values=(2.0,)) == Point(seq=1, values=(2.0,))
        assert Point(seq=1, values=(2.0,)) != Point(seq=2, values=(2.0,))


class TestMetrics:
    def test_euclidean_scalar(self):
        assert euclidean((0, 0), (3, 4)) == pytest.approx(5.0)

    def test_manhattan_scalar(self):
        assert manhattan((0, 0), (3, 4)) == pytest.approx(7.0)

    def test_chebyshev_scalar(self):
        assert chebyshev((0, 0), (3, 4)) == pytest.approx(4.0)

    def test_between_points(self):
        a = Point(seq=0, values=(0.0, 0.0))
        b = Point(seq=1, values=(3.0, 4.0))
        assert euclidean.between_points(a, b) == pytest.approx(5.0)

    @pytest.mark.parametrize("metric", [euclidean, manhattan, chebyshev])
    def test_block_matches_scalar(self, metric, rng):
        q = rng.normal(size=3)
        block = rng.normal(size=(20, 3))
        vec = metric.to_block(q, block)
        for i in range(20):
            assert vec[i] == pytest.approx(metric(q, block[i]))

    def test_block_empty(self):
        out = euclidean.to_block(np.zeros(2), np.empty((0, 2)))
        assert out.shape == (0,)

    def test_get_metric_by_name(self):
        assert get_metric("manhattan") is manhattan

    def test_get_metric_passthrough(self):
        assert get_metric(euclidean) is euclidean

    def test_get_metric_unknown(self):
        with pytest.raises(KeyError, match="unknown distance metric"):
            get_metric("cosine")

    def test_register_custom_metric(self):
        halved = DistanceMetric(
            "halved",
            lambda a, b: euclidean(a, b) / 2,
            lambda q, b: euclidean.to_block(q, b) / 2,
        )
        register_metric(halved)
        assert "halved" in available_metrics()
        assert get_metric("halved")((0, 0), (6, 8)) == pytest.approx(5.0)

    def test_register_rejects_non_metric(self):
        with pytest.raises(TypeError):
            register_metric(lambda a, b: 0)


BUILT_IN = (euclidean, manhattan, chebyshev)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


@st.composite
def _coordinates(draw):
    """Query and block rows at one dimension (1-16) and one magnitude
    (1-1e8)."""
    dim = draw(st.integers(1, 16))
    mag = draw(st.sampled_from([10.0 ** e for e in range(9)]))
    values = st.floats(-mag, mag, allow_nan=False, allow_infinity=False)
    queries = draw(arrays(np.float64, (draw(st.integers(1, 4)), dim),
                          elements=values))
    block = draw(arrays(np.float64, (draw(st.integers(1, 6)), dim),
                        elements=values))
    return queries, block


class TestExactArithmetic:
    """``scalar``, ``to_block`` and ``pairwise`` are one left-to-right
    fold over the coordinates: bit-identical at every dimension, so a
    distance at exactly ``r`` is the same tie on every path."""

    @settings(max_examples=200, deadline=None)
    @given(_coordinates())
    def test_three_forms_agree_bit_for_bit(self, case):
        queries, block = case
        for metric in BUILT_IN:
            tile = metric.pairwise(queries, block)
            assert tile.shape == (len(queries), len(block))
            for i, q in enumerate(queries):
                assert (_bits(metric.to_block(q, block)) == _bits(tile[i])
                        ).all(), metric
                scalar = [metric(tuple(q.tolist()), tuple(b.tolist()))
                          for b in block]
                assert (_bits(scalar) == _bits(tile[i])).all(), metric

    @settings(max_examples=100, deadline=None)
    @given(dim=st.integers(1, 16), axis=st.data(),
           r=st.floats(1.0, 1e8, allow_nan=False))
    def test_ties_at_r_classify_alike(self, dim, axis, r):
        """A neighbour at exactly ``r`` and one ulp either side: every
        form returns the distance exactly, ``RGrid.layers_of`` and
        ``near_entries`` put ``r`` and the ulp below in ``r``'s layer
        (``d <= r`` is a neighbour) and the ulp above out of it."""
        c = axis.draw(st.integers(0, dim - 1))
        ties = np.asarray([r, np.nextafter(r, -np.inf),
                           np.nextafter(r, np.inf)])
        block = np.zeros((3, dim))
        block[:, c] = ties
        origin = np.zeros(dim)
        grid = RGrid([r / 2, r, 2 * r])
        for metric in BUILT_IN:
            tile = metric.pairwise(origin[None], block)
            assert (_bits(tile[0]) == _bits(ties)).all(), metric
            assert (_bits(metric.to_block(origin, block)) == _bits(ties)
                    ).all(), metric
            assert [metric(origin, b) for b in block] == ties.tolist()
            assert grid.layers_of(tile).tolist() == [[1, 1, 2]]
            # reach r: the tie and the ulp below are near, in r's layer
            _, s_i, lay = near_entries(tile, np.asarray([-1]),
                                       np.asarray([r]), grid)
            assert sorted(zip((2 - s_i).tolist(), lay.tolist())) == [
                (0, 1), (1, 1)]
            # reach 2r: all three, hashed as layers_of hashes them
            _, s_i, lay = near_entries(tile, np.asarray([-1]),
                                       np.asarray([2 * r]), grid)
            assert lay.tolist() == grid.layers_of(tile[0, 2 - s_i]).tolist()

    @pytest.mark.parametrize("metric", BUILT_IN, ids=lambda m: m.name)
    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_arity_mismatch_raises(self, metric, dim):
        """A query/block arity mismatch is an error on every path, never
        a distance over the first few coordinates."""
        with pytest.raises(ValueError):
            metric.to_block(np.zeros(dim), np.zeros((3, dim + 1)))
        with pytest.raises(ValueError):
            metric.to_block(np.zeros(dim + 1), np.zeros((3, dim)))
        with pytest.raises(ValueError):
            metric.pairwise(np.zeros((2, dim)), np.zeros((3, dim + 1)))
        with pytest.raises(ValueError):
            metric(tuple([0.0] * dim), tuple([0.0] * (dim + 1)))


class TestPointsFromArray:
    def test_basic(self):
        pts = points_from_array([[1, 2], [3, 4]])
        assert [p.seq for p in pts] == [0, 1]
        assert pts[1].values == (3.0, 4.0)

    def test_start_seq(self):
        pts = points_from_array([[1]], start_seq=10)
        assert pts[0].seq == 10

    def test_with_times(self):
        pts = points_from_array([[1], [2]], times=[0.5, 1.5])
        assert [p.time for p in pts] == [0.5, 1.5]

    def test_times_length_mismatch(self):
        with pytest.raises(ValueError, match="times has"):
            points_from_array([[1], [2]], times=[0.5])

    def test_times_must_be_monotone(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            points_from_array([[1], [2]], times=[2.0, 1.0])

    def test_numpy_input(self):
        pts = points_from_array(np.arange(6).reshape(3, 2))
        assert pts[2].values == (4.0, 5.0)
