"""Unit tests for stream sources and boundary batching."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import COUNT, TIME, ListSource, Point, batches_by_boundary
from repro.streams.source import positions, stream_end_boundary

from conftest import line_points


class TestPositions:
    def test_count_positions_are_seqs(self):
        pts = line_points([5, 6], times=[0.1, 0.2])
        assert positions(pts, COUNT) == [0.0, 1.0]

    def test_time_positions_are_times(self):
        pts = line_points([5, 6], times=[0.1, 0.2])
        assert positions(pts, TIME) == [0.1, 0.2]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            positions([], "epoch")


class TestListSource:
    def test_iteration_and_len(self):
        src = ListSource(line_points([1, 2, 3]))
        assert len(src) == 3
        assert [p.seq for p in src] == [0, 1, 2]

    def test_take(self):
        src = ListSource(line_points(range(10)))
        assert [p.seq for p in src.take(4)] == [0, 1, 2, 3]

    def test_take_beyond_end(self):
        src = ListSource(line_points([1]))
        assert len(src.take(5)) == 1


class TestBatchesByBoundary:
    def test_count_based_batching(self):
        pts = line_points(range(10))
        batches = list(batches_by_boundary(pts, slide=4, kind=COUNT))
        assert [t for t, _ in batches] == [4, 8, 12]
        assert [[p.seq for p in b] for _, b in batches] == [
            [0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_every_point_delivered_exactly_once(self):
        pts = line_points(range(23))
        seen = [p.seq for _, b in batches_by_boundary(pts, 5, COUNT)
                for p in b]
        assert seen == list(range(23))

    def test_until_truncates(self):
        pts = line_points(range(10))
        batches = list(batches_by_boundary(pts, 4, COUNT, until=8))
        assert [t for t, _ in batches] == [4, 8]

    def test_until_extends_with_empty_batches(self):
        pts = line_points(range(4))
        batches = list(batches_by_boundary(pts, 4, COUNT, until=12))
        assert [t for t, _ in batches] == [4, 8, 12]
        assert [len(b) for _, b in batches] == [4, 0, 0]

    def test_time_based_batching(self):
        pts = line_points([0, 0, 0, 0], times=[0.5, 3.0, 3.5, 9.0])
        batches = list(batches_by_boundary(pts, 4, TIME))
        assert [t for t, _ in batches] == [4, 8, 12]
        assert [[p.seq for p in b] for _, b in batches] == [
            [0, 1, 2], [], [3]]

    def test_empty_stream(self):
        assert list(batches_by_boundary([], 5, COUNT)) == []

    def test_bad_slide(self):
        with pytest.raises(ValueError):
            list(batches_by_boundary(line_points([1]), 0, COUNT))

    def test_unsorted_times_rejected(self):
        pts = [line_points([1], times=[5.0])[0],
               line_points([2], start_seq=1, times=[1.0])[0]]
        with pytest.raises(ValueError, match="non-decreasing"):
            list(batches_by_boundary(pts, 4, TIME))

    def test_boundary_point_goes_to_next_batch(self):
        # a point exactly at position t belongs to the window ending at
        # t + slide, not the one ending at t (half-open intervals)
        pts = line_points([0, 0], times=[4.0, 5.0])
        batches = dict(batches_by_boundary(pts, 4, TIME))
        assert [p.seq for p in batches[4]] == []
        assert [p.seq for p in batches[8]] == [0, 1]


# ------------------------------------------- batching against the loop


def loop_batches(points, slide, kind, until=None, start=0):
    """The per-point append loop ``batches_by_boundary`` replaced, kept
    verbatim as the oracle."""
    if slide <= 0:
        raise ValueError("slide must be positive")
    if start < 0 or start % slide != 0:
        raise ValueError(
            f"start must be a non-negative multiple of slide, got "
            f"start={start} slide={slide}")
    pos = positions(points, kind)
    for earlier, later in zip(pos, pos[1:]):
        if later < earlier:
            raise ValueError("stream positions must be non-decreasing")
    if until is None:
        if not points:
            return
        until = stream_end_boundary(points, slide, kind)
    i = 0
    n = len(points)
    while i < n and pos[i] < start:
        i += 1
    t = start + slide
    while t <= until:
        batch = []
        while i < n and pos[i] < t:
            batch.append(points[i])
            i += 1
        yield t, batch
        t += slide


def _outcome(gen, limit=200):
    try:
        return list(itertools.islice(gen, limit)), None
    except Exception as exc:
        return None, (type(exc), str(exc))


@st.composite
def batching_cases(draw):
    kind = draw(st.sampled_from([COUNT, TIME]))
    slide = draw(st.integers(1, 6))
    n = draw(st.integers(0, 30))
    # steps of 0 repeat a position; on a slide multiple they sit exactly
    # on a boundary; a rare negative step is an unsorted stream
    steps = draw(st.lists(st.sampled_from([0, 0.5, 1, 1, 2, slide, 3.25, -1]),
                          min_size=n, max_size=n))
    pos = float(draw(st.integers(-3, 6)))
    points = []
    for i, step in enumerate(steps):
        pos += step
        if kind == COUNT:
            points.append(Point(seq=int(pos), values=(0.0,)))
        else:
            points.append(Point(seq=i, values=(0.0,), time=pos))
    start = slide * draw(st.integers(0, 4))
    if draw(st.booleans()):
        start += draw(st.sampled_from([1, -slide]))  # rejected
    until = draw(st.one_of(st.none(), st.integers(-2, 60)))
    return points, slide, kind, until, start, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(case=batching_cases())
def test_batches_equal_the_append_loop(case):
    points, slide, kind, until, start, as_tuple = case
    if as_tuple:
        points = tuple(points)
    want, err = _outcome(loop_batches(points, slide, kind, until, start))
    got, got_err = _outcome(
        batches_by_boundary(points, slide, kind, until, start))
    assert got_err == err
    assert got == want
    if got:
        assert all(type(batch) is list for _, batch in got)


def test_batches_equal_the_loop_with_stuck_positions():
    """NaN and +inf positions never pass a boundary (the loop stops
    delivering at the first NaN) and -inf ones sit before every start."""
    nan, inf = float("nan"), float("inf")
    for times in ([1.0, nan, 2.0, 9.0], [0.5, 3.0, inf, inf],
                  [-inf, 1.0, 7.0], [nan], [inf, nan, 1.0], [-inf],
                  [-inf, -inf, inf], [inf]):
        pts = [Point(seq=i, values=(0.0,), time=t)
               for i, t in enumerate(times)]
        for until in (4, 12):
            assert (list(batches_by_boundary(pts, 2, TIME, until))
                    == list(loop_batches(pts, 2, TIME, until)))
