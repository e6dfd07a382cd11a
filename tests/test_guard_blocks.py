"""Block admission: ``IngestGuard.filter`` equals record-at-a-time ``admit``.

``filter`` checks plain ``(seq, values[, time])`` records a chunk at a
time in array passes and admits each clean run in one go; everything the
check does not clear goes through ``admit``.  The property below pins
that the two are indistinguishable: the same admitted Points (field
types included), the same quarantine log, counters and validation state
-- and the same exception when ``admit`` raises -- over mixed record
shapes, poison of every kind, and failures that are dense, alternating
or sit exactly at chunk edges.
"""

from collections import namedtuple
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import IngestGuard, Point
from repro.streams import source

NAN = float("nan")
INF = float("inf")

Rec = namedtuple("Rec", "seq values time")

#: chunk sizes the property runs ``filter`` with (the last is the real one)
CHUNKS = (1, 2, 3, 5, 8, source._FILTER_CHUNK)


def _outcome(records, expect_dim, block: bool):
    guard = IngestGuard(expect_dim=expect_dim)
    try:
        if block:
            admitted = guard.filter(records)
        else:
            admitted = [p for p in map(guard.admit, records) if p is not None]
        raised = None
    except Exception as exc:  # compared, not swallowed
        admitted, raised = None, type(exc)
    return guard, admitted, raised


def _fields(p):
    return (p.seq, type(p.seq), p.values, tuple(map(type, p.values)),
            p.time, type(p.time))


def assert_block_equals_loop(records, expect_dim=None, chunk=None):
    with mock.patch.object(source, "_FILTER_CHUNK",
                           chunk or source._FILTER_CHUNK):
        g_block, got, raised_block = _outcome(records, expect_dim, True)
    g_loop, want, raised_loop = _outcome(records, expect_dim, False)
    assert raised_block == raised_loop
    if want is not None:
        assert got == want
        assert [_fields(p) for p in got] == [_fields(p) for p in want]
        # a valid Point record is admitted as the same object
        ids = {id(r) for r in records if isinstance(r, Point)}
        assert [id(p) in ids for p in got] == [id(p) in ids for p in want]
    assert ([(id(r), why) for r, why in g_block.quarantined]
            == [(id(r), why) for r, why in g_loop.quarantined])
    assert g_block.counts == g_loop.counts
    assert g_block.total_quarantined == g_loop.total_quarantined
    assert g_block.expect_dim == g_loop.expect_dim
    assert g_block._last_seq == g_loop._last_seq
    assert type(g_block._last_seq) is type(g_loop._last_seq)
    assert g_block._last_time == g_loop._last_time
    assert type(g_block._last_time) is type(g_loop._last_time)


# ----------------------------------------------------------- strategies

coord = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.integers(-10**6, 10**6),
)
odd_coord = st.sampled_from(
    [NAN, INF, -INF, True, "1.5", "x", None, 2**70, 10**400, -0.0, 2**53 + 1])


@st.composite
def poisoned_records(draw):
    """A stream of mostly-plain records with poison placed by a pattern."""
    n = draw(st.integers(0, 48))
    pattern = draw(st.sampled_from(
        ["clean", "sparse", "dense", "alternating", "edges"]))
    chunk = draw(st.sampled_from(CHUNKS))
    arity = draw(st.sampled_from([2, 3]))
    seq = draw(st.integers(-3, 3))
    time = float(draw(st.integers(-2, 2)))
    records = []
    for i in range(n):
        bad = {
            "clean": False,
            "sparse": draw(st.integers(0, 7)) == 0,
            "dense": True,
            "alternating": i % 2 == 1,
            "edges": i % chunk in (0, chunk - 1),
        }[pattern]
        seq += draw(st.sampled_from([1, 1, 1, 2, 7]))
        time += draw(st.sampled_from([0.0, 0.5, 1.0]))
        vals = draw(st.tuples(coord, coord))
        box = draw(st.sampled_from([tuple, list]))
        if not bad:
            plain = [seq, box(vals), time][:arity]
            records.append(plain if draw(st.booleans()) else tuple(plain))
            continue
        kind = draw(st.integers(0, 15))
        if kind == 0:      # seq regression
            records.append((seq - draw(st.integers(1, 9)), vals, time))
        elif kind == 1:    # time regression (arity 3 only bites)
            records.append((seq, vals, time - draw(st.sampled_from(
                [1.0, 1e-9, INF]))))
        elif kind == 2:    # non-finite / odd coordinate
            odd = list(vals)
            odd[draw(st.integers(0, 1))] = draw(odd_coord)
            records.append((seq, box(odd), time)[:arity])
        elif kind == 3:    # non-finite or odd time
            records.append((seq, vals, draw(st.sampled_from(
                [NAN, INF, None, "3.0", "x", 2**70, True]))))
        elif kind == 4:    # wrong dimensionality
            records.append((seq, draw(st.lists(coord, max_size=4)
                                      .filter(lambda v: len(v) != 2))))
        elif kind == 5:    # garbage
            records.append(draw(st.sampled_from(
                ["junk", None, 7, (1,), (1, 2, 3, 4), (seq, vals, time, 0.0),
                 {"seq": 1}, (seq, 5),
                 (seq, "ab"), (seq, None), (seq, (vals,))])))
        elif kind == 6:    # mapping
            records.append({"seq": seq, "values": vals, "time": time})
        elif kind == 7:    # Point, valid or stale
            records.append(Point(seq=seq - draw(st.sampled_from([0, 0, 5])),
                                 values=tuple(map(float, vals)), time=time))
        elif kind == 8:    # namedtuple (read positionally)
            records.append(Rec(seq, list(vals), time))
        elif kind == 9:    # bool / string / float seq
            records.append((draw(st.sampled_from(
                [True, False, str(seq), float(seq), seq + 0.5])), vals))
        elif kind == 10:   # seq past int64: later seqs stay past it too
            seq += 2**70
            records.append((seq, vals, time)[:arity])
        elif kind == 11:   # the other arity
            records.append((seq, vals, time)[:5 - arity])
        elif kind == 12:   # duplicate of the previous seq
            records.append((seq - 1, vals, time)[:arity])
        else:              # other iterables as values
            records.append((seq, draw(st.sampled_from(
                [range(2), "12", b"12", {1.0: 0, 2.0: 0}])), time)[:arity])
    return records, chunk


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=poisoned_records(), expect_dim=st.sampled_from([None, 2, 3]))
@example(data=([(i, (1.0, 2.0)) for i in range(9)], 4), expect_dim=None)
@example(data=([(0, (1.0, 2.0)), (0, (1.0, 2.0))] * 5, 2), expect_dim=None)
@example(data=([(i, (10**400, 1.0)) for i in range(3)], 2), expect_dim=2)
@example(data=([(0, (1.0, 2.0)), (1, (1.0, 2.0), 1.0, 0.0), (2, (1.0, 2.0))],
               1), expect_dim=None)
@example(data=([(i, (1.0, 2.0), t) for i, t in
                enumerate([0.0, None, 2.0, "3.0", True, "x", 2**70, NAN])],
               8),
         expect_dim=2)
def test_filter_equals_admit_loop(data, expect_dim):
    records, chunk = data
    assert_block_equals_loop(records, expect_dim, chunk)


def test_failures_at_every_chunk_edge():
    """A failure on each side of every chunk boundary, real chunk size."""
    size = source._FILTER_CHUNK
    records = [(i, (float(i % 11), float(i % 5))) for i in range(3 * size)]
    for edge in (size - 1, size, 2 * size - 1, 2 * size):
        records[edge] = (records[edge][0], (NAN, 0.0))
    records[size + 1] = (0, (1.0, 1.0))            # regression after one
    assert_block_equals_loop(records)
    assert_block_equals_loop(records, chunk=size // 2 + 1)


def test_clean_stream_is_admitted_whole():
    records = [(i, (float(i), -float(i)), i * 0.5) for i in range(10_000)]
    guard = IngestGuard()
    points = guard.filter(records)
    assert points == [Point(seq=s, values=v, time=t) for s, v, t in records]
    assert guard.total_quarantined == 0
    assert (guard._last_seq, guard._last_time) == (9999, 4999.5)
    # a second call resumes from the first call's last admitted record
    assert guard.filter([(9999, (0.0, 0.0)), (10_000, (0.0, 0.0))]) == [
        Point(seq=10_000, values=(0.0, 0.0))]
    assert guard.counts == {"seq-regression": 1}


def test_clean_runs_skip_per_record_admission():
    """A clean run is admitted by the array check alone; one poison
    record in it is the only one ``admit`` sees."""
    records = [(i, (float(i), 1.0)) for i in range(200)]
    records[120] = (120, (NAN, 1.0))
    guard = IngestGuard(expect_dim=2)
    with mock.patch.object(IngestGuard, "admit", autospec=True,
                           side_effect=IngestGuard.admit) as admit:
        points = guard.filter(records)
    assert [call.args[1] for call in admit.call_args_list] == [records[120]]
    assert len(points) == 199 and guard.counts == {"non-finite": 1}


def test_generators_and_lists_agree():
    records = [(i, [1, 2.5]) for i in range(50)] + ["junk"] + [
        (i, (0.5, 1.0)) for i in range(50, 90)]
    guard = IngestGuard()
    assert guard.filter(iter(records)) == IngestGuard().filter(records)
    assert guard.counts == {"malformed": 1}
