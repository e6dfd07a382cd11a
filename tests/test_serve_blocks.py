"""Block-at-a-time service ingest, without sockets.

The service moves each admitted ``points`` op as one block: a session
queues blocks (``StreamSession.pop_upto`` may split the head one at the
drain quota), the engine takes them with ``ServiceEngine.feed_block``,
and ``pump`` orders the pending records once per call.  The contract is
unchanged: whatever the block boundaries, interleaving and watermark
cadence, the emitted outlier sets equal one offline ``Runtime.run`` over
the merged stream.
"""

from __future__ import annotations

import asyncio
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import OutlierQuery, Point, QueryGroup, Runtime, WindowSpec
from repro.serve import ServiceEngine, StreamSession
from repro.serve.protocol import WireError

INF = float("inf")


# ------------------------------------------------------- engine property


def _stream(rng, n, kind, n_sessions):
    """Merged stream (seq order) plus each session's ordered records.

    Time streams advance by 0, 1 or 2 per record, so records of
    different sessions often share a timestamp.
    """
    merged, owners, time = [], [], 0.0
    for seq in range(n):
        if kind == "time":
            time += rng.choice((0, 0, 1, 2))
        values = (rng.uniform(0, 10), rng.uniform(0, 10))
        merged.append(Point(seq=seq, values=values,
                            time=time if kind == "time" else None))
        owners.append(rng.randrange(n_sessions))
    sessions = [[p for p, o in zip(merged, owners) if o == s]
                for s in range(n_sessions)]
    return merged, sessions


def _blocks(rng, sessions):
    """Each session's records cut into random blocks, interleaved at
    random (per-session order kept): ``[(session, block), ...]``."""
    queues = []
    for s, records in enumerate(sessions):
        blocks, i = [], 0
        while i < len(records):
            n = rng.randint(1, 12)
            blocks.append(records[i:i + n])
            i += n
        queues.append([(s, b) for b in blocks])
    order = []
    while any(queues):
        q = rng.choice([q for q in queues if q])
        order.append(q.pop(0))
    return order


def _serve(engine, rng, order, n_sessions):
    """Feed blocks, pumping at random watermarks at or below the true
    min-over-sessions delivered position; finish with ``pump(inf)``."""
    outputs = {}
    delivered = [-INF] * n_sessions

    def pump(watermark):
        for t, outs in engine.pump(watermark):
            outputs.update({(h, t): seqs for h, seqs in outs.items()})

    for s, block in order:
        engine.feed_block(block)
        delivered[s] = engine.position(block[-1])
        low = min(delivered)
        roll = rng.random()
        if roll < 0.5:
            pump(low)
        elif roll < 0.7 and low > -INF:
            pump(rng.uniform(low - 20, low))
    pump(INF)
    return outputs


QUERIES = {
    "count": [OutlierQuery(r=2.0, k=3, window=WindowSpec(win=30, slide=10)),
              OutlierQuery(r=3.0, k=2, window=WindowSpec(win=20, slide=10))],
    "time": [OutlierQuery(r=2.0, k=3,
                          window=WindowSpec(win=24, slide=8, kind="time")),
             OutlierQuery(r=3.0, k=2,
                          window=WindowSpec(win=16, slide=8, kind="time"))],
}


@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["count", "time"]),
       n_sessions=st.integers(2, 3),
       resume=st.booleans())
@settings(max_examples=40, deadline=None)
def test_blocks_equal_offline_run(seed, kind, n_sessions, resume):
    rng = random.Random(seed)
    queries = QUERIES[kind]
    merged, sessions = _stream(rng, rng.randint(40, 160), kind, n_sessions)
    offline = Runtime(QueryGroup(queries)).run(merged).outputs

    engine = ServiceEngine(queries=queries)
    if not resume:
        served = _serve(engine, rng, _blocks(rng, sessions), n_sessions)
        assert served == offline
        assert engine.records_ingested == len(merged)
        assert engine.records_replay_skipped == 0
        return

    # first life: everything fed, boundaries pumped up to a cut that
    # every session has delivered past, then a checkpoint
    for s, block in _blocks(rng, sessions):
        engine.feed_block(block)
    slide = engine.slide
    reached = min(engine.position(records[-1]) for records in sessions)
    cut = int(reached) // slide * slide
    before = {(h, t): seqs for t, outs in engine.pump(cut)
              for h, seqs in outs.items()}
    if cut <= 0:
        return  # nothing to checkpoint; the no-resume branch covers it
    with tempfile.TemporaryDirectory() as tmp:
        engine.checkpoint_path = Path(tmp) / "ckpt"
        assert engine.checkpoint() == cut
        resumed = ServiceEngine.resume(engine.checkpoint_path)
    # second life: every session replays its whole stream from the start
    after = _serve(resumed, rng, _blocks(rng, sessions), n_sessions)
    replayed = sum(1 for p in merged if resumed.position(p) < cut)
    assert resumed.records_replay_skipped == replayed
    assert resumed.records_ingested == len(merged) - replayed
    assert min(t for _, t in after) == cut + slide
    assert {**before, **after} == offline


def test_feed_is_the_one_record_feed_block():
    """``feed`` and ``feed_block`` apply the same replay rule and keep the
    same counters, including a replay prefix inside a block."""
    queries = QUERIES["count"]
    points = [Point(seq=i, values=(float(i % 5), 0.0)) for i in range(60)]
    one, block = ServiceEngine(queries=queries), ServiceEngine(queries=queries)
    for engine in (one, block):
        engine.pump(-INF)  # builds the runtime
        engine.last_boundary = 20  # as after a resume at 20
    accepted = [one.feed(p) for p in points]
    assert block.feed_block(points[:15]) == 0
    assert block.feed_block(points[15:40]) == 20
    assert block.feed_block(points[40:]) == 20
    assert accepted == [p.seq >= 20 for p in points]
    for engine in (one, block):
        assert engine.records_replay_skipped == 20
        assert engine.records_ingested == 40
        assert engine._pending == points[20:]
    assert one.pump(INF) == block.pump(INF)


def test_kind_is_cached_across_registry_changes():
    engine = ServiceEngine()
    assert engine.kind == "count"
    handle = engine.register(QUERIES["time"][0])
    assert engine.kind == "time"
    engine.deregister(handle)
    assert engine.kind == "count"
    engine.register(QUERIES["count"][0])
    assert engine.kind == "count" and engine.stats()["kind"] == "count"


# --------------------------------------------------------- session queue


def _points(seqs, time=None):
    return [Point(seq=s, values=(1.0, 2.0), time=time) for s in seqs]


def _records(points):
    return [[p.seq, list(p.values), p.time] for p in points]


def test_pop_upto_splits_the_head_block_and_keeps_order():
    async def scenario():
        session = StreamSession(1, "t", queue_bound=64)
        for seqs in (range(0, 5), range(5, 10), range(10, 13)):
            await session.admit_records(_records(_points(seqs)))
        assert session.queued == 13
        first = session.pop_upto(7)
        assert [p.seq for p in first] == list(range(7))
        assert session.queued == 6
        assert session.fed_watermark == 6.0
        rest = session.pop_upto(100)
        assert [p.seq for p in rest] == list(range(7, 13))
        assert session.queued == 0 and session.fed_watermark == 12.0
        assert session.pop_upto(5) == []
        assert session.fed_watermark == 12.0
        assert session.effective_watermark == 12.0
        session.end()
        assert session.effective_watermark == INF

    asyncio.run(scenario())


def test_pop_upto_walks_one_block_across_drain_cycles():
    """A block larger than the quota is handed out over several cycles,
    each starting where the last one stopped, then the next block."""
    async def scenario():
        session = StreamSession(1, "t", queue_bound=64)
        await session.admit_records(_records(_points(range(10))))
        await session.admit_records(_records(_points(range(10, 12))))
        cycles = [[p.seq for p in session.pop_upto(3)] for _ in range(5)]
        assert cycles == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11], []]
        assert session.queued == 0 and session.fed_watermark == 11.0

    asyncio.run(scenario())


def test_fed_watermark_is_the_last_popped_position():
    async def scenario():
        session = StreamSession(1, "t", queue_bound=16, kind="time")
        await session.admit_records(
            [[0, [1.0], 3.0], [1, [1.0], 3.0], [2, [1.0], 7.5]])
        session.pop_upto(2)
        assert session.fed_watermark == 3.0
        session.pop_upto(2)
        assert session.fed_watermark == 7.5

    asyncio.run(scenario())


def test_block_mode_admit_waits_until_the_whole_block_fits():
    async def scenario():
        session = StreamSession(1, "t", queue_bound=5)
        await session.admit_records(_records(_points(range(4))))
        admit = asyncio.ensure_future(
            session.admit_records(_records(_points(range(4, 7)))))
        for _ in range(3):
            await asyncio.sleep(0)
        assert not admit.done() and session.queued == 4
        session.pop_upto(1)  # 3 queued, room for 2: still not enough
        for _ in range(3):
            await asyncio.sleep(0)
        assert not admit.done() and session.queued == 3
        session.pop_upto(1)  # room for 3: the block goes in whole
        assert await asyncio.wait_for(admit, 5) == (3, 0)
        assert session.queued == 5 and session.records_admitted == 7
        assert [p.seq for p in session.pop_upto(10)] == list(range(2, 7))

    asyncio.run(scenario())


def test_reject_mode_is_all_or_nothing():
    async def scenario():
        session = StreamSession(1, "t", queue_bound=8, admission="reject")
        assert await session.admit_records(
            _records(_points(range(6)))) == (6, 0)
        with pytest.raises(WireError) as refused:
            await session.admit_records(_records(_points(range(6, 12))))
        err = refused.value
        assert err.code == "queue-full"
        assert (err.detail["capacity"], err.detail["pending"],
                err.detail["batch"]) == (8, 6, 6)
        assert session.queued == 6 and session.records_rejected == 6
        session.pop_upto(6)
        # the guard never saw the refused batch: the retry is clean
        assert await session.admit_records(
            _records(_points(range(6, 12)))) == (6, 0)
        with pytest.raises(WireError) as too_big:
            await session.admit_records(_records(_points(range(12, 21))))
        assert too_big.value.code == "batch-too-large"

    asyncio.run(scenario())
