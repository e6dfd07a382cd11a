"""The service keeps no output history.

``repro serve`` answers continuous queries: every pumped boundary's
outputs are returned (and pushed) once and then dropped.  A long-lived
engine must therefore hold no ``(query, boundary)`` keys -- neither in
its runtime nor in any shard executor -- while what it emits still
equals an offline ``Runtime.run`` over the same stream.  Socket-free:
the engine is driven with ``feed_block`` / ``pump`` directly.
"""

from __future__ import annotations

import pytest

from repro import (
    DetectorConfig,
    OutlierQuery,
    QueryGroup,
    Runtime,
    WindowSpec,
    make_synthetic_points,
)
from repro.serve import ServiceEngine

pytestmark = pytest.mark.serving

INF = float("inf")
CONFIG = DetectorConfig(shards=2)
QUERIES = [
    OutlierQuery(r=300, k=4, window=WindowSpec(win=200, slide=10)),
    OutlierQuery(r=700, k=9, window=WindowSpec(win=400, slide=20)),
]
BLOCK = 50


def _assert_no_history(engine):
    runtime = engine.runtime
    assert runtime is not None and not runtime.keep_outputs
    assert runtime._outputs == {}
    for shard in runtime.shards:
        assert shard.executor.result.outputs == {}


def _drive(engine, points, outputs):
    """Feed ``points`` block by block, pumping to each block's last
    position; check after every pump that nothing was retained."""
    for i in range(0, len(points), BLOCK):
        block = points[i:i + BLOCK]
        engine.feed_block(block)
        for t, outs in engine.pump(engine.position(block[-1])):
            outputs.update({(h, t): seqs for h, seqs in outs.items()})
        _assert_no_history(engine)


def _finish(engine, outputs):
    for t, outs in engine.pump(INF):
        outputs.update({(h, t): seqs for h, seqs in outs.items()})
    _assert_no_history(engine)


def _points():
    """250 boundaries at the 10-record swift slide."""
    return make_synthetic_points(2500, dim=2, outlier_rate=0.05, seed=11)


def _offline(points):
    return Runtime(QueryGroup(QUERIES), config=CONFIG).run(points).outputs


def test_long_lived_engine_retains_no_outputs():
    points = _points()
    engine = ServiceEngine(config=CONFIG, queries=QUERIES)
    outputs = {}
    _drive(engine, points, outputs)
    _finish(engine, outputs)
    assert engine.boundaries_processed >= 200
    offline = _offline(points)
    assert any(offline.values())
    assert outputs == offline


def test_resumed_engine_retains_no_outputs(tmp_path):
    points = _points()
    path = tmp_path / "service.ckpt"
    head = ServiceEngine(config=CONFIG, queries=QUERIES,
                         checkpoint_path=path)
    outputs = {}
    _drive(head, points[:300], outputs)
    cut = head.checkpoint()
    assert cut is not None
    before = {k: v for k, v in outputs.items() if k[1] <= cut}

    engine = ServiceEngine.resume(path)
    _assert_no_history(engine)
    resumed = {}
    _drive(engine, points, resumed)  # the replayed prefix is skipped
    _finish(engine, resumed)
    assert engine.boundaries_processed >= 200
    assert engine.records_replay_skipped > 0
    assert {**before, **resumed} == _offline(points)
