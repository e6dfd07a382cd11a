"""Crash + checkpoint-resume recovery: byte-identical to uninterrupted.

The recovery contract (DESIGN.md §11): kill the runtime mid-stream, come
back from the last atomic sharded checkpoint, replay the remainder --
the union of pre-crash outputs and resumed outputs equals the fault-free
run *exactly*, for every shard index and both window kinds.  The
fault-free run it is held to scans by the paper-literal reference
(``repro.testing.use_reference_scans``).

The crash is deterministic: a :class:`~repro.testing.FaultInjector`
attached as a runtime subscriber raises :class:`InjectedCrash` at a
plan-pinned boundary, after the periodic checkpoint subscriber for that
boundary has (or has not) fired -- exactly the ordering a real worker
loss would see.
"""

from functools import partial

import pytest

from repro import (
    DetectorConfig,
    Fault,
    FaultInjector,
    FaultPlan,
    InjectedCrash,
    OutlierQuery,
    QueryGroup,
    Runtime,
    SOPDetector,
    ShardedCheckpointSubscriber,
    WindowSpec,
    compare_outputs,
    load_sharded_checkpoint,
    make_synthetic_points,
)
from repro.testing import use_reference_scans

pytestmark = pytest.mark.chaos

N_SHARDS = 4
INTERVAL = 3           # checkpoint every 3 boundaries: t = 120, 240, 360...
CONFIG = DetectorConfig(shards=N_SHARDS)


def group(kind="count"):
    return QueryGroup([
        OutlierQuery(r=300, k=4, window=WindowSpec(win=200, slide=40,
                                                   kind=kind)),
        OutlierQuery(r=700, k=6, window=WindowSpec(win=160, slide=40,
                                                   kind=kind)),
    ])


def _reference_detector(group, config):
    return use_reference_scans(SOPDetector(group, config=config))


def reference_run(kind, stream):
    """The fault-free answer, every shard scanning by reference."""
    return Runtime(group(kind), config=CONFIG,
                   factory=partial(_reference_detector, config=CONFIG)
                   ).run(stream)


@pytest.fixture(scope="module")
def stream():
    return make_synthetic_points(600, seed=5)


@pytest.fixture(scope="module")
def reference(stream):
    """The fault-free reference answer (computed once)."""
    return reference_run("count", stream)


class Collector:
    """Runtime subscriber archiving every boundary's merged outputs --
    the stand-in for whatever sink consumed the pre-crash answers."""

    def __init__(self):
        self.outputs = {}

    def on_attach(self, runtime):
        pass

    def on_boundary_end(self, t, outputs):
        for qi, seqs in outputs.items():
            self.outputs[(qi, t)] = seqs

    def on_stream_end(self, result):
        pass


def crash_and_resume(stream, kind, shard, crash_t, ck_path,
                     chaos_report=None):
    """Kill a checkpointing run at ``crash_t``; resume; return the union
    of pre-crash and post-resume outputs plus the resume boundary."""
    runtime = Runtime(group(kind), config=CONFIG)
    collector = runtime.subscribe(Collector())
    ck = runtime.subscribe(ShardedCheckpointSubscriber(ck_path,
                                                       interval=INTERVAL))
    plan = FaultPlan((Fault("crash", shard=shard, boundary=crash_t),))
    runtime.subscribe(FaultInjector(plan, shard))
    with pytest.raises(InjectedCrash):
        runtime.run(stream)
    assert ck.checkpoints_written >= 1

    import json
    with open(ck_path) as fh:
        t_ck = int(json.loads(fh.readline())["last_boundary"])
    assert t_ck <= crash_t

    resumed, tail = Runtime.resume_from_checkpoint(ck_path, stream)
    assert all(t > t_ck for (_, t) in tail.outputs)
    combined = {k: v for k, v in collector.outputs.items() if k[1] <= t_ck}
    combined.update(tail.outputs)
    if chaos_report is not None:
        chaos_report(test="crash_resume", kind=kind,
                     plan=plan.as_dict(), checkpoint_boundary=t_ck,
                     resumed_boundaries=sorted({t for _, t in tail.outputs}))
    return combined, tail


@pytest.mark.parametrize("shard", range(N_SHARDS))
def test_crash_resume_bitexact(tmp_path, stream, reference, shard,
                               chaos_report):
    """For every shard: crash at a shard-specific boundary, resume from
    the last checkpoint, and match the fault-free run."""
    crash_t = 200 + 40 * shard  # t=200..320: between/on checkpoint writes
    combined, tail = crash_and_resume(
        stream, "count", shard, crash_t, tmp_path / "ck.jsonl",
        chaos_report)
    diffs = compare_outputs(reference.outputs, combined)
    assert not diffs, "\n".join(diffs)
    assert not tail.partial


def test_crash_resume_time_windows(tmp_path, stream, chaos_report):
    """The same contract holds for TIME windows (positions from
    timestamps, not sequence numbers)."""
    ref = reference_run("time", stream)
    combined, _ = crash_and_resume(stream, "time", 2, 280,
                                   tmp_path / "ck.jsonl", chaos_report)
    diffs = compare_outputs(ref.outputs, combined)
    assert not diffs, "\n".join(diffs)


def test_resume_covers_only_post_checkpoint_boundaries(tmp_path, stream):
    """The resumed result is exactly the tail: no boundary at or before
    the checkpoint is re-reported (no double alerts on recovery)."""
    runtime = Runtime(group(), config=CONFIG)
    ck = runtime.subscribe(ShardedCheckpointSubscriber(
        tmp_path / "ck.jsonl", interval=INTERVAL))
    plan = FaultPlan((Fault("crash", shard=1, boundary=320),))
    runtime.subscribe(FaultInjector(plan, 1))
    with pytest.raises(InjectedCrash):
        runtime.run(stream)
    restored, t_ck = load_sharded_checkpoint(tmp_path / "ck.jsonl")
    assert t_ck == 240  # interval 3 on slide 40: writes at 120, 240
    tail = restored.resume(stream)
    assert all(t > t_ck for (_, t) in tail.outputs)
    assert restored.last_boundary == 600  # driven to the stream's end


def test_resume_from_checkpoint_roundtrips_config(tmp_path, stream):
    """The restored runtime carries the checkpointed detector config, so
    the resumed boundaries run under the same ablation switches."""
    config = CONFIG.replace(eager=False, chunk_size=64)
    runtime = Runtime(group(), config=config)
    runtime.subscribe(ShardedCheckpointSubscriber(tmp_path / "ck.jsonl",
                                                  interval=INTERVAL))
    plan = FaultPlan((Fault("crash", shard=0, boundary=280),))
    runtime.subscribe(FaultInjector(plan, 0))
    with pytest.raises(InjectedCrash):
        runtime.run(stream)
    restored, _ = Runtime.resume_from_checkpoint(tmp_path / "ck.jsonl",
                                                 stream)
    assert restored.config == config
    assert restored.n_shards == N_SHARDS
