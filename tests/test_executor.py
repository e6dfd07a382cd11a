"""Tests for the staged detector runtime: StreamExecutor, lifecycle
hooks, DetectorConfig plumbing, and checkpoint/alert subscribers.

The refactor contract is *byte-identical accounting*: driving a detector
through :class:`~repro.engine.StreamExecutor` must reproduce exactly what
the legacy copy-pasted drive loops produced -- same outputs, same boundary
count, same memory samples, same work counters.
"""

import json

import pytest

from repro import (
    DetectorConfig,
    DynamicSOPDetector,
    ExecutorSubscriber,
    LEAPDetector,
    MCODDetector,
    OutlierQuery,
    QueryGroup,
    RunResult,
    Runtime,
    SOPDetector,
    StreamExecutor,
    WindowSpec,
    compare_outputs,
    make_synthetic_points,
)
from repro.baselines.base import Detector
from repro.bench import build_workload
from repro.bench.workloads import ScaledRanges
from repro.checkpoint import (
    CheckpointSubscriber,
    CheckpointedRun,
    load_checkpoint,
    load_sharded_checkpoint,
    save_checkpoint,
    save_sharded_checkpoint,
)
from repro.streams.buffer import WindowBuffer
from repro.streams.source import batches_by_boundary
from repro.testing import use_reference_scans

#: compact windows so a short stream still exercises expiry
_RANGES = ScaledRanges(
    r=(200.0, 2000.0), k=(3, 8), win=(100, 400), slide=(50, 100),
    fixed_r=700.0, fixed_k=4, fixed_win=200, fixed_slide=50,
)

_ALGOS = {
    "sop": SOPDetector,
    "mcod": MCODDetector,
    "leap": LEAPDetector,
}


def _stream(n=600, seed=3):
    return make_synthetic_points(n, dim=2, outlier_rate=0.05, seed=seed)


def _group(spec="C", n=3, seed=17):
    return build_workload(spec, n_queries=n, seed=seed, ranges=_RANGES)


def legacy_run(detector, points, until=None):
    """The pre-executor drive loop, verbatim (the golden reference)."""
    result = RunResult(detector=detector.name)
    for t, batch in batches_by_boundary(
        points, detector.swift.slide, detector.group.kind, until
    ):
        result.cpu.start()
        outputs = detector.step(t, batch)
        result.cpu.stop()
        result.boundaries += 1
        result.memory.sample(detector.memory_units(),
                             detector.tracked_points())
        for qi, seqs in outputs.items():
            result.outputs[(qi, t)] = frozenset(seqs)
    result.work = detector.work_stats()
    return result


class RecordingSubscriber(ExecutorSubscriber):
    """Logs every hook invocation as (hook_name, boundary)."""

    def __init__(self):
        self.events = []

    def on_ingest(self, t, batch):
        self.events.append(("ingest", t, len(batch)))

    def on_expire(self, t, evicted):
        self.events.append(("expire", t, len(evicted)))

    def on_refresh(self, t):
        self.events.append(("refresh", t, None))

    def on_evaluate(self, t, outputs):
        self.events.append(("evaluate", t, dict(outputs)))

    def on_boundary_end(self, t, outputs):
        self.events.append(("boundary_end", t, dict(outputs)))

    def on_stream_end(self, result):
        self.events.append(("stream_end", None, result))


# --------------------------------------------------------- golden equivalence


@pytest.mark.parametrize("algo", sorted(_ALGOS))
@pytest.mark.parametrize("spec", list("ABCDEFG"))
def test_executor_matches_legacy_loop(spec, algo):
    """StreamExecutor reproduces the legacy drive loop exactly, per
    algorithm, per Table 1 workload class."""
    group = _group(spec)
    points = _stream()
    expected = legacy_run(_ALGOS[algo](group), points)
    actual = StreamExecutor(_ALGOS[algo](group)).run(points)
    assert not compare_outputs(expected.outputs, actual.outputs)
    assert actual.boundaries == expected.boundaries
    assert actual.peak_memory_units == expected.peak_memory_units
    # identical deterministic work counters (wall-clock entries excluded)
    deterministic = {k: v for k, v in expected.work.items()
                     if not k.endswith("_ns")}
    assert {k: actual.work[k] for k in deterministic} == deterministic


def test_detector_run_is_executor_run():
    group = _group("G")
    points = _stream()
    via_run = SOPDetector(group).run(points)
    via_executor = StreamExecutor(SOPDetector(group)).run(points)
    assert not compare_outputs(via_run.outputs, via_executor.outputs)
    assert via_run.boundaries == via_executor.boundaries
    # ... and both equal the paper-literal reference scans, evidence
    # volume and distance work included
    reference = StreamExecutor(
        use_reference_scans(SOPDetector(group))).run(points)
    assert not compare_outputs(reference.outputs, via_executor.outputs)
    assert reference.peak_memory_units == via_executor.peak_memory_units
    assert (reference.work["distance_rows"]
            == via_executor.work["distance_rows"])


def test_until_bounds_the_run():
    group = _group("A")
    result = StreamExecutor(SOPDetector(group)).run(_stream(), until=200)
    assert result.outputs
    assert max(t for _, t in result.outputs) <= 200


# ------------------------------------------------------------- hook ordering


def test_sop_hook_order_per_boundary():
    """Eager SOP fires ingest -> expire -> refresh -> evaluate ->
    boundary_end at every boundary, stream_end once at the end."""
    group = _group("A")
    sub = RecordingSubscriber()
    StreamExecutor(SOPDetector(group), [sub]).run(_stream(n=300))
    assert sub.events[-1][0] == "stream_end"
    per_boundary = [e for e in sub.events if e[0] != "stream_end"]
    stages = [e[0] for e in per_boundary]
    expected_cycle = ["ingest", "expire", "refresh", "evaluate",
                      "boundary_end"]
    assert len(stages) % len(expected_cycle) == 0
    for i in range(0, len(stages), len(expected_cycle)):
        assert stages[i:i + len(expected_cycle)] == expected_cycle
    # every hook of one boundary reports the same t
    for i in range(0, len(per_boundary), len(expected_cycle)):
        ts = {e[1] for e in per_boundary[i:i + len(expected_cycle)]}
        assert len(ts) == 1


def test_lazy_sop_skips_refresh_hook_when_nothing_due():
    # slides 100 and 150 give a swift slide of 50, so boundaries like
    # t=50 and t=250 have no due member at all
    group = QueryGroup([
        OutlierQuery(r=300, k=3, window=WindowSpec(win=200, slide=100)),
        OutlierQuery(r=300, k=3, window=WindowSpec(win=300, slide=150)),
    ])
    sub = RecordingSubscriber()
    det = SOPDetector(group, config=DetectorConfig(eager=False))
    StreamExecutor(det, [sub]).run(_stream(n=300))
    refreshes = [e for e in sub.events if e[0] == "refresh"]
    evaluates = [e for e in sub.events if e[0] == "evaluate"]
    assert refreshes and evaluates
    # lazy mode refreshes only at due boundaries -- but evaluate still
    # fires (with {}) at every boundary
    assert len(refreshes) < len(evaluates)


def test_mcod_hook_order_reports_algorithm_order():
    """MCOD expires before it ingests; the hooks report what actually
    happened rather than a normalized order."""
    sub = RecordingSubscriber()
    StreamExecutor(MCODDetector(_group("A")), [sub]).run(_stream(n=300))
    stages = [e[0] for e in sub.events]
    first_expire = stages.index("expire")
    first_ingest = stages.index("ingest")
    assert first_expire < first_ingest


def test_monolithic_step_detector_still_drivable():
    """A third-party detector implementing only step() runs through the
    executor via the default run_boundary wrapper."""

    class Monolith(Detector):
        name = "monolith"

        def __init__(self, group, metric="euclidean"):
            super().__init__(group, metric)
            self.buffer = WindowBuffer(self.metric)

        def step(self, t, batch):
            self.buffer.extend(batch)
            self._expire_swift(t)
            return {qi: frozenset() for qi in self.group.due_members(t)}

    sub = RecordingSubscriber()
    result = StreamExecutor(Monolith(_group("A")), [sub]).run(_stream(n=200))
    assert result.boundaries > 0
    stages = [e[0] for e in sub.events if e[0] != "stream_end"]
    # the wrapper exposes ingest and evaluate only
    assert "ingest" in stages and "evaluate" in stages
    assert "expire" not in stages and "refresh" not in stages


def test_detector_without_step_or_run_boundary_fails_loudly():
    class Empty(Detector):
        name = "empty"

    with pytest.raises(NotImplementedError, match="step"):
        Empty(_group("A")).step(50, [])


def test_subscriber_exception_propagates():
    class Boom(ExecutorSubscriber):
        def on_evaluate(self, t, outputs):
            raise RuntimeError("subscriber failed")

    with pytest.raises(RuntimeError, match="subscriber failed"):
        StreamExecutor(SOPDetector(_group("A")), [Boom()]).run(_stream(n=200))


def test_subscribe_mid_stream():
    group = _group("A")
    executor = StreamExecutor(SOPDetector(group))
    batches = list(batches_by_boundary(_stream(n=300), group.swift.slide,
                                       group.kind))
    executor.step(*batches[0])
    late = executor.subscribe(RecordingSubscriber())
    assert late.executor is executor
    executor.step(*batches[1])
    assert any(e[0] == "boundary_end" for e in late.events)


# ------------------------------------------------- checkpoint resume + config


def test_checkpoint_resume_mid_stream_roundtrip(tmp_path):
    """Crash after the Nth periodic checkpoint, restore, finish the
    stream: outputs match an uninterrupted run exactly."""
    group = _group("C")
    points = _stream(n=600, seed=61)
    full = SOPDetector(group).run(points)

    path = tmp_path / "live.jsonl"
    run = CheckpointedRun(SOPDetector(group), path, interval=3)
    batches = list(batches_by_boundary(points, group.swift.slide, group.kind))
    cut = 7  # two checkpoints written (boundaries 3 and 6), then "crash"
    outputs = {}
    for t, batch in batches[:cut]:
        for qi, seqs in run.step(t, batch).items():
            outputs[(qi, t)] = seqs
    assert run.checkpoints_written == 2

    restored, last_t = load_checkpoint(path)
    assert last_t == batches[5][0]
    assert restored.config == SOPDetector(group).config
    # drop boundaries after the last checkpoint (lost in the crash) and
    # replay from there
    outputs = {k: v for k, v in outputs.items() if k[1] <= last_t}
    executor = StreamExecutor(restored)
    for t, batch in batches[6:]:
        for qi, seqs in executor.step(t, batch).items():
            outputs[(qi, t)] = seqs
    assert not compare_outputs(full.outputs, outputs)


def test_checkpoint_persists_config(tmp_path):
    group = _group("A")
    cfg = DetectorConfig(use_least_examination=False, eager=False,
                         chunk_size=13)
    det = SOPDetector(group, config=cfg)
    det.run(_stream(n=200))
    path = tmp_path / "ckpt.jsonl"
    save_checkpoint(det, 200, path)
    restored, _ = load_checkpoint(path)
    assert restored.config == cfg
    assert restored.skyband_engine.chunk_size == 13


def test_checkpoint_config_mismatch_fails_loudly(tmp_path):
    group = _group("A")
    det = SOPDetector(group, config=DetectorConfig(
        use_least_examination=False))
    det.step(50, _stream(n=50))
    path = tmp_path / "ckpt.jsonl"
    save_checkpoint(det, 50, path)
    # a factory that silently reverts to defaults must be rejected
    with pytest.raises(ValueError, match="config mismatch"):
        load_checkpoint(path, factory=SOPDetector)
    # ... unless the reconfiguration is explicit
    restored, _ = load_checkpoint(path, factory=SOPDetector,
                                  allow_config_mismatch=True)
    assert restored.config.use_least_examination
    # a config-less detector (different algorithm) skips the check
    restored, _ = load_checkpoint(path, factory=MCODDetector)
    assert restored.name == "mcod"


def test_checkpoint_malformed_config_rejected(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text(
        '{"version": 1, "last_boundary": 0, "kind": "count", '
        '"config": {"no_such_switch": 1}, '
        '"queries": [{"r": 1, "k": 1, "win": 10, "slide": 5}]}\n'
    )
    with pytest.raises(ValueError, match="malformed detector config"):
        load_checkpoint(path)


#: a checkpoint header config exactly as written before the object scan
#: tier was retired: 20 fields, the four since-retired launch keys
#: (``skyband_impl``, ``use_batched_refresh``, ``refresh_strategy``,
#: ``batch_min_rows``) among them
_OLD_HEADER_CONFIG = {
    "metric": "euclidean", "chunk_size": 256, "eager": True,
    "use_safe_inliers": True, "use_least_examination": True,
    "use_batched_refresh": False, "batch_min_rows": 8,
    "refresh_strategy": "auto", "skyband_impl": "object", "shards": 1,
    "backend": "serial", "replication_radius": 0.0,
    "on_shard_failure": "retry", "max_shard_retries": 2,
    "shard_deadline": 0.0, "retry_backoff": 0.05,
    "validate_ingest": False, "fault_plan": None, "prefilter": "none",
    "prefilter_mode": "exact",
}


def _write_old_header(path, **overrides):
    """Swap a checkpoint file's header config for the old-format literal."""
    header, _, body = path.read_text().partition("\n")
    header = json.loads(header)
    header["config"] = {**_OLD_HEADER_CONFIG, **overrides}
    path.write_text(json.dumps(header) + "\n" + body)


def _resume_old_headers(tmp_path, **overrides):
    """Checkpoint a classic detector and a 2-shard runtime mid-stream,
    rewrite every header to the old-format literal (+ ``overrides``),
    restore, and assert the upgraded config and a bit-exact resume."""
    group = _group("C")
    points = _stream(n=600, seed=61)
    slide, kind = group.swift.slide, group.kind
    batches = list(batches_by_boundary(points, slide, kind))
    half = len(batches) // 2
    cut = batches[half - 1][0]
    full = SOPDetector(group).run(points)
    tail = {k: v for k, v in full.outputs.items() if k[1] > cut}

    # classic single-file checkpoint
    det = SOPDetector(group)
    for t, batch in batches[:half]:
        det.step(t, batch)
    path = tmp_path / "old.ckpt"
    save_checkpoint(det, cut, path)
    _write_old_header(path, **overrides)
    restored, last_t = load_checkpoint(path)
    assert last_t == cut
    assert restored.config == DetectorConfig()
    got = {}
    for t, batch in batches[half:]:
        for qi, seqs in restored.step(t, batch).items():
            got[(qi, t)] = seqs
    assert got == tail

    # sharded manifest whose segments carry the old header
    rt = Runtime(group, shards=2)
    rt.partitioner.ensure_bounds(points)
    for t, batch in batches[:half]:
        rt.step(t, batch)
    manifest = tmp_path / "old_sharded.ckpt"
    save_sharded_checkpoint(rt, cut, manifest)
    for name in json.loads(manifest.read_text())["segments"]:
        _write_old_header(manifest.with_name(name), shards=2, **overrides)
    resumed, last_t = load_sharded_checkpoint(manifest)
    assert last_t == cut
    assert resumed.config == DetectorConfig(shards=2)
    for t, batch in batches[half:]:
        resumed.step(t, batch)
    assert {k: v for k, v in resumed.finish().outputs.items()
            if k[1] > cut} == tail


def test_old_format_checkpoint_upgrades_on_read(tmp_path):
    """Headers written before the object tier was retired still load --
    classic file and sharded segments alike: the four retired launch keys
    (``skyband_impl``, ``use_batched_refresh``, ``refresh_strategy``,
    ``batch_min_rows``) are dropped, every other unknown key still fails
    loudly, and the resumed run is bit-exact against an uninterrupted
    one."""
    assert DetectorConfig.from_dict(_OLD_HEADER_CONFIG) == DetectorConfig()
    with pytest.raises(ValueError, match="unknown.*bogus"):
        DetectorConfig.from_dict({**_OLD_HEADER_CONFIG, "bogus": 1})
    _resume_old_headers(tmp_path)


@pytest.mark.parametrize("retired", [
    {"refresh_strategy": "auto"},
    {"refresh_strategy": "per-point"},
    {"refresh_strategy": "batched"},
    {"refresh_strategy": "grid"},
    {"batch_min_rows": 1},
    {"batch_min_rows": 10 ** 6},
], ids=lambda d: "-".join(f"{k}={v}" for k, v in d.items()))
def test_retired_launch_keys_upgrade_on_read(tmp_path, retired):
    """Every value the two launch knobs ever took was output-identical:
    a header carrying any of them restores to the default config and
    resumes bit-exact, classic and sharded."""
    header = {k: v for k, v in _OLD_HEADER_CONFIG.items()
              if k not in ("skyband_impl", "use_batched_refresh")}
    assert DetectorConfig.from_dict({**header, **retired}) == (
        DetectorConfig())
    _resume_old_headers(tmp_path, **retired)


def test_checkpoint_subscriber_standalone(tmp_path):
    group = _group("A")
    path = tmp_path / "sub.jsonl"
    sub = CheckpointSubscriber(path, interval=2)
    executor = StreamExecutor(SOPDetector(group), [sub])
    executor.run(_stream(n=300))
    assert sub.checkpoints_written >= 1
    restored, last_t = load_checkpoint(path)
    assert last_t > 0


# -------------------------------------------------------------- config object


class TestDetectorConfig:
    def test_roundtrip(self):
        cfg = DetectorConfig(metric="manhattan", eager=False,
                             chunk_size=5)
        assert DetectorConfig.from_dict(cfg.as_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            DetectorConfig.from_dict({"metric": "euclidean", "bogus": 1})

    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorConfig(chunk_size=0)
        with pytest.raises(ValueError):
            DetectorConfig(shards=0)

    def test_diff(self):
        a = DetectorConfig()
        b = DetectorConfig(eager=False, chunk_size=5)
        d = a.diff(b)
        assert d == {"eager": (True, False), "chunk_size": (256, 5)}
        assert a.diff(a) == {}

    def test_replace(self):
        cfg = DetectorConfig().replace(use_safe_inliers=False)
        assert not cfg.use_safe_inliers
        assert cfg.use_least_examination

    def test_explicit_config_wins_over_legacy_kwargs(self):
        group = _group("A")
        cfg = DetectorConfig(chunk_size=32)
        det = SOPDetector(group, chunk_size=64, config=cfg)
        assert det.config == cfg
        assert det.skyband_engine.chunk_size == 32

    def test_legacy_kwargs_build_equivalent_config(self):
        group = _group("A")
        det = SOPDetector(group, eager=False, chunk_size=11)
        assert det.config == DetectorConfig(eager=False, chunk_size=11)
        # the launch-mode kwargs are retired, not silently accepted
        with pytest.raises(TypeError):
            SOPDetector(group, refresh_strategy="batched")
        with pytest.raises(TypeError):
            DetectorConfig(batch_min_rows=8)


# -------------------------------------------------------- dynamic workloads


def test_dynamic_rebuild_preserves_config():
    """Satellite 1: register/withdraw must not reset ablation flags."""
    cfg = DetectorConfig(chunk_size=48, eager=False,
                         use_safe_inliers=False)
    q1 = OutlierQuery(r=300, k=3, window=WindowSpec(win=200, slide=50))
    q2 = OutlierQuery(r=700, k=5, window=WindowSpec(win=100, slide=50))
    dyn = DynamicSOPDetector([q1], config=cfg)
    points = _stream(n=400)
    batches = list(batches_by_boundary(points, 50, "count"))
    dyn.step(*batches[0])
    assert dyn._inner.config == cfg
    handle = dyn.add_query(q2)
    dyn.step(*batches[1])
    assert dyn._inner.config == cfg
    assert dyn._inner.skyband_engine.chunk_size == 48
    dyn.remove_query(handle)
    dyn.step(*batches[2])
    assert dyn._inner.config == cfg


def test_dynamic_rejects_config_plus_kwargs():
    with pytest.raises(TypeError, match="not both"):
        DynamicSOPDetector(config=DetectorConfig(), eager=False)
