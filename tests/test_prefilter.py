"""Tiered pre-filter: exactness, adaptivity, and integration gates.

The first-tier screen (``repro.core.prefilter``) may only prune points
whose skipped scan the baseline refresh would have turned into a
fully-safe marking at the same boundary (DESIGN.md section 14).  The
suite pins that claim the strong way: per-boundary *outputs*, surviving
*evidence* (per-point seqs/poss/layers/fully-safe flags), and
``memory_units`` must be bit-identical to a ``prefilter="none"`` run --
not merely the outlier sets -- across the Table 1 workload grid, both
window kinds, and the sharded runtime, with the unscreened side scanning
by the paper-literal reference (``repro.testing.use_reference_scans``).  Work
counters are where the tiers are *allowed* to differ: a screened run may
only examine fewer points, never more.

There is one screen and one mode: the screen prunes certified points
and nothing else.  Checkpoint headers written while an inexact mode and
a second anchor rule still existed load as the exact ``"qn"`` screen and
resume with outputs identical to an uninterrupted screened run.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    DetectorConfig,
    OutlierQuery,
    Point,
    QueryGroup,
    Runtime,
    SOPDetector,
    WindowSpec,
    compare_outputs,
    make_synthetic_points,
)
from repro.bench import ScaledRanges, build_workload
from repro.checkpoint import (
    load_checkpoint,
    load_sharded_checkpoint,
    save_checkpoint,
    save_sharded_checkpoint,
)
from repro.core.point import get_metric
from repro.core.prefilter import QnScreen, build_prefilter, windowed_qn_scale
from repro.streams import WindowBuffer
from repro.streams.source import batches_by_boundary
from repro.testing import use_reference_scans

from conftest import evidence

#: compact Table 2-shaped ranges, sized so windows clear the screen's
#: ``min_candidates`` floor and neighbor density makes pruning plausible
RANGES = ScaledRanges(
    r=(200.0, 2000.0),
    k=(3, 10),
    win=(128, 512),
    slide=(32, 128),
    slide_quantum=32,
    fixed_r=700.0,
    fixed_k=5,
    fixed_win=256,
    fixed_slide=64,
)

#: the one screen; the exactness suites keep it as their ``screen``
#: parameter so each case keeps its test ID
SCREENS = ("qn",)


def _stream(n=1200, seed=9, **kw):
    kw.setdefault("outlier_rate", 0.03)
    kw.setdefault("n_clusters", 4)
    kw.setdefault("cluster_spread", 60)
    return make_synthetic_points(n, dim=2, seed=seed, **kw)


def _lockstep(group, points, screen):
    """Drive the unscreened reference-scan baseline and the screened
    detector boundary-by-boundary, asserting output/evidence/memory
    equality at every step; returns both detectors for counter checks."""
    base = use_reference_scans(SOPDetector(group))
    scr = SOPDetector(group, config=DetectorConfig(prefilter=screen))
    for t, batch in batches_by_boundary(points, group.swift.slide,
                                        group.kind):
        assert scr.step(t, batch) == base.step(t, batch), (
            f"outputs diverge at t={t}")
        assert evidence(scr) == evidence(base), f"evidence diverges at t={t}"
        assert scr.memory_units() == base.memory_units()
    return base, scr


# ------------------------------------------------------------ scale unit


def test_qn_scale_zero_for_tiny_and_degenerate_windows():
    assert (windowed_qn_scale(np.zeros((4, 3))) == 0.0).all()
    flat = np.tile([[2.5, -1.0]], (64, 1))
    assert (windowed_qn_scale(flat) == 0.0).all()


def test_qn_scale_tracks_normal_sigma():
    rng = np.random.default_rng(3)
    mat = rng.normal(0.0, 50.0, size=(4096, 2))
    scale = windowed_qn_scale(mat)
    assert (np.abs(scale - 50.0) < 10.0).all()


# ------------------------------------------------------- screen mechanics


def _plan(k=5, r=200.0, win=256):
    det = SOPDetector(QueryGroup([OutlierQuery(
        r=r, k=k, window=WindowSpec(win=win, slide=64, kind="count"))]))
    return det.plan


def test_build_prefilter_dispatch():
    plan = _plan()
    assert build_prefilter(DetectorConfig(), plan) is None
    assert isinstance(
        build_prefilter(DetectorConfig(prefilter="qn"), plan), QnScreen)


def test_config_rejects_unsound_prefilter_combinations():
    with pytest.raises(ValueError, match="prefilter"):
        DetectorConfig(prefilter="bogus")
    with pytest.raises(ValueError, match="use_safe_inliers"):
        DetectorConfig(prefilter="qn", use_safe_inliers=False)
    # the certification argument needs the triangle inequality
    with pytest.raises(ValueError, match="metric"):
        DetectorConfig(prefilter="qn", metric="dot_bogus")


def test_screen_backoff_trips_and_reprobes():
    screen = QnScreen(_plan())
    screen.patience, screen.backoff, screen.min_prune_rate = 2, 5, 0.5
    # two consecutive low-yield boundaries -> backoff
    screen._boundary = 1
    screen.observe(100, 0)
    screen._boundary = 2
    screen.observe(100, 1)
    assert screen._disabled_until == 2 + 5
    kinds = [k for _, k, _ in screen.decisions]
    assert kinds == ["screened", "screened", "backoff"]
    # a high-yield boundary after re-probe resets the streak
    screen._boundary = 9
    screen.observe(100, 90)
    assert screen._low_streak == 0


def test_screen_decision_log_is_bounded():
    """``decisions`` keeps the newest ``_DECISION_LOG_CAP`` entries (a
    long-lived service screens a boundary per slide forever); the backoff
    runs on its own counters and never reads the log."""
    from repro.core.prefilter import _DECISION_LOG_CAP as cap

    screen = QnScreen(_plan())
    screen.patience, screen.backoff, screen.min_prune_rate = 3, 5, 0.5
    n = cap + 200
    # yields cycle high, low, low: the streak never reaches patience
    for b in range(1, n + 1):
        screen._boundary = b
        screen.observe(100, 90 if b % 3 == 1 else 0)
    assert len(screen.decisions) == cap
    # the newest entries are the ones kept, in order
    assert [b for b, _, _ in screen.decisions] == list(range(n - cap, n))
    assert screen._disabled_until == 0
    assert screen._low_streak == (n - 1) % 3
    # with the log full, the backoff still trips on the third low in a row
    lows = 0
    while not screen._disabled_until:
        lows += 1
        screen._boundary = n + lows
        screen.observe(100, 0)
    assert lows == 3 - (n - 1) % 3
    assert screen._disabled_until == n + lows + 5
    assert screen._low_streak == 0
    assert len(screen.decisions) == cap
    assert list(screen.decisions)[-2:] == [
        (n + lows - 1, "screened", 0.0), (n + lows - 1, "backoff", 0.0)]


def test_screen_sits_out_tiny_windows():
    group = QueryGroup([OutlierQuery(
        r=200.0, k=3, window=WindowSpec(win=32, slide=8, kind="count"))])
    det = SOPDetector(group, config=DetectorConfig(prefilter="qn"))
    det.run(_stream(n=128, seed=4))
    # min_candidates=64 > window: every boundary skipped
    assert det.profile.prefilter_screened == 0
    assert det.profile.prefilter_pruned == 0


def test_screen_runs_are_deterministic():
    group = build_workload("A", n_queries=4, seed=11, ranges=RANGES)
    pts = _stream(seed=13)
    runs = []
    for _ in range(2):
        det = SOPDetector(group, config=DetectorConfig(prefilter="qn"))
        res = det.run(pts)
        work = det.work_stats()
        work.pop("refresh_ns")  # wall-clock: the one permitted difference
        runs.append((res.outputs, dict(det.stats), work))
    assert runs[0] == runs[1]


# ------------------------------------------- exact-mode equivalence grid


@pytest.mark.parametrize("spec", list("ABCDEFG"))
@pytest.mark.parametrize("screen", SCREENS)
def test_table1_exact_screen_is_bit_identical(spec, screen):
    group = build_workload(spec, n_queries=5, seed=ord(spec), ranges=RANGES)
    base, scr = _lockstep(group, _stream(seed=50 + ord(spec)), screen)
    # exactness lemma, counter form: the skipped scans are exactly the
    # ones the baseline turned into fully-safe markings
    assert scr.stats["fully_safe_marked"] == base.stats["fully_safe_marked"]
    assert scr.stats["points_examined"] <= base.stats["points_examined"]
    assert scr.stats["ksky_runs"] <= base.stats["ksky_runs"]


def test_exact_screen_under_reference_scans():
    """The screen composes with whoever scans: a screened detector and a
    screened reference-scan detector agree on everything, work included
    (the anchor kernels' ``distance_rows`` too)."""
    group = build_workload("C", n_queries=4, seed=23, ranges=RANGES)
    config = DetectorConfig(prefilter="qn")
    det = SOPDetector(group, config=config)
    ref = use_reference_scans(SOPDetector(group, config=config))
    for t, batch in batches_by_boundary(_stream(n=900, seed=5),
                                        group.swift.slide, group.kind):
        assert det.step(t, batch) == ref.step(t, batch), f"t={t}"
        assert evidence(det) == evidence(ref), f"t={t}"
        assert det.memory_units() == ref.memory_units()
    stats = dict(det.stats)
    assert stats.pop("batched_scans") == stats["ksky_runs"]
    assert stats == {k: v for k, v in ref.stats.items()
                     if k != "batched_scans"}
    assert det.buffer.distance_rows == ref.buffer.distance_rows
    assert det.profile.prefilter_pruned == ref.profile.prefilter_pruned > 0


@pytest.mark.parametrize("screen", SCREENS)
def test_exact_screen_time_windows(screen):
    ranges = ScaledRanges(
        r=(200.0, 2000.0), k=(3, 8), win=(96, 256), slide=(24, 96),
        slide_quantum=24, fixed_r=700.0, fixed_k=4,
        fixed_win=192, fixed_slide=48, kind="time",
    )
    group = build_workload("G", n_queries=4, seed=9, ranges=ranges)
    base = _stream(n=900, seed=31)
    points, clock = [], 0.0
    for p in base:
        clock += 0.2 + ((p.seq * 37) % 7) * 0.9
        points.append(Point(seq=p.seq, values=p.values, time=clock))
    _lockstep(group, points, screen)


@pytest.mark.parametrize("screen", SCREENS)
def test_dense_stream_actually_prunes(screen):
    """Anti-vacuity: on a dense high-inlier stream the screen must do
    real work (certify and prune), not just pass everything through --
    and still match the baseline exactly."""
    group = QueryGroup([
        OutlierQuery(r=200.0, k=5,
                     window=WindowSpec(win=512, slide=128, kind="count")),
        OutlierQuery(r=300.0, k=8,
                     window=WindowSpec(win=256, slide=128, kind="count")),
    ])
    pts = _stream(n=2048, seed=7, outlier_rate=0.02, cluster_spread=40)
    base, scr = _lockstep(group, pts, screen)
    assert scr.profile.prefilter_pruned > 0
    assert (scr.profile.prefilter_screened
            == scr.profile.prefilter_suspects
            + scr.profile.prefilter_pruned)
    assert scr.stats["points_examined"] < base.stats["points_examined"]


@pytest.mark.parametrize("screen", SCREENS)
def test_exact_tile_and_anchor_paths_both_exact(screen):
    """Force each certification path (small-suffix pairwise tile vs
    anchor ladder) and pin exactness for both."""
    group = QueryGroup([OutlierQuery(
        r=200.0, k=5, window=WindowSpec(win=512, slide=128, kind="count"))])
    pts = _stream(n=2048, seed=19, outlier_rate=0.02, cluster_spread=40)
    base = SOPDetector(group, config=DetectorConfig()).run(pts)
    for budget in (0, 1 << 30):
        det = SOPDetector(group, config=DetectorConfig(prefilter=screen))
        det.prefilter.pairwise_budget = budget
        got = det.run(pts)
        assert got.outputs == base.outputs, f"budget={budget}"
        assert det.profile.prefilter_pruned > 0, f"budget={budget}"


# ------------------------------------------------- exact tile, row subset


def _screen_for(metric, r_min, k=3):
    group = QueryGroup([OutlierQuery(
        r=r_min, k=k, window=WindowSpec(win=512, slide=64, kind="count"))])
    det = SOPDetector(group, config=DetectorConfig(prefilter="qn",
                                                   metric=metric))
    return det.prefilter


def _buffer_of(metric, values):
    buf = WindowBuffer(get_metric(metric))
    buf.extend(Point(seq=i, values=tuple(map(float, v)))
               for i, v in enumerate(values))
    return buf


def _full_tile_bound(screen, mat, lo):
    """The euclidean exact tile as it was before the row restriction
    (every suffix row, ``np.triu`` over the full square), verbatim."""
    tail = mat[lo:]
    c = tail - tail.mean(axis=0)
    sq = np.einsum("ij,ij->i", c, c)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (c @ c.T)
    max_sq = float(sq.max()) if sq.size else 0.0
    thresh = (screen._r_min * screen._r_min * (1.0 - 1e-9)
              - 1e-12 * max_sq)
    close = d2 <= thresh
    np.fill_diagonal(close, False)
    return np.triu(close, k=1).sum(axis=1, dtype=np.int64)


tile_cases = st.tuples(
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
             min_size=1, max_size=70),
    st.integers(0, 69),                       # suffix start
    st.lists(st.booleans(), min_size=70, max_size=70),  # rows kept
    st.sampled_from([1.0, 2.0, 3.0, 5.0]),    # r_min, hit exactly by ties
    st.sampled_from([-1, 0, 1]),              # nextafter direction
    st.booleans(),                            # jitter off the grid
)


def _assert_tile_rows(values, lo, rows, r):
    n = len(values)
    for metric in ("manhattan", "chebyshev", "euclidean"):
        screen = _screen_for(metric, r)
        buf = _buffer_of(metric, values)
        mat = buf.matrix()
        rows0, cells0 = buf.distance_rows, buf.kernel_cells
        got = screen._certify_exact(buf, mat, lo, rows)
        assert buf.distance_rows - rows0 == len(rows) * (n - lo)
        assert buf.kernel_cells - cells0 == len(rows) * (n - lo)
        if metric == "euclidean":
            want = _full_tile_bound(screen, mat, lo)[rows - lo]
        else:
            d = buf.pairwise_block(mat[lo:], lo, n)
            want = np.array([
                int(np.count_nonzero(d[i - lo, i - lo + 1:] <= r))
                for i in rows], dtype=np.int64)
        assert got.tolist() == want.tolist(), metric


@settings(max_examples=120, deadline=None)
@given(case=tile_cases)
def test_exact_tile_rows_match_brute_force_and_full_tile(case):
    """The exact tile over a subset of suffix rows counts, per row, what
    the full square counted: for manhattan/chebyshev a brute-force
    succeeding-neighbour count from ``pairwise_block`` (ties exactly at
    ``r_min`` and one ulp either side of it), for euclidean the old full
    tile's bound at the same rows.  It charges ``rows x suffix``."""
    values, lo, keep, r, step, jitter = case
    n = len(values)
    lo = min(lo, n - 1)
    if jitter:
        values = [(x + 0.25 * ((i * 7) % 3), y) for i, (x, y)
                  in enumerate(values)]
    if step:
        r = float(np.nextafter(r, step * np.inf))
    _assert_tile_rows(values, lo, lo + np.flatnonzero(keep[:n - lo]), r)


@pytest.mark.parametrize("seed", range(4))
def test_exact_tile_rows_on_dense_grids(seed):
    """The same check on grids dense enough that many pairs tie at
    ``r_min`` exactly, for every rung of ties and a random row subset."""
    rng = np.random.default_rng(seed)
    values = [tuple(v) for v in rng.integers(0, 7, (160, 2)).tolist()]
    lo = int(rng.integers(0, 60))
    rows = lo + np.flatnonzero(rng.random(160 - lo) < 0.6)
    for r in (1.0, 2.0, 3.0, 5.0):
        for step in (-1, 0, 1):
            _assert_tile_rows(values, lo, rows, float(
                np.nextafter(r, step * np.inf)) if step else r)


def test_exact_tile_skips_rows_already_safe():
    """``prune_mask`` builds the tile over the not-yet-safe suffix rows
    only; the mask stays False at safe rows, and the rows it does cover
    get the full tile's verdict."""
    pts = _stream(n=400, seed=5, outlier_rate=0.0, cluster_spread=20)
    group = QueryGroup([OutlierQuery(
        r=400.0, k=3, window=WindowSpec(win=512, slide=64, kind="count"))])
    det = SOPDetector(group, config=DetectorConfig(prefilter="qn"))
    det.warm_start(pts)
    screen = det.prefilter
    n = len(det.buffer)
    det.table.safe[: n // 2] = True
    rows0 = det.buffer.distance_rows
    mask = screen.prune_mask(det)
    assert not mask[: n // 2].any()
    assert det.buffer.distance_rows - rows0 == (n - n // 2) * n
    full = _full_tile_bound(screen, det.buffer.matrix(), 0)
    assert (mask[n // 2:] == (full[n // 2:] >= screen._k_max)).all()
    assert mask.any()


# --------------------------------------------------------------- sharded


@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("screen", SCREENS)
def test_sharded_exact_screen_equivalence(shards, screen):
    group = build_workload("B", n_queries=4, seed=2, ranges=RANGES)
    pts = _stream(n=1000, seed=41)
    expected = SOPDetector(group).run(pts).outputs
    run = Runtime(QueryGroup(list(group.queries)), shards=shards,
                  config=DetectorConfig(prefilter=screen)).run(pts)
    diffs = compare_outputs(expected, run.outputs)
    assert not diffs, "\n".join(diffs[:10])
    # per-shard screen tallies merge additively into the run's work dict
    assert "prefilter_screened" in run.work
    assert run.work["prefilter_suspects"] + run.work["prefilter_pruned"] \
        == run.work["prefilter_screened"]


# ------------------------------------------------------------ checkpoints


def test_checkpoint_roundtrip_preserves_prefilter_config(tmp_path):
    group = build_workload("E", n_queries=4, seed=41, ranges=RANGES)
    points = _stream(n=1000, seed=19)
    cfg = DetectorConfig(prefilter="qn")
    batches = list(batches_by_boundary(points, group.swift.slide,
                                       group.kind))
    full = SOPDetector(group, config=cfg).run(points)

    det = SOPDetector(group, config=cfg)
    outputs = {}
    half = len(batches) // 2
    for t, batch in batches[:half]:
        for qi, seqs in det.step(t, batch).items():
            outputs[(qi, t)] = seqs
    path = tmp_path / "prefilter.ckpt"
    save_checkpoint(det, batches[half - 1][0], path)

    restored, last_t = load_checkpoint(path)
    assert restored.config.prefilter == "qn"
    assert restored.prefilter is not None

    # a factory that silently drops the screen fails loudly
    with pytest.raises(ValueError, match="prefilter"):
        load_checkpoint(path, factory=lambda g: SOPDetector(
            g, config=DetectorConfig()))

    # exactness makes the resumed screen's fresh adaptivity state
    # harmless: outputs stay identical to the uninterrupted run
    got = dict(outputs)
    for t, batch in batches[half:]:
        for qi, seqs in restored.step(t, batch).items():
            got[(qi, t)] = seqs
    assert got == {(qi, t): seqs for (qi, t), seqs in full.outputs.items()}


#: a checkpoint header config exactly as written while the screen still
#: had a second anchor rule and an inexact mode: 17 fields
_SCREEN_HEADER_CONFIG = {
    "metric": "euclidean", "chunk_size": 256, "eager": True,
    "use_safe_inliers": True, "use_least_examination": True, "shards": 1,
    "backend": "serial", "replication_radius": 0.0,
    "on_shard_failure": "retry", "max_shard_retries": 2,
    "shard_deadline": 0.0, "retry_backoff": 0.05, "validate_ingest": False,
    "ingest_dim": None, "fault_plan": None, "prefilter": "qn",
    "prefilter_mode": "exact",
}


@pytest.mark.parametrize("prefilter,mode", [
    ("sensitivity", "exact"), ("qn", "fast"), ("qn", "exact")])
def test_retired_prefilter_keys_upgrade_on_read(tmp_path, prefilter, mode):
    """``prefilter_mode`` is dropped whatever its value and ``prefilter:
    "sensitivity"`` reads as ``"qn"``: a classic checkpoint and a sharded
    manifest carrying either resume with outputs identical to an
    uninterrupted ``prefilter="qn"`` run."""
    header = {**_SCREEN_HEADER_CONFIG, "prefilter": prefilter,
              "prefilter_mode": mode}
    assert len(header) == 17
    cfg = DetectorConfig(prefilter="qn")
    assert DetectorConfig.from_dict(header) == cfg
    # the retired screen name is upgraded on read only
    with pytest.raises(ValueError, match=r"\('none', 'qn'\)"):
        DetectorConfig(prefilter="sensitivity")

    group = build_workload("E", n_queries=4, seed=41, ranges=RANGES)
    points = _stream(n=1000, seed=19)
    batches = list(batches_by_boundary(points, group.swift.slide,
                                       group.kind))
    half = len(batches) // 2
    cut = batches[half - 1][0]
    full = SOPDetector(group, config=cfg).run(points)
    tail = {k: v for k, v in full.outputs.items() if k[1] > cut}

    def write_header(path, **extra):
        head, _, body = path.read_text().partition("\n")
        head = json.loads(head)
        head["config"] = {**header, **extra}
        path.write_text(json.dumps(head) + "\n" + body)

    det = SOPDetector(group, config=cfg)
    for t, batch in batches[:half]:
        det.step(t, batch)
    path = tmp_path / "screen.ckpt"
    save_checkpoint(det, cut, path)
    write_header(path)
    restored, last_t = load_checkpoint(path)
    assert last_t == cut
    assert restored.config == cfg
    assert isinstance(restored.prefilter, QnScreen)
    got = {}
    for t, batch in batches[half:]:
        for qi, seqs in restored.step(t, batch).items():
            got[(qi, t)] = seqs
    assert got == tail

    rt = Runtime(group, config=cfg.replace(shards=2))
    rt.partitioner.ensure_bounds(points)
    for t, batch in batches[:half]:
        rt.step(t, batch)
    manifest = tmp_path / "screen_sharded.ckpt"
    save_sharded_checkpoint(rt, cut, manifest)
    for name in json.loads(manifest.read_text())["segments"]:
        write_header(manifest.with_name(name), shards=2)
    resumed, last_t = load_sharded_checkpoint(manifest)
    assert last_t == cut
    assert resumed.config == cfg.replace(shards=2)
    for t, batch in batches[half:]:
        resumed.step(t, batch)
    assert {k: v for k, v in resumed.finish().outputs.items()
            if k[1] > cut} == tail


# ---------------------------------------------------- hypothesis property


values_2d = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
              st.floats(min_value=0.0, max_value=10.0, allow_nan=False)),
    min_size=150, max_size=400,
)

query_params = st.tuples(
    st.floats(min_value=0.5, max_value=8.0),    # r
    st.integers(min_value=1, max_value=5),      # k
    st.integers(min_value=3, max_value=8),      # win/32
    st.integers(min_value=1, max_value=2),      # slide/32
)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(values=values_2d,
       params=st.lists(query_params, min_size=1, max_size=3))
def test_property_exact_screen_equals_unscreened(values, params):
    queries = []
    for r, k, win32, slide32 in params:
        win, slide = win32 * 32, slide32 * 32
        queries.append(OutlierQuery(
            r=round(float(r), 3), k=k,
            window=WindowSpec(win=win, slide=min(slide, win)),
        ))
    points = [Point(seq=i, values=(float(x), float(y)))
              for i, (x, y) in enumerate(values)]
    group = QueryGroup(queries)
    base = SOPDetector(group).run(points)
    det = SOPDetector(group, config=DetectorConfig(prefilter="qn"))
    # drop the screen floor so small hypothesis windows get screened too
    det.prefilter.min_candidates = 16
    got = det.run(points)
    assert got.outputs == base.outputs
    assert evidence(det) is not None  # states walked without error
