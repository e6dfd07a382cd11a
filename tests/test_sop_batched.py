"""Batched-vs-per-point refresh equivalence (the correctness gate of the
batched K-SKY engine).

The batched path must be *indistinguishable* from the per-point path: same
outlier sets, same per-boundary ``memory_units()`` (evidence content), same
work accounting (``examined``, terminations, safe markings,
``distance_rows``).  Everything here runs both engines and compares.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    DetectorConfig,
    DynamicSOPDetector,
    KSkyRunner,
    OutlierQuery,
    Point,
    QueryGroup,
    SOPDetector,
    VectorizedSkybandEngine,
    WindowSpec,
    make_synthetic_points,
)
from repro.bench import build_workload, default_ranges
from repro.core.parser import parse_workload
from repro.streams.source import batches_by_boundary
from repro.streams.windows import COUNT, TIME
from repro.testing import use_reference_scans

from conftest import line_points


def _stream(n=1500, seed=9):
    return make_synthetic_points(n, dim=2, outlier_rate=0.04, seed=seed)


def _run_lockstep(group, points, **kwargs):
    """Drive batched and per-point detectors boundary-by-boundary, asserting
    per-boundary equality of outputs and evidence volume."""
    det_b = SOPDetector(group, refresh_strategy="batched", **kwargs)
    det_p = SOPDetector(group, refresh_strategy="per-point", **kwargs)
    for t, batch in batches_by_boundary(points, group.swift.slide,
                                        group.kind):
        out_b = det_b.step(t, batch)
        out_p = det_p.step(t, batch)
        assert out_b == out_p, f"outputs diverge at t={t}"
        assert det_b.memory_units() == det_p.memory_units(), (
            f"evidence volume diverges at t={t}"
        )
        assert det_b.tracked_points() == det_p.tracked_points()
    return det_b, det_p


# --------------------------------------------------------------- Table 1 grid


@pytest.mark.parametrize("spec", list("ABCDEFG"))
def test_table1_grid_equivalence(spec):
    group = build_workload(spec, n_queries=6, seed=17,
                           ranges=default_ranges())
    det_b, det_p = _run_lockstep(group, _stream())
    # identical work accounting, not just identical answers
    for key in ("ksky_runs", "points_examined", "early_terminations",
                "fully_safe_marked"):
        assert det_b.stats[key] == det_p.stats[key], key
    assert det_b.buffer.distance_rows == det_p.buffer.distance_rows
    # ... and the batched engine actually engaged
    assert det_b.stats["batched_scans"] > 0
    assert det_p.stats["batched_scans"] == 0
    assert det_b.buffer.kernel_calls < det_p.buffer.kernel_calls


@pytest.mark.parametrize("spec", ["A", "C", "G"])
def test_time_window_equivalence(spec):
    group = build_workload(spec, n_queries=5, seed=23,
                           ranges=default_ranges(kind=TIME))
    _run_lockstep(group, _stream())


@pytest.mark.parametrize("prefilter", ["none", "qn"])
@pytest.mark.parametrize("kind", [COUNT, TIME])
@pytest.mark.parametrize("spec", list("ABCDEFG"))
def test_memory_units_running_total_equals_recount(spec, kind, prefilter):
    """``memory_units()`` is a running total adjusted by every writer of
    the state table; after each boundary it must equal a recount.  (The
    lockstep suites cannot see a drift: the reference detector shares the
    same bookkeeping.)"""
    # windows short enough that points holding evidence expire
    ranges = replace(default_ranges(kind=kind), win=(300, 800),
                     fixed_win=500)
    group = build_workload(spec, n_queries=5, seed=17, ranges=ranges)
    det = SOPDetector(group, config=DetectorConfig(prefilter=prefilter))
    peak = 0
    for t, batch in batches_by_boundary(_stream(n=1500), group.swift.slide,
                                        group.kind):
        det.step(t, batch)
        recount = sum(st.entry_count() for st in det._states.values())
        assert det.memory_units() == recount, f"drift at t={t}"
        peak = max(peak, recount)
    assert peak > 0
    if prefilter != "none":
        assert det.profile.prefilter_pruned > 0


def test_warmup_partial_windows():
    """Streams shorter than the largest window: every boundary evaluates a
    partially filled window."""
    group = QueryGroup([
        OutlierQuery(r=300, k=3, window=WindowSpec(win=5000, slide=100)),
        OutlierQuery(r=900, k=8, window=WindowSpec(win=4000, slide=200)),
    ])
    _run_lockstep(group, _stream(n=900))


def test_crossover_and_ablation_flags():
    group = build_workload("A", n_queries=4, seed=5)
    stream = _stream(n=800)
    # a crossover above any batch size keeps everything on the per-point path
    det_hi = SOPDetector(group, refresh_strategy="batched",
                         batch_min_rows=10 ** 6)
    res_hi = det_hi.run(stream)
    assert det_hi.stats["batched_scans"] == 0
    det_off = SOPDetector(group, refresh_strategy="per-point")
    res_off = det_off.run(stream)
    assert det_off.stats["batched_scans"] == 0
    det_on = SOPDetector(group, refresh_strategy="batched",
                         batch_min_rows=1)
    res_on = det_on.run(stream)
    assert det_on.stats["batched_scans"] > 0
    assert res_hi.outputs == res_off.outputs == res_on.outputs


def test_ablation_interactions():
    """Batched mode composes with the paper's other ablations."""
    group = build_workload("C", n_queries=5, seed=31)
    stream = _stream(n=1000)
    for kwargs in (
        {"use_least_examination": False},
        {"use_safe_inliers": False},
        {"eager": False},
        {"chunk_size": 64},
    ):
        det_b, det_p = _run_lockstep(group, stream, **kwargs)
        assert det_b.stats["points_examined"] == det_p.stats["points_examined"]


# ------------------------------------------------------------- dynamic path


def test_dynamic_register_withdraw_equivalence():
    stream = _stream(n=1400)
    qs = [
        OutlierQuery(r=400, k=4, window=WindowSpec(win=300, slide=100)),
        OutlierQuery(r=900, k=7, window=WindowSpec(win=500, slide=100)),
    ]
    extra = OutlierQuery(r=1300, k=5, window=WindowSpec(win=400, slide=200))
    dets = [DynamicSOPDetector(qs, refresh_strategy=strategy)
            for strategy in ("batched", "per-point")]
    handle = {}
    slide = dets[0].swift.slide
    for t, batch in batches_by_boundary(stream, slide, qs[0].kind):
        outs = [d.step(t, batch) for d in dets]
        assert outs[0] == outs[1], f"dynamic outputs diverge at t={t}"
        assert dets[0].memory_units() == dets[1].memory_units()
        if t == 600:
            for d in dets:
                handle[d] = d.add_query(extra)
        if t == 1000:
            for d in dets:
                d.remove_query(handle[d])


# ----------------------------------------------------------- property-based


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.data(),
    n_points=st.integers(min_value=40, max_value=220),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)
def test_random_stream_equivalence(data, n_points, seed):
    """Random workloads over random 1-D streams: the two engines agree on
    every boundary output and every evidence count."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(0, 1000, size=n_points)
    points = line_points(values)
    n_queries = data.draw(st.integers(min_value=1, max_value=5))
    queries = []
    for _ in range(n_queries):
        win = data.draw(st.integers(min_value=2, max_value=12)) * 10
        slide = data.draw(st.sampled_from([10, 20, 30]))
        queries.append(OutlierQuery(
            r=data.draw(st.floats(min_value=1.0, max_value=400.0,
                                  allow_nan=False)),
            k=data.draw(st.integers(min_value=1, max_value=8)),
            window=WindowSpec(win=win, slide=min(slide, win)),
        ))
    group = QueryGroup(queries)
    _run_lockstep(group, points, batch_min_rows=1)


# ------------------------------------------------------- engine-level checks


@pytest.mark.parametrize("lo", [0, 75, 260])
def test_scan_batched_matches_per_point(small_group, lo):
    """One batched sweep equals the reference per-point runner row by
    row: entries, examined counts, termination (``lo=260`` is the empty
    range past the buffer top)."""
    from repro.core.point import get_metric
    from repro.streams.buffer import WindowBuffer

    plan = parse_workload(small_group)
    runner = KSkyRunner(plan, chunk_size=16)
    engine = VectorizedSkybandEngine(plan, chunk_size=16)
    buf = WindowBuffer(get_metric("euclidean"))
    buf.extend(_stream(n=260))
    rows = list(range(0, len(buf), 5))
    seqs = [buf.points[i].seq for i in rows]
    batched = engine.scan_batched(rows, seqs, buf, lo)
    for row, got in zip(rows, batched):
        p = buf.points[row]
        ref = runner.scan_new_arrivals(p.values, p.seq, buf, lo)
        assert got.examined == ref.examined, f"row {row}"
        assert got.terminated_early == ref.terminated_early, f"row {row}"
        assert list(got.lsky.entries()) == list(ref.lsky.entries()), (
            f"row {row}"
        )


def test_empty_template_terminates_at_first_boundary(small_group):
    """The degenerate empty sub-group template: the reference walk stops
    at its first insert, or at the first boundary check if the chunk has
    none.  The engine's folds (zero-selection rows, candidate-free runs)
    must not elide that check -- batched, grid-style subset and per-point
    scans alike."""
    from repro.core.point import get_metric
    from repro.streams.buffer import WindowBuffer

    plan = parse_workload(small_group)
    runner = KSkyRunner(plan, chunk_size=16)
    engine = VectorizedSkybandEngine(plan, chunk_size=16)
    runner._pending = engine._pending = []
    engine._sub_layers = engine._sub_ks = np.empty(0, dtype=np.int64)
    buf = WindowBuffer(get_metric("euclidean"))
    buf.extend(_stream(n=260))
    r_max = plan.grid.values[-1]

    def facts(res):
        return (list(res.lsky.entries()), res.examined,
                res.terminated_early, res.resolved_all)

    folded_runs = 0
    for lo in (0, 75):
        rows = list(range(0, len(buf), 5))
        want = [facts(runner.scan_new_arrivals(
            buf.points[i].values, buf.points[i].seq, buf, lo)) for i in rows]
        seqs = [buf.points[i].seq for i in rows]
        assert [facts(r) for r in engine.scan_batched(rows, seqs, buf, lo)
                ] == want
        assert [facts(engine.scan_new_arrivals(
            buf.points[i].values, buf.points[i].seq, buf, lo))
            for i in rows] == want
        for i, expect in zip(rows, want):
            near = np.flatnonzero(
                buf.distances_from(buf.points[i].values) <= r_max)
            near = near[near >= lo]
            folded_runs += not (near >= len(buf) - 16).any()
            got, = engine.scan_batched([i], [buf.points[i].seq], buf, lo,
                                       cand_idx=near)
            assert facts(got) == expect, f"row {i}"
    assert folded_runs  # some scan met a candidate-free first chunk


# ------------------------------------------------------------- observability


def test_refresh_profile_records_boundaries():
    group = build_workload("A", n_queries=4, seed=2)
    det = SOPDetector(group)
    res = det.run(_stream(n=1000))
    prof = det.profile
    assert prof.boundaries == res.boundaries
    assert prof.refresh_ns > 0
    assert prof.kernel_launches > 0
    assert prof.batch_rows > 0
    # python_insert_iters is the interpreted work actually spent (replays
    # + fallback visits), a strict subset of the logical scan; the bulk of
    # the inserts land as soa_insert_rows instead.
    assert 0 < prof.python_insert_iters <= det.stats["points_examined"]
    assert prof.soa_insert_rows > 0
    # the reference scans examine the same L candidates (the paper's
    # path-independent count) without touching the engine's counters
    ref = use_reference_scans(
        SOPDetector(build_workload("A", n_queries=4, seed=2)))
    ref.run(_stream(n=1000))
    assert ref.stats["points_examined"] == det.stats["points_examined"]
    assert ref.profile.python_insert_iters == 0
    assert ref.profile.soa_insert_rows == 0
    assert len(prof.samples) == prof.boundaries
    work = det.work_stats()
    for key in ("refresh_boundaries", "refresh_ns", "kernel_launches",
                "batch_rows", "python_insert_iters"):
        assert work[key] == prof.as_dict()[key]
    assert work["distance_rows"] == det.buffer.distance_rows


def test_evaluate_cache_reuses_flatten():
    """Due evaluations between mutations reuse the flattened arrays; any
    mutation (new batch, eviction, evidence change) invalidates them."""
    group = build_workload("A", n_queries=4, seed=2)
    det = SOPDetector(group)
    stream = _stream(n=1000)
    res = det.run(stream)
    rebuilds = det.stats["eval_flatten_rebuilds"]
    assert 0 < rebuilds <= det.profile.boundaries
    # repeated evaluation with no intervening mutation: zero extra rebuilds,
    # identical answers
    due = list(range(len(group.queries)))
    t = res.boundaries * det.swift.slide
    first = det._evaluate_due(due, t)
    mid = det.stats["eval_flatten_rebuilds"]
    second = det._evaluate_due(due, t)
    assert det.stats["eval_flatten_rebuilds"] == mid
    assert first == second
    # a new batch invalidates the cache
    last = stream[-1]
    det.step(t, [Point(seq=last.seq + 1, values=last.values,
                       time=last.time + 1.0)])
    det._evaluate_due(due, t)
    assert det.stats["eval_flatten_rebuilds"] > mid
