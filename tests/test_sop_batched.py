"""Detector-vs-reference refresh equivalence (the correctness gate of the
batched K-SKY engine).

Every scan a detector runs is a ``scan_batched`` tile sweep.  It must be
*indistinguishable* from the paper-literal per-point walk
(``repro.testing.use_reference_scans``: ``KSkyRunner`` per row): same
outlier sets, same per-boundary evidence arrays and ``memory_units()``,
same work accounting (``examined``, terminations, safe markings,
``distance_rows``).  Everything here runs both and compares.
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
    NaiveDetector,
    OutlierQuery,
    Point,
    QueryGroup,
    SOPDetector,
    VectorizedSkybandEngine,
    WindowSpec,
    make_synthetic_points,
)
from repro.bench import build_workload, default_ranges
from repro.core.lsky_soa import near_entries
from repro.core.parser import parse_workload
from repro.streams.source import batches_by_boundary
from repro.streams.windows import COUNT, TIME
from repro.testing import use_reference_scans

from conftest import ksky_facts, line_points, lockstep_reference, scan_rows


def _stream(n=1500, seed=9):
    return make_synthetic_points(n, dim=2, outlier_rate=0.04, seed=seed)


# --------------------------------------------------------------- Table 1 grid


@pytest.mark.parametrize("spec", list("ABCDEFG"))
def test_table1_grid_equivalence(spec):
    group = build_workload(spec, n_queries=6, seed=17,
                           ranges=default_ranges())
    det, ref = lockstep_reference(group, _stream())
    # every scan went through the batched kernels, none of the reference's
    assert det.stats["batched_scans"] == det.stats["ksky_runs"] > 0
    assert det.profile.batch_rows == det.stats["ksky_runs"]
    assert ref.stats["batched_scans"] == ref.profile.batch_rows == 0
    assert det.buffer.kernel_calls < ref.buffer.kernel_calls


@pytest.mark.parametrize("spec", ["A", "C", "G"])
def test_time_window_equivalence(spec):
    group = build_workload(spec, n_queries=5, seed=23,
                           ranges=default_ranges(kind=TIME))
    lockstep_reference(group, _stream())


@pytest.mark.parametrize("prefilter", ["none", "qn"])
@pytest.mark.parametrize("kind", [COUNT, TIME])
@pytest.mark.parametrize("spec", list("ABCDEFG"))
def test_memory_units_running_total_equals_recount(spec, kind, prefilter):
    """``memory_units()`` is the evidence table's length and
    ``tracked_points()`` a running count; after each boundary both must
    equal a recount over the per-point ``state_of`` views -- no entry may
    outlive its owner's row (expired or certified safe).  (The lockstep
    suites cannot see a drift: the reference detector shares the table.)"""
    # windows short enough that points holding evidence expire
    ranges = replace(default_ranges(kind=kind), win=(300, 800),
                     fixed_win=500)
    group = build_workload(spec, n_queries=5, seed=17, ranges=ranges)
    det = SOPDetector(group, config=DetectorConfig(prefilter=prefilter))
    peak = 0
    for t, batch in batches_by_boundary(_stream(n=1500), group.swift.slide,
                                        group.kind):
        det.step(t, batch)
        views = [det.state_of(s) for s in det.buffer.seq_array().tolist()]
        recount = sum(len(v.seqs) for v in views
                      if v is not None and v.seqs is not None)
        assert det.memory_units() == recount, f"drift at t={t}"
        assert det.tracked_points() == sum(v is not None for v in views)
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
    lockstep_reference(group, _stream(n=900))


def _one_at_a_time(kind, n=70):
    """Boundaries that force the two degenerate scan shapes: every batch
    is one point (a one-row from-scratch group), and every third boundary
    brings none (each survivor group scans the empty range
    ``lo == len(buffer)``)."""
    points = _stream(n=n, seed=4)
    if kind == TIME:
        points = [Point(seq=p.seq, values=p.values, time=float(p.seq))
                  for p in points]
    batches, feed = [], iter(points)
    for t in range(1, n + n // 2):
        batches.append((t, [] if t % 3 == 0 else [next(feed)]))
    return batches


@pytest.mark.parametrize("least", [True, False])
@pytest.mark.parametrize("kind", [COUNT, TIME])
def test_one_row_groups_and_empty_ranges(kind, least):
    """The degenerate scan shapes -- one-row groups and empty candidate
    ranges -- held to the reference and to brute force."""
    group = QueryGroup([
        OutlierQuery(r=300, k=2, window=WindowSpec(win=12, slide=1,
                                                   kind=kind)),
        OutlierQuery(r=900, k=4, window=WindowSpec(win=20, slide=2,
                                                   kind=kind)),
    ])
    batches = _one_at_a_time(kind)
    det, _ = lockstep_reference(group, batches, use_least_examination=least)
    assert det.stats["batched_scans"] == det.stats["ksky_runs"] > 0
    naive, sop = NaiveDetector(group), SOPDetector(
        group, use_least_examination=least)
    for t, batch in batches:
        assert sop.step(t, batch) == naive.step(t, batch), f"t={t}"


def test_ablation_interactions():
    """The engine composes with the paper's ablations."""
    group = build_workload("C", n_queries=5, seed=31)
    stream = _stream(n=1000)
    for kwargs in (
        {"use_least_examination": False},
        {"use_safe_inliers": False},
        {"eager": False},
        {"chunk_size": 64},
    ):
        lockstep_reference(group, stream, **kwargs)


# ------------------------------------------------------------- dynamic path


class _ReferenceDynamic(DynamicSOPDetector):
    """Dynamic SOP whose every rebuilt inner detector scans by reference."""

    def _rebuild(self):
        super()._rebuild()
        if self._inner is not None:
            use_reference_scans(self._inner)


def test_dynamic_register_withdraw_equivalence():
    stream = _stream(n=1400)
    qs = [
        OutlierQuery(r=400, k=4, window=WindowSpec(win=300, slide=100)),
        OutlierQuery(r=900, k=7, window=WindowSpec(win=500, slide=100)),
    ]
    extra = OutlierQuery(r=1300, k=5, window=WindowSpec(win=400, slide=200))
    dets = [DynamicSOPDetector(qs), _ReferenceDynamic(qs)]
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
    """Random workloads over random 1-D streams: engine and reference
    agree on every boundary output and every evidence array."""
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
    lockstep_reference(group, points)


# ------------------------------------------------------- engine-level checks


@pytest.mark.parametrize("lo", [0, 75, 260])
def test_scan_batched_matches_per_point(small_group, lo):
    """One batched sweep equals the reference per-point runner row by
    row: entries, examined counts, termination (``lo=260`` is the empty
    range past the buffer top) -- for a many-row group and for one-row
    groups, over count and time positions."""
    from repro.core.point import get_metric
    from repro.streams.buffer import WindowBuffer

    for kind in (COUNT, TIME):
        group = QueryGroup([
            OutlierQuery(r=q.r, k=q.k, window=WindowSpec(
                win=q.window.win, slide=q.window.slide, kind=kind))
            for q in small_group.queries])
        plan = parse_workload(group)
        runner = KSkyRunner(plan, chunk_size=16)
        engine = VectorizedSkybandEngine(plan, chunk_size=16)
        buf = WindowBuffer(get_metric("euclidean"))
        buf.extend([Point(seq=p.seq, values=p.values, time=p.seq / 2)
                    for p in _stream(n=260)])
        every_5th = list(range(0, len(buf), 5))
        for rows in [every_5th] + [[i] for i in every_5th[::7]]:
            batched = scan_rows(engine.scan_batched(rows, buf, lo))
            assert len(batched) == len(rows)
            for row, got in zip(rows, batched):
                p = buf.points[row]
                ref = runner.scan_new_arrivals(p.values, p.seq, buf, lo)
                assert got == ksky_facts(ref), f"{kind} row {row}"


def test_empty_template_terminates_at_first_boundary(small_group):
    """The degenerate empty sub-group template: the reference walk stops
    at its first insert, or at the first boundary check if the chunk has
    none.  The engine's zero-selection fold must not elide that check."""
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

    folded_runs = 0
    for lo in (0, 75):
        rows = list(range(0, len(buf), 5))
        want = [ksky_facts(runner.scan_new_arrivals(
            buf.points[i].values, buf.points[i].seq, buf, lo)) for i in rows]
        assert scan_rows(engine.scan_batched(rows, buf, lo)) == want
        for i, expect in zip(rows, want):
            near = np.flatnonzero(
                buf.distances_from(buf.points[i].values) <= r_max)
            folded_runs += not (near >= max(lo, len(buf) - 16)).any()
            assert scan_rows(engine.scan_batched([i], buf, lo)) == [expect], (
                f"row {i}")
    assert folded_runs  # some scan met a candidate-free first chunk


# ------------------------------------------------------- boundary exactness


def test_neighbor_exactly_at_r_max_counted():
    """A neighbor at distance exactly ``r`` decides inlier-vs-outlier
    (d <= r is a neighbor, Def. 1): engine, reference and brute force
    agree on the tie."""
    r = 100.0
    # pairs at exactly r, far from everything else
    values = [0.0, r, 1000.0, 1000.0 + r, 5000.0]
    points = [Point(seq=i, values=(v,)) for i, v in enumerate(values)]
    group = QueryGroup([OutlierQuery(
        r=r, k=1, window=WindowSpec(win=8, slide=4))])
    outs = SOPDetector(group).run(points).outputs
    assert outs == use_reference_scans(SOPDetector(group)).run(points).outputs
    assert outs == NaiveDetector(group).run(points).outputs
    # the isolated point is the lone outlier; the exact-r pairs are inliers
    last_t = max(t for _, t in outs)
    assert outs[(0, last_t)] == frozenset({4})

    # every layer boundary of a multi-layer group: candidates at exactly
    # each r and one a single ulp past r_max
    beyond = float(np.nextafter(400.0, np.inf))
    values = [0.0, 100.0, 250.0, -beyond,            # seqs 0-3
              10000.0, 10100.0, 10250.0, 9600.0,     # seqs 4-7
              50000.0]
    points = [Point(seq=i, values=(v,)) for i, v in enumerate(values)]
    window = WindowSpec(win=12, slide=4)
    group = QueryGroup([OutlierQuery(r=r, k=k, window=window)
                        for r, k in [(100.0, 1), (250.0, 2), (400.0, 3),
                                     (400.0, 1), (250.0, 4)]])
    plan = parse_workload(group)
    # the engine's near test and the grid's hash classify alike
    tie = np.asarray([[100.0, 250.0, 400.0, beyond]])
    assert plan.grid.layers_of(tie).tolist() == [[0, 1, 2, 3]]
    _, s_i, lay = near_entries(tie, np.asarray([-1]), np.asarray([400.0]),
                               plan.grid)
    assert s_i.tolist() == [1, 2, 3] and lay.tolist() == [2, 1, 0]
    outs = SOPDetector(group, config=DetectorConfig(chunk_size=3)).run(
        points).outputs
    assert outs == use_reference_scans(SOPDetector(
        group, config=DetectorConfig(chunk_size=3))).run(points).outputs
    assert outs == NaiveDetector(group).run(points).outputs
    last_t = max(t for _, t in outs)
    # r=400, k=3: seq 4 has its third neighbour at exactly 400, seq 0
    # only two -- its third sits one ulp beyond
    assert 4 not in outs[(2, last_t)] and 0 in outs[(2, last_t)]


# ------------------------------------------------------------- observability


def test_refresh_profile_records_boundaries():
    group = build_workload("A", n_queries=4, seed=2)
    det = SOPDetector(group)
    res = det.run(_stream(n=1000))
    prof = det.profile
    assert prof.boundaries == res.boundaries
    assert prof.refresh_ns > 0
    assert prof.kernel_launches > 0
    assert prof.batch_rows == det.stats["batched_scans"] == (
        det.stats["ksky_runs"])
    # python_insert_iters is the interpreted work actually spent (tiles
    # resolved + cadence-regime rows), far below the logical scan; the
    # inserts land as soa_insert_rows instead.
    assert 0 < prof.python_insert_iters <= det.stats["points_examined"]
    assert prof.soa_insert_rows > 0
    # the resolve consumed the near tile cells only: at least every
    # committed entry, at most every kernel cell
    assert prof.soa_insert_rows <= prof.near_candidates < (
        det.buffer.distance_rows)
    # distance_rows charges what the walk pays for; the tiles computed
    # at least that (wide tiles run past some rows' stops)
    assert det.buffer.distance_rows <= prof.kernel_cells == (
        det.buffer.kernel_cells)
    # the reference scans examine the same L candidates (the paper's
    # path-independent count) without touching the engine's counters
    ref = use_reference_scans(
        SOPDetector(build_workload("A", n_queries=4, seed=2)))
    ref.run(_stream(n=1000))
    assert ref.stats["points_examined"] == det.stats["points_examined"]
    assert ref.profile.python_insert_iters == 0
    assert ref.profile.soa_insert_rows == 0
    assert ref.profile.near_candidates == 0
    assert ref.profile.batch_rows == 0
    work = det.work_stats()
    for key in ("refresh_boundaries", "refresh_ns", "kernel_launches",
                "batch_rows", "python_insert_iters", "soa_insert_rows",
                "near_candidates", "kernel_cells"):
        assert work[key] == prof.as_dict()[key]
    assert work["distance_rows"] == det.buffer.distance_rows


def test_evaluate_reads_the_table():
    """Due evaluation reads the evidence table directly: every due query
    equals a per-point count over the ``state_of`` views, re-evaluating
    repeats it, and ``eval_flatten_rebuilds`` counts the evaluations of a
    non-empty window."""
    group = build_workload("A", n_queries=4, seed=2)
    det = SOPDetector(group)
    evaluations = 0
    for t, batch in batches_by_boundary(_stream(n=1000), group.swift.slide,
                                        group.kind):
        out = det.step(t, batch)
        due = group.due_members(t)
        if not due:
            continue
        for qi in due:
            q = group[qi]
            ws = max(0, t - q.win)
            m_q = det.plan.query_layers[qi]
            want = set()
            for p in det.buffer.points:
                st = det.state_of(p.seq)
                if st.fully_safe or det.position(p) < ws:
                    continue
                if np.count_nonzero((st.layers <= m_q) & (st.poss >= ws)
                                    ) < q.k:
                    want.add(p.seq)
            assert out[qi] == want, f"query {qi} at t={t}"
        assert det._evaluate_due(due, t) == out
        evaluations += 2 * bool(len(det.buffer))
    assert det.stats["eval_flatten_rebuilds"] == evaluations > 0
