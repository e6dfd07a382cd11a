"""The scan engine against the reference K-SKY: equivalence gates.

Three layers of defense, mirroring the house lockstep style:

* the tile resolve (`insert_limits` + `tile_insert_mask` + `tile_stops`)
  is checked against the literal sequential loop driving the real
  ``_Resolution``;
* the engine's ``scan_batched`` is driven against ``KSkyRunner`` over
  hypothesis-chosen workloads, buffers, chunk sizes, row groups (one-row
  groups included) and suffixes (the empty one included);
* full-detector lockstep runs every Table 1 spec side by side with a
  detector whose scans are the reference runner's
  (``repro.testing.use_reference_scans``), asserting per-boundary
  output, evidence, and work-stat equality -- including crash+resume
  through checkpoints.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    DetectorConfig,
    KSkyRunner,
    SOPDetector,
    VectorizedSkybandEngine,
    make_synthetic_points,
    parse_workload,
)
from repro.bench import build_workload, default_ranges
from repro.checkpoint import load_checkpoint, save_checkpoint
from repro.core.ksky import _Resolution
from repro.core.lsky_soa import insert_limits, tile_insert_mask, tile_stops
from repro.streams.source import batches_by_boundary
from repro.streams.windows import COUNT, TIME
from repro.testing import ReferenceRefresh, use_reference_scans

from conftest import ksky_facts, lockstep_reference, scan_rows

# ------------------------------------------------------------- tile resolve


class _Layers:
    """What ``_Resolution`` reads of a skyband: the sorted layer multiset."""

    def __init__(self, counts):
        self._sorted_layers = [m for m, c in enumerate(counts)
                               for _ in range(c)]

    def dominator_count(self, layer):
        return bisect_right(self._sorted_layers, layer)


def _sequential_row(row, counts, pending, allowed, k_max):
    """One row of one chunk, literally: Alg. 2's insert test, ``insort``,
    ``_Resolution.on_insert`` per insert, ``check()`` at the chunk end.
    Returns ``(inserted columns, terminating column or None, pending)``."""
    state = _Layers(counts)
    sl = state._sorted_layers
    resolution = _Resolution(None, pending)
    inserted = []
    for s, m in enumerate(row):
        if m >= len(counts):
            continue  # beyond r_max, or the row's own column
        c = bisect_right(sl, m)
        if c < k_max and m <= allowed[c]:
            insort(sl, m)
            inserted.append(s)
            if resolution.on_insert(state, m):
                return inserted, s, resolution.pending
    resolution.check(state)
    return inserted, None, resolution.pending


@st.composite
def _plan_shape(draw, max_k):
    """``(n_layers, k_max, allowed)`` as a ``SkybandPlan`` would hold
    them: ``allowed_layer`` is a suffix max over sub-groups, i.e. any
    nonincreasing step function of the dominator count -- drawn here
    through its per-layer limits."""
    n_layers = draw(st.integers(1, 5))
    k_max = draw(st.integers(1, max_k))
    limits = [k_max] + sorted(
        draw(st.lists(st.integers(0, k_max), min_size=n_layers - 1,
                      max_size=n_layers - 1)), reverse=True)
    allowed = [max(m for m in range(n_layers) if limits[m] > c)
               for c in range(k_max)]
    assert insert_limits(allowed, k_max, n_layers).tolist() == limits
    return n_layers, k_max, allowed


@st.composite
def _resolve_case(draw):
    n_layers, k_max, allowed = draw(_plan_shape(max_k=8))
    m_scan = draw(st.lists(st.integers(0, n_layers - 1), max_size=60))
    counts = draw(st.lists(st.integers(0, 4), min_size=n_layers,
                           max_size=n_layers))
    return n_layers, k_max, allowed, m_scan, counts


@settings(max_examples=200, deadline=None)
@given(_resolve_case())
def test_resolve_matches_sequential_loop(case):
    """The insert mask of a one-row tile is the sequential loop's insert
    set when nothing terminates it (no sub-group pending -> never
    consulted)."""
    n_layers, k_max, allowed, m_scan, counts = case
    limits = insert_limits(allowed, k_max, n_layers)
    L = np.asarray(m_scan, dtype=np.uint8)[None, :]
    c_arr = np.asarray(counts, dtype=np.int64)
    ins = tile_insert_mask(L, np.cumsum(c_arr)[None, :], limits)
    assert ins.shape == L.shape
    expect, _, _ = _sequential_row(m_scan, counts, [(0, 10 ** 6)], allowed,
                                   k_max)
    assert np.flatnonzero(ins[0]).tolist() == expect
    # the input counts must not be mutated by the resolve
    assert c_arr.tolist() == counts


def test_insert_limits_closed_form():
    # allowed = [2, 2, 1, 0]: layer 0 admitted while c < 4 (= k_max),
    # layer 1 while c < 3, layer 2 while c < 2, layer 3 never
    limits = insert_limits([2, 2, 1, 0], k_max=4, n_layers=4)
    assert limits.tolist() == [4, 3, 2, 0]


@st.composite
def _tile_case(draw):
    """A reachable chunk-start state for every row of one tile: stored
    layer counts, a pending subset whose members are all unresolved under
    them, candidate layers (``n_layers`` = beyond ``r_max``) and an
    optional own column.  Half the cases are *hot* -- wide rows of
    near-certain inserts under nine or more pending sub-groups -- so the
    ``_CHECK_EVERY`` cadence is crossed, not just entered."""
    hot = draw(st.booleans())
    if hot:
        n_layers = draw(st.integers(1, 2))
        k_max = draw(st.integers(40, 90))
        allowed = [n_layers - 1] * k_max
    else:
        n_layers, k_max, allowed = draw(_plan_shape(max_k=80))
    # sub-groups have distinct k; up to 20 of them so both the exact and
    # the cadence regime are hit -- or none, the degenerate template
    ks = draw(st.sets(st.integers(1, k_max), min_size=9 if hot else 0,
                      max_size=20))
    template = [(draw(st.integers(0, n_layers - 1)), k)
                for k in sorted(ks)]
    n_rows = draw(st.integers(1, 6))
    width = draw(st.integers(64 if hot else 1, 96))
    rows = []
    for _ in range(n_rows):
        counts = draw(st.lists(st.integers(0, 1 if hot else 3),
                               min_size=n_layers, max_size=n_layers))
        csum = np.cumsum(counts)
        alive = [g for g, (d, k) in enumerate(template) if csum[d] < k]
        if not hot and draw(st.booleans()):
            alive = [g for g in alive if draw(st.booleans())]
        layers = draw(st.lists(
            st.integers(0, n_layers - 1 if hot else n_layers),
            min_size=width, max_size=width))
        own = draw(st.one_of(st.none(), st.integers(0, width - 1)))
        if own is not None:
            layers[own] = n_layers
        rows.append((counts, alive, layers))
    return n_layers, k_max, allowed, template, rows


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(_tile_case())
def test_tile_resolve_matches_literal_loop(case):
    """Tile mask + closed-form stops == the literal loop, row by row: same
    inserted columns, same terminating column, same final ``pending``
    (template order preserved)."""
    n_layers, k_max, allowed, template, rows = case
    limits = insert_limits(allowed, k_max, n_layers)
    sub_layers = np.asarray([d for d, _ in template], dtype=np.int64)
    sub_ks = np.asarray([k for _, k in template], dtype=np.int64)
    L = np.asarray([layers for _, _, layers in rows], dtype=np.uint8)
    csum = np.cumsum([counts for counts, _, _ in rows], axis=1)
    alive = np.zeros((len(rows), len(template)), dtype=bool)
    for r, (_, members, _) in enumerate(rows):
        alive[r, members] = True
    width = L.shape[1]

    ins = tile_insert_mask(L, csum, limits)
    stop, pending = tile_stops(L, ins, csum, alive, sub_layers, sub_ks)
    assert ins.shape == L.shape and pending.shape == alive.shape

    for r, (counts, members, layers) in enumerate(rows):
        want_ins, want_stop, want_pending = _sequential_row(
            layers, counts, [template[g] for g in members], allowed, k_max)
        cut = int(stop[r])
        assert (cut if cut < width else None) == want_stop
        assert np.flatnonzero(ins[r, :cut + 1]).tolist() == want_ins
        assert [template[g] for g in np.flatnonzero(pending[r])] == (
            want_pending)


@pytest.mark.parametrize("ks,want_stop,want_left", [
    # 12 pending at insert 32, only k=70 at insert 64: the exact rule takes
    # over there and stops at the 70th insert
    (list(range(33, 44)) + [70], 69, 0),
    # all 12 resolve between the checks at 32 and 64: nobody looks until
    # the check at insert 64, so the scan runs on to it
    (list(range(33, 45)), 63, 0),
    # the 60 candidates end before the second check; the chunk-end check
    # finds k=70 still pending
    (list(range(33, 44)) + [70], None, 1),
])
def test_tile_stops_follow_the_check_cadence(ks, want_stop, want_left):
    """More than ``_EXACT_LIMIT`` pending sub-groups are only looked at
    every ``_CHECK_EVERY`` inserts."""
    assert len(ks) > _Resolution._EXACT_LIMIT
    assert _Resolution._CHECK_EVERY == 32
    k_max, width = 70, (96 if want_stop is not None else 60)
    template = [(0, k) for k in ks]
    limits = insert_limits([0] * k_max, k_max, 1)
    L = np.zeros((1, width), dtype=np.uint8)
    csum = np.zeros((1, 1), dtype=np.int64)
    ins = tile_insert_mask(L, csum, limits)
    stop, pending = tile_stops(
        L, ins, csum, np.ones((1, len(ks)), dtype=bool),
        np.zeros(len(ks), dtype=np.int64), np.asarray(ks, dtype=np.int64))
    assert (int(stop[0]) if stop[0] < width else None) == want_stop
    assert int(pending.sum()) == want_left
    _, lit_stop, lit_pending = _sequential_row(
        [0] * width, [0], template, [0] * k_max, k_max)
    assert lit_stop == want_stop and len(lit_pending) == want_left


# --------------------------------------------- full-detector lockstep


def _stream(n=1500, seed=9):
    return make_synthetic_points(n, dim=2, outlier_rate=0.04, seed=seed)


def _reference_detector(group, config=None):
    """A detector whose scans are the paper-literal ``KSkyRunner``'s."""
    return use_reference_scans(SOPDetector(group, config=config))


@pytest.mark.parametrize("spec", list("ABCDEFG"))
def test_table1_reference_lockstep_grid(spec):
    group = build_workload(spec, n_queries=6, seed=17,
                           ranges=default_ranges())
    # small chunks: every scan crosses many tile boundaries
    det, ref = lockstep_reference(group, _stream(), chunk_size=64)
    assert isinstance(ref.refresh_engine, ReferenceRefresh)
    # the engine did the work in arrays, not one interpreted iteration
    # per candidate; the reference never touches the engine's counters
    assert det.profile.soa_insert_rows > 0
    assert 0 < det.profile.python_insert_iters < det.stats["points_examined"]
    assert det.profile.batch_rows == det.stats["ksky_runs"]
    assert ref.profile.soa_insert_rows == 0
    assert ref.profile.python_insert_iters == 0


@pytest.mark.parametrize("spec", ["B", "E"])
def test_reference_lockstep_time_windows(spec):
    group = build_workload(spec, n_queries=5, seed=23,
                           ranges=default_ranges(kind=TIME))
    lockstep_reference(group, _stream(n=1000))


def test_checkpoint_crash_resume(tmp_path):
    """Half-run a detector, checkpoint, restore, finish: identical to an
    uninterrupted run AND to an uninterrupted reference run."""
    group = build_workload("D", n_queries=5, seed=31,
                           ranges=default_ranges())
    points = _stream(n=1200, seed=13)
    config = DetectorConfig(chunk_size=64)
    batches = list(batches_by_boundary(points, group.swift.slide,
                                       group.kind))
    full = SOPDetector(group, config=config).run(points)
    assert full.outputs == _reference_detector(
        group, config).run(points).outputs

    det = SOPDetector(group, config=config)
    outputs = {}
    half = len(batches) // 2
    for t, batch in batches[:half]:
        for qi, seqs in det.step(t, batch).items():
            outputs[(qi, t)] = seqs
    path = tmp_path / "soa.ckpt"
    save_checkpoint(det, batches[half - 1][0], path)
    restored, last_t = load_checkpoint(path)
    assert last_t == batches[half - 1][0]
    # the config rode the checkpoint header
    assert restored.config == config
    for t, batch in batches[half:]:
        for qi, seqs in restored.step(t, batch).items():
            outputs[(qi, t)] = seqs
    assert outputs == {(qi, t): seqs
                       for (qi, t), seqs in full.outputs.items()}


# ------------------------------------------------------ engine-level scan


@st.composite
def _scan_case(draw):
    spec = draw(st.sampled_from("ABC"))
    kind = draw(st.sampled_from([COUNT, TIME]))
    n_queries = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 50))
    chunk = draw(st.sampled_from([3, 7, 16, 64, 256]))
    n_points = draw(st.integers(2, 90))
    stream_seed = draw(st.integers(0, 50))
    # the row group: one evaluated point, or any subset of the buffer
    rows = draw(st.one_of(
        st.lists(st.integers(0, n_points - 1), min_size=1, max_size=1),
        st.lists(st.integers(0, n_points - 1), min_size=1, max_size=12,
                 unique=True).map(sorted)))
    # any suffix, the empty one (``lo == len(buffer)``) included
    new_from = draw(st.one_of(st.integers(0, n_points),
                              st.just(n_points)))
    return (spec, kind, n_queries, seed, chunk, n_points, stream_seed, rows,
            new_from)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_scan_case())
def test_scan_batched_engine_lockstep(case):
    """``scan_batched`` is bit-identical, row by row, to the ``KSkyRunner``
    reference: same skyband entries, examined counts and termination,
    across chunk boundaries, group sizes (one-row groups
    included), the whole window and arbitrary suffixes (the empty one
    included), count and time positions -- at equal ``distance_rows``."""
    (spec, kind, n_queries, seed, chunk, n_points, stream_seed, rows,
     new_from) = case
    group = build_workload(spec, n_queries=n_queries, seed=seed,
                           ranges=default_ranges(kind=kind))
    plan = parse_workload(group)
    runner = KSkyRunner(plan, chunk_size=chunk)
    engine = VectorizedSkybandEngine(plan, chunk_size=chunk)
    det = SOPDetector(group)  # buffer factory only: metric + kernels
    buf = det.buffer
    buf.extend(make_synthetic_points(n_points, dim=2, outlier_rate=0.1,
                                     seed=stream_seed))

    for lo in (0, new_from):
        before = buf.distance_rows
        got = scan_rows(engine.scan_batched(rows, buf, lo))
        batched_rows = buf.distance_rows - before
        want = [ksky_facts(runner.scan_new_arrivals(
            buf.points[i].values, buf.points[i].seq, buf, lo)) for i in rows]
        assert got == want
        assert batched_rows == buf.distance_rows - before - batched_rows

    # Alg. 1 lines 1-2 (a new point searches the window from scratch) is
    # the lo=0 scan
    p = buf.points[rows[0]]
    assert scan_rows(engine.scan_batched(rows[:1], buf, 0)) == [
        ksky_facts(runner.run_new_point(p.values, p.seq, buf))]


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=st.sampled_from("ABCDEFG"), seed=st.integers(0, 30),
       stream_seed=st.integers(0, 30))
def test_detector_hypothesis_lockstep(spec, seed, stream_seed):
    """Full-detector lockstep: hypothesis picks the workload and stream,
    ``lockstep_reference`` asserts identical outputs, evidence, memory,
    and work stats at every boundary."""
    group = build_workload(spec, n_queries=4, seed=seed,
                           ranges=default_ranges())
    lockstep_reference(group, _stream(n=400, seed=stream_seed))


@pytest.mark.parametrize("shards,backend",
                         [(2, "serial"), (2, "process"), (1, "serial"),
                          (4, "serial"), (2, "supervised")])
def test_sharded_reference_equivalence(shards, backend):
    """A sharded runtime of production detectors equals a sharded runtime
    whose every shard scans with the reference runner."""
    from repro import QueryGroup, Runtime, compare_outputs

    group = build_workload("C", n_queries=4, seed=5,
                           ranges=default_ranges())
    points = make_synthetic_points(800, dim=2, outlier_rate=0.05, seed=23)
    config = DetectorConfig(shards=shards, backend=backend)

    def run(factory):
        runtime = Runtime(QueryGroup(list(group.queries)),
                          factory=partial(factory, config=config),
                          config=config)
        return runtime.run(points).outputs

    try:
        got = run(SOPDetector)
        want = run(_reference_detector)
    except OSError as exc:  # pragma: no cover - restricted sandboxes
        pytest.skip(f"process pool unavailable: {exc}")
    diffs = compare_outputs(want, got)
    assert not diffs, "\n".join(diffs[:10])
