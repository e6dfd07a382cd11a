"""The scan engine against the reference K-SKY: equivalence gates.

Three layers of defense, mirroring the house lockstep style:

* the tile resolve (`near_entries` + `resolve_entries`) is checked
  against the literal sequential loop driving the real ``_Resolution``
  over plan-reachable states, and the two plan invariants its closed
  form rests on are pinned over Table 1 and random plans;
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
    OutlierQuery,
    QueryGroup,
    SOPDetector,
    VectorizedSkybandEngine,
    WindowSpec,
    make_synthetic_points,
    parse_workload,
    points_from_array,
)
from repro.bench import ScaledRanges, build_workload, default_ranges
from repro.checkpoint import load_checkpoint, save_checkpoint
from repro.core.ksky import _Resolution
from repro.core.lsky_soa import insert_limits, near_entries, resolve_entries
from repro.streams.source import batches_by_boundary
from repro.streams.windows import COUNT, TIME
from repro.testing import ReferenceRefresh, use_reference_scans

from conftest import ksky_facts, lockstep_reference, scan_rows

# ------------------------------------------------------------- tile resolve

#: the r grid of the drawn plans (layer ``m`` is ``GRID[m]``)
GRID = (100.0, 250.0, 400.0, 700.0, 1000.0)


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


def _group(members):
    """A workload from ``{k: member layers}``: one query per ``(r, k)``."""
    return QueryGroup([
        OutlierQuery(r=GRID[m], k=k, window=WindowSpec(win=10, slide=5))
        for k, layers in sorted(members.items()) for m in sorted(layers)])


@st.composite
def _plans(draw, hot=False):
    """A plan as the parser builds it: distinct ``k`` sub-groups (up to
    20), each over a set of ``r`` layers, every layer some query's ``r``
    -- so ``allowed_layer`` is what ``SkybandPlan._build_allowed_layers``
    derives, not drawn beside the template.  *Hot* plans have at most two
    layers, ``k_max`` in 40-90 and nine or more sub-groups: the
    ``_CHECK_EVERY`` cadence regime."""
    n_layers = draw(st.integers(1, 2 if hot else len(GRID)))
    if hot:
        k_max = draw(st.integers(40, 90))
        ks = draw(st.sets(st.integers(1, k_max - 1), min_size=8,
                          max_size=19)) | {k_max}
    else:
        ks = draw(st.sets(st.integers(1, 80), min_size=1, max_size=20))
    ks = sorted(ks)
    members = {k: draw(st.sets(st.integers(0, n_layers - 1), min_size=1))
               for k in ks}
    for m in range(n_layers):
        if not any(m in layers for layers in members.values()):
            members[draw(st.sampled_from(ks))].add(m)
    return parse_workload(_group(members))


def _reached(plan, prefix):
    """The stored layer counts a scan holds after inserting from
    ``prefix`` (earlier chunks' candidate layers) into an empty skyband,
    and the template indexes still pending -- a state the engine reaches,
    or ``None`` where the prefix already resolved every sub-group (that
    scan has terminated)."""
    counts = [0] * plan.n_layers
    for m in prefix:
        c = sum(counts[:m + 1])
        if c < plan.k_max and m <= plan.allowed_layer[c]:
            counts[m] += 1
    csum = np.cumsum(counts)
    alive = [g for g, sg in enumerate(plan.subgroups)
             if csum[sg.min_layer] < sg.k]
    return (counts, alive) if alive else None


@st.composite
def _tile_case(draw):
    """A plan, then a reachable chunk-start state for every row of one
    tile and the tile's distances: each candidate at a drawn layer --
    exactly at its ``r`` or strictly inside the layer -- beyond ``r_max``,
    or the row's own point (distance 0).  Half the cases are *hot* -- wide
    rows of near-certain inserts under nine or more pending sub-groups --
    so the ``_CHECK_EVERY`` cadence is crossed, not just entered."""
    hot = draw(st.booleans())
    plan = draw(_plans(hot=hot))
    n_layers = plan.n_layers
    r_max = GRID[n_layers - 1]
    n_rows = draw(st.integers(1, 6))
    width = draw(st.integers(64 if hot else 1, 96))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = []
    for _ in range(n_rows):
        prefix = draw(st.lists(st.integers(0, n_layers - 1),
                               max_size=3 if hot else 40))
        state = _reached(plan, prefix) or _reached(plan, [])
        layers = draw(st.lists(
            st.integers(0, n_layers - 1 if hot else n_layers),
            min_size=width, max_size=width))
        dists = np.empty(width)
        for col, m in enumerate(layers):
            if m == n_layers:
                dists[col] = np.nextafter(r_max, np.inf) * (1 + rng.random())
            elif rng.random() < 0.3:
                dists[col] = GRID[m]
            else:
                lo = GRID[m - 1] if m else 0.0
                dists[col] = lo + (GRID[m] - lo) * (1 - rng.random())
        own = draw(st.one_of(st.just(-1), st.integers(0, width - 1)))
        if own >= 0:
            layers[own] = n_layers
            dists[own] = 0.0
        rows.append((state, layers, dists, own))
    # the engine's reach (the largest layer under k_max stored dominators)
    # or plain r_max: entries beyond the reach are never inserted, so
    # the resolve must give the same answer either way
    full_reach = draw(st.booleans())
    return plan, rows, full_reach


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(_tile_case())
def test_entry_resolve_matches_literal_loop(case):
    """``near_entries`` + ``resolve_entries`` == the literal loop, row by
    row: same inserted columns, same terminating column, same final
    ``pending`` (template order preserved)."""
    plan, rows, full_reach = case
    template = [(sg.min_layer, sg.k) for sg in plan.subgroups]
    limits = insert_limits(plan.allowed_layer, plan.k_max, plan.n_layers)
    dists = np.asarray([d for _, _, d, _ in rows])
    own = np.asarray([o for _, _, _, o in rows])
    csum = np.cumsum([counts for (counts, _), _, _, _ in rows], axis=1)
    rank = plan.subgroup_ks - csum[:, plan.subgroup_min_layers]
    for r, ((_, members), _, _, _) in enumerate(rows):
        assert np.flatnonzero(rank[r] > 0).tolist() == members
    reach = np.asarray([
        max((GRID[m] for m in range(plan.n_layers)
             if full_reach or c[m] < plan.k_max), default=-np.inf)
        for c in csum])
    width = dists.shape[1]

    r_i, s_i, lay = near_entries(dists, own, reach, plan.grid)
    ins, stop, pending = resolve_entries(
        r_i, s_i, lay, width, csum, rank, limits, plan.subgroup_min_layers)
    assert ins.shape == r_i.shape and pending.shape == rank.shape

    for r, ((counts, members), layers, _, _) in enumerate(rows):
        want_ins, want_stop, want_pending = _sequential_row(
            layers[::-1], counts, [template[g] for g in members],
            plan.allowed_layer, plan.k_max)
        assert (int(stop[r]) if stop[r] < width else None) == want_stop
        assert s_i[ins & (r_i == r)].tolist() == want_ins
        assert [template[g] for g in np.flatnonzero(pending[r])] == (
            want_pending)


def test_insert_limits_closed_form():
    # allowed = [2, 2, 1, 0]: layer 0 admitted while c < 4 (= k_max),
    # layer 1 while c < 3, layer 2 while c < 2, layer 3 never
    limits = insert_limits([2, 2, 1, 0], k_max=4, n_layers=4)
    assert limits.tolist() == [4, 3, 2, 0]


def _assert_closed_form_invariants(plan):
    """The two plan facts the entry resolve rests on: layers close
    top-down (``limit`` nonincreasing) and every sub-group resolves
    before its ``min_layer`` closes (``limit(min_layer) >= k``)."""
    limits = insert_limits(plan.allowed_layer, plan.k_max, plan.n_layers)
    assert (np.diff(limits) <= 0).all(), limits
    for sg in plan.subgroups:
        assert limits[sg.min_layer] >= sg.k, (sg, limits)


@pytest.mark.parametrize("spec", list("ABCDEFG"))
@pytest.mark.parametrize("seed", [0, 7, 17, 31])
def test_table1_plans_close_top_down(spec, seed):
    for n_queries in (4, 6, 20):
        _assert_closed_form_invariants(parse_workload(build_workload(
            spec, n_queries=n_queries, seed=seed, ranges=default_ranges())))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_plans(), _plans(hot=True)))
def test_random_plans_close_top_down(plan):
    _assert_closed_form_invariants(plan)


_ONE_LAYER = {k: {0} for k in [*range(33, 44), 70]}


@pytest.mark.parametrize("ks,want_stop,want_left", [
    # 12 pending at insert 32, only k=70 at insert 64: the exact rule takes
    # over there and stops at the 70th insert
    (_ONE_LAYER, 69, 0),
    # k = 33..44 at layer 1, k = 1 at layer 0 (both layers admit 44): 44
    # layer-1 candidates, then layer-0 ones.  All 13 resolve by insert 45,
    # strictly between the checks at 32 and 64, and layer 0 keeps
    # admitting -- nobody looks until the check at insert 64, so the scan
    # runs on to it (the exact rule would stop at position 44)
    ({1: {0}, **{k: {1} for k in range(33, 45)}}, 63, 0),
    # the 60 candidates end before the second check; the chunk-end check
    # finds k=70 still pending
    (_ONE_LAYER, None, 1),
])
def test_tile_stops_follow_the_check_cadence(ks, want_stop, want_left):
    """More than ``_EXACT_LIMIT`` pending sub-groups are only looked at
    every ``_CHECK_EVERY`` inserts: where a row's scan stops, and what
    stays pending, follow the checks.  ``ks`` maps each ``k`` to its
    layers; the row holds ``k_max`` candidates at the plan's top layer,
    then layer-0 ones."""
    assert len(ks) > _Resolution._EXACT_LIMIT
    assert _Resolution._CHECK_EVERY == 32
    plan = parse_workload(_group(ks))
    width, n_layers = (96 if want_stop is not None else 60), plan.n_layers
    row = ([n_layers - 1] * plan.k_max + [0] * width)[:width]
    # ``row`` is in scan order: the tile holds it reversed, each candidate
    # mid-layer
    mid = [GRID[0] / 2] + [(a + b) / 2 for a, b in zip(GRID, GRID[1:])]
    dists = np.asarray([mid[m] for m in row[::-1]])[None, :]
    csum = np.zeros((1, n_layers), dtype=np.int32)
    r_i, s_i, lay = near_entries(dists, np.asarray([-1]),
                                 np.asarray([GRID[n_layers - 1]]), plan.grid)
    ins, stop, pending = resolve_entries(
        r_i, s_i, lay, width, csum, plan.subgroup_ks[None, :],
        insert_limits(plan.allowed_layer, plan.k_max, n_layers),
        plan.subgroup_min_layers)
    assert (int(stop[0]) if stop[0] < width else None) == want_stop
    assert int(pending.sum()) == want_left
    assert int(ins.sum()) == (width if want_stop is None else want_stop + 1)
    template = [(sg.min_layer, sg.k) for sg in plan.subgroups]
    _, lit_stop, lit_pending = _sequential_row(
        row, [0] * n_layers, template, plan.allowed_layer, plan.k_max)
    assert lit_stop == want_stop and len(lit_pending) == want_left


# ------------------------------------------------------------ wide tiles


def _chunked_literal(row, counts, pending, allowed, k_max, chunk):
    """``_sequential_row`` one logical chunk of ``chunk`` candidates at a
    time: stored layers and pending sub-groups carry over, the
    ``_CHECK_EVERY`` count restarts after each chunk-end ``check()``, and
    a check that resolves everything ends the scan at its chunk's bottom.
    Returns what ``resolve_entries`` reports for a ``len(row)``-wide
    tile: inserted columns, the terminating column (or the inner chunk's
    last one; ``None`` past the tile) and the final ``pending``."""
    counts = list(counts)
    inserted = []
    for a in range(0, len(row), chunk):
        ins, stop, pending = _sequential_row(row[a:a + chunk], counts,
                                             pending, allowed, k_max)
        inserted += [a + s for s in ins]
        for s in ins:
            counts[row[a + s]] += 1
        if stop is not None:
            return inserted, a + stop, pending
        if not pending and a + chunk < len(row):
            return inserted, a + chunk - 1, pending
    return inserted, None, pending


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(_tile_case(), st.data())
def test_wide_tile_resolve_matches_chunked_literal_loop(case, data):
    """A tile of several logical chunks resolves as the literal loop
    walking them one by one: same inserts, stops and ``pending``, with
    the template and with the degenerate empty one.  Hot cases put the
    cadence regime's checks on both sides of chunk ends."""
    plan, rows, full_reach = case
    width = len(rows[0][2])
    chunk = data.draw(st.integers(1, width), label="chunk")
    template = [(sg.min_layer, sg.k) for sg in plan.subgroups]
    limits = insert_limits(plan.allowed_layer, plan.k_max, plan.n_layers)
    csum = np.cumsum([counts for (counts, _), _, _, _ in rows], axis=1)
    reach = np.asarray([
        max((GRID[m] for m in range(plan.n_layers)
             if full_reach or c[m] < plan.k_max), default=-np.inf)
        for c in csum])
    r_i, s_i, lay = near_entries(
        np.asarray([d for _, _, d, _ in rows]),
        np.asarray([o for _, _, _, o in rows]), reach, plan.grid)
    empty = np.empty(0, dtype=np.int64)
    for sub_layers, sub_ks in ((plan.subgroup_min_layers, plan.subgroup_ks),
                               (empty, empty)):
        rank = sub_ks - csum[:, sub_layers]
        ins, stop, pending = resolve_entries(
            r_i, s_i, lay, width, csum, rank, limits, sub_layers, chunk)
        for r, ((counts, members), layers, _, _) in enumerate(rows):
            want_ins, want_stop, want_pending = _chunked_literal(
                layers[::-1], counts,
                [template[g] for g in members] if len(sub_ks) else [],
                plan.allowed_layer, plan.k_max, chunk)
            assert (int(stop[r]) if stop[r] < width else None) == want_stop
            assert s_i[ins & (r_i == r)].tolist() == want_ins
            assert [template[g] for g in np.flatnonzero(pending[r])] == (
                want_pending)


@pytest.fixture
def tile_log(monkeypatch):
    """Every ``scan_batched`` call's kernel tiles as ``(rows, cols)``,
    one list per call (the reference runner never builds a tile)."""
    from repro.streams.buffer import WindowBuffer

    calls = []
    scan, kernel = (VectorizedSkybandEngine.scan_batched,
                    WindowBuffer.pairwise_block)

    def scan_batched(self, rows, buffer, lo):
        calls.append([])
        return scan(self, rows, buffer, lo)

    def pairwise_block(self, queries, lo=0, hi=None):
        calls[-1].append((len(queries), (len(self) if hi is None else hi)
                          - lo))
        return kernel(self, queries, lo, hi)

    monkeypatch.setattr(VectorizedSkybandEngine, "scan_batched",
                        scan_batched)
    monkeypatch.setattr(WindowBuffer, "pairwise_block", pairwise_block)
    return calls


def _assert_tiles_capped(calls, chunk):
    """A group's first tile is one chunk; each later one spans twice the
    last tile's chunks or fewer, and never more cells than the first."""
    for tiles in calls:
        if not tiles:
            continue
        rows0, cols0 = tiles[0]
        assert cols0 <= chunk
        span = 1
        for rows, cols in tiles[1:]:
            assert rows * cols <= rows0 * cols0
            assert cols <= 2 * span * chunk
            span = -(-cols // chunk)


def test_wide_tiles_exact_regime_lockstep(tile_log):
    """Long windows, few sub-groups, small chunks: the outlier rows of a
    group run through three or more doubled tiles, entry for entry equal
    to the reference walk."""
    group = QueryGroup([
        OutlierQuery(r=r, k=k, window=WindowSpec(win=1200, slide=300))
        for r, k in [(300.0, 4), (500.0, 8), (900.0, 6)]])
    assert len(parse_workload(group).subgroups) <= _Resolution._EXACT_LIMIT
    lockstep_reference(group, _stream(), chunk_size=16)
    _assert_tiles_capped(tile_log, 16)
    # some rows cross three doubled tiles in a row: 32, 64, 128 wide
    assert any(any(cols[i:i + 4] == [16, 32, 64, 128]
                   for i in range(len(cols)))
               for cols in ([c for _, c in tiles] for tiles in tile_log))


def test_wide_tiles_cadence_regime_lockstep(tile_log, monkeypatch):
    """Twelve sub-groups (``k`` = 40..51) and an evaluated point whose
    newest candidates are far away and whose older ones all neighbour
    it: its scan reaches the dense past in a wide tile still in the
    ``_CHECK_EVERY`` cadence regime, and every sub-group resolves
    between two checks -- so where it stops depends on the chunk-end
    checks inside the tile.  Entry for entry equal to the reference."""
    import repro.engine.refresh as refresh

    moved = []
    resolve = refresh.resolve_entries

    def spy(*args):
        out = resolve(*args)
        if len(args) > 8 and args[8] < np.max(args[3]):
            # the same tile (same per-row widths) read as one chunk: a
            # different stop proves an inner chunk end decided it
            moved.append((out[1] != resolve(*args[:8])[1]).any())
        return out

    monkeypatch.setattr(refresh, "resolve_entries", spy)
    rng = np.random.default_rng(5)
    near, far = rng.normal(0, 20, (1200, 2)), rng.normal(5000, 20, (1200, 2))
    tail = np.where((np.arange(600) % 25 == 0)[:, None], near[600:],
                    far[600:])
    points = points_from_array(np.concatenate((near[:600], tail)))
    group = QueryGroup([
        OutlierQuery(r=150.0, k=k, window=WindowSpec(win=1200, slide=100))
        for k in range(40, 52)])
    assert len(parse_workload(group).subgroups) > _Resolution._EXACT_LIMIT
    lockstep_reference(group, points, chunk_size=16)
    _assert_tiles_capped(tile_log, 16)
    assert any(moved)


def test_wide_tiles_empty_template_lockstep():
    """The degenerate empty template ends every scan in its first
    (one-chunk) tile, at the first insert or the first chunk's bottom --
    with the wide-tile sweep as with the reference walk."""
    from conftest import INVARIANT_STATS, evidence

    group = build_workload("D", n_queries=4, seed=3,
                           ranges=default_ranges())
    config = DetectorConfig(chunk_size=16)
    det = SOPDetector(group, config=config)
    ref = _reference_detector(group, config)
    eng = det.skyband_engine
    eng._pending = ref.refresh_engine.runner._pending = []
    eng._sub_layers = eng._sub_ks = np.empty(0, dtype=np.int64)
    for t, batch in batches_by_boundary(_stream(n=800), group.swift.slide,
                                        group.kind):
        assert det.step(t, batch) == ref.step(t, batch), t
        assert evidence(det) == evidence(ref), t
    for key in INVARIANT_STATS:
        assert det.stats[key] == ref.stats[key], key
    assert det.buffer.distance_rows == ref.buffer.distance_rows
    assert det.buffer.distance_rows <= det.buffer.kernel_cells


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


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cadence_regime_reference_lockstep(seed):
    """Twenty class-G queries with ``k`` up to 60 give 16-18 sub-groups:
    rows start in the ``_CHECK_EVERY`` cadence regime, cross its checks
    and hand over to the exact rule -- at detector level, against the
    reference walk."""
    group = build_workload("G", n_queries=20, seed=seed, ranges=ScaledRanges(
        r=(150, 1800), k=(2, 60), win=(200, 800), slide=(50, 200),
        slide_quantum=50))
    assert len(parse_workload(group).subgroups) > _Resolution._EXACT_LIMIT
    det, _ = lockstep_reference(group, _stream(), chunk_size=64)
    # one step per resolved tile plus one per cadence-regime row: more
    # than the kernel tiles alone
    assert det.profile.python_insert_iters > det.profile.kernel_launches


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
