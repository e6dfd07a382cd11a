"""Grid-pruned refresh equivalence (the correctness gate of the pruning
engine).

Grid mode must be *indistinguishable* from batched and per-point mode in
everything except the kernel volume: same outlier sets, same per-boundary
``memory_units()``, same LSky layer contents per tracked point, same
``points_examined``.  Only
``distance_rows``/``kernel_calls`` may (and should) shrink -- pruned
candidates are precisely the ``layer >= n_layers`` discards, which never
touch scan state.  Everything here runs the engines side by side and
compares.
"""

from __future__ import annotations

from functools import partial

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
from repro.bench import build_workload, default_ranges
from repro.streams.source import batches_by_boundary
from repro.streams.windows import TIME

from conftest import evidence, line_points

STRATEGIES = ("per-point", "batched", "grid")


def _stream(n=1500, seed=9):
    return make_synthetic_points(n, dim=2, outlier_rate=0.04, seed=seed)


def _det(group, strategy, **kwargs):
    config = DetectorConfig(refresh_strategy=strategy, **kwargs)
    return SOPDetector(group, config=config)


def _run_lockstep(group, points, **kwargs):
    """Drive all three engines boundary-by-boundary, asserting per-boundary
    equality of outputs, evidence volume, and LSky layer contents."""
    dets = {s: _det(group, s, **kwargs) for s in STRATEGIES}
    ref = dets["batched"]
    for t, batch in batches_by_boundary(points, group.swift.slide,
                                        group.kind):
        outs = {s: d.step(t, batch) for s, d in dets.items()}
        ev_ref = evidence(ref)
        for s, d in dets.items():
            assert outs[s] == outs["batched"], f"{s} outputs diverge at t={t}"
            assert d.memory_units() == ref.memory_units(), (
                f"{s} evidence volume diverges at t={t}")
            assert d.tracked_points() == ref.tracked_points()
            assert evidence(d) == ev_ref, (
                f"{s} LSky contents diverge at t={t}")
    return dets


# --------------------------------------------------------------- Table 1 grid


@pytest.mark.parametrize("spec", list("ABCDEFG"))
def test_table1_grid_equivalence(spec):
    group = build_workload(spec, n_queries=6, seed=17,
                           ranges=default_ranges())
    dets = _run_lockstep(group, _stream())
    det_g, det_b = dets["grid"], dets["batched"]
    # identical logical work, not just identical answers
    for key in ("ksky_runs", "points_examined", "early_terminations",
                "fully_safe_marked"):
        assert det_g.stats[key] == det_b.stats[key], key
    # ... and the pruning actually engaged and shrank the kernels
    assert det_g.stats["batched_scans"] > 0
    assert det_g.profile.candidates_pruned > 0
    assert det_g.profile.kernel_cells_visited > 0
    assert det_b.profile.candidates_pruned == 0
    assert det_g.buffer.distance_rows <= det_b.buffer.distance_rows


@pytest.mark.parametrize("spec", ["A", "C", "G"])
def test_time_window_equivalence(spec):
    group = build_workload(spec, n_queries=5, seed=23,
                           ranges=default_ranges(kind=TIME))
    _run_lockstep(group, _stream())


def test_warmup_partial_windows():
    group = QueryGroup([
        OutlierQuery(r=300, k=3, window=WindowSpec(win=5000, slide=100)),
        OutlierQuery(r=900, k=8, window=WindowSpec(win=4000, slide=200)),
    ])
    _run_lockstep(group, _stream(n=900))


def test_ablation_interactions():
    """The grid strategy composes with the paper's other ablations."""
    group = build_workload("C", n_queries=5, seed=31)
    stream = _stream(n=1000)
    for kwargs in (
        {"use_least_examination": False},
        {"use_safe_inliers": False},
        {"eager": False},
        {"chunk_size": 64},
    ):
        dets = _run_lockstep(group, stream, **kwargs)
        assert (dets["grid"].stats["points_examined"]
                == dets["batched"].stats["points_examined"])


def test_crossover_falls_back_per_point():
    group = build_workload("A", n_queries=4, seed=5)
    stream = _stream(n=800)
    det_hi = _det(group, "grid", batch_min_rows=10 ** 6)
    res_hi = det_hi.run(stream)
    assert det_hi.stats["batched_scans"] == 0
    assert det_hi.profile.candidates_pruned == 0
    det_on = _det(group, "grid", batch_min_rows=1)
    res_on = det_on.run(stream)
    assert det_on.profile.candidates_pruned > 0
    assert res_hi.outputs == res_on.outputs


# ------------------------------------------------------------ config plumbing


def test_config_strategy_selection():
    group = build_workload("A", n_queries=3, seed=1)
    for strategy in STRATEGIES:
        engine = _det(group, strategy).refresh_engine
        assert engine.name == strategy
        # pinned strategies carry no policy and an empty decision trace
        assert engine.policy is None and engine.decisions == []
    # auto (the default) is the measured crossover policy
    auto = SOPDetector(group).refresh_engine
    assert auto.name == "auto" and auto.policy is not None
    assert auto.decisions is auto.policy.decisions
    # legacy kwarg spelling reaches the config too
    legacy = SOPDetector(group, refresh_strategy="grid")
    assert legacy.refresh_engine.name == "grid"
    with pytest.raises(ValueError, match="refresh_strategy"):
        DetectorConfig(refresh_strategy="quantum")


def test_config_roundtrip_preserves_strategy():
    config = DetectorConfig(refresh_strategy="grid")
    assert DetectorConfig.from_dict(config.as_dict()) == config
    # configs predating the field (old checkpoints) restore unchanged
    old = {k: v for k, v in DetectorConfig().as_dict().items()
           if k != "refresh_strategy"}
    assert DetectorConfig.from_dict(old).refresh_strategy == "auto"


# --------------------------------------------------- sharded runtime plumbing


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("backend", ["serial", "process"])
def test_sharded_grid_equivalence(shards, backend):
    """refresh_strategy flows through the sharded runtime; outputs stay
    identical to the batched engine at every shard count and backend."""
    group = build_workload("C", n_queries=4, seed=5)
    points = make_synthetic_points(800, dim=2, outlier_rate=0.05, seed=23)

    def run(strategy):
        config = DetectorConfig(refresh_strategy=strategy, shards=shards,
                                backend=backend)
        factory = partial(SOPDetector, config=config)
        runtime = Runtime(QueryGroup(list(group.queries)), factory=factory,
                          config=config)
        return runtime.run(points).outputs

    try:
        got = run("grid")
        want = run("batched")
    except OSError as exc:  # pragma: no cover - restricted sandboxes
        pytest.skip(f"process pool unavailable: {exc}")
    diffs = compare_outputs(want, got)
    assert not diffs, "\n".join(diffs[:10])


# ----------------------------------------------------------- property-based


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.data(),
    n_points=st.integers(min_value=40, max_value=220),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)
def test_random_stream_equivalence(data, n_points, seed):
    """Random workloads over random 1-D streams: all three engines agree on
    every boundary output and every LSky layer."""
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


# ------------------------------------------------------- boundary exactness


def test_neighbor_exactly_at_r_max_counted():
    """A neighbor at distance exactly r_max decides inlier-vs-outlier; the
    pruning layer must never drop it (d <= r is a neighbor, Def. 1)."""
    r = 100.0
    win, slide = 8, 4
    # pairs at exactly r, far from everything else
    values = [0.0, r, 1000.0, 1000.0 + r, 5000.0]
    points = [Point(seq=i, values=(v,)) for i, v in enumerate(values)]
    group = QueryGroup([OutlierQuery(
        r=r, k=1, window=WindowSpec(win=win, slide=slide))])
    outs = {}
    for s in STRATEGIES:
        det = _det(group, s, batch_min_rows=1)
        outs[s] = det.run(points).outputs
    assert outs["grid"] == outs["batched"] == outs["per-point"]
    # the isolated point is the lone outlier; the exact-r pairs are inliers
    last_t = max(t for _, t in outs["grid"])
    assert outs["grid"][(0, last_t)] == frozenset({4})
