"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro import (
    NaiveDetector,
    OutlierQuery,
    Point,
    QueryGroup,
    SOPDetector,
    WindowSpec,
    compare_outputs,
    make_synthetic_points,
)
from repro.streams.source import batches_by_boundary
from repro.testing import use_reference_scans


def pytest_collection_modifyitems(items):
    # Everything under tests/serving/ is the asyncio service e2e suite:
    # deterministic and in-process, but it exercises real sockets and an
    # event loop, so CI runs it as its own job (``pytest -m serving``)
    # and the tier-1 leg deselects it.
    for item in items:
        if "serving" in str(getattr(item, "fspath", "")):
            item.add_marker(pytest.mark.serving)


def line_points(values, start_seq=0, times=None):
    """1-D points from a list of scalars (controlled-distance streams)."""
    if times is None:
        return [
            Point(seq=start_seq + i, values=(float(v),))
            for i, v in enumerate(values)
        ]
    return [
        Point(seq=start_seq + i, values=(float(v),), time=float(t))
        for i, (v, t) in enumerate(zip(values, times))
    ]


def evidence(det):
    """Frozen per-point evidence arrays (and safety state) of a detector."""
    out = {}
    for seq in det.buffer.seq_array().tolist():
        st = det.state_of(seq)
        if st is None:
            continue
        if st.seqs is None:
            out[seq] = (None, st.fully_safe)
        else:
            out[seq] = ((st.seqs.tolist(), st.poss.tolist(),
                         st.layers.tolist()), st.fully_safe)
    return out


def scan_rows(batch):
    """A ``ScanBatch`` split per row: ``(entries, examined, terminated)``
    with entries as ``(seq, pos, layer)`` tuples in scan order."""
    ends = np.searchsorted(batch.owner, np.arange(len(batch.examined) + 1))
    entries = list(zip(batch.seq.tolist(), batch.pos.tolist(),
                       batch.layer.tolist()))
    return [(entries[a:b], int(n), bool(term)) for a, b, n, term in zip(
        ends, ends[1:], batch.examined, batch.terminated)]


def ksky_facts(result):
    """The same facts of one reference ``KSkyResult``."""
    return ([tuple(e) for e in result.lsky.entries()], result.examined,
            result.terminated_early)


#: work counters the scan engine must reproduce exactly
INVARIANT_STATS = ("ksky_runs", "points_examined", "early_terminations",
                   "fully_safe_marked")


def lockstep_reference(group, batches, **kwargs):
    """Drive a detector and its reference-scan twin (``KSkyRunner`` per
    row) boundary-by-boundary over ``batches`` -- ``(t, batch)`` pairs, or
    a point list to cut at the swift boundaries -- asserting per-boundary
    equality of outputs, evidence arrays and evidence volume, and equal
    work accounting at the end.  Returns ``(detector, reference)``."""
    if not isinstance(batches[0], tuple):
        batches = list(batches_by_boundary(batches, group.swift.slide,
                                           group.kind))
    det = SOPDetector(group, **kwargs)
    ref = use_reference_scans(SOPDetector(group, **kwargs))
    for t, batch in batches:
        assert det.step(t, batch) == ref.step(t, batch), (
            f"outputs diverge at t={t}")
        assert evidence(det) == evidence(ref), (
            f"evidence arrays diverge at t={t}")
        assert det.memory_units() == ref.memory_units(), (
            f"evidence volume diverges at t={t}")
        assert det.tracked_points() == ref.tracked_points()
    for key in INVARIANT_STATS:
        assert det.stats[key] == ref.stats[key], key
    assert det.buffer.distance_rows == ref.buffer.distance_rows
    return det, ref


def assert_equivalent(group: QueryGroup, points, detector, oracle_cls=NaiveDetector):
    """Run ``detector`` and the naive oracle; assert identical outputs."""
    expected = oracle_cls(group).run(points)
    actual = detector.run(points)
    diffs = compare_outputs(expected.outputs, actual.outputs)
    assert not diffs, "\n".join(diffs)
    return actual


@pytest.fixture
def small_stream():
    """1200 synthetic points with a visible outlier rate."""
    return make_synthetic_points(1200, dim=2, outlier_rate=0.05, seed=3)


@pytest.fixture
def small_group():
    """A mixed workload touching all four parameters."""
    return QueryGroup([
        OutlierQuery(r=300, k=4, window=WindowSpec(win=200, slide=50)),
        OutlierQuery(r=700, k=9, window=WindowSpec(win=400, slide=100)),
        OutlierQuery(r=1500, k=6, window=WindowSpec(win=300, slide=75)),
        OutlierQuery(r=300, k=9, window=WindowSpec(win=150, slide=50)),
    ])


@pytest.fixture
def rng():
    return np.random.default_rng(20160626)  # SIGMOD'16 opening day


# ---------------------------------------------------------------------------
# chaos-suite outcome report (CI artifact)
# ---------------------------------------------------------------------------

#: records appended by the ``chaos_report`` fixture, one per scenario
_CHAOS_RECORDS: list = []


@pytest.fixture
def chaos_report(request):
    """Record a chaos scenario's fault plan + outcome for the CI artifact.

    Tests call ``chaos_report(test=..., plan=plan.as_dict(), ...)``; when
    the ``CHAOS_REPORT`` environment variable names a path, the session
    hook below writes every record there as JSON.
    """
    def record(**entry):
        entry.setdefault("nodeid", request.node.nodeid)
        _CHAOS_RECORDS.append(entry)
    return record


def pytest_sessionfinish(session, exitstatus):
    target = os.environ.get("CHAOS_REPORT")
    if not target:
        return
    with open(target, "w") as fh:
        json.dump({
            "exitstatus": int(exitstatus),
            "scenarios": _CHAOS_RECORDS,
        }, fh, indent=2, default=str)
        fh.write("\n")
