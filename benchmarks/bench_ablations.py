"""Ablations of SOP's design choices (DESIGN.md Sec. 5 index).

Each switch removes one of the paper's optimizations while provably
keeping outputs identical (tests/test_sop.py asserts equality); the
benchmarks quantify what each buys:

* **safe-inlier pruning** (Sec. 3.2.2 / 4.1 safe-for-all): without it,
  every live point re-runs K-SKY at every boundary;
* **least examination** (Alg. 1 lines 3-5): without it, surviving points
  rescan the entire window instead of (new arrivals + old skyband);
* **eager refresh** (Sec. 4.2 swift query): lazy mode refreshes evidence
  only at boundaries where a member query is due -- cheaper per tick but
  discovers safe inliers later;
* **chunk size**: the vectorized-scan block size (an implementation knob
  of this reproduction, not of the paper).
"""

import pytest

from repro import SOPDetector
from repro.bench import build_workload, format_table

from bench_common import PATTERN_RANGES, run_once, synthetic_stream

N_QUERIES = 30


def _group():
    return build_workload("G", N_QUERIES, seed=555, ranges=PATTERN_RANGES)


VARIANTS = {
    "full": {},
    "no-safe-inliers": {"use_safe_inliers": False},
    "no-least-exam": {"use_least_examination": False},
    "lazy-refresh": {"eager": False},
}


@pytest.mark.figure("ablation")
@pytest.mark.parametrize("variant", list(VARIANTS), ids=list(VARIANTS))
def test_ablation_variant(benchmark, variant):
    res = benchmark.pedantic(
        run_once, args=(SOPDetector, _group(), synthetic_stream()),
        kwargs=VARIANTS[variant], rounds=1, iterations=1)
    assert res.boundaries > 0


@pytest.mark.figure("ablation")
def test_ablation_report(benchmark):
    def sweep():
        rows = {}
        for name, kwargs in VARIANTS.items():
            det = SOPDetector(_group(), **kwargs)
            res = det.run(synthetic_stream())
            rows[name] = (res.cpu_ms_per_window, res.peak_memory_units,
                          det.stats["points_examined"])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    names = list(rows)
    print("\n" + format_table(
        "SOP ablations (30-query workload G)",
        "variant", names, ["cpu_ms/w", "mem_units", "examined"],
        [
            [rows[n][0] for n in names],
            [float(rows[n][1]) for n in names],
            [float(rows[n][2]) for n in names],
        ],
    ) + "\n")
    # the optimizations must actually help on this inlier-dominated stream
    assert rows["full"][2] <= rows["no-safe-inliers"][2]
    assert rows["full"][2] <= rows["no-least-exam"][2]


@pytest.mark.figure("ablation")
@pytest.mark.parametrize("chunk", [32, 256, 1024])
def test_chunk_size_sweep(benchmark, chunk):
    res = benchmark.pedantic(
        run_once, args=(SOPDetector, _group(), synthetic_stream()),
        kwargs={"chunk_size": chunk}, rounds=1, iterations=1)
    assert res.boundaries > 0
