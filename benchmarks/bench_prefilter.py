"""Tiered pre-filter benchmark: screen cost vs exact-tier work saved.

Measures what the first-tier inlier screen (``repro.core.prefilter``)
buys end to end.  For each window size the grid runs a ``prefilter=
"none"`` baseline and the ``"qn"`` screen, recording
``cpu_ms_per_window`` (the paper's CPU metric), wall time, and the tier
counters (screened / suspects / pruned, plus the exact tier's
``points_examined`` and ``distance_rows``).

Output equality against the baseline is *asserted fatally*, and so is
``fully_safe_marked`` parity: the screen's contract is bit-identical
outputs (DESIGN.md section 14), so a speedup that changes answers aborts
the bench.

The headline stream is the regime the screen is built for, matching the
paper's high-volume setting: large slide (win/8 -- at-arrival
certification needs same-batch successors), clustered inlier mass
(8 clusters, spread 80 at r=200 -- certifiable density), and a 1%
outlier rate (outlier deep scans are irreducible work no sound screen
can remove).  A second, adversarial slide (win/20) is included so the
report also shows the screen's backoff floor rather than only its best
case.

Usage::

    PYTHONPATH=src python benchmarks/bench_prefilter.py          # full grid,
                                                                 # writes BENCH_prefilter.json
    PYTHONPATH=src python benchmarks/bench_prefilter.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

from repro import (DetectorConfig, OutlierQuery, QueryGroup, SOPDetector,
                   WindowSpec, compare_outputs, make_synthetic_points)

#: prefilter grid; "none" is the exact-tier baseline
MODES = ("none", "qn")
WINDOWS = (16_384, 32_768)
#: headline slide divisor (win/8) plus the adversarial small slide
SLIDE_DIVS = (8, 20)
QUICK_WINDOWS = (4_096,)
QUICK_SLIDE_DIVS = (8,)
#: the paper's window-experiment radius (Figs. 11-12)
FIXED_R = 200.0
#: inlier mass must be dense relative to r for certification to fire
CLUSTER_SPREAD = 80
N_CLUSTERS = 8
OUTLIER_RATE = 0.01
#: member k values; Table 2 centre of mass, spread across the k grid
K_VALUES = (10, 20, 30, 15, 25)
#: member window fractions of the swift window (mixed-win workload)
WIN_DIVS = (1, 2, 1, 4, 1)
WINDOWS_PER_STREAM = 2
#: acceptance floor for the headline configs (slide win/8)
TARGET_SPEEDUP = 1.5


def _group(window: int, slide: int) -> QueryGroup:
    return QueryGroup([
        OutlierQuery(r=FIXED_R, k=k,
                     window=WindowSpec(win=window // d, slide=slide,
                                       kind="count"))
        for k, d in zip(K_VALUES, WIN_DIVS)
    ])


def _measure(group, stream, prefilter: str) -> dict:
    det = SOPDetector(group, config=DetectorConfig(prefilter=prefilter))
    t0 = time.perf_counter()
    result = det.run(stream)
    wall = time.perf_counter() - t0
    work = det.work_stats()
    return {
        "prefilter": prefilter,
        "wall_s": round(wall, 3),
        "cpu_ms_per_window": round(result.cpu_ms_per_window, 3),
        "peak_memory_units": result.memory.peak_units,
        "points_examined": int(det.stats["points_examined"]),
        "ksky_runs": int(det.stats["ksky_runs"]),
        "fully_safe_marked": int(det.stats["fully_safe_marked"]),
        "distance_rows": int(work["distance_rows"]),
        "prefilter_screened": int(work["prefilter_screened"]),
        "prefilter_suspects": int(work["prefilter_suspects"]),
        "prefilter_pruned": int(work["prefilter_pruned"]),
        "outputs": result.outputs,
    }


def run_config(window: int, slide_div: int, seed: int = 11) -> dict:
    slide = window // slide_div
    group = _group(window, slide)
    stream = make_synthetic_points(
        WINDOWS_PER_STREAM * window, dim=2, outlier_rate=OUTLIER_RATE,
        seed=seed, n_clusters=N_CLUSTERS, cluster_spread=CLUSTER_SPREAD,
    )
    runs = [_measure(group, stream, pf) for pf in MODES]
    base = runs[0]
    assert base["prefilter"] == "none"
    for run in runs[1:]:
        diffs = compare_outputs(base["outputs"], run.pop("outputs"))
        if diffs:
            details = "\n  ".join(diffs[:5])
            raise SystemExit(
                f"FATAL: prefilter={run['prefilter']} diverges from "
                f"baseline at window {window} slide {slide}:\n  {details}"
            )
        run["outputs_equal"] = True
        if run["fully_safe_marked"] != base["fully_safe_marked"]:
            raise SystemExit(
                f"FATAL: prefilter={run['prefilter']} fully_safe_marked "
                f"{run['fully_safe_marked']} != baseline "
                f"{base['fully_safe_marked']} -- the screen certified a "
                f"point the exact tier would not have"
            )
        run["cpu_speedup"] = round(
            base["cpu_ms_per_window"] / run["cpu_ms_per_window"], 3) \
            if run["cpu_ms_per_window"] else float("nan")
        run["examined_ratio"] = round(
            run["points_examined"] / base["points_examined"], 3) \
            if base["points_examined"] else float("nan")
    base.pop("outputs")
    base["outputs_equal"] = True
    base["cpu_speedup"] = 1.0
    base["examined_ratio"] = 1.0
    return {
        "window": window,
        "slide": slide,
        "slide_divisor": slide_div,
        "headline": slide_div == SLIDE_DIVS[0],
        "n_queries": len(group),
        "stream_points": len(stream),
        "runs": runs,
    }


def run_grid(windows, slide_divs) -> dict:
    configs = []
    for window in windows:
        for slide_div in slide_divs:
            cfg = run_config(window, slide_div)
            configs.append(cfg)
            for run in cfg["runs"]:
                print(
                    f"win={window:>6} slide=win/{slide_div:<2} "
                    f"{run['prefilter']:>4} "
                    f"{run['wall_s']:8.2f} s  "
                    f"cpu-speedup {run['cpu_speedup']:5.2f}x  "
                    f"pruned={run['prefilter_pruned']:>7} "
                    f"examined/{run['examined_ratio']:.2f}  "
                    f"outputs_equal={run['outputs_equal']}"
                )
    return {
        "schema": "bench_prefilter/v2",
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "settings": {
            "fixed_r": FIXED_R,
            "k_values": list(K_VALUES),
            "win_divisors": list(WIN_DIVS),
            "slide_divisors": list(slide_divs),
            "outlier_rate": OUTLIER_RATE,
            "windows_per_stream": WINDOWS_PER_STREAM,
            "target_speedup": TARGET_SPEEDUP,
            "stream": f"make_synthetic_points(dim=2, "
                      f"outlier_rate={OUTLIER_RATE}, seed=11, "
                      f"n_clusters={N_CLUSTERS}, "
                      f"cluster_spread={CLUSTER_SPREAD})",
        },
        "configs": configs,
    }


def check_target(report) -> bool:
    """True iff every headline screened run clears TARGET_SPEEDUP."""
    ok = True
    for cfg in report["configs"]:
        if not cfg["headline"]:
            continue
        for run in cfg["runs"]:
            if run["prefilter"] == "none":
                continue
            if run["cpu_speedup"] < TARGET_SPEEDUP:
                print(
                    f"WARNING: headline win={cfg['window']} "
                    f"{run['prefilter']} speedup "
                    f"{run['cpu_speedup']:.2f}x below target "
                    f"{TARGET_SPEEDUP}x"
                )
                ok = False
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small grid, no JSON unless --out is given "
                             "(CI smoke test)")
    parser.add_argument("--out", default=None,
                        help="JSON output path (default BENCH_prefilter.json;"
                             " suppressed in --quick mode)")
    args = parser.parse_args(argv)
    if args.quick:
        report = run_grid(QUICK_WINDOWS, QUICK_SLIDE_DIVS)
    else:
        report = run_grid(WINDOWS, SLIDE_DIVS)
        check_target(report)
    out = args.out if args.out is not None else (
        None if args.quick else "BENCH_prefilter.json")
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
