"""``run.py compare A.json B.json``: is B worse than A, by the benchmark's
own bounds?

For every workload and end-to-end metric, B's value may be worse than A's
by at most the metric's ``bound`` from ``BENCHMARK.json``.  A metric whose
recorded quartile spread (in either file) is wider than its bound cannot
support "unchanged" and is printed as ``unresolved``.  Per-layer counts that
repeated exactly within each file are compared exactly; per-layer times are
shown as ratios and judged by nobody.
"""

from __future__ import annotations

import json
from typing import Optional


def spread(summary: dict) -> Optional[float]:
    """Interquartile range over the median, when quartiles were recorded."""
    median = summary.get("median", summary["value"])
    if summary.get("n", 0) < 2 or "q1" not in summary or not median:
        return None
    return (summary["q3"] - summary["q1"]) / abs(median)


def verdict(a: dict, b: dict, better: str, bound: float):
    """``(label, signed share by which B is worse than A, widest spread)``."""
    worse = (b["value"] - a["value"]) / a["value"]
    if better == "higher":
        worse = -worse
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    widest = max(spreads, default=None)
    if worse > bound:
        return "REGRESSED", worse, widest
    if widest is not None and widest > bound:
        return "unresolved", worse, widest
    return ("improved" if worse < -bound else "unchanged"), worse, widest


def compare_files(a_path: str, b_path: str, spec: dict) -> int:
    with open(a_path) as f:
        a_doc = json.load(f)
    with open(b_path) as f:
        b_doc = json.load(f)
    regressed = failed = 0
    for name in (w["name"] for w in spec["workloads"]):
        a, b = a_doc["workloads"].get(name), b_doc["workloads"].get(name)
        if a is None or b is None:
            print(f"== {name}: missing from "
                  f"{a_path if a is None else b_path}")
            regressed += 1
            continue
        print(f"== {name}")
        for doc, path in ((a, a_path), (b, b_path)):
            for section in ("end_to_end_run", "per_layer_run"):
                if doc[section]["failed"]:
                    failed += 1
                    print(f"  {path}: {doc[section]['failed']} failed "
                          f"operation(s) in the {section[:-4]} run")
        for metric in spec["end_to_end"]:
            key = metric["name"]
            if key not in a["end_to_end"] or key not in b["end_to_end"]:
                print(f"  {key:32s} missing")
                regressed += 1
                continue
            label, worse, widest = verdict(
                a["end_to_end"][key], b["end_to_end"][key],
                metric["better"], metric["bound"])
            regressed += label == "REGRESSED"
            shown = "n/a" if widest is None else f"{widest:.1%}"
            print(f"  {key:32s} {a['end_to_end'][key]['value']:>12.5g} -> "
                  f"{b['end_to_end'][key]['value']:>12.5g} {metric['unit']:6s}"
                  f" worse by {worse:+7.1%} (bound {metric['bound']:.0%}, "
                  f"spread {shown})  {label}")
        for metric in spec["per_layer"]:
            key = metric["name"]
            x, y = a["per_layer"].get(key), b["per_layer"].get(key)
            if x is None or y is None or not (x["value"] or y["value"]):
                continue
            if "exact_repeat" in x or "exact_repeat" in y:
                if x.get("exact_repeat") and y.get("exact_repeat"):
                    label = ("equal" if x["value"] == y["value"]
                             else "CHANGED")
                else:
                    label = "not repeating within a run"
            else:
                label = (f"x{y['value'] / x['value']:.3f}" if x["value"]
                         else "")
            print(f"    {key:46s} {x['value']:>14.6g} -> {y['value']:>14.6g} "
                  f"{metric['unit']:6s} {label}")
    print(f"\n{regressed} regressed, {failed} run(s) with failed operations")
    return 1 if regressed or failed else 0

