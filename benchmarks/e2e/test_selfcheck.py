"""Self-check of the benchmark harness (not of the system).

Run explicitly with ``pytest benchmarks/e2e -q``; tier-1 collects ``tests/``
only.  One ``run.py all --quick`` (tenth-size streams, same code paths) feeds
every assertion: the result schema, metric and workload names equal to
``BENCHMARK.json``, span nesting, stage coverage, and zero failed operations.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
OFFLINE = ("refresh_large", "ingest_heavy", "sharded_small_slide")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    results = tmp_path_factory.mktemp("e2e-results")
    done = subprocess.run(RUN + ["all", "--quick", "--results", str(results)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return results, json.loads((results / "e2e.json").read_text())


def test_envelope(quick):
    _, merged = quick
    assert merged["schema"] == 1
    for key in ("git_rev", "python", "numpy", "numba", "cpu_count",
                "affinity", "loadavg_at_start"):
        assert key in merged["environment"]
    assert {"seed", "scale", "seconds", "workloads"} <= set(merged)


def test_names_equal_the_contract(quick, spec):
    _, merged = quick
    assert list(merged["workloads"]) == [w["name"] for w in spec["workloads"]]
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    seen = set()
    for entry in merged["workloads"].values():
        assert set(entry["end_to_end"]) == end_to_end
        assert set(entry["per_layer"]) <= per_layer
        seen |= set(entry["per_layer"])
        for summary in (*entry["end_to_end"].values(),
                        *entry["per_layer"].values()):
            assert {"value", "n"} <= set(summary)
    assert seen == per_layer


def test_no_operation_failed(quick):
    _, merged = quick
    for name, entry in merged["workloads"].items():
        for run in (entry["end_to_end_run"], entry["per_layer_run"]):
            assert run["correct"] and run["failed"] == 0, (name, run)
            assert run["attempted"] > 0 and run["repetitions"] >= 3


def test_spans_nest_inside_their_parents(quick):
    results, merged = quick
    for name in merged["workloads"]:
        spans = json.loads(
            (results / f"trace-{name}.json").read_text())["spans"]
        assert spans
        for span in spans:
            assert span["end"] >= span["start"]
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                assert parent["start"] <= span["start"], (name, span, parent)
                assert span["end"] <= parent["end"], (name, span, parent)


def test_stage_spans_cover_the_boundary_wall(quick):
    _, merged = quick
    for name in OFFLINE:
        coverage = merged["workloads"][name]["per_layer"][
            "trace.stage_coverage"]["value"]
        assert coverage >= 0.95, (name, coverage)


def test_result_line_of_one_run(quick, spec, tmp_path):
    done = subprocess.run(
        RUN + ["--workload", "ingest_heavy", "--seed", "3", "--seconds", "1",
               "--trace", "0", "--scale", "0.05", "--results", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert list(line["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    for metric in spec["end_to_end"]:
        got = line["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0


def test_compare_with_itself_finds_no_regression(quick):
    results, _ = quick
    path = str(results / "e2e.json")
    done = subprocess.run(RUN + ["compare", path, path],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout[-2000:]
    assert "REGRESSED" not in done.stdout


def test_fails_loudly_without_a_system_to_measure(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "refresh_large", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
