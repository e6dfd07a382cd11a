"""End-to-end tests of the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro import (
    DetectorConfig,
    load_points_csv,
    load_results_jsonl,
    load_workload,
)


@pytest.fixture
def stream_csv(tmp_path):
    path = tmp_path / "stream.csv"
    assert main(["generate", "synthetic", "--n", "600", "--seed", "3",
                 "--out", str(path)]) == 0
    return path


@pytest.fixture
def workload_json(tmp_path):
    path = tmp_path / "wl.json"
    assert main(["workload", "--spec", "C", "--n", "4", "--seed", "9",
                 "--out", str(path)]) == 0
    return path


class TestGenerate:
    def test_synthetic(self, stream_csv):
        pts = load_points_csv(stream_csv)
        assert len(pts) == 600 and pts[0].dim == 2

    def test_synthetic_options(self, tmp_path):
        path = tmp_path / "s.csv"
        main(["generate", "synthetic", "--n", "50", "--dim", "4",
              "--outlier-rate", "0.1", "--out", str(path)])
        assert load_points_csv(path)[0].dim == 4

    def test_stock_with_trace(self, tmp_path):
        pts_path = tmp_path / "pts.csv"
        trades_path = tmp_path / "trades.csv"
        assert main(["generate", "stock", "--n", "120",
                     "--out", str(pts_path),
                     "--trades-out", str(trades_path)]) == 0
        from repro import load_trades_csv
        assert len(load_points_csv(pts_path)) == 120
        assert len(load_trades_csv(trades_path)) == 120

    def test_stock_attribute_selection(self, tmp_path):
        path = tmp_path / "pts.csv"
        main(["generate", "stock", "--n", "60", "--attributes", "price",
              "--out", str(path)])
        assert load_points_csv(path)[0].dim == 1


class TestWorkloadAndExplain:
    def test_workload_file(self, workload_json):
        queries = load_workload(workload_json)
        assert len(queries) == 4

    def test_explain_prints_plan(self, workload_json, capsys):
        assert main(["explain", "--workload", str(workload_json)]) == 0
        out = capsys.readouterr().out
        assert "swift query" in out and "k sub-groups" in out

    def test_explain_multiattr(self, tmp_path, capsys):
        import json
        path = tmp_path / "wl.json"
        path.write_text(json.dumps({"queries": [
            {"r": 10, "k": 2, "win": 50, "slide": 10, "attributes": [0]},
            {"r": 10, "k": 2, "win": 50, "slide": 10, "attributes": [1]},
        ]}))
        assert main(["explain", "--workload", str(path)]) == 0
        assert "divide & conquer" in capsys.readouterr().out


class TestDetect:
    def test_detect_and_archive(self, tmp_path, stream_csv, workload_json):
        out = tmp_path / "res.jsonl"
        assert main(["detect", "--stream", str(stream_csv),
                     "--workload", str(workload_json),
                     "--algorithm", "sop", "--out", str(out)]) == 0
        results = load_results_jsonl(out)
        assert results

    def test_detectors_agree_via_cli(self, tmp_path, stream_csv,
                                     workload_json):
        a = tmp_path / "sop.jsonl"
        b = tmp_path / "naive.jsonl"
        main(["detect", "--stream", str(stream_csv), "--workload",
              str(workload_json), "--algorithm", "sop", "--out", str(a)])
        main(["detect", "--stream", str(stream_csv), "--workload",
              str(workload_json), "--algorithm", "naive", "--out", str(b)])
        assert main(["compare", "--a", str(a), "--b", str(b)]) == 0

    def test_compare_detects_differences(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.write_text('{"query": 0, "boundary": 5, "outliers": [1]}\n')
        b.write_text('{"query": 0, "boundary": 5, "outliers": [2]}\n')
        assert main(["compare", "--a", str(a), "--b", str(b)]) == 1
        assert "DIFFER" in capsys.readouterr().out

    def test_detect_until(self, tmp_path, stream_csv, workload_json):
        out = tmp_path / "res.jsonl"
        main(["detect", "--stream", str(stream_csv), "--workload",
              str(workload_json), "--until", "200", "--out", str(out)])
        results = load_results_jsonl(out)
        assert max(t for _, t in results) <= 200

    def test_detect_prints_work_stats(self, tmp_path, stream_csv,
                                      workload_json, capsys):
        assert main(["detect", "--stream", str(stream_csv),
                     "--workload", str(workload_json)]) == 0
        out = capsys.readouterr().out
        assert "work:" in out and "distance_rows=" in out

    def test_detect_tuning_flags_keep_outputs_identical(self, tmp_path,
                                                        stream_csv,
                                                        workload_json):
        """--lazy / --prefilter / --shards change the execution
        strategy, never the answers."""
        base = tmp_path / "base.jsonl"
        main(["detect", "--stream", str(stream_csv), "--workload",
              str(workload_json), "--out", str(base)])
        for flags in (["--lazy"],
                      ["--prefilter", "qn"],
                      ["--shards", "2"]):
            out = tmp_path / "variant.jsonl"
            assert main(["detect", "--stream", str(stream_csv),
                         "--workload", str(workload_json),
                         "--out", str(out)] + flags) == 0
            assert main(["compare", "--a", str(base), "--b", str(out)]) == 0

    def test_tuning_flags_noted_for_non_sop(self, stream_csv, workload_json,
                                            capsys):
        assert main(["detect", "--stream", str(stream_csv),
                     "--workload", str(workload_json),
                     "--algorithm", "mcod", "--lazy"]) == 0
        assert "ignored by mcod" in capsys.readouterr().out

    def test_detect_multiattr_workload(self, tmp_path, stream_csv):
        import json
        wl = tmp_path / "wl.json"
        wl.write_text(json.dumps({"queries": [
            {"r": 400, "k": 3, "win": 100, "slide": 50, "attributes": [0]},
            {"r": 400, "k": 3, "win": 100, "slide": 50, "attributes": [1]},
        ]}))
        out = tmp_path / "res.jsonl"
        assert main(["detect", "--stream", str(stream_csv),
                     "--workload", str(wl), "--out", str(out)]) == 0
        assert load_results_jsonl(out)


class TestParser:
    def test_retired_flags_are_gone(self):
        for argv in (["detect", "--stream", "s", "--workload", "w",
                      "--skyband-impl", "soa"],
                     ["detect", "--stream", "s", "--workload", "w",
                      "--no-batched-refresh"],
                     ["detect", "--stream", "s", "--workload", "w",
                      "--refresh-strategy", "batched"],
                     ["detect", "--stream", "s", "--workload", "w",
                      "--batch-min-rows", "8"],
                     ["serve", "--skyband-impl", "soa"],
                     ["serve", "--refresh-strategy", "batched"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)

    def test_config_flag_choices_come_from_config(self):
        """Every config-backed choice flag offers exactly the config's
        choices, each of which builds a valid DetectorConfig; serve takes
        only --prefilter, and --prefilter-mode is gone from both."""
        detect = ["detect", "--stream", "s", "--workload", "w"]
        flags = {
            "--prefilter": ("prefilter", DetectorConfig._PREFILTERS),
            "--backend": ("backend", DetectorConfig._BACKENDS),
            "--on-shard-failure": ("on_shard_failure",
                                   DetectorConfig._FAILURE_POLICIES),
        }
        for flag, (field, choices) in flags.items():
            for choice in choices:
                args = build_parser().parse_args(detect + [flag, choice])
                DetectorConfig(**{field: getattr(args, field)})
            with pytest.raises(SystemExit):
                build_parser().parse_args(detect + [flag, "bogus"])
        for choice in DetectorConfig._PREFILTERS:
            args = build_parser().parse_args(["serve", "--prefilter", choice])
            DetectorConfig(prefilter=args.prefilter)
        for argv in (["serve", "--prefilter", "sensitivity"],
                     ["serve", "--backend", "serial"],
                     ["serve", "--prefilter-mode", "exact"],
                     detect + ["--prefilter", "sensitivity"],
                     detect + ["--prefilter-mode", "exact"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_algorithm_exits(self, stream_csv, workload_json):
        with pytest.raises(SystemExit):
            main(["detect", "--stream", str(stream_csv), "--workload",
                  str(workload_json), "--algorithm", "magic"])
