"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``generate synthetic`` / ``generate stock`` -- produce a stream CSV
  (and, for stock, optionally the raw trade trace);
* ``workload`` -- sample a Table 1 workload class into a JSON spec;
* ``explain`` -- print the shared skyband plan for a workload spec;
* ``detect`` -- run a detector over a stream CSV for a workload spec,
  archive the outputs, and print the run summary; ``--shards N``
  value-partitions the stream across N detector shards (exact, see
  ``repro.runtime``) and ``--backend serial|process`` picks where the
  shard pipelines run;
* ``compare`` -- diff two archived result files (the cross-detector
  equivalence check, as a tool);
* ``serve`` -- run the asyncio multi-tenant ingestion service (NDJSON
  over TCP plus an HTTP control plane; see ``repro.serve``), with
  graceful SIGTERM drain to a sharded checkpoint and ``--resume``.

Everything the CLI does goes through the public library API, so the
commands double as executable documentation.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .baselines.leap import LEAPDetector
from .baselines.mcod import MCODDetector
from .baselines.naive import NaiveDetector
from .core.multi_attr import MultiAttributeDetector
from .core.parser import parse_workload
from .core.queries import QueryGroup
from .core.sop import SOPDetector
from .engine.config import DetectorConfig
from .metrics.results import compare_outputs
from .runtime.backends import ShardFailure
from .streams.replay import (
    load_points_csv,
    load_results_jsonl,
    save_points_csv,
    save_results_jsonl,
    save_trades_csv,
)
from .streams.stock import StockTradeSimulator
from .streams.synthetic import SyntheticConfig, SyntheticStream
from .workload_io import load_workload, save_workload

__all__ = ["main", "build_parser"]

_ALGORITHMS = {
    "sop": SOPDetector,
    "mcod": MCODDetector,
    "leap": LEAPDetector,
    "naive": NaiveDetector,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SOP: sharing-aware multi-query stream outlier detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a stream")
    gen_sub = gen.add_subparsers(dest="source", required=True)

    syn = gen_sub.add_parser("synthetic", help="Gaussian+uniform stream")
    syn.add_argument("--n", type=int, default=10_000)
    syn.add_argument("--dim", type=int, default=2)
    syn.add_argument("--outlier-rate", type=float, default=0.03)
    syn.add_argument("--clusters", type=int, default=4)
    syn.add_argument("--spread", type=float, default=120.0)
    syn.add_argument("--seed", type=int, default=7)
    syn.add_argument("--out", required=True, help="points CSV path")

    stk = gen_sub.add_parser("stock", help="simulated STT trade trace")
    stk.add_argument("--n", type=int, default=10_000)
    stk.add_argument("--tickers", type=int, default=8)
    stk.add_argument("--anomaly-rate", type=float, default=0.01)
    stk.add_argument("--seed", type=int, default=11)
    stk.add_argument("--attributes", default="price,log_volume",
                     help="comma-separated point attributes")
    stk.add_argument("--out", required=True, help="points CSV path")
    stk.add_argument("--trades-out", default=None,
                     help="also write the raw trade trace CSV here")

    wl = sub.add_parser("workload", help="sample a Table 1 workload")
    wl.add_argument("--spec", default="G", help="Table 1 class A..G")
    wl.add_argument("--n", type=int, default=10, help="number of queries")
    wl.add_argument("--seed", type=int, default=0)
    wl.add_argument("--out", required=True, help="workload JSON path")

    exp = sub.add_parser("explain", help="print a workload's skyband plan")
    exp.add_argument("--workload", required=True)

    det = sub.add_parser("detect", help="run detection over a stream CSV")
    det.add_argument("--stream", required=True, help="points CSV")
    det.add_argument("--workload", required=True, help="workload JSON")
    det.add_argument("--algorithm", choices=sorted(_ALGORITHMS),
                     default="sop")
    det.add_argument("--out", default=None, help="results JSONL path")
    det.add_argument("--until", type=int, default=None,
                     help="stop at this boundary")
    det.add_argument("--prefilter", choices=DetectorConfig._PREFILTERS,
                     default="none",
                     help="first-tier inlier screen ahead of the exact "
                          "K-SKY refresh: qn prunes only provably "
                          "k-satisfied points (windowed Qn/MAD robust-scale "
                          "anchors; outputs byte-identical to none); none "
                          "disables screening (SOP only)")
    det.add_argument("--lazy", action="store_true",
                     help="refresh evidence only at boundaries with due "
                          "queries instead of eagerly every slide (SOP only)")
    det.add_argument("--shards", type=int, default=1,
                     help="value-partition the stream across this many "
                          "detector shards (exact; default 1)")
    det.add_argument("--backend", choices=DetectorConfig._BACKENDS,
                     default="serial",
                     help="where shard pipelines run: in-process (serial), "
                          "one worker process per shard (process, "
                          "fail-fast), or supervised workers with crash "
                          "detection, deadlines, and bounded retry")
    det.add_argument("--replication-radius", type=float, default=0.0,
                     help="border replication radius; 0 = auto (the "
                          "workload's largest query radius, always exact)")
    det.add_argument("--on-shard-failure",
                     choices=DetectorConfig._FAILURE_POLICIES,
                     default="retry",
                     help="supervised backend policy when a shard exhausts "
                          "its attempts: fail fast, retry then fail, or "
                          "drop the shard and mark the result PARTIAL")
    det.add_argument("--max-shard-retries", type=int, default=2,
                     help="relaunch budget per shard (supervised backend)")
    det.add_argument("--shard-deadline", type=float, default=0.0,
                     help="per-attempt wall-clock deadline in seconds for "
                          "a shard worker; 0 = no deadline (supervised)")
    det.add_argument("--validate-ingest", action="store_true",
                     help="quarantine poison records (NaN/inf coordinates, "
                          "seq/time regressions) to a counted side channel "
                          "instead of corrupting window state")
    det.add_argument("--fault-plan", default=None,
                     help="deterministic chaos schedule: inline JSON or a "
                          "path to a FaultPlan JSON file (testing/CI; see "
                          "repro.testing.faults)")

    cmp_ = sub.add_parser("compare", help="diff two archived result files")
    cmp_.add_argument("--a", required=True)
    cmp_.add_argument("--b", required=True)

    srv = sub.add_parser("serve", help="run the asyncio ingestion service")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=7077,
                     help="NDJSON ingest port (0 picks one)")
    srv.add_argument("--http-port", type=int, default=7078,
                     help="/healthz + /metrics port (0 picks one)")
    srv.add_argument("--workload", default=None,
                     help="workload JSON to pre-register (clients can "
                     "also register over the wire)")
    srv.add_argument("--queue-bound", type=int, default=1024,
                     help="per-session ingest queue bound (backpressure)")
    srv.add_argument("--checkpoint", default=None,
                     help="sharded checkpoint directory (graceful drain "
                     "writes here; enables --resume)")
    srv.add_argument("--checkpoint-interval", type=int, default=0,
                     help="also checkpoint every N boundaries (0: only "
                     "on drain)")
    srv.add_argument("--resume", action="store_true",
                     help="restore engine state from --checkpoint")
    srv.add_argument("--shards", type=int, default=1,
                     help="value-partition across N detector shards")
    srv.add_argument("--replication-radius", type=float, default=0.0,
                     help="border replication radius (0: derive from r)")
    srv.add_argument("--prefilter", choices=DetectorConfig._PREFILTERS,
                     default="none")

    return parser


def _cmd_generate(args) -> int:
    if args.source == "synthetic":
        stream = SyntheticStream(SyntheticConfig(
            dim=args.dim, outlier_rate=args.outlier_rate,
            n_clusters=args.clusters, cluster_spread=args.spread,
            seed=args.seed,
        ))
        n = save_points_csv(stream.take(args.n), args.out)
        print(f"wrote {n} synthetic points to {args.out}")
        return 0
    sim = StockTradeSimulator(
        n_trades=args.n, n_tickers=args.tickers,
        anomaly_rate=args.anomaly_rate, seed=args.seed,
    )
    attributes = tuple(a.strip() for a in args.attributes.split(","))
    n = save_points_csv(sim.points(attributes), args.out)
    print(f"wrote {n} stock points ({','.join(attributes)}) to {args.out}")
    if args.trades_out:
        m = save_trades_csv(sim.records(), args.trades_out)
        print(f"wrote {m} raw trades to {args.trades_out}")
    return 0


def _cmd_workload(args) -> int:
    from .bench.workloads import build_workload

    group = build_workload(args.spec, args.n, seed=args.seed)
    save_workload(list(group.queries), args.out)
    print(f"wrote workload {args.spec.upper()} with {len(group)} queries "
          f"to {args.out}")
    return 0


def _cmd_explain(args) -> int:
    queries = load_workload(args.workload)
    attr_sets = {q.attributes for q in queries}
    if len(attr_sets) > 1:
        print(f"{len(queries)} queries over {len(attr_sets)} attribute sets "
              "(divide & conquer applies); per-set plans:")
        from .core.multi_attr import partition_by_attributes
        for attrs, idxs in partition_by_attributes(queries).items():
            sub = QueryGroup([queries[i].replace(attributes=None)
                              for i in idxs])
            print(f"\n[attributes={attrs}]")
            print(parse_workload(sub).describe())
        return 0
    plan = parse_workload(QueryGroup(queries))
    print(plan.describe())
    print(f"Def. 6 reach table (dominators -> max layer): "
          f"{list(plan.allowed_layer)[:16]}"
          f"{'...' if plan.k_max > 16 else ''}")
    return 0


def _cmd_detect(args) -> int:
    from functools import partial

    from .runtime import Runtime

    points = load_points_csv(args.stream)
    queries = load_workload(args.workload)
    base = _ALGORITHMS[args.algorithm]
    config = DetectorConfig(
        eager=not args.lazy,
        prefilter=args.prefilter,
        shards=args.shards,
        backend=args.backend,
        replication_radius=args.replication_radius,
        on_shard_failure=args.on_shard_failure,
        max_shard_retries=args.max_shard_retries,
        shard_deadline=args.shard_deadline,
        validate_ingest=args.validate_ingest,
        fault_plan=args.fault_plan,
    )
    # shards/backend/supervision/ingest apply to every algorithm; the
    # remaining knobs are SOP-only and silently ignoring them would mislead
    sop_only = config.replace(shards=1, backend="serial",
                              replication_radius=0.0,
                              on_shard_failure="retry",
                              max_shard_retries=2, shard_deadline=0.0,
                              validate_ingest=False, fault_plan=None)
    if args.algorithm != "sop" and sop_only != DetectorConfig():
        print(f"note: SOP tuning flags are ignored by {args.algorithm}")
    attr_sets = {q.attributes for q in queries}
    if len(attr_sets) > 1:
        if config.shards > 1:
            print("error: --shards > 1 is not supported for "
                  "multi-attribute workloads (no single partition axis "
                  "is shared by every attribute subset)", file=sys.stderr)
            return 2
        sop_kwargs = {"config": config} if args.algorithm == "sop" else {}
        detector = MultiAttributeDetector(queries, factory=base,
                                          **sop_kwargs)
        result = detector.run(points, until=args.until)
    else:
        factory = (partial(SOPDetector, config=config)
                   if args.algorithm == "sop" else base)
        runtime = Runtime(QueryGroup(queries), factory=factory,
                          config=config)
        try:
            result = runtime.run(points, until=args.until)
        except ShardFailure as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    print(result.summary())
    work = result.work_stats_snapshot()
    print("work: " + ", ".join(
        f"{key}={work[key]}" for key in sorted(work)))
    if args.out:
        n = save_results_jsonl(result.outputs, args.out)
        print(f"archived {n} (query, boundary) outputs to {args.out}")
    if result.partial:
        lost = ",".join(str(s) for s in result.failed_shards)
        print(f"warning: PARTIAL result -- shard(s) {lost} failed and "
              "were dropped (on_shard_failure=drop-and-flag); outputs "
              "above are a lower bound, not the exact answer",
              file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .serve import build_service

    config = DetectorConfig(
        shards=args.shards,
        replication_radius=args.replication_radius,
        prefilter=args.prefilter,
    )
    queries = load_workload(args.workload) if args.workload else []
    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint", file=sys.stderr)
        return 2
    if args.resume and queries:
        print("note: --resume restores the checkpointed workload; "
              "--workload is ignored")
        queries = []

    async def serve() -> int:
        server = build_service(
            config, queries=queries, host=args.host, port=args.port,
            http_port=args.http_port, queue_bound=args.queue_bound,
            checkpoint_path=args.checkpoint,
            checkpoint_interval=args.checkpoint_interval,
            resume=args.resume)
        await server.start()
        server.install_signal_handlers()
        print(f"ingest:  {server.address[0]}:{server.address[1]}")
        print(f"control: http://{server.http_address[0]}:"
              f"{server.http_address[1]}/metrics", flush=True)
        await server.stopped.wait()
        return 0

    return asyncio.run(serve())


def _cmd_compare(args) -> int:
    a = load_results_jsonl(args.a)
    b = load_results_jsonl(args.b)
    diffs = compare_outputs(a, b)
    if not diffs:
        print(f"IDENTICAL: {len(a)} (query, boundary) outputs match")
        return 0
    print(f"DIFFER ({len(diffs)} difference(s) shown):")
    for d in diffs:
        print("  " + d)
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "workload": _cmd_workload,
        "explain": _cmd_explain,
        "detect": _cmd_detect,
        "compare": _cmd_compare,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
