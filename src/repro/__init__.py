"""repro: SOP -- Sharing-Aware Outlier Analytics over High-Volume Data Streams.

A production-quality reproduction of Cao, Wang, Rundensteiner (SIGMOD 2016).
The package answers a *workload* of distance-based outlier detection queries
``q(r, k, win, slide)`` over one data stream by transforming the multi-query
problem into a single skyband computation per point (K-SKY over the LSky
structure), with full CPU/memory sharing across queries.

Quickstart::

    from repro import (OutlierQuery, QueryGroup, SOPDetector, WindowSpec,
                       make_synthetic_points)

    queries = [
        OutlierQuery(r=300, k=5, window=WindowSpec(win=1000, slide=100)),
        OutlierQuery(r=800, k=8, window=WindowSpec(win=2000, slide=200)),
    ]
    detector = SOPDetector(QueryGroup(queries))
    result = detector.run(make_synthetic_points(5000))
    print(result.summary())

Baselines (`NaiveDetector`, `MCODDetector`, `LEAPDetector`) share the same
interface and produce identical outlier sets; the benchmark harness under
``repro.bench`` regenerates every figure of the paper's evaluation.
"""

from .api import detect_outliers, outlier_flags
from .baselines.base import Detector
from .checkpoint import (
    CheckpointSubscriber,
    CheckpointedRun,
    ShardedCheckpointSubscriber,
    load_checkpoint,
    load_sharded_checkpoint,
    save_checkpoint,
    save_sharded_checkpoint,
)
from .engine import (
    DetectorConfig,
    DueQueryEvaluator,
    ExecutorSubscriber,
    RefreshEngine,
    SafetyTracker,
    StreamExecutor,
    VectorizedSkybandEngine,
)
from .baselines.leap import LEAPDetector
from .baselines.mcod import MCODDetector
from .baselines.naive import NaiveDetector, brute_force_outliers
from .core.evaluator import (
    is_fully_safe,
    is_outlier_for_query,
    outlier_query_indexes,
    safe_min_layers,
)
from .core.ksky import KSkyResult, KSkyRunner, sky_evaluate
from .core.lsky import LSky
from .core.multi_attr import (
    MultiAttributeDetector,
    MultiAttributeSOP,
    partition_by_attributes,
)
from .core.parser import RGrid, SkybandPlan, parse_workload
from .core.point import (
    DistanceMetric,
    Point,
    available_metrics,
    chebyshev,
    euclidean,
    get_metric,
    manhattan,
    points_from_array,
    register_metric,
)
from .core.queries import OutlierQuery, QueryGroup
from .core.dynamic import DynamicSOPDetector
from .core.sop import SOPDetector
from .metrics.meters import CpuMeter, MemoryMeter
from .metrics.profiling import RefreshProfile
from .metrics.results import RunResult, compare_outputs
from .runtime import (
    Backend,
    Merger,
    ProcessPoolBackend,
    Runtime,
    SerialBackend,
    ShardExecutor,
    ShardFailure,
    StreamPartitioner,
    SupervisedProcessBackend,
    make_backend,
)
from .metrics.results import merge_work
from .streams.buffer import WindowBuffer
from .streams.source import (
    IngestGuard,
    ListSource,
    StreamSource,
    batches_by_boundary,
    stream_end_boundary,
)
from .testing import (
    Fault,
    FaultInjector,
    FaultPlan,
    InjectedCrash,
    tear_file,
)
from .streams.replay import (
    load_points_csv,
    load_results_jsonl,
    load_trades_csv,
    save_points_csv,
    save_results_jsonl,
    save_trades_csv,
)
from .streams.stock import StockTradeSimulator, TradeRecord, make_stock_points
from .streams.synthetic import (
    SyntheticConfig,
    SyntheticStream,
    make_synthetic_points,
)
from .streams.windows import COUNT, TIME, SwiftSchedule, WindowSpec, gcd_all
from .alerts import (
    Alert,
    AlertRouter,
    AlertSink,
    AlertSubscriber,
    CallbackSink,
    CollectingSink,
    CountingSink,
    run_with_alerts,
)
from .serve import (
    IngestionServer,
    ServiceEngine,
    StreamSession,
    WireError,
    build_service,
)
from .workload_io import load_workload, save_workload

__version__ = "1.0.0"

__all__ = [
    "COUNT",
    "TIME",
    "CpuMeter",
    "Detector",
    "DistanceMetric",
    "KSkyResult",
    "KSkyRunner",
    "LEAPDetector",
    "LSky",
    "ListSource",
    "MCODDetector",
    "MemoryMeter",
    "RefreshProfile",
    "MultiAttributeDetector",
    "MultiAttributeSOP",
    "NaiveDetector",
    "OutlierQuery",
    "Point",
    "QueryGroup",
    "RGrid",
    "RunResult",
    "SOPDetector",
    "SkybandPlan",
    "StockTradeSimulator",
    "StreamSource",
    "SwiftSchedule",
    "SyntheticConfig",
    "SyntheticStream",
    "TradeRecord",
    "WindowBuffer",
    "WindowSpec",
    "Alert",
    "AlertRouter",
    "AlertSink",
    "AlertSubscriber",
    "Backend",
    "CallbackSink",
    "CheckpointSubscriber",
    "CheckpointedRun",
    "CollectingSink",
    "CountingSink",
    "DetectorConfig",
    "DueQueryEvaluator",
    "DynamicSOPDetector",
    "ExecutorSubscriber",
    "IngestionServer",
    "Merger",
    "ProcessPoolBackend",
    "RefreshEngine",
    "Runtime",
    "SafetyTracker",
    "SerialBackend",
    "ServiceEngine",
    "ShardExecutor",
    "ShardedCheckpointSubscriber",
    "StreamExecutor",
    "StreamPartitioner",
    "StreamSession",
    "WireError",
    "VectorizedSkybandEngine",
    "available_metrics",
    "batches_by_boundary",
    "brute_force_outliers",
    "build_service",
    "chebyshev",
    "compare_outputs",
    "detect_outliers",
    "euclidean",
    "gcd_all",
    "get_metric",
    "is_fully_safe",
    "is_outlier_for_query",
    "load_checkpoint",
    "load_points_csv",
    "load_sharded_checkpoint",
    "make_backend",
    "merge_work",
    "load_results_jsonl",
    "load_trades_csv",
    "load_workload",
    "make_stock_points",
    "make_synthetic_points",
    "manhattan",
    "outlier_query_indexes",
    "outlier_flags",
    "parse_workload",
    "partition_by_attributes",
    "points_from_array",
    "register_metric",
    "run_with_alerts",
    "save_checkpoint",
    "save_points_csv",
    "save_results_jsonl",
    "save_sharded_checkpoint",
    "save_trades_csv",
    "save_workload",
    "safe_min_layers",
    "sky_evaluate",
    "stream_end_boundary",
]
