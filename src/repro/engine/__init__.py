"""repro.engine: the staged detector runtime.

The paper's SOP execution model is a *pipeline* per swift boundary --
ingest -> expire -> K-SKY refresh -> safe-inlier pruning -> due-query
evaluation (Alg. 3, Sec. 4.3/5).  This package makes that pipeline an
explicit architecture instead of an implementation detail of one class:

* :class:`DetectorConfig` -- one immutable record of every ablation switch
  and tuning knob, flowing uniformly through the API, the CLI, dynamic
  workload rebuilds, and checkpoint save/restore;
* :class:`StreamExecutor` -- the single drive loop.  It pushes
  boundary-aligned batches through any detector and fires lifecycle hooks
  (``on_ingest`` / ``on_expire`` / ``on_refresh`` / ``on_evaluate`` /
  ``on_boundary_end``) that metering, checkpointing, and alert routing
  subscribe to instead of re-implementing their own loops;
* :class:`RefreshEngine` -- the K-SKY refresh stage: give each of the
  evidence table's rows to refresh its start, run one
  :class:`VectorizedSkybandEngine` ``scan_batched`` sweep over all of
  them (one pairwise kernel per tile), commit them all at once, profile;
* :class:`SafetyTracker` -- the safe-for-all test (Sec. 4.1/4.2) in its
  counting form, as a separable component;
* :class:`DueQueryEvaluator` -- the vectorized due-query classification
  (inlier rule + Lemma 3), read straight off the evidence table.

Every switch and subscriber combination preserves output equality; the
layers only organize *where* work happens (``docs/architecture.md`` maps
each layer back to the paper).
"""

from .config import DetectorConfig
from .evaluator import DueQueryEvaluator
from .executor import ExecutorSubscriber, NULL_HOOKS, StreamExecutor
from .refresh import RefreshEngine, VectorizedSkybandEngine
from .safety import SafetyTracker

__all__ = [
    "DetectorConfig",
    "DueQueryEvaluator",
    "ExecutorSubscriber",
    "NULL_HOOKS",
    "RefreshEngine",
    "SafetyTracker",
    "StreamExecutor",
    "VectorizedSkybandEngine",
]
