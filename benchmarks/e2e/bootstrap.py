"""Imported first by ``run.py``: stamps process start and finds ``src/``.

The benchmark drives the checkout it sits in, never an installed copy, so
``<checkout>/src`` goes to the front of ``sys.path``.  Without it there is no
system to measure and the command must fail before printing any result.
"""

import sys
from pathlib import Path
from time import perf_counter

#: as early as this process can read a clock; ``setup_s`` counts from here
T0 = perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"
CONTRACT = ROOT / "BENCHMARK.json"

if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"benchmarks/e2e: no system under test at {SRC}/repro")
sys.path.insert(0, str(SRC))
