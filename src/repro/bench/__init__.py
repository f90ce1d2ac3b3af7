"""repro.bench -- wall-clock benchmark harness and perf trajectory.

Times the paper's headline experiments (fig5, fig6/7) plus a 16x16-mesh
stress case, and pins the numbers as
``benchmarks/perf/BENCH_<name>.json`` snapshots:

* :mod:`repro.bench.cases` -- the benchmark case registry (what to run,
  with a ``--quick`` variant for CI smoke).
* :mod:`repro.bench.runner` -- calibration-normalized timing, snapshot
  I/O and the baseline comparison gate.

Raw wall-clock is machine-dependent, so every run also times a fixed
pure-Python calibration loop and records ``normalized_score =
events_per_sec / calibration_events_per_sec``; the regression gate in
``benchmarks/perf/test_bench_wallclock.py`` and ``repro bench --check``
compares *normalized* scores, which cancels most host-speed variance.
``docs/performance.md`` documents the workflow.
"""

from .cases import CASES, BenchCase, get_case
from .runner import (DEFAULT_REPEATS, DEFAULT_TOLERANCE, BenchComparison,
                     BenchSnapshot, calibrate, compare_snapshots,
                     load_snapshot, run_case, snapshot_path, write_snapshot)

__all__ = ["CASES", "BenchCase", "get_case",
           "BenchSnapshot", "BenchComparison",
           "calibrate", "run_case", "compare_snapshots",
           "load_snapshot", "write_snapshot", "snapshot_path",
           "DEFAULT_REPEATS", "DEFAULT_TOLERANCE"]
