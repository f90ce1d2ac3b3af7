"""Golden wall-clock regression tests.

Reruns every quick-mode bench case and gates its calibration-normalized
events/sec against the committed ``BENCH_<name>.json`` baseline: a drop
of more than 25% fails.  Normalization (scores are
events/sec divided by a pure-Python reference loop timed on the same
machine, same run) makes the committed numbers portable across hosts --
only *relative* simulator slowdowns trip the gate, not a slower CI box.

Deliberately outside the tier-1 ``tests/`` tree (wall-clock tests do not
belong in a correctness gate).  Run with::

    PYTHONPATH=src python -m pytest benchmarks/perf/

When a slowdown is intentional (or the cases changed shape), refresh the
baselines::

    PYTHONPATH=src python -m repro bench --quick --write

Tests skip cleanly when a baseline file is absent or was generated from
different work (so a case redefinition fails loudly in ``--check`` CI
mode but does not break a local perf run mid-refactor).
"""

from pathlib import Path

import pytest

from repro.bench import CASES, calibrate, compare_snapshots, load_snapshot
from repro.bench.runner import DEFAULT_TOLERANCE, BenchError, run_case

PERF_DIR = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def calibration_eps():
    return calibrate()


@pytest.mark.parametrize("name", sorted(CASES))
def test_quick_case_within_tolerance_of_baseline(name, calibration_eps):
    baseline = load_snapshot(name, PERF_DIR)
    if baseline is None:
        pytest.skip(f"no committed baseline BENCH_{name}.json")
    current = run_case(CASES[name], quick=True, repeats=2,
                       calibration_eps=calibration_eps)
    try:
        comparison = compare_snapshots(current, baseline,
                                       tolerance=DEFAULT_TOLERANCE)
    except BenchError as exc:
        pytest.skip(f"baseline is stale ({exc}); refresh with "
                    f"'repro bench --quick --write'")
    assert not comparison.regressed, comparison.summary()

