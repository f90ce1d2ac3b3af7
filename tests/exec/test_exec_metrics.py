"""Executor metric streams, import cost, and the RunResult metrics round
trip."""

import os
import subprocess
import sys
from pathlib import Path

from helpers import assert_attempts_accounted

import repro
from repro.chip.results import RunResult
from repro.exec import ParallelRunner, ResultCache, RunSpec
from repro.workloads.synthetic import SyntheticBarrierWorkload


def spec(iterations=1):
    return RunSpec.make(SyntheticBarrierWorkload(iterations=iterations),
                        "gl", num_cores=4)


def test_runner_publishes_hit_miss_counters(tmp_path):
    runner = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
    runner.run([spec()])                     # cold: miss
    runner.run([spec(), spec(2)])            # one hit, one miss
    assert (runner.hits, runner.misses) == (1, 2)
    counters = runner.metrics.to_dict()["counters"]
    assert counters["exec.cache.hits"] == runner.hits == 1
    assert counters["exec.cache.misses"] == runner.misses == 2
    assert_attempts_accounted(runner.metrics)


def test_uncached_runner_counts_only_misses():
    """No cache hits are counted, and the in-process attempt is tallied
    like a worker's."""
    runner = ParallelRunner(jobs=1, cache=None)
    runner.run([spec()])
    assert runner.metrics.to_dict()["counters"] == {
        "exec.cache.misses": 1, "exec.attempts": 1, "exec.ok": 1}
    assert_attempts_accounted(runner.metrics)


def test_importing_the_executor_does_not_import_asyncio():
    """The dispatcher's asyncio (tens of milliseconds) loads only when a
    runner first launches a process, not on ``import repro.exec``."""
    probe = ("import sys, repro.exec, repro.exec.parallel; "
             "print('asyncio' in sys.modules)")
    src = str(Path(repro.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True, env=env).stdout
    assert out.strip() == "False"


def test_cached_result_has_no_metrics_payload(tmp_path):
    """Plain executor runs never attach observability, so the cached dict
    carries an empty metrics field -- hits stay byte-identical."""
    runner = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
    cold = runner.run_one(spec())
    warm = runner.run_one(spec())
    assert cold.metrics == warm.metrics == {}
    assert cold.to_dict() == warm.to_dict()


def test_run_result_metrics_round_trip():
    base = spec().execute().to_dict()
    base["metrics"] = {"counters": {"x": 1}, "gauges": {}, "histograms": {}}
    clone = RunResult.from_dict(base)
    assert clone.metrics == base["metrics"]
    assert clone.to_dict() == base


def test_run_result_tolerates_pre_obs_cache_entries():
    legacy = spec().execute().to_dict()
    del legacy["metrics"]                    # entry written before repro.obs
    assert RunResult.from_dict(legacy).metrics == {}
