"""Supervised execution: deadlines, retries, quarantine, chaos, SIGINT.

These tests drive the run dispatcher through its public surface --
``ParallelRunner(..., timeout=/retries=/keep_going=/journal=/chaos=)`` --
so they cover the facade in :mod:`repro.exec.parallel` too.
"""

import multiprocessing
import os
import signal
import threading

import pytest
from helpers import assert_attempts_accounted

from repro.common.errors import SimulationError
from repro.exec import (ParallelRunner, ResultCache, RunFailureError,
                        RunSpec, SweepJournal, deadline_for)
from repro.exec.scheduler import SweepScheduler
from repro.exec.supervisor import (CHAOS_DEFAULT_TIMEOUT_S,
                                   DEADLINE_FLOOR_S, QUARANTINED,
                                   SECONDS_PER_EVENT, SIM_ERROR)
from repro.faults import ChaosPlan
from repro.verify.shard import VerifyShardSpec
from repro.workloads.base import Workload
from repro.workloads.synthetic import SyntheticBarrierWorkload


def _spec(iterations=1, barrier="gl", cores=4, **kw):
    return RunSpec.make(SyntheticBarrierWorkload(iterations=iterations),
                        barrier, num_cores=cores, **kw)


def _specs(n=4):
    return [_spec(iterations=i, barrier=b)
            for i in range(1, n // 2 + 1) for b in ("gl", "dsw")]


class ExplodingWorkload(Workload):
    """Raises deterministically inside the simulation (a sim-error)."""

    name = "Exploding"

    def __init__(self, fuse: int = 0):
        self.fuse = fuse

    def programs(self, chip):
        raise SimulationError(f"boom (fuse={self.fuse})")


def _exploding_spec():
    return RunSpec.make(ExplodingWorkload(), "gl", num_cores=4)


class UnpicklableError(Exception):
    """Pickles, but cannot be rebuilt from its args on the other side."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


class UnpicklableErrorWorkload(ExplodingWorkload):
    name = "UnpicklableError"

    def programs(self, chip):
        raise UnpicklableError(1, 2)


#: A plan whose first-attempt kills are known: seed 0 at kill_rate=0.25
#: strikes dispatch ordinals 1, 2, 5, 9, 11 (of 0..11) on attempt 0 and
#: none of them on attempt 1 (pinned by test_chaos determinism).
KILL_PLAN = ChaosPlan(seed=0, kill_rate=0.25)


# ---------------------------------------------------------------------- #
# Supervised == basic == sequential
# ---------------------------------------------------------------------- #
def test_supervised_results_match_basic(tmp_path):
    specs = _specs(4)
    basic = ParallelRunner(jobs=2, cache=None).run(specs)
    supervised = ParallelRunner(jobs=2, cache=ResultCache(tmp_path),
                                timeout=120).run(specs)
    assert [a.to_dict() for a in basic] == \
        [b.to_dict() for b in supervised]


def test_supervision_knobs_engage_supervised_mode(tmp_path):
    assert not ParallelRunner(jobs=4).supervised
    assert ParallelRunner(jobs=4, timeout=1.0).supervised
    assert ParallelRunner(jobs=4, retries=0).supervised
    assert ParallelRunner(jobs=4, keep_going=True).supervised
    assert ParallelRunner(
        jobs=4, journal=SweepJournal(tmp_path / "j", argv=[])).supervised
    assert ParallelRunner(jobs=4, chaos=KILL_PLAN).supervised
    # A disabled chaos plan engages nothing.
    assert not ParallelRunner(jobs=4, chaos=ChaosPlan()).supervised


def test_supervised_default_retries():
    assert ParallelRunner(jobs=1).retries == 0
    assert ParallelRunner(jobs=1, timeout=5.0).retries == 2
    assert ParallelRunner(jobs=1, timeout=5.0, retries=7).retries == 7


# ---------------------------------------------------------------------- #
# Chaos: crash retry, quarantine, partial results
# ---------------------------------------------------------------------- #
def test_chaos_kills_are_retried_to_success(tmp_path):
    journal = SweepJournal(tmp_path / "j.jsonl", argv=["test"])
    runner = ParallelRunner(jobs=2, cache=ResultCache(tmp_path / "c"),
                            chaos=KILL_PLAN, retries=2, timeout=120,
                            journal=journal)
    specs = _specs(4)            # ordinals 0..3; seed 0 kills 1 and 2
    results = runner.run(specs)
    reference = ParallelRunner(jobs=1, cache=None).run(specs)
    assert [a.to_dict() for a in results] == \
        [b.to_dict() for b in reference]
    counters = runner.metrics.to_dict()["counters"]
    assert counters["exec.crashes"] == 2
    assert counters["exec.retries"] == 2
    assert "exec.quarantined" not in counters
    assert_attempts_accounted(runner.metrics)
    records = SweepJournal.records(tmp_path / "j.jsonl")
    crashes = [r for r in records if r["type"] == "attempt"
               and r["outcome"] == "crash"]
    assert len(crashes) == 2
    assert len([r for r in records if r["type"] == "done"]) == 4


def test_poison_spec_is_quarantined_keep_going(tmp_path):
    journal = SweepJournal(tmp_path / "j.jsonl", argv=["test"])
    runner = ParallelRunner(jobs=2, cache=ResultCache(tmp_path / "c"),
                            chaos=ChaosPlan(seed=3, kill_rate=1.0),
                            retries=1, keep_going=True, journal=journal)
    specs = _specs(2)
    results = runner.run(specs)
    assert results == [None, None]
    assert len(runner.failures) == 2
    assert all(f.kind == QUARANTINED for f in runner.failures)
    assert sorted(f.index for f in runner.failures) == [0, 1]
    assert all(f.attempts == 2 for f in runner.failures)  # 1 + 1 retry
    assert runner.metrics.to_dict()["counters"]["exec.quarantined"] == 2
    assert_attempts_accounted(runner.metrics)
    quarantined = [r for r in
                   SweepJournal.records(tmp_path / "j.jsonl")
                   if r["type"] == "quarantined"]
    assert len(quarantined) == 2
    assert all(r["last"] == "crash" for r in quarantined)


def test_failure_without_keep_going_raises_run_failure_error(tmp_path):
    runner = ParallelRunner(jobs=1, cache=None, retries=0,
                            chaos=ChaosPlan(seed=11, kill_rate=1.0))
    with pytest.raises(RunFailureError, match="quarantined") as excinfo:
        runner.run([_spec(iterations=1)])
    (failure,) = excinfo.value.failures
    assert failure.kind == QUARANTINED
    assert failure.index == 0
    assert "crash" in failure.detail


def test_partial_results_cached_before_abort(tmp_path):
    """With keep_going off, completed specs still land in the cache, so
    a rerun only re-simulates the failed one."""
    cache = ResultCache(tmp_path)
    # seed 0/0.25 kills ordinals 1, 2, 5, 9, 11; retries=0 quarantines
    # the first strike.  Serial dispatch => ordinal 0 completes first.
    runner = ParallelRunner(jobs=1, cache=cache, chaos=KILL_PLAN,
                            retries=0)
    specs = _specs(4)
    with pytest.raises(RunFailureError):
        runner.run(specs)
    # Ordinal 0 completed; the failure of ordinal 1 stopped new launches.
    assert [spec.key() in cache for spec in specs] == \
        [True, False, False, False]
    rerun = ParallelRunner(jobs=1, cache=cache)
    rerun.run(specs)
    assert rerun.hits >= 1


# ---------------------------------------------------------------------- #
# Timeouts
# ---------------------------------------------------------------------- #
def test_hang_is_killed_at_deadline_and_retried(tmp_path):
    # Hang on every first attempt, never on retries: rate 1.0 would hang
    # forever, so use a plan that hangs attempt 0 deterministically via
    # probing.
    plan = None
    for seed in range(200):
        candidate = ChaosPlan(seed=seed, hang_rate=0.5, hang_seconds=60)
        if candidate.roll("0", 0) == "hang" \
                and candidate.roll("0", 1) is None:
            plan = candidate
            break
    assert plan is not None
    journal = SweepJournal(tmp_path / "j.jsonl", argv=["test"])
    runner = ParallelRunner(jobs=1, cache=None, chaos=plan, retries=1,
                            timeout=1.0, journal=journal,
                            backoff_base=0.01)
    (result,) = runner.run([_spec(iterations=1)])
    reference = ParallelRunner(jobs=1, cache=None).run_one(
        _spec(iterations=1))
    assert result.to_dict() == reference.to_dict()
    counters = runner.metrics.to_dict()["counters"]
    assert counters["exec.timeouts"] == 1
    assert counters["exec.retries"] == 1
    assert_attempts_accounted(runner.metrics)
    outcomes = [r["outcome"] for r in
                SweepJournal.records(tmp_path / "j.jsonl")
                if r["type"] == "attempt"]
    assert outcomes == ["timeout", "ok"]


def test_deadline_for_precedence():
    explicit = deadline_for(_spec(max_events=100), 3.5)
    assert explicit == 3.5
    derived = deadline_for(_spec(max_events=100), None)
    assert derived == DEADLINE_FLOOR_S + 100 * SECONDS_PER_EVENT
    assert deadline_for(_spec(), None) is None
    # A spec kind without an event budget at all: no derived deadline.
    assert deadline_for(VerifyShardSpec(rows=2, cols=2), None) is None


def test_hang_chaos_defaults_a_timeout():
    scheduler = SweepScheduler(jobs=1,
                               chaos=ChaosPlan(seed=0, hang_rate=0.5))
    assert scheduler.timeout == CHAOS_DEFAULT_TIMEOUT_S


# ---------------------------------------------------------------------- #
# Sim errors: deterministic, never retried
# ---------------------------------------------------------------------- #
def test_sim_error_fails_fast_without_retry(tmp_path):
    journal = SweepJournal(tmp_path / "j.jsonl", argv=["test"])
    runner = ParallelRunner(jobs=1, cache=None, retries=3,
                            keep_going=True, journal=journal)
    good = _spec(iterations=1)
    results = runner.run([_exploding_spec(), good])
    assert results[0] is None
    assert results[1].to_dict() == \
        ParallelRunner(jobs=1, cache=None).run_one(good).to_dict()
    (failure,) = runner.failures
    assert failure.kind == SIM_ERROR
    assert failure.attempts == 1                 # no retries burned
    assert "SimulationError" in failure.detail
    counters = runner.metrics.to_dict()["counters"]
    assert counters["exec.sim_errors"] == 1
    assert "exec.retries" not in counters
    assert_attempts_accounted(runner.metrics)


def test_unsupervised_sim_error_keeps_original_exception_type():
    runner = ParallelRunner(jobs=1, cache=None)
    with pytest.raises(SimulationError, match="boom"):
        runner.run([_exploding_spec()])
    assert_attempts_accounted(runner.metrics)


def test_unsupervised_parallel_sim_error_keeps_original_exception_type():
    """``--jobs 2`` fails the way ``--jobs 1`` does: the worker ships the
    exception object and the runner re-raises it."""
    runner = ParallelRunner(jobs=2, cache=None)
    with pytest.raises(SimulationError, match="boom"):
        runner.run([_exploding_spec(), _spec(iterations=1)])


def test_sim_error_that_cannot_cross_the_pipe_still_fails_cleanly():
    runner = ParallelRunner(jobs=2, cache=None)
    spec = RunSpec.make(UnpicklableErrorWorkload(), "gl", num_cores=4)
    with pytest.raises(RunFailureError, match="UnpicklableError: 1/2"):
        runner.run([spec, _spec(iterations=1)])


# ---------------------------------------------------------------------- #
# Determinism: same seed => same journal content
# ---------------------------------------------------------------------- #
def test_same_chaos_seed_same_journal(tmp_path):
    def sweep(tag):
        journal = SweepJournal(tmp_path / f"{tag}.jsonl", argv=["test"])
        runner = ParallelRunner(
            jobs=2, cache=ResultCache(tmp_path / f"cache-{tag}"),
            chaos=KILL_PLAN, retries=2, timeout=120, journal=journal,
            backoff_base=0.01)
        results = runner.run(_specs(4))
        journal.close()
        lines = (tmp_path / f"{tag}.jsonl").read_text().splitlines()
        # Line *order* is completion order (racy); content is not.
        return [r.to_dict() for r in results], sorted(lines)

    results_a, journal_a = sweep("a")
    results_b, journal_b = sweep("b")
    assert results_a == results_b
    assert journal_a == journal_b
    assert any('"outcome": "crash"' in line for line in journal_a)


# ---------------------------------------------------------------------- #
# Graceful degradation and clean interrupts
# ---------------------------------------------------------------------- #
def test_pool_shrinks_on_crashes(tmp_path):
    runner = ParallelRunner(jobs=4, cache=None, chaos=KILL_PLAN,
                            retries=2, backoff_base=0.01)
    runner.run(_specs(4))        # ordinals 0..3: kills at 1 and 2
    width = runner.metrics.to_dict()["gauges"]["exec.pool.width"]
    assert width["peak"] == 4
    assert width["value"] == 2


def test_sigint_drains_flushes_and_reraises(tmp_path):
    journal = SweepJournal(tmp_path / "j.jsonl", argv=["test"])
    runner = ParallelRunner(jobs=2, cache=ResultCache(tmp_path / "c"),
                            timeout=60, journal=journal)
    specs = [_spec(iterations=40, barrier=b, cores=16)
             for b in ("csw", "dsw", "gl")] * 2
    timer = threading.Timer(
        1.0, lambda: os.kill(os.getpid(), signal.SIGINT))
    timer.start()
    try:
        with pytest.raises(KeyboardInterrupt):
            runner.run(specs)
    finally:
        timer.cancel()
    assert not multiprocessing.active_children()     # no zombies
    journal.interrupted()        # CLI layer would do this; idempotent
    journal.close()
    types = [r["type"] for r in
             SweepJournal.records(tmp_path / "j.jsonl")]
    assert types.count("interrupted") == 1


def test_keep_going_summary_mentions_failures(tmp_path):
    runner = ParallelRunner(jobs=1, cache=None, retries=0,
                            keep_going=True)
    runner.run([_exploding_spec()])
    assert "1 failed" in runner.summary()
