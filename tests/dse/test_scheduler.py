"""SweepScheduler: cache/journal integration, pools, retries, chaos,
and the exec.* metric accounting identity."""

import pytest
from helpers import assert_attempts_accounted

from repro.dse import SPACES, SweepScheduler, WorkerPool
from repro.exec import ResultCache, RunFailureError, SweepJournal
from repro.faults.chaos import ChaosPlan


def _specs(n=4, fidelity=1):
    space = SPACES["smoke"]
    points = [p for p in space.points()][:n]
    return [space.build_spec(p, fidelity) for p in points]


class ExplodingSpec:
    """A picklable spec whose execution always raises (sim-error)."""

    def key(self):
        return "boom" + "0" * 60

    def fingerprint(self):
        return {"boom": True}

    def execute(self):
        raise ValueError("deterministic failure")


def test_results_are_positional_and_cached(tmp_path):
    cache = ResultCache(tmp_path)
    specs = _specs(3)
    sched = SweepScheduler(jobs=2, cache=cache)
    results = sched.run(specs)
    assert len(results) == 3
    for spec, result in zip(specs, results):
        assert result.total_cycles > 0
        assert spec.key() in cache
    assert (sched.hits, sched.misses) == (0, 3)
    assert_attempts_accounted(sched.metrics)

    warm = SweepScheduler(jobs=2, cache=cache)
    again = warm.run(specs)
    assert (warm.hits, warm.misses) == (3, 0)
    assert warm.metrics.counter("exec.attempts").value == 0
    assert [r.to_dict() for r in again] == \
        [r.to_dict() for r in results]


def test_scheduler_matches_direct_execution(tmp_path):
    spec = _specs(1)[0]
    [result] = SweepScheduler(jobs=1, cache=ResultCache(tmp_path)) \
        .run([spec])
    assert result.to_dict() == spec.execute().to_dict()


def test_multiple_pools_share_the_batch(tmp_path):
    pools = (WorkerPool("a", 1), WorkerPool("b", 1))
    sched = SweepScheduler(pools, cache=ResultCache(tmp_path))
    sched.run(_specs(4))
    a = sched.metrics.counter("exec.pool.a.launched").value
    b = sched.metrics.counter("exec.pool.b.launched").value
    assert a == b == 2          # round-robin assignment
    assert_attempts_accounted(sched.metrics)


def test_pool_validation():
    with pytest.raises(ValueError):
        WorkerPool("", 1)
    with pytest.raises(ValueError):
        WorkerPool("p", 0)
    with pytest.raises(ValueError):
        SweepScheduler((WorkerPool("p", 1), WorkerPool("p", 2)))
    with pytest.raises(ValueError):
        SweepScheduler((WorkerPool("p", 1),), jobs=2)
    with pytest.raises(ValueError):
        SweepScheduler(jobs=1, retries=-1)


def test_sim_error_fails_fast_without_retries(tmp_path):
    sched = SweepScheduler(jobs=1, cache=ResultCache(tmp_path),
                           keep_going=True)
    results = sched.run([ExplodingSpec()])
    assert results == [None]
    assert len(sched.failures) == 1
    assert sched.failures[0].kind == "sim-error"
    assert sched.metrics.counter("exec.retries").value == 0
    assert_attempts_accounted(sched.metrics)


def test_failures_raise_without_keep_going(tmp_path):
    sched = SweepScheduler(jobs=1, cache=ResultCache(tmp_path))
    with pytest.raises(RunFailureError):
        sched.run([ExplodingSpec()])


def test_keep_going_mixes_failures_and_results(tmp_path):
    good = _specs(1)
    sched = SweepScheduler(jobs=2, cache=ResultCache(tmp_path),
                           keep_going=True)
    results = sched.run([ExplodingSpec()] + good)
    assert results[0] is None
    assert results[1].total_cycles > 0
    assert [f.index for f in sched.failures] == [0]


def test_chaos_kill_is_retried_and_journal_consistent(tmp_path):
    """The acceptance-criteria chaos run: a seeded killed worker is
    retried, results match a calm run, and the journal is consistent."""
    specs = _specs(4)
    calm = SweepScheduler(jobs=2, cache=ResultCache(tmp_path / "calm"))
    expected = [r.to_dict() for r in calm.run(specs)]

    journal_path = tmp_path / "sweep.jsonl"
    journal = SweepJournal(journal_path, argv=["dse", "--test"])
    sched = SweepScheduler(
        jobs=2, cache=ResultCache(tmp_path / "chaos"), journal=journal,
        chaos=ChaosPlan(seed=0, kill_rate=0.3), retries=6)
    results = sched.run(specs)
    journal.close()

    assert [r.to_dict() for r in results] == expected
    metrics = sched.metrics
    assert metrics.counter("exec.crashes").value > 0
    assert metrics.counter("exec.retries").value == \
        metrics.counter("exec.crashes").value
    assert metrics.counter("exec.quarantined").value == 0
    assert_attempts_accounted(metrics)

    records = SweepJournal.records(journal_path)
    kinds = [r["type"] for r in records]
    assert kinds[0] == "begin"
    assert "crash" in [r.get("outcome") for r in records
                       if r["type"] == "attempt"]
    done = SweepJournal.completed_keys(journal_path)
    assert done == {spec.key() for spec in specs}


def test_exhausted_retries_quarantine(tmp_path):
    specs = _specs(1)
    journal = SweepJournal(tmp_path / "j.jsonl", argv=["x"])
    sched = SweepScheduler(
        jobs=1, cache=ResultCache(tmp_path), journal=journal,
        chaos=ChaosPlan(seed=0, kill_rate=1.0), retries=1,
        keep_going=True)
    results = sched.run(specs)
    journal.close()
    assert results == [None]
    assert sched.failures[0].kind == "quarantined"
    assert sched.failures[0].attempts == 2
    assert sched.metrics.counter("exec.quarantined").value == 1
    records = SweepJournal.records(tmp_path / "j.jsonl")
    assert [r["type"] for r in records].count("quarantined") == 1
    assert_attempts_accounted(sched.metrics)


def test_journal_hits_recorded_for_cache_hits(tmp_path):
    cache = ResultCache(tmp_path)
    specs = _specs(2)
    SweepScheduler(jobs=1, cache=cache).run(specs)
    journal = SweepJournal(tmp_path / "j.jsonl", argv=["x"])
    warm = SweepScheduler(jobs=1, cache=cache, journal=journal)
    warm.run(specs)
    journal.close()
    records = SweepJournal.records(tmp_path / "j.jsonl")
    assert [r["type"] for r in records].count("hit") == 2
