"""Parallel experiment executor: a synchronous, cache-aware facade.

:class:`ParallelRunner` takes batches of independent :class:`RunSpec`\\ s
and returns their :class:`~repro.chip.results.RunResult`\\ s.  Three
invariants keep it a drop-in replacement for the old sequential loops:

* **Same numbers.**  Simulation is deterministic, so a result is identical
  whether it came from this process, a worker, or the cache.  Every result
  -- including in-process ones -- passes through the
  ``RunResult.to_dict()``/``from_dict()`` round trip, so all paths return
  byte-for-byte the same object graph.
* **Order-preserving.**  ``run(specs)`` returns results positionally,
  regardless of which were hits and which ran where.
* **Parent-only cache writes.**  Workers only compute; the parent stores
  results *as they complete*, so work finished before a batch error is
  never lost, and the cache needs no cross-process locking.

Cache hits are served here.  The misses of an unsupervised runner run in
this process when ``jobs == 1`` or there is only one (the default
ambient executor is such a runner: it never launches a process); every
other miss goes through the run dispatcher, the sweep scheduler of
:mod:`repro.exec.scheduler`, whose instance lives as long as the runner.
The supervision keywords (``timeout``, ``retries``, ``keep_going``,
``journal``, ``chaos``) only set that dispatcher's policy.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Sequence

from ..chip.results import RunResult
from ..obs.metrics import MetricsRegistry
from .cache import ResultCache
from .spec import RunSpec
from .supervisor import BACKOFF_BASE_S, RunFailureError


def _result_decoder(spec):
    """The dict->result decoder for *spec*'s result type.

    ``RunSpec`` produces ``RunResult``; other spec kinds (e.g.
    :class:`~repro.verify.shard.VerifyShardSpec`) advertise their own
    decoder via a ``result_from_dict`` attribute.  The cache stores plain
    dicts either way, so storage and IPC stay format-agnostic."""
    return getattr(spec, "result_from_dict", RunResult.from_dict)


def _execute_to_dict(spec: RunSpec) -> dict:
    """Run one spec in the calling process -- an in-process miss or a
    worker's attempt -- as a plain dict (the same format the cache stores
    and the worker IPC ships).

    The ambient executor is forced to a serial, uncached runner for the
    duration, so a workload that (transitively) calls ``run_many`` never
    fans out from inside a batch or writes the cache a second time.
    """
    with use_executor(ParallelRunner(jobs=1, cache=None)):
        return spec.execute().to_dict()


class BatchExecutor:
    """What every executor shares: the result cache, the sweep journal,
    the ``exec.*`` metric streams and the one cache-lookup loop.

    :attr:`hits`/:attr:`misses` count lookups over the executor's
    lifetime; :attr:`failures` collects terminal
    :class:`~repro.exec.supervisor.RunFailure`\\ s under ``keep_going``
    (otherwise they arrive inside :class:`RunFailureError`).
    """

    def __init__(self, cache, journal, metrics):
        #: ``None`` disables caching entirely.
        self.cache = cache
        self.journal = journal
        #: Exportable via ``--metrics``: ``exec.cache.hits`` /
        #: ``exec.cache.misses``, one ``exec.attempts`` plus one of
        #: ``exec.ok`` / ``exec.crashes`` / ``exec.timeouts`` /
        #: ``exec.sim_errors`` per finished attempt, and the dispatcher's
        #: retry, quarantine and pool streams.
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()
        self.hits = 0
        self.misses = 0
        self.failures = []

    def _count(self, name: str) -> None:
        self.metrics.counter(name).inc()

    def _tally(self, outcome: str) -> None:
        """Account one finished attempt under *outcome*'s counter, so
        ``exec.attempts == exec.ok + exec.crashes + exec.timeouts +
        exec.sim_errors`` holds by construction."""
        self._count("exec.attempts")
        self._count(outcome)

    def _lookup(self, specs: Sequence) -> tuple[list, list]:
        """Serve *specs*' cache hits into a positional result list;
        return it with the misses as ``(index, spec, key)`` triples."""
        results: list = [None] * len(specs)
        pending = []
        for i, spec in enumerate(specs):
            key = spec.key() if self.cache is not None else None
            if key is not None:
                stored = self.cache.get(key)
                if stored is not None:
                    self.hits += 1
                    self._count("exec.cache.hits")
                    if self.journal is not None:
                        self.journal.hit(key)
                    results[i] = _result_decoder(spec)(stored)
                    continue
            self.misses += 1
            self._count("exec.cache.misses")
            pending.append((i, spec, key))
        return results, pending

    def _store(self, index: int, spec, key: str | None, result_dict: dict,
               results: list) -> None:
        """Cache a finished run and decode it into its slot."""
        if key is not None:
            self.cache.put(key, spec.fingerprint(), result_dict)
        results[index] = _result_decoder(spec)(result_dict)

    def _capacity(self) -> str:
        raise NotImplementedError

    def summary(self) -> str:
        """One-line cache-hit/miss digest for the CLI."""
        total = self.hits + self.misses
        failed = f", {len(self.failures)} failed" if self.failures else ""
        if self.cache is None:
            return f"cache disabled; {total} runs executed{failed}"
        rate = (self.hits / total * 100) if total else 0.0
        return (f"{self.hits}/{total} cache hits ({rate:.0f}%), "
                f"{self.misses} simulated{failed}  "
                f"[dir={self.cache.directory}, {self._capacity()}]")


class ParallelRunner(BatchExecutor):
    """Executes batches of runs over worker processes, consulting a cache.

    The supervision keywords are all opt-in; without them a failed run
    raises its original exception, as a sequential loop would.

    :param timeout: per-spec wall-clock deadline in seconds (supervised).
    :param retries: bounded retries for crashed/timed-out attempts
        (supervised; default 2 once supervision is engaged).
    :param keep_going: return partial results -- failed positions are
        ``None`` and recorded in :attr:`failures` -- instead of raising
        :class:`~repro.exec.supervisor.RunFailureError`.
    :param journal: a :class:`~repro.exec.journal.SweepJournal` receiving
        hit/attempt/done/quarantine records (enables ``repro resume``).
    :param chaos: a :class:`~repro.faults.ChaosPlan`; workers are
        killed/hung/OOMed per its seeded schedule (testing the
        dispatcher is the only sane use).
    """

    def __init__(self, jobs: int | None = None,
                 cache: ResultCache | None = None, *,
                 timeout: float | None = None,
                 retries: int | None = None,
                 keep_going: bool = False,
                 journal=None,
                 chaos=None,
                 backoff_base: float = BACKOFF_BASE_S):
        super().__init__(cache, journal, None)
        #: Worker-pool width; ``None`` means one worker per CPU.
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.timeout = timeout
        self.keep_going = keep_going
        self.chaos = chaos if (chaos is not None and chaos.enabled) \
            else None
        #: Engaged by any supervision knob; never by plain jobs/cache.
        self.supervised = (timeout is not None or retries is not None
                           or keep_going or journal is not None
                           or self.chaos is not None)
        #: Effective retry budget (crash/timeout only; sim-errors are
        #: deterministic and never retried).
        self.retries = retries if retries is not None \
            else (2 if self.supervised else 0)
        self.backoff_base = backoff_base
        self._scheduler = None

    def _capacity(self) -> str:
        return f"jobs={self.jobs}"

    # ------------------------------------------------------------------ #
    def run(self, specs: Sequence[RunSpec]) -> list[RunResult]:
        """Execute *specs*, returning results in the same order.

        Cache hits are served without simulating; misses run in-process
        or through the scheduler (see the module docstring), and are
        written back to the cache as each completes.  Under
        ``keep_going`` a failed spec's slot is ``None`` and the failure
        is appended to :attr:`failures`.
        """
        results, pending = self._lookup(specs)
        if not pending:
            return results
        if not self.supervised and (self.jobs == 1 or len(pending) == 1):
            for i, spec, key in pending:
                try:
                    result_dict = _execute_to_dict(spec)
                except Exception:
                    self._tally("exec.sim_errors")
                    raise           # serial: nothing later has started
                self._tally("exec.ok")
                self._store(i, spec, key, result_dict, results)
            return results
        try:
            self.failures.extend(
                self._dispatcher().dispatch(pending, results))
        except RunFailureError as exc:
            if not self.supervised:
                # Fail the way the in-process path does: with the first
                # sim-error's own exception.
                first = min(exc.failures, key=lambda f: f.index)
                if first.error is not None:
                    raise first.error from None
            raise
        return results

    def run_one(self, spec: RunSpec) -> RunResult:
        return self.run([spec])[0]

    def _dispatcher(self):
        if self._scheduler is None:
            # Imported here: asyncio costs every ``import repro.exec``
            # tens of milliseconds, and most runners never launch.
            from .scheduler import SweepScheduler

            self._scheduler = SweepScheduler(
                jobs=self.jobs, cache=self.cache, journal=self.journal,
                timeout=self.timeout, retries=self.retries,
                keep_going=self.keep_going, chaos=self.chaos,
                metrics=self.metrics, backoff_base=self.backoff_base)
        return self._scheduler


# ---------------------------------------------------------------------- #
# Ambient executor: library code routes through whatever is current, so
# the CLI (or a test) can widen the pool / enable the cache for everything
# below it without threading an argument through every driver.
# ---------------------------------------------------------------------- #
#: The default executor: sequential, uncached -- byte-identical behavior
#: to the pre-executor code for library users who never opt in.
_DEFAULT = ParallelRunner(jobs=1, cache=None)
_current: ParallelRunner = _DEFAULT


def current_executor() -> ParallelRunner:
    """The executor experiment drivers route through."""
    return _current


@contextmanager
def use_executor(executor: ParallelRunner) -> Iterator[ParallelRunner]:
    """Install *executor* as the ambient executor within the block."""
    global _current
    previous = _current
    _current = executor
    try:
        yield executor
    finally:
        _current = previous
