"""The run dispatcher: supervised spec batches over bounded worker pools.

Every run that leaves the parent process goes through a
:class:`SweepScheduler`: :class:`~repro.exec.ParallelRunner` is a
synchronous facade over one, and a DSE search drives one directly --
possibly sharded over several named pools (e.g. a wide pool for cheap
low-fidelity rungs next to a narrow pool for expensive top-rung runs),
and possibly from async code.

* **One process per attempt.**  Each attempt runs in
  :func:`~repro.exec.supervisor._supervised_worker` with a dedicated
  pipe, so the failure taxonomy (``timeout``/``crash``/``sim-error``/
  ``quarantined``), the deadline heuristic
  (:func:`~repro.exec.supervisor.deadline_for`), the chaos hook and the
  nested-parallelism guard live in one place.
* **Stable chaos tokens.**  A spec's token is its dispatch ordinal over
  the scheduler's lifetime, assigned at submission, so a seeded
  :class:`~repro.faults.chaos.ChaosPlan` strikes the same attempts
  regardless of completion order.
* **Bounded retries with full-jitter backoff.**  ``timeout`` and
  ``crash`` are retried up to ``retries`` times, each after
  ``uniform(0, base * 2**attempt)`` seconds; ``sim-error`` fails fast.
  A spec that exhausts its retries is quarantined.
* **Stop on failure.**  With ``keep_going`` off, the first terminal
  failure stops new launches; what is in flight drains (its results are
  cached), then :class:`~repro.exec.supervisor.RunFailureError` is
  raised.
* **Graceful degradation.**  Every crash shrinks its pool's width by one
  (never below 1; the ``exec.pool.width`` gauge), so a host that kills
  big pools decays toward serial execution instead of thrashing.
* **Clean interrupts.**  On SIGINT, results that already landed are
  cached and journalled, every worker is killed and joined (no
  zombies), ``interrupted`` is journalled and the interrupt re-raised.
* Results feed the content-addressed :class:`~repro.exec.ResultCache`
  and the fsynced :class:`~repro.exec.SweepJournal` as they land, so
  ``repro resume`` replays any sweep.

Concurrency model: one coroutine per pending spec, gated by its pool's
``asyncio.Semaphore``; the blocking wait on the worker process (pipe +
sentinel + deadline) happens on a thread pool sized to the batch width,
so the event loop never blocks and backoff is ``await asyncio.sleep``.
Every attempt is tallied in the ``exec.*`` streams when it ends, so
``exec.attempts == exec.ok + exec.crashes + exec.timeouts +
exec.sim_errors`` always holds.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import random
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Protocol, Sequence

from ..faults.chaos import ChaosPlan
from ..obs import MetricsRegistry
from .parallel import BatchExecutor
from .supervisor import (BACKOFF_BASE_S, BACKOFF_CAP_S,
                         CHAOS_DEFAULT_TIMEOUT_S, CRASH, QUARANTINED,
                         SIM_ERROR, TIMEOUT, RunFailure, RunFailureError,
                         _supervised_worker, deadline_for)

#: An attempt ended by ``(kind, payload, error)``: ``("ok", result_dict,
#: None)``, ``("sim-error", detail, exception)`` or ``(crash | timeout,
#: detail, None)``.
Outcome = tuple[str, Any, BaseException | None]

#: Outcome kind -> the counter its attempts are tallied under.
_TALLY = {"ok": "exec.ok", CRASH: "exec.crashes", TIMEOUT: "exec.timeouts",
          SIM_ERROR: "exec.sim_errors"}


class SweepSpec(Protocol):
    """What the scheduler needs from a spec: a content key for the
    cache/journal, a fingerprint for cache entries, and a picklable
    ``execute``.  ``RunSpec`` and the verify shards both satisfy it."""

    def key(self) -> str: ...

    def fingerprint(self) -> dict[str, Any]: ...

    def execute(self) -> Any: ...


@dataclass(frozen=True)
class WorkerPool:
    """A named slice of worker capacity (``jobs`` concurrent attempts)."""

    name: str
    jobs: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("pool name must be nonempty")
        if self.jobs < 1:
            raise ValueError(
                f"pool {self.name!r} needs jobs >= 1, got {self.jobs}")


@dataclass
class _Job:
    """One pending spec's scheduling state."""

    index: int
    spec: Any
    key: str | None
    token: str                  # stable chaos/dispatch ordinal
    pool: WorkerPool
    attempt: int = 0


@dataclass
class _Batch:
    """One dispatch call's shared state (event-loop thread only)."""

    results: list[Any]
    #: Pool name -> current width; a crash shrinks it by one.
    widths: dict[str, int]
    failures: list[RunFailure] = field(default_factory=list)
    #: Set by the first terminal failure unless ``keep_going``.
    stopping: bool = False
    #: Attempts handed to a reap thread and not yet accounted.
    flights: dict[Future[Outcome], _Job] = field(default_factory=dict)


def _kill(process: Any) -> None:
    """Terminate and reap *process*; a no-op once it has been joined."""
    process.terminate()
    process.join(timeout=2.0)
    if process.is_alive():              # SIGTERM ignored; escalate
        process.kill()
        process.join()


def _crashed(process: Any) -> Outcome:
    # A pipe that closed without a message closes as the worker exits;
    # reap it first so the journalled exit status is the real one.
    process.join(timeout=2.0)
    code = process.exitcode
    how = f"signal {-code}" if (code is not None and code < 0) \
        else f"exitcode {code}"
    return (CRASH, f"worker died ({how})", None)


class SweepScheduler(BatchExecutor):
    """Schedules supervised spec batches over bounded worker pools.

    The constructor captures policy (pools, cache, journal, deadlines,
    retries, chaos); :meth:`run` executes one batch synchronously and
    :meth:`run_async` does the same from async code.  Results come back
    positionally; failed slots are ``None`` under ``keep_going`` (with
    the :class:`~repro.exec.supervisor.RunFailure` appended to
    :attr:`failures`), otherwise the batch is drained and a
    :class:`~repro.exec.supervisor.RunFailureError` raised.
    """

    def __init__(self, pools: Sequence[WorkerPool] | None = None, *,
                 jobs: int | None = None, cache: Any = None,
                 journal: Any = None, timeout: float | None = None,
                 retries: int = 2, keep_going: bool = False,
                 chaos: ChaosPlan | None = None,
                 metrics: MetricsRegistry | None = None,
                 backoff_base: float = BACKOFF_BASE_S):
        if pools is not None and jobs is not None:
            raise ValueError("pass pools or jobs, not both")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if pools is None:
            width = jobs if jobs is not None else (os.cpu_count() or 1)
            pools = (WorkerPool("p0", max(1, width)),)
        names = [p.name for p in pools]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate pool names: {names}")
        super().__init__(cache, journal, metrics)
        self.pools: tuple[WorkerPool, ...] = tuple(pools)
        self.timeout = timeout
        self.chaos = chaos if (chaos is not None and chaos.enabled) \
            else None
        if self.timeout is None and self.chaos is not None \
                and self.chaos.hang_rate:
            self.timeout = CHAOS_DEFAULT_TIMEOUT_S
        self.retries = retries
        self.keep_going = keep_going
        self.backoff_base = backoff_base
        #: Lifetime dispatch ordinal == chaos token of the n-th pending
        #: spec ever submitted; stable for a fixed submission order, so
        #: seeded chaos strikes the same attempts on every machine.
        self._ordinal = 0
        # Backoff jitter: seeded so a retried sweep schedules (not
        # results -- delays never reach the journal) reproducibly.
        self._rng = random.Random(
            self.chaos.seed if self.chaos is not None else 0)
        #: Set while tearing down a batch: reap threads notice within
        #: one poll tick, kill their worker and return, so interrupts
        #: never leak processes or stall exit.
        self._abort = threading.Event()

    # ------------------------------------------------------------------ #
    def _capacity(self) -> str:
        return "pools=" + "+".join(f"{p.name}:{p.jobs}" for p in self.pools)

    # ------------------------------------------------------------------ #
    def run(self, specs: Sequence[Any]) -> list[Any]:
        """Synchronous entry point: execute *specs*, results positional."""
        results, pending = self._lookup(specs)
        if pending:
            self.failures.extend(self.dispatch(pending, results))
        return results

    async def run_async(self, specs: Sequence[Any]) -> list[Any]:
        """Async entry point; see :meth:`run`."""
        results, pending = self._lookup(specs)
        if pending:
            self.failures.extend(await self._dispatch(pending, results))
        return results

    def dispatch(self, pending: Sequence[tuple[int, Any, str | None]],
                 results: list[Any]) -> list[RunFailure]:
        """Run cache misses -- ``(index, spec, key)`` triples -- filling
        ``results[index]`` and caching each success as it lands.

        Returns the terminal failures under ``keep_going``; otherwise
        raises :class:`RunFailureError` for them, after draining.
        """
        try:
            return asyncio.run(self._dispatch(pending, results))
        except KeyboardInterrupt:
            if self.journal is not None:
                self.journal.interrupted()
            raise

    async def _dispatch(self, pending: Sequence[tuple[int, Any, str | None]],
                        results: list[Any]) -> list[RunFailure]:
        jobs: list[_Job] = []
        for index, spec, key in pending:
            jobs.append(_Job(
                index=index, spec=spec, key=key, token=str(self._ordinal),
                pool=self.pools[len(jobs) % len(self.pools)]))
            self._ordinal += 1
        widths = {p.name: min(p.jobs, sum(j.pool is p for j in jobs))
                  for p in self.pools}
        batch = _Batch(results, {n: w for n, w in widths.items() if w})
        self._publish_width(batch)
        sems = {name: asyncio.Semaphore(w)
                for name, w in batch.widths.items()}
        threads = ThreadPoolExecutor(
            max_workers=sum(batch.widths.values()),
            thread_name_prefix="exec-reap")
        self._abort.clear()
        try:
            await asyncio.gather(*(
                self._drive(job, sems[job.pool.name], threads, batch)
                for job in jobs))
        except BaseException:
            self._abort.set()
            raise
        finally:
            threads.shutdown(wait=True)
            self._harvest(batch)
        if batch.failures and not self.keep_going:
            raise RunFailureError(batch.failures)
        return batch.failures

    # ------------------------------------------------------------------ #
    async def _drive(self, job: _Job, sem: asyncio.Semaphore,
                     threads: ThreadPoolExecutor, batch: _Batch) -> None:
        """Attempt loop for one spec: launch under its pool's semaphore
        (nothing once the batch is stopping), retry crash/timeout with
        full-jitter backoff, quarantine when the budget is exhausted,
        fail sim-errors fast."""
        inflight = self.metrics.gauge("exec.inflight")
        while True:
            await sem.acquire()
            if batch.stopping:
                sem.release()
                return
            self._count(f"exec.pool.{job.pool.name}.launched")
            inflight.set(inflight.value + 1)
            future = threads.submit(self._attempt, job)
            batch.flights[future] = job
            try:
                kind, payload, error = await asyncio.wrap_future(future)
            finally:
                inflight.set(inflight.value - 1)
            del batch.flights[future]
            self._tally(_TALLY[kind])
            if kind == CRASH and batch.widths[job.pool.name] > 1:
                # Keep the slot's permit: one fewer concurrent attempt.
                batch.widths[job.pool.name] -= 1
                self._publish_width(batch)
            else:
                sem.release()

            if kind == "ok":
                self._complete(job, payload, batch.results)
                return
            if self.journal is not None:
                self.journal.attempt(job.key or job.token, job.attempt,
                                     kind, detail=payload)
            if kind != SIM_ERROR and job.attempt < self.retries:
                delay = self._rng.uniform(
                    0.0, min(BACKOFF_CAP_S,
                             self.backoff_base * (2 ** job.attempt)))
                job.attempt += 1
                self._count("exec.retries")
                self.metrics.histogram("exec.retry.delay_ms") \
                    .record(int(delay * 1000))
                await asyncio.sleep(delay)
                continue
            batch.failures.append(self._fail(job, kind, payload, error))
            batch.stopping = batch.stopping or not self.keep_going
            return

    def _publish_width(self, batch: _Batch) -> None:
        self.metrics.gauge("exec.pool.width") \
            .set(sum(batch.widths.values()))

    # ------------------------------------------------------------------ #
    # Blocking attempt (runs on the reap thread pool)
    # ------------------------------------------------------------------ #
    def _attempt(self, job: _Job) -> Outcome:
        """One attempt: launch the worker process and block until a
        message lands, the process dies, the deadline passes, or the
        batch is torn down.

        Liveness is sampled *before* polling the pipe: a worker's last
        acts are send-then-exit, so a death observed first guarantees
        any result it produced is visible to ``poll()`` (the opposite
        order would misread a completed run as a crash).  A landed
        message wins over a teardown, so finished work is never lost.
        """
        ctx = multiprocessing.get_context()
        parent, child = ctx.Pipe(duplex=False)
        chaos = self.chaos.to_dict() if self.chaos is not None else None
        process = ctx.Process(
            target=_supervised_worker,
            args=(child, job.spec, chaos, job.token, job.attempt),
            daemon=True)
        process.start()
        child.close()
        budget = deadline_for(job.spec, self.timeout)
        started = time.monotonic()
        deadline = None if budget is None else started + budget
        try:
            while True:
                wait = 0.1 if deadline is None \
                    else min(0.1, deadline - time.monotonic())
                _conn_wait([parent, process.sentinel], max(0.0, wait))
                alive = process.is_alive()
                if parent.poll():
                    try:
                        outcome: Outcome = parent.recv()
                    except (EOFError, OSError):
                        return _crashed(process)
                    process.join()
                    return outcome
                if not alive:
                    return _crashed(process)
                if self._abort.is_set():
                    return ("aborted", "batch torn down", None)
                if deadline is not None and time.monotonic() >= deadline:
                    elapsed = time.monotonic() - started
                    return (TIMEOUT, f"deadline {elapsed:.1f}s exceeded",
                            None)
        finally:
            _kill(process)
            parent.close()

    # ------------------------------------------------------------------ #
    # Completion / failure (event-loop thread only)
    # ------------------------------------------------------------------ #
    def _complete(self, job: _Job, result_dict: dict[str, Any],
                  results: list[Any]) -> None:
        self._store(job.index, job.spec, job.key, result_dict, results)
        if self.journal is not None:
            self.journal.attempt(job.key or job.token, job.attempt, "ok")
            self.journal.done(job.key or job.token, job.attempt + 1)

    def _harvest(self, batch: _Batch) -> None:
        """After a teardown: keep the results that landed while their
        coroutines were being cancelled."""
        for future, job in batch.flights.items():
            if future.cancelled() or future.exception() is not None:
                continue
            kind, payload, _ = future.result()
            if kind == "ok":
                self._tally("exec.ok")
                self._complete(job, payload, batch.results)
        batch.flights.clear()

    def _fail(self, job: _Job, kind: str, detail: str,
              error: BaseException | None) -> RunFailure:
        attempts = job.attempt + 1
        if kind == SIM_ERROR:
            failure = RunFailure(index=job.index, key=job.key,
                                 kind=SIM_ERROR, attempts=attempts,
                                 detail=detail, error=error)
        else:
            # Retries exhausted: the spec is poison; quarantine it.
            self._count("exec.quarantined")
            failure = RunFailure(
                index=job.index, key=job.key, kind=QUARANTINED,
                attempts=attempts,
                detail=f"last failure: {kind} ({detail})")
        if self.journal is not None:
            self.journal.quarantine(job.key or job.token, attempts, kind)
        return failure
