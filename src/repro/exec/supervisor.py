"""Supervision policy: the failure taxonomy, deadlines and the worker.

Every run that leaves the parent process goes through the sweep
scheduler (:mod:`repro.exec.scheduler`); this module holds what that
dispatcher supervises *with*:

* **The failure taxonomy.**  An attempt ends in one of three observable
  states: a message arrived (``ok`` or ``sim-error``), the process died
  silently (``crash`` -- the exitcode says how), or a wall-clock
  deadline passed (``timeout`` -- the child is killed).  ``timeout``
  and ``crash`` are environmental and retried with full-jitter backoff;
  ``sim-error`` is *deterministic* (the simulator is) and fails fast.
  A spec that exhausts its retries is ``quarantined``.
* **Deadlines** (:func:`deadline_for`): per spec, from an explicit
  ``timeout`` or derived from the spec's event budget.  No deadline
  means hangs are tolerated.
* **The worker entry point** (:func:`_supervised_worker`): one process
  per attempt, with a dedicated pipe, a chaos hook and the
  nested-parallelism guard.
* **Terminal failures** (:class:`RunFailure`, :class:`RunFailureError`).

Chaos (:class:`~repro.faults.chaos.ChaosPlan`) is enacted *inside* the
worker, before the simulation starts, keyed by the scheduler's stable
dispatch ordinal -- so a seeded chaos run strikes the same attempts on
every machine, and results (when attempts survive) are byte-identical to
a calm run's.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from dataclasses import dataclass, field
from typing import Any

from ..common.errors import ReproError
from ..faults.chaos import HANG, KILL, OOM, ChaosPlan

#: Failure taxonomy (the ``kind`` field of :class:`RunFailure`).
TIMEOUT, CRASH, SIM_ERROR, QUARANTINED = \
    "timeout", "crash", "sim-error", "quarantined"

#: Deadline heuristic when only an event budget is known: a generous
#: floor plus a conservative per-event allowance (the simulator runs
#: far more than 10k events/s on any supported host).
DEADLINE_FLOOR_S = 10.0
SECONDS_PER_EVENT = 1e-4

#: Hang-chaos without a deadline would wedge forever; a scheduler with
#: ``hang_rate > 0`` and no explicit timeout gets this one.
CHAOS_DEFAULT_TIMEOUT_S = 60.0

#: Default base for the full-jitter exponential backoff, seconds.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0


def deadline_for(spec: Any, timeout: float | None) -> float | None:
    """Wall-clock budget for one attempt at *spec* (None = unlimited).

    An explicit *timeout* wins; otherwise a spec with an event budget
    gets ``DEADLINE_FLOOR_S + max_events * SECONDS_PER_EVENT``.  A spec
    with no ``max_events`` (or ``None``) has no budget to derive from.
    """
    if timeout is not None:
        return timeout
    max_events = getattr(spec, "max_events", None)
    if max_events is not None:
        return DEADLINE_FLOOR_S + max_events * SECONDS_PER_EVENT
    return None


@dataclass
class RunFailure:
    """One spec's terminal failure, reported positionally."""

    #: Position of the failed spec in the caller's batch.
    index: int
    #: Cache key (None when the executor runs uncached).
    key: str | None
    #: ``timeout | crash | sim-error | quarantined``.
    kind: str
    #: Attempts consumed (1 = failed on the first try, no retry left).
    attempts: int
    #: Human-readable cause: exception repr, exitcode, deadline.
    detail: str
    #: A sim-error's exception object, as the worker raised it (None
    #: for other kinds, or when it could not cross the pipe).
    error: BaseException | None = field(default=None, repr=False,
                                        compare=False)

    def __str__(self) -> str:
        where = f"spec[{self.index}]"
        if self.key:
            where += f" {self.key[:12]}"
        return (f"{where}: {self.kind} after {self.attempts} "
                f"attempt(s) -- {self.detail}")


class RunFailureError(ReproError):
    """A batch had terminal failures (and ``keep_going`` was off, so
    partial results were cached but not returned)."""

    def __init__(self, failures: list[RunFailure]):
        self.failures = failures
        lines = "; ".join(str(f) for f in failures[:4])
        more = f" (+{len(failures) - 4} more)" if len(failures) > 4 else ""
        super().__init__(
            f"{len(failures)} run(s) failed: {lines}{more}")


# ---------------------------------------------------------------------- #
# Worker side
# ---------------------------------------------------------------------- #
def _enact_chaos(action: str | None, hang_seconds: float) -> None:
    """Carry out a chaos strike in the worker process (or return)."""
    if action == KILL:
        os._exit(40)                      # unclean exit, no traceback
    elif action == OOM:
        os.kill(os.getpid(), signal.SIGKILL)   # the OOM killer's signature
    elif action == HANG:
        deadline = time.monotonic() + hang_seconds
        while time.monotonic() < deadline:     # only SIGKILL ends this
            time.sleep(min(1.0, hang_seconds))


def _portable(exc: BaseException) -> BaseException | None:
    """*exc* if it survives the pipe's pickle round trip, else None."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:                   # noqa: BLE001
        return None
    return exc


def _supervised_worker(conn: Any, spec: Any, chaos: dict[str, Any] | None,
                       token: str, attempt: int) -> None:
    """Process entry point: one attempt at one spec.

    Sends ``("ok", result_dict, None)`` or ``("sim-error", detail,
    exception)`` over *conn*; a chaos strike (or a real crash) sends
    nothing and the parent reads the exitcode instead.
    """
    # The guard in _execute_to_dict matters here too: under the fork
    # start method this process inherits the parent's ambient executor.
    from .parallel import _execute_to_dict

    if chaos is not None:
        plan = ChaosPlan.from_dict(chaos)
        _enact_chaos(plan.roll(token, attempt), plan.hang_seconds)
    try:
        result = _execute_to_dict(spec)
    except Exception as exc:            # noqa: BLE001 -- shipped, not hidden
        conn.send((SIM_ERROR, f"{type(exc).__name__}: {exc}",
                   _portable(exc)))
    else:
        conn.send(("ok", result, None))
    finally:
        conn.close()
