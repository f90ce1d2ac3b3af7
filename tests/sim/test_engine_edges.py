"""Engine edge cases: scheduling at ``now``, cancellation, run limits,
reentrancy, tracer swaps and the ``order_log`` probe.

These pin the execution-order semantics every simulated cycle count
rests on, one behaviour per test.
"""

import pytest

from repro.common.errors import SimulationError
from repro.obs.tracer import NULL_TRACER, RingTracer
from repro.sim import Engine


@pytest.fixture
def eng():
    return Engine()


# ---------------------------------------------------------------------- #
# schedule-at-now ordering
# ---------------------------------------------------------------------- #
def test_schedule_at_now_runs_after_queued_same_cycle_events(eng):
    """A schedule_at(now) issued mid-cycle gets a later seq, so it runs
    after every already-queued same-cycle event of equal priority."""
    order = []

    def spawn():
        eng.schedule_at(7, order.append, "spawned")

    eng.schedule(7, spawn)
    eng.schedule(7, order.append, "queued")
    eng.run()
    assert order == ["queued", "spawned"]


def test_schedule_at_now_priority_still_wins(eng):
    order = []

    def spawn():
        eng.schedule_at(3, order.append, "urgent", priority=-5)

    eng.schedule(3, spawn, priority=-9)
    eng.schedule(3, order.append, "normal")
    eng.run()
    assert order == ["urgent", "normal"]


def test_schedule_at_now_after_drain_reopens_current_cycle(eng):
    """After run() drains at cycle T, scheduling at T again is legal and
    executes at T (the step()-driven REPL pattern)."""
    eng.schedule(10, lambda: None)
    eng.run()
    fired = []
    eng.schedule_at(10, fired.append, True)
    assert eng.step()
    assert fired and eng.now == 10


# ---------------------------------------------------------------------- #
# cancel
# ---------------------------------------------------------------------- #
def test_cancel_before_run(eng):
    fired = []
    handle = eng.schedule(5, fired.append, True)
    eng.cancel(handle)
    eng.run()
    assert not fired
    assert eng.events_executed == 0
    # The clock still advances through the cancelled event's cycle.
    assert eng.now == 5


def test_cancel_during_run_from_callback(eng):
    fired = []
    handle = eng.schedule(9, fired.append, "victim")
    eng.schedule(4, lambda: eng.cancel(handle))
    eng.schedule(9, fired.append, "survivor")
    eng.run()
    assert fired == ["survivor"]
    assert eng.events_executed == 2


def test_cancel_same_cycle_later_event(eng):
    """Cancelling a same-cycle, not-yet-run event takes effect."""
    fired = []

    def killer():
        eng.cancel(handle)

    eng.schedule(3, killer, priority=-1)
    handle = eng.schedule(3, fired.append, True)
    eng.run()
    assert not fired


def test_cancel_executed_or_unknown_handle_is_noop(eng):
    fired = []
    handle = eng.schedule(1, fired.append, True)
    eng.run()
    eng.cancel(handle)          # already executed
    eng.cancel(987654)          # never existed
    eng.schedule(1, fired.append, True)
    eng.run()
    assert fired == [True, True]
    assert eng.events_executed == 2


def test_cancelled_events_do_not_consume_max_events_budget(eng):
    fired = []
    h = eng.schedule(1, fired.append, "dead")
    eng.cancel(h)
    eng.schedule(2, fired.append, "alive")
    eng.run(max_events=1)
    assert fired == ["alive"]


def test_cancelled_events_count_as_pending_until_reaped(eng):
    h = eng.schedule(5, lambda: None)
    eng.cancel(h)
    assert eng.pending() == 1
    eng.run()
    assert eng.pending() == 0


def test_cancel_during_step(eng):
    fired = []
    eng.schedule(1, fired.append, "a")
    victim = eng.schedule(2, fired.append, "b")
    eng.schedule(3, fired.append, "c")
    assert eng.step()
    eng.cancel(victim)
    assert eng.step()           # reaps b silently, executes c
    assert fired == ["a", "c"]
    assert not eng.step()


# ---------------------------------------------------------------------- #
# tracer swap mid-run
# ---------------------------------------------------------------------- #
def test_tracer_attached_mid_run_sees_run_end(eng):
    tracer = RingTracer(capacity=None)

    def attach():
        eng.tracer = tracer

    eng.schedule(5, attach)
    eng.run()
    kinds = [e.kind for e in tracer.events]
    # Attached after run.begin was (not) emitted; run.end must appear.
    assert kinds == ["engine.run.end"]
    assert tracer.events[0].detail["pending"] == 0


def test_tracer_detached_mid_run_suppresses_run_end(eng):
    tracer = RingTracer(capacity=None)
    eng.tracer = tracer

    def detach():
        eng.tracer = NULL_TRACER

    eng.schedule(5, detach)
    eng.run()
    kinds = [e.kind for e in tracer.events]
    assert kinds == ["engine.run.begin"]


def test_tracer_swap_between_runs(eng):
    first, second = RingTracer(capacity=None), RingTracer(capacity=None)
    eng.tracer = first
    eng.schedule(1, lambda: None)
    eng.run()
    eng.tracer = second
    eng.schedule(1, lambda: None)
    eng.run()
    assert [e.kind for e in first.events] == ["engine.run.begin",
                                              "engine.run.end"]
    assert [e.kind for e in second.events] == ["engine.run.begin",
                                               "engine.run.end"]
    assert second.events[0].detail["pending"] == 1


# ---------------------------------------------------------------------- #
# events_executed accounting under exceptions
# ---------------------------------------------------------------------- #
def test_events_executed_counts_the_raising_event(eng):
    def boom():
        raise RuntimeError("injected")

    eng.schedule(1, lambda: None)
    eng.schedule(2, boom)
    eng.schedule(3, lambda: None)
    with pytest.raises(RuntimeError):
        eng.run()
    # The event that raised was executed (its side effects happened).
    assert eng.events_executed == 2
    assert eng.now == 2
    assert eng.pending() == 1
    # The engine recovers: the remaining event still runs.
    eng.run()
    assert eng.events_executed == 3


def test_exception_releases_reentrancy_latch(eng):
    def boom():
        raise ValueError("x")

    eng.schedule(1, boom)
    with pytest.raises(ValueError):
        eng.run()
    fired = []
    eng.schedule(1, fired.append, True)
    eng.run()                    # must not raise "not reentrant"
    assert fired


# ---------------------------------------------------------------------- #
# run(until < now): the clock-rewind bug, fixed
# ---------------------------------------------------------------------- #
def test_run_until_in_the_past_rejected(eng):
    """run(until=X) with X < now used to *rewind* the clock when a
    future event existed, corrupting every later timestamp."""
    eng.schedule(10, lambda: None)
    eng.schedule(100, lambda: None)
    eng.run(until=50)
    assert eng.now == 50
    with pytest.raises(SimulationError):
        eng.run(until=20)
    assert eng.now == 50         # clock untouched by the rejected call
    eng.run()                    # engine still usable
    assert eng.now == 100


def test_run_until_equal_to_now_is_allowed(eng):
    eng.schedule(10, lambda: None)
    eng.run()
    fired = []
    eng.schedule_at(10, fired.append, True)
    eng.run(until=10)            # same-cycle drain, legal
    assert fired and eng.now == 10


# ---------------------------------------------------------------------- #
# order_log probe
# ---------------------------------------------------------------------- #
def test_order_log_records_executed_events_only(eng):
    eng.order_log = []
    victim = eng.schedule(2, lambda: None)
    eng.cancel(victim)
    eng.schedule(1, lambda: None, priority=3)
    eng.run()
    assert [(t, p) for t, p, _seq, _name in eng.order_log] == [(1, 3)]


def test_schedule_returns_monotonic_handles(eng):
    handles = [eng.schedule(1, lambda: None) for _ in range(5)]
    handles.append(eng.schedule_at(2, lambda: None))
    assert handles == sorted(handles)
    assert len(set(handles)) == len(handles)
