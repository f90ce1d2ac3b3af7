"""Flight-recorder tests: bounded per-core tails, and the post-mortem
attachment to deadlock and watchdog-failover reports."""

import pytest

from helpers import make_chip
from repro.common.errors import DeadlockError
from repro.common.params import GLineConfig
from repro.common.stats import StatsRegistry
from repro.cpu import isa
from repro.faults import FAILOVER
from repro.gline.network import GLineBarrierNetwork
from repro.obs import FlightRecorder, Observability
from repro.sim.engine import Engine


# ---------------------------------------------------------------------- #
# Recorder unit behavior
# ---------------------------------------------------------------------- #
def test_per_core_tails_are_bounded():
    fr = FlightRecorder(num_cores=2, depth=3)
    for i in range(10):
        fr.record(0, i, "core0", "core.barrier.enter", barrier=i)
    assert [e.time for e in fr.tail(0)] == [7, 8, 9]
    assert fr.tail(1) == []


def test_out_of_range_core_ignored():
    fr = FlightRecorder(num_cores=2)
    fr.record(99, 1, "x", "k")          # must not raise
    fr.record(-1, 1, "x", "k")
    assert fr.tail(0) == [] and fr.tail(1) == []


def test_depth_below_one_rejected():
    with pytest.raises(ValueError):
        FlightRecorder(num_cores=1, depth=0)


def test_format_tail_empty_is_empty_string():
    assert FlightRecorder(num_cores=4).format_tail() == ""


def test_format_tail_lists_only_cores_with_events():
    fr = FlightRecorder(num_cores=4)
    fr.record(5, 5, "glnet", "gline.arrive", cid=5)   # ignored (range)
    fr.record(2, 7, "glnet", "gline.arrive", cid=2)
    text = fr.format_tail()
    assert text.startswith("flight recorder:")
    assert "core 2" in text and "@7 glnet gline.arrive" in text
    assert "core 0" not in text
    # Restricting to cores without events yields nothing.
    assert fr.format_tail(cores=[0, 1]) == ""


# ---------------------------------------------------------------------- #
# Deadlock reports
# ---------------------------------------------------------------------- #
def deadlock_message(obs):
    chip = make_chip(4, "gl")
    if obs is not None:
        chip.set_obs(obs)

    def prog(cid):
        if cid != 3:
            yield isa.BarrierOp()
        yield isa.Compute(1)

    with pytest.raises(DeadlockError) as exc:
        chip.run([prog(c) for c in range(4)])
    assert set(exc.value.blocked_cores) == {0, 1, 2}
    return str(exc.value)


def test_deadlock_message_gains_flight_tail_with_obs():
    msg = deadlock_message(Observability.full(4))
    assert "flight recorder:" in msg
    # The blocked cores' last barrier entries are in the tail.
    assert "core 0" in msg and "core.barrier.enter" in msg


def test_deadlock_message_stable_without_obs():
    """Observability must not change the base diagnostic: the traced
    message is the untraced one plus the appended tail."""
    bare = deadlock_message(None)
    traced = deadlock_message(Observability.full(4))
    assert "flight recorder:" not in bare
    assert traced.startswith(bare)


# ---------------------------------------------------------------------- #
# Watchdog failover reports
# ---------------------------------------------------------------------- #
def failover_net(obs):
    engine = Engine()
    net = GLineBarrierNetwork(engine, StatsRegistry(4), 2, 2,
                              GLineConfig(watchdog_budget=32,
                                          watchdog_retries=2))
    if obs is not None:
        net.set_obs(obs)
    net.fabric.row_tx[1].stuck = 0           # gather line dead -> failover
    outcomes = {}
    for cid in range(4):
        engine.schedule_at(0, lambda c=cid: net.arrive(
            c, lambda *a, c=c: outcomes.__setitem__(c, a)))
    engine.run()
    assert all(outcomes[c] == (FAILOVER,) for c in range(4))
    return net


def test_failover_report_with_flight_tail():
    net = failover_net(Observability.full(4))
    assert len(net.failover_reports) == 1
    report = net.failover_reports[0]
    assert "watchdog FAILOVER" in report
    assert "waiting cores [0, 1, 2, 3]" in report
    assert "flight recorder:" in report
    assert "gline.watchdog.failover" in report


def test_failover_report_stable_without_obs():
    net = failover_net(None)
    assert len(net.failover_reports) == 1
    assert "watchdog FAILOVER" in net.failover_reports[0]
    assert "flight recorder:" not in net.failover_reports[0]
