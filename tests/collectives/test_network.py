"""Engine-driven tests of the flat collective fabric."""

import random

import pytest

from repro.collectives import ops
from repro.collectives.config import CollectiveConfig
from repro.collectives.controllers import M_DONE, StageSlave
from repro.collectives.fabric import CollectiveFabric
from repro.collectives.network import CollectiveNetwork
from repro.common.errors import CapacityError, GLineError
from repro.common.params import GLineConfig
from repro.common.stats import StatsRegistry
from repro.obs import MetricsRegistry, Observability, RingTracer
from repro.obs import events as obs_ev
from repro.sim.engine import Engine


def make_net(rows, cols, width=4, **cc_kwargs):
    engine = Engine()
    stats = StatsRegistry(rows * cols)
    cc = CollectiveConfig(enabled=True, value_width=width, **cc_kwargs)
    net = CollectiveNetwork(engine, stats, rows, cols, GLineConfig(), cc)
    return engine, net


def run_episode(engine, net, kind, values, spread=9, seed=0):
    rng = random.Random(seed)
    got = {}
    for cid, value in enumerate(values):
        engine.schedule(rng.randrange(spread), net.arrive, cid, kind,
                        value, (lambda v=None, c=cid:
                                got.__setitem__(c, v)))
    engine.run()
    return got


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 4), (3, 1), (2, 3),
                                       (4, 4), (7, 7)])
@pytest.mark.parametrize("kind", ops.KINDS)
def test_flat_delivers_reference_everywhere(rows, cols, kind):
    width = 4
    engine, net = make_net(rows, cols, width)
    n = rows * cols
    rng = random.Random(rows * 100 + cols)
    for episode in range(2):
        values = [rng.randrange(1 << width) for _ in range(n)]
        got = run_episode(engine, net, kind, values, seed=episode)
        ref = ops.reference_reduce(kind, values, width)
        assert got == {c: ref for c in range(n)}, (kind, values)
    assert net.collectives_completed == 2
    assert net.fully_idle()


def test_wide_values_on_narrow_wires():
    # 12-bit sums on a 3x3 mesh: bit-serial rounds must cover the full
    # carry growth (9 * 4095 needs 16 result bits).
    engine, net = make_net(3, 3, width=12)
    values = [(i * 911 + 7) % 4096 for i in range(9)]
    got = run_episode(engine, net, "sum", values)
    assert set(got.values()) == {sum(values)}


def test_double_arrival_rejected():
    engine, net = make_net(2, 2)
    engine.schedule(0, net.arrive, 0, "sum", 1, None)
    engine.schedule(1, net.arrive, 0, "sum", 2, None)
    with pytest.raises(CapacityError):
        engine.run()


def test_mixed_kind_arrivals_rejected():
    engine, net = make_net(2, 2)
    engine.schedule(0, net.arrive, 0, "sum", 1, None)
    engine.schedule(1, net.arrive, 1, "max", 2, None)
    with pytest.raises(GLineError):
        engine.run()


def test_next_episode_arrival_during_open_episode_is_queued():
    """Deliveries stagger across rows, so an early-released core may
    arrive for the *next* collective while this one is still draining.
    The fabric must queue it, not corrupt the open episode."""
    engine, net = make_net(3, 3, width=4)
    values = list(range(1, 10))
    ref0 = ops.reference_reduce("sum", values, 4)
    ref1 = ops.reference_reduce("max", values, 4)
    got0, got1 = {}, {}

    def resume(cid, value):
        got0[cid] = value
        # Immediately re-arrive for the next episode, same cycle.
        net.arrive(cid, "max", values[cid],
                   lambda v=None, c=cid: got1.__setitem__(c, v))

    for cid, value in enumerate(values):
        engine.schedule(cid % 4, net.arrive, cid, "sum", value,
                        (lambda v=None, c=cid: resume(c, v)))
    engine.run()
    assert set(got0.values()) == {ref0}
    assert got1 == {c: ref1 for c in range(9)}
    assert net.collectives_completed == 2
    assert net.fully_idle()


def test_trace_events_emitted():
    engine, net = make_net(2, 2, width=3)
    obs = Observability(tracer=RingTracer())
    net.set_obs(obs)
    run_episode(engine, net, "sum", [1, 2, 3, 4])
    kinds = {ev.kind for ev in obs.tracer.events}
    assert obs_ev.GL_REDUCE_ARRIVE in kinds
    assert obs_ev.GL_REDUCE_START in kinds
    assert obs_ev.GL_REDUCE_ROUND in kinds
    assert obs_ev.GL_REDUCE_RESULT in kinds
    arrives = [ev for ev in obs.tracer.events
               if ev.kind == obs_ev.GL_REDUCE_ARRIVE]
    assert len(arrives) == 4


def test_metrics_recorded():
    engine, net = make_net(2, 2)
    obs = Observability(metrics=MetricsRegistry())
    net.set_obs(obs)
    run_episode(engine, net, "vote", [1, 0, 1, 1])
    snap = obs.metrics.to_dict()
    assert snap["counters"]["collectives.episodes"] == 1
    assert net.stats.counters["collectives.completed"] == 1


def test_tick_clocks_only_active_stages(monkeypatch):
    """Rows whose cores have not arrived, and the column until a row
    hands it a partial, are never clocked; the arrived row still
    reduces and parks its partial."""
    sampled = []
    real = StageSlave.sample_phase

    def counting(self):
        sampled.append(self)
        real(self)
    monkeypatch.setattr(StageSlave, "sample_phase", counting)

    fab = CollectiveFabric(3, 3, 4, 6)
    fab.begin("sum")
    for local in range(3):          # row 0 only
        fab.arrive_local(local, local + 1)
    ticks = 0
    while fab.will_act():
        assert fab.tick() == []
        ticks += 1
    assert ticks > 0 and fab.rmasters[0].state == M_DONE
    idle = fab.rslaves[1] + fab.rslaves[2] + fab.colslaves
    assert not any(s in sampled for s in idle)
    assert set(sampled) == set(fab.rslaves[0])
