"""Round-trip serialization tests for the cache / worker-IPC format.

The contract: ``to_dict`` -> ``from_dict`` -> ``to_dict`` is a fixed
point, for :class:`RunResult`, :class:`StatsRegistry` (including the
enum-keyed counters and :class:`BarrierSample` lists) and
:class:`CMPConfig` (including every nested sub-config).  The result cache
and the worker pool both depend on this being lossless.
"""

import json
from dataclasses import replace

import pytest

from repro.chip.results import RunResult
from repro.common.errors import ConfigError
from repro.common.params import (CacheConfig, CMPConfig, CoreConfig,
                                 GLineConfig, NocConfig)
from repro.common.stats import (BarrierSample, CycleCat, MsgCat,
                                StatsRegistry)
from repro.experiments.runner import run_benchmark
from repro.workloads.synthetic import SyntheticBarrierWorkload


def _populated_registry() -> StatsRegistry:
    reg = StatsRegistry(4)
    reg.bump("l1.hits", 17)
    reg.bump("dir.gets")
    reg.add_cycles(0, CycleCat.BUSY, 100)
    reg.add_cycles(0, CycleCat.BARRIER, 40)
    reg.add_cycles(3, CycleCat.LOCK, 7)
    reg.add_message(MsgCat.REQUEST, flits=1, hops=3)
    reg.add_message(MsgCat.REPLY, flits=2, hops=3)
    reg.add_message(MsgCat.COHERENCE, flits=1, hops=1)
    reg.add_barrier(BarrierSample(barrier_id=0, first_arrival=10,
                                  last_arrival=25, release=29))
    reg.add_barrier(BarrierSample(barrier_id=1, first_arrival=40,
                                  last_arrival=41, release=45))
    reg.gline_toggles = 12
    return reg


# ---------------------------------------------------------------------- #
# StatsRegistry
# ---------------------------------------------------------------------- #
def test_stats_registry_round_trip_is_fixed_point():
    reg = _populated_registry()
    d1 = reg.to_dict()
    d2 = StatsRegistry.from_dict(d1).to_dict()
    assert d1 == d2


def test_stats_registry_round_trip_preserves_aggregates():
    reg = _populated_registry()
    back = StatsRegistry.from_dict(reg.to_dict())
    assert back.num_cores == reg.num_cores
    assert dict(back.counters) == dict(reg.counters)
    assert back.cycle_breakdown() == reg.cycle_breakdown()
    assert back.message_breakdown() == reg.message_breakdown()
    assert back.total_messages() == reg.total_messages()
    assert back.num_barriers() == reg.num_barriers()
    assert back.avg_barrier_latency() == reg.avg_barrier_latency()
    assert back.avg_barrier_span() == reg.avg_barrier_span()
    assert dict(back.flits) == dict(reg.flits)
    assert dict(back.hop_flits) == dict(reg.hop_flits)
    assert back.gline_toggles == reg.gline_toggles
    assert back.snapshot() == reg.snapshot()


def test_stats_registry_enum_keys_survive_json():
    """Keys are stored by enum value, so a JSON round trip is transparent
    (this is exactly what the on-disk cache does)."""
    reg = _populated_registry()
    via_json = json.loads(json.dumps(reg.to_dict()))
    back = StatsRegistry.from_dict(via_json)
    assert back.to_dict() == reg.to_dict()
    assert all(isinstance(cat, MsgCat) for cat in back.messages)
    assert all(isinstance(cat, CycleCat)
               for per_core in back.cycles for cat in per_core)


def test_stats_registry_counters_stay_bumpable_after_round_trip():
    back = StatsRegistry.from_dict(_populated_registry().to_dict())
    back.bump("new.counter")          # defaultdict semantics preserved
    back.add_cycles(1, CycleCat.READ, 5)
    back.add_message(MsgCat.REQUEST, flits=1, hops=1)
    assert back.counters["new.counter"] == 1


def test_barrier_sample_round_trip():
    sample = BarrierSample(barrier_id=7, first_arrival=3, last_arrival=9,
                           release=13)
    back = BarrierSample.from_dict(sample.to_dict())
    assert back == sample
    assert back.latency_after_last_arrival == 4
    assert back.span == 10


# ---------------------------------------------------------------------- #
# CMPConfig
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("cfg", [
    CMPConfig(),
    CMPConfig.for_cores(16),
    CMPConfig.for_cores(8).with_(memory_latency=123),
    CMPConfig.for_cores(4).with_(gline=GLineConfig(entry_overhead=0,
                                                   num_barriers=2)),
    CMPConfig.for_cores(16).with_(
        noc=NocConfig(rows=4, cols=4, model="vct", vct_buffer_flits=2,
                      model_contention=False)),
])
def test_cmp_config_round_trip_is_fixed_point(cfg):
    d1 = cfg.to_dict()
    rebuilt = CMPConfig.from_dict(d1)
    assert rebuilt == cfg
    assert rebuilt.to_dict() == d1
    # JSON-transparency (the cache key serializes this dict).
    assert CMPConfig.from_dict(json.loads(json.dumps(d1))) == cfg


def test_cmp_config_from_dict_loads_retired_engine_backend_key():
    # Journals and cache entries written while the config still carried
    # an engine-backend field must keep loading.
    cfg = CMPConfig.for_cores(16)
    legacy = {**cfg.to_dict(), "sim_backend": "batched"}
    assert CMPConfig.from_dict(legacy) == cfg


@pytest.mark.parametrize("sub_cls,kwargs", [
    (CacheConfig, dict(size_bytes=8192, assoc=2, latency=3,
                       extra_latency=1)),
    (NocConfig, dict(rows=2, cols=3, router_latency=5)),
    (GLineConfig, dict(entry_overhead=4, max_transmitters=9)),
    (CoreConfig, dict(freq_ghz=2.5, issue_width=1)),
])
def test_sub_config_round_trip(sub_cls, kwargs):
    cfg = sub_cls(**kwargs)
    assert sub_cls.from_dict(cfg.to_dict()) == cfg


def test_sub_config_from_dict_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown fields"):
        NocConfig.from_dict({"rows": 2, "cols": 2, "bogus": 1})


def test_config_from_dict_still_validates():
    bad = CMPConfig().to_dict()
    bad["num_cores"] = 7          # mesh 4x8 no longer matches
    with pytest.raises(ConfigError):
        CMPConfig.from_dict(bad)


# ---------------------------------------------------------------------- #
# RunResult (synthetic and from a real run)
# ---------------------------------------------------------------------- #
def test_run_result_round_trip_is_fixed_point():
    result = RunResult(total_cycles=1234, barrier_name="GL", num_cores=4,
                       stats=_populated_registry(), events_executed=99)
    d1 = result.to_dict()
    d2 = RunResult.from_dict(d1).to_dict()
    assert d1 == d2


def test_run_result_round_trip_from_real_run():
    run = run_benchmark(SyntheticBarrierWorkload(iterations=3), "gl",
                        num_cores=4)
    back = RunResult.from_dict(json.loads(json.dumps(run.to_dict())))
    assert back.to_dict() == run.to_dict()
    assert back.total_cycles == run.total_cycles
    assert back.barrier_name == run.barrier_name
    assert back.events_executed == run.events_executed
    assert back.cycle_breakdown() == run.cycle_breakdown()
    assert back.messages() == run.messages()
    assert back.num_barriers() == run.num_barriers()
    assert back.avg_barrier_latency() == run.avg_barrier_latency()
    assert back.barrier_period() == run.barrier_period()
    assert back.summary() == run.summary()
