"""CollectiveOp through the full chip: ISA dispatch, reference values
and end-to-end failover."""

import pytest

from repro.chip.cmp import CMP
from repro.collectives import ops
from repro.collectives.config import CollectiveConfig
from repro.common.params import CMPConfig
from repro.cpu import isa


def run_chip(num_cores, cc, kinds=("sum", "min", "max", "vote", "bcast")):
    chip = CMP(CMPConfig.for_cores(num_cores, collectives=cc), barrier="gl")
    results = {}

    def prog(cid):
        for episode, kind in enumerate(kinds):
            value = (cid * 7 + episode * 3 + 1) % (1 << cc.value_width)
            outcome = yield isa.CollectiveOp(kind, value=value)
            results[(kind, cid)] = outcome
            yield isa.Compute(1 + cid % 3)

    run = chip.run([prog(c) for c in range(num_cores)])
    return run, results


def reference(num_cores, cc, kinds=("sum", "min", "max", "vote",
                                    "bcast")):
    refs = {}
    for episode, kind in enumerate(kinds):
        vals = [(c * 7 + episode * 3 + 1) % (1 << cc.value_width)
                for c in range(num_cores)]
        for c in range(num_cores):
            refs[(kind, c)] = ops.reference_reduce(kind, vals,
                                                   cc.value_width)
    return refs


def test_flat_chip_delivers_references():
    cc = CollectiveConfig(enabled=True, value_width=8)
    _, results = run_chip(16, cc)
    assert results == reference(16, cc)


def test_hierarchical_chip():
    cc = CollectiveConfig(enabled=True, value_width=6)
    _, results = run_chip(64, cc)
    assert results == reference(64, cc)


def test_software_backend_same_values():
    cc = CollectiveConfig(enabled=True, backend="sw", value_width=8)
    _, res_sw = run_chip(16, cc)
    assert res_sw == reference(16, cc)


def test_in_flight_idents_over_time_slots():
    cc = CollectiveConfig(enabled=True, value_width=4, time_slots=2)
    chip = CMP(CMPConfig.for_cores(16, collectives=cc), barrier="gl")
    results = {}

    def prog(cid):
        r0 = yield isa.CollectiveOp("sum", value=cid % 16, ident=0)
        results[("sum", cid)] = r0
        r1 = yield isa.CollectiveOp("max", value=(cid * 5) % 16, ident=1)
        results[("max", cid)] = r1

    chip.run([prog(c) for c in range(16)])
    ref0 = ops.reference_reduce("sum", [c % 16 for c in range(16)], 4)
    ref1 = ops.reference_reduce("max", [(c * 5) % 16 for c in range(16)],
                                4)
    assert all(results[("sum", c)] == ref0 for c in range(16))
    assert all(results[("max", c)] == ref1 for c in range(16))


def test_disabled_chip_has_no_collective_engine():
    chip = CMP(CMPConfig.for_cores(16), barrier="gl")
    assert chip.collective_impl is None


def test_unbound_collective_op_raises_helpfully():
    chip = CMP(CMPConfig.for_cores(16), barrier="gl")
    with pytest.raises(Exception, match="[Cc]ollective"):
        chip.run([iter([isa.CollectiveOp("sum", value=1)])] + [None] * 15)


def test_stuck_wire_fails_over_to_software_with_correct_value():
    """The acceptance scenario: a degraded counting wire must degrade to
    the software NoC all-reduce and still deliver the CORRECT result to
    every core, then keep working on later episodes."""
    cc = CollectiveConfig(enabled=True, value_width=8,
                          watchdog_budget=64, watchdog_retries=1)
    chip = CMP(CMPConfig.for_cores(16, collectives=cc), barrier="gl")
    net = chip.collective_impl.networks[0]
    for line in net.lines:
        if line.name.endswith("txH0"):
            line.stuck = 0
    results = {}

    def prog(cid):
        first = yield isa.CollectiveOp("sum", value=cid + 1)
        results[cid] = first
        second = yield isa.CollectiveOp("max", value=cid)
        results[(cid, 2)] = second

    chip.run([prog(c) for c in range(16)])
    ref = ops.reference_reduce("sum", list(range(1, 17)), 8)
    assert all(results[c] == ref for c in range(16))
    ref2 = ops.reference_reduce("max", list(range(16)), 8)
    assert all(results[(c, 2)] == ref2 for c in range(16))
    assert net.quarantined
    counters = chip.stats.counters
    assert counters.get("faults.failover.sw_collectives", 0) >= 16
