"""Exact outcomes under a stuck wire, one case per wire and level.

Every wire of a hardened 3x3 network -- including the wires of stages
that sit idle while others work (the column during the row reductions,
the rows while the column broadcasts) -- is stuck at 0 and at 1, and the
run must match the committed golden bit for bit: each core's
``(value, cycle)``, the watchdog's detections / retries / failovers,
the clocked cycles and the final engine time.  One hierarchical cluster
wire is covered the same way.  Accepting "the reference or FAILOVER"
would let a fabric that stops sampling an idle stage's forced wire
pass; the goldens do not.

The goldens pin behaviour, not correctness: with integrity off, a
stuck-high counting (``tx``) wire inflates the S-CSMA counts and some
cores receive a wrong SUM with no detection -- the miscount the
``integrity`` modes exist to catch.

Regenerate ``stuck_wire_goldens.json`` only for a recorded model change::

    PYTHONPATH=src python -m tests.collectives.test_stuck_wires
"""

import json
from pathlib import Path

import pytest

from repro.collectives.config import CollectiveConfig
from repro.collectives.hierarchical import HierarchicalCollectiveNetwork
from repro.collectives.network import CollectiveNetwork
from repro.common.params import GLineConfig
from repro.common.stats import StatsRegistry
from repro.faults import FAILOVER
from repro.sim.engine import Engine

GOLDEN = Path(__file__).with_name("stuck_wire_goldens.json")

FLAT_WIRES = ("txH0", "relH0", "txH1", "relH1", "txH2", "relH2",
              "txV", "relV")
#: (network, wire suffix, stuck level); "flat" is a 3x3 network, "hier"
#: an 8x8 two-level network with the fault on cluster 0.
CASES = [("flat", w, lvl) for w in FLAT_WIRES for lvl in (0, 1)] + \
    [("hier", "relV", lvl) for lvl in (0, 1)]


def _case_id(case):
    return f"{case[0]}-{case[1]}-stuck{case[2]}"


def observe(net_kind: str, wire: str, level: int) -> dict:
    """Run one staggered SUM episode with *wire* stuck at *level*."""
    rows = cols = 3 if net_kind == "flat" else 8
    engine = Engine()
    stats = StatsRegistry(rows * cols)
    cc = CollectiveConfig(enabled=True, value_width=4, watchdog_budget=64,
                          watchdog_retries=2)
    cls = CollectiveNetwork if net_kind == "flat" \
        else HierarchicalCollectiveNetwork
    net = cls(engine, stats, rows, cols, GLineConfig(), cc)
    nets = [net] if net_kind == "flat" else net.clusters + [net.top]
    faulty = nets[0].lines
    hit = [line for line in faulty if line.name.endswith(wire)]
    assert hit, wire
    for line in hit:
        line.stuck = level
    got = {}
    for cid in range(rows * cols):
        engine.schedule(cid % 3, net.arrive, cid, "sum", cid + 1,
                        (lambda v=None, c=cid: got.__setitem__(
                            c, ["FAILOVER" if v == FAILOVER else v,
                                engine.now])))
    engine.run()
    return {
        "cores": [got.get(c) for c in range(rows * cols)],
        "detections": sum(n.detections for n in nets),
        "retries": sum(n.retries for n in nets),
        "failovers": sum(n.failovers for n in nets),
        "active_cycles": sum(n.active_cycles for n in nets),
        "now": engine.now,
    }


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_stuck_wire_outcome_matches_golden(case, goldens):
    assert observe(*case) == goldens[_case_id(case)]


def test_goldens_cover_every_wire():
    """The 3x3 network's wires are exactly the flat cases' wires, and
    the golden file carries no stale entries."""
    engine = Engine()
    net = CollectiveNetwork(engine, StatsRegistry(9), 3, 3, GLineConfig(),
                            CollectiveConfig(enabled=True))
    assert sorted(line.name.split(".")[-1] for line in net.lines) == \
        sorted(FLAT_WIRES)
    assert sorted(json.loads(GOLDEN.read_text())) == \
        sorted(_case_id(c) for c in CASES)


if __name__ == "__main__":
    entries = [f"  {json.dumps(_case_id(c))}: {json.dumps(observe(*c))}"
               for c in CASES]
    GOLDEN.write_text("{\n" + ",\n".join(entries) + "\n}\n")
