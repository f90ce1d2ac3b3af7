"""Seeded recovery golden: the recovery timeline is pinned by digest.

The acceptance criterion for the self-healing fabric: the same
``FaultPlan`` + seed produces the *same* failover post-mortems and the
*same* recovery event sequence (the controller's bounded log).  Every
entry embeds absolute cycle numbers, so the SHA-256 of the canonical
JSON timeline, committed in ``tests/sim/order_digests.json``, is a
strict whole-timeline check, not just a counter check.  Re-pinning is
a hand edit to that file with a CHANGES.md line naming the reason.
"""

import hashlib
import json
from pathlib import Path

from repro.chip.cmp import CMP
from repro.experiments.resilience import recovery_config
from repro.workloads.synthetic import SyntheticBarrierWorkload

DIGESTS = json.loads((Path(__file__).parents[1] / "sim"
                      / "order_digests.json").read_text())


def _run(duty: float, seed: int):
    chip = CMP(recovery_config(16, duty, seed), barrier="gl")
    chip.run(SyntheticBarrierWorkload(iterations=12))
    net = chip.barrier_impl.networks[0]
    rec = net.recovery
    return {
        "failover_reports": list(net.failover_reports),
        "reports_dropped": net.failover_reports_dropped,
        "recovery_log": list(rec.log),
        "log_dropped": rec.log_dropped,
        "state": rec.state,
        "flaps": rec.flaps,
        "counters": sorted(
            (k, v) for k, v in chip.stats.counters.items()
            if k.startswith("faults.")),
        "cycles": chip.engine.now,
    }


def test_recovery_timeline_matches_committed_digest():
    for duty, seed in ((0.5, 1), (1.0, 2)):
        timeline = _run(duty, seed)
        # The run must actually exercise the machinery being pinned.
        assert timeline["failover_reports"] and timeline["recovery_log"]
        blob = json.dumps(timeline, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(blob.encode()).hexdigest()
        key = f"duty={duty},seed={seed}"
        assert digest == DIGESTS["recovery_timeline"][key], (
            f"recovery timeline {key} changed; new digest {digest}")


def test_recovery_timeline_is_seed_stable():
    """Re-running the same plan reproduces the timeline verbatim, and a
    different seed takes a genuinely different fault schedule."""
    a = _run(0.5, 1)
    b = _run(0.5, 1)
    c = _run(0.5, 3)
    assert a == b
    assert a["recovery_log"] != c["recovery_log"]
