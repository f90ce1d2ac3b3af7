"""Event-order goldens: one SHA-256 per quick bench spec.

The paper's headline numbers (13 cycles per GL barrier, the 4-cycle
release) are a function of the order in which the engine runs events.
For every spec of every quick case in :data:`repro.bench.CASES` this
test records the engine's ``order_log`` -- ``(time, priority, seq,
qualname)`` per executed event -- and compares its SHA-256 with the
value committed in ``order_digests.json``.  Any refactor that moves,
adds, drops or reorders a single event fails here.

There is no regeneration switch.  When a digest moves on purpose (a
model decision, or a renamed callback), the failure message prints the
new value; paste it into ``order_digests.json`` by hand and name the
decision or rename in CHANGES.md.
"""

import hashlib
import heapq
import json
from pathlib import Path

import pytest

from repro.bench import CASES
from repro.chip.cmp import CMP
from repro.sim.engine import Engine

DIGESTS = json.loads(
    Path(__file__).with_name("order_digests.json").read_text())


def order_digest(spec) -> tuple[str, int]:
    """Run *spec* on a fresh chip; return (SHA-256 of its event order,
    number of events executed)."""
    chip = CMP(spec.config, barrier=spec.barrier)
    log: list = []
    chip.engine.order_log = log
    chip.run(spec.workload, max_events=spec.max_events)
    sha = hashlib.sha256()
    for time, prio, seq, name in log:
        sha.update(f"{time},{prio},{seq},{name}\n".encode())
    return sha.hexdigest(), len(log)


def test_every_quick_case_is_pinned():
    assert sorted(DIGESTS["order_log"]) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_quick_case_event_order_matches_committed_digest(name):
    specs = CASES[name].build(True)
    got = [order_digest(spec) for spec in specs]
    digests = [d for d, _events in got]
    assert digests == DIGESTS["order_log"][name], (
        f"event order of quick case {name!r} changed; new digests "
        f"(events per spec {[n for _d, n in got]}):\n"
        + json.dumps(digests, indent=2))


class _LaterSeqFirst(int):
    """A sequence number that sorts in reverse: same-cycle,
    same-priority events run newest first.  Equality, hashing and
    formatting are plain ``int``'s, so the logged entries are unchanged
    and only the execution order differs."""

    def __lt__(self, other):
        return int.__gt__(self, other)

    def __gt__(self, other):
        return int.__lt__(self, other)


class _ReversedTieEngine(Engine):
    """The real engine with same-cycle ties broken newest-first."""

    __slots__ = ()

    def schedule_at(self, time, callback, *args, priority=0):
        self._seq += 1
        heapq.heappush(self._queue, (time, priority,
                                     _LaterSeqFirst(self._seq),
                                     callback, args))
        return self._seq

    def schedule(self, delay, callback, *args, priority=0):
        return self.schedule_at(self._now + delay, callback, *args,
                                priority=priority)


def test_reordered_engine_fails_the_digest(monkeypatch):
    """A mutation that keeps every event but flips same-cycle tie order
    is caught by the committed digest."""
    specs = CASES["fig5"].build(True)
    index, spec = next((i, s) for i, s in enumerate(specs)
                       if s.barrier == "gl" and s.config.num_cores == 4)
    pinned = DIGESTS["order_log"]["fig5"][index]
    assert order_digest(spec)[0] == pinned
    monkeypatch.setattr("repro.chip.cmp.Engine", _ReversedTieEngine)
    assert order_digest(spec)[0] != pinned
