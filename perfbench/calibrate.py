"""Host-speed calibration for the end-to-end host times.

The host this benchmark was built on runs its CPUs at speeds that drift by
tens of percent over tens of seconds, as other tenants come and go: the
median host time of one 30-second run moved by 22% (interquartile range
over ten runs) with no change to the program.  ``run.py`` therefore also
times a fixed reference workload between the repeats, and scales host
times to a host on which that reference takes :data:`REFERENCE_S`.

The reference is a miniature of the simulator's own work -- messages
scheduled on a heap by arrival cycle and delivered to tiles of an 8x8
mesh that update a table per line and send the next message -- so that it
slows down with the host the way the simulator does (a plain arithmetic
loop slowed down about twice as much).  It lives here and runs no code
of the program, so no change to the simulator can move it.
"""

from __future__ import annotations

import heapq
import random
import time

#: Seconds the reference takes on the reference host.
REFERENCE_S = 0.3
_EVENTS = 150_000
_TILES = 64
_SIDE = 8


class _Message:
    __slots__ = ("src", "dst", "line", "ttl")

    def __init__(self, src: int, dst: int, line: int, ttl: int):
        self.src = src
        self.dst = dst
        self.line = line
        self.ttl = ttl


class _Tile:
    __slots__ = ("tid", "lines", "mesh")

    def __init__(self, tid: int, mesh: "_Mesh"):
        self.tid = tid
        self.lines: dict[int, int] = {}
        self.mesh = mesh

    def receive(self, now: int, msg: _Message) -> None:
        self.lines[msg.line] = self.lines.get(msg.line, 0) + 1
        if msg.ttl and len(self.lines) < 4000:
            self.mesh.send(now, _Message(
                self.tid, (self.tid * 31 + msg.line) % _TILES,
                msg.line + 1, msg.ttl - 1))


class _Mesh:
    def __init__(self) -> None:
        self.queue: list = []
        self.seq = 0
        self.tiles = [_Tile(t, self) for t in range(_TILES)]

    def send(self, now: int, msg: _Message) -> None:
        self.seq += 1
        hops = (abs(msg.src % _SIDE - msg.dst % _SIDE)
                + abs(msg.src // _SIDE - msg.dst // _SIDE))
        heapq.heappush(self.queue, (now + 2 * hops + 1, self.seq, msg))


def reference_seconds() -> float:
    """Host seconds the fixed reference workload takes right now."""
    start = time.perf_counter()
    mesh = _Mesh()
    rng = random.Random(1)
    for _ in range(2000):
        mesh.send(0, _Message(rng.randrange(_TILES), rng.randrange(_TILES),
                              rng.randrange(1 << 16), 200))
    for _ in range(_EVENTS):
        now, _, msg = heapq.heappop(mesh.queue)
        mesh.tiles[msg.dst].receive(now, msg)
    return time.perf_counter() - start
