"""Spans the benchmark records around its own calls into the simulator.

A span has a name (``build``, ``workload``, ``run``, ``verify`` or
``dispatch``), the id of the simulation or dispatch pass it belongs to,
the index of the span that encloses it, and start/end times in seconds
since the repeat process started.  Spans stay in memory; the traced run
hands them to ``run.py``, which writes them out when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

#: Span names that mark the first simulated cycle (or first dispatched
#: spec); set-up time is measured up to the first of them.
FIRST_WORK = ("run", "dispatch")


class Spans:
    """In-memory span recorder for one repeat."""

    def __init__(self, t0: float):
        self.t0 = t0
        self.records: list[dict] = []
        #: perf_counter() at the start of the first ``run``/``dispatch``.
        self.first_work: float | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, sid: str) -> Iterator[None]:
        start = time.perf_counter()
        if self.first_work is None and name in FIRST_WORK:
            self.first_work = start
        record = {"name": name, "id": sid,
                  "parent": self._open[-1] if self._open else None,
                  "start": start - self.t0, "end": None}
        self._open.append(len(self.records))
        self.records.append(record)
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = time.perf_counter() - self.t0

    def total(self, name: str, prefix: str = "") -> float:
        """Summed duration of the spans called *name* whose id starts
        with *prefix*."""
        return sum(r["end"] - r["start"] for r in self.records
                   if r["name"] == name and r["id"].startswith(prefix))
