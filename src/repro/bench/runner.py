"""Calibration-normalized timing, snapshot I/O, and the regression gate.

A snapshot (``BENCH_<name>.json``) records the wall-clock of each
repeat, the median, total simulation events, events/sec, and the
events/sec of a fixed pure-Python calibration loop measured in the same
process.  The **normalized score** (case events/sec divided by
calibration events/sec) is what the tolerance gate compares -- both
numbers scale with interpreter/host speed, so their ratio is stable
across machines to within a few percent, which is what lets committed
baselines gate CI runs on unknown hardware.

Snapshots also carry a ``config_digest`` -- a hash of the case's spec
fingerprints with the code version stripped -- so a comparison against a
baseline taken for *different work* (e.g. quick vs full) is refused
rather than silently misread, while rebuilds of the same experiment
across commits stay comparable.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from ..common.errors import ReproError
from .cases import BenchCase

#: Median-of-N repeats per case (CLI/default; the smoke job uses fewer).
DEFAULT_REPEATS = 3
#: Allowed normalized-score regression before the gate fails (25%).
DEFAULT_TOLERANCE = 0.25
#: Default snapshot directory (committed baselines live here).
PERF_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "perf"

#: Calibration loop size; ~30ms of pure-Python heap traffic on a typical
#: host -- long enough to be stable, short enough to repeat.
_CALIB_EVENTS = 40_000


class BenchError(ReproError):
    """Benchmark harness misuse (unknown case, incomparable snapshots)."""


def calibrate(repeats: int = 3) -> float:
    """Events/sec of a fixed pure-Python engine loop on this host.

    Uses the simulator's engine driving a trivial self-rescheduling
    callback -- the same interpreter work (tuple churn, heap ops, method
    dispatch) that dominates simulation wall-clock, making the ratio
    sim-events-per-sec / calibration-events-per-sec largely
    host-independent.  Returns the best (max) of *repeats* to shed
    transient scheduler noise.
    """
    from ..sim.engine import Engine

    best = 0.0
    for _ in range(repeats):
        eng = Engine()
        budget = _CALIB_EVENTS

        def tick() -> None:
            if eng.events_executed < budget:
                eng.schedule(1, tick)

        for _ in range(4):
            eng.schedule(0, tick)
        t0 = time.perf_counter()
        eng.run(max_events=budget)
        dt = time.perf_counter() - t0
        best = max(best, eng.events_executed / dt)
    return best


# ---------------------------------------------------------------------- #
@dataclass
class BenchSnapshot:
    """The BENCH_<name>.json payload: one case's timing."""

    name: str
    quick: bool
    config_digest: str
    repeats: int
    wall_s: list[float]              # one entry per repeat
    median_wall_s: float
    events: int                      # per single repeat (identical across)
    events_per_sec: float            # events / median_wall_s
    calibration_eps: float           # calibration loop events/sec
    normalized_score: float          # events_per_sec / calibration_eps

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "quick": self.quick,
                "config_digest": self.config_digest,
                "repeats": self.repeats,
                "wall_s": [round(w, 6) for w in self.wall_s],
                "median_wall_s": round(self.median_wall_s, 6),
                "events": self.events,
                "events_per_sec": round(self.events_per_sec, 1),
                "calibration_eps": round(self.calibration_eps, 1),
                "normalized_score": round(self.normalized_score, 6)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "BenchSnapshot":
        return cls(name=data["name"], quick=data["quick"],
                   config_digest=data["config_digest"],
                   repeats=data["repeats"], wall_s=list(data["wall_s"]),
                   median_wall_s=data["median_wall_s"],
                   events=data["events"],
                   events_per_sec=data["events_per_sec"],
                   calibration_eps=data["calibration_eps"],
                   normalized_score=data["normalized_score"])


def config_digest(case: BenchCase, quick: bool) -> str:
    """Hash of the case's spec fingerprints, code version excluded.

    Excluding the code fingerprint is deliberate: the perf trajectory
    must stay comparable across commits (that is its whole point); what
    must *not* be comparable is different simulated work, which the spec
    configs/workloads capture fully.
    """
    blobs = []
    for spec in case.build(quick):
        fp = spec.fingerprint()
        fp.pop("code", None)
        blobs.append(json.dumps(fp, sort_keys=True, separators=(",", ":")))
    digest = hashlib.sha256("\n".join(blobs).encode()).hexdigest()
    return digest[:16]


def run_case(case: BenchCase, quick: bool = False,
             repeats: int = DEFAULT_REPEATS,
             calibration_eps: float | None = None) -> BenchSnapshot:
    """Time *case*: median of *repeats* fresh executions.

    Each repeat builds fresh chips (``RunSpec.execute``, no cache, this
    process) so cold-build cost is included consistently.  The event
    count must be identical across repeats -- simulation is deterministic
    -- and is asserted, which doubles as a cheap determinism check on
    every benchmark run.
    """
    if repeats < 1:
        raise BenchError(f"repeats must be >= 1, got {repeats}")
    specs = case.build(quick)
    if calibration_eps is None:
        calibration_eps = calibrate()
    walls: list[float] = []
    events = 0
    for rep in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for spec in specs:
            result = spec.execute()
            total += result.events_executed
        walls.append(time.perf_counter() - t0)
        if rep == 0:
            events = total
        elif total != events:
            raise BenchError(
                f"{case.name}: event count varied across repeats "
                f"({events} vs {total}) -- determinism broken")
    median = statistics.median(walls)
    eps = events / median
    return BenchSnapshot(name=case.name, quick=quick,
                         config_digest=config_digest(case, quick),
                         repeats=repeats, wall_s=walls,
                         median_wall_s=median, events=events,
                         events_per_sec=eps,
                         calibration_eps=calibration_eps,
                         normalized_score=eps / calibration_eps)


# ---------------------------------------------------------------------- #
def snapshot_path(name: str, directory: Path | None = None) -> Path:
    """``<directory>/BENCH_<name>.json`` (default: benchmarks/perf)."""
    return (directory or PERF_DIR) / f"BENCH_{name}.json"


def write_snapshot(snapshot: BenchSnapshot,
                   directory: Path | None = None) -> Path:
    path = snapshot_path(snapshot.name, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snapshot.to_dict(), indent=2,
                               sort_keys=True) + "\n")
    return path


def load_snapshot(name: str,
                  directory: Path | None = None) -> Optional[BenchSnapshot]:
    """The committed baseline for *name*, or None if absent/unreadable
    (absent baselines must keep forks green, so no exception)."""
    path = snapshot_path(name, directory)
    if not path.exists():
        return None
    try:
        return BenchSnapshot.from_dict(json.loads(path.read_text()))
    except (json.JSONDecodeError, KeyError, TypeError):
        return None


@dataclass
class BenchComparison:
    """Current-vs-baseline verdict for one case."""

    name: str
    baseline_score: float
    current_score: float
    ratio: float                      # current / baseline
    tolerance: float
    regressed: bool
    note: str = ""

    def summary(self) -> str:
        verdict = "REGRESSED" if self.regressed else "ok"
        text = (f"{self.name}: {self.ratio:.2f}x baseline "
                f"normalized score ({verdict}, tolerance "
                f"-{self.tolerance:.0%})")
        if self.note:
            text += f" [{self.note}]"
        return text


def compare_snapshots(current: BenchSnapshot,
                      baseline: Optional[BenchSnapshot],
                      tolerance: float = DEFAULT_TOLERANCE
                      ) -> Optional[BenchComparison]:
    """Gate *current* against *baseline*; None when there is no baseline.

    Raises :class:`BenchError` when the snapshots measured different work
    (config digests or quick flags differ) -- refreshing the baseline is
    the fix, not loosening the gate.
    """
    if baseline is None:
        return None
    if (baseline.config_digest != current.config_digest
            or baseline.quick != current.quick):
        raise BenchError(
            f"baseline for {current.name!r} measured different work "
            f"(digest {baseline.config_digest}/quick={baseline.quick} vs "
            f"{current.config_digest}/quick={current.quick}); refresh it "
            f"with: repro bench --write")
    note = ""
    if baseline.events != current.events:
        # Digest-identical work must execute identical event counts;
        # this is a determinism alarm, flagged loudly but judged by the
        # score gate (the digest check above already passed).
        note = (f"event count changed: {baseline.events} -> "
                f"{current.events}")
    ratio = current.normalized_score / baseline.normalized_score
    return BenchComparison(
        name=current.name, baseline_score=baseline.normalized_score,
        current_score=current.normalized_score, ratio=ratio,
        tolerance=tolerance, regressed=ratio < (1.0 - tolerance),
        note=note)
