"""Seeded successive-halving + local-mutation Pareto search.

The loop proposes cohorts of design points, evaluates them through a
:class:`~repro.exec.scheduler.SweepScheduler` at increasing *fidelity*
rungs (workload iterations), truncates each rung to the better half in
:func:`~repro.dse.pareto.crowded_order`, and keeps every top-rung
objective vector in an elite pool.  Subsequent cohorts are one-axis
mutations of the current elite Pareto front (falling back to fresh
random samples when mutation stops finding unseen points), so the
search walks the trade-off surface instead of re-gridding it.

**Budget = evaluation requests, not simulations.**  Every scheduled
``(point, rung)`` pair costs one unit whether it is simulated or served
from the result cache.  That makes the trajectory a pure function of
``(space, objectives, budget, seed, rungs)`` plus the deterministic
simulation results -- so a warm rerun follows the identical trajectory
with **zero** re-simulated specs and reproduces the committed golden
front byte-for-byte, and ``repro resume`` on an interrupted DSE journal
fast-forwards through everything already cached.

Failed evaluations (quarantined after retries, or deterministic
sim-errors -- e.g. a fault-rate point whose unhardened barrier
deadlocks) still consume budget but drop out of the cohort: an
infeasible-at-runtime design is simply never promoted.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from typing import Any, Sequence

from ..common.errors import ReproError
from ..exec.scheduler import SweepScheduler
from .objectives import OBJECTIVES, extract_objectives
from .pareto import crowded_order, pareto_front
from .space import DsePoint, DseSpace

#: Fidelity rungs: workload iterations per successive-halving stage.
DEFAULT_RUNGS = (3, 6, 12)

#: Default objective set (the failover objective is opt-in: it is
#: identically zero on fault-free spaces and would only pad the front).
DEFAULT_OBJECTIVES = ("latency", "energy", "wires")


class SearchError(ReproError):
    """The search was asked to do something impossible."""


@dataclass(frozen=True)
class FrontPoint:
    """One Pareto-optimal design point at the top fidelity rung."""

    point: DsePoint
    objectives: dict[str, float]
    fidelity: int

    def to_dict(self) -> dict[str, Any]:
        return {"point": dict(self.point),
                "objectives": dict(self.objectives),
                "fidelity": self.fidelity}


@dataclass
class SearchResult:
    """Outcome of one :func:`run_search` call."""

    space: str
    objectives: tuple[str, ...]
    seed: int
    budget: int
    rungs: tuple[int, ...]
    #: Evaluation requests consumed (cache hits included -- see the
    #: module docstring).
    evaluations: int
    #: Evaluations dropped to scheduler failure (quarantine/sim-error).
    failed: int
    #: Propose-evaluate-promote waves executed.
    rounds: int
    front: list[FrontPoint]

    def to_dict(self) -> dict[str, Any]:
        return {"space": self.space,
                "objectives": list(self.objectives),
                "seed": self.seed, "budget": self.budget,
                "rungs": list(self.rungs),
                "evaluations": self.evaluations, "failed": self.failed,
                "rounds": self.rounds,
                "front": [fp.to_dict() for fp in self.front]}

    def table(self) -> str:
        from ..analysis.report import render_table

        axes = sorted({name for fp in self.front for name in fp.point})
        headers = axes + [f"{n} ({OBJECTIVES[n].unit})"
                          for n in self.objectives]
        rows: list[list[Any]] = []
        for fp in self.front:
            rows.append([fp.point.get(a, "-") for a in axes] +
                        [f"{fp.objectives[n]:.4g}"
                         for n in self.objectives])
        title = (f"Pareto front: space={self.space} seed={self.seed} "
                 f"budget={self.budget} "
                 f"({self.evaluations} evaluations, "
                 f"{len(self.front)} points)")
        return render_table(headers, rows, title=title)


def front_json(result: SearchResult) -> str:
    """Canonical JSON export (sorted keys; the committed golden form)."""
    return json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"


def front_csv(result: SearchResult) -> str:
    """Flat CSV export: one row per front point, axes then objectives."""
    axes = sorted({name for fp in result.front for name in fp.point})
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(axes + list(result.objectives))
    for fp in result.front:
        writer.writerow([fp.point.get(a, "") for a in axes] +
                        [fp.objectives[n] for n in result.objectives])
    return out.getvalue()


# ---------------------------------------------------------------------- #
def run_search(space: DseSpace,
               objectives: Sequence[str] = DEFAULT_OBJECTIVES,
               budget: int = 32, seed: int = 7,
               scheduler: SweepScheduler | None = None,
               rungs: Sequence[int] = DEFAULT_RUNGS) -> SearchResult:
    """Map *space*'s Pareto front under *objectives* within *budget*
    evaluation requests.  Deterministic per seed (see module docstring).

    The *scheduler* should run with ``keep_going`` so runtime-infeasible
    points are dropped instead of aborting the search; the default one
    does.
    """
    names = tuple(objectives)
    unknown = [n for n in names if n not in OBJECTIVES]
    if not names or unknown:
        raise SearchError(
            f"bad objectives {list(names)}: unknown {unknown}, "
            f"known {sorted(OBJECTIVES)}")
    rung_list = tuple(rungs)
    if not rung_list or list(rung_list) != sorted(set(rung_list)) \
            or rung_list[0] < 1:
        raise SearchError(
            f"rungs must be strictly increasing and >= 1: {rungs}")
    if budget < 1:
        raise SearchError(f"budget must be >= 1, got {budget}")

    sched = scheduler if scheduler is not None \
        else SweepScheduler(jobs=1, keep_going=True)
    rng = random.Random(seed)
    cohort_k = max(2, budget // (len(rung_list) + 1))

    seen: set[str] = set()
    #: point_key -> (point, top-rung objective vector), insertion
    #: irrelevant: always iterated in sorted-key order.
    elite: dict[str, tuple[DsePoint, tuple[float, ...]]] = {}
    evals_used = 0
    failed = 0
    rounds = 0

    def elite_front() -> list[DsePoint]:
        items = sorted(elite.items())
        if not items:
            return []
        idxs = pareto_front([vec for _, (_, vec) in items])
        return [items[i][1][0] for i in idxs]

    def propose(k: int) -> list[DsePoint]:
        """The next cohort: unseen mutations of the current elite
        front, topped up with fresh samples; empty when exhausted."""
        out: list[DsePoint] = []
        bases = elite_front()
        attempts = 0
        while len(out) < k and attempts < 16 * k:
            attempts += 1
            cand: DsePoint | None = None
            if bases:
                cand = space.mutate(rng, bases[attempts % len(bases)])
            if cand is None or space.point_key(cand) in seen:
                fresh = space.sample(rng, 1)
                cand = fresh[0] if fresh else None
            if cand is None:
                break
            key = space.point_key(cand)
            if key in seen:
                continue
            seen.add(key)
            out.append(cand)
        return out

    def evaluate(points: list[DsePoint],
                 fidelity: int) -> list[tuple[DsePoint,
                                              tuple[float, ...]]]:
        nonlocal evals_used, failed
        specs = [space.build_spec(p, fidelity) for p in points]
        results = sched.run(specs)
        evals_used += len(points)
        pairs: list[tuple[DsePoint, tuple[float, ...]]] = []
        for point, spec, result in zip(points, specs, results):
            if result is None:
                failed += 1
                continue
            pairs.append((point,
                          extract_objectives(names, spec, result)))
        return pairs

    # Wave 1 seeds from random samples; later waves from mutations.
    cohort = space.sample(rng, min(cohort_k, budget))
    seen.update(space.point_key(p) for p in cohort)
    while cohort and evals_used < budget:
        rounds += 1
        for r_idx, fidelity in enumerate(rung_list):
            cohort = cohort[:budget - evals_used]
            if not cohort:
                break
            pairs = evaluate(cohort, fidelity)
            if not pairs:
                cohort = []
                break
            if r_idx == len(rung_list) - 1:
                for point, vec in pairs:
                    elite[space.point_key(point)] = (point, vec)
                break
            order = crowded_order([vec for _, vec in pairs])
            keep = max(1, (len(pairs) + 1) // 2)
            cohort = [pairs[i][0] for i in order[:keep]]
        if evals_used >= budget:
            break
        cohort = propose(min(cohort_k, budget - evals_used))

    front_points = []
    for point in elite_front():
        vec = elite[space.point_key(point)][1]
        front_points.append(FrontPoint(
            point=point,
            objectives={n: v for n, v in zip(names, vec)},
            fidelity=rung_list[-1]))
    front_points.sort(
        key=lambda fp: (tuple(fp.objectives[n] for n in names),
                        DseSpace.point_key(fp.point)))
    return SearchResult(
        space=space.name, objectives=names, seed=seed, budget=budget,
        rungs=rung_list, evaluations=evals_used, failed=failed,
        rounds=rounds, front=front_points)
