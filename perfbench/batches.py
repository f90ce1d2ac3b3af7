"""The benchmark's workloads: one fixed, seeded batch of simulations each.

Every simulation is checked.  After each run the workload's own
``verify(chip)`` compares the functional results with a reference, and
each workload adds batch checks of its own.  A simulation fails when it
raises, deadlocks, exceeds its event budget, fails ``verify`` or fails a
batch check; every failure is counted in the outcome and reported with
its error.  Nothing is skipped.

The batches reach the simulator only through its public API: ``CMP``,
``RunSpec``, the ``Workload`` classes, ``ParallelRunner``, ``repro.dse``,
``repro.obs`` and ``repro.analysis``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro import CMP, CMPConfig, MetricsRegistry, Observability
from repro.analysis import paper_data
from repro.analysis.breakdown import Breakdown, BreakdownComparison
from repro.analysis.validation import check_fig5
from repro.collectives.config import CollectiveConfig
from repro.collectives.ops import KINDS
from repro.exec.spec import RunSpec
from repro.experiments.fig5 import Fig5Result
from repro.workloads import (CollectiveAllReduceWorkload, Kernel3Workload,
                             StressWorkload, SyntheticBarrierWorkload)

from spans import Spans

#: Events one simulation may execute before it counts as failed.  The
#: largest simulation here executes about 0.4M events; a change that makes
#: one run away fails its check instead of stalling the benchmark.
EVENT_BUDGET = 4_000_000

#: Figure 5: CSW, DSW and GL at the paper's core counts.  Two loop
#: iterations (eight barriers) keep CSW at 32 cores near one second.
FIG5_IMPLS = ("csw", "dsw", "gl")
FIG5_CORES = paper_data.FIG5_CORE_COUNTS
FIG5_ITERATIONS = 2
#: Figures 6/7: the KERN3 DSW/GL pair at 32 cores.  At 16 iterations the
#: cold-start misses are not amortised as at the paper's 1,000, so the
#: simulated GL/DSW ratio sits above the paper's 0.12.
KERN3_CORES = 32
KERN3_ITERATIONS = 16

#: noc_stress: 256-core op-mix runs.  The share of lock-protected
#: critical sections varies with the op-mix seed, and lock hand-offs cost
#: more than linearly in it, so one run's host time moves a lot from seed
#: to seed; several runs per batch even that out.
STRESS_CORES = 256
STRESS_RUNS = 5
STRESS_OPS_PER_CORE = 8
STRESS_BARRIERS = 2
STRESS_LOCKS = 8

#: collective_allreduce: twelve rounds of all seven kinds.
COLLECTIVE_ITERATIONS = 12 * len(KINDS)

#: sweep_dispatch: tiny Figure-5 barrier runs and the DSE smoke search.
SWEEP_CORES = (4, 8)
SWEEP_ITERATIONS = (1, 2)
DSE_SPACE = "smoke"
DSE_BUDGET = 40
DSE_RUNGS = (1, 2)
#: Deadline that engages the supervised dispatch path; far above what a
#: tiny spec takes, so it never fires on a working program.
SUPERVISED_TIMEOUT_S = 120.0
#: At most this many worker processes, and never more than the host has.
WORKERS = min(2, os.cpu_count() or 1)


def derive_seed(seed: int, tag: str) -> int:
    """A 32-bit input seed for *tag*, fixed by the benchmark seed."""
    digest = hashlib.sha256(f"{tag}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def stats_digest(records: list[dict]) -> str:
    """Hash of simulated statistics (``RunResult.to_dict()`` without
    ``metrics``), in batch order."""
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _record(sid: str, result_dict: dict) -> dict:
    record = {k: v for k, v in result_dict.items() if k != "metrics"}
    return {"id": sid, **record}


@dataclass
class Outcome:
    """What one repeat of a batch did, and what went wrong."""

    traced: bool = False
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: Digest input: one record per simulation (or dispatched batch).
    records: list[dict] = field(default_factory=list)
    #: Results of in-process simulations, for the per-layer statistics.
    results: list = field(default_factory=list)
    #: obs metrics of every traced simulation, merged.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: (name, simulated, paper) for each paper reference point covered.
    paper_points: list[tuple[str, float, float]] = field(
        default_factory=list)
    #: Per-layer numbers only the batch itself can count.
    counts: dict[str, float] = field(default_factory=dict)

    def fail(self, what: str, error: str, n: int = 1) -> None:
        self.failed += n
        self.errors.append(f"{what}: {error}")

    def count(self, name: str, by: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    @property
    def digest(self) -> str:
        return stats_digest(self.records)

    @property
    def paper_err_pct(self) -> float | None:
        """Mean of |simulated - paper| / paper over the covered points."""
        if not self.paper_points:
            return None
        errors = [abs(sim - ref) / ref for _, sim, ref in self.paper_points]
        return 100.0 * sum(errors) / len(errors)


# ---------------------------------------------------------------------- #
# In-process simulations
# ---------------------------------------------------------------------- #
def simulate(spec: RunSpec, sid: str, spans: Spans, out: Outcome):
    """Build, run and verify one simulation; ``None`` when it failed.

    The traced run attaches an obs metrics bundle; the untraced run
    attaches nothing."""
    obs = Observability(metrics=MetricsRegistry()) if out.traced else None
    out.attempted += 1
    try:
        with spans.span("build", sid):
            chip = CMP(spec.config, barrier=spec.barrier, obs=obs)
        with spans.span("workload", sid):
            programs = spec.workload.build(chip)
        with spans.span("run", sid):
            result = chip.run(programs, max_events=spec.max_events)
        with spans.span("verify", sid):
            spec.workload.verify(chip)
    except Exception as exc:  # noqa: BLE001 - count it, keep the batch
        error = f"{type(exc).__name__}: {exc}"
        out.fail(sid, error)
        out.records.append({"id": sid, "error": error})
        return None
    if obs is not None:
        out.metrics.merge(obs.metrics)
    out.records.append(_record(sid, result.to_dict()))
    out.results.append(result)
    return result


def _spec(workload, barrier: str, cores: int,
          config: CMPConfig | None = None) -> RunSpec:
    return RunSpec.make(workload, barrier, num_cores=cores, config=config,
                        max_events=EVENT_BUDGET)


def paper_grid(seed: int, spans: Spans, out: Outcome,
               reference_only: bool = False) -> None:
    """Figure 5's grid plus the Figure-6/7 KERN3 DSW/GL pair.

    The grid's inputs are the paper's and do not depend on the seed; the
    seed picks KERN3's data, which ``verify`` checks and which leaves the
    simulated cycles unchanged.  *reference_only* runs just the paper's
    numeric reference points (GL per core count and the KERN3 pair)."""
    impls = ("gl",) if reference_only else FIG5_IMPLS
    per_barrier: dict[str, dict[int, float]] = {}
    for impl in impls:
        for cores in FIG5_CORES:
            result = simulate(
                _spec(SyntheticBarrierWorkload(iterations=FIG5_ITERATIONS),
                      impl, cores),
                f"fig5.{impl}@{cores}", spans, out)
            if result is not None:
                per_barrier.setdefault(impl, {})[cores] = \
                    result.total_cycles / result.num_barriers()
    kern3 = {}
    for impl in ("dsw", "gl"):
        workload = Kernel3Workload(iterations=KERN3_ITERATIONS,
                                   seed=derive_seed(seed, "kern3"))
        kern3[impl] = simulate(_spec(workload, impl, KERN3_CORES),
                               f"kern3.{impl}@{KERN3_CORES}", spans, out)

    for cores, cycles in sorted(per_barrier.get("gl", {}).items()):
        out.paper_points.append((f"fig5.gl@{cores}", cycles,
                                 paper_data.FIG5_GL_CYCLES))
    if kern3["dsw"] is not None and kern3["gl"] is not None:
        ratio = BreakdownComparison(
            "KERN3", Breakdown.from_result("DSW", kern3["dsw"]),
            Breakdown.from_result("GL", kern3["gl"])
        ).normalized_treated_total
        out.paper_points.append((f"kern3.gl/dsw@{KERN3_CORES}", ratio,
                                 paper_data.FIG6_GL_NORM_TIME["KERN3"]))
    if reference_only:
        return
    if any(len(per_barrier.get(i, {})) < len(FIG5_CORES) for i in impls):
        out.fail("fig5.shape", "not every Figure-5 run completed")
        return
    fig5 = Fig5Result(core_counts=FIG5_CORES, impls=FIG5_IMPLS,
                      cycles_per_barrier=per_barrier,
                      iterations=FIG5_ITERATIONS)
    for check in check_fig5(fig5):
        if not check.passed:
            out.fail(check.name, check.detail)


def noc_stress(seed: int, spans: Spans, out: Outcome) -> None:
    """256-core op mixes: loads, stores and atomics on a few hot shared
    lines beside private arrays, with TTS locks and GL barriers."""
    for k in range(STRESS_RUNS):
        workload = StressWorkload(ops_per_core=STRESS_OPS_PER_CORE,
                                  barriers=STRESS_BARRIERS,
                                  locks=STRESS_LOCKS,
                                  seed=derive_seed(seed, f"stress{k}"))
        simulate(_spec(workload, "gl", STRESS_CORES), f"stress{k}",
                 spans, out)


def collective_allreduce(seed: int, spans: Spans, out: Outcome) -> None:
    """All seven collective kinds, in an order the seed rotates, on the
    256-core hierarchical fabric and on an 8x8 chip with echo integrity
    (every counted round sampled twice)."""
    shift = seed % len(KINDS)
    kinds = KINDS[shift:] + KINDS[:shift]
    for cores, integrity in ((256, "off"), (64, "echo")):
        config = replace(CMPConfig.for_cores(cores),
                         collectives=CollectiveConfig(
                             enabled=True, value_width=8,
                             integrity=integrity))
        workload = CollectiveAllReduceWorkload(
            iterations=COLLECTIVE_ITERATIONS, kinds=kinds)
        simulate(_spec(workload, "gl", cores, config),
                 f"allreduce.{integrity}@{cores}", spans, out)


# ---------------------------------------------------------------------- #
# Dispatch through exec and dse
# ---------------------------------------------------------------------- #
def sweep_dispatch(seed: int, spans: Spans, out: Outcome,
                   scratch: Path) -> None:
    """Many tiny specs through the three dispatch paths and a DSE search.

    The same batch of tiny barrier runs goes through ``ParallelRunner``'s
    Pool path, its supervised path (a timeout set) and ``SweepScheduler``,
    each from a fresh empty ``ResultCache`` and then again warm.  The
    seeded DSE smoke search runs cold and warm the same way.  Checks: all
    paths return identical results, a warm pass simulates nothing, and
    the cold and warm fronts are equal."""
    from repro.dse import SPACES, SweepScheduler, run_search
    from repro.exec.cache import ResultCache
    from repro.exec.parallel import ParallelRunner

    specs = [_spec(SyntheticBarrierWorkload(iterations=it), impl, cores)
             for impl in FIG5_IMPLS for cores in SWEEP_CORES
             for it in SWEEP_ITERATIONS]
    paths = {
        "pool": lambda cache: ParallelRunner(jobs=WORKERS, cache=cache),
        "supervised": lambda cache: ParallelRunner(
            jobs=WORKERS, cache=cache, timeout=SUPERVISED_TIMEOUT_S),
        "scheduler": lambda cache: SweepScheduler(jobs=WORKERS,
                                                  cache=cache),
    }
    out.counts.update({"workers": WORKERS, "exec.cache_hits": 0,
                       "exec.cache_misses": 0, "exec.attempts": 0,
                       "dse.evaluations": 0})
    specs_in = {"cold": 0, "warm": 0}
    reference = None
    try:
        for name, make in paths.items():
            cache = ResultCache(scratch / name)
            for phase in ("cold", "warm"):
                sid = f"{name}.{phase}"
                runner = make(cache)
                out.attempted += len(specs)
                specs_in[phase] += len(specs)
                try:
                    with spans.span("dispatch", sid):
                        results = runner.run(specs)
                except Exception as exc:  # noqa: BLE001 - count it
                    out.fail(sid, f"{type(exc).__name__}: {exc}",
                             n=len(specs))
                    continue
                _count_dispatch(out, runner)
                dicts = [None if r is None else _record(f"spec{i}",
                                                        r.to_dict())
                         for i, r in enumerate(results)]
                if reference is None:
                    reference = dicts
                    out.records.extend(dicts)
                    out.results.extend(r for r in results if r is not None)
                for i, (got, want) in enumerate(zip(dicts, reference)):
                    if got is None or got != want:
                        out.fail(f"{sid}[{i}]", "result differs from the "
                                 "first path's cold result")
                if phase == "warm" and runner.misses:
                    out.fail(sid, f"{runner.misses} of {len(specs)} specs "
                             "simulated again on a warm cache",
                             n=runner.misses)

        fronts = {}
        for phase in ("cold", "warm"):
            sid = f"dse.{phase}"
            scheduler = SweepScheduler(
                jobs=WORKERS, cache=ResultCache(scratch / "dse"),
                keep_going=True)
            try:
                with spans.span("dispatch", sid):
                    search = run_search(SPACES[DSE_SPACE],
                                        budget=DSE_BUDGET,
                                        seed=derive_seed(seed, "dse"),
                                        scheduler=scheduler,
                                        rungs=DSE_RUNGS)
            except Exception as exc:  # noqa: BLE001 - count it
                out.attempted += DSE_BUDGET
                out.fail(sid, f"{type(exc).__name__}: {exc}",
                         n=DSE_BUDGET)
                continue
            _count_dispatch(out, scheduler)
            out.attempted += search.evaluations
            specs_in[phase] += search.evaluations
            out.count("dse.evaluations", search.evaluations)
            for failure in scheduler.failures:
                out.fail(sid, str(failure))
            if phase == "warm" and scheduler.misses:
                out.fail(sid, f"{scheduler.misses} evaluations simulated "
                         "again on a warm cache", n=scheduler.misses)
            fronts[phase] = search.to_dict()
        if fronts.get("cold") is not None:
            out.records.append({"id": "dse.front", **fronts["cold"]})
        if len(fronts) == 2 and fronts["cold"] != fronts["warm"]:
            out.fail("dse", "the warm front differs from the cold front")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for phase in ("cold", "warm"):
        seconds = sum(spans.total("dispatch", f"{p}.{phase}")
                      for p in (*paths, "dse"))
        out.counts[f"exec.{phase}_ms_per_spec"] = \
            1000.0 * seconds / max(1, specs_in[phase])


def _count_dispatch(out: Outcome, runner) -> None:
    """Cache and attempt counts of one dispatch pass.  A Pool attempt is
    a cache miss; the supervised path adds its retries, and the scheduler
    counts its attempts itself."""
    out.count("exec.cache_hits", runner.hits)
    out.count("exec.cache_misses", runner.misses)
    counters = runner.metrics.to_dict()["counters"]
    attempts = counters.get("dse.attempts")
    if attempts is None:
        attempts = runner.misses + counters.get("exec.retries", 0)
    out.count("exec.attempts", attempts)


def paper_anchor(seed: int, spans: Spans, out: Outcome) -> None:
    """The paper's reference points alone: what ``paper_err_pct`` is
    computed from on the workloads that cover none of them."""
    paper_grid(seed, spans, out, reference_only=True)


#: Workload name -> batch function(seed, spans, outcome).
BATCHES = {
    "paper_grid": paper_grid,
    "paper_anchor": paper_anchor,
    "noc_stress": noc_stress,
    "collective_allreduce": collective_allreduce,
    "sweep_dispatch": sweep_dispatch,
}


def run_batch(name: str, seed: int, spans: Spans, out: Outcome,
              scratch: Path) -> None:
    """Run workload *name*'s batch for *seed* into *out*."""
    if name == "sweep_dispatch":
        sweep_dispatch(seed, spans, out, scratch)
    else:
        BATCHES[name](seed, spans, out)
