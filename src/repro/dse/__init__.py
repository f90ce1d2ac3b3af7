"""Design-space exploration over the G-line configuration space.

The paper evaluates one hand-picked configuration per mesh size; this
subsystem turns the repo's full configuration surface -- mesh shape,
flat-vs-hierarchical topology, watchdog budgets, barrier variant,
collective backend and integrity mode, slot multiplexing, recovery
knobs -- into a searchable space and maps its latency/energy/area/
resilience trade-off frontier automatically.  Two layers:

* **The run dispatcher** (:class:`~repro.exec.scheduler.SweepScheduler`
  and :class:`~repro.exec.scheduler.WorkerPool`, re-exported here): the
  one scheduler every executor uses, driven directly by the search so a
  batch can be sharded over several bounded worker pools (``--pools``).
  It serves and feeds the content-addressed
  :class:`~repro.exec.ResultCache`, journals every attempt into a
  :class:`~repro.exec.SweepJournal` (so ``repro resume`` works on DSE
  runs) and reports through the ``exec.*`` metric streams
  (:mod:`repro.obs`).
* **Pareto search driver** (:mod:`repro.dse.search` over
  :mod:`repro.dse.space` / :mod:`repro.dse.objectives` /
  :mod:`repro.dse.pareto`): a typed :class:`DseSpace` of sweepable
  axes, multi-objective extraction from :class:`~repro.chip.results.
  RunResult` (cycles/episode, network-energy proxy, dedicated-wire
  count, failover rate), dominance/front utilities, and a seeded
  successive-halving + local-mutation loop that proposes batches,
  consumes scheduler results and emits a deterministic Pareto front
  (the ``repro dse`` CLI; CSV/JSON export).

Everything is deterministic per ``--seed``: the search trajectory
depends only on simulation results (themselves deterministic), so a
warm rerun reproduces the committed golden front byte-for-byte with
zero re-simulation.  See ``docs/dse.md``.
"""

from ..exec.scheduler import SweepScheduler, WorkerPool
from .objectives import OBJECTIVES, Objective, extract_objectives
from .pareto import (crowded_order, dominates, nondominated_sort,
                     pareto_front)
from .search import (DEFAULT_OBJECTIVES, DEFAULT_RUNGS, FrontPoint,
                     SearchError, SearchResult, front_csv, front_json,
                     run_search)
from .space import (AXES, SPACES, Axis, DseSpace, SpaceError,
                    space_from_arg)

__all__ = [
    "AXES", "SPACES", "Axis", "DseSpace", "SpaceError", "space_from_arg",
    "OBJECTIVES", "Objective", "extract_objectives",
    "dominates", "pareto_front", "nondominated_sort", "crowded_order",
    "SweepScheduler", "WorkerPool",
    "DEFAULT_OBJECTIVES", "DEFAULT_RUNGS", "FrontPoint", "SearchError",
    "SearchResult", "run_search", "front_csv", "front_json",
]
