"""Run specifications: the unit of work the parallel executor schedules.

A :class:`RunSpec` captures everything that determines a simulation run --
the chip configuration, the workload (class + its primitive state), the
barrier kind, the seed and the event budget.  Two properties make it the
foundation of the executor:

* it is **picklable**, so a worker process can execute it verbatim, and
* it has a **stable content hash** (:meth:`RunSpec.key`) that also covers
  the simulator's code version, so a cache entry can never outlive the
  code that produced it.

Simulation is fully deterministic (the event engine breaks ties by
``(priority, seq)`` and no behavior-relevant iteration happens over
unordered containers), so a spec's key identifies its result exactly --
the contract pinned down by ``tests/exec/test_determinism.py``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from ..chip.results import RunResult
from ..common.errors import ReproError
from ..common.params import CMPConfig
from ..workloads.base import Workload
from .version import code_fingerprint

#: Types allowed (recursively, via tuple/list) in a workload fingerprint.
_PRIMITIVES = (bool, int, float, str, type(None))


class SpecError(ReproError):
    """The workload cannot be captured as a stable, hashable spec."""


def _freeze(value, path: str):
    """Return a JSON-stable form of *value* or raise :class:`SpecError`."""
    if isinstance(value, _PRIMITIVES):
        return value
    if isinstance(value, (tuple, list)):
        return [_freeze(v, path) for v in value]
    raise SpecError(
        f"workload attribute {path!r} of type {type(value).__name__} is not "
        f"a primitive; cannot build a stable cache key for it")


def workload_fingerprint(workload: Workload) -> dict:
    """Stable, JSON-serializable digest input for a workload instance.

    Captures the class (dotted path) and every public instance attribute,
    which for the repo's workloads fully determines behavior (they are
    deterministic functions of their primitive parameters and seeds).
    Non-primitive public attributes raise :class:`SpecError` -- refusing
    to cache is always safer than caching under an incomplete key.
    Attributes starting with ``_`` are scratch state and are skipped.
    """
    if not isinstance(workload, Workload):
        raise SpecError(f"not a Workload: {type(workload).__name__}")
    cls = type(workload)
    state = {}
    for name in sorted(vars(workload)):
        if name.startswith("_"):
            continue
        state[name] = _freeze(getattr(workload, name),
                              f"{cls.__name__}.{name}")
    return {"cls": f"{cls.__module__}.{cls.__qualname__}", "state": state}


@dataclass
class RunSpec:
    """One independent simulation run, ready for dispatch or hashing."""

    workload: Workload
    barrier: str
    config: CMPConfig
    max_events: int | None = None
    #: Reserved entropy input.  The repo's workloads carry their own seeds
    #: as constructor state (already in the fingerprint); this field keys
    #: future stochastic sweeps without a cache-format change.
    seed: int = 0

    @classmethod
    def make(cls, workload: Workload, barrier: str,
             num_cores: int = 32, config: CMPConfig | None = None,
             max_events: int | None = None, seed: int = 0) -> "RunSpec":
        """Build a spec the way ``run_benchmark`` builds a run (a ``None``
        config means the paper's Table-1 configuration for *num_cores*).

        Raises :class:`SpecError` if the workload cannot be fingerprinted.
        """
        from ..experiments.runner import paper_config

        cfg = config or paper_config(num_cores)
        workload_fingerprint(workload)  # validate spec-ability eagerly
        return cls(workload=workload, barrier=str(barrier).lower(),
                   config=cfg, max_events=max_events, seed=seed)

    # ------------------------------------------------------------------ #
    def fingerprint(self) -> dict:
        """The full cache-key input as a plain dict (for inspection)."""
        return {
            "config": self.config.to_dict(),
            "workload": workload_fingerprint(self.workload),
            "barrier": self.barrier,
            "seed": self.seed,
            "max_events": self.max_events,
            "code": code_fingerprint(),
        }

    def key(self) -> str:
        """Stable content hash identifying this run (and its result)."""
        blob = json.dumps(self.fingerprint(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    # ------------------------------------------------------------------ #
    def execute(self, obs=None) -> RunResult:
        """Run the simulation described by this spec (in this process).

        *obs* (an :class:`repro.obs.Observability`) attaches tracing and
        metric streams for this run only; it is deliberately not part of
        the spec or its key -- observability never changes results.
        """
        from ..chip.cmp import CMP

        chip = CMP(self.config, barrier=self.barrier, obs=obs)
        return chip.run(self.workload, max_events=self.max_events)
