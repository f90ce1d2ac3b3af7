"""The G-line barrier network: clocking, fault handling and arrivals.

The protocol itself -- wires, bar_regs and the four Figure-4 controllers
-- lives in the engine-free :class:`~repro.gline.fabric.BarrierFabric`;
this component adds what needs the engine: bar_reg write latency, clock
gating, the watchdog with retry/failover, recovery, and observability.

The network is clocked **only while a barrier is in flight** (the paper
switches controllers on at bar_reg writes and off after the release, to
save power); each tick runs every controller's assert phase, then every
sample phase, modelling the 1-cycle G-line propagation.

Ideal latency: with all cores arrived, the release reaches every core 4
cycles later (gather-row, gather-column, release-column, release-row) --
asserted by the test-suite for the paper's 2x2 walkthrough and proved over
every arrival order on meshes up to 4x4 by ``repro verify``, which runs
the same fabric.
"""

from __future__ import annotations

from collections import deque

from ..common.errors import CapacityError
from ..common.params import GLineConfig
from ..common.stats import BarrierSample, StatsRegistry
from ..faults import FAILOVER
from ..obs import events as obs_ev
from ..sim.component import Component
from ..sim.engine import Engine
from .fabric import BarrierFabric, ReleaseGate
from .gline import GLine
from .recovery import RecoveryController

#: Event priority for network ticks: same-cycle bar_reg writes (normal
#: priority 0) become visible to the tick that samples that cycle.
TICK_PRIORITY = 10

#: Cap on retained failover post-mortems.  A flapping line under the
#: recovery controller can fail over an unbounded number of times on a
#: long run; like the PR 3 ListTracer fix, the reports keep the most
#: recent window and count what they drop.
FAILOVER_REPORT_CAP = 64


class GLineBarrierNetwork(Component):
    """One barrier context over a dedicated G-line network."""

    def __init__(self, engine: Engine, stats: StatsRegistry, rows: int,
                 cols: int, config: GLineConfig | None = None,
                 name: str = "glnet",
                 core_ids: list[int] | None = None):
        super().__init__(engine, stats, name)
        self.config = config or GLineConfig()
        max_dim = self.config.max_transmitters + 1
        if rows > max_dim or cols > max_dim:
            raise CapacityError(
                f"a single G-line network supports at most "
                f"{max_dim}x{max_dim} cores (S-CSMA limit of "
                f"{self.config.max_transmitters} transmitters per line); "
                f"use repro.gline.hierarchical for {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        #: Chip-level core ids in row-major mesh order (defaults to 0..N-1;
        #: the hierarchical extension passes cluster-local id maps).
        self.core_ids = core_ids or list(range(rows * cols))
        if len(self.core_ids) != rows * cols:
            raise CapacityError("core_ids must cover the full mesh")
        self.num_cores = rows * cols
        self._local_of = {cid: i for i, cid in enumerate(self.core_ids)}

        #: The engine-free protocol core: wires, bar_regs and the four
        #: Figure-4 controllers; :meth:`_tick` clocks it.
        self.fabric = BarrierFabric(
            rows, cols, self.config.max_transmitters, name=name,
            hardened=self.config.watchdog_budget > 0)
        self.fabric.on_spurious = self._count_spurious
        #: Resume callback of each waiting local (the fabric's bar_regs
        #: carry the local index as their release token).
        self._resumes: list = [None] * self.num_cores

        self.active = False
        self.active_cycles = 0
        self.barriers_completed = 0
        #: Hardware-level latency samples (last bar_reg write -> release),
        #: kept locally; chip-level episode samples (which include the
        #: library entry overhead) live in the shared StatsRegistry via
        #: repro.sync.accounting.BarrierAccounting.
        self.samples: list[BarrierSample] = []
        #: Episode tracking for BarrierSample records.
        self._first_arrival: int | None = None
        self._last_arrival: int | None = None
        self._arrived = 0
        #: Optional external completion hook (hierarchical extension).
        self.on_all_released = None

        # ---- watchdog / fault-handling state (repro.faults) ---------- #
        #: Hardened mode: watchdog + spurious-release guard + overshoot
        #: detection.  Off by default, so a plain network schedules the
        #: exact same events it always did.
        self.hardened = self.fabric.hardened
        #: Set by CMP when a FaultPlan is enabled; perturbs the wires once
        #: per clocked cycle (see the ``injector`` property).
        self.injector = None
        #: Where ``faults.*`` counters go.  Defaults to the local stats
        #: sink; the hierarchical wrapper re-points cluster networks at
        #: the chip-level registry so fault counts are never swallowed by
        #: its private sub-stats.
        self.fault_stats = stats
        #: True once the watchdog gave up on this network; arrivals are
        #: then bounced straight back with the FAILOVER outcome so the
        #: barrier library completes them in software.
        self.quarantined = False
        self.detections = 0
        self.retries = 0
        self.failovers = 0
        #: Barrier flight recorder (set via :meth:`set_obs`).
        self.flight = None
        #: Human-readable failover post-mortems (flight tail included when
        #: the recorder is active); surfaced by resilience reports/tests.
        #: Bounded: keeps the most recent window, counts drops.
        self.failover_reports: deque[str] = deque(maxlen=FAILOVER_REPORT_CAP)
        self.failover_reports_dropped = 0
        #: Self-healing re-admission state machine (repro.gline.recovery);
        #: None keeps failover terminal, exactly the PR 2 semantics.
        self.recovery: RecoveryController | None = (
            RecoveryController(self) if self.config.recovery_enabled
            else None)
        self._episode_retries = 0

    # ------------------------------------------------------------------ #
    @property
    def lines(self) -> list[GLine]:
        return self.fabric.lines

    @property
    def num_glines(self) -> int:
        """Physical wire count -- 2*(rows+1) on a full 2D mesh."""
        return len(self.fabric.lines)

    @property
    def injector(self):
        return self._injector

    @injector.setter
    def injector(self, injector) -> None:
        self._injector = injector
        self.fabric.perturb_hook = (self._perturb if injector is not None
                                    else None)

    # ------------------------------------------------------------------ #
    # Arrival interface (called by the core / barrier library)
    # ------------------------------------------------------------------ #
    def arrive(self, core_id: int, resume) -> None:
        """Core *core_id* executes ``mov 1, bar_reg``; *resume* runs when the
        hardware clears bar_reg (the release stage)."""
        self.schedule(self.config.barreg_write_cycles, self._set_barreg,
                      core_id, resume)

    def _set_barreg(self, core_id: int, resume) -> None:
        if self.quarantined:
            # The watchdog retired this network; the core completes this
            # episode over the software fallback instead.
            if resume is not None:
                self.schedule(0, resume, FAILOVER)
            return
        local = self._local_of[core_id]
        if self.fabric.bar_regs.is_set(local):
            raise CapacityError(
                f"core {core_id} re-arrived at barrier {self.name} before "
                f"release (only one outstanding barrier per context)")
        self._resumes[local] = resume
        self.fabric.arrive_local(local)
        if self._first_arrival is None:
            self._first_arrival = self.now
            if self.hardened and self.config.watchdog_episode_budget:
                self._arm_watchdog(self.config.watchdog_episode_budget,
                                   episode_level=True)
        self._last_arrival = self.now
        self._arrived += 1
        if self.tracer.enabled:
            self.tracer.emit(self.now, self.name, obs_ev.GL_ARRIVE,
                             core=core_id, arrived=self._arrived,
                             of=self.num_cores)
        if self.flight is not None:
            self.flight.record(core_id, self.now, self.name,
                               obs_ev.GL_ARRIVE, arrived=self._arrived,
                               of=self.num_cores)
        if self.hardened and self._arrived == self.num_cores:
            # All cores present: the gather+release must finish within the
            # budget or the watchdog intervenes.
            self._arm_watchdog(self.config.watchdog_budget,
                               episode_level=False)
        if not self.active:
            self.active = True
            # Tick for the cycle in which bar_reg became visible.
            self.schedule(0, self._tick, priority=TICK_PRIORITY)

    # ------------------------------------------------------------------ #
    # Clocking
    # ------------------------------------------------------------------ #
    def _tick(self) -> None:
        self.active_cycles += 1
        fabric = self.fabric
        released = fabric.tick()
        self.stats.gline_toggles += fabric.toggles
        if self.tracer.enabled:
            self.tracer.emit(
                self.now, self.name, obs_ev.GL_FSM,
                flags=[mh.flag for mh in fabric.masters_h],
                scnt=[mh.scnt for mh in fabric.masters_h],
                vscnt=fabric.master_v.scnt if fabric.master_v else None,
                arrived=self._arrived)
        fault = self.hardened and fabric.collect_fault()

        if released:
            self._complete_release(released)

        if fault and self._arrived > 0:
            self._handle_fault()
            return

        if fabric.will_act():
            self.schedule(self.config.line_latency, self._tick,
                          priority=TICK_PRIORITY)
        else:
            # Dormant: state is held (Scnt etc. persist) but nothing can
            # change until another bar_reg write reactivates the clock.
            # This both models the paper's controller power-gating and
            # keeps long straggler waits event-free.
            self.active = False

    def _perturb(self, lines: list[GLine]) -> None:
        self._injector.perturb_glines(lines, now=self.now)

    def _trace_wires(self, lines: list[GLine]) -> None:
        for line in lines:
            # Post-guard levels: what the receivers actually sampled.
            self.tracer.emit(self.now, line.name, obs_ev.GL_WIRE,
                             level=int(line.sampled_on()),
                             count=line.sample_count())

    def _count_spurious(self) -> None:
        self.fault_stats.bump("faults.gline.spurious_releases")

    def _take_resumes(self, locals_: list[int]) -> list:
        """Pop the resume callbacks of the released *locals_*."""
        resumes = self._resumes
        out = [resumes[local] for local in locals_]
        for local in locals_:
            resumes[local] = None
        return out

    def _complete_release(self, released: list) -> None:
        if self.hardened and len(released) != self._arrived:
            # Release atomicity: a legitimate release pulse covers every
            # waiting core in one cycle, so a shortfall means a release
            # line dropped the pulse for part of the mesh (stuck or
            # forced low) while the masters -- who release their own
            # cores at drive time -- ran ahead.  Retrying cannot recall
            # the cores already released, so the only sound containment
            # is the same as a shadow mismatch: the whole episode
            # completes as one software cohort.
            self.fault_stats.bump("faults.gline.partial_releases")
            self._abort_release(released, reason="partial release")
            return
        if self.recovery is not None \
                and not self.recovery.release_ok(len(released)):
            # Probation shadow cross-check failed: withhold the hardware
            # release and complete the episode over software instead.
            self._abort_release(released, reason="probation shadow-mismatch")
            return
        # Cores resume at the end of the release cycle.
        release_time = self.now + 1
        for resume in self._take_resumes(released):
            if resume is not None:
                self.engine.schedule_at(release_time, resume)
        self._arrived -= len(released)
        if self.tracer.enabled:
            self.tracer.emit(self.now, self.name, obs_ev.GL_RELEASE,
                             cores=len(released), release=release_time,
                             remaining=self._arrived)
        if self._arrived == 0:
            self.barriers_completed += 1
            self._episode_retries = 0
            self.stats.bump("gline.barriers")
            self.samples.append(BarrierSample(
                barrier_id=self.barriers_completed,
                first_arrival=self._first_arrival,
                last_arrival=self._last_arrival,
                release=release_time))
            if self.tracer.enabled:
                self.tracer.emit(self.now, self.name, obs_ev.GL_EPISODE,
                                 barrier=self.barriers_completed,
                                 first=self._first_arrival,
                                 last=self._last_arrival,
                                 release=release_time)
            if self.metrics is not None:
                self.metrics.histogram("gline.episode_latency").record(
                    release_time - self._last_arrival)
                self.metrics.histogram("gline.episode_span").record(
                    release_time - self._first_arrival)
                self.metrics.counter("gline.episodes").inc()
            self._first_arrival = None
            self._last_arrival = None
            gate = self.fabric.gate
            if gate is not None:
                gate.is_open = False
                gate.reported = False
            if self.recovery is not None:
                self.recovery.on_episode_complete()
            if self.on_all_released is not None:
                self.on_all_released()

    def _abort_release(self, released: list, reason: str) -> None:
        """Bounce an untrusted release's cores to the software fallback.

        Their bar_regs were already cleared by the release path, so the
        subsequent :meth:`failover` sweep (which handles the cores still
        waiting) cannot double-bounce them -- every core of the episode
        ends up in the same software cohort exactly once."""
        release_time = self.now + 1
        for resume in self._take_resumes(released):
            if resume is not None:
                self.engine.schedule_at(release_time, resume, FAILOVER)
        self._arrived -= len(released)
        self.failover(reason=reason)

    # ------------------------------------------------------------------ #
    # Watchdog, retry and failover (repro.faults hardening)
    # ------------------------------------------------------------------ #
    def _arm_watchdog(self, budget: int, episode_level: bool) -> None:
        # The token pins the timer to this exact (episode, retry) attempt;
        # completion, a retry or a failover each invalidate it, so stale
        # timers expire silently.
        token = (self.barriers_completed, self.failovers,
                 self._episode_retries)
        self.schedule(budget, self._watchdog_check, token, episode_level)

    def _watchdog_check(self, token, episode_level: bool) -> None:
        if token != (self.barriers_completed, self.failovers,
                     self._episode_retries):
            return
        if self._arrived == 0 or self.quarantined:
            return
        gate = self.fabric.gate
        if not episode_level and gate is not None \
                and gate.reported and not gate.is_open:
            # Local gather is complete, validated and reported upward;
            # the episode is parked on the upper hierarchy level, whose
            # own watchdog owns that wait (a degraded sibling segment may
            # legitimately hold the gate far longer than our budget).
            # ``open_gate`` re-arms us to cover the release pipeline.
            return
        if episode_level and self._arrived < self.num_cores:
            # Cores are genuinely missing (fail-stopped or extreme
            # stragglers) -- re-gathering cannot conjure them up, so skip
            # the retries and fail the episode over directly.
            self.detections += 1
            self.fault_stats.bump("faults.watchdog.detections")
            self.failover()
            return
        self._handle_fault()

    def _handle_fault(self) -> None:
        """A stalled or corrupt episode: retry the gather, else fail over."""
        self.detections += 1
        self.fault_stats.bump("faults.watchdog.detections")
        if self.recovery is not None and self.recovery.in_probation:
            # Zero tolerance during probation: a re-admitted network that
            # raises any suspicion re-degrades immediately (a flap), no
            # retry burn-down.
            self.failover(reason="probation watchdog")
            return
        if self._episode_retries < self.config.watchdog_retries:
            self._episode_retries += 1
            self.retries += 1
            self.fault_stats.bump("faults.watchdog.retries")
            if self.tracer.enabled:
                self.tracer.emit(self.now, self.name,
                                 obs_ev.GL_WATCHDOG_RETRY,
                                 attempt=self._episode_retries,
                                 arrived=self._arrived)
            if self.flight is not None:
                for cid in self._waiting_core_ids():
                    self.flight.record(cid, self.now, self.name,
                                       obs_ev.GL_WATCHDOG_RETRY,
                                       attempt=self._episode_retries)
            self.fabric.reset_fsm()
            # bar_regs are still set, so the slaves immediately re-signal;
            # a transient fault heals, a permanent one re-trips the
            # watchdog until the retry budget runs out.
            self.active = True
            self.schedule(self.config.line_latency, self._tick,
                          priority=TICK_PRIORITY)
            if self._arrived == self.num_cores:
                self._arm_watchdog(self.config.watchdog_budget,
                                   episode_level=False)
        else:
            self.failover()

    def failover(self, reason: str = "watchdog") -> None:
        """Give up on this network: quarantine it and bounce every waiting
        core back with the FAILOVER outcome so the episode completes over
        the software fallback barrier.

        Safe by construction: every core that arrived here is re-routed
        into the *same* software episode, and cores that have not arrived
        yet find the network quarantined and go software directly -- no
        core ever skips an episode, so the cohort stays aligned.

        With a recovery controller attached the quarantine is not
        terminal: the controller schedules idle-cycle probes and may
        re-admit the network (see :mod:`repro.gline.recovery`)."""
        self.quarantined = True
        self.failovers += 1
        self.fault_stats.bump("faults.watchdog.failovers")
        waiting = self._waiting_core_ids()
        if self.tracer.enabled:
            self.tracer.emit(self.now, self.name, obs_ev.GL_WATCHDOG_FAILOVER,
                             waiting=list(waiting), retries=self.retries)
        if self.flight is not None:
            for cid in waiting:
                self.flight.record(cid, self.now, self.name,
                                   obs_ev.GL_WATCHDOG_FAILOVER,
                                   retries=self.retries)
        report = (f"{self.name}: {reason} FAILOVER at cycle {self.now} "
                  f"after {self._episode_retries} retries; waiting cores "
                  f"{waiting} bounced to software fallback")
        if self.flight is not None:
            # Recorder tail only when observability is on -- the base
            # message format stays stable for disabled runs.
            tail = self.flight.format_tail(waiting)
            if tail:
                report += "\n" + tail
        if len(self.failover_reports) == self.failover_reports.maxlen:
            self.failover_reports_dropped += 1
            self.fault_stats.bump("faults.watchdog.reports_dropped")
        self.failover_reports.append(report)
        self.fabric.reset_fsm()
        release_time = self.now + 1
        for resume in self._take_resumes(self.fabric.drain()):
            if resume is not None:
                self.engine.schedule_at(release_time, resume, FAILOVER)
        self._arrived = 0
        self._first_arrival = None
        self._last_arrival = None
        self._episode_retries = 0
        gate = self.fabric.gate
        if gate is not None:
            gate.is_open = False
            gate.reported = False
        self.active = False
        if self.recovery is not None:
            self.recovery.on_failover()

    def _waiting_core_ids(self) -> list[int]:
        """Chip-level ids of cores currently holding a set bar_reg."""
        bar_regs = self.fabric.bar_regs
        return [self.core_ids[local] for local in range(self.num_cores)
                if bar_regs.is_set(local)]

    # ------------------------------------------------------------------ #
    def set_injector(self, injector) -> None:
        self.injector = injector
        # Heal-mode injectors watch this network's recovery state to
        # decide whether their fault is currently active.
        if injector is not None and hasattr(injector, "net"):
            injector.net = self

    def set_stats(self, stats: StatsRegistry) -> None:
        """Re-point both measurement sinks (chip ``reset_stats`` hook)."""
        self.stats = stats
        self.fault_stats = stats

    def set_obs(self, obs) -> None:
        """Attach an :class:`~repro.obs.Observability` bundle."""
        self.tracer = obs.tracer
        self.metrics = obs.metrics
        self.flight = obs.flight
        self.fabric.wire_probe = (self._trace_wires if obs.tracer.enabled
                                  else None)

    # ------------------------------------------------------------------ #
    # Hierarchical-mode gating
    # ------------------------------------------------------------------ #
    def install_gate(self, on_gathered) -> ReleaseGate:
        """Defer this network's release stage behind an external gate.

        *on_gathered* fires once per episode when all local cores have
        arrived; call :meth:`open_gate` to start the release."""
        gate = ReleaseGate(on_gathered)
        self.fabric.set_gate(gate)
        return gate

    def open_gate(self) -> None:
        """Upper level grants the release; resume clocking if dormant."""
        fabric = self.fabric
        if fabric.gate is None:
            return
        fabric.gate.is_open = True
        if self.rows == 1 and fabric.masters_h[0].flag:
            fabric.masters_h[0].release_trigger = True
        if self.hardened and self._arrived == self.num_cores:
            # Fresh budget for the release pipeline: the gate-parked wait
            # (upper-level coordination) is excluded from the watchdog.
            self._arm_watchdog(self.config.watchdog_budget,
                               episode_level=False)
        if not self.active and fabric.will_act():
            self.active = True
            self.schedule(0, self._tick, priority=TICK_PRIORITY)

    def fully_idle(self) -> bool:
        """All controllers in their initial state and no bar_reg set."""
        return self.fabric.idle
