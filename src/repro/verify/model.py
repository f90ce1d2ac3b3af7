"""The G-line barrier as a transition system over the real fabric.

:class:`GLBarrierModel` drives the production
:class:`~repro.gline.fabric.BarrierFabric` -- the wires, bar_regs and
the four Figure-4 controllers that
:class:`~repro.gline.network.GLineBarrierNetwork` clocks -- through its
``snapshot``/``restore`` interface, the way
:class:`~repro.verify.collectives.CollectiveModel` drives the collective
fabric.  Every controller transition the explorer
(:mod:`repro.verify.explore`) enumerates is computed by the code that
runs in the simulator; wire faults reach the fabric through the same
:class:`~repro.verify.scenarios.ScenarioInjector` the simulator replay
(:mod:`repro.verify.conformance`) attaches.

A state is ``(fabric snapshot, cores, tail)``: ``cores[i]`` is local
*i*'s ``(arrivals, releases, cooldown)`` and ``tail`` holds the
network-level registers below.  Three parts are hand-written, and they
are the abstraction:

* **The environment.**  An action picks which eligible cores arrive
  this step.  A core is eligible when it is not waiting, has episodes
  left and is not cooling down: a released core's re-arrival becomes
  visible no earlier than two steps later (``barreg_write_cycles``).
  Per row, an action says whether the master arrives and how many
  slaves of each class of interchangeable eligible slaves do; it is
  applied to the lowest-indexed eligible cores of each class, so every
  path is a concrete schedule.  A scenario's one-shot ``glitch`` is an
  extra environment choice that forces the damaged TX wire high for one
  clocked cycle.
* **The timer fold.**  One step is one engine cycle at
  ``barreg_write_cycles = 0``: arrivals land, then the watchdog counts
  down, then -- unless the network is quarantined or clock-gated
  (``BarrierFabric.will_act`` false, exactly the network's power
  gating) -- the fabric ticks.  The network's engine-side machinery is
  folded to tick granularity: the all-arrived watchdog countdown, the
  retry budget, failover to the software cohort (which releases every
  core once all have arrived), and the recovery FSM of
  :mod:`repro.gline.recovery` with the probe backoff held at the
  constant ``probe_backoff`` (the transient PROBING cycles collapse into
  the instant the probe timer expires, and re-admission waits for an
  episode boundary, as the sticky software cohort makes it on the chip).
* **The property checks** on every edge: safety, exactly-once, the
  completion bound, and for recovery scenarios bounded recovery and the
  flap bound.

Cycle accuracy is exact along fault-free paths (the equivalence test in
``tests/verify/test_model.py`` pins it); under faults the folded
watchdog makes the model behavior-equivalent rather than cycle-identical.

Symmetry reduction: horizontal slaves within a row are interchangeable,
as are rows 1..R-1 unless a scenario pins a fault to one of them.
:meth:`GLBarrierModel.key` sorts those bundles; states themselves stay
un-permuted, so counterexamples keep true core labels.
"""

from __future__ import annotations

from itertools import product
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..common.params import GLineConfig
from ..gline.fabric import BarrierFabric, Snapshot
from ..gline.recovery import DEGRADED, HEALTHY, PROBATION, QUARANTINED
from .scenarios import (FAULT_FREE, FaultScenario, Mutation,
                        ScenarioInjector, get_mutation)

#: The one-shot glitch marker appended to an action tuple.
GLITCH = "glitch"

#: Properties the model can report violated.
P_SAFETY = "safety"
P_EXACTLY_ONCE = "exactly-once"
P_DEADLOCK = "deadlock-freedom"
P_FOUR_CYCLE = "four-cycle"
#: Recovery-only properties (reported only when ``scenario.recovery``).
#: Bounded recovery: a degraded network always has a probe pending, so
#: it re-admits or retires within ``max_probes * probe_backoff`` steps
#: of the wires healing.  Flap bound: failed re-admissions never exceed
#: ``max_flaps`` before the permanent quarantine engages.
P_RECOVERY = "bounded-recovery"
P_FLAP = "flap-bound"

#: Cap on ``since_all`` so fault scenarios (which legitimately exceed the
#: completion bound while the watchdog counts down) keep it finite.
_SA_CAP = 250

#: Tail registers: steps since all cores arrived, watchdog timer (0 =
#: idle), retries, quarantined, completed episodes, recovery state,
#: probe timer, probation barriers left, flaps, failed probes, glitch
#: armed, degraded ever.
(T_SA, T_WD, T_RET, T_Q, T_EPS, T_RST, T_PRT, T_PBL, T_FLP, T_PRF, T_GL,
 T_DEG) = range(12)

#: ``T_RST`` encoding, and the recovery-controller state each stands for.
R_HEALTHY, R_DEGRADED, R_PROBATION, R_RETIRED = range(4)
_RECOVERY_STATE = (HEALTHY, DEGRADED, PROBATION, QUARANTINED)

#: A core's ``(arrivals, releases, cooldown)``.
Core = Tuple[int, int, int]
State = Tuple[Snapshot, Tuple[Core, ...], Tuple[int, ...]]
#: One row's worth of an action: (master_arrives, ((slave_class, n), ...)).
RowAction = Tuple[int, Tuple[Tuple[Any, int], ...]]
Action = Tuple[Any, ...]


class PropertyViolation(Exception):
    """Raised by :meth:`GLBarrierModel.step` when a transition breaks a
    checked property; the explorer turns it into a counterexample."""

    def __init__(self, prop: str, message: str):
        super().__init__(f"{prop}: {message}")
        self.prop = prop
        self.message = message


class _RecoveryView:
    """The recovery registers a scenario injector's heal modes read, fed
    from the model's tail instead of a live RecoveryController."""

    def __init__(self) -> None:
        self.recovery = self
        self.state = HEALTHY
        self.degraded_episodes = 0


class GLBarrierModel:
    """The G-line barrier network of one mesh as a transition system.

    :param rows: mesh rows (1..7, the S-CSMA electrical limit).
    :param cols: mesh columns (1..7).
    :param scenario: static fault + hardening configuration.
    :param mutation: name of a deliberate FSM bug from
        :data:`~repro.verify.scenarios.MUTATIONS`, or ``None``.
    :param episodes: barrier episodes each core must complete.
    """

    def __init__(self, rows: int, cols: int, *,
                 scenario: FaultScenario = FAULT_FREE,
                 mutation: Optional[str] = None,
                 episodes: int = 1):
        if not (1 <= rows <= 7 and 1 <= cols <= 7):
            raise ValueError(f"mesh {rows}x{cols} outside the 7x7 S-CSMA "
                             f"limit of one G-line network")
        if rows * cols < 2:
            raise ValueError("a 1x1 mesh has no barrier to check")
        if episodes < 1:
            raise ValueError(f"episodes must be >= 1, got {episodes}")
        reason = scenario.applicable(rows, cols)
        if reason is not None:
            raise ValueError(f"scenario {scenario.name!r}: {reason}")
        self.rows = rows
        self.cols = cols
        self.scenario = scenario
        self.episodes = episodes
        self.mutation: Optional[Mutation] = \
            get_mutation(mutation) if mutation is not None else None
        if self.mutation is not None:
            reason = self.mutation.applicable(rows, cols)
            if reason is not None:
                raise ValueError(
                    f"mutation {self.mutation.name!r}: {reason}")
            if self.mutation.target == "shadow" and not scenario.recovery:
                raise ValueError(
                    f"mutation {self.mutation.name!r} needs a recovery "
                    f"scenario (it disables probation's shadow check)")

        self.num_cores = rows * cols
        self.hardened = scenario.hardened
        self.budget = scenario.watchdog_budget
        self.max_retries = scenario.watchdog_retries
        self.recovery = scenario.recovery
        #: The planted bug: probation runs without the shadow check.
        self.shadow_mutated = (self.mutation is not None
                               and self.mutation.target == "shadow")

        self.fabric = BarrierFabric(
            rows, cols, GLineConfig().max_transmitters, name="model",
            hardened=self.hardened)
        if self.mutation is not None:
            self.mutation.apply_to_fabric(self.fabric)
        self._view = _RecoveryView()
        #: Injector clock: ``0`` on the step the glitch fires, else None.
        self._now: Optional[int] = None
        self.injector: Optional[ScenarioInjector] = None
        if scenario.needs_injector:
            inj = ScenarioInjector(scenario, glitch_cycles=(0,))
            inj.net = self._view
            self.injector = inj
            self.fabric.perturb_hook = (
                lambda lines: inj.perturb_glines(lines, now=self._now))
        self._initial_fabric = self.fabric.snapshot()

        #: Row symmetry is sound unless the scenario pins a fault (or the
        #: one-shot glitch) to a specific row >= 1 (row 0 is never sorted).
        self.sort_rows = not (
            scenario.role in ("row_tx", "row_rel")
            and scenario.row >= 1) and not (
            scenario.glitch_role is not None and scenario.glitch_row >= 1)

        #: The 4-cycle theorem is asserted only on healthy wires; the
        #: hardened validation stage legitimately costs one extra cycle,
        #: and recovery scenarios route episodes through software.
        self.check_four_cycle = scenario.is_fault_free \
            and not scenario.recovery
        if rows == 1:
            self.completion_bound = 2 + (1 if self.hardened else 0)
        else:
            self.completion_bound = 4 + (1 if self.hardened else 0)

        #: Largest completion latency observed by any :meth:`step` of this
        #: instance (ticks from all-arrived to release).
        self.max_completion_ticks = 0

    # ------------------------------------------------------------------ #
    def fingerprint(self) -> Dict[str, object]:
        """Content identity of this model (shard cache keys)."""
        return {"kind": "gl-barrier-model",
                "rows": self.rows, "cols": self.cols,
                "scenario": self.scenario.to_dict(),
                "mutation": (self.mutation.name
                             if self.mutation is not None else None),
                "episodes": self.episodes}

    # ------------------------------------------------------------------ #
    # States
    # ------------------------------------------------------------------ #
    def initial(self) -> State:
        tail = [0] * 12
        if self.recovery and self.scenario.start == "probation":
            tail[T_RST] = R_PROBATION
            tail[T_PBL] = self.scenario.probation_barriers
        if self.scenario.glitch_role is not None:
            tail[T_GL] = 1
        cores = ((0, 0, 0),) * self.num_cores
        return (self._initial_fabric, cores, tuple(tail))

    def is_complete(self, state: State) -> bool:
        """All episodes done and every core released from the last one."""
        return state[2][T_EPS] == self.episodes

    def key(self, state: State) -> Any:
        """Hashable canonical key identifying *state* up to symmetry.

        Same-row slave bundles (controller registers, bar_reg, core
        counters) and whole row bundles below row 0 are interchangeable
        when equal, because the wires count transmitters without caring
        which one asserted; sorting them makes symmetric states collide
        in the visited set.  As in ``CollectiveModel.key`` the sort key
        is ``hash``: a tie between unequal bundles only misses a merge.
        """
        (rows, master_v, row_validated, col), cores, tail = state
        cols = self.cols
        bundles = []
        for r, (mh, sv, slaves, wires) in enumerate(rows):
            base = r * cols
            bundles.append((mh, cores[base], sv, wires, tuple(sorted(
                zip(slaves, cores[base + 1: base + cols]), key=hash))))
        rest = bundles[1:]
        if self.sort_rows:
            rest.sort(key=hash)
        return (bundles[0], tuple(rest), master_v, row_validated, col,
                tail)

    # ------------------------------------------------------------------ #
    # The environment
    # ------------------------------------------------------------------ #
    def _eligible(self, core: Core) -> bool:
        return core[0] == core[1] and core[0] < self.episodes \
            and not core[2]

    def _row_choices(self, state: State, r: int
                     ) -> Tuple[bool, Dict[Any, int]]:
        """(master eligible, eligible slave class -> size) for row *r*."""
        cores = state[1]
        base = r * self.cols
        classes: Dict[Any, int] = {}
        slaves = state[0][0][r][2]
        for i, sl in enumerate(slaves):
            core = cores[base + 1 + i]
            if self._eligible(core):
                cls = (sl, core)
                classes[cls] = classes.get(cls, 0) + 1
        return self._eligible(cores[base]), classes

    def actions(self, state: State) -> List[Action]:
        """All arrival choices from *state*, in deterministic order.

        Index 0 is always the empty (pure-tick) action; the last index
        delivers every eligible arrival at once.  Within a row, eligible
        slaves are grouped into classes of equal bundles and the action
        picks a *count* per class -- the symmetry-reduced form of
        choosing subsets.
        """
        per_row: List[List[RowAction]] = []
        for r in range(self.rows):
            m_elig, classes = self._row_choices(state, r)
            items = list(classes.items())
            ranges = [range(n + 1) for _, n in items]
            opts: List[RowAction] = []
            for m in ((0, 1) if m_elig else (0,)):
                for counts in product(*ranges):
                    opts.append((m, tuple(
                        (cls, c) for (cls, _), c in zip(items, counts)
                        if c)))
            per_row.append(opts)
        acts: List[Action] = [tuple(combo) for combo in product(*per_row)]
        if state[2][T_GL]:
            # The one-shot glitch may fire alongside any arrival choice;
            # un-glitched variants come first so the last action stays
            # the maximal one (arrivals + glitch = ``max_action``).
            acts = acts + [a + (GLITCH,) for a in acts]
        return acts

    def max_action(self, state: State) -> Action:
        """The action delivering every eligible arrival (equals the last
        entry of :meth:`actions`, built without full enumeration)."""
        out: List[Any] = []
        for r in range(self.rows):
            m_elig, classes = self._row_choices(state, r)
            out.append((1 if m_elig else 0, tuple(classes.items())))
        if state[2][T_GL]:
            out.append(GLITCH)
        return tuple(out)

    @staticmethod
    def glitched(action: Action) -> bool:
        """Does *action* fire the scenario's one-shot glitch?"""
        return len(action) > 0 and action[-1] == GLITCH

    def arrivals(self, state: State, action: Action) -> List[int]:
        """The concrete cores (``row * cols + col``) *action* delivers
        from *state*: the lowest-indexed eligible cores of each class."""
        if self.glitched(action):
            action = action[:-1]
        if len(action) != self.rows:
            raise ValueError("action must have one entry per row")
        cores = state[1]
        out: List[int] = []
        for r, (m_arr, choices) in enumerate(action):
            base = r * self.cols
            if m_arr:
                out.append(base)
            slaves = state[0][0][r][2]
            for cls, count in choices:
                left = count
                for i, sl in enumerate(slaves):
                    if left == 0:
                        break
                    local = base + 1 + i
                    if (sl, cores[local]) == cls:
                        out.append(local)
                        left -= 1
                if left:
                    raise ValueError(
                        f"action asks for {count} slaves of class {cls} "
                        f"in row {r}; not that many eligible")
        return out

    # ------------------------------------------------------------------ #
    # One transition
    # ------------------------------------------------------------------ #
    def step(self, state: State, action: Action) -> State:
        """Apply *action*'s arrivals, then run one network cycle.

        Raises :class:`PropertyViolation` when the transition breaks
        safety, exactly-once delivery or the completion bound.
        """
        return self.deliver(state, self.arrivals(state, action),
                            glitch=self.glitched(action))

    def deliver(self, state: State, arrivals: Sequence[int],
                glitch: bool = False) -> State:
        """One cycle in which exactly the cores *arrivals* arrive (and,
        with *glitch*, the armed one-shot glitch fires)."""
        fab, core_regs, tail = state
        t = list(tail)
        if glitch:
            if not t[T_GL]:
                raise ValueError("glitch fired but not armed")
            t[T_GL] = 0
        fabric = self.fabric
        fabric.restore(fab)
        cores = list(core_regs)
        for local in sorted(set(arrivals)):
            if not 0 <= local < self.num_cores:
                raise ValueError(f"core {local} outside the mesh")
            core = cores[local]
            if not self._eligible(core):
                raise ValueError(f"core {local} is not eligible to arrive")
            cores[local] = (core[0] + 1, core[1], core[2])
            if not t[T_Q]:
                fabric.arrive_local(local)
        if self.hardened and not t[T_Q] and t[T_WD] == 0 \
                and self._all_waiting(cores):
            # Armed by the arrival that set the last bar_reg
            # (``_set_barreg``); +1 compensates the same-step decrement
            # below, so the timer fires pre-tick ``budget`` steps later.
            t[T_WD] = self.budget + 1
        self._now = 0 if glitch else None
        self._advance(cores, t)
        return (fabric.snapshot(), tuple(cores), tuple(t))

    @staticmethod
    def _all_waiting(cores: Sequence[Core]) -> bool:
        return all(a == r + 1 for a, r, _ in cores)

    @staticmethod
    def _waiting_count(cores: Sequence[Core]) -> int:
        return sum(a == r + 1 for a, r, _ in cores)

    # -- timer fold + tick ------------------------------------------------ #
    def _advance(self, cores: List[Core], t: List[int]) -> None:
        if t[T_WD]:
            t[T_WD] -= 1
            if t[T_WD] == 0 and not t[T_Q] and self._waiting_count(cores):
                # Timer expiry (network dormant in every scenario that
                # reaches it): handle the fault instead of ticking, and
                # resume clocking next step -- the real retry schedules
                # its first tick one line-latency later.
                self._handle_fault(cores, t)
                self._end_of_step(cores, t, [])
                return
        if self.recovery and t[T_RST] == R_DEGRADED and t[T_PRT]:
            t[T_PRT] -= 1
            if t[T_PRT] == 0:
                self._probe(cores, t)
        if t[T_Q]:
            self._sw_tick(cores, t)
        else:
            self._network_tick(cores, t)

    def _sync_view(self, t: List[int]) -> None:
        """Point the injector's heal modes at this state's recovery
        registers."""
        self._view.state = _RECOVERY_STATE[t[T_RST]]
        self._view.degraded_episodes = t[T_DEG]

    def _network_tick(self, cores: List[Core], t: List[int]) -> None:
        fabric = self.fabric
        if not fabric.will_act():
            # Clock-gated: nothing can change until a bar_reg write.
            self._end_of_step(cores, t, [])
            return
        if self.injector is not None:
            self._sync_view(t)
        released = fabric.tick()
        fault = fabric.collect_fault()

        # Hardened release atomicity (the network's partial-release
        # guard): a legitimate pulse covers every waiting core in one
        # cycle; a shortfall fails the episode over as one cohort.
        if self.hardened and released \
                and len(released) != self._waiting_count(cores):
            self._failover(cores, t)
            self._end_of_step(cores, t, [])
            return
        # Probation shadow cross-check (``RecoveryController.release_ok``);
        # the planted ``shadow`` mutation skips it.
        if (self.recovery and t[T_RST] == R_PROBATION
                and not self.shadow_mutated and released
                and len(released) != self.num_cores):
            self._failover(cores, t)
            self._end_of_step(cores, t, [])
            return

        self._end_of_step(cores, t, released)
        if fault and self._waiting_count(cores):
            self._handle_fault(cores, t)

    def _sw_tick(self, cores: List[Core], t: List[int]) -> None:
        """Quarantined network: episodes complete over the software
        fallback barrier, which releases everyone once all have arrived
        (its own correctness is covered by the schedule-permutation
        tests in ``tests/sync``)."""
        released: List[int] = []
        if self._all_waiting(cores):
            released = list(range(self.num_cores))
        self._end_of_step(cores, t, released)

    # -- fault handling and recovery -------------------------------------- #
    def _handle_fault(self, cores: List[Core], t: List[int]) -> None:
        if self.recovery and t[T_RST] == R_PROBATION:
            # Zero tolerance during probation: any watchdog suspicion
            # re-degrades immediately, no retry burn-down (a flap).
            self._failover(cores, t)
            return
        if t[T_RET] < self.max_retries:
            t[T_RET] += 1
            self.fabric.reset_fsm()
            if self._all_waiting(cores):
                t[T_WD] = self.budget  # fires `budget` steps later
        else:
            self._failover(cores, t)

    def _failover(self, cores: List[Core], t: List[int]) -> None:
        """Quarantine: waiting cores bounce to the software fallback and
        stay logically waiting until the software episode completes.

        With recovery, quarantine is DEGRADED (probe pending) instead of
        terminal; a probation failover is a *flap*, and the flap/probe
        bounds retire the network permanently."""
        sc = self.scenario
        if self.recovery and t[T_RST] != R_RETIRED:
            if t[T_RST] == R_PROBATION:
                t[T_FLP] += 1
                if t[T_FLP] > sc.max_flaps:
                    raise PropertyViolation(
                        P_FLAP,
                        f"{t[T_FLP]} re-admission flaps exceed the "
                        f"max_flaps bound of {sc.max_flaps}")
                if t[T_FLP] >= sc.max_flaps:
                    t[T_RST] = R_RETIRED
                    t[T_PRT] = 0
                else:
                    t[T_RST] = R_DEGRADED
                    t[T_PRT] = sc.probe_backoff
                    t[T_PRF] = 0
            else:
                t[T_RST] = R_DEGRADED
                t[T_PRT] = sc.probe_backoff
                t[T_PRF] = 0
            t[T_PBL] = 0
            t[T_DEG] = 1
        t[T_Q] = 1
        t[T_WD] = 0
        t[T_RET] = 0
        self.fabric.reset_fsm()
        self.fabric.drain()

    def _probe(self, cores: List[Core], t: List[int]) -> None:
        """The probe timer expired: run the idle-cycle wire test.

        Passes exactly when the static fault is inactive (the real probe
        drives every line and checks level/count both ways; any live
        stuck-at or miscount trips it).  Re-admission waits for an
        episode boundary."""
        sc = self.scenario
        if self.injector is not None:
            self._sync_view(t)
        if self.injector is None or not self.injector.fault_active():
            if self._waiting_count(cores):
                t[T_PRT] = sc.probe_backoff
                return
            t[T_RST] = R_PROBATION
            t[T_PBL] = sc.probation_barriers
            t[T_PRF] = 0
            t[T_Q] = 0
            self.fabric.reset_fsm()
            return
        t[T_PRF] += 1
        if t[T_PRF] > sc.max_probes:
            raise PropertyViolation(
                P_RECOVERY,
                f"{t[T_PRF]} failed probes exceed the max_probes bound "
                f"of {sc.max_probes}")
        if t[T_PRF] >= sc.max_probes:
            t[T_RST] = R_RETIRED
        else:
            t[T_PRT] = sc.probe_backoff

    # -- release accounting / property checks ----------------------------- #
    def _end_of_step(self, cores: List[Core], t: List[int],
                     released: List[int]) -> None:
        min_arrived = min(a for a, _, _ in cores)
        for local in released:
            a, r, cd = cores[local]
            if r + 1 > a:
                raise PropertyViolation(
                    P_EXACTLY_ONCE,
                    f"core {local} delivered a release for episode "
                    f"{r + 1} it never arrived at")
            if min_arrived < r + 1:
                raise PropertyViolation(
                    P_SAFETY,
                    f"core {local} released from episode {r + 1} while "
                    f"other cores are still missing (min arrivals "
                    f"{min_arrived})")
            cores[local] = (a, r + 1, cd)

        # Cooldowns: a released core's re-arrival is visible no earlier
        # than two steps later (write latency), matching barreg timing.
        rel = set(released)
        for i, (a, r, cd) in enumerate(cores):
            now_cd = 1 if i in rel else 0
            if cd != now_cd:
                cores[i] = (a, r, now_cd)

        # Episode completion + the 4-cycle theorem.
        min_released = min(r for _, r, _ in cores)
        if min_released > t[T_EPS]:
            if self.check_four_cycle and not t[T_Q]:
                ticks = t[T_SA] + 1
                self.max_completion_ticks = max(
                    self.max_completion_ticks, ticks)
                if ticks > self.completion_bound:
                    raise PropertyViolation(
                        P_FOUR_CYCLE,
                        f"episode completed {ticks} ticks after the last "
                        f"arrival (bound {self.completion_bound})")
            if self.recovery and not t[T_Q] \
                    and t[T_RST] == R_PROBATION and t[T_PBL]:
                t[T_PBL] -= 1
                if t[T_PBL] == 0:
                    t[T_RST] = R_HEALTHY
            t[T_EPS] = min_released
            t[T_SA] = 0
            t[T_WD] = 0
            t[T_RET] = 0
        elif not t[T_Q]:
            k = t[T_EPS] + 1
            if k <= self.episodes and all(a >= k for a, _, _ in cores):
                ticks = min(t[T_SA] + 1, _SA_CAP)
                if self.check_four_cycle \
                        and ticks > self.completion_bound:
                    raise PropertyViolation(
                        P_FOUR_CYCLE,
                        f"all cores arrived {ticks} ticks ago and episode "
                        f"{k} has still not completed "
                        f"(bound {self.completion_bound})")
                t[T_SA] = ticks
            else:
                t[T_SA] = 0
        else:
            t[T_SA] = 0

        # Bounded recovery: while degraded (and not retired) a probe is
        # always pending, so re-admission or retirement happens within
        # max_probes * probe_backoff ticks of any failover.
        if self.recovery and t[T_RST] == R_DEGRADED and t[T_PRT] == 0:
            raise PropertyViolation(
                P_RECOVERY,
                "network degraded with no probe pending: recovery would "
                "never complete")
