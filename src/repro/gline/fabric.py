"""Engine-free G-line barrier fabric: the Figure-4 controllers on wires.

:class:`BarrierFabric` owns everything one network cycle touches -- the
row and column G-line pairs, the per-core ``bar_reg`` bits and the four
controller FSMs of :mod:`repro.gline.controllers` -- and no engine and
no clock.  Callers call :meth:`BarrierFabric.tick` whenever one network
cycle elapses: the engine-backed
:class:`~repro.gline.network.GLineBarrierNetwork` (which adds bar_reg
write latency, clock gating, the watchdog, failover and recovery) and
the model checker in :mod:`repro.verify.model` (which enumerates arrival
interleavings over :meth:`~BarrierFabric.snapshot` /
:meth:`~BarrierFabric.restore`) run this one copy of the protocol.

Wiring for an R x C mesh (Figure 1): every row gets a TX G-line (slaves ->
master) and a release G-line (master -> slaves); the first column gets a
vertical TX/release pair.  Total wires: ``2*rows + 2`` (the paper's
``2 * (sqrt(N) + 1)`` for square meshes), degenerating gracefully for
single-row or single-column meshes.

One tick = assert phase (MasterH, SlaveH, SlaveV, MasterV last), the
fault-perturbation hook, the hardened release-line guard, the sample
phase (MasterV first, then MasterH, SlaveV, SlaveH), fault collection,
the degenerate single-row release, then the per-cycle wire reset.

A core's release token is its *local index*, so
:meth:`~BarrierFabric.tick` returns the released locals and callers map
them to whatever they resume; a snapshot is a plain tuple.
"""

from __future__ import annotations

from typing import Any, Callable

from .controllers import BarRegFile, MasterH, MasterV, SlaveH, SlaveV
from .gline import GLine

#: A :meth:`BarrierFabric.snapshot`: nested tuples of registers.
Snapshot = tuple[Any, ...]


class _LocalBarRegs(BarRegFile):
    """bar_regs whose release token is the core's local index, so the
    register bits are the file's whole state."""

    def clear(self, core_id: int) -> int | None:
        was_set = self.values[core_id]
        self.values[core_id] = 0
        return core_id if was_set else None


class ReleaseGate:
    """Decouples gather-complete from release-start (hierarchical mode).

    When installed on a network, reaching the all-arrived state reports
    upward via *on_gathered* instead of starting the release; the upper
    level later opens the gate to let the release proceed.  The report is
    idempotent per episode (``reported``) so a watchdog-retried gather
    does not double-arrive at the upper level.
    """

    def __init__(self, on_gathered: Callable[[], None]) -> None:
        self.is_open = False
        self.reported = False
        self._on_gathered = on_gathered

    def on_gathered(self) -> None:
        if self.reported:
            return
        self.reported = True
        self._on_gathered()


class BarrierFabric:
    """One flat R x C G-line barrier fabric (engine-free)."""

    def __init__(self, rows: int, cols: int, max_transmitters: int,
                 name: str = "glnet", hardened: bool = False) -> None:
        self.rows = rows
        self.cols = cols
        self.name = name
        self.num_cores = rows * cols
        #: Hardened mode: release-line guard, overshoot detection and the
        #: count-stability validation cycle (see repro.faults).
        self.hardened = hardened
        self.bar_regs = _LocalBarRegs(self.num_cores)

        # ---- wiring (Figure 1) --------------------------------------- #
        self.lines: list[GLine] = []
        self.row_tx: list[GLine | None] = []
        self.row_rel: list[GLine | None] = []
        for r in range(rows):
            if cols > 1:
                tx = GLine(f"{name}.SglineH{r}", max_transmitters)
                rel = GLine(f"{name}.MglineH{r}", max_transmitters)
                self.lines += [tx, rel]
                self.row_tx.append(tx)
                self.row_rel.append(rel)
            else:
                self.row_tx.append(None)
                self.row_rel.append(None)
        self.col_tx: GLine | None = None
        self.col_rel: GLine | None = None
        if rows > 1:
            self.col_tx = GLine(f"{name}.SglineV", max_transmitters)
            self.col_rel = GLine(f"{name}.MglineV", max_transmitters)
            self.lines += [self.col_tx, self.col_rel]

        # ---- controllers --------------------------------------------- #
        self.masters_h: list[MasterH] = []
        self.slaves_h: list[SlaveH] = []
        self.slaves_v: list[SlaveV] = []
        for r in range(rows):
            mh = MasterH(core_id=r * cols, row=r, rx=self.row_tx[r],
                         tx=self.row_rel[r], num_slaves=cols - 1)
            mh.hardened = hardened
            self.masters_h.append(mh)
            for c in range(1, cols):
                self.slaves_h.append(SlaveH(core_id=r * cols + c,
                                            tx=self.row_tx[r],
                                            rx=self.row_rel[r]))
        self.master_v: MasterV | None = None
        if rows > 1:
            for r in range(1, rows):
                sv = SlaveV(core_id=r * cols, row=r, tx=self.col_tx,
                            rx=self.col_rel, master_h=self.masters_h[r])
                self.slaves_v.append(sv)
                self.masters_h[r].on_release = sv.reset
            self.master_v = MasterV(core_id=0, rx=self.col_tx,
                                    tx=self.col_rel,
                                    master_h0=self.masters_h[0],
                                    num_slaves=rows - 1)
            self.master_v.hardened = hardened
            self.masters_h[0].on_release = self._reset_master_v

        # ---- hooks --------------------------------------------------- #
        #: Called between assert and sample with (lines,) -- the network
        #: points this at ``injector.perturb_glines``.
        self.perturb_hook: Callable[[list[GLine]], None] | None = None
        #: Called post-sample / pre-reset with (lines,) -- the network
        #: hangs wire tracing here.
        self.wire_probe: Callable[[list[GLine]], None] | None = None
        #: Wire assertions driven in the last tick (energy accounting).
        self.toggles = 0
        #: Called once per spurious release level the guard masks.
        self.on_spurious: Callable[[], None] | None = None
        #: Release gate (hierarchical extension); see :meth:`set_gate`.
        self.gate: ReleaseGate | None = None

        self._row_validated = False
        self._spurious_release = False
        self._fault = False

    def _reset_master_v(self) -> None:
        mv = self.master_v
        assert mv is not None
        mv.scnt = 0
        mv.mcnt = 0
        mv.done = False

    def set_gate(self, gate: ReleaseGate | None) -> None:
        """Defer the release stage behind *gate* (hierarchical mode)."""
        self.gate = gate
        if self.master_v is not None:
            self.master_v.gate = gate

    # ------------------------------------------------------------------ #
    # Arrival interface
    # ------------------------------------------------------------------ #
    def arrive_local(self, local: int) -> None:
        """Core *local*'s bar_reg write becomes visible."""
        self.bar_regs.values[local] = 1

    def drain(self) -> list[int]:
        """Clear every set bar_reg (failover); returns those locals."""
        values = self.bar_regs.values
        waiting = [local for local, bit in enumerate(values) if bit]
        for local in waiting:
            values[local] = 0
        return waiting

    # ------------------------------------------------------------------ #
    # The clock
    # ------------------------------------------------------------------ #
    def tick(self) -> list[int]:
        """Advance one network cycle; returns the locals released."""
        released: list[int] = []
        bar_regs = self.bar_regs

        # Assert phase: drive G-lines from start-of-cycle state.  MasterV
        # runs last so the release trigger it hands to the co-located row-0
        # MasterH is consumed in the *next* cycle, matching the one-cycle
        # hand-off of the SlaveV path (release-column then release-row,
        # Figure 2 cycles 2 and 3).
        for mh in self.masters_h:
            mh.assert_phase(bar_regs, released)
        for sh in self.slaves_h:
            sh.assert_phase(bar_regs)
        for sv in self.slaves_v:
            sv.assert_phase()
        if self.master_v is not None:
            self.master_v.assert_phase()

        # Wire faults land between the assert and sample sub-phases: the
        # drivers committed their levels, the fault corrupts what the
        # receivers will see.
        if self.perturb_hook is not None:
            self.perturb_hook(self.lines)
        if self.hardened:
            self._guard_release_lines()

        # Sample phase: observe lines at end of cycle, update registers.
        # MasterV samples first so the co-located MasterH flag it reads is
        # the one latched at the *end of the previous cycle* -- the
        # intra-core register hand-off costs a cycle boundary, exactly as
        # in the paper's Figure 2 (Mv sets Mcnt in cycle 1 from the flag
        # MasterH set in cycle 0).
        if self.master_v is not None:
            self.master_v.sample_phase()
        for mh in self.masters_h:
            mh.sample_phase(bar_regs)
        for sv in self.slaves_v:
            sv.sample_phase()
        for sh in self.slaves_h:
            sh.sample_phase(bar_regs, released)
        fault = self._fault = self.hardened and self._fault_detected()
        if not fault and self.rows == 1 and self.masters_h[0].flag \
                and not self.masters_h[0].release_trigger:
            # Degenerate single-row mesh: the horizontal master releases
            # directly (no vertical stage) -- unless gated by an upper
            # hierarchy level.  Hardened networks hold the release one
            # extra cycle (count-stability validation, mirroring MasterV).
            if self.gate is None or self.gate.is_open:
                if self.hardened and not self._row_validated:
                    self._row_validated = True
                else:
                    self.masters_h[0].release_trigger = True
                    self._row_validated = False
            else:
                self.gate.on_gathered()

        if self.wire_probe is not None:
            self.wire_probe(self.lines)
        toggles = 0
        for line in self.lines:
            toggles += len(line._asserting)
            line.end_cycle()
        self.toggles = toggles
        return released

    def will_act(self) -> bool:
        """True if any controller will drive a line or change registers next
        cycle without a further bar_reg write."""
        bar_regs = self.bar_regs
        for mh in self.masters_h:
            if mh.will_act(bar_regs):
                return True
        for sh in self.slaves_h:
            if sh.will_act(bar_regs):
                return True
        for sv in self.slaves_v:
            if sv.will_act():
                return True
        if self.master_v is not None and self.master_v.will_act():
            return True
        if (self.hardened and self.rows == 1 and self.masters_h[0].flag
                and not self.masters_h[0].release_trigger
                and (self.gate is None or self.gate.is_open)):
            # Single-row validation cycle pending: keep the clock running.
            return True
        return False

    # ------------------------------------------------------------------ #
    # Fault detection (hardened mode)
    # ------------------------------------------------------------------ #
    def _guard_release_lines(self) -> None:
        """Mask release-line levels that no master drove this cycle.

        A release line has exactly one legitimate transmitter, so a level
        the master did not drive is wire damage about to release cores
        early -- permanently skewing barrier episodes.  The guard forces
        the apparent level low before the slaves sample it and flags the
        episode for the fault handler."""
        spurious = False
        for r, rel in enumerate(self.row_rel):
            if rel is not None and rel.sampled_on() \
                    and not self.masters_h[r].drove_release:
                rel.glitch_force = 0
                spurious = True
        if self.col_rel is not None and self.col_rel.sampled_on() \
                and not (self.master_v is not None
                         and self.master_v.drove_release):
            self.col_rel.glitch_force = 0
            spurious = True
        if spurious:
            self._spurious_release = True
            if self.on_spurious is not None:
                self.on_spurious()

    def _fault_detected(self) -> bool:
        """Collect (and clear) this cycle's fault suspicions."""
        found = self._spurious_release
        self._spurious_release = False
        for mh in self.masters_h:
            found |= mh.fault_suspected
            mh.fault_suspected = False
        if self.master_v is not None:
            found |= self.master_v.fault_suspected
            self.master_v.fault_suspected = False
        return found

    def collect_fault(self) -> bool:
        """Read-and-clear the last tick's fault verdict (hardened only)."""
        fault, self._fault = self._fault, False
        return fault

    # ------------------------------------------------------------------ #
    # Episode control
    # ------------------------------------------------------------------ #
    def reset_fsm(self) -> None:
        """Return every controller to its gather-start state (bar_regs and
        permanent wire damage are preserved)."""
        for mh in self.masters_h:
            mh.scnt = 0
            mh.mcnt = 0
            mh.flag = False
            mh.release_trigger = False
            mh.fault_suspected = False
        for sh in self.slaves_h:
            sh.signaling = True
        for sv in self.slaves_v:
            sv.sent = False
        if self.master_v is not None:
            self._reset_master_v()
            self.master_v.validating = False
            self.master_v.fault_suspected = False
        self._row_validated = False
        self._spurious_release = False
        for line in self.lines:
            line.end_cycle()

    @property
    def idle(self) -> bool:
        """All controllers in their initial state and no bar_reg set."""
        return (not any(self.bar_regs.values)
                and all(mh.idle for mh in self.masters_h)
                and all(sh.idle for sh in self.slaves_h)
                and all(sv.idle for sv in self.slaves_v)
                and (self.master_v is None or self.master_v.idle))

    # ------------------------------------------------------------------ #
    # Model-checker support
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Snapshot:
        """The fabric's state between ticks as a nested plain tuple.

        Grouped by mesh row so symmetric rows and slaves compare as
        whole bundles: ``(rows, master_v, row_validated, col_stuck)``
        where each row is ``(master_h, slave_v_sent, slaves,
        row_stuck)``; every core entry carries its bar_reg bit.  Per-cycle
        scratch (wire assertions, transient overrides, fault flags) is
        empty between ticks once :meth:`collect_fault` ran, so it is not
        part of the state."""
        regs = self.bar_regs.values
        cols = self.cols
        nsh = cols - 1
        slaves = self.slaves_h
        rows: list[Snapshot] = []
        for r, mh in enumerate(self.masters_h):
            base = r * cols
            tx = self.row_tx[r]
            rel = self.row_rel[r]
            rows.append((
                (mh.scnt, mh.mcnt, mh.flag, mh.release_trigger,
                 regs[base]),
                self.slaves_v[r - 1].sent if r else None,
                tuple((sh.signaling, regs[base + 1 + i]) for i, sh
                      in enumerate(slaves[r * nsh:(r + 1) * nsh])),
                None if tx is None or rel is None
                else (tx.stuck, rel.stuck)))
        mv = self.master_v
        col: Snapshot | None = None
        if self.col_tx is not None and self.col_rel is not None:
            col = (self.col_tx.stuck, self.col_rel.stuck)
        return (tuple(rows),
                None if mv is None
                else (mv.scnt, mv.mcnt, mv.done, mv.validating),
                self._row_validated, col)

    def restore(self, snap: Snapshot) -> None:
        """Load a :meth:`snapshot` (per-cycle scratch comes back empty)."""
        rows, mv_regs, row_validated, col = snap
        regs = self.bar_regs.values
        cols = self.cols
        nsh = cols - 1
        for r, (mh_regs, sv_sent, slave_regs, wires) in enumerate(rows):
            base = r * cols
            mh = self.masters_h[r]
            (mh.scnt, mh.mcnt, mh.flag, mh.release_trigger,
             regs[base]) = mh_regs
            mh.fault_suspected = False
            mh.drove_release = False
            if r:
                self.slaves_v[r - 1].sent = sv_sent
            for i, (signaling, bit) in enumerate(slave_regs):
                self.slaves_h[r * nsh + i].signaling = signaling
                regs[base + 1 + i] = bit
            tx, rel = self.row_tx[r], self.row_rel[r]
            if tx is not None and rel is not None:
                tx.stuck, rel.stuck = wires
        mv = self.master_v
        if mv is not None:
            mv.scnt, mv.mcnt, mv.done, mv.validating = mv_regs
            mv.fault_suspected = False
            mv.drove_release = False
        if self.col_tx is not None and self.col_rel is not None:
            self.col_tx.stuck, self.col_rel.stuck = col
        self._row_validated = row_validated
        self._spurious_release = False
        self._fault = False
        for line in self.lines:
            line.end_cycle()
