"""The four G-line controller finite-state automata of Figure 4.

Each controller is clocked in two sub-phases per cycle by the barrier
network: ``assert_phase`` (drive G-lines based on state at the start of the
cycle) and ``sample_phase`` (observe the lines at the end of the cycle and
update registers/state).  This two-phase discipline models the paper's
single-cycle G-line propagation: a signal asserted in cycle *t* is observed
by every receiver at the end of cycle *t*.

Controller placement on an R x C mesh (Figure 1):

* ``SlaveH``  -- every core in columns 1..C-1 (signals row arrival).
* ``MasterH`` -- every core in column 0 (counts its row; relays release).
* ``SlaveV``  -- cores (r, 0) for r >= 1 (signal row completion upward).
* ``MasterV`` -- core (0, 0) (counts rows; initiates release).

Register vocabulary follows the paper: ``Scnt`` (S-CSMA accumulated count
of slave signals), ``Mcnt`` (own core arrived), ``flag`` (row/chip
complete), plus ``release_trigger`` which models the intra-core
master/slave flag hand-off used during the release stage.
"""

from __future__ import annotations

from typing import Any, Callable

from .gline import GLine


class BarRegFile:
    """The per-core ``bar_reg`` registers plus resume plumbing.

    Programmers write ``bar_reg`` (a value > 0) to announce arrival and spin
    until the hardware clears it (Figure 3).  In the simulator the "spin" is
    the core sleeping on a resume callback -- architecturally identical
    because a core spinning on its own register generates no external
    activity.
    """

    def __init__(self, num_cores: int):
        self.values = [0] * num_cores
        self._resume = [None] * num_cores

    def write(self, core_id: int, resume) -> None:
        self.values[core_id] = 1
        self._resume[core_id] = resume

    def is_set(self, core_id: int) -> bool:
        return self.values[core_id] != 0

    def clear(self, core_id: int):
        """Hardware reset of bar_reg; returns the resume callback."""
        self.values[core_id] = 0
        resume, self._resume[core_id] = self._resume[core_id], None
        return resume


class SlaveH:
    """Horizontal slave: signals its core's arrival on the row TX line."""

    def __init__(self, core_id: int, tx: GLine, rx: GLine):
        self.core_id = core_id
        self.tx = tx      # SglineH: slave -> master
        self.rx = rx      # MglineH: master -> slave (release)
        self.tx.attach(f"ShT{core_id}")
        self.signaling = True   # True: Signaling state; False: Waiting

    def assert_phase(self, bar_regs: BarRegFile) -> None:
        if self.signaling and bar_regs.is_set(self.core_id):
            self.tx.assert_signal(f"ShT{self.core_id}")
            self.signaling = False

    def sample_phase(self, bar_regs: BarRegFile, released: list) -> None:
        if not self.signaling and self.rx.sampled_on():
            # Release stage: hardware clears bar_reg; core resumes.
            self.signaling = True
            released.append(bar_regs.clear(self.core_id))

    @property
    def idle(self) -> bool:
        return self.signaling

    def will_act(self, bar_regs: BarRegFile) -> bool:
        """True if this controller will drive a line next cycle."""
        return self.signaling and bar_regs.is_set(self.core_id)


class MasterH:
    """Horizontal master: counts its row's arrivals, relays the release."""

    def __init__(self, core_id: int, row: int, rx: GLine | None,
                 tx: GLine | None, num_slaves: int):
        self.core_id = core_id
        self.row = row
        self.rx = rx      # SglineH: receives slave signals (None if C == 1)
        self.tx = tx      # MglineH: drives the release (None if C == 1)
        self.num_slaves = num_slaves
        if tx is not None:
            tx.attach(f"MhT{core_id}")
        self.scnt = 0
        self.mcnt = 0
        self.flag = False
        #: Set by the vertical controller hand-off (or by own flag when the
        #: mesh has a single row): release the row next cycle.
        self.release_trigger = False
        #: Hook installed by the fabric wiring: called when this master
        #: performs its release, so co-located vertical state can reset.
        self.on_release: Callable[[], None] | None = None
        #: Hardened mode (repro.faults): keep sampling after ``flag`` so a
        #: faulty wire that keeps counting is caught as an overshoot.
        self.hardened = False
        self.fault_suspected = False
        #: True iff this master drove its release line this cycle -- lets
        #: the network's guard spot a release-line level nobody drove.
        self.drove_release = False

    def assert_phase(self, bar_regs: BarRegFile, released: list) -> None:
        self.drove_release = False
        if self.release_trigger:
            if self.tx is not None:
                self.tx.assert_signal(f"MhT{self.core_id}")
                self.drove_release = True
            # Reset all registers (release stage, Figure 4 left-pointing
            # transitions) and clear the local core's bar_reg.
            self.scnt = 0
            self.mcnt = 0
            self.flag = False
            self.release_trigger = False
            released.append(bar_regs.clear(self.core_id))
            if self.on_release is not None:
                self.on_release()

    def sample_phase(self, bar_regs: BarRegFile) -> None:
        if self.flag:
            if self.hardened and self.rx is not None:
                # Keep the S-CSMA sense alive after row completion: in a
                # fault-free episode no slave signals again before the
                # release, so any extra count means a lying wire.
                self.scnt += self.rx.sample_count()
                if self.scnt > self.num_slaves:
                    self.fault_suspected = True
            return
        if self.rx is not None:
            self.scnt += self.rx.sample_count()
        if bar_regs.is_set(self.core_id):
            self.mcnt = 1
        if self.hardened and self.scnt > self.num_slaves:
            self.fault_suspected = True
            return
        if self.mcnt == 1 and self.scnt == self.num_slaves:
            self.flag = True

    @property
    def idle(self) -> bool:
        return (self.scnt == 0 and self.mcnt == 0 and not self.flag
                and not self.release_trigger)

    def will_act(self, bar_regs: BarRegFile) -> bool:
        """True if registers can change or a line will be driven next cycle
        without any further external event (bar_reg write)."""
        if self.release_trigger:
            return True
        return self.mcnt == 0 and bar_regs.is_set(self.core_id)


class SlaveV:
    """Vertical slave (column 0, rows >= 1): reports row completion."""

    def __init__(self, core_id: int, row: int, tx: GLine, rx: GLine,
                 master_h: MasterH):
        self.core_id = core_id
        self.row = row
        self.tx = tx      # SglineV: slave -> vertical master
        self.rx = rx      # MglineV: vertical master -> slave (release)
        self.master_h = master_h
        self.tx.attach(f"SvT{core_id}")
        self.sent = False

    def assert_phase(self) -> None:
        if not self.sent and self.master_h.flag:
            self.tx.assert_signal(f"SvT{self.core_id}")
            self.sent = True

    def sample_phase(self) -> None:
        if self.sent and self.rx.sampled_on():
            # Hand the release to the co-located horizontal master, which
            # will drive its row's release line next cycle.
            self.master_h.release_trigger = True

    def reset(self) -> None:
        self.sent = False

    @property
    def idle(self) -> bool:
        return not self.sent

    def will_act(self) -> bool:
        return not self.sent and self.master_h.flag


class MasterV:
    """Vertical master (core (0,0)): counts rows, initiates the release."""

    def __init__(self, core_id: int, rx: GLine, tx: GLine,
                 master_h0: MasterH, num_slaves: int):
        self.core_id = core_id
        self.rx = rx      # SglineV
        self.tx = tx      # MglineV
        self.master_h0 = master_h0
        self.num_slaves = num_slaves
        self.tx.attach(f"MvT{core_id}")
        self.scnt = 0
        self.mcnt = 0
        self.done = False
        #: Hierarchical extension hook: when set, reaching ``done`` reports
        #: upward instead of starting the release; the release begins when
        #: ``gate_open`` is switched on by the upper level.
        self.gate: Any = None
        #: Hardened mode (repro.faults): one extra count-stability cycle
        #: before committing to the chip-wide release, plus overshoot
        #: detection -- a stuck-at-1 SglineV keeps counting and is caught
        #: during validation instead of releasing the chip early.
        self.hardened = False
        self.fault_suspected = False
        self.validating = False
        self.drove_release = False

    def _gate_allows_release(self) -> bool:
        return self.gate is None or self.gate.is_open

    def assert_phase(self) -> None:
        self.drove_release = False
        if self.done and self._gate_allows_release():
            # Release stage start (cycle 2 of the ideal timeline): drive the
            # vertical release line and hand the trigger to the co-located
            # row-0 horizontal master; reset own counters.
            self.tx.assert_signal(f"MvT{self.core_id}")
            self.drove_release = True
            self.master_h0.release_trigger = True
            self.scnt = 0
            self.mcnt = 0
            self.done = False

    def sample_phase(self) -> None:
        self.scnt += self.rx.sample_count()
        if self.master_h0.flag:
            self.mcnt = 1
        if self.hardened and self.scnt > self.num_slaves:
            self.fault_suspected = True
            self.validating = False
            return
        if not self.done and self.mcnt == 1 and self.scnt == self.num_slaves:
            if self.hardened and not self.validating:
                self.validating = True
                return
            self.validating = False
            self.done = True
            if self.gate is not None:
                self.gate.on_gathered()

    @property
    def idle(self) -> bool:
        return self.scnt == 0 and self.mcnt == 0 and not self.done

    def will_act(self) -> bool:
        if self.done:
            return self._gate_allows_release()
        if self.validating:
            return True
        return self.mcnt == 0 and self.master_h0.flag
