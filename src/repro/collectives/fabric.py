"""Engine-free collective fabric: stages composed over G-line wires.

The flat fabric mirrors the barrier network's physical layout -- one
horizontal wire pair per mesh row plus one vertical pair along the first
column -- but runs the bit-serial reduction protocol of
:mod:`repro.collectives.controllers` instead of a single arrival count:

* each **row stage** reduces the row's operands (kind *k*),
* the **column stage** reduces the per-row partials with
  ``COMBINE_KIND[k]``,
* the global result is **broadcast** back down the column, then along
  every row, and each core is *delivered* exactly once when its row's
  broadcast completes.

The class owns no engine and no clock: callers (the engine-backed
:class:`~repro.collectives.network.CollectiveNetwork`, the verify-layer
model, unit tests) call :meth:`tick` whenever one network cycle elapses.
One tick = assert phase, fault-perturbation hook, release-line guard,
sample phase, then orchestration (pure state hand-offs between stages).

A *stage* is one wire pair with its master and slaves -- a mesh row, or
the column.  Like a gated G-line, a tick clocks only the **active**
stages: those with a controller that acts on its own next tick, or with
a forced wire (stuck, glitched or miscounted -- a fault reaches the
controllers whether or not anyone drove the wire).  Every other stage
is provably a no-op that tick: nobody drives its wires, and its waiting
controllers see silence.  Orchestration likewise looks only at the
stages that changed.

``hold_result=True`` turns the fabric into a *cluster* for the
hierarchical variant: instead of broadcasting, the global value is
parked and reported through ``on_reduced``; the upper level later calls
:meth:`open_with` to inject the chip-wide result into the local
broadcast (skipping local core 0, which the upper level delivers
itself).
"""

from __future__ import annotations

from typing import Callable

from ..common.errors import ConfigError, GLineError
from ..gline.gline import GLine
from ..gline.integrity import INTEGRITY_MODES
from . import ops
from .controllers import (
    M_ACTING, M_BC_DONE, M_DONE, S_ACTING, S_DONE, MUTATIONS, StageMaster,
    StageSlave,
)

#: Hand-off states: a stage whose controller sits in one of these holds
#: a result for the fabric to pass on (or waits for one).
_M_BUSY = M_ACTING | {M_DONE, M_BC_DONE}
_S_BUSY = S_ACTING | {S_DONE}


class _Stage:
    """One wire pair (``tx`` up, ``rel`` down) with the master and
    slaves that share it: a mesh row, or the first column."""

    __slots__ = ("master", "slaves", "tids", "lines", "int_seen")

    def __init__(self, master: StageMaster, slaves: list[StageSlave],
                 tids: list[str], lines: tuple[GLine, ...]) -> None:
        self.master = master
        self.slaves = slaves
        self.tids = tids
        self.lines = lines
        #: The master's (faults, retries, corrected) integrity counters
        #: at the previous collect_integrity().
        self.int_seen = (0, 0, 0)

    def acting(self) -> bool:
        """Does a controller change state next tick by itself?"""
        if self.master.state in M_ACTING:
            return True
        for s in self.slaves:
            if s.state in S_ACTING:
                return True
        return False

    def busy(self) -> bool:
        """Acting, or holding a result for the fabric's hand-offs."""
        if self.master.state in _M_BUSY:
            return True
        for s in self.slaves:
            if s.state in _S_BUSY:
                return True
        return False


class CollectiveFabric:
    """One flat R x C collective reduction fabric (engine-free)."""

    def __init__(self, rows: int, cols: int, value_width: int,
                 max_transmitters: int, name: str = "coll",
                 hold_result: bool = False,
                 mutation: str | None = None,
                 integrity: str = "off",
                 integrity_budget: int = 3) -> None:
        if rows < 1 or cols < 1:
            raise ConfigError("collective fabric needs a >=1x1 mesh")
        if cols - 1 > max_transmitters or rows - 1 > max_transmitters:
            raise ConfigError(
                f"{rows}x{cols} mesh exceeds the S-CSMA fan-in limit of "
                f"{max_transmitters} transmitters per line")
        if mutation is not None and mutation not in MUTATIONS:
            raise ConfigError(f"unknown mutation {mutation!r}; "
                              f"expected one of {sorted(MUTATIONS)}")
        if integrity not in INTEGRITY_MODES:
            raise ConfigError(f"unknown integrity mode {integrity!r}; "
                              f"expected one of {INTEGRITY_MODES}")
        self.rows = rows
        self.cols = cols
        self.value_width = value_width
        self.name = name
        self.hold_result = hold_result
        self.mutation = mutation
        self.integrity = integrity
        self.integrity_budget = integrity_budget
        self.num_cores = rows * cols

        # ---- wiring (mirrors the barrier network's budget) ----------- #
        self.lines: list[GLine] = []

        def _line(suffix: str) -> GLine:
            gl = GLine(f"{name}.{suffix}", max_transmitters)
            self.lines.append(gl)
            return gl

        # Mutation placement: one deliberately buggy controller, sited
        # where the bug is expressible on this mesh (verify picks meshes
        # accordingly).
        m_master = mutation if mutation in ("master-skip-own",
                                            "skip-echo-compare") else None
        m_bcast = mutation if mutation == "bcast-drop-msb" else None
        m_slave = mutation if mutation == "slave-double-pulse" else None

        self.rmasters: list[StageMaster] = []
        self.rslaves: list[list[StageSlave]] = []
        #: Rows 0..rows-1, then the column (index ``rows``) if rows > 1.
        self._stages: list[_Stage] = []
        for r in range(rows):
            if cols > 1:
                tx: GLine | None = _line(f"txH{r}")
                rel: GLine | None = _line(f"relH{r}")
            else:
                tx = rel = None
            mut = m_master if r == 0 else None
            if r == 0 and m_bcast is not None and cols > 1:
                mut = m_bcast
            master = StageMaster(tx, rel, f"{name}.m{r}", mutation=mut)
            row_s: list[StageSlave] = []
            row_t: list[str] = []
            for c in range(1, cols):
                tid = f"{name}.s{r}_{c}"
                smut = m_slave if (r == 0 and c == 1) else None
                assert tx is not None and rel is not None
                row_s.append(StageSlave(tx, rel, tid, mutation=smut))
                row_t.append(tid)
            self.rmasters.append(master)
            self.rslaves.append(row_s)
            self._stages.append(_Stage(
                master, row_s, row_t,
                (tx, rel) if tx is not None and rel is not None else ()))

        self.colmaster: StageMaster | None = None
        self.colslaves: list[StageSlave] = []
        if rows > 1:
            txv = _line("txV")
            relv = _line("relV")
            cmut = m_bcast if (m_bcast is not None and cols == 1) else None
            self.colmaster = StageMaster(txv, relv, f"{name}.cm",
                                         mutation=cmut)
            col_t: list[str] = []
            for r in range(1, rows):
                tid = f"{name}.cs{r}"
                smut = m_slave if (cols == 1 and r == 1) else None
                self.colslaves.append(
                    StageSlave(txv, relv, tid, mutation=smut))
                col_t.append(tid)
            self._stages.append(_Stage(self.colmaster, self.colslaves,
                                       col_t, (txv, relv)))
        #: Every wire with the index of the stage it belongs to.
        self._wired = [(gl, i) for i, st in enumerate(self._stages)
                       for gl in st.lines]

        # ---- hooks --------------------------------------------------- #
        #: Called between assert and sample with (lines,) -- the network
        #: points this at ``injector.perturb_glines``.
        self.perturb_hook: Callable[[list[GLine]], None] | None = None
        #: Hardened mode: mask + flag spurious release-line levels.
        self.guard = False
        #: Called post-sample / pre-end_cycle with the clocked stages'
        #: lines (the others are idle) -- the network hangs wire tracing
        #: and toggle accounting here.
        self.wire_probe: Callable[[list[GLine]], None] | None = None
        #: Cluster mode: called once with the stage-global result.
        self.on_reduced: Callable[[int], None] | None = None

        # ---- episode state ------------------------------------------- #
        self.kind: str | None = None
        self._row_fed = [False] * rows
        self._col_done = False
        self._global_ready = False
        self.result: int | None = None
        self._bc_started = False
        self._skip_root = False
        self._delivered = [False] * self.num_cores
        self._row_w = 1       # row stage result width
        self._bw = 1          # broadcast framing width
        #: Stages the next tick visits: a controller acts, or a mutator
        #: left a hand-off for _orchestrate.  Empty = nothing to do.
        self._live: set[int] = set()
        #: Masters clocked last tick: their drove_rel falls back to
        #: False next tick, clocked or not.
        self._drove: list[StageMaster] = []
        # collect_integrity() bookkeeping (network-side only; deliberately
        # not part of snapshot()): stages clocked since the last collect,
        # and the episode's exhaustion level.
        self._int_moved: set[int] = set()
        self._int_exhausted = False

    # ------------------------------------------------------------------ #
    # episode control
    # ------------------------------------------------------------------ #
    def begin(self, kind: str, bcast_width: int | None = None) -> None:
        """Configure every controller for one *kind* episode.

        *bcast_width* overrides the broadcast framing width -- the
        hierarchical variant passes the chip-global result width, which
        can exceed this cluster's own.
        """
        ops.check_kind(kind)
        if self.kind is not None:
            raise GLineError(
                f"{self.name}: begin({kind!r}) during an open "
                f"{self.kind!r} episode")
        self.kind = kind
        w = self.value_width
        mech = ops.MECHANISM[kind]
        in_w = ops.stage_in_width(kind, w)
        strong = 0 if kind == "min" else 1
        self._row_w = ops.stage_result_width(kind, in_w, self.cols)
        k2 = ops.COMBINE_KIND[kind]
        bw = bcast_width if bcast_width is not None \
            else ops.result_width(kind, w, self.rows, self.cols)
        self._bw = bw
        fin_row = (kind if kind in ("any", "all") else None, self.cols)
        # Broadcast stages carry no counted rounds (release-line levels
        # are immune to S-CSMA miscounts), so integrity adds nothing.
        integ = self.integrity if mech != "bcast" else "off"
        for r in range(self.rows):
            self.rmasters[r].configure(mech, in_w, strong, bw, fin_row,
                                       self.cols - 1, integ,
                                       self.integrity_budget)
            for s in self.rslaves[r]:
                s.configure(mech, in_w, strong, bw, integ)
        if self.colmaster is not None:
            mech2 = ops.MECHANISM[k2]
            in_w2 = ops.stage_in_width(k2, self._row_w)
            strong2 = 0 if k2 == "min" else 1
            fin_col = (k2 if k2 in ("any", "all") else None, self.rows)
            integ2 = self.integrity if mech2 != "bcast" else "off"
            self.colmaster.configure(mech2, in_w2, strong2, bw, fin_col,
                                     self.rows - 1, integ2,
                                     self.integrity_budget)
            for s in self.colslaves:
                s.configure(mech2, in_w2, strong2, bw, integ2)

    def arrive_local(self, local: int, value: int) -> None:
        """Present core *local*'s operand to its row stage."""
        if self.kind is None:
            raise GLineError(f"{self.name}: arrive_local before begin()")
        if not 0 <= local < self.num_cores:
            raise ConfigError(f"{self.name}: local id {local} out of "
                              f"range for {self.rows}x{self.cols}")
        contrib = ops.stage_contrib(self.kind, value, self.value_width)
        r, c = divmod(local, self.cols)
        if c == 0:
            m = self.rmasters[r]
            before = m.state
            m.set_own(contrib)
            if m.state == before:
                return  # still gathering: nothing for the next tick
        else:
            self.rslaves[r][c - 1].set_input(contrib)
        # The controller now acts (pulses, starts rounds) or holds a
        # finished stage result for _orchestrate.
        self._live.add(r)

    def open_with(self, value: int) -> None:
        """Cluster hand-off: broadcast the chip-global *value* locally.

        Local core 0 (the cluster root) is *not* delivered -- the upper
        level that produced *value* resumes it directly.
        """
        if not self.hold_result or not self._global_ready:
            raise GLineError(
                f"{self.name}: open_with() without a parked result")
        self._skip_root = True
        self._start_broadcast(value)

    def reset_episode(self, keep_operands: bool = True) -> None:
        """Watchdog retry: restart the episode's wire protocol.

        With *keep_operands* the already-latched row inputs re-signal;
        column-stage state is always rebuilt from the rows.
        """
        for r in range(self.rows):
            if keep_operands:
                self.rmasters[r].resignal()
                for s in self.rslaves[r]:
                    s.resignal()
            else:
                self.rmasters[r].reset()
                for s in self.rslaves[r]:
                    s.reset()
        if self.colmaster is not None:
            self.colmaster.reset()
            for s in self.colslaves:
                s.reset()
        self._row_fed = [False] * self.rows
        self._col_done = False
        self._global_ready = False
        self.result = None
        self._bc_started = False
        self._delivered = [False] * self.num_cores
        if not keep_operands:
            self.kind = None
            self._skip_root = False
        for st in self._stages:
            st.int_seen = (0, 0, 0)
        self._int_moved.clear()
        self._int_exhausted = False
        for gl in self.lines:
            gl.end_cycle()
        self._live = {i for i, st in enumerate(self._stages) if st.busy()}

    def close_episode(self) -> None:
        """Finish the episode: full reset, ready for the next begin()."""
        self.reset_episode(keep_operands=False)

    # ------------------------------------------------------------------ #
    # the clock
    # ------------------------------------------------------------------ #
    def tick(self) -> list[tuple[int, int]]:
        """Advance one network cycle; returns newly delivered
        ``(local, value)`` pairs."""
        stages = self._stages
        live = self._live
        for m in self._drove:
            m.drove_rel = False
        drove = []
        # Assert phase: only acting controllers drive a wire.
        for i in live:
            st = stages[i]
            st.master.assert_phase()
            drove.append(st.master)
            for s, tid in zip(st.slaves, st.tids):
                s.assert_phase(tid)
        self._drove = drove

        # Fault injection lands between assert and sample, like the
        # barrier network's tick.
        if self.perturb_hook is not None:
            self.perturb_hook(self.lines)
        # A forced level reaches the controllers whether or not anyone
        # drove the wire: clock its stage this tick.
        for gl, i in self._wired:
            if gl.stuck is not None or gl.glitch_force is not None \
                    or gl.count_delta:
                live.add(i)
        if self.guard:
            # Hardened mode: a release-line level the master did not
            # drive is a wire fault -- flag it and mask it before the
            # slaves sample, so a stuck-high wire degrades to detection
            # + failover rather than a silently wrong value.
            for i in live:
                m = stages[i].master
                if m.rel is not None and not m.drove_rel \
                        and m.rel.sampled_on():
                    m.fault_suspected = True
                    m.rel.glitch_force = 0

        # Sample phase.
        for i in live:
            st = stages[i]
            st.master.sample_phase()
            for s in st.slaves:
                s.sample_phase()
        lines = [gl for i in live for gl in stages[i].lines]
        if self.wire_probe is not None:
            self.wire_probe(lines)
        for gl in lines:
            gl.end_cycle()
        self._int_moved |= live

        out = self._orchestrate()
        # Every hand-off is consumed in the same pass, so what stays live
        # is exactly the stages that act next tick.
        self._live = {i for i in self._live if stages[i].acting()}
        return out

    # ------------------------------------------------------------------ #
    # orchestration: pure state hand-offs between stages
    # ------------------------------------------------------------------ #
    def _orchestrate(self) -> list[tuple[int, int]]:
        """Hand-offs for the stages that changed this tick (``_live``);
        each hand-off wakes the stages it touches, and the later steps
        see them."""
        changed = self._live
        assert self.kind is not None or all(
            self.rmasters[r].idle for r in changed if r < self.rows), \
            "ticking a closed episode"
        k2 = ops.COMBINE_KIND[self.kind] if self.kind else "sum"

        # Row stage done -> feed the column stage.
        for r in sorted(changed):
            if r == self.rows:
                continue
            m = self.rmasters[r]
            if m.state == M_DONE and not self._row_fed[r]:
                self._row_fed[r] = True
                if self.rows == 1:
                    self._global_done(m.result)
                else:
                    contrib = ops.stage_contrib(k2, m.result, self._row_w)
                    if r == 0:
                        assert self.colmaster is not None
                        self.colmaster.set_own(contrib)
                    else:
                        self.colslaves[r - 1].set_input(contrib)
                    changed.add(self.rows)

        if self.rows in changed:
            # Column stage done -> the global result exists.
            assert self.colmaster is not None
            if self.colmaster.state == M_DONE and not self._col_done:
                self._col_done = True
                self._global_done(self.colmaster.result)

            # Column broadcast landed at a row master -> start its row
            # broadcast with the latched value.  (A row master is M_DONE
            # before its column slave is even fed, so only a column
            # change can complete this; _start_broadcast covers rows
            # whose column slave finished first.)
            for j, cs in enumerate(self.colslaves):
                if cs.state == S_DONE:
                    rm = self.rmasters[j + 1]
                    if rm.state == M_DONE and self._bc_started:
                        rm.start_broadcast(cs.result)
                        changed.add(j + 1)

        # Broadcast landed -> deliver each core exactly once.  A master
        # is done when it has driven its last data bit; a slave when it
        # has latched bw bits.  In a clean episode both happen in the
        # same tick, so the whole row releases together; under a fault
        # the unaffected cores still make progress.
        out: list[tuple[int, int]] = []
        for r in sorted(changed):
            if r == self.rows:
                continue
            base = r * self.cols
            rm = self.rmasters[r]
            if rm.state == M_BC_DONE and not self._delivered[base] \
                    and not (r == 0 and self._skip_root):
                self._delivered[base] = True
                out.append((base, rm.bc_value))
            for c, s in enumerate(self.rslaves[r], start=1):
                if s.state == S_DONE and not self._delivered[base + c]:
                    self._delivered[base + c] = True
                    out.append((base + c, s.result))
        return out

    def _global_done(self, result: int) -> None:
        self._global_ready = True
        self.result = result
        if self.hold_result:
            # An exhausted integrity budget means the parked partial is
            # suspect: never report it upward -- the network escalates
            # this same tick (retry or failover) before the upper level
            # could combine a corrupt partial.
            if self.on_reduced is not None and not self.int_exhausted:
                self.on_reduced(result)
            return
        self._start_broadcast(result)

    def _start_broadcast(self, value: int) -> None:
        # Each started master drives its broadcast next tick, or -- with
        # no slaves -- has finished it and awaits delivery (except a
        # lone root that open_with delivers upstream).
        self._bc_started = True
        if self.colmaster is not None:
            self.colmaster.start_broadcast(value)
            self._live.add(self.rows)
        self.rmasters[0].start_broadcast(value)
        if self.cols > 1 or not self._skip_root:
            self._live.add(0)
        # Rows > 0 start when the column broadcast reaches them (or now,
        # if it already has -- e.g. open_with after the column settled).
        for j, cs in enumerate(self.colslaves):
            if cs.state == S_DONE and self.rmasters[j + 1].state == M_DONE:
                self.rmasters[j + 1].start_broadcast(cs.result)
                self._live.add(j + 1)

    # ------------------------------------------------------------------ #
    # status
    # ------------------------------------------------------------------ #
    def collect_fault(self) -> bool:
        """Read-and-clear this tick's fault suspicions (network hook)."""
        found = False
        for st in self._stages:
            found |= st.master.fault_suspected
            st.master.fault_suspected = False
        return found

    # ------------------------------------------------------------------ #
    # integrity status (see repro.gline.integrity)
    # ------------------------------------------------------------------ #
    def _all_masters(self) -> list[StageMaster]:
        return [st.master for st in self._stages]

    @property
    def int_exhausted(self) -> bool:
        """A stage burned its whole round-retry budget this episode."""
        return any(m.int_exhausted for m in self._all_masters())

    @property
    def int_flagged(self) -> bool:
        """Any corruption detected this episode (retried or not).  The
        detection-completeness property in the verify layer is exactly
        'no wrong value is ever delivered while this is False'."""
        return any(m.int_faults > 0 or m.int_exhausted
                   for m in self._all_masters())

    def collect_integrity(self) -> tuple[int, int, int, bool]:
        """Read-and-clear the episode's new integrity activity: returns
        ``(detections, round_retries, corrections, exhausted)`` deltas
        since the previous collect (exhaustion is a level, not a delta).
        Counters move only while a stage is clocked, so only the stages
        clocked since the previous collect are read."""
        faults = retries = corrected = 0
        for i in self._int_moved:
            st = self._stages[i]
            m = st.master
            f0, r0, c0 = st.int_seen
            faults += m.int_faults - f0
            retries += m.int_retries - r0
            corrected += m.int_corrected - c0
            st.int_seen = (m.int_faults, m.int_retries, m.int_corrected)
            if m.int_exhausted:
                self._int_exhausted = True
        self._int_moved.clear()
        return faults, retries, corrected, self._int_exhausted

    @property
    def done(self) -> bool:
        """Every core delivered (or parked, for a held cluster)."""
        if self.hold_result and not self._bc_started:
            return self._global_ready
        return all(d for i, d in enumerate(self._delivered)
                   if not (i == 0 and self._skip_root))

    def will_act(self) -> bool:
        """Does the next tick change fabric state unprompted?  Mirrors
        the barrier network's power gating: False while merely waiting
        for arrivals (or parked on a held result)."""
        return bool(self._live)

    @property
    def idle(self) -> bool:
        return self.kind is None

    # ------------------------------------------------------------------ #
    # model-checker support
    # ------------------------------------------------------------------ #
    def snapshot(self) -> tuple:
        return (
            tuple(m.snapshot() for m in self.rmasters),
            tuple(tuple(s.snapshot() for s in row) for row in self.rslaves),
            self.colmaster.snapshot() if self.colmaster else None,
            tuple(s.snapshot() for s in self.colslaves),
            self.kind, tuple(self._row_fed), self._col_done,
            self._global_ready, self.result, self._bc_started,
            self._skip_root, tuple(self._delivered),
            self._row_w, self._bw,
            tuple(gl.stuck for gl in self.lines),
        )

    def restore(self, snap: tuple) -> None:
        (rm, rs, cm, cs, kind, row_fed, col_done, global_ready, result,
         bc_started, skip_root, delivered, row_w, bw, stuck) = snap
        for m, s in zip(self.rmasters, rm):
            m.restore(s)
        for row, snaps in zip(self.rslaves, rs):
            for sl, s in zip(row, snaps):
                sl.restore(s)
        if self.colmaster is not None:
            self.colmaster.restore(cm)
        for sl, s in zip(self.colslaves, cs):
            sl.restore(s)
        self.kind = kind
        self._row_fed = list(row_fed)
        self._col_done = col_done
        self._global_ready = global_ready
        self.result = result
        self._bc_started = bc_started
        self._skip_root = skip_root
        self._delivered = list(delivered)
        self._row_w = row_w
        self._bw = bw
        for gl, st in zip(self.lines, stuck):
            gl.stuck = st
            gl._asserting.clear()
            gl.glitch_force = None
            gl.count_delta = 0
        # Any controller may have changed: every master's drove_rel is
        # re-evaluated next tick, and every busy stage is visited (one
        # parked on an already consumed hand-off is visited as a no-op).
        self._drove = self._all_masters()
        self._live = {i for i, st in enumerate(self._stages) if st.busy()}
        self._int_moved = set(range(len(self._stages)))
        self._int_exhausted = False
