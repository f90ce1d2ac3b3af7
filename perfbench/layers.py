"""Per-layer accounting of a traced repeat.

Host time comes from a profiler (``cProfile``) run over the batch.  Each
function's self time is folded into the layer of its source file:
``src/repro/<layer>/`` for the twelve layers below, ``other`` for the rest
of ``src/repro`` and for code outside it.  A function outside
``src/repro`` -- a builtin or the standard library -- is charged to the
code that called it, in proportion to the time each caller spent in it,
so a ``heapq`` push counts for the engine that made it and a lock wait
for the dispatcher that blocked on it.  The layers sum to the profiled
total.

Counts are profiler call counts of the layers' public entry points, or
are read from ``RunResult.stats`` and the obs metrics bundle.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path

#: The modules of src/repro that the benchmark reports as layers.
LAYERS = ("sim", "cpu", "mem", "noc", "gline", "collectives", "sync",
          "chip", "workloads", "exec", "dse", "common")
OTHER = "other"

#: Call-count metrics: (layer, file name or None for any, function name,
#: count only calls from outside the layer).  Counting only calls that
#: enter the layer keeps a hierarchical network's delegation to its
#: cluster networks from counting twice.
CALL_COUNTS = {
    "sim.schedule_calls": ("sim", None, "schedule_at", False),
    "noc.send_calls": ("noc", None, "send", False),
    "noc.link_occupy_calls": ("noc", "link.py", "occupy", False),
    "gline.arrive_calls": ("gline", None, "arrive", True),
    "collectives.arrive_calls": ("collectives", None, "arrive", True),
    "collectives.tick_calls": ("collectives", "fabric.py", "tick", False),
}


#: Every per-layer metric ``run.py --trace 1`` prints, with its unit.
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in (*LAYERS, OTHER)},
    "profile.total_s": "s",
    "trace.overhead_s": "s",
    "sim.events": "count",
    "sim.schedule_calls": "count",
    "sim.host_us_per_event": "us",
    "sim.kcycles_per_s": "kcycles/s",
    "noc.send_calls": "count",
    "noc.link_occupy_calls": "count",
    "noc.messages": "count",
    "noc.hop_flits": "count",
    "noc.link_wait_p50": "cycles",
    "noc.link_wait_p99": "cycles",
    "noc.msg_latency_p50": "cycles",
    "noc.msg_latency_p99": "cycles",
    "mem.l1_accesses": "count",
    "mem.l1_miss_ratio": "ratio",
    "mem.dir_requests": "count",
    "mem.dir_queued": "count",
    "mem.dram_accesses": "count",
    "cpu.busy_cycles": "cycles",
    "cpu.read_cycles": "cycles",
    "cpu.write_cycles": "cycles",
    "cpu.lock_cycles": "cycles",
    "cpu.barrier_cycles": "cycles",
    "gline.arrive_calls": "count",
    "gline.episodes": "count",
    "gline.release_cycles": "cycles",
    "gline.arrival_skew_cycles": "cycles",
    "collectives.arrive_calls": "count",
    "collectives.tick_calls": "count",
    "collectives.completed": "count",
    "collectives.ticks_per_op": "ratio",
    "sync.s2_wait_cycles": "cycles",
    "chip.build_s": "s",
    "workloads.build_s": "s",
    "exec.cold_ms_per_spec": "ms",
    "exec.warm_ms_per_spec": "ms",
    "exec.cache_hits": "count",
    "exec.cache_misses": "count",
    "exec.attempts": "count",
    "dse.evaluations": "count",
}


def layer_of(path: str, package: Path) -> str | None:
    """The layer of source file *path*, ``other`` for the rest of the
    *package* directory (``src/repro``), ``None`` outside it."""
    try:
        rel = Path(path).resolve().relative_to(package)
    except ValueError:
        return None
    if len(rel.parts) > 1 and rel.parts[0] in LAYERS:
        return rel.parts[0]
    return OTHER


def fold(stats: dict, package: Path) -> dict[str, float]:
    """Fold ``pstats.Stats.stats`` self time into layers.

    *stats* maps ``(file, line, name)`` to ``(cc, nc, tt, ct, callers)``
    with ``callers`` mapping each caller to its ``(cc, nc, tt, ct)``
    share.  Returns seconds per layer, ``other`` included."""
    shares: dict = {}

    def share(func, stack: set) -> dict[str, float]:
        """Fractions of *func*'s time charged to each layer."""
        if func in shares:
            return shares[func]
        own = layer_of(func[0], package)
        if own is not None:
            shares[func] = {own: 1.0}
            return shares[func]
        weights: dict[str, float] = defaultdict(float)
        stack.add(func)
        for caller, edge in stats.get(func, (0, 0, 0, 0, {}))[4].items():
            if caller in stack:
                continue
            for layer, frac in share(caller, stack).items():
                weights[layer] += edge[3] * frac
        stack.discard(func)
        total = sum(weights.values())
        shares[func] = ({layer: w / total for layer, w in weights.items()}
                        if total > 0 else {OTHER: 1.0})
        return shares[func]

    seconds = dict.fromkeys((*LAYERS, OTHER), 0.0)
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for layer, frac in share(func, set()).items():
            seconds[layer] += tt * frac
    return seconds


def call_counts(stats: dict, package: Path) -> dict[str, int]:
    """The :data:`CALL_COUNTS` metrics from profiler stats."""
    counts = dict.fromkeys(CALL_COUNTS, 0)
    for func, (_cc, nc, _tt, _ct, callers) in stats.items():
        layer = layer_of(func[0], package)
        for metric, (want, file, name, entering) in CALL_COUNTS.items():
            if layer != want or func[2] != name \
                    or (file is not None and Path(func[0]).name != file):
                continue
            if entering:
                counts[metric] += sum(
                    edge[1] for caller, edge in callers.items()
                    if layer_of(caller[0], package) != want)
            else:
                counts[metric] += nc
    return counts


def _percentile(histograms: dict, name: str, p: float) -> int:
    hist = histograms.get(name)
    value = hist.percentile(p) if hist is not None else None
    return value or 0


def stats_metrics(results: list, metrics) -> dict[str, float]:
    """Layer counts from the simulations' statistics and obs metrics."""
    counters: dict[str, int] = defaultdict(int)
    cycles: dict[str, int] = defaultdict(int)
    messages = hop_flits = events = sim_cycles = 0
    releases: list[int] = []
    skews: list[int] = []
    for result in results:
        stats = result.stats.to_dict()
        for name, value in stats["counters"].items():
            counters[name] += value
        for cat, value in result.cycle_breakdown().items():
            cycles[cat.value] += value
        messages += result.total_messages()
        hop_flits += sum(stats["hop_flits"].values())
        events += result.events_executed
        sim_cycles += result.total_cycles
        if result.barrier_name == "GL":
            for episode in stats["barriers"]:
                releases.append(episode["release"]
                                - episode["last_arrival"])
                skews.append(episode["last_arrival"]
                             - episode["first_arrival"])
    l1_accesses = sum(v for k, v in counters.items()
                      if k.startswith("l1.") and k.endswith(("_hits",
                                                             "_misses")))
    l1_misses = sum(v for k, v in counters.items()
                    if k.startswith("l1.") and k.endswith("_misses"))
    completed = counters["collectives.completed"]
    hists = metrics.histograms
    out = {
        "sim.events": events,
        "sim.cycles": sim_cycles,
        "noc.messages": messages,
        "noc.hop_flits": hop_flits,
        "noc.link_wait_p50": _percentile(hists, "noc.link_wait", 50),
        "noc.link_wait_p99": _percentile(hists, "noc.link_wait", 99),
        "noc.msg_latency_p50": _percentile(hists, "noc.msg_latency", 50),
        "noc.msg_latency_p99": _percentile(hists, "noc.msg_latency", 99),
        "mem.l1_accesses": l1_accesses,
        "mem.l1_miss_ratio": l1_misses / l1_accesses if l1_accesses else 0,
        "mem.dir_requests": sum(counters[f"dir.{k}"]
                                for k in ("gets", "getm", "putm")),
        "mem.dir_queued": counters["dir.queued"],
        "mem.dram_accesses": counters["mem.accesses"],
        "gline.episodes": counters["gline.barriers"],
        "gline.release_cycles": (sum(releases) / len(releases)
                                 if releases else 0),
        "gline.arrival_skew_cycles": (sum(skews) / len(skews)
                                      if skews else 0),
        "collectives.completed": completed,
        "sync.s2_wait_cycles": counters["barrier.s2_wait_cycles"],
    }
    for cat in ("busy", "read", "write", "lock", "barrier"):
        out[f"cpu.{cat}_cycles"] = cycles[cat]
    return out
