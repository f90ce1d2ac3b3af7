"""One repeat of one workload's batch, in a fresh interpreter.

    python3 perfbench/repeat.py --workload NAME --seed N --scratch DIR
        [--trace]

Prints one JSON line: host times, peak memory, attempted and failed
simulations with their errors, the digest of simulated statistics and
the paper error.  With ``--trace`` the batch runs under ``cProfile`` with
an obs metrics bundle attached to every chip, and the line also carries
the per-layer numbers and the spans.  ``run.py`` starts this script once
per repeat, so every repeat pays and measures its own imports.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401 - the checkout's simulator, imported once

    if Path(repro.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"imported repro from {repro.__file__}, "
                         f"not from {PACKAGE}")
    import batches
    from spans import Spans

    spans = Spans(T0)
    out = batches.Outcome(traced=args.trace)
    profiler = None
    if args.trace:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    batches.run_batch(args.workload, args.seed, spans, out, args.scratch)
    end = time.perf_counter()
    if profiler is not None:
        profiler.disable()

    report = {
        "wall_s": end - T0,
        "setup_s": (spans.first_work or end) - T0,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": out.attempted,
        "failed": min(out.failed, out.attempted),
        "errors": out.errors,
        "digest": out.digest,
        "paper_err_pct": out.paper_err_pct,
        "paper_points": out.paper_points,
        "workers": out.counts.get("workers", 1),
    }
    if profiler is not None:
        report["layers"] = _layers(profiler, out, spans)
        report["spans"] = spans.records
    print(json.dumps(report))
    return 0


def _layers(profiler, out, spans) -> dict[str, float]:
    import pstats

    import layers

    stats = pstats.Stats(profiler).stats
    self_s = layers.fold(stats, PACKAGE)
    values = {f"{layer}.self_s": s for layer, s in self_s.items()}
    values["profile.total_s"] = sum(tt for _, _, tt, _, _ in stats.values())
    values.update(layers.call_counts(stats, PACKAGE))
    values.update(layers.stats_metrics(out.results, out.metrics))
    completed = values["collectives.completed"]
    values["collectives.ticks_per_op"] = (
        values["collectives.tick_calls"] / completed if completed else 0)
    values["chip.build_s"] = spans.total("build")
    values["workloads.build_s"] = spans.total("workload")
    for name in ("exec.cold_ms_per_spec", "exec.warm_ms_per_spec",
                 "exec.cache_hits", "exec.cache_misses", "exec.attempts",
                 "dse.evaluations"):
        values[name] = out.counts.get(name, 0)
    return values


if __name__ == "__main__":
    sys.exit(main())
