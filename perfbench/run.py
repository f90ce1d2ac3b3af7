"""The repository benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repeat of the workload's fixed batch runs in a fresh interpreter
(``repeat.py``), back to back, until ``--seconds`` are spent; at least
three repeats run.  Every simulation is checked (see ``batches.py``).

With ``--trace 0`` the result line carries the end-to-end metrics, each
the median over the repeats: ``wall_s``, ``setup_s``, ``peak_rss_mb``,
``ok_ratio`` and ``paper_err_pct``.  The two times are scaled by the
host speed measured during the run (see ``calibrate.py``); the repeat
lines show them as measured.  ``paper_grid`` covers the paper's
reference points itself; for the other workloads, which run at scales
the paper never measured, one extra repeat runs those points alone
(``paper_anchor``) so that every workload reports the model's error.

With ``--trace 1`` half the time goes to untraced repeats and then one
repeat runs under the profiler with obs metrics attached; the result
line carries the per-layer metrics (host times unscaled), and the spans
and layer table are written to
``perfbench/out/trace-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run from the
root of a checkout; the simulator is imported from its ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_S, reference_seconds  # noqa: E402
from layers import LAYERS, OTHER, PER_LAYER  # noqa: E402

WORKLOADS = ("paper_grid", "noc_stress", "collective_allreduce",
             "sweep_dispatch")
#: Runs paper_grid's reference points alone (see ``batches.py``).
PAPER_ANCHOR = "paper_anchor"
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "ok_ratio": "ratio", "paper_err_pct": "%"}
MIN_REPEATS = 3
#: Every repeat must have ended this long after start: the benchmark
#: has to exit within 180 seconds.
DEADLINE_S = 165.0


class Repeats:
    """Starts repeat processes and stops each one, whatever happens."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.started = 0

    def run(self, traced: bool = False,
            workload: str | None = None) -> dict:
        """One repeat's report, or ``{"error": ...}`` if it broke."""
        self.started += 1
        scratch = OUT / f"scratch-{os.getpid()}-{self.started}"
        cmd = [sys.executable, str(HERE / "repeat.py"),
               "--workload", workload or self.workload,
               "--seed", str(self.seed), "--scratch", str(scratch)]
        if traced:
            cmd.append("--trace")
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONHASHSEED"] = "0"
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            stdout, stderr = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            _kill_group(proc.pid)
            proc.communicate()
            return {"error": "repeat did not finish before the "
                             "benchmark's deadline"}
        finally:
            _kill_group(proc.pid)
            proc.wait()
            shutil.rmtree(scratch, ignore_errors=True)
        if proc.returncode != 0:
            tail = stderr.strip().splitlines()[-3:]
            return {"error": f"repeat exited with {proc.returncode}: "
                             + " | ".join(tail)}
        return json.loads(stdout.strip().splitlines()[-1])


def _kill_group(pgid: int) -> None:
    """Stop whatever a repeat left behind (its dispatch workers)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_repeats(repeats: Repeats, seconds: float,
                minimum: int) -> tuple[list[dict], float]:
    """Back-to-back untraced repeats until *seconds* are spent (at least
    *minimum*), stopping early at the first broken repeat.  The reference
    workload runs just before and just after each repeat; returns the
    reports and the host's speed, REFERENCE_S over the reference's median
    time."""
    start = time.monotonic()
    reports: list[dict] = []
    references: list[float] = []
    while True:
        references.append(reference_seconds())
        reports.append(repeats.run())
        references.append(reference_seconds())
        if "error" in reports[-1]:
            break
        now = time.monotonic()
        per_repeat = (now - start) / len(reports)
        if now + per_repeat > repeats.deadline:
            break
        if len(reports) >= minimum and \
                now - start + per_repeat > seconds:
            break
    return reports, REFERENCE_S / statistics.median(references)


def tally(reports: list[dict]) -> tuple[int, int, list[str], set[str]]:
    """Attempted and failed simulations, errors and digests; a broken
    repeat counts as one failed attempt."""
    attempted = failed = 0
    errors: list[str] = []
    digests: set[str] = set()
    for report in reports:
        if "error" in report:
            attempted += 1
            failed += 1
            errors.append(report["error"])
            continue
        attempted += report["attempted"]
        failed += report["failed"]
        errors.extend(report["errors"])
        digests.add(report["digest"])
    return attempted, failed, errors, digests


def median_of(reports: list[dict], key: str) -> float:
    values = [r[key] for r in reports if "error" not in r]
    return statistics.median(values) if values else 0.0


def end_to_end(repeats: Repeats, seconds: float) -> dict:
    reports, speed = run_repeats(repeats, seconds, MIN_REPEATS)
    anchor = [] if repeats.workload == "paper_grid" \
        else [repeats.run(workload=PAPER_ANCHOR)]
    attempted, failed, errors, _ = tally(reports + anchor)
    paper_reports = [r for r in anchor or reports if "error" not in r]
    papers = {r["paper_err_pct"] for r in paper_reports}
    values = {
        "wall_s": median_of(reports, "wall_s") * speed,
        "setup_s": median_of(reports, "setup_s") * speed,
        "peak_rss_mb": median_of(reports, "peak_rss_mb"),
        "ok_ratio": 1.0 - failed / attempted,
        "paper_err_pct": next(iter(papers), None) or 0.0,
    }
    for i, report in enumerate(reports, 1):
        if "error" not in report:
            print(f"repeat {i}: wall_s={report['wall_s']:.4f} "
                  f"setup_s={report['setup_s']:.4f} "
                  f"peak_rss_mb={report['peak_rss_mb']:.1f} "
                  f"simulations={report['attempted']} "
                  f"workers={report['workers']} "
                  f"failed={report['failed']} digest={report['digest']}")
    for name, simulated, paper in (paper_reports[0]["paper_points"]
                                   if paper_reports else []):
        print(f"paper point {name}: simulated {simulated:.4f}, "
              f"paper {paper}")
    # The anchor simulates other runs than the batch: its digest is not
    # compared with the repeats'.
    digests = {r["digest"] for r in reports if "error" not in r}
    _print_checks(errors, digests, failed, attempted)
    print(f"host speed {speed:.4f}: wall_s and setup_s are the median host "
          f"times above times it")
    for name, unit in END_TO_END.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    return {"correct": failed == 0 and len(digests) == 1
            and len(papers) == 1,
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in END_TO_END.items()}}


def per_layer(repeats: Repeats, seconds: float) -> dict:
    untraced, _ = run_repeats(repeats, seconds / 2, 1)
    traced = repeats.run(traced=True)
    attempted, failed, errors, digests = tally(untraced + [traced])
    values = dict.fromkeys(PER_LAYER, 0.0)
    wall = median_of(untraced, "wall_s")
    if "error" not in traced:
        values.update({k: v for k, v in traced["layers"].items()
                       if k in PER_LAYER})
        events = traced["layers"]["sim.events"]
        values["trace.overhead_s"] = traced["wall_s"] - wall
        values["sim.host_us_per_event"] = \
            1e6 * wall / events if events else 0.0
        values["sim.kcycles_per_s"] = \
            traced["layers"]["sim.cycles"] / 1000.0 / wall if wall else 0.0
        _print_layers(values)
        print(f"workers={traced['workers']}")
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"trace-{repeats.workload}-seed{repeats.seed}.json"
        path.write_text(json.dumps({
            "workload": repeats.workload, "seed": repeats.seed,
            "nproc": os.cpu_count(), "workers": traced["workers"],
            "digest": traced["digest"], "layers": values,
            "spans": traced["spans"]}, indent=1) + "\n")
        print(f"spans and layers written to {path.relative_to(ROOT)}")
    _print_checks(errors, digests, failed, attempted, traced=True)
    return {"correct": failed == 0 and len(digests) == 1,
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in PER_LAYER.items()}}


def _print_layers(values: dict) -> None:
    total = values["profile.total_s"] or 1.0
    print(f"{'layer':<12} {'self_s':>9} {'share':>7}")
    for layer in (*LAYERS, OTHER):
        seconds = values[f"{layer}.self_s"]
        print(f"{layer:<12} {seconds:9.4f} {seconds / total:7.1%}")
    folded = sum(values[f"{layer}.self_s"] for layer in (*LAYERS, OTHER))
    print(f"{'sum':<12} {folded:9.4f} of profiled total "
          f"{values['profile.total_s']:.4f}")
    for name, unit in PER_LAYER.items():
        if not name.endswith(".self_s"):
            print(f"{name} = {values[name]:.6g} {unit}")


def _print_checks(errors: list[str], digests: set[str], failed: int,
                  attempted: int, traced: bool = False) -> None:
    for error in errors:
        print(f"FAILED {error}")
    where = "traced and untraced repeats" if traced else "repeats"
    if len(digests) == 1:
        print(f"stats digest {next(iter(digests))} (identical across "
              f"{where})")
    else:
        print(f"FAILED stats digest differs across {where}: "
              f"{sorted(digests)}")
    ratio = failed / attempted if attempted else 0.0
    print(f"fail_ratio {ratio:.4f} ({failed}/{attempted})")


def _terminate(signum, frame) -> None:
    # Unwinds through Repeats.run, which stops the running repeat.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source at {ROOT / 'src' / 'repro'}; "
              f"run from the root of a checkout", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    # The host's CPUs differ in speed, and the calibration only tracks
    # the CPU it runs on: every repeat, its workers and the reference
    # workload run on one CPU.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    repeats = Repeats(args.workload, args.seed,
                      time.monotonic() + DEADLINE_S)
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} "
          f"nproc={os.cpu_count()} cpu={cpu}")
    if args.trace:
        result = per_layer(repeats, args.seconds)
    else:
        result = end_to_end(repeats, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
