"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

import cProfile
import json
import pstats
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "repro"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import batches  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from spans import Spans  # noqa: E402

from repro.workloads import SyntheticBarrierWorkload  # noqa: E402


class _BrokenVerify(SyntheticBarrierWorkload):
    """Runs fine; its functional check always fails."""

    def verify(self, chip) -> None:
        raise AssertionError("planted verify failure")


def _tiny(workload=None):
    return batches._spec(workload or SyntheticBarrierWorkload(iterations=1),
                         "gl", 4)


def test_failing_verify_counts_as_failed():
    out = batches.Outcome()
    spans = Spans(time.perf_counter())
    assert batches.simulate(_tiny(), "good", spans, out) is not None
    assert batches.simulate(_tiny(_BrokenVerify(iterations=1)), "bad",
                            spans, out) is None
    assert (out.attempted, out.failed) == (2, 1)
    assert "planted verify failure" in out.errors[0]
    # run.py turns the failure into a result that is not correct and an
    # ok_ratio below one.
    report = {"attempted": out.attempted, "failed": out.failed,
              "errors": out.errors, "digest": out.digest}
    attempted, failed, errors, _ = run.tally([report])
    assert failed / attempted == 0.5 and errors == out.errors


def test_broken_repeat_counts_as_failed():
    attempted, failed, errors, digests = run.tally([{"error": "crashed"}])
    assert (attempted, failed, errors, digests) == (1, 1, ["crashed"],
                                                     set())


def test_every_source_file_lands_in_one_layer():
    files = list(PACKAGE.rglob("*.py"))
    assert files
    seen = set()
    for path in files:
        layer = layers.layer_of(str(path), PACKAGE)
        assert layer in (*layers.LAYERS, layers.OTHER), path
        seen.add(layer)
    # Every named layer is a package that exists and holds code.
    assert seen >= set(layers.LAYERS)
    assert layers.layer_of(str(HERE / "run.py"), PACKAGE) is None


def test_fold_sums_to_profiled_total():
    profiler = cProfile.Profile()
    profiler.enable()
    out = batches.Outcome()
    batches.simulate(_tiny(), "fold", Spans(time.perf_counter()), out)
    profiler.disable()
    stats = pstats.Stats(profiler).stats
    folded = layers.fold(stats, PACKAGE)
    total = sum(tt for _, _, tt, _, _ in stats.values())
    assert set(folded) == {*layers.LAYERS, layers.OTHER}
    assert sum(folded.values()) == pytest.approx(total, rel=1e-9)
    assert folded["sim"] > 0 and folded["gline"] > 0
    counts = layers.call_counts(stats, PACKAGE)
    # Four cores arrive at each of four barriers.
    assert counts["gline.arrive_calls"] == 16
    assert counts["sim.schedule_calls"] > 0


def test_builtin_time_goes_to_its_callers_layer():
    sim_func = (str(PACKAGE / "sim" / "engine.py"), 1, "run")
    noc_func = (str(PACKAGE / "noc" / "network.py"), 1, "send")
    helper = ("/usr/lib/python3/helper.py", 1, "helper")
    builtin = ("~", 0, "<built-in method heappush>")
    stats = {
        sim_func: (1, 1, 1.0, 10.0, {}),
        noc_func: (1, 1, 2.0, 4.0, {}),
        helper: (1, 1, 1.0, 2.0, {noc_func: (1, 1, 1.0, 2.0)}),
        builtin: (4, 4, 4.0, 4.0, {sim_func: (3, 3, 3.0, 3.0),
                                   helper: (1, 1, 1.0, 1.0)}),
    }
    folded = layers.fold(stats, PACKAGE)
    assert folded["sim"] == pytest.approx(1.0 + 3.0)
    assert folded["noc"] == pytest.approx(2.0 + 1.0 + 1.0)
    assert sum(folded.values()) == pytest.approx(8.0)


def test_digest_changes_with_one_counter():
    out = batches.Outcome()
    batches.simulate(_tiny(), "digest", Spans(time.perf_counter()), out)
    record = out.records[0]
    before = batches.stats_digest([record])
    assert batches.stats_digest([dict(record)]) == before
    counters = record["stats"]["counters"]
    name = sorted(counters)[0]
    counters[name] += 1
    assert batches.stats_digest([record]) != before


def test_digest_ignores_obs_metrics():
    plain, traced = batches.Outcome(), batches.Outcome(traced=True)
    for out in (plain, traced):
        batches.simulate(_tiny(), "obs", Spans(time.perf_counter()), out)
    assert traced.metrics.histograms
    assert plain.digest == traced.digest


def test_seeds_derive_inputs_deterministically():
    assert batches.derive_seed(3, "dse") == batches.derive_seed(3, "dse")
    assert batches.derive_seed(3, "dse") != batches.derive_seed(4, "dse")
    assert batches.derive_seed(3, "dse") != batches.derive_seed(3,
                                                                "stress0")


def test_workload_names_match_batches():
    assert set(run.WORKLOADS) | {run.PAPER_ANCHOR} == set(batches.BATCHES)


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
