"""repro.bench harness: cases, timing, snapshots, and the gate logic.

Timing here uses a deliberately tiny case (4 cores, 2 iterations) so the
suite stays fast; the real fig5/6/7 cases are exercised structurally
(spec construction, digests) and at full scale only by
``benchmarks/perf/`` and the CI smoke job.
"""

import json

import pytest

from repro.bench import (CASES, BenchCase, BenchSnapshot, calibrate,
                         compare_snapshots, get_case, load_snapshot,
                         run_case, snapshot_path, write_snapshot)
from repro.bench.runner import BenchError, config_digest
from repro.cli import main
from repro.exec.spec import RunSpec
from repro.workloads import SyntheticBarrierWorkload

TINY = BenchCase(
    name="tiny", description="4-core synthetic point (test only)",
    build=lambda quick: [RunSpec.make(
        SyntheticBarrierWorkload(iterations=1 if quick else 2),
        "gl", num_cores=4)])


# ---------------------------------------------------------------------- #
# Registry and case construction
# ---------------------------------------------------------------------- #
def test_registry_contents():
    assert set(CASES) == {"fig5", "fig6_fig7", "stress16x16",
                          "collectives16x16", "integrity_echo"}
    assert get_case("fig5") is CASES["fig5"]
    with pytest.raises(KeyError):
        get_case("fig9")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cases_build_valid_specs(name):
    case = get_case(name)
    quick, full = case.build(True), case.build(False)
    assert quick and full
    # Quick is genuinely smaller work and hashes differently.
    assert config_digest(case, True) != config_digest(case, False)
    # Building twice is deterministic.
    assert config_digest(case, True) == config_digest(case, True)


def test_fig5_case_mirrors_experiment_grid():
    specs = get_case("fig5").build(False)
    assert len(specs) == 12                   # 3 barriers x 4 chip sizes
    assert {s.barrier for s in specs} == {"csw", "dsw", "gl"}
    assert {s.config.num_cores for s in specs} == {4, 8, 16, 32}


def test_stress_case_is_a_16x16_mesh():
    (spec,) = get_case("stress16x16").build(True)
    assert spec.config.num_cores == 256
    assert (spec.config.noc.rows, spec.config.noc.cols) == (16, 16)


def test_integrity_echo_case_pairs_off_against_echo():
    off, echo = get_case("integrity_echo").build(True)
    assert off.config.collectives.integrity == "off"
    assert echo.config.collectives.integrity == "echo"
    # Same clean workload either side: no fault plan, same chip.
    for spec in (off, echo):
        assert spec.config.num_cores == 64
        assert spec.config.faults.scsma_miscount_rate == 0.0


# ---------------------------------------------------------------------- #
# Timing
# ---------------------------------------------------------------------- #
def test_run_case_measures_events_and_normalized_score():
    calib = 1_000_000.0          # fixed: no real calibration in tests
    snap = run_case(TINY, quick=True, repeats=2, calibration_eps=calib)
    assert snap.name == "tiny" and snap.quick
    assert snap.config_digest == config_digest(TINY, True)
    assert snap.events > 0
    assert snap.repeats == len(snap.wall_s) == 2
    assert snap.median_wall_s > 0
    assert snap.events_per_sec == pytest.approx(
        snap.events / snap.median_wall_s)
    assert snap.normalized_score == pytest.approx(
        snap.events_per_sec / calib)


def test_run_case_rejects_bad_repeats():
    with pytest.raises(BenchError):
        run_case(TINY, repeats=0)


def test_calibrate_returns_plausible_rate():
    eps = calibrate(repeats=1)
    assert 10_000 < eps < 1_000_000_000


# ---------------------------------------------------------------------- #
# Snapshot I/O
# ---------------------------------------------------------------------- #
def _snapshot(score=1.0, events=1000, digest="d" * 16, quick=True):
    return BenchSnapshot(
        name="tiny", quick=quick, config_digest=digest, repeats=2,
        wall_s=[0.1, 0.1], median_wall_s=0.1, events=events,
        events_per_sec=events / 0.1, calibration_eps=events / 0.1,
        normalized_score=score)


def test_snapshot_roundtrip(tmp_path):
    snap = _snapshot()
    path = write_snapshot(snap, tmp_path)
    assert path == snapshot_path("tiny", tmp_path)
    assert path.name == "BENCH_tiny.json"
    loaded = load_snapshot("tiny", tmp_path)
    assert loaded.to_dict() == snap.to_dict()
    # File is valid, sorted JSON (committed artifact hygiene).
    text = path.read_text()
    assert text == json.dumps(json.loads(text), indent=2,
                              sort_keys=True) + "\n"


def test_load_snapshot_absent_or_corrupt_returns_none(tmp_path):
    assert load_snapshot("tiny", tmp_path) is None
    snapshot_path("tiny", tmp_path).write_text("{not json")
    assert load_snapshot("tiny", tmp_path) is None


# ---------------------------------------------------------------------- #
# The regression gate
# ---------------------------------------------------------------------- #
def test_compare_ok_within_tolerance():
    comp = compare_snapshots(_snapshot(score=0.9), _snapshot(score=1.0),
                             tolerance=0.25)
    assert comp.name == "tiny"
    assert not comp.regressed
    assert comp.ratio == pytest.approx(0.9)


def test_compare_flags_regression_beyond_tolerance():
    comp = compare_snapshots(_snapshot(score=0.5), _snapshot(score=1.0),
                             tolerance=0.25)
    assert comp.regressed
    assert "REGRESSED" in comp.summary()


def test_compare_improvement_never_regresses():
    comp = compare_snapshots(_snapshot(score=5.0), _snapshot(score=1.0))
    assert not comp.regressed


def test_compare_without_baseline_is_empty():
    assert compare_snapshots(_snapshot(), None) is None


def test_compare_refuses_different_work():
    with pytest.raises(BenchError):
        compare_snapshots(_snapshot(digest="a" * 16),
                          _snapshot(digest="b" * 16))
    with pytest.raises(BenchError):
        compare_snapshots(_snapshot(quick=True), _snapshot(quick=False))


def test_compare_notes_event_count_drift():
    comp = compare_snapshots(_snapshot(events=999), _snapshot(events=1000))
    assert "event count changed" in comp.note


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #
def test_cli_unknown_case_is_usage_error(capsys):
    assert main(["bench", "fig9"]) == 2
    assert "unknown bench case" in capsys.readouterr().err


def test_cli_bench_runs_writes_and_gates(tmp_path, monkeypatch, capsys):
    import repro.bench.cases as cases_mod
    monkeypatch.setattr(cases_mod, "CASES", {"tiny": TINY})

    # Seed a baseline, then gate a fresh run against it.
    assert main(["bench", "--quick", "--repeats", "1", "--write",
                 "--baseline-dir", str(tmp_path), "tiny"]) == 0
    assert (tmp_path / "BENCH_tiny.json").exists()
    # The tiny case runs in milliseconds, where wall-clock noise dwarfs
    # any tolerance, so both gate outcomes are forced deterministically
    # by editing the baseline's scores: absurdly low -> must pass,
    # absurdly high -> must fail.
    def scale_baseline(factor):
        data = json.loads((tmp_path / "BENCH_tiny.json").read_text())
        data["normalized_score"] *= factor
        (tmp_path / "BENCH_tiny.json").write_text(json.dumps(data))

    scale_baseline(1e-6)
    assert main(["bench", "--quick", "--repeats", "1", "--check",
                 "--baseline-dir", str(tmp_path), "tiny"]) == 0
    out = capsys.readouterr().out
    assert "tiny" in out and "ev/s" in out

    scale_baseline(1e12)
    assert main(["bench", "--quick", "--repeats", "1", "--check",
                 "--baseline-dir", str(tmp_path), "tiny"]) == 1
    # Without --check the regression is reported but not fatal.
    assert main(["bench", "--quick", "--repeats", "1",
                 "--baseline-dir", str(tmp_path), "tiny"]) == 0
    assert "REGRESSED" in capsys.readouterr().out


def test_cli_bench_refuses_stale_baseline_work(tmp_path, monkeypatch,
                                               capsys):
    import repro.bench.cases as cases_mod
    monkeypatch.setattr(cases_mod, "CASES", {"tiny": TINY})
    assert main(["bench", "--quick", "--repeats", "1", "--write",
                 "--baseline-dir", str(tmp_path), "tiny"]) == 0
    # Full-scale run against the quick baseline: different work.
    assert main(["bench", "--repeats", "1",
                 "--baseline-dir", str(tmp_path), "tiny"]) == 2
    assert "different work" in capsys.readouterr().err
