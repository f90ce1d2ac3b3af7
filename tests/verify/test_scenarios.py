"""Fault scenarios and deliberate mutations against the checker.

Hardened scenarios must stay *safe* under exploration (the watchdog /
failover path may slow an episode but never releases early); the
unhardened demo scenario and both FSM mutations must be caught with a
concrete counterexample.  ``expectation_verdict`` turns these verdicts
into CI pass/fail decisions.
"""

import pytest

from repro.verify import (EXPECT_FAILOVER, EXPECT_PASS, EXPECT_VIOLATION,
                          MUTATIONS, PROVED, SCENARIOS, SKIPPED,
                          GLBarrierModel, expectation_verdict, explore,
                          get_mutation, get_scenario)

HARDENED_SAFE = ["fault-free-hardened", "stuck-row-tx-low",
                 "stuck-col-rel-high", "stuck-row-rel-low",
                 "miscount-row-tx"]


def test_registries_are_well_formed():
    assert set(SCENARIOS) >= {"fault-free", *HARDENED_SAFE,
                              "miscount-row-tx-unhardened"}
    assert set(MUTATIONS) == {"mh-early-flag", "mv-early-done",
                              "probation-skip-shadow"}
    for s in SCENARIOS.values():
        assert s.expect in (EXPECT_PASS, EXPECT_FAILOVER,
                            EXPECT_VIOLATION)
        assert s.description
    with pytest.raises(KeyError):
        get_scenario("no-such-scenario")
    with pytest.raises(KeyError):
        get_mutation("no-such-mutation")


@pytest.mark.parametrize("name", HARDENED_SAFE)
def test_hardened_scenarios_stay_safe(name):
    scenario = get_scenario(name)
    result = explore(GLBarrierModel(2, 4, scenario=scenario))
    assert result.ok, f"{name}: {result.violation}"
    assert result.properties["safety"] == PROVED
    assert result.properties["exactly-once"] == PROVED
    if not scenario.is_fault_free:
        # Retries stretch the episode past the 4-cycle bound by design.
        assert result.properties["four-cycle"] == SKIPPED
    matched, why = expectation_verdict(scenario, result)
    assert matched, why


def test_unhardened_miscount_is_caught():
    scenario = get_scenario("miscount-row-tx-unhardened")
    result = explore(GLBarrierModel(2, 4, scenario=scenario))
    assert result.violation is not None
    assert result.violation.prop in ("safety", "exactly-once")
    matched, why = expectation_verdict(scenario, result)
    assert matched, why


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutations_are_caught(name):
    # The shadow mutation only means anything during recovery probation;
    # it rides on the glitch scenario (see test_recovery_model.py for
    # the full schedule/replay round trip).
    scenario = (get_scenario("probation-glitch")
                if name == "probation-skip-shadow"
                else get_scenario("fault-free"))
    result = explore(GLBarrierModel(2, 2, scenario=scenario,
                                    mutation=name))
    assert result.violation is not None
    assert result.violation.prop == "safety"
    assert result.violation.action_indices


def test_expectation_verdict_rejects_mismatches():
    # A clean pass does NOT satisfy a violation expectation...
    clean = explore(GLBarrierModel(2, 2))
    matched, why = expectation_verdict(
        get_scenario("miscount-row-tx-unhardened"), clean)
    assert not matched and "violation" in why
    # ...and a capped run does not satisfy a pass expectation.
    capped = explore(GLBarrierModel(3, 3), max_states=20)
    matched, why = expectation_verdict(get_scenario("fault-free"), capped)
    assert not matched


def test_scenario_applicability_is_validated():
    with pytest.raises(ValueError):
        GLBarrierModel(4, 1, scenario=get_scenario("stuck-row-tx-low"))
    with pytest.raises(ValueError):
        GLBarrierModel(1, 4, scenario=get_scenario("stuck-col-rel-high"))
