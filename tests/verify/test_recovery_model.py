"""Recovery FSM verification: properties, mutation catch, replay.

The model checker proves the self-healing extension safe -- including
the two recovery-only properties ``bounded-recovery`` (a degraded
network always has a probe pending) and ``flap-bound`` (re-admission
flaps never exceed the budget) -- and the planted ``probation-skip-
shadow`` mutation is caught, and its schedule confirmed on the real
simulator, closing the model <-> hardware loop for the recovery path.
"""

import pytest

from repro.verify import (GLBarrierModel, P_FLAP, P_RECOVERY, PROVED,
                          SKIPPED, expectation_verdict, explore,
                          get_scenario, replay_actions, replay_on_simulator)

RECOVERY_SCENARIOS = ["intermittent-row-tx-recovers",
                      "flaky-row-tx-retires", "probation-glitch"]


@pytest.mark.parametrize("name", RECOVERY_SCENARIOS)
def test_recovery_scenarios_prove_all_properties(name):
    scenario = get_scenario(name)
    result = explore(GLBarrierModel(2, 2, scenario=scenario))
    assert result.ok, f"{name}: {result.violation}"
    assert result.properties["safety"] == PROVED
    assert result.properties["exactly-once"] == PROVED
    assert result.properties["deadlock-freedom"] == PROVED
    assert result.properties[P_RECOVERY] == PROVED
    assert result.properties[P_FLAP] == PROVED
    matched, why = expectation_verdict(scenario, result)
    assert matched, why


def test_recovery_properties_absent_without_recovery():
    result = explore(GLBarrierModel(2, 2))
    assert P_RECOVERY not in result.properties
    assert P_FLAP not in result.properties


def test_recovery_scenarios_scale_to_2x4():
    scenario = get_scenario("intermittent-row-tx-recovers")
    result = explore(GLBarrierModel(2, 4, scenario=scenario))
    assert result.ok and result.properties[P_RECOVERY] == PROVED
    assert result.properties["four-cycle"] == SKIPPED


def test_shadow_mutation_caught_and_confirmed_on_simulator():
    """The full loop: explore finds the safety violation the skipped
    shadow check allows, its path reads off as per-cycle schedules plus
    glitch cycles, and the real network -- with the same mutation --
    reproduces the early release.  The un-mutated network under the
    *same* schedule withholds the release: the shadow check is exactly
    the mechanism standing between the glitch and the violation."""
    scenario = get_scenario("probation-glitch")
    model = GLBarrierModel(2, 2, scenario=scenario,
                           mutation="probation-skip-shadow")
    result = explore(model)
    assert result.violation is not None
    assert result.violation.prop == "safety"

    _, _, violation = replay_actions(model,
                                     result.violation.action_indices)
    assert violation is not None
    schedules, glitches = result.violation.schedule(model)
    assert glitches, "counterexample must use the planted glitch"

    mutated = replay_on_simulator(2, 2, schedules,
                                  scenario=scenario,
                                  mutation="probation-skip-shadow",
                                  glitches=glitches)
    assert mutated.confirmed, mutated.summary()

    guarded = replay_on_simulator(2, 2, schedules,
                                  scenario=scenario,
                                  glitches=glitches)
    assert not guarded.confirmed, guarded.summary()
