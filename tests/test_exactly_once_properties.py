"""Property tests: exactly-once effects under random crash schedules.

The fundamental substrate guarantee ([11]): for any schedule of
non-lasting node outages, every step's resource effects are applied
exactly once, the agent is neither lost nor duplicated, and the final
agent state equals the crash-free run's.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AgentStatus
from repro.agent.packages import Protocol
from repro.sim.failures import CrashPlan

from tests.helpers import LinearAgent, bank_of, build_line_world

SLOW = dict(max_examples=15, deadline=None,
            suppress_health_check=[HealthCheck.too_slow])

crash_plans = st.lists(
    st.builds(CrashPlan,
              node=st.sampled_from(["n0", "n1", "n2", "n3"]),
              at=st.floats(min_value=0.0, max_value=1.0),
              duration=st.floats(min_value=0.01, max_value=0.5)),
    max_size=6)


def run_world(plans, n_nodes=4, seed=0, protocol=Protocol.BASIC,
              alternates=()):
    world = build_line_world(n_nodes, seed=seed)
    for node, alts in alternates:
        world.set_alternates(node, *alts)
    # Drop overlapping outages for the same node (the injector ignores
    # a crash of an already-down node, but recovery pairing must stay
    # sane for the test's own bookkeeping).
    filtered = []
    for plan in sorted(plans, key=lambda p: p.at):
        if all(not (p.node == plan.node
                    and p.at <= plan.at < p.recovery_time)
               for p in filtered):
            filtered.append(plan)
    world.failures.apply_plan(filtered)
    agent = LinearAgent(f"eo-{seed}-{len(plans)}",
                        [f"n{i}" for i in range(n_nodes)])
    record = world.launch(agent, at="n0", method="step", protocol=protocol)
    world.run(max_events=2_000_000)
    return world, record


@given(crash_plans, st.integers(min_value=0, max_value=500))
@settings(**SLOW)
def test_exactly_once_under_random_outages(plans, seed):
    world, record = run_world(plans, seed=seed)
    assert record.status is AgentStatus.FINISHED
    # Exactly one committed transfer per node, no matter the schedule.
    for i in range(4):
        assert bank_of(world, f"n{i}").peek("a")["balance"] == 990
    # The WRO notes reflect exactly one pass.
    assert record.result["notes"] == [f"visited-{i}" for i in range(4)]
    # No agent package left anywhere.
    for i in range(4):
        assert len(world.node(f"n{i}").queue) == 0


@given(crash_plans, st.integers(min_value=0, max_value=500))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_exactly_once_with_ft_protocol_and_shadows(plans, seed):
    world, record = run_world(
        plans, seed=seed, protocol=Protocol.FAULT_TOLERANT,
        alternates=[("n1", ["n2"]), ("n2", ["n3"])])
    assert record.status is AgentStatus.FINISHED
    # Every node's own bank saw its effect at most once; a promoted
    # takeover moves a step's effect to the alternate's bank, so the
    # global sum is the exactly-once witness here.
    total_moved = sum(1_000 - bank_of(world, f"n{i}").peek("a")["balance"]
                      for i in range(4))
    assert total_moved == 40
    for i in range(4):
        moved = 1_000 - bank_of(world, f"n{i}").peek("a")["balance"]
        assert moved % 10 == 0 and 0 <= moved <= 30


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_crash_free_runs_are_seed_invariant_in_outcome(seed):
    world, record = run_world([], seed=seed)
    assert record.status is AgentStatus.FINISHED
    assert record.steps_committed == 5
    assert record.result["pos"] == 4
