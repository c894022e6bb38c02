"""Integration tests: network partitions (temporary, per the paper)."""


from repro import AgentStatus, RollbackMode
from repro.sim.failures import PartitionPlan

from tests.helpers import LinearAgent, bank_of, build_line_world


def test_partition_blocks_step_commit_until_heal():
    world = build_line_world(2)
    world.failures.apply_partitions(
        [PartitionPlan("n0", "n1", at=0.0, duration=1.0)])
    agent = LinearAgent("parted", ["n0", "n1"])
    record = world.launch(agent, at="n0", method="step")
    world.run(max_events=500_000)
    assert record.status is AgentStatus.FINISHED
    assert world.sim.now > 1.0
    assert world.metrics.count("2pc.aborts") >= 1
    assert bank_of(world, "n1").peek("a")["balance"] == 990


def test_partition_blocks_rce_shipping_until_heal():
    world = build_line_world(3)
    agent = LinearAgent("rce-part", ["n0", "n1", "n2"],
                        savepoints={0: "sp"}, rollback_to="sp")
    # Partition the link the RCE shipment for n1 will need, during the
    # rollback window (the agent sits on n0 in optimized mode).
    world.failures.apply_partitions(
        [PartitionPlan("n0", "n1", at=0.12, duration=2.0)])
    record = world.launch(agent, at="n0", method="step",
                          mode=RollbackMode.OPTIMIZED)
    world.run(max_events=500_000)
    assert record.status is AgentStatus.FINISHED
    assert record.rollbacks_completed == 1
    assert world.sim.now > 2.0
    for i in range(3):
        assert bank_of(world, f"n{i}").peek("a")["balance"] == 990


def test_partition_unrelated_link_no_effect():
    world = build_line_world(3)
    world.failures.apply_partitions(
        [PartitionPlan("n0", "n2", at=0.0, duration=10.0)])
    agent = LinearAgent("bypass", ["n0", "n1"])  # never uses n0-n2
    record = world.launch(agent, at="n0", method="step")
    world.run(max_events=500_000)
    assert record.status is AgentStatus.FINISHED
    assert record.finished_at < 1.0  # unaffected by the unrelated cut


def test_asymmetric_routing_not_modelled_partition_is_symmetric():
    world = build_line_world(2)
    world.failures.force_partition("n0", "n1")
    assert not world.transport.reachable("n0", "n1")
    assert not world.transport.reachable("n1", "n0")
    world.failures.force_heal("n0", "n1")
    assert world.transport.reachable("n0", "n1")
