"""Integration tests: node dispatch machinery and error paths."""

import pytest

from repro import AgentStatus, RollbackMode
from repro.agent.packages import AgentPackage, PackageKind
from repro.errors import UsageError
from repro.log.rollback_log import RollbackLog
from repro.sim.failures import CrashPlan

from tests.helpers import LinearAgent, bank_of, build_line_world, make_world


def test_dispatch_deduplicates_scheduling():
    world = build_line_world(1)
    node = world.node("n0")
    agent = LinearAgent("dedupe", ["n0"])
    record = world.launch(agent, at="n0", method="step")
    item = node.queue.head()
    # Request dispatch many times before the simulator runs: only one
    # execution may happen (the others find the item consumed).
    for _ in range(5):
        node.request_dispatch(item)
    world.run(max_events=500_000)
    assert record.status is AgentStatus.FINISHED
    assert record.steps_committed == 2
    assert bank_of(world, "n0").peek("a")["balance"] == 990


def test_crash_wipes_pending_rollback_marker_step_reruns():
    """The paper's Figure 4a failure case: if the transaction writing
    the rollback package fails (node crash), the aborting step simply
    re-executes and re-initiates the rollback — "still a correct
    execution"."""
    world = build_line_world(2)
    agent = LinearAgent("reinit", ["n0", "n1"], savepoints={0: "sp"},
                        rollback_to="sp")
    record = world.launch(agent, at="n0", method="step",
                          mode=RollbackMode.BASIC)
    # The wrap step on n0 requests the rollback around t≈0.09; crash n0
    # immediately after so the rollback-start transaction dies.
    world.failures.apply_plan([CrashPlan("n0", at=0.095, duration=0.3)])
    world.run(max_events=500_000)
    assert record.status is AgentStatus.FINISHED
    # The rollback was initiated at least twice (first one wiped by the
    # crash) but completed exactly once with correct state.
    assert record.rollbacks_initiated >= 1
    assert record.rollbacks_completed == 1
    assert bank_of(world, "n1").peek("a")["balance"] == 990
    assert record.result["compensations"] == 1


def test_misrouted_package_fails_agent():
    world = build_line_world(2)
    agent = LinearAgent("misrouted", ["n0"])
    agent.set_control("n0", "step")
    log = RollbackLog()
    package = AgentPackage.pack(PackageKind.STEP, agent, log, step_index=0)
    from repro.node.runtime import AgentRecord
    from repro.agent.packages import Protocol
    record = AgentRecord(agent_id=agent.agent_id,
                         mode=RollbackMode.BASIC, protocol=Protocol.BASIC)
    world.agents[agent.agent_id] = record
    # Deliver the n0 package into n1's queue.
    world.node("n1").queue.enqueue(package, package.size_bytes)
    world.run(max_events=500_000)
    assert record.status is AgentStatus.FAILED
    assert "landed on" in record.failure
    assert len(world.node("n1").queue) == 0  # consumed


def test_corrupt_blob_fails_agent_cleanly():
    world = build_line_world(1)
    agent = LinearAgent("corrupt", ["n0"])
    world.launch(agent, at="n0", method="step")
    item = world.node("n0").queue.head()
    item.payload.blob = b"garbage"
    with pytest.raises(Exception):
        world.run(max_events=500_000)


def test_duplicate_node_and_agent_rejected():
    world = build_line_world(1)
    with pytest.raises(UsageError):
        world.add_node("n0")
    agent = LinearAgent("dup", ["n0"])
    world.launch(agent, at="n0", method="step")
    with pytest.raises(UsageError):
        world.launch(agent, at="n0", method="step")
    with pytest.raises(UsageError):
        world.node("ghost")


def test_duplicate_resource_rejected_but_share_allowed():
    world = build_line_world(1)
    from repro.resources.bank import Bank
    node = world.node("n0")
    with pytest.raises(UsageError):
        node.add_resource(Bank("bank"))  # name exists from helper
    other = Bank("other-bank")
    node.add_resource(other)
    node2 = world.add_node("extra")
    node2.share_resource(other)
    assert node2.get_resource("other-bank") is other


@pytest.mark.parametrize("backend", ["world", "sharded", "proc"])
def test_share_resource_refuses_a_hosted_name(backend):
    """A node hosting its own ``bank`` cannot share another node's:
    refused like a duplicate ``add_resource``, before the journal sees
    it, on every backend.  A share of a free name is journaled once
    and replays on resume."""
    from repro.journal import WorldJournal, resume_world
    from repro.resources.bank import Bank

    journal = WorldJournal()
    world = make_world(backend, n_shards=2, journal=journal)
    try:
        for name, balance in (("a", 5), ("b", 7), ("c", None)):
            node = (world.add_node(name) if backend == "world"
                    else world.add_node(name, shard=0))
            if balance is not None:
                bank = Bank("bank")
                bank.seed_account("x", balance)
                node.add_resource(bank)
        with pytest.raises(UsageError, match="'bank' exists"):
            world.node("b").share_resource_from("a", "bank")
        world.node("c").share_resource_from("a", "bank")
        assert world.resource_state("b", "bank").peek("x")["balance"] == 7
        assert world.resource_state("c", "bank").peek("x")["balance"] == 5
    finally:
        world.close()
    kinds = [kind for kind, _ in WorldJournal(journal.backend)
             .recover().entries]
    assert kinds.count("share_resource") == 1
    resumed = resume_world(WorldJournal(journal.backend))
    try:
        assert resumed.resource_state("b", "bank").peek("x")["balance"] == 7
        assert resumed.resource_state("c", "bank").peek("x")["balance"] == 5
    finally:
        resumed.close()


def test_finished_agents_leave_no_queue_residue():
    world = build_line_world(3)
    records = [world.launch(LinearAgent(f"clean-{i}", ["n0", "n1", "n2"]),
                            at="n0", method="step") for i in range(3)]
    world.run(max_events=500_000)
    assert all(r.status is AgentStatus.FINISHED for r in records)
    for name in ("n0", "n1", "n2"):
        assert len(world.node(name).queue) == 0
        assert world.node(name).txm.active == set()


def test_locks_all_released_after_run():
    world = build_line_world(2)
    agent = LinearAgent("lockfree", ["n0", "n1"], savepoints={0: "sp"},
                        rollback_to="sp")
    world.launch(agent, at="n0", method="step", mode=RollbackMode.BASIC)
    world.run(max_events=500_000)
    for name in ("n0", "n1"):
        bank = bank_of(world, name)
        assert bank.locks.held_count() == 0
