"""Integration tests: rollback under failures (Section 4.3 guarantees)."""


from repro import AgentStatus, MobileAgent, RollbackMode
from repro.bench import make_tour_plan, run_tour
from repro.bench.harness import build_tour_world
from repro.node.runtime import RetryPolicy
from repro.sim.failures import CrashPlan

from tests.helpers import LinearAgent, bank_of, build_line_world


def test_crash_during_compensation_retries_and_completes():
    """A compensation transaction aborted by a crash re-runs from the
    durable queue; the rollback still completes with correct state."""
    nodes = [f"n{i}" for i in range(4)]
    plan = make_tour_plan(nodes, 5, mixed_fraction=1.0, rollback_depth=4)
    clean = run_tour(plan, 4, mode=RollbackMode.BASIC, seed=7)

    world = build_tour_world(4, seed=7)
    # The forward tour takes ~0.1s; compensations run right after.
    # Crash every node briefly in that window.
    world.failures.apply_plan(
        [CrashPlan(f"n{i}", at=0.12 + 0.03 * i, duration=0.1)
         for i in range(4)])
    crashed = run_tour(plan, 4, mode=RollbackMode.BASIC, seed=7,
                       world=world)
    assert crashed.status is AgentStatus.FINISHED
    assert crashed.result == clean.result
    assert crashed.rollbacks == 1
    assert crashed.sim_time >= clean.sim_time


def test_rollback_blocked_by_down_node_waits_for_recovery():
    """Basic mechanism: the agent must reach the step's node; while it
    is down the rollback stalls, then proceeds at recovery."""
    world = build_line_world(3)
    agent = LinearAgent("waiter", ["n0", "n1", "n2"],
                        savepoints={0: "sp"}, rollback_to="sp")
    # n1 goes down before the rollback's compensation reaches it.
    world.failures.apply_plan([CrashPlan("n1", at=0.05, duration=3.0)])
    record = world.launch(agent, at="n0", method="step",
                          mode=RollbackMode.BASIC)
    world.run(max_events=500_000)
    assert record.status is AgentStatus.FINISHED
    assert record.rollbacks_completed == 1
    assert world.sim.now > 3.0  # had to outwait the outage


def test_optimized_rollback_with_unreachable_resource_node_retries():
    world = build_line_world(3)
    agent = LinearAgent("shipper", ["n0", "n1", "n2"],
                        savepoints={0: "sp"}, rollback_to="sp")
    # The forward tour passes n1 around t≈0.07 and the rollback's RCE
    # shipment to n1 happens around t≈0.2: crash n1 in between.
    world.failures.apply_plan([CrashPlan("n1", at=0.12, duration=2.0)])
    record = world.launch(agent, at="n0", method="step",
                          mode=RollbackMode.OPTIMIZED)
    world.run(max_events=500_000)
    assert record.status is AgentStatus.FINISHED
    # The RCE list for n1 could not be shipped while it was down.
    assert world.metrics.count("abort.dest-unreachable") >= 1
    assert record.rollbacks_completed == 1
    for i in range(3):
        assert bank_of(world, f"n{i}").peek("a")["balance"] == 990


class DrainedAccount(MobileAgent):
    """Forces a failing compensation: the money is gone (Section 3.2).

    Step 1 (n0) sets the savepoint; step 2 (n1) deposits 20 into the
    victim account (compensation: withdraw 20); an external transaction
    then drains the account, so the compensation fails when step 3
    rolls back.
    """

    def begin(self, ctx):
        ctx.savepoint("sp")
        ctx.goto("n1", "deposit_there")

    def deposit_there(self, ctx):
        bank = ctx.resource("bank")
        bank.deposit("victim", 20)
        ctx.log_resource_compensation(
            "t.undo_deposit", {"account": "victim", "amount": 20},
            resource="bank")
        ctx.log_agent_compensation("t.mark", {"tag": "rolled"})
        ctx.goto("n0", "regret")

    def regret(self, ctx):
        if not self.wro.get("marks"):
            ctx.rollback("sp")
        ctx.finish({"marks": self.wro["marks"]})


def drain_victim(bank, amount=20):
    from repro.tx.manager import Transaction
    t = Transaction("external", "n1")
    bank.withdraw(t, "victim", amount)
    t.commit()


def refill_victim(bank, amount=20):
    from repro.tx.manager import Transaction
    t = Transaction("external", "n1")
    bank.deposit(t, "victim", amount)
    t.commit()


def test_permanently_failing_compensation_hits_retry_policy():
    world = build_line_world(2,
                             retry_policy=RetryPolicy(max_attempts=3,
                                                      backoff=0.01))
    bank = bank_of(world, "n1")
    bank.seed_account("victim", 0)
    agent = DrainedAccount("unlucky")
    record = world.launch(agent, at="n0", method="begin",
                          mode=RollbackMode.BASIC)
    # Drain the account after the deposit committed but before the
    # rollback's compensation reaches it.
    world.sim.schedule(0.09, lambda: drain_victim(bank))
    world.run(max_events=500_000)
    assert record.status is AgentStatus.FAILED
    assert "permanently failing" in record.failure
    assert world.metrics.count("compensation.op_failures") >= 2


def test_transiently_failing_compensation_eventually_succeeds():
    """CompensationFailed retried until the blocking condition clears."""
    world = build_line_world(2,
                             retry_policy=RetryPolicy(max_attempts=None,
                                                      backoff=0.01))
    bank = bank_of(world, "n1")
    bank.seed_account("victim", 0)
    agent = DrainedAccount("patient")
    record = world.launch(agent, at="n0", method="begin",
                          mode=RollbackMode.BASIC)
    world.sim.schedule(0.09, lambda: drain_victim(bank))
    world.sim.schedule(1.5, lambda: refill_victim(bank))
    world.run(until=30.0)
    assert record.rollbacks_completed == 1
    assert world.metrics.count("compensation.op_failures") >= 1
    assert record.status is AgentStatus.FINISHED
    assert record.result == {"marks": ["rolled"]}


def test_random_outage_storm_never_loses_the_rollback():
    """EVAL-FT in miniature: Poisson outages, rollback still completes."""
    nodes = [f"n{i}" for i in range(4)]
    plan = make_tour_plan(nodes, 5, mixed_fraction=0.5, rollback_depth=4)
    world = build_tour_world(4, seed=11)
    world.failures.random_outages(
        [f"n{i}" for i in range(4)], horizon=5.0, rate_per_s=0.4,
        mean_downtime=0.2)
    result = run_tour(plan, 4, mode=RollbackMode.BASIC, seed=11,
                      world=world)
    assert result.status is AgentStatus.FINISHED
    assert result.rollbacks == 1
    assert result.result["rolled_back"] == 1
