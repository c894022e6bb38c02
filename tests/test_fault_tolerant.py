"""Integration tests: fault-tolerant protocol (shadows + step ledger)."""


import pytest

from repro import AgentStatus, FTParams, RollbackMode
from repro.agent.packages import Protocol
from repro.sim.failures import CrashPlan

from tests.helpers import (
    LinearAgent,
    bank_of,
    build_ft_ring,
    build_line_world,
    launch_ft_tours,
)

BACKENDS = ("world", "sharded", "proc")


def test_ft_clean_run_ships_shadows_and_discards_them():
    world = build_line_world(3, ft_params=FTParams(takeover_timeout=0.05))
    world.set_alternates("n1", "n2")
    world.set_alternates("n2", "n0")
    agent = LinearAgent("ft-agent", ["n0", "n1", "n2"])
    record = world.launch(agent, at="n0", method="step",
                          protocol=Protocol.FAULT_TOLERANT)
    world.run(max_events=500_000)
    assert record.status is AgentStatus.FINISHED
    assert world.metrics.count("ft.shadows_shipped") >= 2
    # All shadows garbage-collected once their work was claimed.
    assert world.metrics.count("ft.promotions") == 0
    for name in ("n0", "n1", "n2"):
        assert len(world.node(name).queue) == 0
    # Effects exactly once despite the replication.
    for i in range(3):
        assert bank_of(world, f"n{i}").peek("a")["balance"] == 990


def test_ft_takeover_executes_step_on_alternate_exactly_once():
    world = build_line_world(3, ft_params=FTParams(takeover_timeout=0.1))
    world.set_alternates("n1", "n2")
    # n1 dies in the middle of its step transaction (the package is in
    # its durable queue, the shadow already at n2) and stays down long.
    world.failures.apply_plan([CrashPlan("n1", at=0.08, duration=20.0)])
    agent = LinearAgent("ft-take", ["n0", "n1", "n2"])
    record = world.launch(agent, at="n0", method="step",
                          protocol=Protocol.FAULT_TOLERANT)
    world.run(until=30.0)
    world.run(max_events=500_000)
    assert record.status is AgentStatus.FINISHED
    assert world.metrics.count("ft.promotions") >= 1
    # n1's bank untouched (the alternate executed with its own bank);
    # n2 saw the promoted step plus its own step.
    assert bank_of(world, "n1").peek("a")["balance"] == 1_000
    assert bank_of(world, "n2").peek("a")["balance"] == 980
    # The stale primary package was discarded on recovery.
    assert (world.metrics.count("ft.stale_discarded")
            + world.metrics.count("packages.consumed.stale-agent")) >= 1
    assert len(world.node("n1").queue) == 0


def test_basic_protocol_blocks_where_ft_progresses():
    """Without FT, the same outage just stalls the agent until recovery."""
    world = build_line_world(3)
    world.failures.apply_plan([CrashPlan("n1", at=0.045, duration=5.0)])
    agent = LinearAgent("basic-block", ["n0", "n1", "n2"])
    record = world.launch(agent, at="n0", method="step")
    world.run(max_events=500_000)
    assert record.status is AgentStatus.FINISHED
    assert world.sim.now > 5.0
    assert bank_of(world, "n1").peek("a")["balance"] == 990


def test_ledger_claim_is_exactly_once_arbitration():
    from repro.tx.manager import Transaction

    world = build_line_world(2)
    t1 = Transaction("step", "n0")
    assert world.ft.claim(t1, work_id=123, node="n0") == "acquired"
    t1.commit()
    t2 = Transaction("step", "n1")
    assert world.ft.claim(t2, work_id=123, node="n1") == "stale"
    t2.abort()
    # Re-claim by the committed owner stays acquired (idempotent).
    t3 = Transaction("step", "n0")
    assert world.ft.claim(t3, work_id=123, node="n0") == "acquired"


def test_ledger_claim_undone_on_abort():
    from repro.tx.manager import Transaction

    world = build_line_world(2)
    t1 = Transaction("step", "n0")
    assert world.ft.claim(t1, work_id=77, node="n0") == "acquired"
    t1.abort()
    t2 = Transaction("step", "n1")
    assert world.ft.claim(t2, work_id=77, node="n1") == "acquired"


class DeclaringAgent(LinearAgent):
    """Declares 'alt' as the alternate compensation node for its n1 step."""

    def step(self, ctx):
        super().step(ctx)
        if ctx.node_name == "n1":
            ctx.declare_alternates("alt")


def test_ft_compensation_diverts_to_alternate_node():
    """Fault-tolerant rollback (Section 4.3 discussion): when the
    step's node stays down, the compensation runs on an alternate node
    that shares the resource — and the resume step is diverted the same
    way."""
    world = build_line_world(3, ft_params=FTParams(takeover_timeout=0.1))
    # A dedicated replica node hosts n1's bank (same resource object),
    # so it can run n1's compensations and diverted steps.
    shared_bank = bank_of(world, "n1")
    alt = world.add_node("alt")
    alt.share_resource(shared_bank)
    world.set_alternates("n1", "alt")

    agent = DeclaringAgent("ft-comp", ["n0", "n1", "n2"],
                           savepoints={0: "sp"}, rollback_to="sp")
    # n1 dies right after its step committed (~t=0.11 under the FT
    # protocol's claim overhead) and stays down for long.
    world.failures.apply_plan([CrashPlan("n1", at=0.15, duration=60.0)])
    record = world.launch(agent, at="n0", method="step",
                          protocol=Protocol.FAULT_TOLERANT,
                          mode=RollbackMode.BASIC)
    world.run(until=50.0)
    assert record.status is AgentStatus.FINISHED, record.failure
    assert record.rollbacks_completed == 1
    # The rollback did NOT have to wait out the 60s outage.
    assert record.finished_at < 30.0
    assert world.metrics.count("ft.compensation_diverted") >= 1
    # n1's bank was still compensated (via the shared resource).
    assert shared_bank.peek("a")["balance"] == 990


@pytest.mark.parametrize("crash_at", (1.0, 0.26))
@pytest.mark.parametrize("backend", BACKENDS)
def test_rollback_start_claims_its_package(backend, crash_at):
    """The rollback start consumes the wrap step's FT package, so it
    claims the package's ``work_id`` like any step: the package's
    shadow on n3 discards itself at its next check.  An unclaimed
    shadow would promote when n0 crashes — long after the agent
    finished (1.0), or mid-rollback (0.26), rolling the agent back a
    second time.  Either way the run must read as the crash-free one:
    one rollback, no promotion."""
    world = build_line_world(4, backend=backend,
                             ft_params=FTParams(takeover_timeout=0.05))
    try:
        world.set_alternates("n0", "n3")
        world.apply_crash_plans([CrashPlan("n0", at=crash_at,
                                           duration=50.0)])
        world.launch(LinearAgent("a", ["n0", "n1", "n2"],
                                 savepoints={0: "sp"}, rollback_to="sp"),
                     at="n0", method="step",
                     protocol=Protocol.FAULT_TOLERANT)
        world.run(until=120.0)
        outcome = world.outcomes()["a"]
        assert outcome["status"] == "finished"
        assert outcome["rollbacks_completed"] == 1
        assert world.counters().get("ft.promotions", 0) == 0
    finally:
        world.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_ft_ring_shadow_is_settled_before_it_expires(backend):
    """On the crash-free FT ring every shadow is discarded because its
    work was claimed, never because it ran out of takeover rounds."""
    world = build_ft_ring(backend, seed=5)
    try:
        launch_ft_tours(world)
        world.run(until=120.0)
        counters = world.counters()
        assert counters.get("ft.shadows_expired", 0) == 0
        assert counters["ft.shadows_shipped"] == (
            counters.get("ft.shadows_discarded", 0)
            + counters.get("ft.promotions", 0)
            + counters.get("ft.shadows_lost", 0))
    finally:
        world.close()
