"""Tests: cross-shard fault tolerance (bridged ledger, shard outages).

The contract under test (see :mod:`repro.exactly_once.fault_tolerant`
and :mod:`repro.node.sharded`):

* **placement-aware alternates** — with ``FTParams.cross_shard_alternates``
  the FT drivers prefer alternates hosted by other shards, falling back
  to same-shard ones (and unsharded worlds are unaffected);
* **whole-shard outage survival** — killing one kernel mid-run, in any
  protocol phase (shadow in flight, after the claim committed,
  mid-rollback), still completes every agent's itinerary exactly once:
  the effect sum over every bank equals the committed steps, and the
  replicated step ledger shows one holder per unit of work on a
  majority of live replicas;
* **determinism** — ``kill_shard`` at a fixed time yields identical
  surviving-agent outcomes and counters, run after run;
* **no silent drops** — a bridged shadow copy whose destination shard
  stays dead past the retry budget surfaces through the same
  ``net.gave_up`` counter / timeline event / callback as a direct send.
"""

import pytest

from repro import (
    AgentStatus,
    Bank,
    FTParams,
    NetworkParams,
    RollbackMode,
    ShardedWorld,
    World,
)
from repro.agent.packages import AgentPackage, PackageKind, Protocol
from repro.errors import UsageError
from repro.log.rollback_log import RollbackLog
from repro.resources.bank import OverdraftPolicy

from tests.helpers import LinearAgent

N_SHARDS = 3
N_NODES = 9
RING = [f"n{i}" for i in range(N_NODES)]


def build_ring(n_shards=N_SHARDS, seed=7, alternates=True, **kwargs):
    """A ring of banked nodes, round-robin over shards, with every
    node's step alternates being the next two ring nodes — which the
    round-robin placement puts in the two *other* shards."""
    kwargs.setdefault("ft_params", FTParams(takeover_timeout=0.05))
    world = ShardedWorld(n_shards=n_shards, seed=seed, **kwargs)
    for name in RING:
        node = world.add_node(name)
        bank = Bank("bank")
        bank.seed_account("a", 1_000, overdraft=OverdraftPolicy.ALLOWED)
        bank.seed_account("b", 1_000, overdraft=OverdraftPolicy.ALLOWED)
        node.add_resource(bank)
    if alternates:
        for i, name in enumerate(RING):
            world.set_alternates(name, RING[(i + 1) % N_NODES],
                                 RING[(i + 2) % N_NODES])
    return world


def launch_tours(world, n_agents=3, plan_len=4):
    """FT agents starting in shard 0 and touring through every shard."""
    records = []
    for a in range(n_agents):
        start = 3 * a  # n0 / n3 / n6 — all hosted by shard 0
        plan = [RING[(start + j) % N_NODES] for j in range(plan_len)]
        agent = LinearAgent(f"ag-{a}", plan)
        records.append(world.launch(agent, at=plan[0], method="step",
                                    protocol=Protocol.FAULT_TOLERANT))
    return records


def total_debits(world):
    """Sum of account-a debits across every bank: 10 per executed step,
    wherever it executed — the exactly-once effect measure."""
    return sum(
        1_000 - world.node(name).get_resource("bank").peek("a")["balance"]
        for name in RING)


def ledger_is_consistent(world):
    """Quorum agreement plus the never-fired conflict tripwires."""
    conflicts = sum(
        w.metrics.count("ft.ledger.mirror_conflicts")
        + w.metrics.count("ft.ledger.quorum_disagreement")
        for w in world.shards)
    return world.ledger_quorum_agrees() and conflicts == 0


# -- placement-aware alternates ------------------------------------------------


def make_step_package(agent_id="xft-unit", kind=PackageKind.STEP, **meta):
    agent = LinearAgent(agent_id, ["a0"])
    agent.set_control("a0", "step")
    return AgentPackage.pack(kind, agent, RollbackLog(),
                             step_index=0, **meta)


def test_alternates_prefer_other_shards():
    world = ShardedWorld(n_shards=2, seed=0)
    world.add_node("a0", shard=0)
    world.add_node("a1", shard=0)
    world.add_node("b0", shard=1)
    world.set_alternates("a0", "a1", "b0")
    ft = world.shards[0].ft
    package = make_step_package()
    # Cross-shard alternates first, same-shard fallback preserved.
    assert ft.alternates_for("a0", package) == ("b0", "a1")
    assert ft.step_alternates_for("a0") == ("b0", "a1")


def test_alternates_keep_config_order_when_knob_off():
    world = ShardedWorld(n_shards=2, seed=0,
                         ft_params=FTParams(cross_shard_alternates=False))
    world.add_node("a0", shard=0)
    world.add_node("a1", shard=0)
    world.add_node("b0", shard=1)
    world.set_alternates("a0", "a1", "b0")
    assert world.shards[0].ft.alternates_for(
        "a0", make_step_package("xft-off")) == ("a1", "b0")


def test_unsharded_world_alternates_unaffected():
    world = World(seed=0)
    world.add_nodes("a0", "a1", "b0")
    world.set_alternates("a0", "a1", "b0")
    assert world.ft.alternates_for(
        "a0", make_step_package("xft-plain")) == ("a1", "b0")
    assert world.ft_params.cross_shard_alternates  # knob exists, inert


def test_takeover_timeout_is_an_ft_params_field():
    world = World(seed=0, ft_params=FTParams(takeover_timeout=0.2))
    assert world.ft_params.takeover_timeout == 0.2
    with pytest.raises(TypeError):
        World(seed=0, ft_takeover_timeout=0.2)


def test_compensation_alternates_also_placement_ordered():
    world = ShardedWorld(n_shards=2, seed=0)
    world.add_node("a0", shard=0)
    world.add_node("a1", shard=0)
    world.add_node("b0", shard=1)
    package = make_step_package(
        "xft-comp", kind=PackageKind.COMPENSATION, sp_id="sp",
        alternates=("a1", "b0"))
    assert world.shards[0].ft.alternates_for("a0", package) == ("b0", "a1")


# -- kill_shard validation ------------------------------------------------------


def test_kill_shard_validates_arguments():
    world = build_ring()
    with pytest.raises(UsageError):
        world.kill_shard(7, at=0.1)
    with pytest.raises(UsageError):
        world.kill_shard(1, at=0.2, restart_at=0.2)
    with pytest.raises(UsageError):
        world.kill_shard(1, at=-0.5)


# -- whole-shard outage survival ------------------------------------------------

#: Kill times sweeping the protocol phases of the ~0.4s three-agent run:
#: before any shard-1 step ran (shadow in flight), around the first
#: shard-1 claims, and while later steps / wrap hops are mid-flight.
KILL_TIMES = (0.01, 0.04, 0.055, 0.08, 0.15, 0.3)


@pytest.mark.parametrize("kill_at", KILL_TIMES)
def test_shard_kill_any_phase_completes_exactly_once(kill_at):
    world = build_ring()
    world.kill_shard(1, at=kill_at)
    records = launch_tours(world)
    world.run()
    assert not world.shard_alive(1)
    for record in records:
        assert record.status is AgentStatus.FINISHED, record.failure
        assert record.steps_committed == 5  # 4 tour steps + wrap
    # Exactly-once effects: every tour step debited one bank once,
    # wherever (primary or promoted alternate) it executed.
    assert total_debits(world) == 10 * 4 * len(records)
    assert ledger_is_consistent(world)


def test_shard_kill_mid_run_promotes_cross_shard_shadows():
    # t=0.055 lands inside the second hop's step transactions at the
    # shard-1 nodes: the crash aborts them, the queue undo restores the
    # primaries into the dead shard, and the cross-shard shadows are
    # the only live copies.
    world = build_ring()
    world.kill_shard(1, at=0.055)
    launch_tours(world)
    world.run()
    promotions = sum(w.metrics.count("ft.promotions") for w in world.shards)
    assert promotions >= 1
    # Promotions happened in surviving shards only.
    assert world.shards[1].metrics.count("ft.promotions") == 0
    # The shard-1 banks were never touched after the kill: each debit
    # landed on a live shard's bank exactly once.
    assert total_debits(world) == 120
    assert ledger_is_consistent(world)


@pytest.mark.parametrize("seed", (3, 11, 29))
def test_shard_kill_exactly_once_across_seeds(seed):
    world = build_ring(seed=seed)
    world.kill_shard(1, at=0.06)
    records = launch_tours(world)
    world.run()
    for record in records:
        assert record.status is AgentStatus.FINISHED, record.failure
    assert total_debits(world) == 120
    assert ledger_is_consistent(world)


def test_shard_kill_without_cross_shard_alternates_blocks():
    """The control experiment: same outage, but alternates confined to
    the victim's own shard — the work has nowhere to fail over, so the
    agents whose tours need shard 1 cannot finish."""
    world = build_ring(alternates=False)
    # Same-shard alternates only: n1 -> n4 -> n7 -> n1 (all shard 1).
    for i in (1, 4, 7):
        world.set_alternates(f"n{i}", f"n{(i + 3) % N_NODES}")
    world.kill_shard(1, at=0.04)
    records = launch_tours(world)
    world.run(until=20.0)
    assert any(r.status is AgentStatus.RUNNING for r in records)


#: The outage sweep: (shards killed, restart time, cross-shard
#: alternates?) per scenario, each run at three seeds.
OUTAGE_SCENARIOS = {
    "no-outage": ((), None, True),
    "kill-1": ((1,), None, True),
    "kill-1-restart": ((1,), 2.0, True),
    "kill-2": ((1, 2), None, True),
    "kill-1-shard-local": ((1,), None, False),
}
OUTAGE_KILL_AT = 0.055  # inside the second hop's step transactions


def run_outage_scenario(name, seed, n_agents=6):
    """Six FT tours from shard 0 under one whole-shard outage scenario;
    returns (completion rate, exactly once, ledger agrees, first
    promotion after the kill or None)."""
    kills, restart_at, cross_shard = OUTAGE_SCENARIOS[name]
    world = build_ring(seed=seed, alternates=cross_shard,
                       ft_params=FTParams(takeover_timeout=0.05,
                                          cross_shard_alternates=cross_shard))
    if not cross_shard:
        # Alternates confined to the victim's own shard.
        for i, node in enumerate(RING):
            world.set_alternates(node, RING[(i + 3) % N_NODES])
    for offset, shard in enumerate(kills):
        world.kill_shard(shard, at=OUTAGE_KILL_AT + 0.005 * offset,
                         restart_at=restart_at)
    records = []
    for a in range(n_agents):
        start = 3 * (a % 3)  # n0/n3/n6 — all shard 0, which survives
        plan = [RING[(start + j) % N_NODES] for j in range(4)]
        records.append(world.launch(
            LinearAgent(f"xft-{name}-{seed}-{a}", plan), at=plan[0],
            method="step", protocol=Protocol.FAULT_TOLERANT))
    # Bounded: the shard-local scenario retries against the dead shard
    # forever — the failure it demonstrates.
    world.run(until=60.0)
    finished = sum(r.status is AgentStatus.FINISHED for r in records)
    # Each committed tour step (the wrap hop transfers nothing)
    # debited one bank exactly once, wherever it executed.
    committed = sum(min(r.steps_committed, 4) for r in records)
    promotions = [t for w in world.shards
                  for (t, _kind, _d) in w.metrics.events("ft-promotion")]
    recovery = (min(t for t in promotions if t >= OUTAGE_KILL_AT)
                - OUTAGE_KILL_AT if kills and promotions else None)
    return (finished / n_agents, total_debits(world) == 10 * committed,
            ledger_is_consistent(world), recovery)


@pytest.mark.parametrize("name", sorted(OUTAGE_SCENARIOS))
def test_outage_sweep_completes_exactly_once(name):
    """Completion and exactly-once against the shard-outage rate:
    cross-shard alternates finish every tour at every outage rate, and
    no scenario, the stranded one included, double-executes."""
    rows = [run_outage_scenario(name, seed) for seed in (7, 23, 71)]
    for completion, exactly_once, ledger_agrees, _ in rows:
        assert exactly_once and ledger_agrees
        if OUTAGE_SCENARIOS[name][2]:
            assert completion == 1.0
        else:
            assert completion < 1.0
    if name == "kill-1":
        latencies = [recovery for *_, recovery in rows]
        assert None not in latencies
        # Checks sit on the takeover_timeout grid (0.05): the first one
        # after the kill at 0.055 sees the primary down at 0.1, and the
        # next, once a bridge flush has settled the mirrors, promotes.
        assert max(latencies) == pytest.approx(0.095)
        assert max(latencies) <= 2 * 0.05


def test_shard_kill_with_restart_discards_stale_primaries():
    world = build_ring()
    world.kill_shard(1, at=0.08, restart_at=2.0)
    records = launch_tours(world)
    world.run()
    assert world.shard_alive(1)
    for record in records:
        assert record.status is AgentStatus.FINISHED, record.failure
    assert total_debits(world) == 120
    assert ledger_is_consistent(world)
    restarts = sum(w.metrics.count("shard.restarts") for w in world.shards)
    assert restarts == 1
    # Any primary package that survived in shard 1's durable queues was
    # re-dispatched at recovery and discarded against the replicated
    # ledger rather than re-executed (the effect sum above proves no
    # double execution either way).
    for name in ("n1", "n4", "n7"):
        assert len(world.node(name).queue) == 0


def test_restarted_replica_catches_up_on_mirrors():
    world = build_ring()
    world.kill_shard(1, at=0.08, restart_at=2.0)
    launch_tours(world)
    world.run()
    claims = world.ledger_claims()
    assert claims  # FT tours really claimed work
    for work_id, replicas in claims.items():
        holders = set(replicas.values())
        assert len(holders) == 1, (work_id, replicas)
        # Every replica — including the restarted one — holds the claim.
        assert set(replicas) == {0, 1, 2}, (work_id, replicas)


def test_shard_kill_is_deterministic():
    def run_once():
        world = build_ring()
        world.kill_shard(1, at=0.08)
        launch_tours(world)
        world.run()
        return world

    first, second = run_once(), run_once()
    assert first.outcomes() == second.outcomes()
    assert first.counters() == second.counters()
    assert first.epochs_run == second.epochs_run
    assert first.events_processed() == second.events_processed()


# -- mid-rollback outage ---------------------------------------------------------


class XShardDeclaringAgent(LinearAgent):
    """Declares 'alt' as the alternate compensation node for its n1 step."""

    def step(self, ctx):
        super().step(ctx)
        if ctx.node_name == "n1":
            ctx.declare_alternates("alt")


def test_shard_kill_mid_rollback_diverts_compensation():
    """Fault-tolerant rollback across shards: the compensation (and the
    resume step) for a step executed in the dead shard divert to an
    alternate in a surviving shard that replicates the resource."""
    world = ShardedWorld(n_shards=3, seed=5,
                         ft_params=FTParams(takeover_timeout=0.05))
    for name, shard in (("n0", 0), ("n1", 1), ("n2", 2), ("alt", 2)):
        node = world.add_node(name, shard=shard)
        if name != "alt":
            bank = Bank("bank")
            bank.seed_account("a", 1_000, overdraft=OverdraftPolicy.ALLOWED)
            bank.seed_account("b", 1_000, overdraft=OverdraftPolicy.ALLOWED)
            node.add_resource(bank)
    shared_bank = world.node("n1").get_resource("bank")
    world.node("alt").share_resource(shared_bank)
    world.set_alternates("n1", "alt")

    agent = XShardDeclaringAgent("xft-rb", ["n0", "n1", "n2"],
                                 savepoints={0: "sp"}, rollback_to="sp")
    record = world.launch(agent, at="n0", method="step",
                          protocol=Protocol.FAULT_TOLERANT,
                          mode=RollbackMode.BASIC)
    # The forward pass commits n1's step well before t=0.3; the wrap hop
    # then initiates the rollback, which must traverse the dead shard's
    # step via the alternate.
    world.kill_shard(1, at=0.3)
    world.run(until=60.0)
    assert record.status is AgentStatus.FINISHED, record.failure
    assert record.rollbacks_completed == 1
    diverted = sum(w.metrics.count("ft.compensation_diverted")
                   + w.metrics.count("ft.step_diverted")
                   + w.metrics.count("ft.promotions")
                   for w in world.shards)
    assert diverted >= 1
    # n1's bank was compensated and re-executed through the shared
    # replica: one net debit, with the compensation counted in between.
    assert shared_bank.peek("a")["balance"] == 990
    assert ledger_is_consistent(world)


# -- bridged shadow give-up surfacing --------------------------------------------


def test_bridged_shadow_give_up_surfaces_like_direct_sends():
    """A shadow copy bound for a shard that stays dead past the retry
    budget is surfaced — counter, timeline event and callback — exactly
    like a direct send's give-up, never silently dropped."""
    world = ShardedWorld(n_shards=2, seed=1,
                         net_params=NetworkParams(max_retries=2),
                         ft_params=FTParams(takeover_timeout=0.05))
    for name, shard in (("n0", 0), ("n2", 0), ("n1", 1)):
        node = world.add_node(name, shard=shard)
        bank = Bank("bank")
        bank.seed_account("a", 1_000, overdraft=OverdraftPolicy.ALLOWED)
        bank.seed_account("b", 1_000, overdraft=OverdraftPolicy.ALLOWED)
        node.add_resource(bank)
    world.set_alternates("n2", "n1")  # the only alternate is doomed
    world.kill_shard(1, at=0.0)
    agent = LinearAgent("xft-lost", ["n0", "n2"])
    record = world.launch(agent, at="n0", method="step",
                          protocol=Protocol.FAULT_TOLERANT)
    world.run()
    assert record.status is AgentStatus.FINISHED, record.failure
    source = world.shards[0].metrics
    assert source.count("net.gave_up") >= 1
    gave_up = source.events("net-gave-up")
    assert any(e[2]["message_kind"] == "shadow-copy" for e in gave_up)
    assert source.count("ft.shadows_lost") >= 1
    lost = source.events("ft-shadow-lost")
    assert any(e[2]["node"] == "n1" for e in lost)


def test_shadow_retained_across_outage_delivers_after_restart():
    """With budget to spare, a bridged shadow waits out the outage and
    arrives once the destination shard restarts."""
    world = ShardedWorld(n_shards=2, seed=1,
                         ft_params=FTParams(takeover_timeout=0.05))
    for name, shard in (("n0", 0), ("n2", 0), ("n1", 1)):
        node = world.add_node(name, shard=shard)
        bank = Bank("bank")
        bank.seed_account("a", 1_000, overdraft=OverdraftPolicy.ALLOWED)
        bank.seed_account("b", 1_000, overdraft=OverdraftPolicy.ALLOWED)
        node.add_resource(bank)
    world.set_alternates("n2", "n1")
    world.kill_shard(1, at=0.0, restart_at=0.5)
    agent = LinearAgent("xft-wait", ["n0", "n2"])
    record = world.launch(agent, at="n0", method="step",
                          protocol=Protocol.FAULT_TOLERANT)
    world.run()
    assert record.status is AgentStatus.FINISHED, record.failure
    assert world.shards[0].metrics.count("ft.shadows_lost") == 0
    # The copy reached shard 1 after the restart (and was then
    # discarded by its watchdog once the claim was visible).
    assert world.shards[1].metrics.count("bridge.shadows") >= 1
