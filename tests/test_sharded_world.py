"""Tests: sharded multi-world execution and the cross-shard bridge.

The contract under test (see :mod:`repro.node.sharded`):

* **outcome equivalence** — a workload run on N shards produces
  identical per-agent outcomes to the same workload on 1 shard at the
  same seed (the bridge delays deliveries to the next barrier but never
  changes what an agent computes);
* **determinism** — same seed and shard count ⇒ identical outcomes and
  identical aggregate metrics, run after run;
* **reliability** — cross-shard packages survive destination crashes
  exactly like local ones (durable queue + recovery rescan).
"""

import pytest

from repro import AgentStatus, RollbackMode, ShardedWorld
from repro.bench.workloads import BANK, DIRECTORY, TourAgent, make_tour_plan
from repro.errors import UsageError
from repro.resources.bank import Bank, OverdraftPolicy
from repro.resources.directory import InfoDirectory
from repro.sim.failures import CrashPlan

from tests.helpers import LinearAgent


N_NODES = 8
RING = [f"n{i}" for i in range(N_NODES)]


def build_sharded(n_shards, seed=7, **kwargs):
    """A ring of banked nodes spread round-robin over ``n_shards``."""
    world = ShardedWorld(n_shards=n_shards, seed=seed, **kwargs)
    for i in range(N_NODES):
        node = world.add_node(f"n{i}")
        bank = Bank("bank")
        bank.seed_account("a", 1_000, overdraft=OverdraftPolicy.ALLOWED)
        bank.seed_account("b", 1_000, overdraft=OverdraftPolicy.ALLOWED)
        node.add_resource(bank)
        directory = InfoDirectory("directory")
        directory.publish("offers", [{"price": i}])
        node.add_resource(directory)
    return world


def run_swarm(n_shards, n_agents=6, seed=7, mode=RollbackMode.BASIC,
              **kwargs):
    """Agents touring the ring — with round-robin placement every hop
    crosses a shard boundary, and each tour rolls back once."""
    world = build_sharded(n_shards, seed=seed, **kwargs)
    for a in range(n_agents):
        rotated = RING[a % N_NODES:] + RING[:a % N_NODES]
        agent = LinearAgent(f"ag-{a}", rotated[:5],
                            savepoints={0: "sp"}, rollback_to="sp")
        world.launch(agent, at=rotated[0], method="step", mode=mode)
    world.run()
    return world


# -- basic facade --------------------------------------------------------------


def test_round_robin_placement_and_lookup():
    world = build_sharded(4)
    assert [world.shard_of(f"n{i}") for i in range(N_NODES)] == \
        [0, 1, 2, 3, 0, 1, 2, 3]
    assert world.node("n5").name == "n5"
    with pytest.raises(UsageError):
        world.shard_of("nope")
    with pytest.raises(UsageError):
        world.add_node("n0")  # duplicate, even across shards


def test_explicit_shard_placement_validated():
    world = ShardedWorld(n_shards=2, seed=0)
    world.add_node("x", shard=1)
    assert world.shard_of("x") == 1
    with pytest.raises(UsageError):
        world.add_node("y", shard=5)
    with pytest.raises(UsageError):
        ShardedWorld(n_shards=0)


def test_single_shard_run_completes_without_bridge_traffic():
    world = run_swarm(1)
    assert all(r.status is AgentStatus.FINISHED
               for r in world.agents.values())
    assert world.bridge.transfers_total == 0
    assert world.all_done()


# -- outcome equivalence across shard counts -----------------------------------


def test_sharded_outcomes_match_unsharded_at_same_seed():
    unsharded = run_swarm(1)
    sharded = run_swarm(4)
    # Every hop crossed shards, so the bridge really carried the run.
    assert sharded.bridge.transfers_total > 0
    assert sharded.outcomes() == unsharded.outcomes()
    assert all(o["status"] == "finished"
               for o in sharded.outcomes().values())
    # Rollbacks executed (and crossed shards) in both configurations.
    assert all(o["rollbacks_completed"] == 1
               for o in sharded.outcomes().values())


def test_sharded_counters_match_unsharded_modulo_bridge():
    """Aggregate protocol counters are shard-count invariant: the same
    steps commit, the same savepoints are written, the same rollbacks
    complete — only ``bridge.*`` traffic is configuration-specific."""
    unsharded = run_swarm(1)
    sharded = run_swarm(4)
    assert sharded.counters(exclude_prefixes=("bridge.",)) == \
        unsharded.counters(exclude_prefixes=("bridge.",))


def test_optimized_rollback_crosses_shards_with_matching_outcomes():
    """The optimized driver's split execution needs the resource node in
    the local kernel; across shards it falls back to migrating the
    agent — transfer counts differ from the unsharded run, per-agent
    outcomes must not."""
    unsharded = run_swarm(1, mode=RollbackMode.OPTIMIZED)
    sharded = run_swarm(4, mode=RollbackMode.OPTIMIZED)
    assert sharded.outcomes() == unsharded.outcomes()
    assert all(o["status"] == "finished"
               for o in sharded.outcomes().values())


def test_sharded_runs_are_deterministic():
    first = run_swarm(4)
    second = run_swarm(4)
    assert first.outcomes() == second.outcomes()
    assert first.counters() == second.counters()
    assert first.epochs_run == second.epochs_run
    assert first.events_processed() == second.events_processed()


def test_different_seed_changes_nothing_deterministic_here_but_runs():
    # Crash-free runs draw no randomness; a different seed must still
    # complete and produce the same logical outcomes.
    a = run_swarm(4, seed=7)
    b = run_swarm(4, seed=1234)
    assert a.outcomes() == b.outcomes()


# -- lockstep clock ------------------------------------------------------------


def test_shard_clocks_agree_at_completion():
    world = run_swarm(4)
    nows = {round(w.sim.now, 9) for w in world.shards}
    assert len(nows) == 1  # lockstep barriers keep clocks consistent
    assert world.now == world.shards[0].sim.now


def test_run_until_stops_every_shard_clock_on_one_barrier():
    world = build_sharded(4)
    agent = LinearAgent("capped", RING[:4])
    world.launch(agent, at="n0", method="step")
    world.run(until=0.02)
    # The cut walks the barriers at or before 0.02: every clock reads
    # the last one walked, none is moved on to the cut.
    clocks = {w.sim.now for w in world.shards}
    assert len(clocks) == 1 and clocks.pop() <= 0.02
    # The run can be continued to completion afterwards.
    world.run()
    assert world.record_of("capped").status is AgentStatus.FINISHED


# -- reliability across the bridge ---------------------------------------------


def test_cross_shard_delivery_survives_destination_crash():
    world = build_sharded(2, seed=3)
    # n1 (shard 1) is down while the agent's first migration arrives;
    # the bridged package waits in the durable queue and the recovery
    # rescan dispatches it.
    world.world_of("n1").failures.apply_plan(
        [CrashPlan("n1", at=0.0, duration=0.5)])
    agent = LinearAgent("crossing", ["n0", "n1", "n2"])
    world.launch(agent, at="n0", method="step")
    world.run()
    record = world.record_of("crossing")
    assert record.status is AgentStatus.FINISHED
    assert record.finished_at > 0.5


def run_tour_swarm(n_shards, n_agents=16, seed=40):
    """Twice the single-kernel reference swarm (8 agents) of 6-step
    tours on the 8-node ring, each rolling back once."""
    world = ShardedWorld(n_shards=n_shards, seed=seed)
    for i in range(N_NODES):
        node = world.add_node(f"n{i}")
        bank = Bank(BANK)
        bank.seed_account("merchant", 1_000_000,
                          overdraft=OverdraftPolicy.ALLOWED)
        bank.seed_account("escrow", 1_000_000,
                          overdraft=OverdraftPolicy.ALLOWED)
        node.add_resource(bank)
        directory = InfoDirectory(DIRECTORY)
        directory.publish("offers", [{"item": "widget", "price": 10 + i}])
        node.add_resource(directory)
    for a in range(n_agents):
        rotated = RING[a % N_NODES:] + RING[:a % N_NODES]
        plan = make_tour_plan(rotated, 6, mixed_fraction=0.4,
                              rollback_depth=5)
        world.launch(TourAgent(f"shard-{seed}-{a}", plan),
                     at=plan.steps[0].node, method="run",
                     mode=RollbackMode.BASIC)
    world.run()
    return world


def test_four_shards_spread_the_event_load_at_identical_outcomes():
    single, sharded = run_tour_swarm(1), run_tour_swarm(4)
    for world in (single, sharded):
        outcomes = world.outcomes()
        assert all(o["status"] == "finished" for o in outcomes.values())
        assert all(o["rollbacks_completed"] == 1
                   for o in outcomes.values())
    assert sharded.outcomes() == single.outcomes()
    busiest = [max(w.sim.events_processed for w in world.shards)
               for world in (single, sharded)]
    assert busiest[1] == 232
    assert busiest[1] < busiest[0]


# -- misc ----------------------------------------------------------------------


def test_record_of_unknown_agent_raises():
    world = build_sharded(2)
    with pytest.raises(UsageError):
        world.record_of("ghost")
