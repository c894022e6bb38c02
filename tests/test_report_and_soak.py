"""Tests: a long soak scenario."""

from repro import AgentStatus, RollbackMode
from repro.bench import make_tour_plan, run_tour
from repro.bench.harness import build_tour_world


def test_soak_long_tour_with_repeated_rollbacks_and_crashes():
    """A 30-step tour, 3 full rollbacks, random outages: everything
    still lands exactly once and the books balance."""
    n_nodes = 6
    nodes = [f"n{i}" for i in range(n_nodes)]
    plan = make_tour_plan(nodes, 30, mixed_fraction=0.3, ace_fraction=0.2,
                          none_fraction=0.1, savepoint_every=5,
                          rollback_depth=12, rollback_times=3)
    world = build_tour_world(n_nodes, seed=123)
    world.failures.random_outages(nodes, horizon=60.0, rate_per_s=0.15,
                                  mean_downtime=0.2)
    result = run_tour(plan, n_nodes, mode=RollbackMode.OPTIMIZED,
                      seed=123, world=world)
    assert result.status is AgentStatus.FINISHED
    assert result.rollbacks == 3
    assert result.result["rolled_back"] == 3
    # Conservation: bank money + agent purse constant.
    total = sum(world.node(f"n{i}").get_resource("bank").total_balance()
                for i in range(n_nodes))
    purse = sum(result.result["purse"].values())
    assert total + purse == n_nodes * 2_000_000
    # No locks, no queue residue, no active transactions anywhere.
    for i in range(n_nodes):
        node = world.node(f"n{i}")
        assert len(node.queue) == 0
        assert node.txm.active == set()
        assert node.get_resource("bank").locks.held_count() == 0
