"""Whole-run determinism: identical seeds produce identical worlds.

The simulation's reproducibility contract: every stochastic choice
derives from the kernel seed, so two runs of the same scenario are
byte-identical in outcome, metrics and event timeline — the property
that makes the benches stable and failures replayable.
"""

import pytest

from repro import AgentStatus, RollbackMode
from repro.bench import make_tour_plan, run_tour
from repro.bench.harness import build_tour_world


def run_once(seed, outages):
    nodes = [f"n{i}" for i in range(4)]
    plan = make_tour_plan(nodes, 6, mixed_fraction=0.4, ace_fraction=0.2,
                          rollback_depth=5)
    world = build_tour_world(4, seed=seed)
    if outages:
        world.failures.random_outages(nodes, horizon=10.0, rate_per_s=0.4,
                                      mean_downtime=0.2)
    result = run_tour(plan, 4, mode=RollbackMode.OPTIMIZED, seed=seed,
                      world=world)
    return world, result


@pytest.mark.parametrize("outages", [False, True])
def test_identical_seed_identical_world(outages):
    world_a, result_a = run_once(17, outages)
    world_b, result_b = run_once(17, outages)
    assert result_a.status is result_b.status is AgentStatus.FINISHED
    assert result_a.result == result_b.result
    assert result_a.sim_time == result_b.sim_time
    assert result_a.finished_at == result_b.finished_at
    assert world_a.metrics.summary() == world_b.metrics.summary()
    # Timelines identical except agent ids embed the seed (same here).
    timeline_a = [(t, k) for t, k, _ in world_a.metrics.timeline]
    timeline_b = [(t, k) for t, k, _ in world_b.metrics.timeline]
    assert timeline_a == timeline_b


def test_different_seed_different_schedule_same_outcome():
    _, result_a = run_once(18, outages=True)
    _, result_b = run_once(19, outages=True)
    # Different crash schedules => different times ...
    assert result_a.finished_at != result_b.finished_at
    # ... but the protocol guarantees identical logical outcomes.
    assert result_a.status is result_b.status is AgentStatus.FINISHED
    assert result_a.result == result_b.result
    assert result_a.rollbacks == result_b.rollbacks == 1
