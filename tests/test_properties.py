"""Property-based end-to-end tests over random tour workloads.

These quantify the paper's invariants over generated scenarios:

* optimized rollback reaches the same final agent state as basic, with
  no more agent transfers;
* rollback count and WRO signalling behave identically across modes;
* money in the tour banks is conserved;
* the rollback log of a finished agent is empty of that tour's frames.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AgentStatus, RollbackMode
from repro.bench import make_tour_plan, run_tour
from repro.bench.harness import build_tour_world
from repro.bench.workloads import BANK

SLOW = dict(max_examples=12, deadline=None,
            suppress_health_check=[HealthCheck.too_slow,
                                   HealthCheck.data_too_large])

tour_params = st.fixed_dictionaries({
    "n_steps": st.integers(min_value=3, max_value=8),
    "n_nodes": st.integers(min_value=2, max_value=5),
    "mixed_tenths": st.integers(min_value=0, max_value=10),
    "ace_tenths": st.integers(min_value=0, max_value=5),
    "seed": st.integers(min_value=0, max_value=10_000),
})


def bank_total(world, n_nodes):
    total = 0
    for i in range(n_nodes):
        bank = world.node(f"n{i}").get_resource(BANK)
        total += bank.total_balance()
    return total


def make_plan(params, depth=None):
    nodes = [f"n{i}" for i in range(params["n_nodes"])]
    mixed = params["mixed_tenths"] / 10.0
    ace = min(params["ace_tenths"] / 10.0, 1.0 - mixed)
    return make_tour_plan(nodes, params["n_steps"],
                          mixed_fraction=mixed, ace_fraction=max(0.0, ace),
                          rollback_depth=depth or params["n_steps"] - 1)


@given(tour_params)
@settings(**SLOW)
def test_optimized_equivalent_to_basic_with_fewer_transfers(params):
    plan = make_plan(params)
    results = {}
    for mode in (RollbackMode.BASIC, RollbackMode.OPTIMIZED):
        results[mode] = run_tour(plan, params["n_nodes"], mode=mode,
                                 seed=params["seed"])
        assert results[mode].status is AgentStatus.FINISHED
    basic = results[RollbackMode.BASIC]
    optimized = results[RollbackMode.OPTIMIZED]
    assert basic.result == optimized.result
    assert basic.rollbacks == optimized.rollbacks == 1
    assert (optimized.compensation_transfers
            <= basic.compensation_transfers)


@given(tour_params)
@settings(**SLOW)
def test_rollback_conserves_bank_money(params):
    plan = make_plan(params)
    world = build_tour_world(params["n_nodes"], seed=params["seed"])
    before = bank_total(world, params["n_nodes"])
    result = run_tour(plan, params["n_nodes"], mode=RollbackMode.BASIC,
                      seed=params["seed"], world=world)
    assert result.status is AgentStatus.FINISHED
    after = bank_total(world, params["n_nodes"])
    # Money may sit in the agent's purse (mixed steps withdraw cash);
    # banks + purse must equal the starting supply.
    purse_total = sum(result.result["purse"].values())
    assert after + purse_total == before


@given(tour_params)
@settings(**SLOW)
def test_wro_signal_counts_rollbacks_exactly_once(params):
    plan = make_plan(params)
    result = run_tour(plan, params["n_nodes"], mode=RollbackMode.OPTIMIZED,
                      seed=params["seed"])
    assert result.status is AgentStatus.FINISHED
    assert result.result["rolled_back"] == 1


@given(tour_params, st.integers(min_value=1, max_value=3))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_repeated_rollbacks_converge(params, times):
    nodes = [f"n{i}" for i in range(params["n_nodes"])]
    plan = make_tour_plan(nodes, params["n_steps"],
                          mixed_fraction=params["mixed_tenths"] / 10.0,
                          rollback_depth=params["n_steps"] - 1,
                          rollback_times=times)
    result = run_tour(plan, params["n_nodes"], mode=RollbackMode.BASIC,
                      seed=params["seed"])
    assert result.status is AgentStatus.FINISHED
    assert result.rollbacks == times
    assert result.result["rolled_back"] == times


@given(st.integers(min_value=2, max_value=6),
       st.integers(min_value=0, max_value=1000))
@settings(max_examples=10, deadline=None)
def test_rollback_depth_controls_compensated_steps(depth_seed, seed):
    n_steps = 7
    nodes = [f"n{i}" for i in range(4)]
    depth = depth_seed
    plan = make_tour_plan(nodes, n_steps, mixed_fraction=1.0,
                          savepoint_every=1, rollback_depth=depth)
    result = run_tour(plan, 4, mode=RollbackMode.BASIC, seed=seed)
    assert result.status is AgentStatus.FINISHED
    # With savepoints after every step, the target leaves exactly
    # `depth` committed steps to compensate.
    assert result.compensation_txs == depth
