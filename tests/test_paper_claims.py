"""Tests: the paper's figure and cost claims at fixed sizes and seeds.

The paper promises an evaluation "in terms of performance" and reports
none.  Every claim its figures make is a deterministic property of a
simulated run, so each one is asserted here like any other behaviour:

* **Figure 1** — forward execution commits one step transaction per
  step;
* **Figure 2** — the log extract ``SP BOS OE..OE EOS`` and compensation
  in reverse order ``OE_n,p .. OE_n,1``;
* **Figure 3** — the partial rollback walkthrough;
* **Figure 4** — basic rollback costs one compensation transaction per
  rolled-back step, its agent transfers grow with depth;
* **Figure 5** — optimized rollback transfers the agent only for mixed
  steps, and its byte saving grows with agent size;
* **Figure 6** — rollback scopes on the sample itinerary, with far
  fewer savepoints than steps;
* **Section 4.4.2** — itinerary truncation keeps migration payloads
  small, the log's share of a migration grows with history, and
  coarser savepoints move fewer bytes;
* **Section 4.2** — transition logging beats state logging when
  little changes between savepoints;
* **Sections 3.2 / 4.1** — the saga baseline (ref [4]) double-spends
  after its image restore and carries the WRO image in every savepoint;
* **Section 4.3** — rollback completes under non-lasting crashes and
  under contention;
* **Section 4.4.1** — the static cost prediction equals the measured
  cost, and the RPC-vs-migration model picks the cheaper plan.

Wall-clock cost is measured by the repo benchmark (``perf/``), not here.
"""

import pytest

from repro import (
    AgentStatus,
    Itinerary,
    ItineraryAgent,
    MobileAgent,
    RollbackMode,
    StepEntry,
    SubItinerary,
    World,
    agent_compensation,
)
from repro.bench import make_tour_plan, run_tour
from repro.bench.harness import build_tour_world
from repro.bench.workloads import TourAgent, TourPlan
from repro.core.decision import AccessPlan, DecisionModel
from repro.core.inspector import predict_rollback
from repro.log.entries import (
    BeginOfStepEntry,
    EndOfStepEntry,
    OperationEntry,
    OperationKind,
    SavepointEntry,
)
from repro.log.modes import LoggingMode, sro_diff
from repro.log.rollback_log import RollbackLog
from repro.resources.bank import Bank, OverdraftPolicy
from repro.sim.timing import NetworkParams
from repro.storage.serialization import snapshot
from repro.tx.manager import Transaction

from tests.test_baseline_saga import CoinShopper
from tests.test_baseline_saga import build_world as build_shop_world


def ring(n_nodes):
    return [f"n{i}" for i in range(n_nodes)]


def forward_only(plan, sro_ballast=0):
    """The same tour with its decision step's rollback switched off."""
    return TourPlan(steps=plan.steps, decision_node=plan.decision_node,
                    rollback_to=None, sro_ballast=sro_ballast)


# -- Figure 1: the execution model ----------------------------------------------


@pytest.mark.parametrize("n_steps", (2, 4, 8, 16))
def test_fig1_one_step_transaction_per_step(n_steps):
    nodes = ring(min(n_steps, 6))
    plan = forward_only(make_tour_plan(nodes, n_steps))
    result = run_tour(plan, len(nodes), mode=RollbackMode.BASIC, seed=1)
    assert result.status is AgentStatus.FINISHED
    # One step transaction per step plus the decision step.
    assert result.steps_committed == n_steps + 1
    assert result.rollbacks == 0


# -- Figure 2: the rollback log ---------------------------------------------------


def build_figure2(p):
    log = RollbackLog()
    log.append(SavepointEntry(sp_id="sp-k", mode="state",
                              payload={"vector": list(range(8))}))
    log.append(BeginOfStepEntry(node="N", step_index=7))
    for i in range(1, p + 1):
        log.append(OperationEntry(op_kind=OperationKind.RESOURCE,
                                  op_name="bench.undo_transfer",
                                  params={"src": "a", "dst": "b",
                                          "amount": i},
                                  node="N", resource="bank"))
    log.append(EndOfStepEntry(node="N", step_index=7))
    log.append(BeginOfStepEntry(node="M", step_index=8))
    log.append(EndOfStepEntry(node="M", step_index=8))
    return log


@pytest.mark.parametrize("p", (1, 2, 4, 8, 16))
def test_fig2_structure_and_reverse_order(p):
    log = build_figure2(p)
    log.validate()
    kinds = [e.kind.value for e in log.entries()]
    assert kinds == ["SP", "BOS"] + ["OE"] * p + ["EOS", "BOS", "EOS"]
    log.pop()  # EOS_n+1
    log.pop()  # BOS_n+1
    log.pop()  # EOS_n
    # Operation entries surface in reverse order OE_n,p .. OE_n,1.
    amounts = []
    entry = log.pop()
    while isinstance(entry, OperationEntry):
        amounts.append(entry.params["amount"])
        entry = log.pop()
    assert amounts == list(range(p, 0, -1))


# -- Figure 3: the partial rollback walkthrough ------------------------------------


@agent_compensation("fig3.note")
def fig3_note(wro, params, ctx):
    wro.setdefault("compensated_steps", []).append(params["step"])


class Fig3Agent(MobileAgent):
    """Savepoint before step i, rollback initiated in step i+3."""

    def __init__(self, agent_id="fig3"):
        super().__init__(agent_id)
        self.sro["i"] = 0
        self.sro["readings"] = []

    def step(self, ctx):
        i = self.sro["i"]
        ctx.resource("bank").transfer("src", "dst", 10)
        ctx.log_resource_compensation(
            "bench.undo_transfer",
            {"src": "src", "dst": "dst", "amount": 10}, resource="bank")
        ctx.log_agent_compensation("fig3.note", {"step": i})
        self.sro["readings"].append((i, ctx.node_name))
        self.sro["i"] = i + 1
        if i == 0:
            ctx.savepoint("before-step-i")  # effective before step i=1
        if i < 3:
            ctx.goto(f"N{i + 1}", "step")
        else:
            ctx.goto("N0", "evaluate")

    def evaluate(self, ctx):
        if not self.wro.get("compensated_steps"):
            ctx.rollback("before-step-i")
        ctx.finish({
            "compensated_steps": self.wro["compensated_steps"],
            "readings": list(self.sro["readings"]),
            "i": self.sro["i"],
        })


def test_fig3_walkthrough():
    world = World(seed=3)
    banks = {}
    for i in range(4):
        node = world.add_node(f"N{i}")
        bank = Bank("bank")
        bank.seed_account("src", 1_000, overdraft=OverdraftPolicy.ALLOWED)
        bank.seed_account("dst", 0, overdraft=OverdraftPolicy.ALLOWED)
        node.add_resource(bank)
        banks[f"N{i}"] = bank
    record = world.launch(Fig3Agent("fig3-3"), at="N0", method="step",
                          mode=RollbackMode.BASIC)
    world.run(max_events=500_000)
    assert record.status is AgentStatus.FINISHED
    result = record.result
    # Compensations ran for steps i+2, i+1, i in reverse order; step
    # i+3's transaction aborted, so it is never compensated.
    assert result["compensated_steps"] == [3, 2, 1]
    # The SRO space snapped back to the savepoint and re-advanced.
    assert result["i"] == 4
    assert [r[0] for r in result["readings"]] == [0, 1, 2, 3]
    # Each node's bank holds exactly the re-execution's transfer.
    for name, bank in banks.items():
        if name == "N0":
            assert bank.peek("dst")["balance"] >= 10
        else:
            assert bank.peek("dst")["balance"] == 10


# -- Figure 4: basic rollback cost --------------------------------------------------


def test_fig4_basic_cost_grows_with_depth():
    transfers = []
    for depth in (1, 2, 4, 6, 8):
        plan = make_tour_plan(ring(6), 9, mixed_fraction=0.5,
                              savepoint_every=1, rollback_depth=depth)
        result = run_tour(plan, 6, mode=RollbackMode.BASIC, seed=4)
        assert result.status is AgentStatus.FINISHED
        assert result.compensation_txs == depth
        transfers.append(result.compensation_transfers)
    assert transfers == sorted(transfers)
    assert transfers[-1] >= 7


# -- Figure 5: optimized rollback ---------------------------------------------------


def run_fig5(mode, mixed_fraction, ballast=0):
    plan = make_tour_plan(ring(6), 9, mixed_fraction=mixed_fraction,
                          ace_fraction=0.2 if mixed_fraction <= 0.8 else 0.0,
                          rollback_depth=8, sro_ballast=ballast)
    return run_tour(plan, 6, mode=mode, seed=5)


def test_fig5_transfers_only_for_mixed_steps():
    basic_transfers, opt_transfers = [], []
    for tenth in (0, 2, 5, 8, 10):
        basic = run_fig5(RollbackMode.BASIC, tenth / 10)
        optimized = run_fig5(RollbackMode.OPTIMIZED, tenth / 10)
        assert basic.status is AgentStatus.FINISHED
        assert optimized.status is AgentStatus.FINISHED
        assert basic.result == optimized.result
        basic_transfers.append(basic.compensation_transfers)
        opt_transfers.append(optimized.compensation_transfers)
    # Basic is flat at this depth; optimized grows from 0 to basic as
    # the mixed fraction goes 0 -> 1.
    assert len(set(basic_transfers)) == 1
    assert opt_transfers[0] == 0
    assert opt_transfers == sorted(opt_transfers)
    assert opt_transfers[-1] == basic_transfers[-1]


def test_fig5_byte_saving_grows_with_agent_size():
    ratios = []
    for ballast in (0, 10_000, 50_000, 200_000):
        basic = run_fig5(RollbackMode.BASIC, 0.0, ballast=ballast)
        optimized = run_fig5(RollbackMode.OPTIMIZED, 0.0, ballast=ballast)
        bytes_opt = (optimized.compensation_transfer_bytes
                     + optimized.rce_ship_bytes)
        ratios.append(round(basic.compensation_transfer_bytes
                            / max(1, bytes_opt), 1))
    assert ratios == sorted(ratios)
    assert ratios[-1] > 20


# -- Figure 6: the sample itinerary -------------------------------------------------


@agent_compensation("fig6.tick")
def fig6_tick(wro, params, ctx):
    wro["ticks"] = wro.get("ticks", 0) + 1


class Fig6Agent(ItineraryAgent):
    """Executes the Figure-6 itinerary; s4 triggers the rollback."""

    def __init__(self, itinerary, agent_id, rollback_levels):
        super().__init__(itinerary, agent_id)
        self.rollback_levels = rollback_levels

    def do_step(self, ctx):
        self.sro.setdefault("trace", []).append(self.step_count)
        ctx.log_agent_compensation("fig6.tick", {})

    def s4(self, ctx):
        self.do_step(ctx)
        if self.wro.get("ticks", 0) == 0:
            self.rollback_scope(ctx, levels=self.rollback_levels)

    def __getattr__(self, name):
        # s1, s2, ... all behave like do_step, so the itinerary reads
        # exactly like the paper's figure.
        if name.startswith("s") and name[1:].isdigit():
            return self.do_step
        raise AttributeError(name)

    def itinerary_result(self):
        return {"trace": list(self.sro.get("trace", [])),
                "ticks": self.wro.get("ticks", 0)}


def figure6_itinerary():
    """I { SI1{s1,s2,s3}, SI2{s7,s8}, SI3{ s6, SI4{s5,s4}, SI5{s9,s10} } },
    step s<k> on host h<k mod 4>, SI3 first as in the paper's text."""

    def steps(*names):
        return [StepEntry(n, f"h{int(n[1:]) % 4}") for n in names]

    si4 = SubItinerary("SI4", steps("s5", "s4"))
    si5 = SubItinerary("SI5", steps("s9", "s10"))
    si3 = SubItinerary("SI3", steps("s6") + [si4, si5])
    return (Itinerary().add(si3)
            .add(SubItinerary("SI1", steps("s1", "s2", "s3")))
            .add(SubItinerary("SI2", steps("s7", "s8"))))


def run_fig6(rollback_levels, seed=6):
    world = World(seed=seed)
    for i in range(4):
        world.add_node(f"h{i}")
    agent = Fig6Agent(figure6_itinerary(),
                      f"fig6-{rollback_levels}-{seed}", rollback_levels)
    record = world.launch_itinerary(agent)
    world.run(max_events=1_000_000)
    return world, record


def test_fig6_rollback_si4_vs_si3():
    # levels=0: roll back SI4 only (abort s4, compensate s5).
    world0, record0 = run_fig6(0)
    assert record0.status is AgentStatus.FINISHED, record0.failure
    assert record0.result["ticks"] == 1
    # levels=1: roll back SI3 as well (additionally compensate s6).
    _world1, record1 = run_fig6(1)
    assert record1.status is AgentStatus.FINISHED, record1.failure
    assert record1.result["ticks"] == 2
    # Three top-level sub-itineraries => three log truncations.
    assert world0.metrics.count("log.truncations") == 3


def test_fig6_savepoint_economy():
    """One savepoint per executing sub-itinerary chain: far fewer
    savepoints than steps (Section 4.4.2)."""
    world, record = run_fig6(0)
    assert (world.metrics.count("savepoints.written")
            < record.steps_committed)


# -- Section 4.4.2: log size and migration payload ---------------------------------


@agent_compensation("logsize.tick")
def logsize_tick(wro, params, ctx):
    wro["ticks"] = wro.get("ticks", 0) + 1


class SegmentedAgent(ItineraryAgent):
    """12 steps in 4 top-level segments, the tour's SRO payload."""

    def __init__(self, itinerary, agent_id):
        super().__init__(itinerary, agent_id)
        self.sro["ballast"] = b"s" * 8_000

    def work(self, ctx):
        self.sro.setdefault("done", []).append(self.step_count)
        ctx.log_agent_compensation("logsize.tick", {})

    def itinerary_result(self):
        return {"done": len(self.sro.get("done", []))}


def migration_bytes_of_flat_tour(n_steps, savepoint_every, seed,
                                 ballast=8_000):
    plan = make_tour_plan(ring(4), n_steps, ace_fraction=1.0,
                          savepoint_every=savepoint_every,
                          rollback_depth=1, rollback_times=0,
                          sro_ballast=ballast)
    world = build_tour_world(4, seed=seed)
    result = run_tour(plan, 4, seed=seed, world=world)
    assert result.status is AgentStatus.FINISHED
    return world.metrics.total_bytes("agent.transfers.step")


def test_logsize_itinerary_moves_fewer_bytes_than_flat():
    per_step = migration_bytes_of_flat_tour(12, savepoint_every=1, seed=7)
    # A single savepoint at the start finishes too.
    migration_bytes_of_flat_tour(12, savepoint_every=None, seed=7)
    world = World(seed=7)
    for i in range(4):
        world.add_node(f"n{i}")
    itinerary = Itinerary()
    for segment in range(4):
        entries = [StepEntry("work", f"n{(segment * 3 + i) % 4}")
                   for i in range(3)]
        itinerary.add(SubItinerary(f"segment-{segment}", entries))
    record = world.launch_itinerary(SegmentedAgent(itinerary,
                                                   "segmented-7"))
    world.run(max_events=1_000_000)
    assert record.status is AgentStatus.FINISHED
    assert world.metrics.total_bytes("agent.transfers.step") < per_step


def test_logsize_grows_without_truncation():
    averages = [migration_bytes_of_flat_tour(steps, 1, seed=8) // steps
                for steps in (4, 8, 16, 24)]
    assert averages == sorted(averages)


def log_share_of_last_migration(n_steps, seed=42):
    """The log's share of the last forward migration's package."""
    plan = forward_only(make_tour_plan(ring(4), n_steps, mixed_fraction=0.3,
                                       ace_fraction=0.3, savepoint_every=2,
                                       sro_ballast=2_000),
                        sro_ballast=2_000)
    world = build_tour_world(4, seed=seed)
    record = world.launch(TourAgent(f"split-{n_steps}-{seed}", plan),
                          at=plan.steps[0].node, method="run")
    sizes = {}
    protocol = world.step_protocol
    original = protocol.ship

    def spy(node, tx, package, dest_name):
        _agent, log = package.unpack()
        sizes["log"] = log.size_bytes()
        sizes["package"] = package.size_bytes
        original(node, tx, package, dest_name)

    protocol.ship = spy
    world.run(max_events=1_000_000)
    assert record.status is AgentStatus.FINISHED
    return round(100 * sizes["log"] / sizes["package"], 1)


def test_migration_log_share_grows_with_history():
    shares = [log_share_of_last_migration(n) for n in (2, 6, 12, 20)]
    assert shares == sorted(shares)


def test_migration_completion_time_falls_with_link_speed():
    plan = make_tour_plan(ring(4), 10, ace_fraction=1.0, savepoint_every=1,
                          rollback_depth=1, rollback_times=0,
                          sro_ballast=4_000)
    times = []
    for bandwidth in (7_000.0, 16_000.0, 1_250_000.0, 12_500_000.0):
        world = build_tour_world(4, seed=43, net_params=NetworkParams(
            bandwidth_bytes_per_s=bandwidth))
        result = run_tour(plan, 4, seed=43, world=world)
        assert result.status is AgentStatus.FINISHED
        times.append(round(result.sim_time, 3))
    assert times == sorted(times, reverse=True)


def test_savepoint_granularity_trades_bytes():
    """Coarser savepoints move fewer migration bytes."""
    costs = []
    for every in (1, 2, 4, 12):
        plan = forward_only(make_tour_plan(ring(4), 12, ace_fraction=1.0,
                                           savepoint_every=every,
                                           sro_ballast=4_000),
                            sro_ballast=4_000)
        world = build_tour_world(4, seed=50)
        result = run_tour(plan, 4, seed=50, world=world)
        assert result.status is AgentStatus.FINISHED
        costs.append(world.metrics.total_bytes("agent.transfers.step"))
    assert costs == sorted(costs, reverse=True)


# -- Section 4.2: state vs transition logging ---------------------------------------


def make_states(n_savepoints, total_keys, changed_per_step,
                value_bytes=2_000):
    """SRO evolution: ``changed_per_step`` of ``total_keys`` mutate."""
    states = []
    state = {f"k{i}": b"v" * value_bytes + bytes([i % 256])
             for i in range(total_keys)}
    for step in range(n_savepoints):
        state = dict(state)
        for j in range(changed_per_step):
            key = f"k{(step * changed_per_step + j) % total_keys}"
            state[key] = bytes(bytearray(b"c" * value_bytes)) + bytes(
                [step % 256, j % 256])
        states.append(snapshot(state))
    return states


def build_savepoint_log(states, mode):
    log = RollbackLog(mode)
    previous = None
    for i, state in enumerate(states):
        if mode is LoggingMode.STATE or previous is None:
            payload = snapshot(state)
        else:
            payload = sro_diff(previous, state)
        log.append(SavepointEntry(sp_id=f"sp-{i}", mode=mode.value,
                                  payload=payload))
        log.append(BeginOfStepEntry(node="n", step_index=i))
        log.append(EndOfStepEntry(node="n", step_index=i))
        previous = state
    return log


def test_logging_modes_size_tradeoff():
    ratios = []
    for changed in (0, 1, 3, 10):
        states = make_states(8, 10, changed)
        state_log = build_savepoint_log(states, LoggingMode.STATE)
        transition_log = build_savepoint_log(states, LoggingMode.TRANSITION)
        for i in (0, 4, 7):
            assert (state_log.reconstruct_sro(f"sp-{i}")
                    == transition_log.reconstruct_sro(f"sp-{i}"))
        ratios.append(round(state_log.size_bytes()
                            / transition_log.size_bytes(), 2))
    # Transition logging wins big at small change rates and loses its
    # edge as the whole state churns.
    assert ratios[0] > 4
    assert ratios == sorted(ratios, reverse=True)


# -- Sections 3.2 / 4.1: the saga baseline ------------------------------------------


def run_shopper(mode, seed=17):
    world = build_shop_world(seed=seed)
    record = world.launch(CoinShopper(f"bench-shopper-{mode.value}-{seed}"),
                          at="home", method="fund", mode=mode)
    world.run(max_events=500_000)
    return record


def test_baseline_scorecard():
    assert run_shopper(RollbackMode.BASIC).status is AgentStatus.FINISHED
    saga = run_shopper(RollbackMode.SAGA)
    assert saga.status is AgentStatus.FAILED
    assert "double spend" in saga.failure


def test_baseline_savepoint_carries_the_wro_image():
    world = build_shop_world()
    sizes = []
    for wro_bytes in (1_000, 10_000, 100_000):
        agent = CoinShopper(f"sizer-{wro_bytes}")
        agent.wro["ballast"] = b"w" * wro_bytes
        agent.set_control("home", "fund")
        logs = []
        for include_wro in (False, True):
            log = RollbackLog()
            world.step_protocol._write_savepoint(
                log, agent, ("sp", False), Transaction("step", "home"),
                include_wro=include_wro)
            logs.append(log.size_bytes())
        sizes.append(logs)
    paper, saga = sizes[-1]
    assert saga > paper + 90_000


# -- Section 4.3: crashes and contention ---------------------------------------------


def run_with_outages(rate, seed=9):
    plan = make_tour_plan(ring(4), 6, mixed_fraction=0.5, rollback_depth=5)
    world = build_tour_world(4, seed=seed)
    if rate > 0:
        world.failures.random_outages(ring(4), horizon=20.0,
                                      rate_per_s=rate, mean_downtime=0.3)
    return world, run_tour(plan, 4, mode=RollbackMode.BASIC, seed=seed,
                           world=world)


def test_ft_rollback_completes_under_outages():
    """Only latency degrades: the same final agent state at every
    outage rate."""
    _, clean = run_with_outages(0.0)
    finish_times = []
    for rate in (0.0, 0.2, 0.5, 1.0):
        _, result = run_with_outages(rate)
        assert result.status is AgentStatus.FINISHED
        assert result.result == clean.result
        assert result.rollbacks == 1
        finish_times.append(round(result.finished_at, 3))
    assert finish_times[-1] >= finish_times[0]


def test_ft_completion_across_seeds():
    for seed in range(100, 108):
        _, result = run_with_outages(0.6, seed=seed)
        assert result.status is AgentStatus.FINISHED


def test_concurrent_agents_all_complete():
    makespans = []
    for n_agents in (1, 2, 4, 8):
        world = build_tour_world(4, seed=40)
        records = []
        for a in range(n_agents):
            rotated = ring(4)[a % 4:] + ring(4)[:a % 4]
            plan = make_tour_plan(rotated, 5, mixed_fraction=0.4,
                                  rollback_depth=4)
            records.append(world.launch(
                TourAgent(f"swarm-40-{a}", plan), at=plan.steps[0].node,
                method="run", mode=RollbackMode.OPTIMIZED))
        world.run(max_events=5_000_000)
        assert all(r.status is AgentStatus.FINISHED for r in records)
        assert all(r.rollbacks_completed == 1 for r in records)
        makespans.append(round(max(r.finished_at for r in records), 3))
    assert makespans == sorted(makespans)


# -- Section 4.4.1: cost prediction and the RPC model ---------------------------------


@pytest.mark.parametrize("mode", [RollbackMode.BASIC,
                                  RollbackMode.OPTIMIZED])
@pytest.mark.parametrize("tenth", (0, 3, 6, 10))
def test_prediction_equals_measurement(mode, tenth):
    plan = make_tour_plan(ring(5), 7, mixed_fraction=tenth / 10,
                          rollback_depth=6)
    world = build_tour_world(5, seed=41)
    record = world.launch(TourAgent(f"spy-{mode.value}-{tenth / 10}-41",
                                    plan),
                          at=plan.steps[0].node, method="run", mode=mode)
    captured = {}
    driver = world.rollback_driver(mode)
    original = driver.start_rollback

    def spy(node, item, sp_id):
        _, captured["log"] = item.payload.unpack()
        captured["node"] = node.name
        original(node, item, sp_id)

    driver.start_rollback = spy
    world.run(max_events=1_000_000)
    assert record.status is AgentStatus.FINISHED
    prediction = predict_rollback(captured["log"], plan.rollback_to,
                                  captured["node"], mode)
    assert (prediction.agent_transfers
            == world.metrics.count("agent.transfers.compensation"))
    assert (prediction.compensation_txs
            == world.metrics.count("compensation.tx_committed"))
    if mode is RollbackMode.OPTIMIZED:
        assert (prediction.rce_ships
                == world.metrics.count("net.messages.rce-list"))


def test_rpc_decision_picks_the_cheaper_plan():
    model = DecisionModel(network=NetworkParams())
    for agent_bytes in (2_000, 20_000, 200_000):
        for interactions in (1, 5, 20, 100):
            rpc = model.rpc_cost(interactions, 256, 1_024)
            migrate = model.migration_cost(agent_bytes)
            expected = AccessPlan.RPC if rpc <= migrate else AccessPlan.MIGRATE
            assert model.choose(interactions, 256, 1_024,
                                agent_bytes) is expected


def test_rpc_crossover_moves_out_with_agent_size():
    model = DecisionModel(network=NetworkParams())
    crossovers = [round(model.crossover_interactions(256, 1_024, kb * 1_024),
                        1)
                  for kb in (1, 4, 16, 64, 256)]
    assert crossovers == sorted(crossovers)
