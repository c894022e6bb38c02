"""Fault injection: rollback survives node crashes (Section 4.3).

The paper's guarantee: "assuming that node crashes and network crashes
are only temporary [...] the algorithm ensures that all steps which
have to be rolled back are eventually rolled back and finally, the
state of the strongly reversible objects is restored as well."

Part 1 runs a tour whose rollback path is bombarded with node outages:
every compensation transaction's node crashes while the work is in
flight, aborting the transaction; the agent package stays in the
durable input queue and the compensation is retried at recovery.  The
rollback completes with exactly the right final state, just later.

Part 2 demonstrates the fault-tolerant extension: the node holding the
agent crashes *for a long time* mid-journey, and a shadow copy on an
alternate node takes over (step ledger arbitration keeps the execution
exactly-once).

Run:  python examples/fault_injection.py
"""

from repro import Bank, FTParams, MobileAgent, RollbackMode, World
from repro.agent.packages import Protocol
from repro.bench import make_tour_plan, run_tour
from repro.bench.harness import build_tour_world
from repro.sim.failures import CrashPlan


def part1_crashes_during_rollback():
    nodes = [f"n{i}" for i in range(5)]
    plan = make_tour_plan(nodes, 6, mixed_fraction=0.5, rollback_depth=5)

    # Clean run for reference.
    clean = run_tour(plan, 5, mode=RollbackMode.BASIC, seed=3)

    # Same run, but every node suffers repeated short outages.
    world = build_tour_world(5, seed=3)
    outages = [CrashPlan(node=f"n{i}", at=0.05 + 0.04 * i, duration=0.25)
               for i in range(5)]
    outages += [CrashPlan(node=f"n{i}", at=0.6 + 0.05 * i, duration=0.2)
                for i in range(5)]
    world.failures.apply_plan(outages)
    crashed = run_tour(plan, 5, mode=RollbackMode.BASIC, seed=3,
                       world=world)

    print("--- part 1: crashes during execution and rollback ---")
    print(f"clean run:   status={clean.status.value} "
          f"sim_time={clean.sim_time:.3f}s rollbacks={clean.rollbacks}")
    print(f"crashed run: status={crashed.status.value} "
          f"sim_time={crashed.sim_time:.3f}s rollbacks={crashed.rollbacks} "
          f"(crashes injected: {world.failures.crashes_injected}, "
          f"tx aborted by crashes: "
          f"{world.metrics.count('crash.tx_aborted')})")
    assert crashed.status.value == "finished"
    assert crashed.rollbacks == clean.rollbacks == 1
    # The final agent state is identical; only the time differs.
    assert crashed.result == clean.result, (crashed.result, clean.result)
    assert crashed.sim_time > clean.sim_time
    print("OK: rollback completed despite the outages, same final state.")


class Courier(MobileAgent):
    """Carries a payment across nodes (used for the FT takeover demo)."""

    def hop(self, ctx):
        hops = self.sro.setdefault("hops", [])
        hops.append(ctx.node_name)
        if len(hops) == 1:
            ctx.goto("relay", "hop")
        elif len(hops) == 2:
            ctx.goto("destination", "deliver")
        else:  # pragma: no cover
            ctx.finish(hops)

    def deliver(self, ctx):
        bank = ctx.resource("bank")
        bank.transfer("escrow", "payee", 75)
        ctx.finish({"hops": self.sro["hops"], "delivered": 75})


def part2_ft_takeover():
    world = World(seed=9, ft_params=FTParams(takeover_timeout=0.2))
    world.add_nodes("source", "relay", "relay-backup", "destination")
    bank = Bank("bank")
    bank.seed_account("escrow", 100)
    bank.seed_account("payee", 0)
    world.node("destination").add_resource(bank)
    # The backup node shadows step executions of the relay.
    world.set_alternates("relay", "relay-backup")

    # The relay crashes just after the agent's package lands there and
    # stays down far beyond the takeover timeout.
    world.failures.apply_plan([CrashPlan(node="relay", at=0.08,
                                         duration=30.0)])

    agent = Courier("courier")
    record = world.launch(agent, at="source", method="hop",
                          protocol=Protocol.FAULT_TOLERANT)
    world.run(until=35.0)
    world.run()

    print("--- part 2: fault-tolerant takeover (ref [11]) ---")
    print(f"status:     {record.status.value}")
    print(f"result:     {record.result}")
    print(f"promotions: {world.ft.promotions}, "
          f"stale discarded: {world.metrics.count('ft.stale_discarded')}")
    print(f"payee balance: {bank.peek('payee')['balance']}")
    assert record.status.value == "finished"
    assert record.result["hops"][1] == "relay-backup", record.result
    assert world.ft.promotions >= 1
    # Exactly-once: the transfer happened exactly once even though the
    # relay eventually recovers and finds its stale package.
    assert bank.peek("payee")["balance"] == 75
    print("OK: alternate node took over; effects exactly once.")


if __name__ == "__main__":
    part1_crashes_during_rollback()
    print()
    part2_ft_takeover()
