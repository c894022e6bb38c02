"""Quickstart: a mobile agent with savepoints and partial rollback.

A price-checking agent hops across three nodes: it queries an offer
directory (strongly reversible — no compensation needed), places a
deposit at a bank (compensable), and then decides the deal is bad and
rolls the whole thing back before finishing with a different strategy.

Run:  python examples/quickstart.py

Scaling out: swap ``World`` for ``ShardedWorld(n_shards=N)`` to
partition the nodes across N kernels, or for
``ProcShardedWorld(n_shards=N)`` to run shards 1..N-1 in worker
processes on real cores — same seeded outcomes on every backend (see
the "Multiprocess shards" knobs in ROADMAP.md; agents and resources
must then be defined in an importable module, as everything here is).
"""

from repro import (
    Bank,
    InfoDirectory,
    MobileAgent,
    RollbackMode,
    World,
    agent_compensation,
    resource_compensation,
)


# -- compensating operations (shipped by name + parameters in the log) -------

@resource_compensation("quickstart.refund_deposit")
def refund_deposit(bank, params, ctx):
    """Undo the deposit: move the money back to the agent's account."""
    bank.transfer("store-escrow", params["customer"], params["amount"],
                  compensating=True)


@agent_compensation("quickstart.forget_reservation")
def forget_reservation(wro, params, ctx):
    """Remove the reservation record from the agent's private data."""
    wro["reservation"] = None
    wro["cancelled"] = wro.get("cancelled", 0) + 1


# -- the agent ----------------------------------------------------------------

class PriceChecker(MobileAgent):
    """Find an offer, reserve it, then reconsider."""

    def collect_offers(self, ctx):
        directory = ctx.resource("directory")
        # Query results live in the strongly reversible space: restoring
        # the savepoint image rolls them back, no compensation needed.
        self.sro["offers"] = directory.query("gadgets")
        ctx.savepoint("before-reserving")
        ctx.goto("store", "reserve")

    def reserve(self, ctx):
        if self.wro.get("cancelled"):
            # Second pass, after the rollback: the compensation wrote
            # the cancellation into the weakly reversible space — the
            # only place information can survive a rollback — so the
            # agent changes strategy and goes home empty-handed.
            ctx.goto("home", "decide")
            return
        offer = min(self.sro["offers"], key=lambda o: o["price"])
        bank = ctx.resource("bank")
        bank.transfer("customer", "store-escrow", offer["price"])
        ctx.log_resource_compensation(
            "quickstart.refund_deposit",
            {"customer": "customer", "amount": offer["price"]},
            resource="bank")
        self.wro["reservation"] = offer
        ctx.log_agent_compensation("quickstart.forget_reservation", {})
        ctx.goto("home", "decide")

    def decide(self, ctx):
        if self.wro.get("reservation") and not self.wro.get("cancelled"):
            # The program logic decides the current strategy does not
            # lead to the goal: initiate a partial rollback (never
            # returns — the step transaction aborts and the rollback
            # mechanism takes over).
            ctx.rollback("before-reserving")
        ctx.finish({
            "reservation": self.wro.get("reservation"),
            "cancelled": self.wro.get("cancelled", 0),
            "offers_seen": len(self.sro["offers"]),
        })


def main():
    world = World(seed=42)
    world.add_nodes("home", "infohub", "store")

    directory = InfoDirectory("directory")
    directory.publish("gadgets", [
        {"item": "gadget-a", "price": 120},
        {"item": "gadget-b", "price": 95},
    ])
    world.node("infohub").add_resource(directory)

    bank = Bank("bank")
    bank.seed_account("customer", 500)
    bank.seed_account("store-escrow", 0)
    world.node("store").add_resource(bank)

    agent = PriceChecker("price-checker")
    record = world.launch(agent, at="infohub", method="collect_offers",
                          mode=RollbackMode.OPTIMIZED)
    world.run()

    print("agent status:      ", record.status.value)
    print("result:            ", record.result)
    print("customer balance:  ", bank.peek("customer")["balance"],
          "(deposit was compensated)")
    print("escrow balance:    ", bank.peek("store-escrow")["balance"])
    print("rollbacks:         ", record.rollbacks_completed)
    print("compensation txs:  ", record.compensation_txs)
    print("agent transfers during rollback:",
          world.metrics.count("agent.transfers.compensation"),
          "(optimized mechanism shipped the compensation instead)")
    assert record.result["cancelled"] == 1
    assert record.result["reservation"] is None
    assert bank.peek("customer")["balance"] == 500
    assert bank.peek("store-escrow")["balance"] == 0
    print("OK: partial rollback restored the world.")


if __name__ == "__main__":
    main()
