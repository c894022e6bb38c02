"""Tests: the saga baseline is measurably wrong for mobile agents.

Section 4.1's argument, machine-checked: restoring weakly reversible
objects from a before-image resurrects retired coin serials (double
spend on next use) and silently discards refunds — the paper's
mechanism handles both correctly.
"""

import pytest

from repro import (
    AgentStatus,
    Mint,
    MobileAgent,
    RollbackMode,
    Shop,
    World,
    mixed_compensation,
)
from repro.bench import make_tour_plan, run_tour
from repro.bench.harness import build_tour_world
from repro.errors import RollbackLivelock
from repro.resources.cash import purse_value
from repro.resources.shop import RefundPolicy


@mixed_compensation("saga_t.return_purchase")
def saga_return_purchase(wro, shop, params, ctx):
    coins, note, fee = shop.refund(params["receipt_id"], ctx.now)
    wro["purse"] = list(wro.get("purse", [])) + list(coins)
    wro["goods"] = [g for g in wro.get("goods", [])
                    if g != params["receipt_id"]]
    if note is not None:
        wro.setdefault("credit_notes", []).append(note)
    wro["fees_paid"] = wro.get("fees_paid", 0) + fee


class CoinShopper(MobileAgent):
    """Withdraws coins, buys, rolls back, then tries to spend again."""

    def fund(self, ctx):
        mint = ctx.resource("mint")
        mint.fund(300)
        self.wro["purse"] = mint.issue(100, 3)
        ctx.savepoint("funded")
        ctx.goto("shop", "buy")

    def buy(self, ctx):
        if self.wro.get("fees_paid") is not None:
            ctx.goto("shop", "spend_again")
            return
        shop = ctx.resource("shop")
        purse = list(self.wro["purse"])
        paying = [purse[0]]
        receipt, change = shop.buy("widget", 1, paying, ctx.now)
        self.wro["purse"] = purse[1:] + list(change)
        self.wro.setdefault("goods", []).append(receipt.receipt_id)
        ctx.log_mixed_compensation("saga_t.return_purchase",
                                   {"receipt_id": receipt.receipt_id},
                                   resource="shop")
        ctx.goto("home", "reconsider")

    def reconsider(self, ctx):
        if self.wro.get("fees_paid") is None:
            ctx.rollback("funded")
        ctx.goto("shop", "spend_again")

    def spend_again(self, ctx):
        """Try to spend the purse after the rollback."""
        shop = ctx.resource("shop")
        outcome = {"purse_value": purse_value(self.wro["purse"]),
                   "fees_paid": self.wro.get("fees_paid")}
        try:
            purse = list(self.wro["purse"])
            shop.buy("widget", 1, [purse[0]], ctx.now)
            outcome["second_spend"] = "ok"
        except Exception as exc:
            outcome["second_spend"] = f"rejected: {type(exc).__name__}"
            # Roll the failed attempt's effects out of this step by
            # finishing anyway (the buy raised before mutating).
        ctx.finish(outcome)


def build_world(seed=13):
    world = World(seed=seed)
    world.add_nodes("home", "shop")
    mint = Mint("mint")
    world.node("home").add_resource(mint)
    shop = Shop("shop", mint, RefundPolicy(cash_window=3600.0, fee=5))
    shop.stock_item("widget", 10, 100)
    world.node("shop").add_resource(shop)
    world.node("shop").share_resource(mint)
    return world


def run_mode(mode):
    world = build_world()
    agent = CoinShopper(f"shopper-{mode.value}")
    record = world.launch(agent, at="home", method="fund", mode=mode)
    world.run(max_events=500_000)
    return world, record


def test_paper_mechanism_purse_spendable_after_rollback():
    world, record = run_mode(RollbackMode.BASIC)
    assert record.status is AgentStatus.FINISHED
    result = record.result
    # Refund coins carry fresh serials and ARE spendable.
    assert result["second_spend"] == "ok"
    assert result["fees_paid"] == 5
    # 300 initial - 5 refund fee = 295 before the second spend.
    assert result["purse_value"] == 295


def test_saga_baseline_resurrects_retired_serials():
    """Image-restoring the WROs is fatal, not just lossy.

    The saga restore clobbers the purse back to the pre-purchase image
    (retired serials, refund coins lost, fee invisible) *and* erases
    the very WRO signal that tells the agent it already rolled back —
    so the resumed agent re-buys with a retired coin and dies on the
    mint's double-spend check.
    """
    world, record = run_mode(RollbackMode.SAGA)
    assert world.metrics.count("saga.wro_image_restored") == 1
    assert record.status is AgentStatus.FAILED
    assert "double spend" in record.failure


def test_saga_savepoints_are_larger():
    """The baseline images the WRO space too, inflating savepoints."""
    from repro.log.rollback_log import RollbackLog
    from repro.tx.manager import Transaction

    world = build_world()
    agent = CoinShopper("sizer")
    agent.wro["ballast"] = b"w" * 20_000
    agent.set_control("home", "fund")
    protocol = world.step_protocol

    paper_log = RollbackLog()
    protocol._write_savepoint(paper_log, agent, ("sp", False),
                              Transaction("step", "home"),
                              include_wro=False)
    saga_log = RollbackLog()
    protocol._write_savepoint(saga_log, agent, ("sp", False),
                              Transaction("step", "home"),
                              include_wro=True)
    assert saga_log.size_bytes() > paper_log.size_bytes() + 15_000
    # And the saga image is recoverable while the paper's mechanism
    # stores no WRO image at all.
    assert saga_log.reconstruct_wro("sp")["ballast"] == b"w" * 20_000
    assert paper_log.reconstruct_wro("sp") is None


def test_saga_rollback_livelock_is_detected():
    """A tour whose rollback signal lives in the WRO space rolls back
    forever under the saga restore; the driver raises on the third
    identical restore instead of running into the kernel's event cap."""
    world = build_tour_world(3, seed=8)
    plan = make_tour_plan(["n0", "n1", "n2"], 4)
    with pytest.raises(RollbackLivelock, match="saga rollback livelock"):
        run_tour(plan, 3, mode=RollbackMode.SAGA, seed=8, world=world)
    assert world.metrics.count("rollback.livelock") == 1
    assert world.metrics.count("saga.wro_image_restored") == 3
