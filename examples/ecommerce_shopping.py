"""E-commerce shopping agent — the paper's motivating scenario.

An agent carries digital cash (Chaum-style coins with serial numbers),
buys goods at two shops, then decides the combined deal is bad and
rolls back.  The example demonstrates every compensation subtlety of
Section 3.2:

* the refunds return *equivalent* cash — same value, **different
  serial numbers** (the purse is weakly reversible; a before-image
  would resurrect retired serials);
* one shop charges a **refund fee** inside its cash window, so the
  agent comes back poorer — information produced *by* the rollback;
* the other shop's cash window has expired, so the agent receives a
  **credit note** instead of coins;
* money is conserved across the whole ordeal (banks + mint float +
  live coins are audited before and after).

Run:  python examples/ecommerce_shopping.py
"""

from repro import (
    Bank,
    EconomyAuditor,
    Mint,
    MobileAgent,
    RollbackMode,
    Shop,
    World,
    mixed_compensation,
)
from repro.resources.cash import purse_value
from repro.resources.shop import RefundPolicy


# -- compensating operations ----------------------------------------------------

@mixed_compensation("shopping.return_purchase")
def return_purchase(wro, shop, params, ctx):
    """Return the goods bought under ``params['receipt_id']``.

    A mixed compensation entry: it needs the shop (restock, pay the
    refund) *and* the agent's weakly reversible space (drop the goods,
    bank the refund coins or the credit note).  The refund outcome
    depends on the shop's policy and on *when* the compensation runs —
    the paper's time-dependent reimbursement.
    """
    receipt_id = params["receipt_id"]
    coins, note, fee = shop.refund(receipt_id, ctx.now)
    goods = [g for g in wro.get("goods", []) if g["receipt"] != receipt_id]
    wro["goods"] = goods
    wro["purse"] = list(wro.get("purse", [])) + list(coins)
    if note is not None:
        wro["credit_notes"] = list(wro.get("credit_notes", [])) + [note]
    wro["fees_paid"] = wro.get("fees_paid", 0) + fee


# -- the agent ---------------------------------------------------------------------

class ShoppingAgent(MobileAgent):
    """Buy a book and a record, then reconsider the whole trip."""

    def withdraw_cash(self, ctx):
        bank = ctx.resource("bank")
        mint = ctx.resource("mint")
        bank.withdraw("me", 300)
        mint.fund(300)
        self.wro["purse"] = mint.issue(100, 3)  # three 100-cent coins
        # Deliberately no compensation entry: the agent treats its cash
        # withdrawal as final (it can redeposit later by itself).
        ctx.savepoint("cash-in-hand")
        ctx.goto("bookshop", "buy_book")

    def _pay(self, ctx, shop_name, item):
        shop = ctx.resource(shop_name)
        purse = list(self.wro["purse"])
        price = shop.price_of(item)
        # Spend coins covering the price; change comes back as a fresh coin.
        paying, rest, total = [], [], 0
        for coin in purse:
            if total < price:
                paying.append(coin)
                total += coin.value
            else:
                rest.append(coin)
        receipt, change = shop.buy(item, 1, paying, ctx.now)
        self.wro["purse"] = rest + change
        self.wro.setdefault("goods", []).append(
            {"item": item, "receipt": receipt.receipt_id})
        ctx.log_mixed_compensation(
            "shopping.return_purchase", {"receipt_id": receipt.receipt_id},
            resource=shop_name)

    def _rolled_back_already(self) -> bool:
        # Rollback leaves its traces only in the weakly reversible
        # space: fees charged or credit notes received.
        return bool(self.wro.get("fees_paid")
                    or self.wro.get("credit_notes"))

    def buy_book(self, ctx):
        if not self._rolled_back_already():
            self._pay(ctx, "bookshop", "book")
        ctx.goto("recordshop", "buy_record")

    def buy_record(self, ctx):
        if not self._rolled_back_already():
            self._pay(ctx, "recordshop", "record")
        ctx.goto("home", "evaluate")

    def evaluate(self, ctx):
        if not self._rolled_back_already():
            # First pass: the agent's program logic decides the
            # purchases should be undone.
            ctx.rollback("cash-in-hand")
        ctx.finish({
            "purse_value": purse_value(self.wro["purse"]),
            "purse_serials": sorted(c.serial for c in self.wro["purse"]),
            "goods": self.wro.get("goods", []),
            "credit_notes": [n.value for n in
                             self.wro.get("credit_notes", [])],
            "fees_paid": self.wro.get("fees_paid", 0),
        })


def main():
    world = World(seed=7)
    world.add_nodes("home", "bookshop", "recordshop")

    bank = Bank("bank")
    bank.seed_account("me", 1000)
    world.node("home").add_resource(bank)
    mint = Mint("mint")
    world.node("home").add_resource(mint)
    # Shops share the mint for coin handling (one currency zone); it is
    # reachable from their nodes as a shared resource.
    bookshop = Shop("bookshop", mint,
                    RefundPolicy(cash_window=3600.0, fee=10))
    bookshop.stock_item("book", 5, 120)
    world.node("bookshop").add_resource(bookshop)
    world.node("bookshop").share_resource(mint)
    recordshop = Shop("recordshop", mint,
                      RefundPolicy(cash_window=0.0))  # window already over
    recordshop.stock_item("record", 2, 80)
    world.node("recordshop").add_resource(recordshop)
    world.node("recordshop").share_resource(mint)

    auditor = EconomyAuditor(banks=[bank], mints=[mint])
    supply_before = auditor.money_supply()

    agent = ShoppingAgent("shopper")

    record = world.launch(agent, at="home", method="withdraw_cash",
                          mode=RollbackMode.BASIC)
    world.run()

    result = record.result
    supply_after = auditor.money_supply()

    print("agent status:        ", record.status.value)
    print("goods kept:          ", result["goods"])
    print("purse value (cents): ", result["purse_value"])
    print("purse serials:       ", result["purse_serials"])
    print("refund fees paid:    ", result["fees_paid"])
    print("credit notes (value):", result["credit_notes"])
    print("book stock restored: ", bookshop.peek(("stock", "book")))
    print("record stock restored:", recordshop.peek(("stock", "record")))
    print("money supply before: ", supply_before)
    print("money supply after:  ", supply_after)

    # Section 3.2's claims, machine-checked:
    assert result["goods"] == [], "purchases were compensated"
    assert result["fees_paid"] == 10, "bookshop charged its refund fee"
    assert result["credit_notes"] == [80], "recordshop issued a credit note"
    # value: 300 withdrawn - 120 book (refunded -10 fee) - 80 record
    # (credit note, not cash) => purse = 300 - 10 - 80 = 210
    assert result["purse_value"] == 210
    assert supply_before == supply_after, "money is conserved"
    print("OK: equivalent-state compensation, fees, credit notes, "
          "conservation all hold.")


if __name__ == "__main__":
    main()
