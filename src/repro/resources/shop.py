"""Shops with stock, digital-cash payment and refund policies.

Reproduces two pieces of Section 3.2:

* the out-of-stock scenario: T1 buys elsewhere because T2 took the last
  item; compensating T2 later does not disturb T1 (acceptable non-sound
  history);
* the time-dependent reimbursement policy: "until x hours after the
  purchase, the seller returns cash but charges a small fee, after
  that, the customer only gets a credit note".

A purchase pays with coins into the shop till; a refund pays out fresh
coins (via the shop's mint) minus the fee, or issues a
:class:`CreditNote`.  Either way the agent's purse afterwards differs
from its before-image — which is exactly why the purse must be a weakly
reversible object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import CompensationFailed, UsageError
from repro.resources.base import TransactionalResource
from repro.resources.cash import Coin, Mint, purse_value
from repro.scope import current as current_scope
from repro.tx.manager import Transaction


@dataclass(frozen=True)
class Receipt:
    """Proof of purchase; the parameter of the compensating operation."""

    receipt_id: str
    shop: str
    item: str
    quantity: int
    paid: int
    time: float


@dataclass(frozen=True)
class CreditNote:
    """Store credit issued when the cash-refund deadline passed."""

    shop: str
    value: int
    receipt_id: str


@dataclass(frozen=True)
class RefundPolicy:
    """How a shop compensates a purchase.

    ``cash_window`` — seconds after purchase during which a cash refund
    is possible; ``fee`` — minor units charged on a cash refund;
    ``after_window`` — "credit-note" or "cash" (a shop may keep
    refunding cash forever).
    """

    cash_window: float = float("inf")
    fee: int = 0
    after_window: str = "credit-note"


class Shop(TransactionalResource):
    """One shop on one node, backed by a mint for coin handling.

    State items: ``("stock", item)`` → units, ``("price", item)`` →
    minor units, ``"till"`` → coins held, ``("receipt", id)`` → open
    receipt records, ``"fees"`` → accumulated refund fees.
    """

    def __init__(self, name: str, mint: Mint,
                 policy: Optional[RefundPolicy] = None):
        super().__init__(name)
        self.mint = mint
        self.policy = policy or RefundPolicy()
        self.seed("till", 0)
        self.seed("fees", 0)

    # -- setup -----------------------------------------------------------------

    def stock_item(self, item: str, units: int, price: int) -> None:
        """World-setup: put ``units`` of ``item`` on the shelf."""
        self.seed(("stock", item), units)
        self.seed(("price", item), price)

    # -- forward operations -------------------------------------------------------

    def in_stock(self, tx: Transaction, item: str) -> int:
        """Units of ``item`` currently on the shelf."""
        return self.read(tx, ("stock", item), 0)

    def price_of(self, tx: Transaction, item: str) -> int:
        """Unit price of ``item``."""
        price = self.read(tx, ("price", item))
        if price is None:
            raise UsageError(f"{self.name}: unknown item {item!r}")
        return price

    def buy(self, tx: Transaction, item: str, quantity: int,
            coins: list[Coin], now: float) -> tuple[Receipt, list[Coin]]:
        """Buy ``quantity`` of ``item`` paying with ``coins``.

        Returns ``(receipt, change_coins)``.  The shop redeems the
        payment through its mint and keeps value in the till; change is
        paid out in fresh coins.
        """
        stock = self.in_stock(tx, item)
        if stock < quantity:
            raise UsageError(
                f"{self.name}: only {stock} x {item!r} in stock")
        cost = self.price_of(tx, item) * quantity
        paid = purse_value(coins)
        if paid < cost:
            raise UsageError(
                f"{self.name}: {paid} does not cover {cost}")
        self.write(tx, ("stock", item), stock - quantity)
        self.mint.redeem(tx, coins)
        change = self.mint.issue(tx, paid - cost, 1) if paid > cost else []
        self.write(tx, "till", self.read(tx, "till", 0) + cost)
        serial = current_scope().mint("receipt")
        receipt = Receipt(receipt_id=f"{self.name}-r{serial}",
                          shop=self.name, item=item, quantity=quantity,
                          paid=cost, time=now)
        self.write(tx, ("receipt", receipt.receipt_id), {
            "item": item, "quantity": quantity, "paid": cost,
            "time": now, "state": "open",
        })
        return receipt, change

    # -- compensating operation ------------------------------------------------------

    def refund(self, tx: Transaction, receipt_id: str,
               now: float) -> tuple[list[Coin], Optional[CreditNote], int]:
        """Compensate a purchase: restock and reimburse per policy.

        Returns ``(coins, credit_note, fee)``; exactly one of ``coins``
        / ``credit_note`` is non-empty unless the refund value is zero.
        Raises :class:`CompensationFailed` if the receipt is unknown or
        already refunded (a compensation must not run twice).
        """
        record = self.read(tx, ("receipt", receipt_id))
        if record is None or record["state"] != "open":
            raise CompensationFailed(
                f"{self.name}: receipt {receipt_id!r} not refundable")
        self.write(tx, ("receipt", receipt_id),
                   dict(record, state="refunded"))
        stock_key = ("stock", record["item"])
        self.write(tx, stock_key,
                   self.read(tx, stock_key, 0) + record["quantity"])
        till = self.read(tx, "till", 0)
        if till < record["paid"]:
            raise CompensationFailed(
                f"{self.name}: till {till} cannot cover refund "
                f"{record['paid']}")
        self.write(tx, "till", till - record["paid"])
        elapsed = now - record["time"]
        if elapsed <= self.policy.cash_window:
            fee = min(self.policy.fee, record["paid"])
            value = record["paid"] - fee
            if fee:
                self.write(tx, "fees", self.read(tx, "fees", 0) + fee)
                self.write(tx, "till", self.read(tx, "till", 0) + fee)
            coins = self.mint.issue(tx, value, 1) if value else []
            return coins, None, fee
        if self.policy.after_window == "cash":
            coins = self.mint.issue(tx, record["paid"], 1)
            return coins, None, 0
        # Credit note: value stays in the till as a liability.
        self.write(tx, "till", self.read(tx, "till", 0) + record["paid"])
        note = CreditNote(shop=self.name, value=record["paid"],
                          receipt_id=receipt_id)
        return [], note, 0

    # -- auditing ------------------------------------------------------------------------

    def till_value(self) -> int:
        """Money in the till, including fees kept (not transactional)."""
        return self.peek("till", 0)
