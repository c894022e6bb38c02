"""Semantic compensating operations for the scenario pack.

The paper's examples compensate *exactly* (an undone transfer restores
the original balances bit for bit).  Real tool-agent workflows rarely
get that luxury — DART's observation is that compensations are usually
*semantic*: they restore an acceptable state, and the difference is a
residue the workflow accepts as the price of rolling back.  This module
registers the three canonical shapes:

* **refund minus fees** (``scn.refund_minus_fee``) — a booking refund
  keeps a non-refundable handling fee;
* **un-reserve with penalty** (``scn.release_with_penalty``) — an
  escrowed reservation releases minus a cancellation penalty;
* **compensate by notification** (``scn.cancel_notice``) — a promise
  cannot be unmade, only cancelled by a message.

Everything here is module-level: spawn workers resolve agents and
operations by reference (pickle-by-name), so importing this module in
any process registers the ``scn.*`` names in that process's registry.

Account conventions (every scenario node hosts a ``Bank`` named
``"bank"``): per-agent customer accounts ``cust-<agent_id>``, and the
shared ``merchant`` / ``escrow-pool`` / ``fees`` / ``penalties``
accounts, all overdraft-allowed so generated workloads never wedge on
balance checks.
"""

from __future__ import annotations

import os

from repro.compensation.registry import (
    agent_compensation,
    mixed_compensation,
    resource_compensation,
)

#: Fault-injection knob for the fuzzer's self-test: set to
#: ``"refund-full"`` to make :func:`refund_minus_fee` deliberately
#: refund the whole amount (ignoring the non-refundable fee).  Read at
#: compensation-execution time and inherited by spawn workers, so the
#: bug manifests identically on every backend — the model oracle, which
#: never reads it, is what catches it.
INJECT_BUG_ENV = "REPRO_FUZZ_INJECT_BUG"


def _injected_bug() -> str:
    return os.environ.get(INJECT_BUG_ENV, "")


@resource_compensation("scn.undo_purchase")
def undo_purchase(bank, params, ctx):
    """Exact compensation: the full purchase amount flows back."""
    bank.transfer("merchant", params["customer"], params["amount"],
                  compensating=True)


@resource_compensation("scn.refund_minus_fee")
def refund_minus_fee(bank, params, ctx):
    """Semantic compensation: refund a booking minus the handling fee."""
    amount, fee = params["amount"], params["fee"]
    if _injected_bug() == "refund-full":
        fee = 0  # deliberately wrong: the fee is non-refundable
    bank.transfer("merchant", params["customer"], amount - fee,
                  compensating=True)
    if fee:
        bank.transfer("merchant", "fees", fee, compensating=True)


@resource_compensation("scn.release_with_penalty")
def release_with_penalty(bank, params, ctx):
    """Semantic compensation: release a reservation, keep a penalty."""
    amount, penalty = params["amount"], params["penalty"]
    bank.transfer("escrow-pool", params["customer"], amount - penalty,
                  compensating=True)
    if penalty:
        bank.transfer("escrow-pool", "penalties", penalty,
                      compensating=True)


@agent_compensation("scn.cancel_notice")
def cancel_notice(wro, params, ctx):
    """Compensate by notification: a promise is cancelled, not unmade."""
    wro.setdefault("notices", []).append(
        "cancelled:{}:{}".format(params["step"], params["tag"]))


@agent_compensation("scn.mark_undone")
def mark_undone(wro, params, ctx):
    """Record that plan position ``step`` was rolled back.

    The ``undone`` list doubles as the scenario agent's rollback guard
    (the weakly reversible signal that survives the rollback, exactly
    as the paper's Section 4.1 requires) and as the semantic-residue
    ledger: lost fees and penalties accumulate here so the outcome
    surface states the price that was paid.
    """
    wro.setdefault("undone", []).append(params["step"])
    if params.get("fee"):
        wro["fees_lost"] = wro.get("fees_lost", 0) + params["fee"]
    if params.get("penalty"):
        wro["penalties_lost"] = (wro.get("penalties_lost", 0)
                                 + params["penalty"])


@mixed_compensation("scn.refund_voucher")
def refund_voucher(wro, bank, params, ctx):
    """Mixed compensation: refund the voucher and void it in the WRO."""
    bank.transfer("merchant", params["customer"], params["amount"],
                  compensating=True)
    wro.setdefault("voided", []).append(params["step"])
