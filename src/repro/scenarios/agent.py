"""The scenario tour agent: executes a generated itinerary plan.

A plan is a list of :class:`StepSpec` positions.  Six forward
operations exercise the three compensation shapes plus the three
recoverability levels:

========== =========================== ===============
op         compensation                recoverability
========== =========================== ===============
purchase   full refund (RCE)           exact
voucher    refund + void (MCE)         exact
book       refund minus fee (RCE)      semantic
reserve    release with penalty (RCE)  semantic
promise    cancellation notice (ACE)   semantic
ship       none — goods left the dock  unrecoverable
========== =========================== ===============

Every compensatable step also logs ``scn.mark_undone`` (the rollback
guard and residue ledger).  A ``ship`` step constitutes a *ratchet*
savepoint ``rt<pos>`` right after itself: a later rollback across the
ship step is adjusted up to that ratchet by the driver's
recoverability check (:meth:`RollbackLog.choose_rollback_point`).

A ``"rollback"`` plan position fires ``ctx.rollback(target)`` exactly
once: its guard checks whether the preceding plan position is already
in ``wro["undone"]`` — the weakly reversible signal the compensations
wrote — and becomes a plain hop on re-execution.  Plan generators must
guarantee the preceding position is a compensatable op step so the
guard always trips (see :func:`repro.fuzz.generator.validate_case`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import repro.scenarios.ops  # noqa: F401  (registers the scn.* operations)
from repro.agent.agent import MobileAgent
from repro.errors import UsageError
from repro.log.entries import Recoverability

#: Forward operations a plan position may carry (plus "rollback").
OP_KINDS = ("purchase", "voucher", "book", "reserve", "promise", "ship")

#: Steps whose compensation leaves a semantic residue.
SEMANTIC_OPS = ("book", "reserve", "promise")

#: Every node bank seeds these shared accounts at zero.
SHARED_ACCOUNTS = ("merchant", "escrow-pool", "fees", "penalties")

#: Per-node opening balance of each agent's customer account.
CUSTOMER_SEED = 100_000


@dataclass
class StepSpec:
    """One plan position of a scenario itinerary (JSON-round-trippable)."""

    op: str                       # OP_KINDS entry, or "rollback"
    node: str
    amount: int = 0
    fee: int = 0
    penalty: int = 0
    tag: str = ""
    savepoint: bool = False
    target: Optional[str] = None  # rollback only: requested savepoint id

    def to_json(self) -> dict[str, Any]:
        data: dict[str, Any] = {"op": self.op, "node": self.node}
        for key in ("amount", "fee", "penalty"):
            if getattr(self, key):
                data[key] = getattr(self, key)
        if self.tag:
            data["tag"] = self.tag
        if self.savepoint:
            data["savepoint"] = True
        if self.target is not None:
            data["target"] = self.target
        return data

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "StepSpec":
        return cls(op=data["op"], node=data["node"],
                   amount=data.get("amount", 0), fee=data.get("fee", 0),
                   penalty=data.get("penalty", 0), tag=data.get("tag", ""),
                   savepoint=data.get("savepoint", False),
                   target=data.get("target"))


class ScenarioAgent(MobileAgent):
    """Executes a :class:`StepSpec` plan; rolls back where told to."""

    def __init__(self, agent_id: str, plan):
        super().__init__(agent_id)
        self.plan = list(plan)
        self.customer = f"cust-{agent_id}"
        self.sro["pos"] = 0

    def step(self, ctx):
        pos = self.sro["pos"]
        spec = self.plan[pos]
        if spec.op == "rollback":
            if (pos - 1) not in self.wro.get("undone", ()):
                ctx.rollback(spec.target)  # never returns
            # Guard set: the rollback already ran — plain hop onward.
        else:
            self._execute(ctx, pos, spec)
        self.sro["pos"] = pos + 1
        if pos + 1 < len(self.plan):
            ctx.goto(self.plan[pos + 1].node, "step")
        else:
            ctx.finish(self._summary())
        if spec.savepoint and spec.op != "rollback":
            ctx.savepoint(f"sp{pos}")
        if spec.op == "ship":
            # The ratchet: the nearest state a rollback from above can
            # reach once the goods have left the dock.
            ctx.savepoint(f"rt{pos}")

    def _execute(self, ctx, pos: int, spec: StepSpec) -> None:
        bank = ctx.resource("bank")
        cust = self.customer
        if spec.op == "purchase":
            bank.transfer(cust, "merchant", spec.amount)
            ctx.log_resource_compensation(
                "scn.undo_purchase",
                {"customer": cust, "amount": spec.amount}, resource="bank")
            ctx.log_agent_compensation("scn.mark_undone", {"step": pos})
            ctx.annotate_recoverability(Recoverability.EXACT)
        elif spec.op == "voucher":
            bank.transfer(cust, "merchant", spec.amount)
            self.wro.setdefault("vouchers", []).append(f"{pos}:{spec.tag}")
            ctx.log_mixed_compensation(
                "scn.refund_voucher",
                {"customer": cust, "amount": spec.amount, "step": pos},
                resource="bank")
            ctx.log_agent_compensation("scn.mark_undone", {"step": pos})
            ctx.annotate_recoverability(Recoverability.EXACT)
        elif spec.op == "book":
            bank.transfer(cust, "merchant", spec.amount)
            ctx.log_resource_compensation(
                "scn.refund_minus_fee",
                {"customer": cust, "amount": spec.amount, "fee": spec.fee},
                resource="bank")
            ctx.log_agent_compensation(
                "scn.mark_undone", {"step": pos, "fee": spec.fee})
            ctx.annotate_recoverability(Recoverability.SEMANTIC)
        elif spec.op == "reserve":
            bank.transfer(cust, "escrow-pool", spec.amount)
            ctx.log_resource_compensation(
                "scn.release_with_penalty",
                {"customer": cust, "amount": spec.amount,
                 "penalty": spec.penalty}, resource="bank")
            ctx.log_agent_compensation(
                "scn.mark_undone", {"step": pos, "penalty": spec.penalty})
            ctx.annotate_recoverability(Recoverability.SEMANTIC)
        elif spec.op == "promise":
            self.wro.setdefault("promises", []).append(f"{pos}:{spec.tag}")
            ctx.log_agent_compensation(
                "scn.cancel_notice", {"step": pos, "tag": spec.tag})
            ctx.log_agent_compensation("scn.mark_undone", {"step": pos})
            ctx.annotate_recoverability(Recoverability.SEMANTIC)
        elif spec.op == "ship":
            bank.transfer(cust, "merchant", spec.amount)
            ctx.annotate_recoverability(Recoverability.UNRECOVERABLE)
        else:
            raise UsageError(f"unknown scenario op {spec.op!r}")

    def _summary(self) -> dict[str, Any]:
        return {
            "pos": self.sro["pos"],
            "undone": list(self.wro.get("undone", [])),
            "vouchers": list(self.wro.get("vouchers", [])),
            "voided": list(self.wro.get("voided", [])),
            "promises": list(self.wro.get("promises", [])),
            "notices": list(self.wro.get("notices", [])),
            "fees_lost": self.wro.get("fees_lost", 0),
            "penalties_lost": self.wro.get("penalties_lost", 0),
        }
