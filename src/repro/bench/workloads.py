"""Parameterised tour workloads.

A *tour* sends one agent along a chain of nodes.  Every step performs
work on the local bank and registers compensating operations according
to its :class:`StepSpec.kind`:

``rce``
    transfer money between two local accounts; compensation is a pure
    resource compensation entry (the paper's fund-transfer example);
``ace``
    record a note in the weakly reversible space; compensation is a
    pure agent compensation entry;
``mixed``
    withdraw cash into the agent's purse; compensation must return the
    money *and* remove it from the purse — a mixed compensation entry;
``none``
    query the local directory into the strongly reversible space — no
    compensation needed at all (the paper's information-gathering
    example motivating transfer avoidance).

The step just before the decision step always registers one extra
agent compensation entry (``bench.tick``): its execution during
rollback is how the resumed agent learns the rollback happened — the
only paper-sanctioned channel for that information is the weakly
reversible space (Section 4.1).

The decision step rolls back to the configured savepoint until the
requested number of rollbacks has been observed, then finishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.agent.agent import MobileAgent
from repro.agent.context import StepContext
from repro.compensation.registry import (
    agent_compensation,
    mixed_compensation,
    resource_compensation,
)
from repro.errors import UsageError

BANK = "bank"
DIRECTORY = "directory"


# ---------------------------------------------------------------------------
# Registered compensating operations used by tour workloads
# ---------------------------------------------------------------------------

@resource_compensation("bench.undo_transfer")
def undo_transfer(bank, params, ctx):
    """Compensate a fund transfer: move the money back (RCE)."""
    bank.transfer(params["dst"], params["src"], params["amount"],
                  compensating=True)


@agent_compensation("bench.forget_note")
def forget_note(wro, params, ctx):
    """Compensate a recorded note: drop it from the WRO space (ACE)."""
    notes = list(wro.get("notes", []))
    if params["note"] in notes:
        notes.remove(params["note"])
    wro["notes"] = notes


@agent_compensation("bench.tick")
def tick(wro, params, ctx):
    """Signal a completed rollback into the WRO space (ACE)."""
    wro["rolled_back"] = wro.get("rolled_back", 0) + 1


@mixed_compensation("bench.return_cash")
def return_cash(wro, bank, params, ctx):
    """Compensate a cash withdrawal: pay back and empty the purse (MCE).

    Needs the agent's purse (WRO) *and* the bank — the agent must be
    co-located with the resource, which is what makes steps of kind
    ``mixed`` force agent transfers during rollback.
    """
    purse = dict(wro.get("purse", {}))
    amount = purse.pop(params["node"], 0)
    bank.deposit(params["account"], amount)
    wro["purse"] = purse


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

@dataclass
class StepSpec:
    """One tour step."""

    node: str
    kind: str  # "rce" | "ace" | "mixed" | "none"
    amount: int = 10
    savepoint: Optional[str] = None  # constitute SP(id) at end of this step


@dataclass
class TourPlan:
    """A full tour: steps, decision node, rollback target and count."""

    steps: list[StepSpec]
    decision_node: str
    rollback_to: Optional[str] = None
    rollback_times: int = 1
    sro_ballast: int = 0  # bytes of inert strongly reversible payload
    wro_ballast: int = 0  # bytes of inert weakly reversible payload

    def savepoint_ids(self) -> list[str]:
        return [s.savepoint for s in self.steps if s.savepoint is not None]


def make_tour_plan(nodes: list[str], n_steps: int,
                   mixed_fraction: float = 0.0,
                   ace_fraction: float = 0.0,
                   none_fraction: float = 0.0,
                   savepoint_every: Optional[int] = None,
                   rollback_depth: Optional[int] = None,
                   rollback_times: int = 1,
                   sro_ballast: int = 0,
                   wro_ballast: int = 0) -> TourPlan:
    """Build a deterministic tour plan.

    ``mixed_fraction`` / ``ace_fraction`` / ``none_fraction`` of the
    steps (spread evenly, deterministic) get those kinds; the rest are
    ``rce``.  ``savepoint_every=k`` constitutes a savepoint after steps
    0, k, 2k, ...; the default places one only after step 0.
    ``rollback_depth`` picks the rollback target so that this many
    committed steps must be compensated (None → roll back to the first
    savepoint).
    """
    if n_steps < 2:
        raise UsageError("a tour needs at least 2 steps")
    kinds = ["rce"] * n_steps
    def _spread(fraction: float, kind: str, taken: set[int]) -> None:
        count = round(fraction * n_steps)
        if count <= 0:
            return
        stride = max(1, n_steps // count)
        placed = 0
        for i in range(0, n_steps):
            index = (i * stride + 1) % n_steps
            if placed >= count:
                break
            if index not in taken and index != 0:
                kinds[index] = kind
                taken.add(index)
                placed += 1
        # Fall back to any free slot if striding collided too often.
        for index in range(1, n_steps):
            if placed >= count:
                break
            if index not in taken:
                kinds[index] = kind
                taken.add(index)
                placed += 1

    taken: set[int] = set()
    _spread(mixed_fraction, "mixed", taken)
    _spread(ace_fraction, "ace", taken)
    _spread(none_fraction, "none", taken)

    steps = []
    for i in range(n_steps):
        node = nodes[i % len(nodes)]
        savepoint = None
        if savepoint_every is not None:
            if i % savepoint_every == 0:
                savepoint = f"sp-{i}"
        elif i == 0:
            savepoint = "sp-0"
        steps.append(StepSpec(node=node, kind=kinds[i], savepoint=savepoint))

    sp_ids = [s.savepoint for s in steps if s.savepoint]
    if not sp_ids:
        raise UsageError("plan has no savepoint to roll back to")
    if rollback_depth is None:
        target = sp_ids[0]
    else:
        # Steps after savepoint sp-i are i+1..n_steps-1 plus the aborted
        # decision step; committed steps to compensate = n_steps-1-i.
        wanted = max(0, n_steps - 1 - rollback_depth)
        candidates = [s.savepoint for s in steps
                      if s.savepoint is not None
                      and int(s.savepoint.split("-")[1]) <= wanted]
        if not candidates:
            raise UsageError(
                f"no savepoint allows rollback depth {rollback_depth}")
        target = candidates[-1]
    decision_node = nodes[n_steps % len(nodes)]
    return TourPlan(steps=steps, decision_node=decision_node,
                    rollback_to=target, rollback_times=rollback_times,
                    sro_ballast=sro_ballast, wro_ballast=wro_ballast)


# ---------------------------------------------------------------------------
# The tour agent
# ---------------------------------------------------------------------------

class TourAgent(MobileAgent):
    """Executes a :class:`TourPlan`; the workhorse of the tests and CLI."""

    def __init__(self, agent_id: str, plan: TourPlan):
        super().__init__(agent_id)
        self.plan = plan
        self.sro["pos"] = 0
        if plan.sro_ballast:
            self.sro["ballast"] = b"s" * plan.sro_ballast
        if plan.wro_ballast:
            self.wro["ballast"] = b"w" * plan.wro_ballast

    # -- steps ---------------------------------------------------------------

    def run(self, ctx: StepContext) -> None:
        pos = self.sro["pos"]
        spec = self.plan.steps[pos]
        self._perform(ctx, spec, pos)
        if pos + 1 == len(self.plan.steps):
            # Last work step: register the rollback signal and head to
            # the decision node.
            ctx.log_agent_compensation("bench.tick", {})
            ctx.goto(self.plan.decision_node, "decide")
        else:
            ctx.goto(self.plan.steps[pos + 1].node, "run")
        self.sro["pos"] = pos + 1
        if spec.savepoint is not None:
            ctx.savepoint(spec.savepoint)

    def decide(self, ctx: StepContext) -> None:
        rolled = self.wro.get("rolled_back", 0)
        if (self.plan.rollback_to is not None
                and rolled < self.plan.rollback_times):
            ctx.rollback(self.plan.rollback_to)
        ctx.finish({
            "rolled_back": rolled,
            "notes": list(self.wro.get("notes", [])),
            "purse": dict(self.wro.get("purse", {})),
            "collected": list(self.sro.get("collected", [])),
        })

    # -- work kinds -------------------------------------------------------------

    def _perform(self, ctx: StepContext, spec: StepSpec, pos: int) -> None:
        if spec.kind == "rce":
            bank = ctx.resource(BANK)
            bank.transfer("merchant", "escrow", spec.amount)
            ctx.log_resource_compensation(
                "bench.undo_transfer",
                {"src": "merchant", "dst": "escrow", "amount": spec.amount},
                resource=BANK)
        elif spec.kind == "ace":
            note = f"note-{pos}-{ctx.node_name}"
            self.wro.setdefault("notes", []).append(note)
            ctx.log_agent_compensation("bench.forget_note", {"note": note})
        elif spec.kind == "mixed":
            bank = ctx.resource(BANK)
            bank.withdraw("merchant", spec.amount)
            purse = dict(self.wro.get("purse", {}))
            purse[ctx.node_name] = purse.get(ctx.node_name, 0) + spec.amount
            self.wro["purse"] = purse
            ctx.log_mixed_compensation(
                "bench.return_cash",
                {"node": ctx.node_name, "account": "merchant"},
                resource=BANK)
        elif spec.kind == "none":
            directory = ctx.resource(DIRECTORY)
            offers = directory.query("offers")
            self.sro.setdefault("collected", []).append(
                (ctx.node_name, len(offers)))
        else:  # pragma: no cover - plan generator controls kinds
            raise UsageError(f"unknown step kind {spec.kind!r}")
