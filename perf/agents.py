"""The benchmark's own agent and compensating operations.

Kept here, not in ``src/repro/bench/``, so that the load cannot change
under the benchmark.  The compensations are registered when this
module is imported: a spawn worker rebuilds its registry by importing
``perf.agents``, which it does when it unpickles the first agent.

Step kinds follow the paper's operation-entry classes: ``rce`` moves
money between two accounts of the local bank (resource compensation
entry), ``ace`` notes something in the weakly reversible space (agent
compensation entry), ``mixed`` withdraws cash into the agent's purse
(mixed entry: compensation needs agent and bank together, which is
what forces agent transfers during rollback) and ``none`` reads the
local directory into the strongly reversible space.
"""

from __future__ import annotations

from repro import (
    MobileAgent,
    StepContext,
    agent_compensation,
    mixed_compensation,
    resource_compensation,
)

from perf.inputs import AgentSpec, StepSpec

BANK = "bank"
DIRECTORY = "directory"


@resource_compensation("perf.undo_transfer")
def undo_transfer(bank, params, ctx):
    bank.transfer(params["dst"], params["src"], params["amount"],
                  compensating=True)


@agent_compensation("perf.forget_note")
def forget_note(wro, params, ctx):
    notes = list(wro.get("notes", []))
    if params["note"] in notes:
        notes.remove(params["note"])
    wro["notes"] = notes


@agent_compensation("perf.tick")
def tick(wro, params, ctx):
    """How the resumed agent learns that a rollback completed: the
    weakly reversible space is the only state that survives one."""
    wro["rolled_back"] = wro.get("rolled_back", 0) + 1


@mixed_compensation("perf.return_cash")
def return_cash(wro, bank, params, ctx):
    purse = dict(wro.get("purse", {}))
    amount = purse.pop(params["slot"], 0)
    bank.deposit(params["account"], amount)
    wro["purse"] = purse


class PerfAgent(MobileAgent):
    """Executes one generated :class:`~perf.inputs.AgentSpec`."""

    def __init__(self, spec: AgentSpec):
        super().__init__(spec.agent_id)
        self.spec = spec
        self.sro["pos"] = 0
        if spec.ballast:
            self.sro["ballast"] = b"s" * spec.ballast

    def run(self, ctx: StepContext) -> None:
        pos = self.sro["pos"]
        steps = self.spec.steps
        step = steps[pos]
        self._perform(ctx, step, pos)
        if pos + 1 == len(steps):
            ctx.log_agent_compensation("perf.tick", {})
            ctx.goto(self.spec.decision_node, "decide")
        else:
            ctx.goto(steps[pos + 1].node, "run")
        self.sro["pos"] = pos + 1
        if step.savepoint is not None:
            ctx.savepoint(step.savepoint)

    def decide(self, ctx: StepContext) -> None:
        rolled = self.wro.get("rolled_back", 0)
        targets = self.spec.rollback_targets
        if rolled < len(targets):
            ctx.rollback(targets[rolled])
        # The task is complete: nothing can roll back past this point.
        ctx.truncate_log()
        ctx.finish({
            "rolled_back": rolled,
            "notes": len(self.wro.get("notes", [])),
            "purse": sum(self.wro.get("purse", {}).values()),
            "collected": len(self.sro.get("collected", [])),
        })

    def _perform(self, ctx: StepContext, step: StepSpec, pos: int) -> None:
        if step.kind == "rce":
            ctx.resource(BANK).transfer("merchant", "escrow", step.amount)
            ctx.log_resource_compensation(
                "perf.undo_transfer",
                {"src": "merchant", "dst": "escrow", "amount": step.amount},
                resource=BANK)
        elif step.kind == "ace":
            note = f"note-{pos}"
            self.wro.setdefault("notes", []).append(note)
            ctx.log_agent_compensation("perf.forget_note", {"note": note})
        elif step.kind == "mixed":
            ctx.resource(BANK).withdraw("merchant", step.amount)
            purse = dict(self.wro.get("purse", {}))
            purse[pos] = step.amount
            self.wro["purse"] = purse
            ctx.log_mixed_compensation(
                "perf.return_cash", {"slot": pos, "account": "merchant"},
                resource=BANK)
        elif step.kind == "none":
            offers = ctx.resource(DIRECTORY).query("offers")
            self.sro.setdefault("collected", []).append(
                (ctx.node_name, len(offers)))
        else:
            raise ValueError(f"unknown step kind {step.kind!r}")
