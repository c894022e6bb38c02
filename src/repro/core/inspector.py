"""Rollback log inspection and static rollback-cost prediction.

Two tools a platform operator (or the agent programmer) would want:

* :func:`format_log` — human-readable rendering of a rollback log;
* :func:`predict_rollback` — given a log, a target savepoint, the
  agent's current node and a mechanism, compute the *exact* cost the
  rollback will incur before running it: compensation transactions,
  agent transfers, shipped RCE lists, and per-step execution sites.

The prediction is the paper's Section 4.4.1 analysis, mechanised: the
basic mechanism transfers the agent to every step's node (even when
nothing needs compensating there — the "second problem" of §4.3); the
optimized mechanism transfers only for steps whose end-of-step entry
carries the mixed flag and ships resource compensation entries for the
rest.  ``tests/test_paper_claims.py`` checks prediction == measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.agent.packages import RollbackMode
from repro.errors import UsageError
from repro.log.entries import (
    BeginOfStepEntry,
    EndOfStepEntry,
    OperationEntry,
    OperationKind,
    SavepointEntry,
)
from repro.log.rollback_log import RollbackLog


def format_log(log: RollbackLog) -> str:
    """Render a rollback log, oldest entry first."""
    lines = []
    for i, entry in enumerate(log.entries()):
        if isinstance(entry, SavepointEntry):
            flavour = "virtual" if entry.virtual else entry.mode
            lines.append(f"{i:3d}  SP   {entry.sp_id} ({flavour})")
        elif isinstance(entry, BeginOfStepEntry):
            lines.append(f"{i:3d}  BOS  step {entry.step_index} @ "
                         f"{entry.node}")
        elif isinstance(entry, OperationEntry):
            lines.append(f"{i:3d}  OE   [{entry.op_kind.value}] "
                         f"{entry.op_name} {entry.params!r}")
        elif isinstance(entry, EndOfStepEntry):
            flags = []
            if entry.has_mixed:
                flags.append("mixed")
            if entry.non_compensatable:
                flags.append("non-compensatable")
            if entry.alternates:
                flags.append(f"alt={','.join(entry.alternates)}")
            suffix = f" ({', '.join(flags)})" if flags else ""
            lines.append(f"{i:3d}  EOS  step {entry.step_index} @ "
                         f"{entry.node}{suffix}")
    return "\n".join(lines)


@dataclass
class StepPlan:
    """Predicted handling of one rolled-back step."""

    step_index: int
    step_node: str
    agent_travels: bool
    execution_site: str
    rce_entries: int
    ace_entries: int
    mce_entries: int


@dataclass
class RollbackPrediction:
    """Predicted cost of a rollback before it runs."""

    mode: RollbackMode
    target: str
    steps: list[StepPlan] = field(default_factory=list)

    @property
    def compensation_txs(self) -> int:
        return len(self.steps)

    @property
    def agent_transfers(self) -> int:
        return sum(1 for s in self.steps if s.agent_travels)

    @property
    def rce_ships(self) -> int:
        return sum(1 for s in self.steps
                   if s.rce_entries and not s.agent_travels
                   and s.execution_site != s.step_node)

    @property
    def operations(self) -> int:
        return sum(s.rce_entries + s.ace_entries + s.mce_entries
                   for s in self.steps)


def predict_rollback(log: RollbackLog, sp_id: str, current_node: str,
                     mode: RollbackMode) -> RollbackPrediction:
    """Statically compute what a rollback to ``sp_id`` will do.

    Walks the log backwards exactly like the drivers, without touching
    it.  ``current_node`` is where the rollback initiates (the agent's
    position).  Saga mode moves like the basic mechanism.
    """
    if not log.has_savepoint(sp_id):
        raise UsageError(f"no savepoint {sp_id!r} in log")
    mode = RollbackMode(mode)
    prediction = RollbackPrediction(mode=mode, target=sp_id)
    entries = log.entries()
    # Find the target savepoint from the end.
    index = len(entries) - 1
    agent_at = current_node
    while index >= 0:
        entry = entries[index]
        if isinstance(entry, SavepointEntry) and entry.sp_id == sp_id:
            break
        if isinstance(entry, EndOfStepEntry):
            # Collect this step's frame.
            frame_end = index
            frame_start = frame_end
            while not isinstance(entries[frame_start], BeginOfStepEntry):
                frame_start -= 1
            ops = [e for e in entries[frame_start:frame_end]
                   if isinstance(e, OperationEntry)]
            rce = sum(1 for o in ops
                      if o.op_kind is OperationKind.RESOURCE)
            ace = sum(1 for o in ops if o.op_kind is OperationKind.AGENT)
            mce = sum(1 for o in ops if o.op_kind is OperationKind.MIXED)
            if mode is RollbackMode.OPTIMIZED:
                travels = entry.has_mixed and entry.node != agent_at
                site = entry.node if entry.has_mixed else agent_at
            else:
                travels = entry.node != agent_at
                site = entry.node
            prediction.steps.append(StepPlan(
                step_index=entry.step_index, step_node=entry.node,
                agent_travels=travels, execution_site=site,
                rce_entries=rce, ace_entries=ace, mce_entries=mce))
            agent_at = site
            index = frame_start
        index -= 1
    return prediction
