"""Itinerary-driven agents (paper, Section 4.4.2).

:class:`ItineraryAgent` executes a hierarchical itinerary through one
generic step method, ``itinerary_step``, which runs the user method
named by the current step entry and then advances the cursor:

* entering a sub-itinerary constitutes its savepoint automatically —
  real for the first savepoint requested at a step boundary, *virtual*
  (data-less, denoting the same state) for sub-itineraries entered in
  the same boundary, reproducing the paper's "only one agent savepoint
  is really necessary" observation;
* completing a sub-itinerary discards its savepoint from the log;
* completing a sub-itinerary directly contained in the main itinerary
  discards the whole rollback log;
* the cursor (a stack of frames) lives in the strongly reversible
  space, so restoring a savepoint rewinds the itinerary position to the
  start of the rolled-back sub-itinerary.

Rollback is requested through :meth:`ItineraryAgent.rollback_scope`:
``levels=0`` rolls back the sub-itinerary currently executing,
``levels=1`` its parent, and so on — the paper's "whether only the
nested sub-task currently executed has to be rolled back or (one of)
the surrounding sub-tasks".
"""

from __future__ import annotations

from typing import Any, Optional, Union

from repro.agent.agent import MobileAgent
from repro.agent.context import StepContext
from repro.errors import ItineraryError, UsageError
from repro.itinerary.model import Itinerary, StepEntry, SubItinerary
from repro.log.entries import SavepointEntry

ITINERARY_KEY = "__itinerary__"
STACK_KEY = "__itin_stack__"

STEP_METHOD = "itinerary_step"


def _frame(path: tuple, sp: Optional[str]) -> dict[str, Any]:
    return {"path": tuple(path), "done": [], "sp": sp, "current": None}


class ItineraryAgent(MobileAgent):
    """An agent whose control flow is an itinerary."""

    def __init__(self, itinerary: Itinerary,
                 agent_id: Optional[str] = None):
        super().__init__(agent_id)
        itinerary.validate()
        self.sro[ITINERARY_KEY] = itinerary
        self.sro[STACK_KEY] = [_frame((), None)]
        self._initial_savepoints: list[tuple[str, bool]] = []
        self._descend_initial()

    # -- launch wiring -------------------------------------------------------------

    def launch_entry(self) -> tuple[str, str]:
        """(node, method) for :meth:`repro.node.runtime.World` launching."""
        entry = self._current_entry()
        return entry.loc, STEP_METHOD

    def initial_savepoints(self) -> list[tuple[str, bool]]:
        """Savepoints to be written into the log before the first step."""
        return list(self._initial_savepoints)

    # -- the generic step ------------------------------------------------------------

    def itinerary_step(self, ctx: StepContext) -> None:
        """Run the current step entry's method, then advance the cursor.

        The entry's precondition is (re-)evaluated at execution time:
        after a rollback the restored cursor may point at an entry
        whose condition no longer holds (the weakly reversible state
        changed), in which case the entry is skipped and the cursor
        advances — ref [14]'s "whether and when an entry can be
        executed".
        """
        entry = self._current_entry()
        if not self._precondition_ok(entry):
            self._advance(ctx)
            return
        method = self.step_method(entry.method)
        method(ctx)
        finishing, _ = ctx.staged_finish()
        if finishing:
            return
        if ctx.staged_next() is not None:
            raise UsageError(
                "itinerary agents must not call ctx.goto(); adapt the "
                "itinerary instead")
        self._advance(ctx)

    def itinerary_result(self) -> Any:
        """Hook: the agent's result when the itinerary completes."""
        return None

    # -- rollback scoping --------------------------------------------------------------

    def rollback_scope(self, ctx: StepContext, levels: int = 0) -> None:
        """Roll back the current sub-itinerary (or an enclosing one).

        Never returns (raises the rollback request).  When the chosen
        frame's savepoint entry is no longer in the log (it was a
        virtual savepoint consumed by an earlier, deeper rollback), the
        nearest enclosing savepoint still present is used — by
        construction it denotes the same agent state.
        """
        stack = self.sro[STACK_KEY]
        frames = stack[1:]  # skip the main frame (never has a savepoint)
        if not frames:
            raise UsageError("no sub-itinerary is executing")
        if levels >= len(frames):
            raise UsageError(
                f"levels={levels} exceeds nesting depth {len(frames)}")
        target_index = len(frames) - 1 - levels
        for index in range(target_index, -1, -1):
            sp_id = frames[index]["sp"]
            if sp_id is not None and ctx.has_savepoint(sp_id):
                ctx.rollback(sp_id)
        raise UsageError("no restorable savepoint found for this scope")

    # -- cursor machinery -----------------------------------------------------------------

    def _itinerary(self) -> Itinerary:
        return self.sro[ITINERARY_KEY]

    def _stack(self) -> list[dict[str, Any]]:
        return self.sro[STACK_KEY]

    def _current_entry(self) -> StepEntry:
        frame = self._stack()[-1]
        sub = self._itinerary().resolve(tuple(frame["path"]))
        index = frame["current"]
        if index is None:
            raise ItineraryError("no current step entry (cursor desync)")
        entry = sub.entries[index]
        if not isinstance(entry, StepEntry):
            raise ItineraryError("cursor points at a sub-itinerary")
        return entry

    def _precondition_ok(self, entry: Union[StepEntry, SubItinerary]) -> bool:
        if entry.precondition is None:
            return True
        predicate = getattr(self, entry.precondition, None)
        if predicate is None:
            raise ItineraryError(
                f"unknown precondition method {entry.precondition!r}")
        return bool(predicate())

    def _next_ready(self, sub: Union[Itinerary, SubItinerary],
                    frame: dict[str, Any]) -> Optional[int]:
        """Choose the next entry index, skipping false preconditions.

        Entries whose precondition evaluates false at selection time are
        marked done without executing — the mechanism used for
        alternatives ("skip the fallback shop if we already bought").
        """
        done = frame["done"]
        pending = [i for i in range(len(sub.entries)) if i not in done]
        for index in pending:
            entry = sub.entries[index]
            if self._precondition_ok(entry):
                return index
            frame["done"].append(index)
        return None

    def _descend_initial(self) -> None:
        """Push frames down to the first step entry (constructor time)."""

        def request_sp(_ctx: None, virtual: bool) -> str:
            # Numbered per agent, not minted: the agent is built outside
            # the world whose scope mints its later ``itin-N`` names.
            sp_id = f"init-{len(self._initial_savepoints) + 1}"
            self._initial_savepoints.append((sp_id, virtual))
            return sp_id

        if not self._descend(None, request_sp):
            raise ItineraryError(
                "itinerary has no executable step entry (all "
                "preconditions false?)")

    def _request_savepoint(self, ctx: StepContext, virtual: bool) -> str:
        return ctx.savepoint(SavepointEntry.fresh_id("itin"),
                             virtual=virtual)

    def _descend(self, ctx: Optional[StepContext], request_sp) -> bool:
        """From the top frame, descend to the next step entry.

        ``request_sp(ctx, virtual)`` creates savepoints for entered
        sub-itineraries.  Returns False when the whole itinerary
        completed.  The first savepoint requested in one call batch is
        real; the rest are virtual (same agent state — no step runs in
        between).
        """
        stack = self._stack()
        requested_real = False
        while True:
            frame = stack[-1]
            sub = self._itinerary().resolve(tuple(frame["path"]))
            index = self._next_ready(sub, frame)
            if index is None:
                # (sub-)itinerary completed
                if frame["path"] == ():
                    return False
                if ctx is not None:
                    if frame["sp"] is not None:
                        ctx.discard_savepoint(frame["sp"])
                    if len(frame["path"]) == 1:
                        ctx.truncate_log()
                stack.pop()
                parent = stack[-1]
                parent["done"].append(frame["path"][-1])
                parent["current"] = None
                continue
            entry = sub.entries[index]
            if isinstance(entry, StepEntry):
                frame["current"] = index
                return True
            sp_id = request_sp(ctx, requested_real)
            requested_real = True
            stack.append(_frame(tuple(frame["path"]) + (index,), sp_id))

    def _advance(self, ctx: StepContext) -> None:
        """Mark the current entry done and move to the next one."""
        stack = self._stack()
        frame = stack[-1]
        if frame["current"] is not None:
            frame["done"].append(frame["current"])
            frame["current"] = None
        more = self._descend(ctx, self._request_savepoint)
        if not more:
            ctx.finish(self.itinerary_result())
            return
        entry = self._current_entry()
        ctx.goto(entry.loc, STEP_METHOD)
