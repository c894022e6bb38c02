"""The mobile agent object."""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import UsageError
from repro.scope import current as current_scope

CONTROL_KEY = "__control__"


class MobileAgent:
    """Base class for mobile agents.

    Subclasses implement steps as methods taking a single
    :class:`~repro.agent.context.StepContext` argument::

        class Shopper(MobileAgent):
            def find_offers(self, ctx):
                directory = ctx.resource("directory")
                self.sro["offers"] = directory.query("books")
                ctx.goto("shop-node", "buy_best")

            def buy_best(self, ctx):
                ...

    Agents must stay picklable: subclasses must be importable
    module-level classes, and the private data spaces must hold only
    picklable values.  The runtime captures the agent with
    :func:`repro.storage.serialization.capture` on every migration,
    exactly like the paper's platform serialises agents.

    Attributes
    ----------
    sro:
        Strongly reversible objects — restored from log images on
        rollback.  The runtime keeps its continuation record (which step
        runs next, and where) under the reserved key ``__control__`` so
        control state rolls back with the data (the paper's "the private
        agent state is rolled back as well").
    wro:
        Weakly reversible objects — compensated by registered
        operations during rollback.
    """

    def __init__(self, agent_id: Optional[str] = None):
        self.agent_id = agent_id or f"agent-{current_scope().mint('agent')}"
        self.sro: dict[str, Any] = {}
        self.wro: dict[str, Any] = {}
        self.step_count = 0
        self.finished = False
        self.result: Any = None

    # -- control record ----------------------------------------------------------

    @property
    def control(self) -> Optional[dict[str, Any]]:
        """The continuation record: ``{"node": ..., "method": ...}``."""
        return self.sro.get(CONTROL_KEY)

    def set_control(self, node: str, method: str) -> None:
        """Point the continuation at ``method`` on ``node``."""
        if not hasattr(self, method):
            raise UsageError(
                f"{type(self).__name__} has no step method {method!r}")
        self.sro[CONTROL_KEY] = {"node": node, "method": method}

    def clear_control(self) -> None:
        self.sro[CONTROL_KEY] = None

    def step_method(self, name: str):
        """Resolve a step method by name."""
        method = getattr(self, name, None)
        if method is None or not callable(method):
            raise UsageError(
                f"{type(self).__name__} has no step method {name!r}")
        return method

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} {self.agent_id} "
                f"steps={self.step_count} finished={self.finished}>")
