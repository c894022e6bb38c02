"""repro — reproduction of Straßer & Rothermel (ICDCS 2000),
"System Mechanisms for Partial Rollback of Mobile Agent Execution".

Quick start::

    from repro import World, MobileAgent

    class Probe(MobileAgent):
        def hop(self, ctx):
            self.sro.setdefault("visited", []).append(ctx.node_name)
            if len(self.sro["visited"]) < 3:
                ctx.savepoint(f"after-{ctx.node_name}")
                ctx.goto("n2" if ctx.node_name == "n1" else "n1", "hop")
            else:
                ctx.finish(self.sro["visited"])

    world = World(seed=1)
    world.add_nodes("n1", "n2")
    record = world.launch(Probe("probe"), at="n1", method="hop")
    world.run()
    print(record.result)

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
reproduced figures/evaluation.
"""

from repro.agent import MobileAgent, StepContext
from repro.agent.packages import PackageKind, Protocol, RollbackMode
from repro.compensation import (
    agent_compensation,
    mixed_compensation,
    resource_compensation,
)
from repro.errors import (
    CompensationFailed,
    JournalCorrupt,
    JournalDiverged,
    JournalError,
    NotCompensatable,
    ReproError,
    RollbackRequest,
    WorldKilled,
)
from repro.exactly_once.fault_tolerant import FTParams
from repro.journal import (
    FileJournal,
    MemoryJournal,
    WorldJournal,
    resume_world,
)
from repro.itinerary import Itinerary, ItineraryAgent, StepEntry, SubItinerary
from repro.log import LoggingMode, RollbackLog
from repro.log.entries import Recoverability
from repro.node import (
    AgentRecord,
    AgentStatus,
    Node,
    ProcShardedWorld,
    ShardedWorld,
    World,
)
from repro.resources import (
    AuctionHouse,
    Bank,
    Coin,
    CurrencyExchange,
    DataStore,
    EconomyAuditor,
    InfoDirectory,
    MessageBoard,
    Mint,
    Shop,
)
from repro.sim import CrashPlan, TimingModel
from repro.sim.timing import NetworkParams

__version__ = "1.0.0"


def serialization_stats() -> dict:
    """The caller's serialization / IPC counters, as a plain dict.

    A snapshot of the counter table of the :class:`~repro.scope.Scope`
    the caller runs under — the process-default scope outside any
    world: incremental pack reuse, snapshot fast-path hits, lazy
    log-entry hydration, and teardown failures the process backend
    suppressed while closing (``teardown.suppressed``).

    A world counts its own work in its own scope, so this helper does
    not see it: call the world's ``serialization_stats()`` instead
    (every backend has it; the process backend's sums every shard's
    table and the coordinator's IPC accounting, and both sharded
    backends carry the retired ``spec.*`` keys at 0).

    Returns:
        A new ``dict`` mapping counter name to value; mutating it does
        not affect the live counters.
    """
    from repro.scope import current
    return dict(current().stats)

__all__ = [
    "World",
    "ShardedWorld",
    "ProcShardedWorld",
    "Node",
    "AgentRecord",
    "AgentStatus",
    "MobileAgent",
    "StepContext",
    "ItineraryAgent",
    "Itinerary",
    "SubItinerary",
    "StepEntry",
    "RollbackMode",
    "Protocol",
    "PackageKind",
    "FTParams",
    "LoggingMode",
    "RollbackLog",
    "Recoverability",
    "resource_compensation",
    "agent_compensation",
    "mixed_compensation",
    "Bank",
    "Mint",
    "Coin",
    "Shop",
    "CurrencyExchange",
    "InfoDirectory",
    "DataStore",
    "MessageBoard",
    "AuctionHouse",
    "EconomyAuditor",
    "TimingModel",
    "NetworkParams",
    "CrashPlan",
    "ReproError",
    "RollbackRequest",
    "CompensationFailed",
    "NotCompensatable",
    "WorldJournal",
    "MemoryJournal",
    "FileJournal",
    "resume_world",
    "serialization_stats",
    "WorldKilled",
    "JournalError",
    "JournalCorrupt",
    "JournalDiverged",
    "__version__",
]
