"""The world: simulator + transport + nodes + protocol drivers.

This is the facade everything above builds on::

    world = World(seed=7)
    n1, n2 = world.add_node("n1"), world.add_node("n2")
    n1.add_resource(Bank("bank"))
    record = world.launch(agent, at="n1", method="first_step")
    world.run()
    assert record.status is AgentStatus.FINISHED

Architecture notes
------------------

All inter-node byte movement in one kernel goes through one fabric,
``world.transport`` (:class:`~repro.net.network.SimTransport`).
Protocol drivers use it for sends / cost queries and
:meth:`World.deliver_package` for the durable hand-off of an agent
package to its destination queue.  That seam is what lets
:class:`~repro.node.sharded.ShardedWorld` reroute cross-shard
deliveries through its bridge without touching any protocol code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.agent.agent import MobileAgent
from repro.agent.packages import (
    AgentPackage,
    PackageKind,
    Protocol,
    RollbackMode,
)
from repro.compensation.registry import GLOBAL_REGISTRY, CompensationRegistry
from repro.errors import UsageError
from repro.log.modes import LoggingMode
from repro.log.rollback_log import RollbackLog
from repro.net.network import SimTransport
from repro.node.lockstep import LockstepWorld, scoped
from repro.node.node import Node
from repro.scope import Scope
from repro.sim.failures import FailureInjector
from repro.sim.kernel import Simulator
from repro.sim.metrics import Metrics
from repro.sim.timing import (
    DEFAULT_NETWORK,
    DEFAULT_TIMING,
    NetworkParams,
    TimingModel,
)
from repro.tx.coordinator import CommitCoordinator
from repro.tx.manager import Transaction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exactly_once.fault_tolerant import FTParams
    from repro.journal.journal import WorldJournal

LEDGER_NODE = "__ledger__"


class AgentStatus(enum.Enum):
    """Life cycle of a launched agent."""

    RUNNING = "running"
    FINISHED = "finished"
    FAILED = "failed"


@dataclass
class AgentRecord:
    """Per-agent bookkeeping the world maintains."""

    agent_id: str
    mode: RollbackMode
    protocol: Protocol
    status: AgentStatus = AgentStatus.RUNNING
    result: Any = None
    failure: Optional[str] = None
    finished_at: Optional[float] = None
    steps_committed: int = 0
    step_attempts: int = 0
    rollbacks_initiated: int = 0
    rollbacks_completed: int = 0
    compensation_txs: int = 0
    agent_transfers: int = 0
    transfer_bytes: int = 0
    final_agent: Optional[MobileAgent] = None


@dataclass
class RetryPolicy:
    """How persistently failed compensations are retried.

    ``max_attempts`` bounds retries of one compensation transaction
    after :class:`~repro.errors.CompensationFailed`; ``None`` retries
    forever (suitable when failures are known to be transient).
    """

    max_attempts: Optional[int] = 25
    backoff: float = 0.1


class World(LockstepWorld):
    """A complete simulated mobile-agent system (single kernel).

    One discrete-event kernel hosting every node: agents migrate, take
    savepoints, roll back partially, compensate and survive injected
    crashes exactly as in the paper's model.  For multi-kernel
    execution of the same workloads see
    :class:`~repro.node.sharded.ShardedWorld` (in-process shards) and
    :class:`~repro.node.procshard.ProcShardedWorld` (one worker
    process per shard) — all three run seeded workloads bit-identically.
    A world is their one-shard case, with no entry point of its own:
    every run walks the barrier grid of
    :class:`~repro.node.lockstep.LockstepWorld` (epochs
    ``net_params.latency`` long), so ``max_events`` bounds each epoch
    and an uncut ``run()`` leaves :attr:`now` at the last barrier.
    It owns its :class:`~repro.scope.Scope`: its ids start at 1 and its
    serialization counters are its own, however many worlds ran in the
    process before it.

    Args:
        seed: Root of every RNG stream; equal seeds give bit-identical
            runs (event order, timing jitter, crash draws).
        timing: :class:`~repro.sim.timing.TimingModel` cost model for
            step execution / savepoint / rollback work.
        net_params: :class:`~repro.sim.timing.NetworkParams` — latency,
            bandwidth, jitter and retry behaviour of the
            simulated network.
        logging_mode: How savepoint entries encode SRO restore data
            (:class:`~repro.log.LoggingMode`).
        registry: Compensation registry; defaults to the process-global
            one populated by ``@resource_compensation`` et al.
        retry_policy: Give-up/backoff policy for agent transfers.
        ft_params: :class:`~repro.exactly_once.fault_tolerant.FTParams`
            knobs of the fault-tolerant step protocol.
        journal: Attach a :class:`~repro.journal.WorldJournal` making
            this world a journaling coordinator (config + ops + one
            commit marker per epoch barrier; see
            :func:`~repro.journal.resume_world`).

    Raises:
        UsageError: On invalid knob combinations (negative epochs,
            unknown nodes at launch time, any op on a closed world...) —
            raised by the respective methods, not the constructor.
    """

    def __init__(self, seed: int = 0,
                 timing: TimingModel = DEFAULT_TIMING,
                 net_params: NetworkParams = DEFAULT_NETWORK,
                 logging_mode: LoggingMode = LoggingMode.STATE,
                 registry: Optional[CompensationRegistry] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 ft_params: Optional["FTParams"] = None,
                 journal: Optional["WorldJournal"] = None):
        from repro.exactly_once.fault_tolerant import FTParams

        self.scope = Scope()
        self.journal = journal
        self.sim = Simulator(seed)
        self.metrics = Metrics()
        self.timing = timing
        self.net_params = net_params
        self.logging_mode = LoggingMode(logging_mode)
        self.registry = registry if registry is not None else GLOBAL_REGISTRY
        self.retry_policy = retry_policy or RetryPolicy()
        self.ft_params = ft_params if ft_params is not None else FTParams()
        self.failures = FailureInjector(self.sim)
        self.transport = SimTransport(self.sim, self.failures, net_params,
                                      self.metrics)
        self.coordinator = CommitCoordinator(
            timing, net_params, self.reachable, self.metrics)
        self.nodes: dict[str, Node] = {}
        self.agents: dict[str, AgentRecord] = {}
        # Protocol drivers are attached lazily to avoid import cycles.
        from repro.exactly_once.protocol import StepProtocol
        from repro.core.rollback import BasicRollback
        from repro.core.optimized import OptimizedRollback
        from repro.core.baseline import SagaRollback
        self.step_protocol = StepProtocol(self)
        self.ft = self._make_fault_tolerance()
        self._drivers = {
            RollbackMode.BASIC: BasicRollback(self),
            RollbackMode.OPTIMIZED: OptimizedRollback(self),
            RollbackMode.SAGA: SagaRollback(self),
        }
        self._record_journal_config()

    def _make_fault_tolerance(self):
        """FT driver factory; the sharded world installs the bridged one."""
        from repro.exactly_once.fault_tolerant import FaultTolerance
        return FaultTolerance(self)

    # -- world-journal seams ----------------------------------------------------------

    @property
    def facade(self) -> LockstepWorld:
        """The world whose journal records the ops issued on this
        kernel's nodes (resource installation): this world itself; a
        shard's sharded world."""
        return self

    def _journal_config(self) -> dict[str, Any]:
        from repro.storage.serialization import capture
        return dict(
            backend="world", seed=self.sim._seed,
            world_kwargs=capture({
                "timing": self.timing, "net_params": self.net_params,
                "logging_mode": self.logging_mode,
                "retry_policy": self.retry_policy,
                "ft_params": self.ft_params,
                "registry": None if self.registry is GLOBAL_REGISTRY
                else self.registry}))

    # -- topology -------------------------------------------------------------------

    @scoped
    def add_node(self, name: str) -> Node:
        """Create a node named ``name``."""
        if name in self.nodes or name == LEDGER_NODE:
            raise UsageError(f"node {name!r} already exists")
        self._journal_op("add_node", name=name)
        node = Node(name, self)
        self.nodes[name] = node
        return node

    def node(self, name: str) -> Node:
        node = self.nodes.get(name)
        if node is None:
            raise UsageError(f"no node {name!r}")
        return node

    def reachable(self, a: str, b: str) -> bool:
        """Commit-time reachability; the step ledger is a quorum service.

        ``__ledger__`` stands for the replicated observer/witness set of
        the fault-tolerant protocols of ref [11] and is modelled as
        always reachable from any live node.
        """
        if b == LEDGER_NODE:
            return self.failures.node_up(a)
        return self.transport.reachable(a, b)

    def node_up(self, name: str) -> bool:
        """Liveness of ``name`` as seen by this world's failure model.

        The placement seam of the takeover watchdog: a plain world asks
        its own injector; :class:`~repro.node.sharded.ShardWorld`
        extends the answer to nodes hosted by other shards, so a shadow
        can watch a primary in another kernel.
        """
        return self.failures.node_up(name)

    def deliver_package(self, tx: Transaction, package: AgentPackage,
                        dest_name: str) -> None:
        """Stage the durable enqueue of ``package`` at ``dest_name``.

        The destination seam of the shipping path: a plain world
        resolves the node locally and enqueues (visible at commit).
        :class:`~repro.node.sharded.ShardedWorld` overrides this to
        route packages whose destination lives in another shard through
        the cross-shard bridge instead.
        """
        self.node(dest_name).queue.enqueue(package, tx=tx)

    def enlist_participant(self, tx: Transaction, node_name: str) -> None:
        """Make ``node_name`` a participant whose crash aborts ``tx``.

        The first enlistment of a remote participant charges the 2PC
        message rounds (prepare + commit RTTs overlap across
        participants only in their propagation, so we charge one RTT
        pair per new participant plus fixed processing).
        """
        if node_name != tx.home and node_name not in tx.participants:
            tx.charge(4 * self.net_params.latency + self.timing.two_pc_round)
        tx.add_participant(node_name)
        if node_name in self.nodes:
            tx.enlist(self.nodes[node_name].txm)

    # -- agent management -----------------------------------------------------------------

    def _owner_of(self, node: str) -> "World":
        self.node(node)
        return self

    def _launch(self, agent: MobileAgent, at: str, method: str,
                mode: RollbackMode = RollbackMode.BASIC,
                protocol: Protocol = Protocol.BASIC,
                initial_savepoints: Optional[list] = None) -> AgentRecord:
        """Launch an already validated, journaled and shipped agent."""
        from repro.log.entries import SavepointEntry
        from repro.log.modes import sro_image_hashed
        from repro.storage.serialization import snapshot

        node = self.node(at)
        agent.set_control(at, method)
        log = RollbackLog(self.logging_mode)
        transition = self.logging_mode is LoggingMode.TRANSITION
        for sp_id, virtual in (initial_savepoints or []):
            payload = sro_hashes = None
            if not virtual:
                if transition:
                    # Root of the transition chain: record the per-key
                    # content hashes so the first step's savepoint can
                    # hash-diff against this image.
                    payload, sro_hashes = sro_image_hashed(agent.sro)
                else:
                    payload = snapshot(agent.sro)
            entry = SavepointEntry(sp_id=sp_id,
                                   mode=self.logging_mode.value,
                                   payload=payload, virtual=virtual,
                                   sro_hashes=sro_hashes)
            log.append(entry)
            self.metrics.incr("savepoints.written")
        record = AgentRecord(agent_id=agent.agent_id,
                             mode=RollbackMode(mode),
                             protocol=Protocol(protocol))
        self.agents[agent.agent_id] = record
        package = AgentPackage.pack(PackageKind.STEP, agent, log,
                                    step_index=0, mode=record.mode,
                                    protocol=record.protocol, primary=at)
        node.queue.enqueue(package)
        return record

    def record_or_none(self, agent_id: str) -> Optional[AgentRecord]:
        """Like :meth:`record_of` but tolerant of unknown agents.

        Dispatch paths use this: a package whose agent this world never
        launched (e.g. a promoted shadow of a foreign/expired agent) is
        stale garbage to be consumed, not a crash.
        """
        return self.agents.get(agent_id)

    def rollback_driver(self, mode: RollbackMode):
        return self._drivers[RollbackMode(mode)]

    # -- backend-neutral inspection / injection -----------------------------------------------
    #
    # The same methods exist on ShardedWorld and ProcShardedWorld (the
    # rest of the shared surface — outcomes, counters, digests, the
    # clock — lives on LockstepWorld), so a workload or equivalence
    # check can drive any execution backend (one kernel, N in-process
    # kernels, N worker processes) through one call surface.

    def _apply_crash_plans(self, plans: list) -> None:
        self.failures.apply_plan(plans)

    def _set_alternates(self, node: str, alternates: tuple[str, ...]) -> None:
        self.ft.set_alternates(node, *alternates)

    # -- the lockstep walk's hooks (LockstepWorld._step) over this one kernel ------------------

    def _kernels(self) -> list["World"]:
        return [self]

    def _epoch_length(self) -> float:
        return self.net_params.latency

    # -- outcome hooks (called by drivers) ----------------------------------------------------------

    def agent_finished(self, agent: MobileAgent, result: Any) -> None:
        record = self.record_of(agent.agent_id)
        record.status = AgentStatus.FINISHED
        record.result = result
        record.final_agent = agent
        record.finished_at = self.sim.now
        self.metrics.incr("agents.finished")
        self.metrics.record(self.sim.now, "agent-finished",
                            agent=agent.agent_id)

    def agent_failed(self, agent_id: str, reason: str) -> None:
        record = self.record_of(agent_id)
        record.status = AgentStatus.FAILED
        record.failure = reason
        record.finished_at = self.sim.now
        self.metrics.incr("agents.failed")
        self.metrics.record(self.sim.now, "agent-failed",
                            agent=agent_id, reason=reason)
