"""The rollback mechanism (paper, Section 4.3, Figures 4a/4b).

Rollback drives the agent back along the path of the steps being rolled
back.  The two driver entry points mirror the paper's two code figures:

* :meth:`RollbackDriverBase.start_rollback` — Figure 4a, executed on
  the node where the rollback was initiated, right after the aborting
  step transaction's abort.  Reads the (pre-step) agent and log back
  from stable storage inside a fresh transaction; if the target
  savepoint sits directly before the aborted step the rollback is
  already finished, otherwise the "(spID, agent, LOG)" package is
  written to the input queue of the node that must run the first
  compensation transaction.
* :meth:`RollbackDriverBase.execute_compensation` — Figure 4b, executed
  on each node along the way: pop the (non-target) savepoint entry if
  present, pop the end-of-step entry, execute operation entries in
  reverse order until the begin-of-step entry, then either restore the
  strongly reversible objects (target savepoint reached — *without*
  deleting the savepoint entry) and start the next step transaction, or
  forward the package to the next compensation node.

Failure handling is the paper's: if any of these transactions aborts
(crash, deadlock, unreachable successor), the package still resides in
the node's durable input queue and the transaction is simply retried —
for the very first transaction that means the aborted *step* re-runs
and re-initiates the rollback, which the paper explicitly blesses as
"still a correct execution".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.agent.agent import MobileAgent
from repro.agent.context import WROView
from repro.agent.packages import (
    AgentPackage,
    PackageKind,
    Protocol,
    RollbackMode,
)
from repro.compensation.registry import CompensationContext
from repro.errors import (
    CompensationFailed,
    LockConflict,
    LogCorrupt,
    NodeDown,
    UsageError,
)
from repro.log.entries import (
    BeginOfStepEntry,
    EndOfStepEntry,
    OperationEntry,
    OperationKind,
    Recoverability,
    SavepointEntry,
)
from repro.log.rollback_log import RollbackLog
from repro.node.execution import abort_and_count, claim_work, finalize
from repro.node.runtime import AgentStatus
from repro.storage.queues import QueueItem
from repro.storage.serialization import snapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.node.node import Node
    from repro.node.runtime import World
    from repro.tx.manager import Transaction


class RollbackDriverBase:
    """Shared skeleton of the basic and optimized rollback algorithms."""

    mode = RollbackMode.BASIC

    def __init__(self, world: "World"):
        self.world = world

    # ------------------------------------------------------------------
    # Figure 4a / 5a — start of the rollback, on the initiating node
    # ------------------------------------------------------------------

    def start_rollback(self, node: "Node", item: QueueItem,
                       sp_id: str) -> None:
        """Begin the rollback to ``sp_id`` after the step abort."""
        world = self.world
        package: AgentPackage = item.payload
        record = world.record_or_none(package.agent_id)
        if record is None or record.status is not AgentStatus.RUNNING:
            world.step_protocol._consume(node, item, "stale-agent")
            return

        tx = node.txm.begin("rollback-start")
        tx.charge(world.timing.tx_begin)
        tx.charge(world.timing.stable_read(item.size_bytes))
        node.queue.dequeue(tx, item.item_id)
        if not claim_work(node, tx, package):
            return
        agent, log = package.unpack()
        tx.charge(world.timing.serialize(package.size_bytes))

        if not log.has_savepoint(sp_id):
            abort_and_count(node, tx, "rollback-bad-target")
            world.agent_failed(package.agent_id,
                               f"no savepoint {sp_id!r} in rollback log")
            world.step_protocol._consume(node, item, "rollback-bad-target")
            return
        blocker = log.blocking_non_compensatable(sp_id)
        if blocker is not None:
            abort_and_count(node, tx, "rollback-blocked")
            world.agent_failed(
                package.agent_id,
                f"non-compensatable step {blocker.step_index} blocks "
                f"rollback to {sp_id!r}")
            world.step_protocol._consume(node, item, "rollback-blocked")
            return

        # Consult the per-step recoverability annotations: a rollback
        # crossing an unrecoverable step is not failed (that is the
        # hard non-compensatable stop above) but *adjusted* — the
        # effective target ratchets up to the nearest savepoint above
        # the newest unrecoverable step on the path.
        effective = log.choose_rollback_point(sp_id)
        if effective is None:
            abort_and_count(node, tx, "rollback-unrecoverable")
            world.agent_failed(
                package.agent_id,
                f"an unrecoverable step blocks rollback to {sp_id!r} "
                f"and no savepoint lies above it")
            world.step_protocol._consume(node, item, "rollback-unrecoverable")
            return
        if effective != sp_id:
            requested = sp_id
            sp_id = effective

            def _adjusted() -> None:
                world.metrics.incr("rollback.adjusted")
                world.metrics.record(node.sim.now, "rollback-adjusted",
                                     agent=package.agent_id,
                                     requested=requested,
                                     savepoint=effective, node=node.name)

            tx.register_commit(_adjusted)

        if log.savepoint_reached(sp_id):
            # The savepoint was set directly before the aborting step
            # transaction: the rollback is already finished; initiate
            # the next step transaction.
            self._enqueue_step(node, tx, agent, log, package)

            def _done_trivially() -> None:
                record.rollbacks_completed += 1
                world.metrics.incr("rollback.completed")
                world.metrics.incr("rollback.completed_trivially")
                world.metrics.record(node.sim.now, "rollback-completed",
                                     agent=agent.agent_id, savepoint=sp_id,
                                     node=node.name, trivial=True)

            finalize(node, tx, on_committed=_done_trivially,
                     label="rollback-start")
            return

        dest = self._start_destination(node, log)
        self._enqueue_compensation(node, tx, agent, log, package, sp_id,
                                   dest, record)
        finalize(node, tx, label="rollback-start")

    # ------------------------------------------------------------------
    # Figure 4b / 5b — one compensation transaction per node
    # ------------------------------------------------------------------

    def execute_compensation(self, node: "Node", item: QueueItem) -> None:
        """Run one compensation-transaction attempt for ``item``."""
        world = self.world
        package: AgentPackage = item.payload
        sp_id = package.sp_id
        record = world.record_or_none(package.agent_id)
        if record is None or record.status is not AgentStatus.RUNNING:
            world.step_protocol._consume(node, item, "stale-agent")
            return

        tx = node.txm.begin("compensation")
        tx.charge(world.timing.tx_begin)
        tx.charge(world.timing.stable_read(item.size_bytes))
        node.queue.dequeue(tx, item.item_id)

        if not claim_work(node, tx, package):
            return

        agent, log = package.unpack()
        tx.charge(world.timing.serialize(package.size_bytes))
        world.metrics.incr("compensation.tx_attempted")

        try:
            # Remove savepoints passed over on the way down; they cannot
            # be the target (checked before the package was written).
            while (isinstance(log.last(), SavepointEntry)
                    and not log.savepoint_reached(sp_id)):
                log.pop(tx)
            eos = log.pop(tx)
            if not isinstance(eos, EndOfStepEntry):
                raise LogCorrupt(f"expected EOS, found {eos!r}")
            if (getattr(eos, "recoverability", Recoverability.EXACT)
                    == Recoverability.SEMANTIC):
                tx.register_commit(
                    lambda: world.metrics.incr("compensation.semantic_steps"))
            self._compensate_step(node, tx, agent, log, eos)
        except LogCorrupt as exc:
            abort_and_count(node, tx, "log-corrupt")
            world.agent_failed(package.agent_id, f"rollback log corrupt: {exc}")
            world.step_protocol._consume(node, item, "log-corrupt")
            return
        except CompensationFailed as exc:
            abort_and_count(node, tx, "compensation-failed")
            world.metrics.incr("compensation.op_failures")
            policy = world.retry_policy
            if (policy.max_attempts is not None
                    and item.attempts + 1 >= policy.max_attempts):
                world.agent_failed(
                    package.agent_id,
                    f"compensation permanently failing: {exc}")
                world.step_protocol._consume(node, item,
                                             "compensation-failed")
            return
        except LockConflict:
            abort_and_count(node, tx, "lock-conflict")
            return
        except NodeDown:
            abort_and_count(node, tx, "dest-unreachable")
            return

        if log.savepoint_reached(sp_id):
            # Restore the strongly reversible objects from the savepoint
            # entry (without deleting it) and initiate the next step.
            self._restore_at_savepoint(agent, log, sp_id)
            self._enqueue_step(node, tx, agent, log, package)

            def _rolled_back() -> None:
                record.compensation_txs += 1
                record.rollbacks_completed += 1
                world.metrics.incr("compensation.tx_committed")
                world.metrics.incr("rollback.completed")
                world.metrics.record(node.sim.now, "rollback-completed",
                                     agent=agent.agent_id, savepoint=sp_id,
                                     node=node.name, trivial=False)

            finalize(node, tx, on_committed=_rolled_back,
                     label="compensation")
            return

        dest = self._next_destination(node, log)
        self._enqueue_compensation(node, tx, agent, log, package, sp_id,
                                   dest, record)

        def _compensated() -> None:
            record.compensation_txs += 1
            world.metrics.incr("compensation.tx_committed")

        finalize(node, tx, on_committed=_compensated, label="compensation")

    # ------------------------------------------------------------------
    # strategy points (basic vs optimized)
    # ------------------------------------------------------------------

    def _start_destination(self, node: "Node", log: RollbackLog) -> str:
        """Where the first compensation transaction runs (Fig 4a)."""
        eos = log.last_end_of_step()
        if eos is None:
            raise LogCorrupt("rollback started but log has no EOS entry")
        return eos.node

    def _next_destination(self, node: "Node", log: RollbackLog) -> str:
        """Where the next compensation transaction runs (Fig 4b)."""
        eos = log.last_end_of_step()
        if eos is None:
            raise LogCorrupt("compensation continues but log has no EOS")
        return eos.node

    def _compensate_step(self, node: "Node", tx: "Transaction",
                         agent: MobileAgent, log: RollbackLog,
                         eos: EndOfStepEntry) -> None:
        """Execute all operation entries of one step, newest first."""
        entry = log.pop(tx)
        while not isinstance(entry, BeginOfStepEntry):
            if not isinstance(entry, OperationEntry):
                raise LogCorrupt(f"unexpected entry in step frame: {entry!r}")
            self.execute_entry(node, tx, agent, entry)
            entry = log.pop(tx)

    def _restore_at_savepoint(self, agent: MobileAgent, log: RollbackLog,
                              sp_id: str) -> None:
        """Restore agent state once the target savepoint is reached.

        The paper's mechanism restores *only* the strongly reversible
        objects; weakly reversible objects keep whatever the
        compensating operations produced.  The saga baseline overrides
        this to restore everything from the image.
        """
        agent.sro = log.reconstruct_sro(sp_id)

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------

    def execute_entry(self, node: "Node", tx: "Transaction",
                      agent: Optional[MobileAgent], entry: OperationEntry,
                      resource_node: Optional["Node"] = None) -> None:
        """Run one compensating operation with exactly the allowed views.

        ``resource_node`` overrides where resource state is looked up
        (the optimized driver executes shipped RCEs against the remote
        node's resources while the transaction is coordinated from the
        agent's node).
        """
        from repro.resources.base import ResourceView  # local to avoid cycle

        world = self.world
        op = world.registry.resolve(entry.op_name)
        if op.kind is not entry.op_kind:
            raise UsageError(
                f"operation {entry.op_name!r} registered as "
                f"{op.kind.value} but logged as {entry.op_kind.value}")
        host = resource_node if resource_node is not None else node
        ctx = CompensationContext(now=node.sim.now + tx.cost, node=host.name)
        tx.charge(world.timing.compensation_op)
        # Hand the operation a copy: the entry's params are durable log
        # state (already serialised into the entry's cached frame), so a
        # param-mutating compensation must not desynchronise the live
        # entry from its frame across an abort/retry.
        params = snapshot(entry.params)
        if op.kind is OperationKind.RESOURCE:
            view = ResourceView(host.get_resource(entry.resource), tx,
                                world.timing, compensating=True)
            op.fn(view, params, ctx)
        elif op.kind is OperationKind.AGENT:
            if agent is None:
                raise UsageError("agent compensation entry without agent")
            op.fn(WROView(agent), params, ctx)
        else:
            if agent is None:
                raise UsageError("mixed compensation entry without agent")
            view = ResourceView(host.get_resource(entry.resource), tx,
                                world.timing, compensating=True)
            op.fn(WROView(agent), view, params, ctx)
        world.metrics.incr("compensation.ops_executed")
        world.metrics.incr(f"compensation.ops.{entry.op_kind.value}")

    def _enqueue_step(self, node: "Node", tx: "Transaction",
                      agent: MobileAgent, log: RollbackLog,
                      package: AgentPackage) -> None:
        """Initiate the next step transaction (possibly on another node)."""
        world = self.world
        control = agent.control
        if control is None:
            raise LogCorrupt("restored agent has no control record")
        # The resume step may divert around an unreachable destination
        # under the FT protocol (shared with the forward step path).
        dest, promoted = world.step_protocol.resolve_step_destination(
            node, control["node"], package.protocol)
        new_package = AgentPackage.pack(
            PackageKind.STEP, agent, log, step_index=agent.step_count,
            mode=package.mode, protocol=package.protocol,
            primary=dest, promoted=promoted)
        world.step_protocol.ship(node, tx, new_package, dest)
        if dest != node.name:
            self._count_transfer(tx, package.agent_id, new_package,
                                 kind="resume")

    def _enqueue_compensation(self, node: "Node", tx: "Transaction",
                              agent: MobileAgent, log: RollbackLog,
                              package: AgentPackage, sp_id: str,
                              dest: str, record) -> None:
        """Write "(spID, agent, LOG)" to the input queue of ``dest``."""
        world = self.world
        next_eos = log.last_end_of_step()
        alternates = next_eos.alternates if next_eos is not None else ()
        if (package.protocol is Protocol.FAULT_TOLERANT
                and not world.reachable(node.name, dest)):
            # Fault-tolerant rollback: divert to an alternate node able
            # to run the compensation (Section 4.3, discussion).
            for alt in alternates:
                if alt != dest and world.reachable(node.name, alt):
                    world.metrics.incr("ft.compensation_diverted")
                    dest = alt
                    break
        new_package = AgentPackage.pack(
            PackageKind.COMPENSATION, agent, log,
            step_index=agent.step_count, sp_id=sp_id, mode=package.mode,
            protocol=package.protocol, alternates=tuple(alternates),
            primary=dest)
        world.step_protocol.ship(node, tx, new_package, dest)
        if dest != node.name:
            self._count_transfer(tx, package.agent_id, new_package,
                                 kind="compensation")

    def _count_transfer(self, tx: "Transaction", agent_id: str,
                        package: AgentPackage, kind: str) -> None:
        world = self.world

        def _on_commit() -> None:
            record = world.record_of(agent_id)
            record.agent_transfers += 1
            record.transfer_bytes += package.size_bytes
            world.metrics.incr(f"agent.transfers.{kind}")
            world.metrics.add_bytes(f"agent.transfers.{kind}",
                                    package.size_bytes)

        tx.register_commit(_on_commit)


class BasicRollback(RollbackDriverBase):
    """Figure 4: the agent always travels to the node being compensated."""

    mode = RollbackMode.BASIC
