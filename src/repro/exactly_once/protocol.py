"""The pipelined exactly-once step protocol (paper, Section 2).

One step transaction, in order:

1. begin; read (and delete) the agent package from the local input
   queue; re-instantiate the agent;
2. append the begin-of-step entry to the rollback log;
3. invoke the step method — all resource accesses happen inside the
   transaction;
4. append the end-of-step entry (with the mixed-compensation flag and
   alternates), apply staged savepoint / log-hygiene requests;
5. capture the agent and enqueue it durably at the next node (or mark
   the agent finished);
6. commit the distributed transaction.

Failure handling is entirely queue-driven: any abort (crash, lock
conflict, explicit restart) restores the package, whose renewed
visibility schedules a retry — the paper's "the agent still resides in
the input queue of the node that executed the aborted step".
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.agent.agent import MobileAgent
from repro.agent.context import StepContext
from repro.agent.packages import (
    AgentPackage,
    PackageKind,
    Protocol,
    RollbackMode,
)
from repro.errors import (
    CompensationFailed,
    LockConflict,
    NotCompensatable,
    RollbackRequest,
    StepAbortRequest,
    UsageError,
)
from repro.log.entries import BeginOfStepEntry, EndOfStepEntry, SavepointEntry
from repro.log.modes import (
    LoggingMode,
    sro_content_hashes,
    sro_diff,
    sro_diff_hashed,
    sro_image_hashed,
)
from repro.log.rollback_log import RollbackLog
from repro.node.execution import abort_and_count, claim_work, finalize
from repro.node.runtime import AgentStatus
from repro.storage.queues import QueueItem
from repro.storage.serialization import snapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.node.node import Node
    from repro.node.runtime import World


class StepProtocol:
    """Executes step transactions on behalf of nodes."""

    def __init__(self, world: "World"):
        self.world = world

    # -- main entry -------------------------------------------------------------

    def execute(self, node: "Node", item: QueueItem) -> None:
        """Run one step-transaction attempt for the package in ``item``."""
        world = self.world
        package: AgentPackage = item.payload
        record = world.record_or_none(package.agent_id)
        if record is None or record.status is not AgentStatus.RUNNING:
            self._consume(node, item, "stale-agent")
            return

        tx = node.txm.begin("step")
        tx.charge(world.timing.tx_begin)
        tx.charge(world.timing.stable_read(item.size_bytes))
        node.queue.dequeue(tx, item.item_id)

        if not claim_work(node, tx, package):
            return

        agent, log = package.unpack()
        tx.charge(world.timing.serialize(package.size_bytes))
        control = agent.control
        if control is None:
            abort_and_count(node, tx, "no-control")
            world.agent_failed(package.agent_id, "agent has no control record")
            self._consume(node, item, "no-control")
            return
        if control["node"] != node.name and not package.promoted:
            abort_and_count(node, tx, "misrouted")
            world.agent_failed(
                package.agent_id,
                f"package for {control['node']} landed on {node.name}")
            self._consume(node, item, "misrouted")
            return

        step_index = package.step_index
        log.append(BeginOfStepEntry(node=node.name, step_index=step_index),
                   tx)
        ctx = StepContext(node, agent, log, tx, step_index)
        tx.charge(world.timing.step_body_fixed)
        record.step_attempts += 1
        world.metrics.incr("steps.attempted")

        try:
            method = agent.step_method(control["method"])
            method(ctx)
        except RollbackRequest as request:
            abort_and_count(node, tx, "rollback-requested")
            record.rollbacks_initiated += 1
            world.metrics.incr("rollback.initiated")
            world.metrics.record(node.sim.now, "rollback-initiated",
                                 agent=agent.agent_id,
                                 savepoint=request.savepoint_id,
                                 node=node.name)
            # The queue undo restored the pre-step package; mark it so
            # the re-dispatch enters the rollback algorithm (Fig 4a/5a)
            # instead of re-executing the step.
            node.pending_rollback[item.item_id] = request.savepoint_id
            return
        except StepAbortRequest:
            abort_and_count(node, tx, "step-restart")
            return
        except LockConflict:
            abort_and_count(node, tx, "lock-conflict")
            return
        except (UsageError, NotCompensatable, CompensationFailed) as exc:
            abort_and_count(node, tx, "step-error")
            world.agent_failed(package.agent_id,
                               f"step {step_index} failed: {exc}")
            self._consume(node, item, "step-error")
            return

        self._complete_step(node, tx, item, package, agent, log, ctx, record)

    # -- step completion ------------------------------------------------------------

    def _complete_step(self, node: "Node", tx, item: QueueItem,
                       package: AgentPackage, agent: MobileAgent,
                       log: RollbackLog, ctx: StepContext, record) -> None:
        world = self.world
        flags = ctx.step_flags()
        log.append(EndOfStepEntry(node=node.name,
                                  step_index=package.step_index,
                                  has_mixed=flags["has_mixed"],
                                  alternates=flags["alternates"],
                                  non_compensatable=flags["non_compensatable"],
                                  recoverability=flags["recoverability"]),
                   tx)
        for sp_id in ctx.staged_discards():
            log.discard_savepoint(sp_id, tx)
        if ctx.staged_truncate():
            dropped = log.truncate(tx)
            world.metrics.incr("log.truncations")
            world.metrics.incr("log.entries_discarded", dropped)

        finishing, result = ctx.staged_finish()
        next_hop = ctx.staged_next()
        if not finishing and next_hop is None:
            abort_and_count(node, tx, "no-next-hop")
            world.agent_failed(
                package.agent_id,
                f"step {package.step_index} set neither goto nor finish")
            self._consume(node, item, "no-next-hop")
            return
        if finishing:
            agent.finished = True
            agent.clear_control()
        else:
            agent.set_control(next_hop["node"], next_hop["method"])
        agent.step_count = package.step_index + 1

        for sp_request in ctx.staged_savepoints():
            self._write_savepoint(log, agent, sp_request, tx,
                                  include_wro=(package.mode
                                               is RollbackMode.SAGA))

        if finishing:
            def _finished() -> None:
                record.steps_committed += 1
                world.metrics.incr("steps.committed")
                world.agent_finished(agent, result)

            finalize(node, tx, on_committed=_finished, label="step-final")
            return

        dest_name, promoted = self.resolve_step_destination(
            node, next_hop["node"], package.protocol)
        new_package = AgentPackage.pack(
            PackageKind.STEP, agent, log,
            step_index=package.step_index + 1,
            mode=package.mode, protocol=package.protocol,
            primary=dest_name, promoted=promoted)
        self.ship(node, tx, new_package, dest_name)

        def _committed() -> None:
            record.steps_committed += 1
            world.metrics.incr("steps.committed")
            if dest_name != node.name:
                record.agent_transfers += 1
                record.transfer_bytes += new_package.size_bytes
                world.metrics.incr("agent.transfers.step")
                world.metrics.add_bytes("agent.transfers.step",
                                        new_package.size_bytes)

        finalize(node, tx, on_committed=_committed, label="step-commit")

    def _write_savepoint(self, log: RollbackLog, agent: MobileAgent,
                         sp_request: tuple, tx,
                         include_wro: bool = False) -> None:
        """Append the savepoint entry for a staged savepoint request.

        Under transition logging the payload is the diff of the SRO
        space against the previous real savepoint (full image when the
        log has none), per Section 4.2.  ``include_wro`` is the saga
        baseline's full-program-state snapshot (never set by the
        paper's mechanism).
        """
        sp_id, virtual = sp_request
        world = self.world
        sro_hashes = None
        if virtual:
            payload = None
        elif world.logging_mode is LoggingMode.STATE:
            payload = snapshot(agent.sro)
        else:
            # O(#savepoints) via the savepoint index — no entry scan.
            previous = log.last_real_savepoint_id()
            prev_hashes = (None if previous is None
                           else log.savepoint_sro_hashes(previous))
            if previous is None:
                payload, sro_hashes = sro_image_hashed(agent.sro)
            elif prev_hashes is not None:
                # Content-hash diff base: compares 32-byte digests from
                # one entry read instead of reconstructing (and
                # re-serialising) the whole previous SRO state.
                payload, sro_hashes = sro_diff_hashed(prev_hashes,
                                                      agent.sro)
            else:
                # Previous savepoint predates per-key hashes (e.g. a
                # hand-built log): reconstruct-and-compare, and root a
                # fresh hash chain at this savepoint.
                base = log.reconstruct_sro(previous)
                payload = sro_diff(base, agent.sro)
                sro_hashes = sro_content_hashes(agent.sro)
        wro_payload = snapshot(agent.wro) if include_wro and not virtual \
            else None
        entry = SavepointEntry(sp_id=sp_id,
                               mode=world.logging_mode.value,
                               payload=payload, virtual=virtual,
                               wro_payload=wro_payload,
                               sro_hashes=sro_hashes)
        log.append(entry, tx)
        world.metrics.incr("savepoints.written")

    # -- shared shipping helpers ---------------------------------------------------------

    def resolve_step_destination(self, node: "Node", dest: str,
                                 protocol: Protocol) -> tuple[str, bool]:
        """Divert a step hand-off around an unreachable destination.

        Ref [11]: the step "may be even restarted on another node" —
        under the fault-tolerant protocol an unreachable destination is
        replaced by its first reachable configured step alternate
        instead of retrying the distributed commit until it recovers.
        In a sharded world the alternates prefer other shards, so this
        is also how an itinerary routes around a whole-kernel outage it
        is about to walk into.  Returns ``(destination, promoted)``;
        the package's ``primary`` is the returned destination (the node
        actually executing — what its shadows must watch).  Used by
        both the forward step path and the rollback drivers' resume
        path.
        """
        world = self.world
        if (protocol is not Protocol.FAULT_TOLERANT
                or world.reachable(node.name, dest)):
            return dest, False
        for alt in world.ft.step_alternates_for(dest):
            if world.reachable(node.name, alt):
                world.metrics.incr("ft.step_diverted")
                return alt, True
        return dest, False

    def ship(self, node: "Node", tx, package: AgentPackage,
             dest_name: str) -> None:
        """Stage the durable enqueue of ``package`` at ``dest_name``.

        Charges capture, transfer (when remote) and the destination's
        stable write; enlists the destination in the distributed
        commit; ships fault-tolerant shadow copies after commit.  The
        transfer cost comes from the world's fabric, and the durable
        hand-off goes through :meth:`~repro.node.runtime.World.
        deliver_package` — in a sharded world that seam routes
        cross-shard destinations over the bridge.
        """
        world = self.world
        tx.charge(world.timing.serialize(package.size_bytes))
        if dest_name != node.name:
            world.enlist_participant(tx, dest_name)
            tx.charge(world.transport.transfer_time(package.size_bytes))
        tx.charge(world.timing.stable_write(package.size_bytes))
        world.deliver_package(tx, package, dest_name)
        if package.protocol is Protocol.FAULT_TOLERANT:
            alternates = world.ft.alternates_for(dest_name, package)
            if alternates:
                tx.register_commit(
                    lambda: world.ft.ship_shadows(node, package, alternates))

    # -- housekeeping ---------------------------------------------------------------------

    def _consume(self, node: "Node", item: QueueItem, reason: str) -> None:
        """Durably drop a package that must not be processed again."""
        world = self.world
        if node._find(item.item_id) is None:
            return
        tx = node.txm.begin("consume")
        node.queue.dequeue(tx, item.item_id)
        world.metrics.incr(f"packages.consumed.{reason}")
        finalize(node, tx, label="consume")
