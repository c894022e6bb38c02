"""Fault-tolerant execution: shadow copies and the step ledger.

The basic protocol blocks while the node holding the agent is down.
Ref [11]'s fault-tolerant variant replicates the agent to *observer*
nodes and elects a new executor when the current one stays down; the
rollback paper invokes the same idea twice — "it may be even restarted
on another node" (Section 4.3) for steps, and alternate compensation
nodes for the rollback itself (Section 4.3, discussion).

This module implements a faithful-in-behaviour simplification:

* when a step/compensation package is committed into a primary node's
  queue, *shadow* copies travel (reliably, after commit) to the
  configured alternate nodes;
* a shadow schedules periodic takeover checks on the
  ``takeover_timeout`` grid, so all shadows' checks share instants;
  when the primary is down at check time and the unit of work is
  unclaimed, the shadow promotes itself to an active package on the
  alternate node;
* every transaction that takes a fault-tolerant package out of a queue
  — step, compensation, and the rollback start that consumes the
  step package it aborted — first *claims* its ``work_id`` in the
  **step ledger** (:func:`~repro.node.execution.claim_work`).  The
  ledger — standing for the replicated observer quorum — is the
  arbitration point: at most one claim commits, so effects happen
  exactly once no matter how primary and promoted executions race,
  and a claimed package's shadows discard themselves at their next
  check;
* an execution that finds a foreign committed claim discards its
  package ("stale").

Alternates for steps come from a world-level policy (default: none —
configure with the world's ``set_alternates``); alternates for
compensations come from the end-of-step entries in the rollback log
(``ctx.declare_alternates``), exactly where the paper puts them.

Cross-shard fault tolerance
---------------------------

In a plain world the ledger is one always-available store.  A
:class:`~repro.node.sharded.ShardedWorld` cannot model it that way: a
whole-kernel outage must be allowed to take the ledger replica *and*
the shadows hosted by that kernel down together, or the protocol's
survival claims would be vacuous.  :class:`BridgedFaultTolerance`
therefore replicates the ledger — one replica per shard, in the style
of viewstamped/quorum replication adapted to the deterministic
lockstep-epoch bridge:

* a **claim** locks the claim key on every live replica (the quorum
  round trip the transaction is charged for), reads them all, stages
  the write on the local replica and mirrors it to the other replicas
  through the cross-shard bridge as a commit action — mirrors are
  applied inside the epoch barrier, so they survive the claiming
  kernel's death;
* **takeover checks** resolve ownership from the live replicas
  (majority certifies agreement; a sub-majority read is surfaced via
  ``ft.ledger.quorum_degraded``), and a shadow watching a primary in
  *another* shard only promotes after a bridge flush has happened
  since it first observed the outage — by then every claim the dead
  kernel committed has reached the surviving replicas, closing the
  mirror-lag window that could otherwise double-execute a step;
* :meth:`FaultTolerance.alternates_for` becomes **placement-aware**:
  with :attr:`FTParams.cross_shard_alternates` enabled, alternates
  hosted by other shards are preferred over same-shard ones (the
  same-shard ones remain as fallback, and an unsharded world is
  unaffected), so shadow redundancy survives a whole-shard outage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.agent.packages import AgentPackage, PackageKind
from repro.net.messages import Message
from repro.net.network import surface_give_up
from repro.node.runtime import LEDGER_NODE
from repro.storage.queues import QueueItem
from repro.storage.stable import StableStore
from repro.tx.locks import LockManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.node.node import Node
    from repro.node.runtime import World
    from repro.node.sharded import ShardedWorld
    from repro.tx.manager import Transaction

MAX_TAKEOVER_ROUNDS = 200


@dataclass(frozen=True)
class FTParams:
    """Policy knobs of the fault-tolerant protocol.

    Attributes
    ----------
    takeover_timeout:
        Period of a shadow's takeover checks (virtual seconds).  Checks
        fire on its grid — at the multiples of ``takeover_timeout`` —
        so every shadow's checks share instants, and a shadow first
        checks at the grid point after its arrival.  A check detects
        an outage at most one period after it began.
    max_takeover_rounds:
        Checks before an unclaimed shadow gives up and self-discards.
    cross_shard_alternates:
        In a sharded world, prefer alternates hosted by *other* shards
        when ordering shadow placement and step/compensation diversion
        targets, so replication survives a whole-kernel outage.  A
        plain (unsharded) world ignores the knob; same-shard alternates
        always remain as fallback.
    """

    takeover_timeout: float = 1.0
    max_takeover_rounds: int = MAX_TAKEOVER_ROUNDS
    cross_shard_alternates: bool = True


class FaultTolerance:
    """Step ledger + shadow replication + takeover watchdog."""

    def __init__(self, world: "World"):
        self.world = world
        self.ledger = StableStore("step-ledger")
        self.ledger_locks = LockManager("step-ledger")
        self._step_alternates: dict[str, tuple[str, ...]] = {}
        self.promotions = 0
        self.shadows_shipped = 0
        self.shadows_discarded = 0

    # -- configuration -----------------------------------------------------------

    def set_alternates(self, node: str, *alternates: str) -> None:
        """Declare which nodes shadow step executions of ``node`` (the
        world facade's ``set_alternates`` journals the op)."""
        self._step_alternates[node] = tuple(alternates)

    def step_alternates_for(self, node: str) -> tuple[str, ...]:
        """Configured step alternates of ``node`` (may be empty).

        Placement-aware: in a sharded world with cross-shard alternates
        enabled, alternates in other shards come first.
        """
        return self._order_alternates(
            node, self._step_alternates.get(node, ()))

    def alternates_for(self, node: str,
                       package: AgentPackage) -> tuple[str, ...]:
        """Alternate nodes for a package headed to ``node``.

        Compensation packages carry their own alternates (from the EOS
        entry); step packages use the world policy.  Order encodes
        preference (shadow shipping preserves it, diversion picks the
        first reachable one): see :meth:`_order_alternates`.
        """
        if package.kind is PackageKind.COMPENSATION:
            alternates = tuple(a for a in package.alternates if a != node)
        else:
            alternates = tuple(a for a in self._step_alternates.get(node, ())
                               if a != node)
        return self._order_alternates(node, alternates)

    def _order_alternates(self, node: str,
                          alternates: tuple[str, ...]) -> tuple[str, ...]:
        """Placement preference hook; the base world has no placement."""
        return alternates

    # -- the step ledger ------------------------------------------------------------

    def claim(self, tx: "Transaction", work_id: int, node: str) -> str:
        """Claim ``work_id`` for ``node`` inside ``tx``.

        Returns ``"acquired"`` (claim staged; durable iff the
        transaction commits) or ``"stale"`` (another node's claim is
        already committed).  A quorum round trip is charged.  May raise
        :class:`~repro.errors.LockConflict` when a concurrent claimant
        holds the claim key — the caller aborts and retries the unit of
        work, exactly like any other lock conflict.
        """
        tx.charge(2 * self.world.net_params.latency)
        self._lock_claim(tx, work_id)
        tx.add_participant(LEDGER_NODE)
        holder: Optional[str] = self._read_claim(work_id)
        if holder is None:
            self._stage_claim(tx, work_id, node)
            return "acquired"
        if holder == node:
            return "acquired"
        return "stale"

    def claimed_by(self, work_id: int) -> Optional[str]:
        """Committed-or-staged holder of ``work_id`` (watchdog checks)."""
        return self._read_claim(work_id)

    def _lock_claim(self, tx: "Transaction", work_id: int) -> None:
        self.ledger_locks.acquire(("claim", work_id), tx)

    def _read_claim(self, work_id: int) -> Optional[str]:
        return self.ledger.get(("claim", work_id))

    def _stage_claim(self, tx: "Transaction", work_id: int,
                     node: str) -> None:
        self.ledger.put(("claim", work_id), node, tx)

    # -- shadow replication ------------------------------------------------------------

    def ship_shadows(self, origin: "Node", package: AgentPackage,
                     alternates: tuple[str, ...]) -> None:
        """Reliably send shadow copies of ``package`` to ``alternates``.

        Runs as a commit action of the transaction that enqueued the
        primary package.  Shadows travel through the world's fabric,
        ``world.transport`` (or, for alternates hosted by another
        shard, through the cross-shard bridge), one message per copy.
        If either path gives up on a copy (retry budget exhausted),
        the loss is surfaced — the primary still makes
        progress and the metric lets operators see degraded replication
        instead of a silent gap.
        """
        shadow = package.as_kind(
            PackageKind.SHADOW, primary=package.primary,
            primary_shard=self._placement_of(package.primary))
        for alt in alternates:
            self.shadows_shipped += 1
            self.world.metrics.incr("ft.shadows_shipped")
            self._ship_one_shadow(origin, shadow, alt)

    def _placement_of(self, node: Optional[str]) -> Optional[int]:
        """Shard index hosting ``node`` (None in an unsharded world)."""
        return None

    def _ship_one_shadow(self, origin: "Node", shadow: AgentPackage,
                         alt: str) -> None:
        self.world.transport.send(
            origin.name, alt, "shadow-copy", shadow,
            shadow.size_bytes,
            on_delivered=lambda msg, a=alt: self._shadow_arrived(a, msg),
            on_gave_up=lambda msg, a=alt: self._shadow_lost(a, msg))

    def _shadow_lost(self, alt_name: str, message) -> None:
        """A transfer path gave up on a shadow copy: count, don't hang."""
        self.world.metrics.incr("ft.shadows_lost")
        self.world.metrics.record(self.world.sim.now, "ft-shadow-lost",
                                  node=alt_name,
                                  agent=message.payload.agent_id)

    def _shadow_arrived(self, alt_name: str, message) -> None:
        self.adopt_shadow(alt_name, message.payload)

    def adopt_shadow(self, alt_name: str, shadow: AgentPackage) -> None:
        """Enqueue an arrived shadow and start its takeover watchdog."""
        node = self.world.node(alt_name)
        item = node.queue.enqueue(shadow)
        self._schedule_check(node, item.item_id, rounds=0)

    def _schedule_check(self, node: "Node", item_id: int,
                        rounds: int) -> None:
        """Arm the next check on the first ``takeover_timeout`` grid
        point strictly after now, so every shadow's polls share
        barriers instead of scattering over the grid."""
        sim = self.world.sim
        period = self.world.ft_params.takeover_timeout
        k = math.floor(sim.now / period) + 1
        while k * period <= sim.now:  # float guard: strictly after now
            k += 1
        sim.schedule_at(
            k * period,
            lambda: self._takeover_check(node, item_id, rounds),
            label=f"ft-check:{node.name}:{item_id}")

    # -- takeover -----------------------------------------------------------------------

    def _takeover_check(self, node: "Node", item_id: int,
                        rounds: int) -> None:
        item = node._find(item_id)
        if item is None:
            return
        shadow: AgentPackage = item.payload
        if shadow.kind is not PackageKind.SHADOW:
            return  # already promoted
        if self.claimed_by(shadow.work_id) is not None:
            # The work committed somewhere; the shadow is garbage.
            self._discard_shadow(node, item_id)
            return
        primary = shadow.primary
        if primary is not None and not self.world.node_up(primary):
            if node.up and self._promotion_ready(shadow):
                self._promote(node, item, shadow)
                return
        else:
            self._observed_up(shadow)
        if rounds + 1 >= self.world.ft_params.max_takeover_rounds:
            self.world.metrics.incr("ft.shadows_expired")
            self._discard_shadow(node, item_id)
            return
        self._schedule_check(node, item_id, rounds + 1)

    def _promotion_ready(self, shadow: AgentPackage) -> bool:
        """May the shadow promote now?  The base ledger is authoritative."""
        return True

    def _observed_up(self, shadow: AgentPackage) -> None:
        """The primary was seen alive at a check (staleness bookkeeping)."""

    def _promote(self, node: "Node", item: QueueItem,
                 shadow: AgentPackage) -> None:
        """Turn a shadow into an active package on the alternate node."""
        promoted = shadow.as_kind(
            PackageKind.STEP if shadow.sp_id is None
            else PackageKind.COMPENSATION,
            promoted=True)
        item.payload = promoted
        self.promotions += 1
        self.world.metrics.incr("ft.promotions")
        self.world.metrics.record(self.world.sim.now, "ft-promotion",
                                  node=node.name, agent=shadow.agent_id,
                                  work_id=shadow.work_id)
        node.request_dispatch(item)

    def _discard_shadow(self, node: "Node", item_id: int) -> None:
        if node._find(item_id) is None:
            return
        tx = node.txm.begin("shadow-gc")
        node.queue.dequeue(tx, item_id)
        tx.commit()
        node.txm.note_commit()
        self.shadows_discarded += 1
        self.world.metrics.incr("ft.shadows_discarded")


class BridgedFaultTolerance(FaultTolerance):
    """Per-shard fault tolerance with a bridge-replicated step ledger.

    One instance lives in every :class:`~repro.node.sharded.ShardWorld`;
    ``self.ledger`` is that shard's replica.  Step-alternate policy is
    shared across the shards (a dict owned by the
    :class:`~repro.node.sharded.ShardedWorld`), because the shipping
    shard must know the alternates of destinations it does not host.
    """

    def __init__(self, world: "World"):
        super().__init__(world)
        #: The shard context — the :class:`~repro.node.sharded.
        #: ShardedWorld` in-process, or a :class:`~repro.node.procshard.
        #: RemoteShardContext` inside a worker process.  Everything this
        #: driver needs from *other* shards goes through its narrow
        #: surface (placement map, the barrier view, replica locks and
        #: claim reads, the bridge), which is what lets the same
        #: protocol code run against live sibling worlds or against
        #: barrier-synchronised views without behavioural difference.
        self.sharded: "ShardedWorld" = world._sharded
        # Shared across every shard's FT instance (set_alternates on
        # any shard, or on the ShardedWorld facade, is visible to all).
        self._step_alternates = self.sharded.ft_alternates
        # work_id -> virtual time its primary was first seen down by a
        # still-watching shadow (cleared when it is seen up again).
        self._down_observed: dict[int, float] = {}
        # Bridged shadow copies accepted at a barrier but not yet
        # adopted into a durable queue; swept back to the bridge if
        # this kernel dies in the window (see :meth:`receive_shadow`).
        self._inbound_shadows: dict[int, tuple] = {}
        self._inbound_seq = 0

    def claims(self) -> dict[int, str]:
        """This replica's claims, work_id -> holder (staged included);
        the ledger holds nothing but ``("claim", work_id)`` keys."""
        return {key[1]: holder for key, holder in self.ledger.items()}

    # -- placement ----------------------------------------------------------------

    def _placement_of(self, node: Optional[str]) -> Optional[int]:
        if node is None:
            return None
        return self.sharded.placement_of(node)

    def _order_alternates(self, node: str,
                          alternates: tuple[str, ...]) -> tuple[str, ...]:
        """Prefer alternates hosted by other shards (policy knob).

        Same-shard alternates stay available as fallback, and a
        single-shard world degenerates to the unsharded ordering.
        """
        if (not self.world.ft_params.cross_shard_alternates
                or self.sharded.n_shards == 1):
            return alternates
        home = self._placement_of(node)
        cross = tuple(a for a in alternates
                      if self._placement_of(a) != home)
        local = tuple(a for a in alternates
                      if self._placement_of(a) == home)
        return cross + local

    # -- the bridged ledger quorum ----------------------------------------------------

    def _lock_claim(self, tx: "Transaction", work_id: int) -> None:
        # Locking the claim key on every live replica is what a quorum
        # write's replica-side ordering gives a real system: two
        # concurrent claimants always collide on at least one common
        # replica, so the loser aborts and retries (and then reads the
        # winner's claim).  A suspended kernel (whole-shard outage)
        # takes its replica down with it; individual node crashes do
        # not — each shard's ledger replica models that shard's
        # always-available observer set.  Which replicas are live is
        # the barrier view's answer, like every foreign liveness read.
        # Deterministic shard order.
        for shard in self.sharded.view.live_shards():
            self.sharded.claim_lock(tx, shard, work_id)

    def _read_claim(self, work_id: int) -> Optional[str]:
        live = self.sharded.view.live_shards()
        metrics = self.world.metrics
        metrics.incr("ft.ledger.quorum_reads")
        if 2 * len(live) <= self.sharded.n_shards:
            # Fewer than a majority of replicas reachable: answer from
            # what is left (availability over strictness — claims are
            # write-once, so a reported holder is always real), but
            # make the degraded read observable.
            metrics.incr("ft.ledger.quorum_degraded")
        holders = []
        for shard in live:
            value = self.sharded.read_claim(shard, work_id)
            if value is not None and value not in holders:
                holders.append(value)
        if not holders:
            return None
        if len(holders) > 1:  # two committed claims — must never happen
            metrics.incr("ft.ledger.quorum_disagreement")
            metrics.record(self.world.sim.now, "ledger-disagreement",
                           work_id=work_id, holders=tuple(holders))
        return holders[0]

    def _stage_claim(self, tx: "Transaction", work_id: int,
                     node: str) -> None:
        super()._stage_claim(tx, work_id, node)  # local replica, undoable
        bridge = self.sharded.bridge
        shard = self.world.shard_index
        world = self.world
        # Mirror on commit: the forward outlives this kernel, so a
        # claim committed just before a whole-shard outage still
        # reaches the surviving replicas at the next epoch barrier.
        tx.register_commit(
            lambda: bridge.forward_ledger(shard, work_id, node,
                                          world.sim.now))

    def apply_mirror(self, work_id: int, holder: str) -> None:
        """Apply a bridged ledger write to this shard's replica."""
        key = ("claim", work_id)
        current = self.ledger.get(key)
        if current is None:
            self.ledger.put(key, holder)
            self.world.metrics.incr("ft.ledger.mirrors_applied")
        elif current != holder:
            self.world.metrics.incr("ft.ledger.mirror_conflicts")
            self.world.metrics.record(self.world.sim.now, "ledger-conflict",
                                      work_id=work_id, ours=current,
                                      theirs=holder)

    # -- cross-shard shadow transfer ------------------------------------------------------

    def _ship_one_shadow(self, origin: "Node", shadow: AgentPackage,
                         alt: str) -> None:
        if alt in self.world.nodes:
            super()._ship_one_shadow(origin, shadow, alt)
            return
        dest_shard = self.sharded.shard_of(alt)
        self.world.metrics.incr("bridge.shadow_forwards")
        message = Message(src=origin.name, dst=alt, kind="shadow-copy",
                          payload=shadow, size_bytes=shadow.size_bytes)
        self.sharded.bridge.forward_shadow(
            dest_shard, message, at=self.world.sim.now,
            max_retries=self.world.net_params.max_retries,
            source_shard=self.world.shard_index,
            give_up=("shadow-lost", alt))

    def apply_bridge_give_up(self, message: Message,
                             give_up: Optional[tuple]) -> None:
        """Surface a bridged transfer the routing layer abandoned.

        The bridge carries a declarative ``give_up`` tag instead of a
        closure (closures cannot cross the worker-process boundary);
        this method — running on the *source* shard, at the barrier —
        resolves the tag to the concrete loss handler and funnels
        through :func:`~repro.net.network.surface_give_up` exactly
        like a direct send's give-up.
        """
        callback = None
        if give_up is not None and give_up[0] == "shadow-lost":
            alt = give_up[1]
            callback = lambda msg: self._shadow_lost(alt, msg)
        surface_give_up(self.world.metrics, self.world.sim.now, message,
                        callback)

    def receive_shadow(self, message: Message, max_retries: int,
                       retries: int, source_shard: int,
                       give_up: Optional[tuple], when: float) -> None:
        """Arrival half of a bridged shadow (called at the flush barrier).

        Adoption into the destination node's durable queue is scheduled
        at ``when`` in this shard's kernel; the node itself being down
        is no obstacle — the copy waits inertly in the durable queue
        and the watchdog only promotes while the node is up, exactly
        like a same-shard shadow after its host crashed.  Until the
        adoption event fires the copy is tracked in
        ``_inbound_shadows`` so that a whole-kernel outage in the
        window (:meth:`sweep_inbound_shadows`) hands it back to the
        bridge instead of stranding it in a frozen kernel — a bridged
        shadow is either adopted or surfaced, never silently dropped.
        """
        key = self._inbound_seq
        self._inbound_seq = key + 1

        def _arrive() -> None:
            self._inbound_shadows.pop(key, None)
            self.adopt_shadow(message.dst, message.payload)

        event = self.world.sim.schedule_at(
            when, _arrive, label=f"bridge-shadow:{message.dst}")
        self._inbound_shadows[key] = (event, message, max_retries, retries,
                                      source_shard, give_up)

    def sweep_inbound_shadows(self) -> int:
        """This kernel is dying: re-route undelivered bridged shadows.

        Called by ``kill_shard`` at the kill instant, before the kernel
        suspends.  Each not-yet-adopted copy goes back to the bridge
        (retry count preserved), where the flush retry path either
        delivers it after a restart or surfaces its loss through
        :func:`~repro.net.network.surface_give_up` once the budget is
        exhausted.
        """
        swept = list(self._inbound_shadows.values())
        self._inbound_shadows.clear()
        for (event, message, max_retries, retries, source_shard,
                give_up) in swept:
            event.cancel()
            self.sharded.bridge.forward_shadow(
                self.world.shard_index, message, at=self.world.sim.now,
                max_retries=max_retries, source_shard=source_shard,
                give_up=give_up, retries=retries)
        return len(swept)

    # -- takeover staleness guard --------------------------------------------------------

    def _promotion_ready(self, shadow: AgentPackage) -> bool:
        """Promote only once the dead shard's mirrors have settled.

        A primary in *this* shard shares our authoritative replica, so
        its claims are immediately visible and promotion may proceed at
        once.  A primary in another shard may have committed a claim
        whose mirror is still travelling when that shard dies; every
        such mirror is flushed at the first epoch barrier after the
        outage, so requiring one bridge flush at-or-after the moment we
        first observed the primary down guarantees the claim check
        above saw the settled state.
        """
        primary = shadow.primary
        if primary is None:
            return True
        shard = shadow.primary_shard
        if shard is None:
            shard = self._placement_of(primary)
        if shard is None or shard == self.world.shard_index:
            return True
        observed = self._down_observed.setdefault(shadow.work_id,
                                                  self.world.sim.now)
        return self.sharded.last_flush_at >= observed

    def _observed_up(self, shadow: AgentPackage) -> None:
        self._down_observed.pop(shadow.work_id, None)

    def _discard_shadow(self, node: "Node", item_id: int) -> None:
        item = node._find(item_id)
        if item is not None:  # drop the watch bookkeeping with the shadow
            self._down_observed.pop(item.payload.work_id, None)
        super()._discard_shadow(node, item_id)

    def _promote(self, node: "Node", item: QueueItem,
                 shadow: AgentPackage) -> None:
        observed = self._down_observed.pop(shadow.work_id, None)
        super()._promote(node, item, shadow)
        if observed is not None:
            self.world.metrics.observe("ft.takeover_delay",
                                       self.world.sim.now,
                                       self.world.sim.now - observed)
