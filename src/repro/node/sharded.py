"""Sharded multi-world execution: N kernels, one simulated system.

One :class:`~repro.sim.kernel.Simulator` processes every event of a
world in a single totally-ordered queue, which caps how many concurrent
agents a run can hold.  :class:`ShardedWorld` scales past that by
partitioning the node set across N independent shard worlds — each with
its own kernel, message fabric, failure injector and metrics — and
connecting them with a deterministic **cross-shard bridge**.

Lockstep epochs
---------------

Virtual clocks stay consistent through barrier synchronisation: the
lockstep walk every backend shares
(:class:`~repro.node.lockstep.LockstepWorld`) picks the next epoch
barrier (a multiple of ``epoch``), advances every shard's kernel
exactly to it (:meth:`Simulator.run_epoch`), then exchanges the
traffic that crossed shard boundaries during the epoch.
A cross-shard migration commits in its source shard with the same
transfer / 2PC-round / stable-write charges as a remote migration in a
plain world; the durable enqueue at the destination is carried by the
bridge and injected into the destination kernel at the barrier.
Because forwards are collected in deterministic order (shards run
sequentially per epoch; transfers sort by commit time then sequence)
and injected at deterministic times, a sharded run is fully
reproducible — and because the bridge only *delays* the enqueue to the
next barrier (never reorders per-link, never drops), per-agent
outcomes match an equivalent unsharded run of the same topology at the
same seed.

Besides agent packages the bridge now carries two further kinds of
traffic for the fault-tolerant protocol: **shadow copies** bound for
alternates in other shards (message semantics — retried across
downtime, give-ups surfaced through the same
:func:`~repro.net.network.surface_give_up` path as direct sends,
never silently dropped) and **ledger mirrors** that replicate step
claims to every shard's ledger replica inside the epoch barrier (see
:class:`~repro.exactly_once.fault_tolerant.BridgedFaultTolerance`).

Whole-shard outages
-------------------

:meth:`ShardedWorld.kill_shard` injects the failure mode a sharded
deployment actually fears: at the kill instant every node of the shard
crashes and the shard's *kernel* suspends
(:meth:`Simulator.suspend`) — the dead kernel stops advancing while the
surviving shards keep running, promote cross-shard shadows and complete
itineraries exactly once.  An optional restart resumes the kernel at
the restart time: the backlog replays (deliveries retry across the
downtime, exactly like a node crash in a plain world), the ledger
replica catches up from the bridge's mirror backlog, and the recovery
rescan re-dispatches the durable queues — stale primaries then discard
themselves against the replicated ledger.

Failure semantics across shards differ from the in-world case in two
bounded ways.  The barrier rule: every mid-epoch read of another
shard's node liveness or suspension — reachability, the takeover
watchdog, the ledger quorum's live replicas — answers from one view
taken at the epoch's opening barrier (:class:`BarrierView`), so a crash
or kill in one shard shows in the others from the next barrier on,
exactly one epoch (the network latency) later, whichever order the
shards run in.  And the destination's *transaction manager* cannot be enlisted across
kernels, so a destination crash inside the shipping commit window
aborts the transaction in an unsharded run but lets it commit in a
sharded one — the bridged package then simply waits in the durable
queue for the recovery rescan.  Both paths are correct executions of
the same deterministic agent program (exactly-once is arbitrated by the
durable queues and the replicated step ledger either way), so per-agent
*outcomes* still agree; aggregate *counters* are only
shard-count-invariant for crash-free runs.

Knobs: ``n_shards`` (kernel count), ``epoch`` (barrier spacing;
defaults to the network latency, the natural lookahead of the fabric),
:meth:`kill_shard` (whole-kernel outage injection),
``FTParams.cross_shard_alternates`` (prefer shadow placement in other
shards), plus everything a plain :class:`~repro.node.runtime.World`
accepts.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import UsageError
from repro.node.lockstep import LockstepWorld, scoped
from repro.node.runtime import LEDGER_NODE, AgentRecord, World
from repro.scope import Scope
from repro.sim.timing import DEFAULT_NETWORK

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.agent.packages import AgentPackage
    from repro.journal.journal import WorldJournal
    from repro.net.messages import Message
    from repro.node.node import Node
    from repro.tx.manager import Transaction


#: The ``world_kwargs`` a shard forwards to its kernel: every
#: :class:`~repro.node.runtime.World` parameter the driver does not set
#: itself.
_WORLD_KWARGS = frozenset(inspect.signature(World.__init__).parameters) \
    - {"self", "seed", "journal"}


@dataclass
class _Transfer:
    """One unit of traffic crossing a shard boundary.

    Deliberately **process-picklable**: the payloads are agent packages
    / messages (already pickle-framed) and the source/give-up context
    is carried as a shard index plus a declarative tag instead of live
    world references or closures, so the same object can ride a
    :mod:`multiprocessing` pipe between a shard worker and the
    coordinator (see :mod:`repro.node.procshard`).
    """

    at: float          # source-shard commit time
    seq: int           # global order among forwards of the same instant
    kind: str          # "package" | "shadow" | "ledger"
    dest_shard: int
    dest_name: str = ""
    package: Optional["AgentPackage"] = None
    message: Optional["Message"] = None        # shadow envelope
    ledger_write: Optional[tuple] = None       # (work_id, holder)
    max_retries: int = 0
    retries: int = 0
    source_shard: int = -1
    #: Declarative give-up context, e.g. ``("shadow-lost", alt_name)``;
    #: resolved to the concrete handler on the *source* shard by
    #: :meth:`~repro.exactly_once.fault_tolerant.BridgedFaultTolerance.
    #: apply_bridge_give_up` (never a closure — closures cannot cross a
    #: process boundary).
    give_up: Optional[tuple] = None
    #: Worker mode only: the shipped agent's record state, captured by
    #: the source worker when the transfer left it, applied by the
    #: destination worker before the payload is delivered.  The agent's
    #: record travels *with* the agent instead of being broadcast every
    #: epoch (in-process shards share the record table directly and
    #: leave this None).
    record_blob: Optional[bytes] = None


@dataclass
class _ShardOutage:
    """One scheduled whole-shard outage (and optional restart)."""

    shard: int
    at: float
    restart_at: Optional[float] = None
    revived: bool = False


class BarrierView:
    """What every shard knows of the others for one epoch.

    Taken at each barrier, after the due revivals and before any kernel
    runs: one suspended flag and one down-node set per shard.  Every
    mid-epoch read of *another* shard's node liveness
    (:meth:`ShardWorld.node_up` / :meth:`ShardWorld.reachable`) and of
    which ledger replicas are live (the bridged claim quorum) answers
    from it, on both sharded backends.  So a crash or a whole-shard
    kill is seen by the other shards from the next barrier on — one
    epoch, one network latency, later — never sooner because of the
    order the shards happen to run in.

    Immutable and built from references: the down sets are the failure
    injectors' own frozensets (see
    :meth:`~repro.sim.failures.FailureInjector.down_nodes`), and
    :meth:`retaken` keeps the view when nothing moved.
    """

    __slots__ = ("suspended", "down", "_live")

    def __init__(self, suspended: tuple[bool, ...],
                 down: tuple[frozenset, ...]):
        self.suspended = suspended
        self.down = down
        self._live = tuple(shard for shard, halted in enumerate(suspended)
                           if not halted)

    @classmethod
    def initial(cls, n_shards: int) -> "BarrierView":
        """Every shard running, no node down."""
        return cls((False,) * n_shards, (frozenset(),) * n_shards)

    def node_up(self, shard: int, name: str) -> bool:
        """Was ``name``, hosted by ``shard``, up at the barrier?"""
        return name not in self.down[shard]

    def live_shards(self) -> tuple[int, ...]:
        """The shards whose kernels ran at the barrier, in shard order."""
        return self._live

    def retaken(self, suspended: tuple[bool, ...],
                down: tuple[frozenset, ...]) -> "BarrierView":
        """The view of ``suspended`` and ``down``: this one when neither
        moved (no kill, revival, crash or recovery since)."""
        if suspended == self.suspended and down == self.down:
            return self
        return BarrierView(suspended, down)


class CrossShardBridge:
    """Deterministic traffic exchange between shard kernels.

    Forwards accumulate while the shards run one epoch; at the barrier
    the driver flushes them, sorted by ``(commit time, sequence)``, into
    the destination kernels.  The transfer cost was already charged
    into the shipping transaction (the commit instant includes it), so
    injection happens at the barrier — the bridge adds at most one
    epoch of staleness, never extra cost, and never reorders the
    per-link stream.

    Three kinds of traffic, three delivery contracts:

    * **packages** — durable-queue semantics: always injected, even
      into a suspended kernel (the enqueue fires when the kernel is
      resumed; a shard that never restarts simply never sees it — the
      outage the cross-shard shadows exist to survive);
    * **shadows** — message semantics: a copy bound for a suspended
      shard is retried at subsequent flushes, and exhausting its retry
      budget surfaces the loss through
      :func:`~repro.net.network.surface_give_up` — the same
      ``net.gave_up`` counter / timeline event / ``on_gave_up``
      callback as a direct send, never a silent drop;
    * **ledger mirrors** — replica semantics: applied to live replicas
      at the barrier, banked for suspended ones and applied when the
      shard's replica catches up at restart.
    """

    def __init__(self, n_shards: int) -> None:
        self.n_shards = n_shards
        self._pending: list[_Transfer] = []
        self._seq = 0
        self._ledger_backlog: dict[int, list[tuple]] = {}
        self.transfers_total = 0
        #: Shadow copies abandoned after exhausting their flush-retry
        #: budget (each was surfaced through the give-up path).
        self.shadows_dropped = 0

    def pending(self) -> int:
        """Forwards awaiting the next barrier flush."""
        return len(self._pending)

    def drain_pending(self) -> list[_Transfer]:
        """Take every pending forward, in insertion order (worker outbox).

        A shard worker's bridge is a pure accumulator: the worker drains
        it after each epoch and ships the transfers to the coordinator,
        whose own bridge re-registers them (in shard order, so the
        global sequence numbers reproduce the in-process interleaving)
        and performs the actual routing.
        """
        pending = self._pending
        self._pending = []
        return pending

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq = seq + 1
        return seq

    def adopt(self, transfer: _Transfer) -> None:
        """Re-register a worker-shipped transfer under a fresh sequence."""
        transfer.seq = self._next_seq()
        self._pending.append(transfer)

    def forward(self, dest_shard: int, dest_name: str,
                package: "AgentPackage", at: float) -> None:
        """Hand a committed package to the bridge (source commit action)."""
        self._pending.append(_Transfer(
            at=at, seq=self._next_seq(), kind="package",
            dest_shard=dest_shard, dest_name=dest_name, package=package))

    def forward_shadow(self, dest_shard: int, message: "Message",
                       at: float, max_retries: int, source_shard: int,
                       give_up: Optional[tuple] = None,
                       retries: int = 0) -> None:
        """Hand a committed FT shadow copy to the bridge.

        ``retries`` carries over consumed budget when a dying kernel
        sweeps an undelivered copy back onto the bridge.
        """
        self._pending.append(_Transfer(
            at=at, seq=self._next_seq(), kind="shadow",
            dest_shard=dest_shard, dest_name=message.dst, message=message,
            max_retries=max_retries, retries=retries,
            source_shard=source_shard, give_up=give_up))

    def forward_ledger(self, source_shard: int, work_id: int, holder: str,
                       at: float) -> None:
        """Mirror a committed ledger claim to every other replica."""
        for dest in range(self.n_shards):
            if dest == source_shard:
                continue
            self._pending.append(_Transfer(
                at=at, seq=self._next_seq(), kind="ledger", dest_shard=dest,
                ledger_write=(work_id, holder)))

    def take_backlog(self, shard: int) -> list[tuple]:
        """Claim the banked ledger mirrors of a restarting shard.

        The caller hands them to the shard's
        :meth:`ShardWorld.apply_ledger_catchup` (directly in-process;
        over the revive command in worker mode).
        """
        return self._ledger_backlog.pop(shard, [])

    def route(self, suspended: list[bool]) -> list[tuple[int, str, _Transfer]]:
        """Decide the fate of every pending forward — no state applied.

        The pure half of a barrier flush: sorts the pending transfers
        into the deterministic ``(commit time, sequence)`` order and
        classifies each against the destination suspension states into
        an ordered list of ``(shard, action, transfer)`` deliveries,
        where ``action`` is ``"deliver"`` (apply to the shard world via
        :func:`apply_transfer`) or ``"give-up"`` (surface on the
        *source* shard via :func:`apply_give_up`).  Shadow retries for
        suspended destinations are retained internally; ledger mirrors
        for them are banked until :meth:`take_backlog`.

        Splitting decision from application is what lets the same
        bridge drive in-process shard worlds (apply immediately) and
        multiprocess shard workers (ship each shard its ordered inbox):
        the decisions — and therefore the runs — are identical.
        """
        pending = self._pending
        self._pending = []
        pending.sort(key=lambda t: (t.at, t.seq))
        retained: list[_Transfer] = []
        deliveries: list[tuple[int, str, _Transfer]] = []
        moved = 0
        for transfer in pending:
            down = suspended[transfer.dest_shard]
            if transfer.kind == "ledger":
                if down:
                    self._ledger_backlog.setdefault(
                        transfer.dest_shard, []).append(transfer.ledger_write)
                else:
                    deliveries.append((transfer.dest_shard, "deliver",
                                       transfer))
                moved += 1
                continue
            if transfer.kind == "shadow" and down:
                transfer.retries += 1
                if transfer.retries > transfer.max_retries:
                    # Surfaced as lost, not moved: transfers_total
                    # counts only traffic that reached a shard.
                    deliveries.append((transfer.source_shard, "give-up",
                                       transfer))
                    self.shadows_dropped += 1
                else:
                    retained.append(transfer)
                continue
            deliveries.append((transfer.dest_shard, "deliver", transfer))
            moved += 1
        self._pending.extend(retained)
        self.transfers_total += moved
        return deliveries

    def flush(self, shards: list["ShardWorld"], barrier: float) -> None:
        """Route every pending forward and apply it to its destination.

        Runs between epochs, when every live shard's clock sits exactly
        at ``barrier``; deliveries are applied at the barrier instant
        in deterministic order.
        """
        for shard, action, transfer in self.route(
                [w.sim.suspended for w in shards]):
            if action == "give-up":
                apply_give_up(shards[shard], transfer)
            else:
                apply_transfer(shards[shard], transfer)


def apply_transfer(world: "ShardWorld", transfer: _Transfer) -> None:
    """Apply one routed bridge delivery to its destination shard world.

    The application half of a barrier flush (see
    :meth:`CrossShardBridge.route`): runs inside the destination's
    kernel context — directly during an in-process flush, or when a
    shard worker applies its inbox at the start of the next cycle.
    Both happen with the destination clock at the same instant, so the
    scheduled event sequence is identical in either mode.
    """
    if transfer.kind == "ledger":
        world.ft.apply_mirror(*transfer.ledger_write)
        return
    if transfer.kind == "shadow":
        when = max(transfer.at, world.sim.now)
        world.metrics.incr("bridge.shadows")
        world.metrics.add_bytes("bridge.bytes", transfer.message.size_bytes)
        world.ft.receive_shadow(transfer.message, transfer.max_retries,
                                transfer.retries, transfer.source_shard,
                                transfer.give_up, when)
        return
    when = max(transfer.at, world.sim.now)
    world.metrics.incr("bridge.transfers")
    world.metrics.add_bytes("bridge.bytes", transfer.package.size_bytes)
    world.sim.schedule_at(
        when,
        lambda w=world, t=transfer:
            w.node(t.dest_name).queue.enqueue(t.package),
        label=f"bridge:{transfer.dest_name}")


def apply_give_up(world: "ShardWorld", transfer: _Transfer) -> None:
    """Surface an abandoned bridged transfer on its *source* shard."""
    world.ft.apply_bridge_give_up(transfer.message, transfer.give_up)


class ShardWorld(World):
    """One shard: a plain world whose remote deliveries may leave it.

    Identical to :class:`~repro.node.runtime.World` except for three
    seams: the delivery seam (a package whose destination node lives in
    another shard is handed to the bridge as a commit action of the
    shipping transaction), the liveness seam (``node_up`` /
    ``reachable`` answer for foreign nodes from the barrier view, see
    :class:`BarrierView`), and the fault-tolerance driver (the bridged,
    ledger-replicated variant).  It shares its sharded world's scope,
    and ops on its nodes are journaled by that world (its ``facade``).
    """

    def __init__(self, shard_index: int, sharded: "ShardedWorld",
                 **world_kwargs: Any):
        # Set before super().__init__: the FT factory runs inside it
        # and needs the backrefs.
        self.shard_index = shard_index
        self._sharded = sharded
        super().__init__(**world_kwargs)
        self.scope = sharded.scope

    def _make_fault_tolerance(self):
        from repro.exactly_once.fault_tolerant import BridgedFaultTolerance
        return BridgedFaultTolerance(self)

    @property
    def facade(self) -> Any:
        return self._sharded

    def node_up(self, name: str) -> bool:
        """Liveness, extended to nodes hosted by other shards.

        A foreign node's answer is its liveness at the last barrier
        (:class:`BarrierView`): a crash in its shard mid-epoch shows
        here from the next barrier on.
        """
        if name != LEDGER_NODE and name not in self.nodes:
            shard = self._sharded.placement_of(name)
            if shard is not None:
                return self._sharded.view.node_up(shard, name)
        return super().node_up(name)

    def reachable(self, a: str, b: str) -> bool:
        """Reachability, extended to nodes hosted by other shards.

        A remote-shard destination is reachable when ``a`` is up and
        the barrier view (:class:`BarrierView`) has ``b`` up: the
        answer is at most one epoch old.  Cross-shard links have no
        partition model; node liveness is the signal.
        """
        if b != LEDGER_NODE and b not in self.nodes:
            shard = self._sharded.placement_of(b)
            if shard is not None:
                return (self.failures.node_up(a)
                        and self._sharded.view.node_up(shard, b))
        return super().reachable(a, b)

    # -- whole-kernel outage handling (shared by both shard drivers) ------------------

    def schedule_kill(self, at: float) -> None:
        """Schedule this kernel's whole-shard outage at time ``at``."""
        self.sim.schedule_at(at, self.die_now,
                             label=f"kill-shard:{self.shard_index}",
                             priority=-100)

    def die_now(self) -> None:
        """The kill instant: crash every node, sweep, suspend the kernel."""
        for name in self.nodes:
            self.failures.force_crash(name)
        # Bridged shadows accepted at a barrier but not yet adopted
        # would strand in the frozen kernel; hand them back to the
        # bridge so they are delivered after a restart or surfaced.
        self.ft.sweep_inbound_shadows()
        self.metrics.incr("shard.kills")
        self.metrics.record(self.sim.now, "shard-killed",
                            shard=self.shard_index)
        self.sim.suspend()

    def schedule_revival(self, restart_at: float,
                         ledger_backlog: list[tuple]) -> None:
        """Resume the kernel and schedule node recovery at ``restart_at``.

        ``ledger_backlog`` is the banked mirror traffic claimed from the
        bridge (:meth:`CrossShardBridge.take_backlog`) at revival time —
        no further mirrors can be banked between the revival decision at
        the barrier and the recovery event, so claiming it early is
        equivalent to the catch-up running inside the recovery event.
        """
        self.sim.resume()

        def _recover() -> None:
            # Replica catch-up first, so recovered dispatches see the
            # settled ledger before re-executing anything.
            self.apply_ledger_catchup(ledger_backlog)
            self.metrics.incr("shard.restarts")
            self.metrics.record(self.sim.now, "shard-restarted",
                                shard=self.shard_index)
            for name in self.nodes:
                self.failures.force_recover(name)

        self.sim.schedule_at(restart_at, _recover,
                             label=f"restart-shard:{self.shard_index}",
                             priority=-10)

    def apply_ledger_catchup(self, backlog: list[tuple]) -> int:
        """Apply banked mirror writes to this shard's ledger replica."""
        for work_id, holder in backlog:
            self.ft.apply_mirror(work_id, holder)
        if backlog:
            self.metrics.incr("ft.ledger.catch_up_applied", len(backlog))
        return len(backlog)

    def deliver_package(self, tx: "Transaction", package: "AgentPackage",
                        dest_name: str) -> None:
        if dest_name in self.nodes:
            super().deliver_package(tx, package, dest_name)
            return
        dest_shard = self._sharded.shard_of(dest_name)  # raises if unknown
        bridge = self._sharded.bridge
        self.metrics.incr("bridge.forwards")
        tx.register_commit(
            lambda: bridge.forward(dest_shard, dest_name, package,
                                   self.sim.now))


class ShardCoordinator(LockstepWorld):
    """What the in-process and the process-backed sharded drivers share.

    Node placement, whole-shard outages, the bridge flush at each
    barrier, the journal config record, the serialization stats and the
    ledger inspection.  A driver supplies
    ``_BACKEND``, ``_place`` (create a node in a shard), ``_shard_now``
    and ``_schedule_kill`` (one shard's clock and kill event),
    ``shard_suspended``, ``_flush`` (route the pending bridge traffic),
    and ``_replica_claims``, plus the hooks
    of :class:`~repro.node.lockstep.LockstepWorld`.
    """

    #: The ``backend`` a journal config record names this driver by.
    _BACKEND: str

    def _init_coordinator(self, n_shards: int, seed: int,
                          epoch: Optional[float],
                          journal: Optional["WorldJournal"],
                          world_kwargs: dict[str, Any]) -> None:
        """Validate the shared knobs, set the shared state and write the
        journal's config record."""
        if n_shards < 1:
            raise UsageError(f"need at least 1 shard, got {n_shards}")
        unknown = sorted(set(world_kwargs) - _WORLD_KWARGS)
        if unknown:
            raise UsageError(f"unknown world keyword {unknown[0]!r} "
                             f"(a shard kernel takes "
                             f"{', '.join(sorted(_WORLD_KWARGS))})")
        if epoch is None:
            epoch = world_kwargs.get("net_params", DEFAULT_NETWORK).latency
        if epoch <= 0:
            raise UsageError(f"epoch must be positive, got {epoch}")
        self.n_shards = n_shards
        self.seed = seed
        self.epoch = epoch
        #: The coordinator's own ids and counters; the in-process
        #: shards share it (namespace 0).
        self.scope = Scope()
        self.journal = journal
        self._world_kwargs = dict(world_kwargs)
        self.bridge = CrossShardBridge(n_shards)
        #: Virtual time of the most recent bridge flush — the takeover
        #: watchdog's mirror-settlement guard reads it.
        self.last_flush_at = float("-inf")
        #: Per-agent records: every shard's view of an agent merges here.
        self.agents: dict[str, AgentRecord] = {}
        self._node_shard: dict[str, int] = {}
        self._outages: list[_ShardOutage] = []
        #: What every mid-epoch foreign read answers from; retaken at
        #: each barrier by ``_advance``.
        self.view = BarrierView.initial(n_shards)
        self._record_journal_config()

    # -- topology -------------------------------------------------------------------

    @scoped
    def add_node(self, name: str, shard: Optional[int] = None) -> Any:
        """Create node ``name`` in ``shard`` (round-robin by default)."""
        if name in self._node_shard:
            raise UsageError(f"node {name!r} already exists")
        if shard is None:
            shard = len(self._node_shard) % self.n_shards
        if not 0 <= shard < self.n_shards:
            raise UsageError(f"no shard {shard} (have {self.n_shards})")
        self._journal_op("add_node", name=name, shard=shard)
        node = self._place(name, shard)
        self._node_shard[name] = shard
        return node

    def shard_of(self, name: str) -> int:
        """Index of the shard hosting node ``name``."""
        shard = self._node_shard.get(name)
        if shard is None:
            raise UsageError(f"no node {name!r}")
        return shard

    # -- whole-shard failure injection ------------------------------------------------

    @scoped
    def kill_shard(self, shard: int, at: float,
                   restart_at: Optional[float] = None) -> None:
        """Schedule a whole-kernel outage of ``shard`` at time ``at``.

        At the kill instant every node hosted by the shard crashes
        (in-flight transactions abort with full undo) and the shard's
        kernel suspends — it stops advancing, so nothing in it runs
        while the surviving shards promote cross-shard shadows.  With
        ``restart_at`` the kernel resumes at that time: its nodes
        recover, the ledger replica catches up from the bridge's mirror
        backlog, and the recovery rescan re-dispatches the durable
        queues (stale primaries then discard themselves against the
        replicated ledger).  Without it the shard stays dead for the
        rest of the run.
        """
        if not 0 <= shard < self.n_shards:
            raise UsageError(f"no shard {shard} (have {self.n_shards})")
        now = self._shard_now(shard)
        if at < now:
            raise UsageError(f"cannot kill shard {shard} in the past "
                             f"(at={at}, now={now})")
        if restart_at is not None and restart_at <= at:
            raise UsageError(f"restart_at ({restart_at}) must be after "
                             f"the kill time ({at})")
        self._journal_op("kill_shard", shard=shard, at=at,
                         restart_at=restart_at)
        self._outages.append(_ShardOutage(shard=shard, at=at,
                                          restart_at=restart_at))
        self._schedule_kill(shard, at)

    def shard_alive(self, shard: int) -> bool:
        """False while ``shard``'s kernel is suspended by an outage."""
        return not self.shard_suspended(shard)

    # -- the lockstep walk's sharded hooks --------------------------------------------

    def _epoch_length(self) -> float:
        return self.epoch

    def _due_restarts(self) -> list[_ShardOutage]:
        """Outages with a pending restart of an already-dead kernel."""
        return [o for o in self._outages
                if o.restart_at is not None and not o.revived
                and self.shard_suspended(o.shard)]

    def _route(self, barrier: float) -> None:
        self._flush(barrier)
        self.last_flush_at = barrier

    def _idle_step(self, max_events: int) -> bool:
        if not self.bridge.pending():
            return False
        # Retained shadow retries and forwards committed on the last
        # epoch's final event must still resolve.
        self._route(self.now)
        return True

    def _journal_config(self) -> dict[str, Any]:
        from repro.storage.serialization import capture
        return dict(backend=self._BACKEND, seed=self.seed,
                    n_shards=self.n_shards, epoch=self.epoch,
                    world_kwargs=capture(self._world_kwargs))

    def serialization_stats(self) -> dict[str, Any]:
        """Serialization counters summed over every shard.

        ``spec.epochs_speculated`` / ``spec.epochs_rolled_back`` (0) and
        ``spec.conflict_rate`` (0.0) are retired keys: the speculative
        epoch schedule they counted is gone, and they are kept so
        per-layer readers find every key.
        """
        merged = super().serialization_stats()
        merged["spec.epochs_speculated"] = 0
        merged["spec.epochs_rolled_back"] = 0
        merged["spec.conflict_rate"] = 0.0
        return dict(sorted(merged.items()))

    # -- ledger inspection (tests / benches) -------------------------------------------------

    def _replica_claims(self, shard: int) -> dict[int, str]:
        """``shard``'s ledger replica: work_id -> holder."""
        raise NotImplementedError

    def ledger_claims(self) -> dict[int, dict[int, str]]:
        """Every replica's view of every claim: work_id -> shard -> holder."""
        claims: dict[int, dict[int, str]] = {}
        for shard in range(self.n_shards):
            for work_id, holder in self._replica_claims(shard).items():
                claims.setdefault(work_id, {})[shard] = holder
        return claims

    def ledger_quorum_agrees(self) -> bool:
        """Do the live replicas agree on every claim, with a majority?

        The post-run invariant of the bridged ledger: each claimed
        ``work_id`` has exactly one holder across the live replicas,
        and a majority of them hold it (dead replicas may be behind —
        they catch up at restart).
        """
        alive = {shard for shard in range(self.n_shards)
                 if not self.shard_suspended(shard)}
        if not alive:
            return True
        need = len(alive) // 2 + 1
        for replicas in self.ledger_claims().values():
            holders = [holder for shard, holder in replicas.items()
                       if shard in alive]
            if not holders:
                continue  # only dead replicas hold it — unresolvable now
            if len(set(holders)) != 1 or len(holders) < need:
                return False
        return True


class ShardedWorld(ShardCoordinator):
    """A simulated mobile-agent system partitioned across N kernels.

    ``add_node`` aside, the facade (``launch`` / ``run`` /
    ``set_alternates`` / ``agents`` ...) is the one
    :class:`~repro.node.runtime.World` has too, so workloads swap one
    for the other.
    ``n_shards=1`` runs the same code path with the bridge idle — the
    reference configuration the determinism tests compare against.

    Args:
        n_shards: Number of shard kernels the nodes partition across.
        seed: Root seed; shard ``i`` runs at ``seed + 100_003 * i``.
            Equal seeds give bit-identical runs on every backend.
        epoch: Virtual-time length of one lockstep epoch (defaults to
            the network latency — cross-shard traffic can never skip
            a barrier it should have been routed at).
        journal: Attach a :class:`~repro.journal.WorldJournal` for
            crash-resumable execution.
        **world_kwargs: Forwarded to every shard's
            :class:`~repro.node.runtime.World` (``net_params``,
            ``ft_params``, ``timing``, ...).

    Raises:
        UsageError: ``n_shards < 1``, a non-positive ``epoch`` or a
            ``world_kwargs`` name the kernel does not take.
    """

    _BACKEND = "sharded"

    def __init__(self, n_shards: int = 2, seed: int = 0,
                 epoch: Optional[float] = None,
                 journal: Optional["WorldJournal"] = None,
                 **world_kwargs: Any):
        self._init_coordinator(n_shards, seed, epoch, journal, world_kwargs)
        #: Step-alternate policy shared by every shard's FT driver: the
        #: shipping shard must know the alternates of destinations it
        #: does not host.
        self.ft_alternates: dict[str, tuple[str, ...]] = {}
        self.shards: list[ShardWorld] = []
        for index in range(n_shards):
            world = ShardWorld(shard_index=index, sharded=self,
                               seed=seed + 100_003 * index,
                               **world_kwargs)
            # One record table for every shard: an agent may migrate
            # to any shard, and whichever shard executes its steps
            # updates the same record.
            world.agents = self.agents
            self.shards.append(world)

    # -- the coordinator hooks ------------------------------------------------------

    def _kernels(self) -> list[ShardWorld]:
        return self.shards

    def _place(self, name: str, shard: int) -> "Node":
        return self.shards[shard].add_node(name)

    def _shard_now(self, shard: int) -> float:
        return self.shards[shard].sim.now

    def _schedule_kill(self, shard: int, at: float) -> None:
        self.shards[shard].schedule_kill(at)

    def _advance(self, barrier: float, revivals: list[_ShardOutage],
                 max_events: int) -> None:
        shards = self.shards
        for outage in revivals:
            shards[outage.shard].schedule_revival(
                outage.restart_at, self.bridge.take_backlog(outage.shard))
        self.view = self.view.retaken(
            tuple([world.sim.suspended for world in shards]),
            tuple([world.failures.down_nodes() for world in shards]))
        super()._advance(barrier, revivals, max_events)

    def _flush(self, barrier: float) -> None:
        self.bridge.flush(self.shards, barrier)

    def _set_alternates(self, node: str, alternates: tuple[str, ...]) -> None:
        self.ft_alternates[node] = alternates

    def _apply_crash_plans(self, plans: list) -> None:
        for plan in plans:
            self.world_of(plan.node).failures.apply_plan([plan])

    # -- topology -------------------------------------------------------------------

    def world_of(self, name: str) -> ShardWorld:
        """The shard world hosting node ``name``."""
        return self.shards[self.shard_of(name)]

    _owner_of = world_of

    def node(self, name: str) -> "Node":
        return self.world_of(name).node(name)

    def shard_suspended(self, shard: int) -> bool:
        """True while ``shard``'s kernel is halted by an outage."""
        return self.shards[shard].sim.suspended

    # -- cross-shard state seams (the worker-mode boundary) ---------------------------
    #
    # Everything a ShardWorld or its BridgedFaultTolerance reads from
    # *another* shard mid-epoch comes from here: placement, ``view``
    # (the barrier view: foreign liveness and suspension, the same
    # object on both backends), and the ledger replicas' claim locks
    # and claims.  The in-process claim reads go to the live sibling
    # worlds; the multiprocess driver gives each worker a
    # :class:`~repro.node.procshard.RemoteShardContext` that serves
    # them from per-turn views, which the serial-turn schedule keeps
    # byte-identical to the live reads.

    def placement_of(self, name: str) -> Optional[int]:
        """Shard index hosting node ``name`` (None when unknown)."""
        return self._node_shard.get(name)

    def claim_lock(self, tx: "Transaction", shard: int,
                   work_id: int) -> None:
        """Acquire the claim-key lock on ``shard``'s ledger replica."""
        self.shards[shard].ft.ledger_locks.acquire(("claim", work_id), tx)

    def read_claim(self, shard: int, work_id: int) -> Optional[str]:
        """Read ``shard``'s ledger replica's view of one claim."""
        return self.shards[shard].ft.ledger.get(("claim", work_id))

    # -- results ----------------------------------------------------------------------------

    def shard_metrics(self, shard: int) -> Any:
        """One shard's :class:`~repro.sim.metrics.Metrics` (live)."""
        return self.shards[shard].metrics

    def _replica_claims(self, shard: int) -> dict[int, str]:
        return self.shards[shard].ft.claims()
