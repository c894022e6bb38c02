"""True multiprocess shards: shard 0 in the coordinator, one worker each
for the rest.

:class:`~repro.node.sharded.ShardedWorld` partitions a world across N
kernels but runs them all in one Python process — N-way logical
concurrency, one core.  :class:`ProcShardedWorld` keeps the exact same
lockstep epoch protocol and runs N shards on N−1
:mod:`multiprocessing` worker processes plus the coordinator process
itself, so epochs of independent shards execute on real cores in
parallel.
``ProcShardedWorld(n_shards=1)`` spawns no worker at all.

Architecture
------------

Shards 1..N−1 each run in a worker process behind a pipe.  Shard 0
runs inside the coordinator, through the very command server a worker
runs (:class:`_WorkerServer`, reached via :class:`_LocalHandle`): its
commands and replies still travel as pickles, except the package bytes
of its bridge traffic, which pass by reference, so only immutable
``bytes`` are shared between coordinator and shard state, and it
executes under its own
:class:`~repro.scope.Scope`, so its id sequences and serialization
counters are exactly a worker's and never mix with the coordinator's
(or with another world living in the same process).  The coordinator
walks the very barrier loop the in-process driver walks
(:class:`~repro.node.lockstep.LockstepWorld`), but its hooks turn each
"advance shard i to the barrier" into a command to that shard's
server and each barrier flush into an explicit exchange:

* **collect** — every worker's epoch reply carries its bridge outbox
  (agent packages, shadow copies, ledger mirrors — the same
  :class:`~repro.node.sharded._Transfer` objects, pickle-framed and
  closure-free) plus its agent-record deltas.  Every package crosses
  a link as a wire copy (:mod:`repro.node.wire`): a log frame the
  link's mirrored frame table already holds ships as its key, so each
  frame crosses a pipe once;
* **route** — the coordinator's own
  :class:`~repro.node.sharded.CrossShardBridge` re-registers the
  outboxes in shard order (reproducing the in-process global sequence
  numbers) and routes them deterministically, retaining shadow retries
  and banking ledger mirrors for suspended shards exactly as the
  in-process flush does;
* **scatter** — each shard's ordered inbox ships with its next epoch
  command; the worker applies it through the *same*
  :func:`~repro.node.sharded.apply_transfer` /
  :func:`~repro.node.sharded.apply_give_up` functions the in-process
  flush uses, with its clock at the same instant, so the scheduled
  event sequence is identical.

The shared agent-record table becomes an explicit merge point: each
worker ships per-epoch record deltas, the coordinator merges them (in
shard order, updating record objects in place so references returned
by :meth:`launch` stay live) and re-broadcasts changed records to the
other workers with their next command.

A running shard with nothing to do at a barrier — nothing staged, no
revival, and no event due by the barrier — gets no turn at all:
in-process its kernel would only move its clock.  The coordinator
moves its copy of that clock instead, and the shard's next
state-bearing command carries the barrier as a ``catch_up`` it runs to
before anything else, so a launch between barriers sees the barrier
clock.  Records re-broadcast to such a shard wait the same way: they
ride its next ``epoch`` or ``launch`` command, which merges them
before any event runs (only an executing event reads a record).  A
launch also carries the owner's inbox routed at the last barrier and
applies it first, exactly as the in-process flush already scheduled
it.

Entangled workloads and the serial turn schedule
------------------------------------------------

Fault-tolerant runs read *live* foreign state mid-epoch: quorum claim
locks and reads against every shard's ledger replica.  Nothing else
does.  Foreign-node liveness and shard suspension are not live reads:
on both backends they come from the barrier view,
:class:`~repro.node.sharded.BarrierView`, taken at the barrier before
any shard runs; it rides each epoch command that finds the shard
holding an older one, and a shard's down-node set reaches the
coordinator in its reply state whenever it moved.  Step alternates
matter only to fault-tolerant shadows and diversion.  Running
fault-tolerant epochs in parallel would make the claim reads race —
and with them the promotion-vs-primary claim arbitration, which must
be deterministic (the winner decides *where* effects land).  The
driver therefore picks a schedule per run:

* **parallel epochs** — until the run's first fault-tolerant launch,
  crash plans, shard outages and alternates included: no mid-epoch
  foreign reads exist, every worker advances concurrently, and the
  run is byte-identical to the in-process one.
* **serial turns** — from the first fault-tolerant launch on, when the
  workload is *entangled*: within each epoch the workers take turns in
  shard order, exactly like the in-process driver.  Each turn ships
  barrier-fresh views of every foreign replica's claims and open claim
  locks (served locally by :class:`RemoteShardContext`), and returns
  the worker's own dumps.
  Both directions travel as deltas: a dump ships only the worker's
  parts that moved since its last dump, and a view only the foreign
  parts that moved since the worker's last turn (the first dispatch
  ships it whole).  Claims go finer still: a dump ships its replica's
  ``(added_or_changed, removed)`` claims against what it last
  published (re-read only when the ledger's mutation ``version``
  moved), the coordinator folds it into its copy and queues the moved
  work ids for every other shard, and each view ships the claims
  queued for its shard since that shard's last turn.
  Because only one kernel executes at a time and views refresh between
  turns, every foreign read returns exactly what the in-process live
  read would — the two backends walk the same event sequence.

The schedule is not a knob.  The rule, stated once: a run takes serial
turns from its first fault-tolerant launch (:meth:`ProcShardedWorld.
_ship_launch`) for good, and never for any other reason.

Process-picklability contract
-----------------------------

Workers start with the ``spawn`` method, so everything that crosses
the pipe must pickle: agents and resources by importable class
reference, bridge traffic as data (no closures — give-up context
travels as declarative tags), compensations registered at *import
time* of an importable module (the registry is rebuilt per process
from imports).  Violations
surface at ship time through
:func:`~repro.storage.serialization.assert_picklable`, which names the
offending attribute instead of burying it in a worker traceback.
Shard 0 shares the coordinator's registry, so a compensation
registered after import resolves there but not on the workers: the
spawn picklability audit, not a shard-0 run, is the contract check.

A worker process that dies outright (crash, OOM kill, SIGKILL) is
surfaced as :class:`~repro.errors.WorkerDied` — an explicit permanent
shard outage — rather than a hang on a pipe that will never answer.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import operator
import traceback
import warnings
from typing import Any, Optional

from repro.errors import LockConflict, UsageError, WorkerDied, WorkerError
from repro.node.lockstep import aggregate_counters
from repro.node.sharded import (
    BarrierView,
    CrossShardBridge,
    ShardCoordinator,
    ShardWorld,
    _ShardOutage,
    apply_give_up,
    apply_transfer,
)
from repro.node.wire import ByReference, FrameTable
from repro.scope import Scope, entered
from repro.scope import current as current_scope
from repro.storage.serialization import assert_picklable, capture, restore
from repro.tx.locks import LockManager


def _teardown_step(what: str, fn, *exc_types: type) -> bool:
    """Run one best-effort teardown action, surfacing (not hiding) failure.

    Teardown must keep going — a failed shutdown send must not stop
    the other workers from being joined — but it must not *hide*
    failures either: a stuck worker is undiagnosable if the error
    vanished into ``except Exception: pass``.  Each suppressed failure
    therefore bumps ``teardown.suppressed`` in the caller's scope (see
    :mod:`repro.scope`) and emits a :class:`ResourceWarning` naming the
    step.  Only the expected ``exc_types`` are caught; anything else
    propagates.

    Returns ``True`` when ``fn`` completed without raising.
    """
    try:
        fn()
    except exc_types as exc:
        current_scope().stats["teardown.suppressed"] += 1
        warnings.warn(
            f"suppressed teardown failure in {what}: "
            f"{type(exc).__name__}: {exc}",
            ResourceWarning, stacklevel=2)
        return False
    return True

#: Fields of an AgentRecord that change while an agent runs; a cheap
#: fingerprint over them decides whether a record delta must ship
#: (result/final_agent only ever change together with status).
_RECORD_FIELDS = ("status", "steps_committed", "step_attempts",
                  "rollbacks_initiated", "rollbacks_completed",
                  "compensation_txs", "agent_transfers", "transfer_bytes",
                  "finished_at", "failure")

_record_fingerprint = operator.attrgetter(*_RECORD_FIELDS)


def _record_progress(record: Any) -> tuple:
    """Monotonic progress key for merging divergent record copies.

    Every mutation of an agent record increments a counter or flips the
    status once, so the *true* latest copy dominates any stale copy
    (left behind on a worker the agent migrated away from) in every
    component; comparing lexicographically — outcome fields first —
    therefore always keeps the real state and deterministically breaks
    the only remaining ties (aux-counter writes by stale FT dispatches,
    which in-process interleave on the shared record object).
    """
    from repro.node.runtime import AgentStatus
    return (record.status is not AgentStatus.RUNNING,
            record.steps_committed, record.rollbacks_completed,
            record.compensation_txs, record.rollbacks_initiated,
            record.step_attempts, record.agent_transfers,
            record.transfer_bytes)


def _merge_record(agents: dict[str, Any], incoming: Any) -> Optional[Any]:
    """Merge a shipped record copy into ``agents`` and return the live
    record, or None when the copy is stale (left on a shard the agent
    migrated off).  Updates in place: closures and callers hold it."""
    existing = agents.get(incoming.agent_id)
    if existing is None:
        agents[incoming.agent_id] = incoming
        return incoming
    if _record_progress(incoming) < _record_progress(existing):
        return None
    if incoming.final_agent is None:
        # Broadcast copies travel with final_agent stripped (see
        # ProcShardedWorld._merge_record_blob); a captured agent
        # already here must survive the merge.
        incoming.final_agent = existing.final_agent
    existing.__dict__.update(incoming.__dict__)
    return existing


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class RemoteShardContext:
    """A worker process's stand-in for the :class:`ShardedWorld` owner.

    Implements the narrow cross-shard surface a
    :class:`~repro.node.sharded.ShardWorld` and its
    :class:`~repro.exactly_once.fault_tolerant.BridgedFaultTolerance`
    read from other shards — placement, the barrier view, replica claim
    locks/reads, the bridge, the last flush time — from
    coordinator-supplied state instead of live sibling worlds.  The
    barrier view (foreign liveness and suspension) is the very
    :class:`~repro.node.sharded.BarrierView` the coordinator took at the
    barrier, riding the epoch command whenever it changed.  The claim
    and lock views are refreshed between serial turns, so each claim
    answer equals the live read the in-process driver would have
    performed at the same point of the epoch.
    """

    def __init__(self, shard_index: int, n_shards: int, scope: Scope):
        self.shard_index = shard_index
        self.n_shards = n_shards
        #: The shard server's scope, which its kernel shares.
        self.scope = scope
        self.world: Optional[ShardWorld] = None
        self._node_shard: dict[str, int] = {}
        self.ft_alternates: dict[str, tuple[str, ...]] = {}
        #: Outbox-only bridge: accumulates this shard's forwards for the
        #: coordinator to collect; never routes anything itself.
        self.bridge = CrossShardBridge(n_shards)
        self.last_flush_at = float("-inf")
        self.view = BarrierView.initial(n_shards)
        self._claims_view: dict[int, dict] = {}
        self._locks_view: dict[int, dict] = {}
        #: Local mirrors of the foreign replicas' lock managers: they
        #: hold only *this* worker's open claim locks (published to the
        #: other workers via the turn dumps); foreign holds arrive
        #: through ``_locks_view``.
        self._lock_mirrors = {
            shard: LockManager(f"ledger-mirror:{shard}")
            for shard in range(n_shards) if shard != shard_index}

    def _journal_op(self, op: str, **data: Any) -> None:
        """Nothing to journal: ops reach a shard server already
        journaled by its coordinator."""

    # -- topology ---------------------------------------------------------------

    def placement_of(self, name: str) -> Optional[int]:
        return self._node_shard.get(name)

    def shard_of(self, name: str) -> int:
        shard = self._node_shard.get(name)
        if shard is None:
            raise UsageError(f"no node {name!r}")
        return shard

    # -- foreign state views ------------------------------------------------------

    def update_views(self, views: dict[str, Any]) -> None:
        """Install coordinator views: replace on a full view, merge a
        ``"delta"`` (which carries only the parts that moved; claims as
        ``(added_or_changed, removed)`` per replica)."""
        if views.get("delta"):
            for shard, (changed, removed) in views["claims"].items():
                replica = self._claims_view[shard]
                for work_id in removed:
                    replica.pop(work_id, None)
                replica.update(changed)
            self._locks_view.update(views["locks"])
        else:
            self._claims_view = dict(views["claims"])
            self._locks_view = dict(views["locks"])

    def views(self) -> dict[str, Any]:
        """The merged foreign views this context currently serves."""
        return {"claims": self._claims_view, "locks": self._locks_view}

    # -- replica quorum surface ----------------------------------------------------

    def claim_lock(self, tx, shard: int, work_id: int) -> None:
        key = ("claim", work_id)
        foreign = self._locks_view.get(shard, {}).get(work_id)
        if foreign is not None:
            # Held by another worker's open transaction: collide exactly
            # like the in-process cross-replica acquisition would.
            raise LockConflict(key, foreign[1])
        if shard == self.shard_index:
            self.world.ft.ledger_locks.acquire(key, tx)
        else:
            self._lock_mirrors[shard].acquire(key, tx)

    def read_claim(self, shard: int, work_id: int) -> Optional[str]:
        if shard == self.shard_index:
            return self.world.ft.ledger.get(("claim", work_id))
        return self._claims_view.get(shard, {}).get(work_id)

    # -- turn dumps (published to the coordinator) ----------------------------------

    def lock_contributions(self) -> dict[int, dict[int, int]]:
        """This worker's open claim locks, per replica: {wid: txid}."""
        out: dict[int, dict[int, int]] = {}
        own = {item[1]: tx.txid
               for item, tx in self.world.ft.ledger_locks.held_items()}
        out[self.shard_index] = own
        for shard, mirror in self._lock_mirrors.items():
            out[shard] = {item[1]: tx.txid
                          for item, tx in mirror.held_items()}
        return out


#: Commands that change a shard's state: an idle turn's skipped
#: ``catch_up`` rides the next one (``fetch`` is a pure read,
#: ``shutdown`` ends the process).
_STATE_OPS = frozenset((
    "epoch", "add_node", "add_resource", "share_resource",
    "set_alternates", "launch", "crash_plans", "kill", "enable_digest"))


def _build_shard(config: dict[str, Any]
                 ) -> "tuple[Scope, RemoteShardContext, ShardWorld]":
    """Build one shard's scope, context and kernel.

    The kernel is built under a fresh :class:`~repro.scope.Scope` whose
    id sequences start in the shard's namespace: work ids arbitrate
    exactly-once globally, auto savepoint names must stay unique within
    a migrating agent's log, and offset item ids keep debug output
    unambiguous.
    """
    shard = config["shard_index"]
    scope = Scope(shard)
    with entered(scope):
        ctx = RemoteShardContext(shard, config["n_shards"], scope)
        world = ShardWorld(shard_index=shard, sharded=ctx,
                           seed=config["seed"] + 100_003 * shard,
                           **config["world_kwargs"])
    ctx.world = world
    return scope, ctx, world


class _WorkerServer:
    """The command server of one shard: its scope, context and kernel.

    A worker process runs it behind its pipe (:meth:`serve`); the
    coordinator runs shard 0's through a :class:`_LocalHandle`.  Either
    way every command arrives and leaves as a pickle and executes under
    the shard's own scope (:meth:`serve_one`); the packages riding its
    bridge traffic go through the link's end (:mod:`repro.node.wire`):
    a frame table mirrored across the pipe, or by reference in-process.
    """

    def __init__(self, config: dict[str, Any], conn=None):
        self.conn = conn
        self.link = FrameTable() if conn is not None else ByReference()
        self.stopped = False
        self.scope, self.ctx, self.world = _build_shard(config)
        self._record_prints: dict[str, tuple] = {}
        #: Kernel event count at the last full record scan; None once
        #: an inbox item or revival may have touched a record since.
        self._scanned_at: Optional[int] = None
        #: What the turn dumps last published, so a dump ships only
        #: what moved: the claims themselves (and the ledger version
        #: they were read at) and the lock contributions.
        self._published: dict[str, Any] = {"claims": {}}
        #: The down-node set the last reply's state carried.
        self._published_down = self.world.failures.down_nodes()

    # -- record delta tracking ------------------------------------------------------

    def _merge_records(self, blobs) -> None:
        for blob in blobs:
            record = _merge_record(self.world.agents, restore(blob))
            if record is not None:
                self._record_prints[record.agent_id] = \
                    _record_fingerprint(record)

    def _record_deltas(self) -> dict[str, bytes]:
        deltas: dict[str, bytes] = {}
        for agent_id, record in self.world.agents.items():
            print_ = _record_fingerprint(record)
            if self._record_prints.get(agent_id) != print_:
                self._record_prints[agent_id] = print_
                deltas[agent_id] = capture(record)
        self._scanned_at = self.world.sim.events_processed
        return deltas

    def _dump(self) -> dict[str, Any]:
        """This turn's dump: the open claim locks when they moved since
        the last published dump, and the claims as a
        ``(added_or_changed, removed)`` delta against the last published
        claims (re-read only when the ledger's ``version`` moved)."""
        published = self._published
        dump: dict[str, Any] = {}
        version = self.world.ft.ledger.version
        if published.get("claims_version") != version:
            published["claims_version"] = version
            claims, before = self.world.ft.claims(), published["claims"]
            changed = {work_id: holder for work_id, holder in claims.items()
                       if before.get(work_id) != holder}
            removed = [work_id for work_id in before if work_id not in claims]
            if changed or removed:
                dump["claims"] = (changed, removed)
                published["claims"] = claims
        locks = self.ctx.lock_contributions()
        if published.get("locks") != locks:
            dump["locks"] = published["locks"] = locks
        return dump

    # -- command handlers -----------------------------------------------------------

    def _state(self) -> dict[str, Any]:
        """The kernel state every reply carries; the down-node set only
        when it moved (only an epoch runs the events that move it)."""
        sim = self.world.sim
        state = {
            "peek": sim.peek_time(),
            "now": sim.now,
            "suspended": sim.suspended,
            "events": sim.events_processed,
        }
        down = self.world.failures.down_nodes()
        if down != self._published_down:
            state["down"] = self._published_down = down
        return state

    def handle(self, op: str, payload: dict[str, Any]) -> dict[str, Any]:
        catch_up = payload.get("catch_up")
        if catch_up is not None:
            # The coordinator skipped this shard's idle turns (nothing
            # was due); bring its clock to the last skipped barrier
            # before anything else, as those turns would have.
            self.world.sim.run_epoch(catch_up)
        world, ctx = self.world, self.ctx
        if op == "epoch":
            return self._handle_epoch(payload)
        if op == "add_node":
            ctx._node_shard[payload["name"]] = payload["shard"]
            if payload["shard"] == ctx.shard_index:
                world.add_node(payload["name"])
            return {}
        if op == "add_resource":
            world.node(payload["node"]).add_resource(payload["resource"])
            return {}
        if op == "share_resource":
            resource = world.node(payload["from_node"]).get_resource(
                payload["resource"])
            world.node(payload["node"]).share_resource(resource)
            return {}
        if op == "set_alternates":
            ctx.ft_alternates[payload["node"]] = tuple(payload["alternates"])
            return {}
        if op == "launch":
            # The inbox routed at the last barrier first: the in-process
            # flush scheduled it before any launch between barriers.
            self._apply_inbox(payload["records"], payload["items"])
            # One bundle pickle: preserves object sharing between the
            # agent's own state and the launch arguments (e.g. the
            # start-node string also being plan[0]), so the package the
            # worker packs is byte-identical to an in-process launch.
            record = world._ship_launch(world, payload["bundle"], {})
            self._record_prints[record.agent_id] = \
                _record_fingerprint(record)
            return {"record": capture(record)}
        if op == "crash_plans":
            world.failures.apply_plan(payload["plans"])
            return {}
        if op == "kill":
            world.schedule_kill(payload["at"])
            return {}
        if op == "enable_digest":
            world.sim.enable_trace_digest()
            return {}
        if op == "fetch":
            return {"value": self._fetch(payload)}
        if op == "shutdown":
            self.stopped = True
            return {}
        raise UsageError(f"unknown worker command {op!r}")

    def _apply_inbox(self, records: dict[str, bytes], items: list) -> None:
        """Merge broadcast records, then apply routed bridge items."""
        world = self.world
        self._merge_records(records.values())
        if items:
            self._scanned_at = None
        for action, transfer in items:
            if action == "give-up":
                apply_give_up(world, transfer)
                continue
            if transfer.record_blob is not None:
                # The agent's record travelled with it; merge before
                # delivery so the dispatch sees current state exactly
                # like the in-process shared record table would.
                self._merge_records((transfer.record_blob,))
            apply_transfer(world, transfer)

    def _handle_epoch(self, payload: dict[str, Any]) -> dict[str, Any]:
        world, ctx = self.world, self.ctx
        view = payload.get("view")
        if view is not None:
            ctx.view = view
        if payload["views"] is not None:
            ctx.update_views(payload["views"])
        ctx.last_flush_at = payload["last_flush_at"]
        # Inbox first, revival second: the in-process driver flushes the
        # bridge (scheduling deliveries, even into a frozen kernel) at
        # the end of one loop iteration and revives at the start of the
        # next, so the event sequence numbers must follow that order.
        self._apply_inbox(payload["records"], payload["items"])
        if payload["revive"] is not None:
            self._scanned_at = None
            restart_at, backlog = payload["revive"]
            world.schedule_revival(restart_at, backlog)
        if payload["run"] and not world.sim.suspended:
            world.sim.run_epoch(payload["barrier"],
                                max_events=payload["max_events"])
        outbox = ctx.bridge.drain_pending()
        reply: dict[str, Any] = {"outbox": outbox}
        if payload["ship_records"]:
            # Serial (entangled) turns mirror the in-process shared
            # record table exactly: every touched record ships each
            # turn.  A quiet turn (no event, item or revival since the
            # last scan) cannot have touched one: skip the scan.
            quiet = self._scanned_at == world.sim.events_processed
            reply["record_deltas"] = {} if quiet else self._record_deltas()
        else:
            # Independent epochs: records only matter where their agent
            # goes, so they ride the transfers instead of a broadcast.
            for transfer in outbox:
                carried = transfer.package if transfer.package is not None \
                    else (transfer.message.payload
                          if transfer.message is not None else None)
                if carried is None:
                    continue
                record = world.agents.get(carried.agent_id)
                if record is not None:
                    transfer.record_blob = capture(record)
        if payload["want_dump"]:
            reply["dump"] = self._dump()
        return reply

    def _fetch(self, payload: dict[str, Any]) -> Any:
        world = self.world
        what = payload["what"]
        if what == "metrics":
            return world.metrics
        if what == "summary":
            return world.metrics.summary()
        if what == "ledger":
            return world.ft.claims()
        if what == "resource":
            return world.node(payload["node"]).get_resource(
                payload["resource"])
        if what == "queue_length":
            return len(world.node(payload["node"]).queue)
        if what == "ser_stats":
            return dict(self.scope.stats)
        if what == "record_deltas":
            return self._record_deltas()
        if what == "views":
            return self.ctx.views()
        if what == "trace_digest":
            return world.sim.trace_digest()
        raise UsageError(f"unknown fetch {what!r}")

    # -- serving --------------------------------------------------------------------

    def serve_one(self, wire: Any) -> Any:
        """Execute one encoded command under the shard's scope; return
        the encoded reply.

        A command that cannot be decoded, raises, or whose reply cannot
        be encoded gets an error reply instead (the coordinator raises
        it as :class:`~repro.errors.WorkerError`): the server lives on,
        and the link's tables stay in step.
        """
        link = self.link
        op = None
        with entered(self.scope):
            try:
                try:
                    op, payload = link.open(wire)
                    if payload.get("items"):
                        payload["items"] = link.in_items(payload["items"])
                except BaseException:
                    link.lose()
                    raise
                reply = self.handle(op, payload)
                reply["ok"] = True
                reply["state"] = self._state()
                if reply.get("outbox"):
                    reply["outbox"] = link.out_transfers(reply["outbox"])
                wire = link.seal(reply)
            except Exception as exc:  # noqa: BLE001 - shipped to coordinator
                wire = link.seal({"ok": False,
                                  "error": f"{type(exc).__name__}: {exc}",
                                  "traceback": traceback.format_exc()})
            if op == "epoch":
                self.scope.stats["ipc_bytes_copied"] += link.pickled_bytes(
                    wire)
        return wire

    def serve(self) -> None:
        """Run the pipe loop until shutdown or the parent is gone."""
        while not self.stopped:
            while not self.conn.poll(0.5):
                # Orphan defense: a SIGKILLed coordinator can't run the
                # daemon-reaping atexit hook, so poll the parent's
                # liveness and exit on our own.
                parent = multiprocessing.parent_process()
                if parent is None or not parent.is_alive():
                    return
            self.conn.send_bytes(self.serve_one(self.conn.recv_bytes()))


def _worker_entry(conn, config: dict[str, Any]) -> None:
    """Entry point of one shard worker process."""
    try:
        _WorkerServer(config, conn).serve()
    except (EOFError, KeyboardInterrupt):  # coordinator went away
        pass


# ---------------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------------


class _ShardHandle:
    """Coordinator-side end of one shard's command channel.

    :meth:`send` encodes a command, :meth:`recv` decodes its reply and
    mirrors the shard's clock state; subclasses move the encoded
    message.  A link carries one message at a time, which its frame
    table relies on (:mod:`repro.node.wire`): a second :meth:`send`
    before the reply is received is refused.
    """

    #: The worker process (None for the coordinator-hosted shard).
    process = None

    def __init__(self, shard: int, link: "FrameTable | ByReference"):
        self.shard = shard
        #: This end of the link (:mod:`repro.node.wire`).
        self.link = link
        #: The op whose reply has not been received yet.
        self.in_flight: Optional[str] = None
        self.peek: Optional[float] = None
        self.now: float = 0.0
        self.suspended = False
        self.events = 0
        #: The shard's down-node set, as of its last reply that moved it.
        self.down: frozenset = frozenset()
        #: The barrier view the shard holds.
        self.view: Optional[BarrierView] = None
        #: The last barrier of an idle turn the coordinator skipped;
        #: rides the shard's next state-bearing command.
        self.catch_up: Optional[float] = None

    def _transmit(self, wire: Any) -> None:
        raise NotImplementedError

    def _receive(self) -> Any:
        raise NotImplementedError

    def send(self, op: str, payload: dict[str, Any]) -> None:
        # ``shutdown`` ends the link, so it may follow a reply a failed
        # walk never collected.
        if self.in_flight is not None and op != "shutdown":
            raise RuntimeError(
                f"shard {self.shard}: {op!r} sent while the reply to "
                f"{self.in_flight!r} is in flight")
        catch_up = self.catch_up if op in _STATE_OPS else None
        if catch_up is not None:
            payload = dict(payload, catch_up=catch_up)
        link = self.link
        if payload.get("items"):
            payload = dict(payload, items=link.out_items(payload["items"]))
        wire = link.seal((op, payload))
        if catch_up is not None:
            self.catch_up = None
        if op == "epoch":
            current_scope().stats["ipc_bytes_copied"] += link.pickled_bytes(
                wire)
        self._transmit(wire)
        self.in_flight = op

    def recv(self) -> dict[str, Any]:
        try:
            wire = self._receive()
        finally:
            self.in_flight = None
        link = self.link
        try:
            reply = link.open(wire)
            if reply.get("outbox"):
                reply["outbox"] = link.in_transfers(reply["outbox"])
        except Exception as exc:
            link.lose()
            raise WorkerError(self.shard, f"undecodable reply: "
                              f"{type(exc).__name__}: {exc}") from exc
        if not reply.get("ok"):
            raise WorkerError(self.shard, reply.get("error", "unknown"),
                              reply.get("traceback", ""))
        state = reply["state"]
        self.peek = state["peek"]
        # Never backwards: a shard whose idle turns were skipped still
        # reports its old clock until its next state-bearing command.
        self.now = max(self.now, state["now"])
        self.suspended = state["suspended"]
        self.events = state["events"]
        self.down = state.get("down", self.down)
        return reply

    def request(self, op: str, payload: Optional[dict[str, Any]] = None
                ) -> dict[str, Any]:
        self.send(op, payload or {})
        return self.recv()

    def fetch(self, what: str, **args: Any) -> Any:
        """One read of the shard's state (a ``fetch`` command)."""
        return self.request("fetch", dict(args, what=what))["value"]


class _WorkerHandle(_ShardHandle):
    """The pipe and process of one shard worker."""

    def __init__(self, shard: int, process, conn):
        super().__init__(shard, FrameTable())
        self.process = process
        self.conn = conn

    def _died(self) -> WorkerDied:
        return WorkerDied(self.shard, self.process.exitcode)

    def _transmit(self, wire: bytes) -> None:
        try:
            self.conn.send_bytes(wire)
        except (BrokenPipeError, OSError):
            raise self._died() from None

    def _receive(self) -> bytes:
        while not self.conn.poll(0.1):
            if not self.process.is_alive():
                raise self._died()
        try:
            return self.conn.recv_bytes()
        except (EOFError, OSError):
            raise self._died() from None


class _LocalHandle(_ShardHandle):
    """The shard the coordinator process hosts itself (shard 0).

    Runs the same :class:`_WorkerServer` a worker process runs, and
    keeps the pickle round trip in both directions; only the package
    bytes riding bridge traffic (agent blobs and log frames) pass by
    reference, so only immutable ``bytes`` are ever shared between
    coordinator and shard state.  A command executes when its reply is
    collected, not when it is sent: a parallel cycle dispatches every
    worker first and then runs this shard while they work.
    """

    def __init__(self, shard: int, config: dict[str, Any]):
        super().__init__(shard, ByReference())
        self.server = _WorkerServer(config)
        self._queued: Any = None

    def _transmit(self, wire: Any) -> None:
        self._queued = wire

    def _receive(self) -> Any:
        wire, self._queued = self._queued, None
        return self.server.serve_one(wire)


class NodeProxy:
    """Coordinator-side handle for a node living in a worker process.

    Mirrors the slice of the :class:`~repro.node.node.Node` surface a
    workload needs before the run (resource installation) and after it
    (state inspection).  Reads return pickled *snapshots* fetched from
    the owning worker — mutating them does not reach the worker.
    """

    def __init__(self, world: "ProcShardedWorld", name: str, shard: int):
        self._world = world
        self.name = name
        self.shard = shard

    def add_resource(self, resource) -> None:
        hosted = self._world._resource_names.setdefault(self.name, set())
        if resource.name in hosted:  # refused before it is journaled
            raise UsageError(f"{self.name}: resource {resource.name!r} exists")
        assert_picklable(resource,
                         f"resource {resource.name!r} for node {self.name!r}")
        self._world._journal_op("add_resource", node=self.name,
                                blob=capture(resource))
        self._world._handles[self.shard].request(
            "add_resource", {"node": self.name, "resource": resource})
        hosted.add(resource.name)

    def share_resource_from(self, from_node: str, resource: str) -> None:
        """Replicate ``from_node``'s resource onto this node.

        Both nodes must live in the same shard: a resource object
        cannot be shared across process boundaries (in-process sharded
        worlds allow cross-shard sharing as a modelling convenience;
        worker mode makes the cost of that convenience explicit).
        """
        world = self._world
        if world.shard_of(from_node) != self.shard:
            raise UsageError(
                f"cannot share a resource across worker processes "
                f"({from_node!r} is not in shard {self.shard})")
        # Refused before it is journaled, as Node.share_resource does.
        if resource not in world._resource_names.get(from_node, ()):
            raise UsageError(f"{from_node}: no resource {resource!r}")
        hosted = world._resource_names.setdefault(self.name, set())
        if resource in hosted:
            raise UsageError(f"{self.name}: resource {resource!r} exists")
        world._journal_op("share_resource", node=self.name,
                          from_node=from_node, name=resource)
        world._handles[self.shard].request(
            "share_resource", {"node": self.name, "from_node": from_node,
                               "resource": resource})
        hosted.add(resource)

    def get_resource(self, name: str):
        """A pickled snapshot of the resource's current worker-side state.

        A name this node does not host is refused here, with the
        :class:`~repro.errors.UsageError` ``Node.get_resource`` raises,
        before any worker round trip.
        """
        if name not in self._world._resource_names.get(self.name, ()):
            raise UsageError(f"{self.name}: no resource {name!r}")
        return self._world._handles[self.shard].fetch(
            "resource", node=self.name, resource=name)

    def queue_length(self) -> int:
        return self._world._handles[self.shard].fetch(
            "queue_length", node=self.name)


class ProcShardedWorld(ShardCoordinator):
    """A sharded world whose kernels run in worker processes (and one in
    the coordinator).

    The facade mirrors :class:`~repro.node.sharded.ShardedWorld` where
    workloads and equivalence checks need it (``add_node`` / ``launch``
    / ``run`` / ``kill_shard`` / ``outcomes`` / ``counters`` /
    ``ledger_claims`` / ``resource_state`` ...), so the same seeded
    workload can be replayed on either backend and compared.

    Always close it (context manager, or :meth:`close`) — worker
    processes are daemonic but prompt teardown keeps test runs tidy.

    Args:
        n_shards: Number of shard kernels.  Shard 0 runs inside this
            process; each other shard gets a worker process
            (``n_shards=1`` spawns none).
        seed: Root seed; shard ``i`` runs at ``seed + 100_003 * i``.
        epoch: Virtual-time length of one lockstep epoch (defaults to
            the network latency).
        journal: Attach a :class:`~repro.journal.WorldJournal` for
            crash-resumable execution (the coordinator journals the
            ops and commits one marker per barrier).
        **world_kwargs: Forwarded to every worker's kernel
            (``net_params``, ``ft_params``, ``timing``, ...) — must
            pickle.

    Raises:
        UsageError: ``n_shards < 1``, a non-positive ``epoch``, a
            ``world_kwargs`` name the kernel does not take, or
            unpicklable ``world_kwargs``.
        WorkerDied: Later, from any call whose worker process died.
        WorkerError: Later, when a worker raises remotely (carries
            the remote traceback).
    """

    _BACKEND = "proc"

    def __init__(self, n_shards: int = 2, seed: int = 0,
                 epoch: Optional[float] = None,
                 journal: Optional[Any] = None,
                 **world_kwargs: Any):
        # First, so a facade whose construction failed closes cleanly.
        self._handles: list[_ShardHandle] = []
        assert_picklable(world_kwargs, "world configuration")
        self._init_coordinator(n_shards, seed, epoch, journal, world_kwargs)
        self._entangled = False
        #: Per node, the names of the resources its shard hosts, so a
        #: duplicate ``add_resource`` is refused before it is journaled.
        self._resource_names: dict[str, set[str]] = {}
        # Barrier-merged global state (see the module docstring).
        self._suspended = [False] * n_shards
        self._claims: list[dict] = [{} for _ in range(n_shards)]
        #: Per receiving shard, per foreign replica, the work ids whose
        #: claim moved since that shard's last view dispatch.
        self._claims_queued: list[dict[int, set]] = \
            [{} for _ in range(n_shards)]
        self._locks: list[dict[int, dict]] = [{} for _ in range(n_shards)]
        #: Per shard, the (full) views its worker holds; None until its
        #: first view dispatch.
        self._views_sent: list[Optional[dict]] = [None] * n_shards
        self._pending_records: list[dict[str, bytes]] = \
            [{} for _ in range(n_shards)]
        self._staged_items: list[list] = [[] for _ in range(n_shards)]

        mp = multiprocessing.get_context("spawn")
        config = {"n_shards": n_shards, "seed": seed,
                  "world_kwargs": world_kwargs}
        for index in range(1, n_shards):
            parent_conn, child_conn = mp.Pipe()
            process = mp.Process(target=_worker_entry,
                                 args=(child_conn,
                                       dict(config, shard_index=index)),
                                 name=f"repro-shard-{index}",
                                 daemon=True)
            process.start()
            child_conn.close()
            self._handles.append(_WorkerHandle(index, process, parent_conn))
        self._handles.insert(0, _LocalHandle(0, dict(config, shard_index=0)))
        for handle in self._handles:
            handle.view = self.view  # every shard starts with it

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Shut the worker processes down, then fsync the journal
        (idempotent).

        Teardown is best-effort — one dead worker must not stop the
        others from being shut down — but every suppressed failure is
        counted in ``teardown.suppressed`` of the caller's scope (not
        this world's, which is done once closed) and surfaced as a
        :class:`ResourceWarning` (see :func:`_teardown_step`), so a
        stuck pipe leaves a trail.
        """
        if self._closed:
            return
        self._closed = True
        workers = [h for h in self._handles if h.process is not None]
        for handle in workers:
            # A dead worker is the one expected failure of a shutdown
            # send.
            _teardown_step(f"shutdown send to shard {handle.shard}",
                           lambda h=handle: h.send("shutdown", {}),
                           WorkerDied)
        for handle in workers:
            handle.process.join(timeout=5)
            if handle.process.is_alive():
                _teardown_step(f"terminate of shard {handle.shard}",
                               handle.process.terminate, OSError)
            _teardown_step(f"pipe close of shard {handle.shard}",
                           handle.conn.close, OSError)
        # Last, so a journal that refuses its fsync strands no worker.
        super().close()

    def __enter__(self) -> "ProcShardedWorld":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort teardown
        # GC can collect a facade whose __init__ never ran (nothing to
        # close) or failed part-way (close the workers it did start);
        # close() already narrows + surfaces its own failures.
        if not self._closed and "_handles" in vars(self):
            _teardown_step("ProcShardedWorld.__del__ close", self.close,
                           OSError, RuntimeError)

    # -- the coordinator hooks ------------------------------------------------------

    def _place(self, name: str, shard: int) -> NodeProxy:
        for handle in self._handles:
            handle.request("add_node", {"name": name, "shard": shard})
        return NodeProxy(self, name, shard)

    def _shard_now(self, shard: int) -> float:
        return self._handles[shard].now

    def _schedule_kill(self, shard: int, at: float) -> None:
        self._handles[shard].request("kill", {"at": at})

    def shard_suspended(self, shard: int) -> bool:
        """True while ``shard``'s kernel is halted by an outage."""
        return self._suspended[shard]

    def _next_times(self) -> tuple[list[float], list[float]]:
        running = [h for h in self._handles if not h.suspended]
        times = [h.peek for h in running if h.peek is not None]
        # Routed-but-unshipped inbox items will schedule kernel events
        # the moment they are applied; the in-process driver sees
        # those through the destination's peek right after its flush,
        # so barrier selection must account for them here or the two
        # drivers walk different barrier sequences.
        for shard, items in enumerate(self._staged_items):
            if self._suspended[shard]:
                continue  # frozen kernel: events wait for a revival
            now = self._handles[shard].now
            times += [max(transfer.at, now)
                      for action, transfer in items
                      if action == "deliver"
                      and transfer.kind in ("package", "shadow")]
        return times, [h.now for h in running]

    def _advance(self, barrier: float, revivals: list[_ShardOutage],
                 max_events: int) -> None:
        revives: dict[int, tuple] = {}
        for outage in revivals:
            self._suspended[outage.shard] = False
            revives[outage.shard] = (
                outage.restart_at, self.bridge.take_backlog(outage.shard))
        self.view = self.view.retaken(
            tuple(self._suspended), tuple([h.down for h in self._handles]))
        self._cycle(barrier=barrier, run=True, max_events=max_events,
                    revives=revives)

    def _flush(self, barrier: float) -> None:
        """Route the pending bridge traffic into the staged inboxes; they
        ship with each shard's next command (the scatter)."""
        for shard, action, transfer in self.bridge.route(
                list(self._suspended)):
            self._staged_items[shard].append((action, transfer))

    def _idle_step(self, max_events: int) -> bool:
        if any(self._staged_items):
            # Ship the routed inboxes; applying them may wake kernels
            # (durable deliveries, retained retries).
            self._cycle(barrier=None, run=False, max_events=max_events,
                        revives={})
            return True
        return super()._idle_step(max_events)

    def _journal_digest(self) -> tuple:
        """Per-shard event counts at the barrier — the commit digest."""
        return tuple(handle.events for handle in self._handles)

    def _apply_crash_plans(self, plans: list) -> None:
        by_shard: dict[int, list] = {}
        for plan in plans:
            by_shard.setdefault(self.shard_of(plan.node), []).append(plan)
        for shard, shard_plans in by_shard.items():
            self._handles[shard].request("crash_plans",
                                         {"plans": shard_plans})

    # -- topology -----------------------------------------------------------------

    def node(self, name: str) -> NodeProxy:
        return NodeProxy(self, name, self.shard_of(name))

    def _set_alternates(self, node: str, alternates: tuple[str, ...]) -> None:
        for handle in self._handles:
            handle.request("set_alternates",
                           {"node": node, "alternates": alternates})

    # -- agent management --------------------------------------------------------------

    def _owner_of(self, node: str) -> int:
        return self.shard_of(node)

    def _ship_launch(self, owner: int, bundle: bytes,
                     launch_kwargs: dict[str, Any]) -> Any:
        """Ship the bundle to the owning shard; returns the coordinator's
        record copy, which every barrier merges into in place."""
        from repro.agent.packages import Protocol
        if launch_kwargs["protocol"] is Protocol.FAULT_TOLERANT:
            self._entangled = True
        # The owner's inbox routed at the last barrier ships along and
        # applies first: in-process, that flush already scheduled it.
        reply = self._handles[owner].request(
            "launch", {"bundle": bundle,
                       "records": self._pending_records[owner],
                       "items": self._staged_items[owner]})
        self._pending_records[owner] = {}
        self._staged_items[owner] = []
        return self._merge_record_blob(reply["record"], origin=owner)

    def _merge_record_blob(self, blob: bytes, origin: int) -> Any:
        """Merge one shard's record copy and stage its rebroadcast to
        every other shard; returns the live record (None when stale)."""
        record = _merge_record(self.agents, restore(blob))
        if record is None:
            return None
        if record.final_agent is not None:
            # The re-broadcast copy drops the captured final agent: no
            # worker reads a foreign record's final_agent (it is pure
            # inspection surface, served by the coordinator's full
            # copy), and for ballast-heavy agents it dwarfs the record.
            blob = capture(dataclasses.replace(record, final_agent=None))
        for shard in range(self.n_shards):
            if shard != origin:
                self._pending_records[shard][record.agent_id] = blob
        return record

    # -- execution ----------------------------------------------------------------------

    @property
    def now(self) -> float:
        """The lockstep virtual clock (all shards agree at barriers)."""
        return max(handle.now for handle in self._handles)

    def _sync_records(self) -> None:
        """Pull every worker's pending record deltas into the merged
        table (each return of ``run()`` and ``step_epoch()``: parallel
        epochs ship records with migrating agents, not per epoch, so the
        coordinator's inspection copies catch up here).  Serial turns
        already ship every moved record in each reply: nothing to pull."""
        if self._entangled:
            return
        for handle in self._handles:
            try:
                deltas = handle.fetch("record_deltas")
            except WorkerDied:
                continue  # a dead shard's last state is already merged
            for _agent_id, blob in deltas.items():
                self._merge_record_blob(blob, origin=handle.shard)

    def _views_for(self, shard: int) -> dict[str, Any]:
        locks: dict[int, dict] = {}
        for replica in range(self.n_shards):
            merged: dict[int, tuple] = {}
            for owner, contribution in self._locks[replica].items():
                if owner == shard:
                    continue  # its own holds live in its mirrors
                for work_id, txid in contribution.items():
                    merged[work_id] = (owner, txid)
            locks[replica] = merged
        return {
            "claims": {j: self._claims[j] for j in range(self.n_shards)
                       if j != shard},
            "locks": locks,
        }

    def _views_delta(self, shard: int) -> dict[str, Any]:
        """The views to ship ``shard``: a delta against what it holds.

        The first dispatch ships the full :meth:`_views_for`; later
        turns ship, marked ``"delta"``, only the lock views that moved,
        and per foreign claims replica the ``(added_or_changed,
        removed)`` claims queued for ``shard`` since its last dispatch
        — however many turns it skipped or spent suspended.  Merged by
        :meth:`RemoteShardContext.update_views`.
        """
        views = self._views_for(shard)
        sent, self._views_sent[shard] = self._views_sent[shard], views
        queued, self._claims_queued[shard] = self._claims_queued[shard], {}
        if sent is None:
            return views
        claims = self._claims
        return {
            "delta": True,
            "claims": {
                j: ({wid: claims[j][wid] for wid in moved
                     if wid in claims[j]},
                    [wid for wid in moved if wid not in claims[j]])
                for j, moved in queued.items()},
            "locks": {j: locks for j, locks in views["locks"].items()
                      if locks != sent["locks"][j]},
        }

    def _epoch_payload(self, shard: int, barrier: Optional[float],
                       run: bool, max_events: int,
                       revives: dict) -> dict[str, Any]:
        handle = self._handles[shard]
        payload = {
            "barrier": barrier,
            "run": run and (not handle.suspended or shard in revives),
            "max_events": max_events,
            "items": self._staged_items[shard],
            "records": self._pending_records[shard],
            "revive": revives.get(shard),
            "views": self._views_delta(shard) if self._entangled else None,
            "last_flush_at": self.last_flush_at,
            "want_dump": self._entangled,
            "ship_records": self._entangled,
        }
        if handle.view is not self.view:
            # The barrier view rides the command only when it moved.
            payload["view"] = handle.view = self.view
        return payload

    def _cycle(self, barrier: Optional[float], run: bool,
               max_events: int, revives: dict) -> None:
        """One coordinated cycle: scatter commands, collect, merge.

        Targets every shard that must act this cycle (running kernels
        with an event due by the barrier, kernels with staged inbox
        items, kernels being revived).  A running kernel with nothing
        due gets no turn: its clock alone would move, so the
        coordinator moves its copy and the shard catches up with its
        next state-bearing command (see :meth:`_ShardHandle.send`).
        Broadcast records alone earn no turn either: they stay in
        ``_pending_records`` and ride the shard's next ``epoch`` or
        ``launch`` command, which merges them before it runs any event
        — and only an executing event reads a record.  A run takes
        serial turns from its first fault-tolerant launch on, and only
        then (see the module docstring): each shard's turn completes —
        and its dumps merge into the canonical views — before the next
        shard starts, which is what keeps its claim reads identical to
        the in-process schedule.
        """
        targets = []
        for shard, handle in enumerate(self._handles):
            if self._staged_items[shard] or shard in revives:
                targets.append(shard)
            elif run and not handle.suspended:
                if handle.peek is not None and handle.peek <= barrier:
                    targets.append(shard)
                else:
                    handle.catch_up = handle.now = barrier
        if self._entangled:
            for shard in targets:
                self._dispatch(shard, barrier, run, max_events, revives)
                self._collect(shard)
            return
        dispatched: list[int] = []
        first_death: Optional[WorkerDied] = None
        try:
            for shard in targets:
                self._dispatch(shard, barrier, run, max_events, revives)
                dispatched.append(shard)
        except WorkerDied as died:
            first_death = died
        for shard in dispatched:
            # Drain every in-flight reply even when a sibling died, so
            # the surviving pipes stay request/reply-aligned and the
            # facade remains inspectable after the error surfaces.
            try:
                self._collect(shard)
            except WorkerDied as died:
                if first_death is None:
                    first_death = died
        if first_death is not None:
            raise first_death

    def _dispatch(self, shard: int, barrier: Optional[float], run: bool,
                  max_events: int, revives: dict) -> None:
        payload = self._epoch_payload(shard, barrier, run, max_events,
                                      revives)
        self._staged_items[shard] = []
        self._pending_records[shard] = {}
        self._handles[shard].send("epoch", payload)

    def _collect(self, shard: int) -> None:
        handle = self._handles[shard]
        self._absorb(shard, handle.recv())

    def _absorb(self, shard: int, reply: dict[str, Any]) -> None:
        """Fold one worker's epoch reply into the canonical state."""
        handle = self._handles[shard]
        self._suspended[shard] = handle.suspended
        for agent_id, blob in reply.get("record_deltas", {}).items():
            self._merge_record_blob(blob, origin=shard)
        for transfer in reply["outbox"]:
            self.bridge.adopt(transfer)
        dump = reply.get("dump")
        if dump is not None:
            # A dump carries only the parts that moved since the last.
            if "claims" in dump:
                changed, removed = dump["claims"]
                replica = self._claims[shard]
                for work_id in removed:
                    del replica[work_id]
                replica.update(changed)
                moved = changed.keys() | removed
                for receiver, queued in enumerate(self._claims_queued):
                    if receiver != shard:
                        queued.setdefault(shard, set()).update(moved)
            for replica, contribution in dump.get("locks", {}).items():
                self._locks[replica][shard] = contribution

    # -- results ------------------------------------------------------------------------

    def counters(self, exclude_prefixes: tuple[str, ...] = ()
                 ) -> dict[str, int]:
        """Aggregate counters/byte totals fetched from every worker."""
        return aggregate_counters(
            [h.fetch("summary") for h in self._handles],
            exclude_prefixes)

    def events_processed(self) -> int:
        return sum(handle.events for handle in self._handles)

    def shard_metrics(self, shard: int):
        """A snapshot of one worker's :class:`~repro.sim.metrics.Metrics`."""
        return self._handles[shard].fetch("metrics")

    def _stat_tables(self) -> list[dict[str, int]]:
        """The coordinator's table (the scatter half of every barrier's
        IPC accounting) and every shard's, shard 0 included."""
        return super()._stat_tables() + [h.fetch("ser_stats")
                                         for h in self._handles]

    def shard_serialization_stats(self, shard: int) -> dict[str, int]:
        """One shard's own serialization counters (its scope's table)."""
        return self._handles[shard].fetch("ser_stats")

    def enable_trace_digest(self) -> None:
        """Turn on every worker kernel's event-stream digest."""
        for handle in self._handles:
            handle.request("enable_digest")

    def trace_digests(self) -> list[Optional[int]]:
        """Per-shard kernel event-stream digests (see Simulator)."""
        return [h.fetch("trace_digest") for h in self._handles]

    def timelines(self) -> list[list]:
        """An empty list: shard timelines stay in their own processes
        (the service reports ``agent`` / ``epoch`` events instead)."""
        return []

    def _replica_claims(self, shard: int) -> dict[int, str]:
        return self._handles[shard].fetch("ledger")
