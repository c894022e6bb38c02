"""The lockstep walk every world backend shares.

:class:`~repro.node.runtime.World` (one kernel),
:class:`~repro.node.sharded.ShardedWorld` (N kernels in this process)
and :class:`~repro.node.procshard.ProcShardedWorld` (N kernels, N−1 of
them in worker processes) all advance on one deterministic grid of
epoch barriers, and :class:`LockstepWorld` walks it for all three.
Each barrier is a coordinated checkpoint — the point where the journal
commits what the run has done — and :meth:`LockstepWorld._step` is the
one place that decides the cut: which barrier comes next, which shard
revivals fall inside it, where a kill lands and when the commit marker
is written.  The same seed therefore gives the same barrier sequence,
commit markers and trace digests on every backend by construction.

The facade lives here once too: ``run``, ``step_epoch``, ``launch``,
``launch_itinerary``, ``set_alternates`` and ``serialization_stats``.
Every entry point that runs or journals (those, ``add_node``,
``apply_crash_plans`` and ``kill_shard``) runs under the world's own
:class:`~repro.scope.Scope` (:func:`scoped`), so the ids a world mints
and the serialization work it counts are its own, whatever else lives
in the process.

A commit hands its marker to the OS; :func:`returns_durable` is the
one place that makes it durable.  It wraps both entry points of the
walk (``run`` and ``step_epoch``) and fsyncs the journal whenever
control goes back to the caller — on return and on raise,
``WorldKilled`` included — as do :meth:`LockstepWorld.
commit_journal` and :meth:`LockstepWorld.close`.  A ``run()`` over K
barriers thus pays one fsync, not K.

A backend supplies only the hooks that differ:

* :meth:`~LockstepWorld._next_times` — pending event times and the
  running kernels' clocks, which a barrier may not fall behind;
* :meth:`~LockstepWorld._advance` — revive the due shards and run every
  live kernel to the barrier;
* :meth:`~LockstepWorld._route` — exchange cross-kernel traffic at the
  barrier;
* :meth:`~LockstepWorld._idle_step` — work left when no kernel has an
  event due (a bridge flush, a staged inbox);
* :meth:`~LockstepWorld._sync_records` — work before each return of
  ``run()`` or ``step_epoch()``: the process backend pulls its workers'
  agent records;
* :meth:`~LockstepWorld._journal_digest` — the execution digest each
  commit marker carries;
* :meth:`~LockstepWorld._owner_of` and
  :meth:`~LockstepWorld._ship_launch` — which kernel hosts a launch's
  node, and how its journaled bundle gets there;
* :meth:`~LockstepWorld._set_alternates` — where the FT drivers read
  step alternates.

The defaults drive the kernels :meth:`~LockstepWorld._kernels` returns
in this process; the process backend overrides the kernel-facing hooks
to drive its shards over their command channels instead.
"""

from __future__ import annotations

import functools
import math
import pickle
from typing import Any, Optional

from repro.agent.packages import Protocol, RollbackMode
from repro.errors import JournalError, UsageError, WorldKilled
from repro.scope import Scope, entered

#: Barriers one ``run()`` walks before it calls the walk a livelock.
MAX_EPOCHS = 1_000_000


def next_epoch_barrier(soonest: float, epoch: float,
                       floor_now: float) -> float:
    """The next barrier on the epoch grid at-or-after ``soonest``.

    The grid point covering the earliest pending event, nudged up one
    grid step on float round-down, and never behind ``floor_now`` (the
    fastest running kernel's clock — a revival may be due before it,
    but barriers cannot move backwards).
    """
    barrier = epoch * math.ceil(soonest / epoch)
    if barrier < soonest:  # float guard: stay at-or-after the event
        barrier += epoch
    while barrier < floor_now:
        barrier += epoch
    return barrier


def returns_durable(method):
    """Fsync the world's journal whenever ``method`` hands control back.

    The durable seam of every walk entry point: whatever the call
    committed is on disk before the caller sees its result or its
    exception.  A :class:`~repro.errors.JournalError` is let through
    untouched — the journal refuses further I/O after one.
    """
    @functools.wraps(method)
    def entry(self, *args, **kwargs):
        try:
            result = method(self, *args, **kwargs)
        except JournalError:
            raise
        except BaseException:
            self._journal_sync()
            raise
        self._journal_sync()
        return result
    return entry


def scoped(method):
    """Run ``method`` under the world's own scope (``self.scope``)."""
    @functools.wraps(method)
    def entry(self, *args, **kwargs):
        with entered(self.scope):
            return method(self, *args, **kwargs)
    return entry


def outcomes_of(agents: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """Canonical per-agent outcomes, for cross-configuration checks.

    Status, result, committed-step and rollback counts — everything
    that must be identical between runs of the same seeded workload on
    any execution backend (unsharded, in-process shards, process-backed
    shards); timing may differ by bridge staleness, outcomes may not.
    """
    return {
        agent_id: {
            "status": record.status.value,
            "result": record.result,
            "failure": record.failure,
            "steps_committed": record.steps_committed,
            "rollbacks_completed": record.rollbacks_completed,
        }
        for agent_id, record in sorted(agents.items())
    }


def aggregate_counters(summaries: list[dict[str, Any]],
                       exclude_prefixes: tuple[str, ...] = ()
                       ) -> dict[str, int]:
    """Sum per-kernel metric summaries, dropping excluded families."""
    totals: dict[str, int] = {}
    for summary in summaries:
        for key, value in summary.items():
            if any(key.startswith(p) or key.startswith(f"bytes.{p}")
                   for p in exclude_prefixes):
                continue
            totals[key] = totals.get(key, 0) + value
    return dict(sorted(totals.items()))


class LockstepWorld:
    """The barrier walk, journal/kill seams and inspection facade.

    Subclasses set ``scope``, ``journal`` and ``agents`` and supply the
    hooks listed in the module docstring.
    """

    #: This world's ids and serialization counters (see
    #: :mod:`repro.scope`), made at construction.
    scope: Scope

    #: The attached :class:`~repro.journal.WorldJournal`, if any.
    journal: Any = None
    _closed = False
    _kill_plan: Optional[tuple[float, str]] = None
    #: Barriers walked (executed, routed and committed) so far.
    epochs_run = 0

    # -- hooks -----------------------------------------------------------------------

    def _kernels(self) -> list:
        """The in-process worlds whose kernels the default hooks drive."""
        raise NotImplementedError

    def _epoch_length(self) -> float:
        """Spacing of the barrier grid."""
        raise NotImplementedError

    def _next_times(self) -> tuple[list[float], list[float]]:
        """Pending event times and clocks of the running kernels."""
        running = [w.sim for w in self._kernels() if not w.sim.suspended]
        return ([t for t in (sim.peek_time() for sim in running)
                 if t is not None],
                [sim.now for sim in running])

    def _due_restarts(self) -> list:
        """Outages with a pending restart of a dead kernel (none here)."""
        return []

    def _advance(self, barrier: float, revivals: list,
                 max_events: int) -> None:
        """Revive ``revivals`` and run every live kernel to ``barrier``."""
        for world in self._kernels():
            if not world.sim.suspended:
                world.sim.run_epoch(barrier, max_events=max_events)

    def _route(self, barrier: float) -> None:
        """Exchange cross-kernel traffic at ``barrier`` (none here)."""

    def _idle_step(self, max_events: int) -> bool:
        """Work left with no event due; True when some was done."""
        return False

    def _sync_records(self) -> None:
        """Catch the facade's agent records up before ``run()`` or
        ``step_epoch()`` returns (they are live in-process, so nothing
        to do here)."""

    def _journal_digest(self) -> tuple:
        """Per-kernel event counts at the barrier — the commit digest."""
        return tuple(w.sim.events_processed for w in self._kernels())

    def _journal_config(self) -> dict[str, Any]:
        """The config record a resume rebuilds this world from."""
        raise NotImplementedError

    def _owner_of(self, node: str) -> Any:
        """What hosts ``node`` (UsageError when nothing does)."""
        raise NotImplementedError

    def _ship_launch(self, owner: Any, bundle: bytes,
                     launch_kwargs: dict[str, Any]) -> Any:
        """Launch a restored copy of ``bundle`` on ``owner``."""
        from repro.storage.serialization import restore
        agent, at, method, kwargs = restore(bundle)
        return owner._launch(agent, at=at, method=method, **kwargs)

    def _apply_crash_plans(self, plans: list) -> None:
        """Hand each plan to the kernel hosting its node."""
        raise NotImplementedError

    def _set_alternates(self, node: str, alternates: tuple[str, ...]) -> None:
        """Install ``node``'s step alternates for the FT drivers."""
        raise NotImplementedError

    # -- the walk ----------------------------------------------------------------------

    def _step(self, until: Optional[float], max_events: int,
              replay=None) -> bool:
        """One barrier of the lockstep walk; False when nothing is left.

        Picks the next barrier on the epoch grid — skipping grid points
        no kernel has work before, never behind the running clocks —
        or takes it verbatim from ``replay`` (the resume driver's
        journaled barrier sequence); stops, with nothing done, when
        that barrier lies past ``until``.  Otherwise revives the shards
        whose restart falls inside the epoch, advances every live
        kernel to the barrier, routes the traffic that crossed kernels
        and commits the barrier's journal marker, with the
        ``kill_world`` check around the commit.  Scheduled restarts
        count as work, so a walk never ends with a revival pending.
        """
        if self._closed:
            raise UsageError("world is closed")
        times, clocks = self._next_times()
        due = self._due_restarts()
        times += [outage.restart_at for outage in due]
        if not times:
            if self._idle_step(max_events):
                return True
            barrier = None  # idle: the walk is over
        elif replay is not None:
            barrier = next(replay, None)
            if barrier is None:
                return False  # replayed prefix complete
        else:
            # A revival may be due before the running clocks (they ran
            # on while the dead kernel froze); barriers never move back.
            barrier = next_epoch_barrier(min(times), self._epoch_length(),
                                         max(clocks, default=self.now))
        if barrier is None or (until is not None and barrier > until):
            # Idle, or the cut: a barrier past ``until`` is not walked —
            # nothing runs, routes or commits, and no clock moves.
            return False
        revivals = [outage for outage in due if outage.restart_at <= barrier]
        for outage in revivals:
            outage.revived = True
        self._advance(barrier, revivals, max_events)
        kill = self._kill_due(barrier)
        if kill == "barrier":
            # Mid-barrier crash: the epoch ran, but the marker is torn
            # and nothing is routed — recovery falls back one barrier.
            self._journal_commit(barrier, torn=True)
            raise WorldKilled(barrier, kill)
        self._route(barrier)
        self.epochs_run += 1
        self._journal_commit(barrier)
        if kill is not None:
            raise WorldKilled(barrier, kill)
        return True

    @returns_durable
    @scoped
    def run(self, until: Optional[float] = None,
            max_events: int = 10_000_000,
            _replay: Optional[list] = None) -> None:
        """Walk the barriers until every kernel is drained (or ``until``).

        One :meth:`_step` per barrier, at most ``max_events`` events per
        kernel and epoch (the bound is per epoch, not per run); past
        :data:`MAX_EPOCHS` barriers the walk is a livelock
        (:class:`~repro.errors.UsageError`).  The commits are fsynced
        once, when the call returns or raises.

        :attr:`now` reads the last barrier walked: after an uncut run,
        the grid point at or just after the last event.  The cut:
        ``run(until=t)`` walks every barrier at or before ``t`` and
        stops, and a later ``run()`` continues exactly as if the run
        had never been cut.  ``_replay`` (resume only) walks the
        journaled barriers verbatim instead of the grid.
        """
        replay = iter(_replay) if _replay is not None else None
        for _ in range(MAX_EPOCHS):
            if not self._step(until, max_events, replay):
                self._sync_records()
                return
        raise UsageError(
            f"run exceeded {MAX_EPOCHS} epochs; likely livelock")

    @returns_durable
    @scoped
    def step_epoch(self, max_events: int = 10_000_000) -> bool:
        """Advance one barrier of the walk; False once the world is idle.

        The reentrant twin of :meth:`run`, which is exactly ``while
        self.step_epoch(): pass``, so a stepped run reproduces a
        straight run bit for bit; hosts (the service gateway) launch
        and read telemetry between calls.  A call may route a pending
        bridge flush or ship a staged inbox without advancing the clock
        (still True).  Idle calls are repeatable; a later
        :meth:`launch` makes the next call True again.
        """
        progressed = self._step(None, max_events)
        self._sync_records()
        return progressed

    # -- journal / kill seams --------------------------------------------------------

    def _record_journal_config(self) -> None:
        """Write the config record, if a journal is attached.

        A resume's disarmed journal already holds it; an armed journal
        that does was handed to another world first, and
        ``record_config`` refuses it.
        """
        journal = self.journal
        if journal is not None and journal.armed:
            journal.record_config(**self._journal_config())

    def _journal_op(self, op: str, **data: Any) -> None:
        """Journal a facade-level op (no-op without an armed journal: a
        shard kernel has none, its sharded world journals); every op
        passes here first, so a closed world refuses it here."""
        if self._closed:
            raise UsageError("world is closed")
        journal = self.journal
        if journal is not None and journal.armed:
            journal.record_op(op, **data)

    def _journal_commit(self, barrier: float, torn: bool = False) -> None:
        journal = self.journal
        if journal is None or not journal.armed:
            return
        digest = self._journal_digest()
        if torn:
            journal.commit_torn(barrier, digest)
        else:
            journal.commit_epoch(barrier, digest)

    def commit_journal(self) -> None:
        """Make everything written to the journal durable.

        Ops are synced as they are issued and every barrier's marker
        is handed to the OS as it commits, so this is one fsync of
        whatever is pending — what every return from ``run()`` /
        ``step_epoch()`` already does.  A host that stops stepping a
        world mid-run calls it before reporting the final state.  A
        no-op without a journal.
        """
        self._journal_sync()

    def _journal_sync(self) -> None:
        """Fsync every commit the journal has flushed but not synced."""
        if self.journal is not None:
            self.journal.sync()

    def _kill_due(self, barrier: float) -> Optional[str]:
        plan = self._kill_plan
        if plan is not None and barrier >= plan[0]:
            return plan[1]
        return None

    def kill_world(self, at: float, phase: str = "commit") -> None:
        """Hard-stop the coordinator at the first epoch barrier >= ``at``.

        Fault injection for crash-resume testing — the simulated
        analogue of SIGKILLing the driving process (unlike a sharded
        world's ``kill_shard``, which models one kernel dying inside a
        run that keeps going).  ``phase="commit"`` kills right after
        the barrier's journal commit; ``"barrier"`` kills *mid-barrier*
        — the epoch has executed (and, in a sharded world, its traffic
        been collected) but the commit marker is torn and nothing is
        routed, so recovery must fall back to the previous barrier.
        The kill itself is deliberately never journaled: it is the
        crash being recovered from.  The run raises
        :class:`~repro.errors.WorldKilled`.
        """
        if phase not in ("commit", "barrier"):
            raise UsageError(f"unknown kill phase {phase!r} "
                             f"(use 'commit' or 'barrier')")
        if at < self.now:
            raise UsageError(f"cannot kill the world in the past "
                             f"(at={at}, now={self.now})")
        self._kill_plan = (float(at), phase)

    # -- the facade ----------------------------------------------------------------------

    @property
    def now(self) -> float:
        """The lockstep virtual clock (all kernels agree at barriers)."""
        return max(world.sim.now for world in self._kernels())

    def record_of(self, agent_id: str) -> Any:
        record = self.agents.get(agent_id)
        if record is None:
            raise UsageError(f"no agent {agent_id!r}")
        return record

    def add_nodes(self, *names: str) -> list:
        """Create several nodes at once (round-robin across shards)."""
        return [self.add_node(n) for n in names]

    @scoped
    def launch(self, agent: Any, at: str, method: str,
               mode: RollbackMode = RollbackMode.BASIC,
               protocol: Protocol = Protocol.BASIC,
               initial_savepoints: Optional[list] = None,
               **unknown: Any) -> Any:
        """Inject ``agent`` into node ``at``'s input queue, starting at
        ``method``; returns its live record.

        ``initial_savepoints`` — (sp_id, virtual) pairs written into the
        fresh log before the first step, so the agent can roll back to
        its very beginning (see :meth:`launch_itinerary`).

        Validate, journal, execute: an unknown keyword, node, mode or
        protocol, a duplicate agent id, a ``method`` the agent lacks
        and a closed world are refused (:class:`~repro.errors.UsageError`)
        before anything is journaled.  Launch is a ship: the owner runs
        a restored copy of the journaled bundle — what a worker process
        and a resume run — never the caller's object.
        """
        from repro.storage.serialization import assert_picklable, capture
        if unknown:
            raise UsageError(f"unknown launch keyword {min(unknown)!r}")
        owner = self._owner_of(at)
        if agent.agent_id in self.agents:
            raise UsageError(f"agent {agent.agent_id!r} already launched")
        try:
            launch_kwargs = {"mode": RollbackMode(mode),
                             "protocol": Protocol(protocol),
                             "initial_savepoints": initial_savepoints}
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        if not hasattr(agent, method):
            raise UsageError(f"{type(agent).__name__} has no step method "
                             f"{method!r}")
        try:
            bundle = capture((agent, at, method, launch_kwargs))
        except (pickle.PicklingError, AttributeError, TypeError):
            # Name the attribute at fault instead of a bare pickle error.
            assert_picklable(agent, f"agent {agent.agent_id!r}")
            raise
        # The journal keeps the ship bundle verbatim, so replay
        # re-launches byte-identical launch state.
        self._journal_op("launch", bundle=bundle)
        return self._ship_launch(owner, bundle, launch_kwargs)

    def launch_itinerary(self, agent: Any,
                         mode: RollbackMode = RollbackMode.BASIC,
                         protocol: Protocol = Protocol.BASIC) -> Any:
        """Launch an :class:`~repro.itinerary.executor.ItineraryAgent`;
        its itinerary names the start node, method and initial
        savepoints."""
        at, method = agent.launch_entry()
        return self.launch(agent, at=at, method=method, mode=mode,
                           protocol=protocol,
                           initial_savepoints=agent.initial_savepoints())

    @scoped
    def set_alternates(self, node: str, *alternates: str) -> None:
        """Declare which nodes shadow step executions of ``node`` (the
        FT protocol's takeover and diversion targets), for every kernel.

        With ``FTParams.cross_shard_alternates`` (the default) a sharded
        world's FT drivers prefer the alternates hosted by other shards,
        so shadow redundancy survives a whole-kernel outage.
        """
        alternates = tuple(alternates)
        self._journal_op("set_alternates", node=node, alternates=alternates)
        self._set_alternates(node, alternates)

    @scoped
    def apply_crash_plans(self, plans) -> None:
        """Schedule node-level outages on whichever kernels host the
        nodes — the facade twin of ``failures.apply_plan``."""
        from repro.storage.serialization import capture
        plans = list(plans)
        self._journal_op("crash_plans", blob=capture(plans))
        self._apply_crash_plans(plans)

    def resource_state(self, node: str, resource: str) -> Any:
        """The named resource hosted by ``node``: the live object
        in-process, a pickled snapshot on the process backend."""
        return self.node(node).get_resource(resource)

    def outcomes(self) -> dict[str, dict[str, Any]]:
        """Canonical per-agent outcomes (see :func:`outcomes_of`)."""
        return outcomes_of(self.agents)

    def all_done(self) -> bool:
        """True when no agent is still running."""
        from repro.node.runtime import AgentStatus
        return all(r.status is not AgentStatus.RUNNING
                   for r in self.agents.values())

    def counters(self, exclude_prefixes: tuple[str, ...] = ()
                 ) -> dict[str, int]:
        """Counters/byte totals summed over every kernel's metrics.

        ``exclude_prefixes`` drops families that legitimately differ
        between shard counts (e.g. ``bridge.`` traffic exists only when
        N > 1).
        """
        return aggregate_counters(
            [world.metrics.summary() for world in self._kernels()],
            exclude_prefixes)

    def timelines(self) -> list[list]:
        """Each kernel's live :class:`~repro.sim.metrics.Metrics`
        timeline (grows as the run proceeds)."""
        return [world.metrics.timeline for world in self._kernels()]

    def events_processed(self) -> int:
        """Total kernel events fired across every kernel."""
        return sum(world.sim.events_processed for world in self._kernels())

    def enable_trace_digest(self) -> None:
        """Turn on every kernel's event-stream digest."""
        for world in self._kernels():
            world.sim.enable_trace_digest()

    def trace_digests(self) -> list[Optional[int]]:
        """Per-kernel event-stream digests (see Simulator)."""
        return [world.sim.trace_digest() for world in self._kernels()]

    def _stat_tables(self) -> list[dict[str, int]]:
        """The counter tables this world's work is counted in."""
        return [self.scope.stats]

    def serialization_stats(self) -> dict[str, Any]:
        """This world's serialization / IPC counters, summed over the
        tables it counts in: its own scope's and, on the process
        backend, every shard server's (keys at
        :data:`repro.scope.STAT_KEYS`)."""
        return aggregate_counters(self._stat_tables())

    def close(self) -> None:
        """Release the world; a closed world refuses every facade op.

        Idempotent.  Fsyncs the journal's flushed commits; only the
        process backend holds anything else to release (its worker
        processes).
        """
        self._closed = True
        self._journal_sync()
