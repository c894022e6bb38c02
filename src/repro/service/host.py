"""The world host: a stepper thread bridging sync worlds to asyncio.

The epoch-barrier drivers are synchronous and blocking; the gateway is
an asyncio event loop.  :class:`WorldHost` owns one live world and runs
it on a dedicated **stepper thread** via the reentrant
``step_epoch()`` seam (PR 10), interleaving between barriers:

* **launch hand-off** — :meth:`WorldHost.submit` admits a launch and
  enqueues a :class:`_LaunchCmd` on a *bounded* command queue without
  blocking its caller; the stepper applies queued launches between
  epochs (so launches serialize in arrival order on the barrier grid)
  and resolves each command's :class:`concurrent.futures.Future` when
  the launch is applied or refused — the gateway awaits it on its
  event loop, :meth:`WorldHost.launch` blocks on it;
* **admission control** — per-tenant in-flight caps and the bounded
  queue itself reject overload with :class:`AdmissionFull`, which the
  gateway maps to ``429`` + ``Retry-After``;
* **telemetry fan-out** — after each barrier the host emits structured
  events (``epoch`` per journal commit marker, ``agent`` per terminal
  outcome, ``timeline`` deltas, periodic ``metrics`` snapshots) to
  every :class:`Subscription`.  The stepper tracks only the agents it
  has applied and not yet reported, so the per-barrier bookkeeping is
  O(agents in flight), not O(agents ever launched).  Subscriber queues
  are bounded and *never* block the stepper: a slow client drops
  events (counted in ``events_dropped``), it does not stall the world;
  an async subscriber is woken at most once per pending batch of
  events;
* **graceful drain** — :meth:`drain` stops admission, lets the
  in-flight epoch finish, fsyncs the journal, emits a final ``drain``
  event carrying outcomes and trace digests, and closes the world
  (which stops the worker processes on the process backend).

Every read of world state (snapshots, agent lookups) takes the same
lock the stepper holds across one barrier, so observers only ever see
barrier-consistent state.
"""

from __future__ import annotations

import asyncio
import itertools
import queue
import threading
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import UsageError
from repro.node.lockstep import outcomes_of
from repro.node.runtime import AgentStatus
from repro.service.worlds import (
    LaunchSpec,
    ResolvedLaunch,
    WorldSpec,
    build_world,
    resolve_launch,
)


#: Seconds a launch request waits for the stepper to apply its command.
LAUNCH_TIMEOUT = 30.0
#: Seconds an idle stepper parks before it steps again (a launch or a
#: drain wakes it sooner).
IDLE_WAIT = 0.05


class AdmissionFull(Exception):
    """The launch was rejected by admission control (HTTP 429)."""

    def __init__(self, message: str, retry_after: float):
        super().__init__(message)
        self.retry_after = retry_after


class HostClosed(Exception):
    """The host is draining or closed (HTTP 503)."""


@dataclass
class _LaunchCmd:
    resolved: ResolvedLaunch
    #: Resolved by the stepper with the launch record, or with the
    #: error that refused the launch.
    future: Future = field(default_factory=Future)


class Subscription:
    """One bounded event feed off a :class:`WorldHost`.

    Sync subscribers (tests, benches) pass no loop and read one event
    at a time with :meth:`get`.  Async subscribers (the SSE handler)
    pass their event loop and read with :meth:`batch`: the stepper
    appends under a lock and posts at most one ``call_soon_threadsafe``
    wake-up per pending batch, so a barrier's events cost the loop one
    wake-up, not one each.  Either way at most ``depth`` events wait
    unread; one more is **dropped** and counted — backpressure never
    propagates to the stepper.  A ``None`` item marks the end of the
    stream (host drained); it is never dropped.
    """

    def __init__(self, depth: int = 256,
                 loop: Optional[asyncio.AbstractEventLoop] = None):
        self.loop = loop
        self.depth = depth
        self.dropped = 0
        self.closed = False
        self._lock = threading.Lock()
        self._sync: Optional[queue.Queue] = queue.Queue() \
            if loop is None else None
        self._batch: list[Optional[dict[str, Any]]] = []
        #: A wake-up is posted for the pending batch (async only).
        self._posted = False
        self._ready = asyncio.Event()

    # -- producer side (stepper thread) -------------------------------------------

    def offer(self, item: Optional[dict[str, Any]]) -> None:
        if self.closed:
            return
        with self._lock:
            sync = self._sync
            unread = sync.qsize() if sync is not None else len(self._batch)
            if item is not None and unread >= self.depth:
                self.dropped += 1
                return
            if sync is not None:
                sync.put_nowait(item)
                return
            self._batch.append(item)
            if self._posted:
                return
            self._posted = True
        loop = self.loop
        assert loop is not None
        try:
            loop.call_soon_threadsafe(self._ready.set)
        except RuntimeError:  # loop already closed mid-drain
            self.closed = True

    # -- consumer side ------------------------------------------------------------

    def get(self, timeout: Optional[float] = None) -> Optional[dict]:
        """Sync read (None ⇒ stream over); raises ``queue.Empty``."""
        assert self._sync is not None, "async subscription: use batch()"
        return self._sync.get(timeout=timeout)

    async def batch(self) -> list[Optional[dict[str, Any]]]:
        """Async read: every event offered since the last call, in
        ``seq`` order (a trailing None ⇒ stream over); waits while
        there is none."""
        assert self._sync is None, "sync subscription: use get()"
        while True:
            with self._lock:
                items, self._batch = self._batch, []
                self._posted = False
                if items:
                    return items
                self._ready.clear()
            await self._ready.wait()


class WorldHost:
    """One live world + its stepper thread + its subscribers.

    Knobs (all per world): ``max_inflight`` — per-tenant cap on
    launched-but-unfinished agents; ``max_pending`` — bound of the
    launch hand-off queue; ``retry_after`` — seconds suggested to
    rejected clients; ``sub_depth`` — per-subscriber event queue bound;
    ``metrics_every`` — barriers between ``metrics`` events.
    """

    def __init__(self, world_id: str, spec: WorldSpec, *,
                 max_inflight: int = 8, max_pending: int = 64,
                 retry_after: float = 1.0, sub_depth: int = 512,
                 metrics_every: int = 16):
        self.world_id = world_id
        self.spec = spec
        self.max_inflight = max_inflight
        self.retry_after = retry_after
        self.sub_depth = sub_depth
        self.metrics_every = metrics_every
        self.world, self.journal = build_world(spec)
        self._commands: queue.Queue = queue.Queue(maxsize=max_pending)
        #: Guards world state across one barrier (stepper) and during
        #: snapshot reads (request handlers).
        self._world_lock = threading.Lock()
        #: Guards subscriber/retained-event/admission bookkeeping.
        self._meta_lock = threading.Lock()
        self._subs: list[Subscription] = []
        self._retained: deque = deque(maxlen=1024)
        self._seq = 0
        self._agent_seq = 0
        self._inflight: dict[str, set[str]] = {}
        #: Agents the stepper applied and has not yet reported, in
        #: launch order: agent id → (live record, tenant).
        self._unreported: dict[str, tuple[Any, str]] = {}
        self._commits_seen = 0
        self._steps = 0
        self._timeline_pos: list[int] = []
        self._stopping = threading.Event()
        self._drained = threading.Event()
        #: Kicks the stepper out of its idle park (a launch arrived or
        #: a drain began) without waiting out :data:`IDLE_WAIT`.
        self._wake = threading.Event()
        self.events_dropped = 0
        #: Final snapshot captured at drain time, before the world
        #: closes (the process backend cannot be queried afterwards).
        self._final: Optional[dict[str, Any]] = None
        self._thread = threading.Thread(
            target=self._run, name=f"repro-host-{world_id}", daemon=True)
        self._started = False

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> "WorldHost":
        if not self._started:
            self._started = True
            self._thread.start()
        return self

    @property
    def draining(self) -> bool:
        return self._stopping.is_set()

    def drain(self, timeout: float = 30.0) -> dict[str, Any]:
        """Graceful shutdown: finish the epoch, commit, close, report.

        Idempotent; returns the final snapshot.  Raises
        :class:`UsageError` when the stepper fails to drain within
        ``timeout`` (the world is then left as-is for diagnosis).
        """
        self._stopping.set()
        self._wake.set()
        if self._started:
            self._drained.wait(timeout)
            if not self._drained.is_set():
                raise UsageError(
                    f"world {self.world_id} failed to drain within "
                    f"{timeout}s")
        else:
            self._shutdown()
        return self.snapshot()

    # -- admission + launch -------------------------------------------------------

    def submit(self, spec: LaunchSpec) -> Future:
        """Admit and enqueue one launch without waiting for it.

        Returns a future the stepper resolves with the launch record
        once the launch is applied at a barrier, or with the error that
        refused it (a duplicate agent id, :class:`HostClosed` once the
        host drains); either way the tenant's in-flight slot is freed
        on refusal.  Raises :class:`AdmissionFull` on per-tenant
        overflow or a full hand-off queue, :class:`HostClosed` once
        draining.
        """
        tenant = spec.tenant
        # One critical section: the drain takes this lock before it
        # fails the queued stragglers, so nothing is enqueued after.
        with self._meta_lock:
            if self._stopping.is_set():
                raise HostClosed(f"world {self.world_id} is draining")
            inflight = self._inflight.setdefault(tenant, set())
            if len(inflight) >= self.max_inflight:
                raise AdmissionFull(
                    f"tenant {tenant!r} has {len(inflight)} launches in "
                    f"flight (max_inflight={self.max_inflight})",
                    self.retry_after)
            self._agent_seq += 1
            agent_id = spec.agent_id or f"ag-{self._agent_seq}"
            if agent_id in self.world.agents or agent_id in inflight:
                raise UsageError(f"agent {agent_id!r} already launched")
            cmd = _LaunchCmd(resolved=resolve_launch(spec, self.spec,
                                                     agent_id))
            try:
                self._commands.put_nowait(cmd)
            except queue.Full:
                raise AdmissionFull(
                    f"launch queue full ({self._commands.maxsize} "
                    f"pending)", self.retry_after) from None
            inflight.add(agent_id)
        self._wake.set()
        return cmd.future

    def launch(self, spec: LaunchSpec) -> dict[str, Any]:
        """:meth:`submit` one launch and wait until it is applied;
        returns the launch record (or raises what refused it)."""
        future = self.submit(spec)
        try:
            return future.result(LAUNCH_TIMEOUT)
        except FutureTimeout:
            raise UsageError(
                f"launch into world {self.world_id} not applied within "
                f"{LAUNCH_TIMEOUT}s") from None

    def _release(self, tenant: str, agent_id: str) -> None:
        """Free one tenant in-flight slot."""
        with self._meta_lock:
            self._inflight[tenant].discard(agent_id)

    # -- subscriptions ------------------------------------------------------------

    def subscribe(self, loop: Optional[asyncio.AbstractEventLoop] = None,
                  replay: bool = True) -> Subscription:
        """Attach one event feed; ``replay`` first delivers the newest
        retained events, gap-free with the live tail.

        The replay fills at most half the subscription's bound
        (``sub_depth``), so nothing of it is dropped and the live tail
        has the other half to arrive in before the reader catches up.
        """
        sub = Subscription(depth=self.sub_depth, loop=loop)
        with self._meta_lock:
            if replay:
                retained = self._retained
                skip = max(len(retained) - self.sub_depth // 2, 0)
                for item in itertools.islice(retained, skip, None):
                    sub.offer(item)
            if self._drained.is_set():
                sub.offer(None)
            else:
                self._subs.append(sub)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        sub.closed = True
        with self._meta_lock:
            if sub in self._subs:
                self._subs.remove(sub)
            self.events_dropped += sub.dropped

    def _emit(self, event: str, data: dict[str, Any]) -> None:
        with self._meta_lock:
            self._seq += 1
            item = {"seq": self._seq, "event": event, "data": data}
            self._retained.append(item)
            for sub in self._subs:
                sub.offer(item)

    # -- snapshots ----------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Barrier-consistent world summary (the ``GET /worlds/{id}``)."""
        with self._world_lock:
            if self._final is not None:
                return dict(self._final)
            return self._snapshot_locked()

    def _snapshot_locked(self) -> dict[str, Any]:
        world = self.world
        snap = {
            "world": self.world_id,
            "spec": self.spec.to_json(),
            "status": ("drained" if self._drained.is_set() else
                       "draining" if self._stopping.is_set() else
                       "running"),
            "now": self._now(),
            "epochs": self._steps,
            "agents": world.outcomes(),
            "counters": world.counters(),
            "serialization_stats": world.serialization_stats(),
            "trace_digests": world.trace_digests(),
            "events_dropped": self.events_dropped
            + sum(s.dropped for s in self._subs),
        }
        if self.journal is not None:
            snap["journal"] = self.journal.stats()
        return snap

    def agent_snapshot(self, agent_id: str) -> dict[str, Any]:
        with self._world_lock:
            if self._final is not None:
                outcome = self._final["agents"].get(agent_id)
            else:
                record = self.world.agents.get(agent_id)
                outcome = None if record is None else \
                    outcomes_of({agent_id: record})[agent_id]
        if outcome is None:
            raise UsageError(f"no agent {agent_id!r}")
        return {"agent": agent_id, "world": self.world_id, **outcome}

    def _now(self) -> float:
        now = self.world.now
        return float(now) if now != float("-inf") else 0.0

    # -- the stepper thread -------------------------------------------------------

    def _run(self) -> None:
        self._emit("world", {"world": self.world_id,
                             "spec": self.spec.to_json()})
        try:
            while not self._stopping.is_set():
                applied = self._apply_commands()
                with self._world_lock:
                    progressed = self.world.step_epoch()
                    if progressed:
                        self._steps += 1
                    self._post_step(progressed)
                if not progressed and not applied:
                    # Idle: park until a launch arrives or drain starts.
                    self._wake.wait(IDLE_WAIT)
                    self._wake.clear()
        except BaseException as exc:  # pragma: no cover - defensive
            self._emit("error", {"error": f"{type(exc).__name__}: {exc}"})
        finally:
            self._shutdown()

    def _apply_commands(self) -> bool:
        applied = False
        while True:
            try:
                cmd = self._commands.get_nowait()
            except queue.Empty:
                return applied
            resolved, future = cmd.resolved, cmd.future
            agent_id = resolved.agent.agent_id
            if not future.set_running_or_notify_cancel():
                # Its waiter gave up before the barrier: never applied.
                self._release(resolved.tenant, agent_id)
                continue
            try:
                with self._world_lock:
                    record = self.world.launch(
                        resolved.agent, at=resolved.at,
                        method=resolved.method, **resolved.kwargs)
            except BaseException as exc:
                self._release(resolved.tenant, agent_id)
                future.set_exception(exc)
                continue
            self._unreported[agent_id] = (record, resolved.tenant)
            result = {
                "agent": agent_id, "world": self.world_id,
                "tenant": resolved.tenant,
                "status": record.status.value,
                "launched_at": self._now(),
            }
            self._emit("launch", dict(result))
            future.set_result(result)
            applied = True

    def _emit_commits(self) -> None:
        """One ``epoch`` event per journal commit not yet reported."""
        commits = self.journal.commits
        while self._commits_seen < commits:
            self._emit("epoch", {"commit": self._commits_seen,
                                 "barrier": self._now(),
                                 "epochs": self._steps})
            self._commits_seen += 1

    def _post_step(self, progressed: bool) -> None:
        """Telemetry after one barrier (world lock held)."""
        if self.journal is not None:
            self._emit_commits()
        elif progressed:
            self._emit("epoch", {"commit": None, "barrier": self._now(),
                                 "epochs": self._steps})
        self._emit_timeline()
        finished = [agent_id for agent_id, (record, _tenant)
                    in self._unreported.items()
                    if record.status is not AgentStatus.RUNNING]
        for agent_id in finished:
            record, tenant = self._unreported.pop(agent_id)
            outcome = outcomes_of({agent_id: record})[agent_id]
            self._emit("agent", {"agent": agent_id, **outcome})
            self._release(tenant, agent_id)
        if progressed and self.metrics_every \
                and self._steps % self.metrics_every == 0:
            self._emit_metrics()

    def _emit_timeline(self) -> None:
        """Ship new per-agent timeline records (world lock held).

        The single-kernel and in-process-shard backends expose live
        :class:`~repro.sim.metrics.Metrics` timelines; the process
        backend's live only in its workers (``timelines()`` is empty),
        so there the ``agent`` / ``epoch`` events are the timeline.
        """
        sources = self.world.timelines()
        if not sources:
            return
        if len(self._timeline_pos) != len(sources):
            self._timeline_pos = [0] * len(sources)
        fresh: list[tuple[float, str, dict]] = []
        for i, timeline in enumerate(sources):
            fresh.extend(timeline[self._timeline_pos[i]:])
            self._timeline_pos[i] = len(timeline)
        if not fresh:
            return
        fresh.sort(key=lambda item: item[0])
        self._emit("timeline", {"entries": [
            {"at": at, "kind": kind, **details}
            for at, kind, details in fresh]})

    def _emit_metrics(self) -> None:
        world = self.world
        self._emit("metrics", {
            "now": self._now(), "epochs": self._steps,
            "counters": world.counters(),
            "serialization_stats": world.serialization_stats()})

    def _shutdown(self) -> None:
        """Drain tail: reject stragglers, commit, report, close."""
        self._stopping.set()
        stragglers = []
        with self._meta_lock:  # after it, :meth:`submit` enqueues none
            while True:
                try:
                    stragglers.append(self._commands.get_nowait())
                except queue.Empty:
                    break
        for cmd in stragglers:
            self._release(cmd.resolved.tenant, cmd.resolved.agent.agent_id)
            if cmd.future.set_running_or_notify_cancel():
                cmd.future.set_exception(
                    HostClosed(f"world {self.world_id} is draining"))
        with self._world_lock:
            world = self.world
            try:
                if self.journal is not None:
                    # Every op and marker is already written; make
                    # them durable before ``drain`` (and emit any
                    # commit a step that raised left unreported).
                    world.commit_journal()
                    self._emit_commits()
                self._emit_timeline()
                self._emit("drain", {
                    "world": self.world_id, "now": self._now(),
                    "epochs": self._steps, "agents": world.outcomes(),
                    "trace_digests": world.trace_digests(),
                    "journal": (self.journal.stats()
                                if self.journal is not None else None),
                })
                final = self._snapshot_locked()
                final["status"] = "drained"
            except BaseException as exc:
                # A world whose workers already died cannot be queried;
                # still report *something* and keep the drain moving.
                final = {"world": self.world_id,
                         "spec": self.spec.to_json(),
                         "status": "drained", "agents": {},
                         "error": f"{type(exc).__name__}: {exc}"}
                self._emit("error", dict(final))
            self._final = final
            world.close()
        with self._meta_lock:
            subs, self._subs = self._subs, []
        for sub in subs:
            sub.offer(None)
        self._drained.set()
