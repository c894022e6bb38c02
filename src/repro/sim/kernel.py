"""Event queue and virtual clock.

The simulator is a classic calendar-queue discrete-event kernel: events
are ``(time, priority, seq, callback)`` tuples ordered by time, then
priority, then insertion sequence, so runs are fully deterministic.
Callbacks run synchronously at their scheduled virtual time and may
schedule further events.
"""

from __future__ import annotations

import heapq
import random
import struct
import zlib
from typing import Callable, Optional

from repro.errors import UsageError


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`Simulator.schedule` and can be
    cancelled; a cancelled event is skipped when its time arrives.
    """

    __slots__ = ("time", "priority", "seq", "fn", "label", "cancelled")

    def __init__(self, time: float, priority: int, seq: int,
                 fn: Callable[[], None], label: str):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.label = label
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event {self.label!r} t={self.time:.6f} {state}>"


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the kernel-owned random number generator.  All stochastic
        behaviour in the system (crash sampling, latency jitter, workload
        generation) must draw from :attr:`rng` or from generators forked
        via :meth:`fork_rng`, which keeps whole runs reproducible.
    """

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.rng = random.Random(seed)
        self._seed = seed
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._running = False
        self._suspended = False
        self.events_processed = 0
        self._trace_digest: Optional[int] = None

    # -- execution-trace digest ------------------------------------------------
    #
    # A rolling CRC over (time, label) of every fired event.  Two
    # kernels that executed the same event stream — e.g. one shard of
    # an in-process sharded run and the same shard inside a worker
    # process — end with the same digest, which turns "did the runs
    # really take the same path?" from a judgement call on outcomes
    # into an exact event-by-event check.  Off by default (zero cost);
    # the differential test harness switches it on.

    def enable_trace_digest(self) -> None:
        """Start accumulating the event-stream digest (idempotent)."""
        if self._trace_digest is None:
            self._trace_digest = 0

    def trace_digest(self) -> Optional[int]:
        """The rolling event-stream CRC (None unless enabled)."""
        return self._trace_digest

    def _digest_event(self, time: float, label: str) -> None:
        # Normalise away a trailing ":<id>" segment: queue-item ids are
        # minted from process-local counters, so their raw values (not
        # the event stream) differ between an in-process shard and the
        # same shard inside a worker process.
        head, sep, tail = label.rpartition(":")
        if sep and tail.isdigit():
            label = head
        payload = struct.pack("<d", time) + label.encode()
        self._trace_digest = zlib.crc32(payload, self._trace_digest)

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[[], None],
                 label: str = "", priority: int = 0) -> Event:
        """Schedule ``fn`` to run ``delay`` virtual seconds from now.

        ``priority`` breaks ties among events at the same instant (lower
        runs first); insertion order breaks remaining ties.
        """
        if delay < 0:
            raise UsageError(f"cannot schedule in the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        event = Event(self.now + delay, priority, seq, fn, label)
        heapq.heappush(self._queue, (event.time, priority, seq, event))
        return event

    def schedule_at(self, time: float, fn: Callable[[], None],
                    label: str = "", priority: int = 0) -> Event:
        """Schedule ``fn`` at absolute virtual time ``time`` (>= now)."""
        return self.schedule(time - self.now, fn, label=label,
                             priority=priority)

    def fork_rng(self, name: str) -> random.Random:
        """Return an independent RNG derived from the kernel seed.

        Subsystems that need their own stochastic stream (e.g. the failure
        injector) fork one so that adding draws in one subsystem does not
        perturb another.
        """
        return random.Random(f"{self._seed}:{name}")

    # -- execution ----------------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_events: int = 10_000_000) -> None:
        """Run events in order until the queue drains or ``until`` passes.

        Raises :class:`UsageError` when ``max_events`` fires, which almost
        always indicates a livelock (e.g. an unbounded retry loop).
        """
        if self._running:
            raise UsageError("simulator is not re-entrant")
        if self._suspended:
            raise UsageError("simulator is suspended (dead kernel)")
        self._running = True
        try:
            fired = 0
            while self._queue:
                time, _priority, _seq, event = self._queue[0]
                if until is not None and time > until:
                    self.now = until
                    return
                heapq.heappop(self._queue)
                if event.cancelled:
                    continue
                self.now = time
                if self._trace_digest is not None:
                    self._digest_event(time, event.label)
                event.fn()
                self.events_processed += 1
                if self._suspended:
                    # The event halted this kernel (whole-shard outage):
                    # stop immediately, freezing the clock at the halt
                    # instant.  Remaining events stay queued; they fire
                    # only if the kernel is resumed and advanced again.
                    return
                fired += 1
                if fired >= max_events:
                    raise UsageError(
                        f"simulation exceeded {max_events} events; "
                        f"likely livelock (last: {event.label!r})")
            if until is not None:
                self.now = until
        finally:
            self._running = False

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return sum(1 for *_xs, e in self._queue if not e.cancelled)

    # -- epoch / barrier hooks (sharded multi-world execution) --------------

    @property
    def suspended(self) -> bool:
        """True while the kernel is halted (a dead shard's machine)."""
        return self._suspended

    def suspend(self) -> None:
        """Halt the kernel at the current instant.  Idempotent.

        Models a whole-kernel outage in a sharded run: the clock
        freezes, queued events stay pending, and :meth:`run` /
        :meth:`run_epoch` refuse to advance until :meth:`resume`.  When
        called from *inside* an event callback the run loop stops right
        after that callback returns, so the kill event is the last
        thing the dying kernel executes.  Scheduling onto a suspended
        kernel stays legal — durable deliveries may be addressed to a
        dead shard and fire after it is resumed.
        """
        self._suspended = True

    def resume(self) -> None:
        """Lift a :meth:`suspend`.  The backlog runs on the next advance."""
        self._suspended = False

    def peek_time(self) -> Optional[float]:
        """Virtual time of the next live event (None when idle).

        Sharded runs use this as *lookahead*: the epoch driver can skip
        barriers no shard has work before, without perturbing event
        order.  Cancelled events at the head are discarded here (the
        heap guarantees only that the *root* is the minimum, so
        scanning past a cancelled root would return the wrong time).
        """
        while self._queue:
            time, _priority, _seq, event = self._queue[0]
            if event.cancelled:
                heapq.heappop(self._queue)
                continue
            return time
        return None

    def run_epoch(self, barrier: float,
                  max_events: int = 10_000_000) -> int:
        """Advance to the epoch ``barrier`` and stop there.

        Runs every event with ``time <= barrier`` and leaves the clock
        exactly at the barrier, so several kernels advanced to the same
        barrier have consistent virtual clocks — the lockstep primitive
        of :class:`~repro.node.sharded.ShardedWorld`.  Returns the
        number of events fired this epoch.
        """
        if barrier < self.now:
            raise UsageError(
                f"epoch barrier {barrier} is in the past (now={self.now})")
        before = self.events_processed
        self.run(until=barrier, max_events=max_events)
        return self.events_processed - before
