"""The simulated fabric: latency/bandwidth-modelled reliable transfer.

This module holds the concrete :class:`~repro.net.transport.Transport`
implementation for the discrete-event simulation.  It used to be a
monolithic ``Network`` class that every layer called directly; it is
now one pluggable fabric behind the Transport interface (see
:mod:`repro.net.transport` for the architecture), optionally wrapped by
the batching layer (:mod:`repro.net.batching`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.net.messages import Message
from repro.net.transport import surface_give_up
from repro.sim.timing import NetworkParams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.failures import FailureInjector
    from repro.sim.kernel import Simulator
    from repro.sim.metrics import Metrics


class SimTransport:
    """Latency/bandwidth-modelled, partition-aware message fabric.

    Two services are offered:

    * :meth:`reachable` — instantaneous reachability (both endpoints up,
      link not partitioned); used by the commit coordinator and the
      rollback drivers, which implement their own retry policies.
    * :meth:`send` — reliable delivery with backoff-retry across
      downtime; used for fire-and-forget traffic (FT shadow copies,
      acknowledgements) where the paper assumes reliable transfer.

    Reliability is bounded by ``params.max_retries``: when a message
    exhausts its retry budget the failure is *surfaced*, never
    swallowed — the ``net.gave_up`` counter and timeline event fire,
    and the per-send ``on_gave_up`` callback (or the transport-wide
    :attr:`on_gave_up` default) lets protocol drivers react (re-ship,
    fail over) instead of waiting for a delivery that will never come.
    """

    def __init__(self, sim: "Simulator", failures: "FailureInjector",
                 params: NetworkParams, metrics: "Metrics"):
        self.sim = sim
        self.failures = failures
        self.params = params
        self.metrics = metrics
        self._handlers: dict[str, Callable[[Message], None]] = {}
        self._jitter_rng = sim.fork_rng("net-jitter")
        #: Transport-wide fallback invoked when a send without its own
        #: ``on_gave_up`` exhausts the retry budget.
        self.on_gave_up: Optional[Callable[[Message], None]] = None

    # -- wiring ---------------------------------------------------------------

    def register(self, node: str, handler: Callable[[Message], None]) -> None:
        """Install the delivery handler for ``node``."""
        self._handlers[node] = handler

    # -- queries ----------------------------------------------------------------

    def reachable(self, a: str, b: str) -> bool:
        """True when a message sent now from ``a`` would reach ``b``."""
        if a == b:
            return self.failures.node_up(a)
        return (self.failures.node_up(a) and self.failures.node_up(b)
                and self.failures.link_up(a, b))

    def transfer_time(self, size_bytes: int) -> float:
        """One-way transfer duration for a payload of ``size_bytes``."""
        base = self.params.transfer_time(size_bytes)
        if self.params.jitter:
            base *= 1.0 + self._jitter_rng.uniform(0, self.params.jitter)
        return base

    # -- transfer ------------------------------------------------------------------

    def send(self, src: str, dst: str, kind: str, payload: Any,
             size_bytes: int,
             on_delivered: Optional[Callable[[Message], None]] = None,
             on_gave_up: Optional[Callable[[Message], None]] = None
             ) -> Message:
        """Reliably deliver ``payload`` from ``src`` to ``dst``.

        Delivery is attempted now and re-attempted with backoff while
        either endpoint is down or the link is partitioned.  Bytes are
        charged once per successful transfer (retries before the payload
        moves cost only time).  ``on_delivered`` fires at the delivery
        instant, after the destination handler ran; ``on_gave_up`` fires
        if ``params.max_retries`` is exhausted first.
        """
        message = Message(src=src, dst=dst, kind=kind, payload=payload,
                          size_bytes=size_bytes)
        self.transmit(message, on_delivered, on_gave_up)
        return message

    def transmit(self, message: Message,
                 on_delivered: Optional[Callable[[Message], None]] = None,
                 on_gave_up: Optional[Callable[[Message], None]] = None
                 ) -> None:
        """Deliver an already-constructed message (see :meth:`send`)."""
        self._attempt(message, on_delivered, on_gave_up)

    # -- internals -----------------------------------------------------------------

    def _gave_up(self, message: Message,
                 on_gave_up: Optional[Callable[[Message], None]]) -> None:
        surface_give_up(self.metrics, self.sim.now, message, on_gave_up,
                        default=self.on_gave_up)

    def _attempt(self, message: Message,
                 on_delivered: Optional[Callable[[Message], None]],
                 on_gave_up: Optional[Callable[[Message], None]]) -> None:
        if not self.reachable(message.src, message.dst):
            message.retries += 1
            self.metrics.incr("net.retries")
            if message.retries > self.params.max_retries:
                self._gave_up(message, on_gave_up)
                return
            self.sim.schedule(
                self.params.retry_backoff,
                lambda: self._attempt(message, on_delivered, on_gave_up),
                label=f"net-retry:{message.kind}")
            return
        delay = self.transfer_time(message.size_bytes)

        def _deliver() -> None:
            if not self.failures.node_up(message.dst):
                # Destination crashed while the message was in flight;
                # reliable transfer retries from the source.
                message.retries += 1
                self.metrics.incr("net.retries")
                if message.retries > self.params.max_retries:
                    self._gave_up(message, on_gave_up)
                    return
                self.sim.schedule(
                    self.params.retry_backoff,
                    lambda: self._attempt(message, on_delivered, on_gave_up),
                    label=f"net-retry:{message.kind}")
                return
            self.metrics.incr("net.messages")
            self.metrics.incr(f"net.messages.{message.kind}")
            self.metrics.add_bytes("net.total", message.size_bytes)
            self.metrics.add_bytes(f"net.{message.kind}", message.size_bytes)
            handler = self._handlers.get(message.dst)
            if handler is not None:
                handler(message)
            if on_delivered is not None:
                on_delivered(message)

        self.sim.schedule(delay, _deliver, label=f"deliver:{message.kind}")
