"""The simulated fabric: latency/bandwidth-modelled reliable transfer.

:class:`SimTransport` is the one message fabric of the simulation.
Every layer that moves bytes between nodes in one kernel (FT shadow
copies, protocol acknowledgements, the transfer cost charged into
transactions) uses ``world.transport``, which is always a
:class:`SimTransport`.  Cross-shard traffic leaves the fabric at the
bridge (:class:`~repro.node.sharded.CrossShardBridge`), but a message
it abandons is surfaced through the same :func:`surface_give_up` tail
as a direct send's, so the ``net.gave_up`` counter, the
``net-gave-up`` timeline event and the ``on_gave_up`` callback fire
identically whichever path lost it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.net.messages import Message
from repro.sim.timing import NetworkParams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.failures import FailureInjector
    from repro.sim.kernel import Simulator
    from repro.sim.metrics import Metrics

#: Signature of the delivery / give-up callbacks of one send.
SendCallback = Callable[[Message], None]


def surface_give_up(metrics: "Metrics", now: float, message: Message,
                    on_gave_up: Optional[SendCallback]) -> None:
    """Surface an abandoned message: never drop one silently.

    Increments ``net.gave_up``, records the ``net-gave-up`` timeline
    event and invokes ``on_gave_up`` when the sender passed one.  The
    fabric's retry loop and the cross-shard bridge both end here.

    Traffic that may cross a worker-process boundary cannot carry an
    ``on_gave_up`` closure: the bridge ships a declarative give-up tag
    (e.g. ``("shadow-lost", alt)``) and the source shard resolves it to
    the concrete callback before calling this function.
    """
    metrics.incr("net.gave_up")
    metrics.record(now, "net-gave-up", message_kind=message.kind,
                   src=message.src, dst=message.dst)
    if on_gave_up is not None:
        on_gave_up(message)


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
    and the per-send ``on_gave_up`` callback lets protocol drivers
    react (re-ship, fail over) instead of waiting for a delivery that
    will never come.
    """

    def __init__(self, sim: "Simulator", failures: "FailureInjector",
                 params: NetworkParams, metrics: "Metrics"):
        self.sim = sim
        self.failures = failures
        self.params = params
        self.metrics = metrics
        self._jitter_rng = sim.fork_rng("net-jitter")

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
             on_delivered: Optional[SendCallback] = None,
             on_gave_up: Optional[SendCallback] = None) -> Message:
        """Reliably deliver ``payload`` from ``src`` to ``dst``.

        Delivery is attempted now and re-attempted with backoff while
        either endpoint is down or the link is partitioned.  Bytes are
        charged once per successful transfer (retries before the payload
        moves cost only time).  ``on_delivered`` fires at the delivery
        instant; ``on_gave_up`` fires if ``params.max_retries`` is
        exhausted first.
        """
        message = Message(src=src, dst=dst, kind=kind, payload=payload,
                          size_bytes=size_bytes)
        self._attempt(message, on_delivered, on_gave_up)
        return message

    # -- internals -----------------------------------------------------------------

    def _retry(self, message: Message,
               on_delivered: Optional[SendCallback],
               on_gave_up: Optional[SendCallback]) -> None:
        """Count one failed attempt; back off and re-attempt, or give up."""
        message.retries += 1
        self.metrics.incr("net.retries")
        if message.retries > self.params.max_retries:
            surface_give_up(self.metrics, self.sim.now, message, on_gave_up)
            return
        self.sim.schedule(
            self.params.retry_backoff,
            lambda: self._attempt(message, on_delivered, on_gave_up),
            label=f"net-retry:{message.kind}")

    def _attempt(self, message: Message,
                 on_delivered: Optional[SendCallback],
                 on_gave_up: Optional[SendCallback]) -> None:
        if not self.reachable(message.src, message.dst):
            self._retry(message, on_delivered, on_gave_up)
            return
        delay = self.transfer_time(message.size_bytes)

        def _deliver() -> None:
            if not self.failures.node_up(message.dst):
                # Destination crashed while the message was in flight;
                # reliable transfer retries from the source.
                self._retry(message, on_delivered, on_gave_up)
                return
            self.metrics.incr("net.messages")
            self.metrics.incr(f"net.messages.{message.kind}")
            self.metrics.add_bytes("net.total", message.size_bytes)
            self.metrics.add_bytes(f"net.{message.kind}", message.size_bytes)
            if on_delivered is not None:
                on_delivered(message)

        self.sim.schedule(delay, _deliver, label=f"deliver:{message.kind}")
