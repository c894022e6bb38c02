"""Simulated network: the pluggable transport stack.

Architecture (bottom up):

* :class:`~repro.net.transport.Transport` — the protocol every layer
  above codes against: reachability checks, the transfer cost model,
  and reliable ``send`` with explicit give-up surfacing.
* :class:`~repro.net.network.SimTransport` — the concrete fabric: a
  latency + bandwidth cost model, partition awareness, byte accounting
  and backoff-retry across node downtime.  "Reliable" matches the
  paper's assumption (Section 4.3): messages are never *silently* lost
  — delivery is retried with backoff, and when the retry budget is
  exhausted the failure is surfaced via the ``net.gave_up`` metric and
  the ``on_gave_up`` callback so protocol drivers can react.
* :class:`~repro.net.batching.BatchingTransport` — an optional
  decorator (``NetworkParams.batch_window``) that coalesces co-located
  messages for the same link into one framed transfer, amortizing
  per-message latency at high agent counts while preserving
  delivery semantics (retries, partitions, per-kind metrics,
  split-on-give-up).
"""

from repro.net.batching import BatchingTransport
from repro.net.messages import Message
from repro.net.network import SimTransport
from repro.net.transport import Transport

__all__ = ["Transport", "SimTransport", "BatchingTransport", "Message"]
