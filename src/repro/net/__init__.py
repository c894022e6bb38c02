"""Simulated network: one reliable message fabric.

* :class:`~repro.net.network.SimTransport` — the fabric: a latency +
  bandwidth cost model, partition awareness, byte accounting and
  backoff-retry across node downtime.  "Reliable" matches the paper's
  assumption (Section 4.3): messages are never *silently* lost —
  delivery is retried with backoff, and when the retry budget is
  exhausted the failure is surfaced via the ``net.gave_up`` metric and
  the ``on_gave_up`` callback so protocol drivers can react.
* :class:`~repro.net.messages.Message` — the envelope of one send.
"""

from repro.net.messages import Message
from repro.net.network import SimTransport

__all__ = ["SimTransport", "Message"]
