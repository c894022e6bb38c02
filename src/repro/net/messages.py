"""Message envelope used by the simulated network."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.scope import current as current_scope


@dataclass
class Message:
    """One network message.

    ``kind`` is a free-form routing tag ("agent-package", "rce-list",
    "rce-ack", "shadow-copy", ...) used for metric breakdowns and test
    assertions; ``payload`` is any picklable object; ``size_bytes`` is
    the serialised size charged against bandwidth.
    """

    src: str
    dst: str
    kind: str
    payload: Any
    size_bytes: int
    msg_id: int = field(default_factory=lambda: current_scope().mint("message"))
    retries: int = 0
