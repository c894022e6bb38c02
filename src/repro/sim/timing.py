"""Virtual-time cost model.

The paper's evaluation platform (Mole on a LAN of agent servers) is
replaced by a simulation; this module centralises every duration the
simulation charges, so benchmark sweeps can vary the cost model without
touching protocol code.  Defaults are loosely calibrated to a late-90s
LAN (milliseconds), matching the environment the paper targets; all
benches report *relative* behaviour, which is what the paper's claims are
about.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class TimingModel:
    """Durations (virtual seconds) charged by the runtime.

    Attributes
    ----------
    resource_op:
        One operation invoked on a transactional resource during a step.
    compensation_op:
        One compensating operation executed during a compensation
        transaction.  Charged per operation entry.
    stable_write_per_kb / stable_read_per_kb:
        Durable queue / stable-storage I/O, proportional to payload size.
    stable_io_fixed:
        Fixed cost of one stable-storage access (seek + sync).
    serialize_per_kb:
        Capturing (pickling) or re-instantiating agent state.
    tx_begin / tx_commit_local:
        Local transaction bookkeeping.
    two_pc_round:
        One coordinator<->participant round of the distributed commit
        (charged per remote participant, on top of network latency).
    step_body_fixed:
        Fixed cost of dispatching a step method.
    rpc_request_fixed:
        Fixed server-side cost of handling one remote request (used by the
        RCE-shipping path and the RPC-vs-migration model).
    """

    resource_op: float = 0.002
    compensation_op: float = 0.002
    stable_write_per_kb: float = 0.0004
    stable_read_per_kb: float = 0.0002
    stable_io_fixed: float = 0.004
    serialize_per_kb: float = 0.0002
    tx_begin: float = 0.0005
    tx_commit_local: float = 0.001
    two_pc_round: float = 0.002
    step_body_fixed: float = 0.001
    rpc_request_fixed: float = 0.001

    def stable_write(self, size_bytes: int) -> float:
        """Cost of durably writing ``size_bytes`` to stable storage."""
        return self.stable_io_fixed + self.stable_write_per_kb * (size_bytes / 1024.0)

    def stable_read(self, size_bytes: int) -> float:
        """Cost of reading ``size_bytes`` back from stable storage."""
        return self.stable_io_fixed + self.stable_read_per_kb * (size_bytes / 1024.0)

    def serialize(self, size_bytes: int) -> float:
        """Cost of capturing or re-instantiating ``size_bytes`` of state."""
        return self.serialize_per_kb * (size_bytes / 1024.0)

    def scaled(self, factor: float) -> "TimingModel":
        """Return a copy with every duration multiplied by ``factor``."""
        return replace(self, **{
            name: getattr(self, name) * factor
            for name in (
                "resource_op", "compensation_op", "stable_write_per_kb",
                "stable_read_per_kb", "stable_io_fixed", "serialize_per_kb",
                "tx_begin", "tx_commit_local", "two_pc_round",
                "step_body_fixed", "rpc_request_fixed",
            )
        })


@dataclass(frozen=True)
class NetworkParams:
    """Network cost/behaviour parameters.

    Attributes
    ----------
    latency:
        One-way propagation delay between any two distinct nodes.
    bandwidth_bytes_per_s:
        Serialisation rate for message payloads.
    jitter:
        Uniform jitter fraction applied to latency (0 disables).
    retry_backoff:
        Delay before a reliable-transfer retry after hitting a down node
        or a partitioned link.
    max_retries:
        Retries before the sender gives up for this attempt and surfaces
        the failure to the caller's retry policy (the protocol layer
        retries again later; "reliable network" per the paper means
        messages are never silently lost, not that nodes are always up).
    """

    latency: float = 0.005
    bandwidth_bytes_per_s: float = 1_250_000.0  # 10 Mbit/s LAN
    jitter: float = 0.0
    retry_backoff: float = 0.05
    max_retries: int = 10_000

    def transfer_time(self, size_bytes: int) -> float:
        """One-way time to move ``size_bytes`` (latency + serialisation)."""
        return self.latency + size_bytes / self.bandwidth_bytes_per_s


DEFAULT_TIMING = TimingModel()
DEFAULT_NETWORK = NetworkParams()
