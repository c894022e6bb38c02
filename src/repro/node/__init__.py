"""Node runtime and world wiring.

A :class:`~repro.node.node.Node` hosts transactional resources, one
durable agent input queue, a transaction manager and the dispatch loop
that turns queued agent packages into step or compensation
transactions.  A :class:`~repro.node.runtime.World` owns the simulator,
the message fabric (see :mod:`repro.net.network`), the failure
injector, the set of nodes, the protocol drivers and the per-agent
records — it is the facade examples, tests and benches build scenarios
with.  A :class:`~repro.node.sharded.ShardedWorld` partitions the node
set across several independent kernels behind the same facade, scaling
concurrent-agent workloads past what one event queue can hold.
"""

from repro.node.node import Node
from repro.node.procshard import ProcShardedWorld
from repro.node.runtime import AgentRecord, AgentStatus, World
from repro.node.sharded import CrossShardBridge, ShardedWorld, ShardWorld

__all__ = ["Node", "World", "AgentRecord", "AgentStatus", "ShardedWorld",
           "ShardWorld", "CrossShardBridge", "ProcShardedWorld"]
