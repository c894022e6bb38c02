"""One network node: resources, durable queue, dispatch loop."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.agent.packages import AgentPackage, PackageKind
from repro.errors import UsageError
from repro.resources.base import TransactionalResource
from repro.storage.queues import AgentInputQueue, QueueItem
from repro.storage.serialization import capture
from repro.storage.stable import StableStore
from repro.tx.manager import TransactionManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compensation.registry import CompensationRegistry
    from repro.node.runtime import World
    from repro.sim.kernel import Simulator
    from repro.sim.timing import TimingModel


class Node:
    """An agent server: executes steps and compensations for visitors.

    Durable across crashes: the input queue, the stable store and the
    committed state of hosted resources.  Volatile (wiped by a crash):
    in-flight transactions (aborted with full undo) and the dispatch
    schedule (rebuilt by a queue rescan at recovery) — this is exactly
    the recovery behaviour the paper's protocols rely on.

    A node never talks to the network directly: packages leave through
    the world's shipping helpers (which use the world's fabric and
    the delivery seam, see :mod:`repro.node.runtime`) and arrive by
    appearing in the durable input queue — whether enqueued by a local
    commit, an FT shadow delivery, or a cross-shard bridge injection.
    """

    def __init__(self, name: str, world: "World"):
        self.name = name
        self.world = world
        self.queue = AgentInputQueue(name)
        self.stable = StableStore(f"{name}.stable")
        self.txm = TransactionManager(name)
        self.resources: dict[str, TransactionalResource] = {}
        self._scheduled: set[int] = set()  # volatile dispatch dedupe
        self.pending_rollback: dict[int, str] = {}  # volatile: item -> spID
        self.queue.on_visible = self._on_visible
        world.failures.on_crash(name, self._on_crash)
        world.failures.on_recover(name, self._on_recover)

    # -- conveniences ---------------------------------------------------------

    @property
    def sim(self) -> "Simulator":
        return self.world.sim

    @property
    def timing(self) -> "TimingModel":
        return self.world.timing

    @property
    def registry(self) -> "CompensationRegistry":
        return self.world.registry

    @property
    def up(self) -> bool:
        return self.world.failures.node_up(self.name)

    # -- resources ----------------------------------------------------------------

    def add_resource(self, resource: TransactionalResource) -> TransactionalResource:
        """Host ``resource`` on this node."""
        if resource.name in self.resources:
            raise UsageError(f"{self.name}: resource {resource.name!r} exists")
        self.world.facade._journal_op("add_resource", node=self.name,
                                      blob=capture(resource))
        resource.attach(self.name)
        self.resources[resource.name] = resource
        return resource

    def share_resource(self, resource: TransactionalResource) -> None:
        """Host a resource replicated on several nodes (FT rollback).

        The resource keeps its primary attachment; this node gains
        access for alternate compensation execution.  Like
        :meth:`add_resource`, a name this node already hosts is refused
        before anything is journaled.
        """
        if resource.name in self.resources:
            raise UsageError(f"{self.name}: resource {resource.name!r} exists")
        self.world.facade._journal_op("share_resource", node=self.name,
                                      from_node=resource.node,
                                      name=resource.name)
        self.resources[resource.name] = resource

    def share_resource_from(self, from_node: str, name: str) -> None:
        """Share ``from_node``'s resource ``name`` (see
        :meth:`share_resource`): the by-name form every backend's nodes
        take, which is how a journal replays the op."""
        self.share_resource(
            self.world.facade.node(from_node).get_resource(name))

    def get_resource(self, name: str) -> TransactionalResource:
        resource = self.resources.get(name)
        if resource is None:
            raise UsageError(f"{self.name}: no resource {name!r}")
        return resource

    # -- dispatch loop ---------------------------------------------------------------

    def _on_visible(self, item: QueueItem) -> None:
        """A package became visible in the queue (enqueue or undo)."""
        if not self.up:
            return  # recovery rescan will pick it up
        delay = 0.0
        if item.attempts:
            backoff = self.world.net_params.retry_backoff
            delay = backoff * min(item.attempts, 8)
        self.request_dispatch(item, delay)

    def request_dispatch(self, item: QueueItem, delay: float = 0.0) -> None:
        """Schedule processing of ``item`` exactly once per visibility."""
        if item.item_id in self._scheduled:
            return
        self._scheduled.add(item.item_id)
        self.sim.schedule(delay, lambda: self._dispatch(item.item_id),
                          label=f"dispatch:{self.name}:{item.item_id}")

    def _dispatch(self, item_id: int) -> None:
        self._scheduled.discard(item_id)
        if not self.up:
            return
        item = self._find(item_id)
        if item is None:
            return  # consumed by an earlier transaction
        package = item.payload
        if not isinstance(package, AgentPackage):  # pragma: no cover
            raise UsageError(f"{self.name}: queue holds non-package payload")
        if package.kind is PackageKind.SHADOW:
            return  # inert until promoted by the FT watchdog
        sp_id = self.pending_rollback.pop(item_id, None)
        if package.kind is PackageKind.STEP and sp_id is not None:
            driver = self.world.rollback_driver(package.mode)
            driver.start_rollback(self, item, sp_id)
            return
        if package.kind is PackageKind.STEP:
            self.world.step_protocol.execute(self, item)
            return
        driver = self.world.rollback_driver(package.mode)
        driver.execute_compensation(self, item)

    def _find(self, item_id: int) -> Optional[QueueItem]:
        for item in self.queue.items():
            if item.item_id == item_id:
                return item
        return None

    # -- crash / recovery ----------------------------------------------------------------

    def _on_crash(self) -> None:
        aborted = self.txm.abort_all()
        if aborted:
            self.world.metrics.incr("crash.tx_aborted", aborted)
        self._scheduled.clear()
        self.pending_rollback.clear()
        self.world.metrics.incr("crash.count")
        self.world.metrics.record(self.sim.now, "crash", node=self.name)

    def _on_recover(self) -> None:
        self.world.metrics.record(self.sim.now, "recover", node=self.name)
        for item in self.queue.items():
            self.request_dispatch(item)
