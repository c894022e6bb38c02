"""Failure injection: node crashes/recoveries and link partitions.

The paper's fault model (Section 4.3) assumes *non-lasting* node and
network crashes and reliable data transfer.  The injector produces
exactly that: every crash is paired with a recovery a finite time later,
and partitions heal.  Injection is driven either by an explicit
:class:`CrashPlan` (used by unit tests to hit precise windows) or by a
stochastic schedule derived from the kernel seed (used by the
fault-tolerance benches).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class CrashPlan:
    """One planned outage: ``node`` is down during [at, at + duration)."""

    node: str
    at: float
    duration: float

    @property
    def recovery_time(self) -> float:
        return self.at + self.duration


@dataclass(frozen=True)
class PartitionPlan:
    """One planned partition of the link between two nodes (symmetric)."""

    a: str
    b: str
    at: float
    duration: float

    @property
    def heal_time(self) -> float:
        return self.at + self.duration


class FailureInjector:
    """Schedules crash/recover and partition/heal events on a simulator.

    Components register callbacks per node via :meth:`on_crash` /
    :meth:`on_recover`; the network consults :meth:`link_up` before
    delivering.
    """

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._rng = sim.fork_rng("failures")
        self._down: frozenset[str] = frozenset()
        self._partitioned: set[frozenset[str]] = set()
        self._crash_handlers: dict[str, list[Callable[[], None]]] = {}
        self._recover_handlers: dict[str, list[Callable[[], None]]] = {}
        self.crashes_injected = 0
        self.partitions_injected = 0

    # -- registration --------------------------------------------------------

    def on_crash(self, node: str, fn: Callable[[], None]) -> None:
        """Run ``fn`` (at crash time) whenever ``node`` crashes."""
        self._crash_handlers.setdefault(node, []).append(fn)

    def on_recover(self, node: str, fn: Callable[[], None]) -> None:
        """Run ``fn`` (at recovery time) whenever ``node`` recovers."""
        self._recover_handlers.setdefault(node, []).append(fn)

    # -- state queries --------------------------------------------------------

    def node_up(self, node: str) -> bool:
        """True when ``node`` is currently up."""
        return node not in self._down

    def link_up(self, a: str, b: str) -> bool:
        """True when the (symmetric) link between ``a`` and ``b`` works."""
        return frozenset((a, b)) not in self._partitioned

    def down_nodes(self) -> frozenset[str]:
        """The currently-down node set.

        Immutable: every crash and recovery replaces it, so holding it
        is a snapshot for free.  A sharded world's barrier view holds
        each shard's set this way, and rebuilds only when one changed.
        """
        return self._down

    # -- planned injection -----------------------------------------------------

    def apply_plan(self, plans: Iterable[CrashPlan]) -> None:
        """Schedule every outage in ``plans``."""
        for plan in plans:
            self.sim.schedule_at(plan.at, lambda n=plan.node: self._crash(n),
                                 label=f"crash:{plan.node}", priority=-10)
            self.sim.schedule_at(plan.recovery_time,
                                 lambda n=plan.node: self._recover(n),
                                 label=f"recover:{plan.node}", priority=-10)

    def apply_partitions(self, plans: Iterable[PartitionPlan]) -> None:
        """Schedule every partition in ``plans``."""
        for plan in plans:
            key = frozenset((plan.a, plan.b))
            self.sim.schedule_at(
                plan.at, lambda k=key: self._partition(k),
                label=f"partition:{plan.a}-{plan.b}", priority=-10)
            self.sim.schedule_at(
                plan.heal_time, lambda k=key: self._heal(k),
                label=f"heal:{plan.a}-{plan.b}", priority=-10)

    def random_outages(self, nodes: Iterable[str], horizon: float,
                       rate_per_s: float, mean_downtime: float,
                       min_downtime: float = 0.01) -> list[CrashPlan]:
        """Generate a Poisson outage schedule over ``[0, horizon]``.

        Returns the plans (already scheduled) so benches can report them.
        Outages for one node never overlap.
        """
        plans: list[CrashPlan] = []
        for node in nodes:
            t = 0.0
            while True:
                if rate_per_s <= 0:
                    break
                t += self._rng.expovariate(rate_per_s)
                if t >= horizon:
                    break
                downtime = max(min_downtime,
                               self._rng.expovariate(1.0 / mean_downtime))
                plans.append(CrashPlan(node, t, downtime))
                t += downtime
        self.apply_plan(plans)
        return plans

    # -- transitions ------------------------------------------------------------

    def _crash(self, node: str) -> None:
        if node in self._down:
            return
        self._down = self._down | {node}
        self.crashes_injected += 1
        for fn in self._crash_handlers.get(node, []):
            fn()

    def _recover(self, node: str) -> None:
        if node not in self._down:
            return
        self._down = self._down - {node}
        for fn in self._recover_handlers.get(node, []):
            fn()

    def _partition(self, key: frozenset) -> None:
        self._partitioned.add(key)
        self.partitions_injected += 1

    def _heal(self, key: frozenset) -> None:
        self._partitioned.discard(key)

    # -- direct control (tests) ---------------------------------------------------

    def force_crash(self, node: str) -> None:
        """Immediately crash ``node`` (test hook)."""
        self._crash(node)

    def force_recover(self, node: str) -> None:
        """Immediately recover ``node`` (test hook)."""
        self._recover(node)

    def force_partition(self, a: str, b: str) -> None:
        """Immediately partition the a-b link (test hook)."""
        self._partition(frozenset((a, b)))

    def force_heal(self, a: str, b: str) -> None:
        """Immediately heal the a-b link (test hook)."""
        self._heal(frozenset((a, b)))
