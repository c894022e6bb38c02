"""World and launch specifications for the service gateway.

The gateway's whole determinism story rests on one property: a world
built from a :class:`WorldSpec` over HTTP is *the same world* a script
would build from the same spec — same topology, same seeds, same
resources — and a :class:`LaunchSpec` resolves to the same agent and
plan either way.  :func:`build_world` and :func:`resolve_launch` are
therefore the single construction path for both sides; the parity
tests and the service bench run one launch through the gateway and the
same spec pair scripted, and assert identical per-agent outcomes and
trace digests.

Topology is the benchmark tour ring (one :class:`~repro.resources.bank.
Bank` with ``merchant``/``escrow`` accounts plus one
:class:`~repro.resources.directory.InfoDirectory` per node — see
:func:`repro.bench.harness.build_tour_world`), across all three
execution backends (``world``, ``sharded``, ``proc``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.agent.packages import Protocol, RollbackMode
from repro.bench.workloads import BANK, DIRECTORY, TourAgent, make_tour_plan
from repro.errors import UsageError
from repro.resources.bank import Bank, OverdraftPolicy
from repro.resources.directory import InfoDirectory

BACKENDS = ("world", "sharded", "proc")


@dataclass
class WorldSpec:
    """Everything needed to (re)build one hosted world.

    The JSON body of ``POST /worlds`` deserializes into this (unknown
    keys are rejected); equal specs build bit-identical worlds.
    """

    backend: str = "world"
    nodes: int = 4
    n_shards: int = 2
    seed: int = 0
    epoch: Optional[float] = None
    journal: str = "memory"  # "memory" | "none"

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "WorldSpec":
        if not isinstance(data, dict):
            raise UsageError(f"world spec must be an object, got "
                             f"{type(data).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(data) - known)
        if unknown:
            raise UsageError(f"unknown world-spec key(s) {unknown}; "
                             f"known: {sorted(known)}")
        spec = cls(**data)
        spec.validate()
        return spec

    def validate(self) -> None:
        if self.backend not in BACKENDS:
            raise UsageError(f"unknown backend {self.backend!r}; "
                             f"choose from {BACKENDS}")
        if not isinstance(self.nodes, int) or self.nodes < 2:
            raise UsageError(f"nodes must be an int >= 2, got "
                             f"{self.nodes!r}")
        if not isinstance(self.n_shards, int) or self.n_shards < 1:
            raise UsageError(f"n_shards must be an int >= 1, got "
                             f"{self.n_shards!r}")
        if type(self.seed) is not int:
            raise UsageError(f"seed must be an int, got {self.seed!r}")
        if self.epoch is not None and not (
                type(self.epoch) in (int, float) and 0 < self.epoch < math.inf):
            raise UsageError(f"epoch must be null or a positive number, "
                             f"got {self.epoch!r}")
        if self.journal not in ("memory", "none"):
            raise UsageError(f"journal must be 'memory' or 'none', got "
                             f"{self.journal!r}")

    def to_json(self) -> dict[str, Any]:
        return {
            "backend": self.backend, "nodes": self.nodes,
            "n_shards": self.n_shards, "seed": self.seed,
            "epoch": self.epoch, "journal": self.journal,
        }

    def node_names(self) -> list[str]:
        return [f"n{i}" for i in range(self.nodes)]


@dataclass
class LaunchSpec:
    """One agent launch (the JSON body of ``POST /worlds/{id}/launch``).

    Resolves deterministically to a benchmark tour plan
    (:func:`repro.bench.workloads.make_tour_plan`) over the world's
    node ring plus a :class:`~repro.bench.workloads.TourAgent`, so the
    same spec produces the same agent whether it arrives over HTTP or
    from a script.
    """

    agent_id: Optional[str] = None  # host assigns "ag-N" when omitted
    steps: int = 8
    mode: str = "basic"
    protocol: str = "basic"
    mixed_fraction: float = 0.0
    ace_fraction: float = 0.0
    rollback_times: int = 1
    rollback_depth: Optional[int] = None
    tenant: str = "default"

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "LaunchSpec":
        if not isinstance(data, dict):
            raise UsageError(f"launch spec must be an object, got "
                             f"{type(data).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(data) - known)
        if unknown:
            raise UsageError(f"unknown launch-spec key(s) {unknown}; "
                             f"known: {sorted(known)}")
        spec = cls(**data)
        spec.validate()
        return spec

    def validate(self) -> None:
        if not isinstance(self.steps, int) or self.steps < 2:
            raise UsageError(f"steps must be an int >= 2, got "
                             f"{self.steps!r}")
        try:
            RollbackMode(self.mode)
        except ValueError:
            raise UsageError(
                f"unknown mode {self.mode!r}; choose from "
                f"{[m.value for m in RollbackMode]}") from None
        try:
            Protocol(self.protocol)
        except ValueError:
            raise UsageError(
                f"unknown protocol {self.protocol!r}; choose from "
                f"{[p.value for p in Protocol]}") from None

    def to_json(self) -> dict[str, Any]:
        return {
            "agent_id": self.agent_id, "steps": self.steps,
            "mode": self.mode, "protocol": self.protocol,
            "mixed_fraction": self.mixed_fraction,
            "ace_fraction": self.ace_fraction,
            "rollback_times": self.rollback_times,
            "rollback_depth": self.rollback_depth,
            "tenant": self.tenant,
        }


@dataclass
class ResolvedLaunch:
    """A launch spec bound to a concrete agent + launch kwargs."""

    agent: TourAgent
    at: str
    method: str
    kwargs: dict[str, Any] = field(default_factory=dict)
    tenant: str = "default"


def build_world(spec: WorldSpec):
    """Build the world one spec describes (plus its journal).

    Returns ``(world, journal_or_none)``.  Every backend takes the
    journal at construction, so it holds the whole run — topology
    included — and :func:`~repro.journal.resume_world` can rebuild the
    hosted world from it.
    """
    from repro.journal import MemoryJournal, WorldJournal
    from repro.node.procshard import ProcShardedWorld
    from repro.node.runtime import World
    from repro.node.sharded import ShardedWorld

    spec.validate()
    journal = (WorldJournal(MemoryJournal()) if spec.journal == "memory"
               else None)
    if spec.backend == "world":
        world: Any = World(seed=spec.seed, journal=journal)
    else:
        backend = ShardedWorld if spec.backend == "sharded" \
            else ProcShardedWorld
        world = backend(n_shards=spec.n_shards, seed=spec.seed,
                        epoch=spec.epoch, journal=journal)
    try:
        for i, name in enumerate(spec.node_names()):
            node = world.add_node(name)
            bank = Bank(BANK)
            bank.seed_account("merchant", 1_000_000,
                              overdraft=OverdraftPolicy.ALLOWED)
            bank.seed_account("escrow", 1_000_000,
                              overdraft=OverdraftPolicy.ALLOWED)
            node.add_resource(bank)
            directory = InfoDirectory(DIRECTORY)
            directory.publish("offers",
                              [{"item": "widget", "price": 10 + i}])
            node.add_resource(directory)
        world.enable_trace_digest()
    except BaseException:
        world.close()
        raise
    return world, journal


def resolve_launch(spec: LaunchSpec, world_spec: WorldSpec,
                   agent_id: str) -> ResolvedLaunch:
    """Bind a launch spec to a concrete agent over the world's ring."""
    spec.validate()
    plan = make_tour_plan(world_spec.node_names(), n_steps=spec.steps,
                          mixed_fraction=spec.mixed_fraction,
                          ace_fraction=spec.ace_fraction,
                          rollback_times=spec.rollback_times,
                          rollback_depth=spec.rollback_depth)
    agent = TourAgent(agent_id, plan)
    return ResolvedLaunch(
        agent=agent, at=plan.steps[0].node, method="run",
        kwargs={"mode": RollbackMode(spec.mode),
                "protocol": Protocol(spec.protocol)},
        tenant=spec.tenant)
