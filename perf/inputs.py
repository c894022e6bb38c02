"""Seeded input generator: the program only ever sees what this emits.

``--seed`` drives one :class:`random.Random` here and nothing else.  It
picks each agent's itinerary rotation, the order of its step kinds, the
amounts it moves and the savepoints it rolls back to.  Rotations, kinds
and rollback targets are *dealt* (a fixed multiset, shuffled) rather
than drawn independently, so two seeds give different agents but about
the same amount of work.

About, not exactly: which agents meet at which bank decides how many
steps abort on a lock conflict, and on ``ft-crossshard`` how many
barriers the outage costs, so one seed's run differs from another's by
up to a tenth.  A seed therefore names a *sequence* of input sets,
``variant`` 0, 1, 2, ...; each repetition of a run takes the next one,
and the run's medians average over them.

Sizes are frozen here.  ``SMOKE`` shrinks every workload for the smoke
test; its numbers mean nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Optional

WORKLOADS = ("tour-rollback", "swarm-local", "ft-crossshard",
             "journal-resume", "service-launch")

#: Step kinds, in the proportion every agent gets them (then shuffled).
KIND_PATTERN = ("rce", "mixed", "ace", "none", "rce", "rce", "mixed", "ace")

FULL: dict[str, dict[str, Any]] = {
    "tour-rollback": dict(nodes=12, agents=64, steps=16, ballast=2_000,
                          savepoint_every=4, rollbacks=2),
    "swarm-local": dict(nodes=12, agents=64, steps=12, ballast=60_000,
                        savepoint_every=4, rollbacks=1, n_shards=2,
                        epoch=1.0),
    "ft-crossshard": dict(nodes=6, agents=24, steps=8, ballast=2_000,
                          savepoint_every=4, rollbacks=1, n_shards=2,
                          kill_at=0.08, restart_at=2.0),
    "journal-resume": dict(nodes=6, agents=24, steps=16, ballast=8_000,
                           savepoint_every=4, rollbacks=1, n_shards=2,
                           kill_fraction=0.75),
    "service-launch": dict(nodes=4, n_shards=2, launches=200, inflight=2,
                           steps=4, mixed_fraction=0.25),
}

SMOKE: dict[str, dict[str, Any]] = {
    "tour-rollback": dict(FULL["tour-rollback"], agents=8, steps=8),
    "swarm-local": dict(FULL["swarm-local"], nodes=4, agents=4, steps=8,
                        ballast=4_000),
    "ft-crossshard": dict(FULL["ft-crossshard"], agents=3, steps=4),
    "journal-resume": dict(FULL["journal-resume"], agents=4, steps=8,
                           ballast=1_000),
    "service-launch": dict(FULL["service-launch"], launches=6),
}


@dataclass(frozen=True)
class StepSpec:
    """One tour step: where it runs, what it does, how much it moves."""

    node: str
    kind: str  # "rce" | "ace" | "mixed" | "none"
    amount: int
    savepoint: Optional[str]  # constituted at the end of this step


@dataclass(frozen=True)
class AgentSpec:
    """Everything one generated agent needs; immutable and picklable."""

    agent_id: str
    steps: tuple[StepSpec, ...]
    decision_node: str
    #: Savepoint to roll back to on the 1st, 2nd, ... visit of the
    #: decision step; the agent finishes once the list is exhausted.
    rollback_targets: tuple[str, ...]
    mode: str      # RollbackMode value
    protocol: str  # Protocol value
    ballast: int   # bytes of inert strongly-reversible payload


@dataclass(frozen=True)
class Inputs:
    """One workload's generated inputs for one seed."""

    workload: str
    seed: int
    variant: int
    size: dict[str, Any]
    ring: tuple[str, ...]
    agents: tuple[AgentSpec, ...] = ()
    #: ``service-launch`` only: the JSON bodies to POST, in order.
    launches: tuple[dict[str, Any], ...] = ()


def _dealt(rng: random.Random, values: list, count: int) -> list:
    """``count`` items cycling through ``values``, in seeded order."""
    items = [values[i % len(values)] for i in range(count)]
    rng.shuffle(items)
    return items


def _itinerary(workload: str, ring: tuple[str, ...], agent_index: int,
               offset: int, hops: int) -> list[str]:
    """Node of each hop (``hops`` = steps + the decision step)."""
    if workload != "swarm-local":
        return [ring[(offset + j) % len(ring)] for j in range(hops)]
    # Partition-keyed: round-robin placement puts even nodes on shard
    # 0 and odd ones on shard 1; an agent stays on its home shard's
    # nodes except every 4th hop, which crosses to the other shard.
    home = agent_index % 2
    parts = (ring[0::2], ring[1::2])
    nodes = []
    for j in range(hops):
        part = parts[1 - home] if j % 4 == 3 else parts[home]
        nodes.append(part[(offset + j) % len(part)])
    return nodes


def make_inputs(workload: str, seed: int, variant: int = 0,
                smoke: bool = False) -> Inputs:
    """Input set ``variant`` of ``workload`` for ``seed``.

    The same (seed, variant) gives the same inputs, always.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {WORKLOADS}")
    size = dict((SMOKE if smoke else FULL)[workload])
    rng = random.Random(f"perf:{workload}:{seed}:{variant}")
    ring = tuple(f"n{i}" for i in range(size["nodes"]))
    if workload == "service-launch":
        count = size["launches"]
        modes = _dealt(rng, ["basic", "optimized"], count)
        aces = _dealt(rng, [0.0, 0.25], count)
        launches = tuple(
            {"agent_id": f"svc-{k}", "steps": size["steps"],
             "mixed_fraction": size["mixed_fraction"],
             "ace_fraction": aces[k], "mode": modes[k]}
            for k in range(count))
        return Inputs(workload, seed, variant, size, ring, launches=launches)

    count, steps = size["agents"], size["steps"]
    every = size["savepoint_every"]
    savepoints = [f"sp-{i}" for i in range(0, steps, every)]
    # Roll back to any savepoint but the very first: depths of
    # 4 .. steps-4 committed steps, in equal shares.
    targets = [_dealt(rng, savepoints[1:] or savepoints, count)
               for _ in range(size["rollbacks"])]
    offsets = _dealt(rng, list(range(len(ring))), count)
    modes = _dealt(rng, ["basic", "optimized"], count)
    protocol = "ft" if workload == "ft-crossshard" else "basic"
    agents = []
    for a in range(count):
        kinds = _dealt(rng, list(KIND_PATTERN), steps)
        nodes = _itinerary(workload, ring, a, offsets[a], steps + 1)
        agents.append(AgentSpec(
            agent_id=f"{workload}-{a}",
            steps=tuple(
                StepSpec(node=nodes[j], kind=kinds[j],
                         amount=rng.randint(1, 50),
                         savepoint=f"sp-{j}" if j % every == 0 else None)
                for j in range(steps)),
            decision_node=nodes[steps],
            rollback_targets=tuple(t[a] for t in targets),
            mode=modes[a], protocol=protocol,
            ballast=size["ballast"]))
    return Inputs(workload, seed, variant, size, ring,
                  agents=tuple(agents))
