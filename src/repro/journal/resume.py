"""Crash recovery: rebuild a world from its journal and continue.

The recovery structure is checkpoint-then-replay: the journal holds
the *inputs* of the run (seeded config + the ops) plus one commit
marker per epoch barrier.  :func:`resume_world`

1. parses the journal and picks the recovery frontier — the last
   committed barrier (:meth:`~repro.journal.journal.WorldJournal.
   recover` already applied the torn-tail rule);
2. rebuilds the world from the config record, with the journal
   attached but **disarmed**, so the replayed prefix is not written a
   second time;
3. re-applies the ops in journal order, interleaved with
   deterministic re-execution of the journaled *barrier sequence* (the
   run drivers expose ``_replay``, which walks the committed barriers
   verbatim — *not* ``until``, which would run one extra same-time
   epoch and fork the schedule, and not a stop-value, which is
   ambiguous when two commits land on the same barrier instant);
4. verifies the frontier digest — per-shard event counts at the
   committed barrier — and raises
   :class:`~repro.errors.JournalDiverged` on any mismatch;
5. truncates the journal to the frontier, re-arms it, and returns the
   world, positioned to continue exactly where the commit left it.

Because the heavily-tested determinism invariant makes re-execution
bit-identical, the resumed run's outcomes, per-bank effect sums and
exactly-once ledger state match an uninterrupted run of the same
program — the property the crash-resume differential axis asserts on
all three execution backends.
"""

from __future__ import annotations

from typing import Any

from repro.errors import JournalDiverged, UsageError
from repro.journal.journal import OP_KINDS, RecoveredRun, WorldJournal
from repro.storage.serialization import restore


def resume_world(journal: WorldJournal):
    """Rebuild the journaled world and replay it to the last commit.

    Re-opens a journal written by a crashed (or killed) run: rebuilds
    the world from the config record (any backend — ``World``,
    ``ShardedWorld``, ``ProcShardedWorld`` — with its recorded seed,
    shard count, epoch and world keywords), re-applies the ops
    (topology, launches, crash/kill plans), deterministically
    re-executes the committed barrier sequence, verifies the event
    digest of every replayed barrier, then re-arms the journal so the
    returned world continues journaling where the crash cut off.
    Torn tails (a commit marker interrupted mid-write, e.g.
    ``kill_world(phase="barrier")``) are discarded: recovery falls
    back to the last *complete* commit marker.

    Args:
        journal: The :class:`WorldJournal` to recover — typically
            constructed over the same backend file/db the crashed run
            wrote.

    Returns:
        The rebuilt world, positioned exactly at the recovery
        frontier.  Caller owns closing it.

    Raises:
        JournalCorrupt: Frame damage *before* the physical tail (torn
            tails are tolerated; interior damage is not).
        JournalDiverged: The replayed execution's digest differs from
            the committed one — the environment or code no longer
            reproduces the journaled run.
        JournalError: An empty/config-less journal.
    """
    recovered = journal.recover()
    journal.disarm()
    world = _build_world(recovered.config, journal)
    try:
        barriers: list[float] = []
        frontier: dict[str, Any] | None = None
        for kind, data in recovered.entries:
            if kind == "epoch":
                barriers.append(data["barrier"])
                frontier = data
            elif kind in OP_KINDS:
                if barriers:
                    world.run(_replay=barriers)
                    barriers = []
                _apply_op(world, kind, data)
            # Any other kind is an effect record of a journal written
            # before the journal kept only config + ops + markers;
            # replay re-creates its effect by re-execution.
        if barriers:
            world.run(_replay=barriers)
        if frontier is not None:
            _verify_frontier(world, frontier)
    except BaseException:
        world.close()
        raise
    journal.rearm(recovered)
    return world


def _build_world(config: dict[str, Any], journal: WorldJournal):
    from repro.node.procshard import ProcShardedWorld
    from repro.node.runtime import World
    from repro.node.sharded import ShardedWorld

    backend = config.get("backend")
    # Journals written when a running world could still take a journal
    # mid-run carry a ``live_attach`` marker: they lack the run's
    # prefix, so nothing can be rebuilt from them.
    live = config.get("live_attach")
    if live is not None:
        raise UsageError(
            f"journal was attached to an already-running world (at "
            f"t={live.get('at')}, {live.get('events_processed')} events "
            f"in) and lacks the run's prefix — it is a telemetry/audit "
            f"journal, not a resumable one")
    # The config is read by name, so keys older journals also carry
    # for retired knobs (``lockstep``, ``start_method``,
    # ``journal_epoch``, the ring wire's ``ipc`` and ``ring_size``) are
    # ignored.  A journal whose run the current schedule no longer
    # reproduces fails the frontier check with JournalDiverged.
    kwargs = restore(config["world_kwargs"])
    if backend == "world":
        return World(seed=config["seed"], journal=journal, **kwargs)
    if backend in ("sharded", "proc"):
        cls = ShardedWorld if backend == "sharded" else ProcShardedWorld
        return cls(n_shards=config["n_shards"], seed=config["seed"],
                   epoch=config["epoch"], journal=journal, **kwargs)
    raise UsageError(f"journal config names unknown backend {backend!r}")


def _verify_frontier(world, commit: dict[str, Any]) -> None:
    digest = world._journal_digest()
    committed = tuple(commit["digest"])
    if tuple(digest) != committed:
        raise JournalDiverged(
            f"replay to barrier {commit['barrier']} produced digest "
            f"{tuple(digest)}, journal committed {committed} — the "
            f"journaled inputs no longer reproduce the committed run")


def _apply_op(world, kind: str, data: dict[str, Any]) -> None:
    if kind == "add_node":
        shard = data.get("shard")
        if shard is None:
            world.add_node(data["name"])
        else:
            world.add_node(data["name"], shard=shard)
    elif kind == "add_resource":
        world.node(data["node"]).add_resource(restore(data["blob"]))
    elif kind == "share_resource":
        world.node(data["node"]).share_resource_from(data["from_node"],
                                                     data["name"])
    elif kind in ("set_alternates", "ft_alternates"):
        # ``ft_alternates``: older journals' name for it (see OP_KINDS).
        world.set_alternates(data["node"], *data["alternates"])
    elif kind == "launch":
        agent, at, method, kwargs = restore(data["bundle"])
        world.launch(agent, at=at, method=method, **kwargs)
    elif kind == "crash_plans":
        world.apply_crash_plans(restore(data["blob"]))
    elif kind == "kill_shard":
        world.kill_shard(data["shard"], at=data["at"],
                         restart_at=data["restart_at"])
    else:  # pragma: no cover - OP_KINDS is the gate
        raise UsageError(f"cannot replay op {kind!r}")


__all__ = ["resume_world", "RecoveredRun"]
