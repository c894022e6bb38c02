"""Tests: the reentrant step seam and the journals it writes.

The contract under test (PR 10's world-as-a-service plumbing):

* **step ≡ run** — on every backend, driving a world one barrier at a
  time through ``step_epoch()`` yields byte-identical results to one
  ``run()`` call: outcomes, per-node debits, trace digests;
* **drained is stable** — ``step_epoch()`` on a drained (or empty)
  world returns ``False`` and is repeatable without side effects;
* **journals** — a journal given to a bare world at construction
  sees the topology built after it, and a stepped journaled run
  resumes to the same outcomes; a journal whose config carries a
  ``live_attach`` marker (older code could attach one to a running
  world) lacks the run's prefix, and
  :func:`~repro.journal.resume.resume_world` refuses it.
"""

import pytest

from repro.errors import UsageError
from repro.journal import MemoryJournal, WorldJournal, resume_world

from tests.helpers import (
    FT_RING,
    build_ft_ring,
    launch_ft_tours,
    live_attach_journal,
    ring_debits,
)


def make_empty(backend, seed, journal=None):
    """A bare world (no topology yet) and the builder of its ring."""
    from repro import Bank, FTParams, ShardedWorld, World
    from repro.resources.bank import OverdraftPolicy

    ft = FTParams(takeover_timeout=0.05)
    if backend == "world":
        world = World(seed=seed, ft_params=ft, journal=journal)
    else:
        world = ShardedWorld(n_shards=3, seed=seed, ft_params=ft,
                             journal=journal)

    def build_ring():
        for name in FT_RING:
            node = world.add_node(name)
            bank = Bank("bank")
            bank.seed_account("a", 1_000,
                              overdraft=OverdraftPolicy.ALLOWED)
            bank.seed_account("b", 1_000,
                              overdraft=OverdraftPolicy.ALLOWED)
            node.add_resource(bank)

    return world, build_ring


def run_stepped(world, max_epochs=10_000):
    steps = 0
    while world.step_epoch():
        steps += 1
        assert steps < max_epochs, "stepped run never drained"
    return steps


@pytest.mark.parametrize("backend", ["world", "sharded", "proc"])
def test_step_epoch_matches_run(backend):
    straight = build_ft_ring(backend, seed=7)
    straight.enable_trace_digest()
    launch_ft_tours(straight)
    straight.run()

    stepped = build_ft_ring(backend, seed=7)
    stepped.enable_trace_digest()
    launch_ft_tours(stepped)
    steps = run_stepped(stepped)

    assert steps > 0
    assert stepped.outcomes() == straight.outcomes()
    assert ring_debits(stepped) == ring_debits(straight)
    assert stepped.trace_digests() == straight.trace_digests()
    for world in (straight, stepped):
        world.close()


@pytest.mark.parametrize("backend", ["world", "sharded"])
def test_step_epoch_on_drained_world_is_stable(backend):
    world = build_ft_ring(backend, seed=3)
    launch_ft_tours(world)
    run_stepped(world)
    outcomes = world.outcomes()
    # Drained: further steps are no-ops, not errors.
    assert world.step_epoch() is False
    assert world.step_epoch() is False
    assert world.outcomes() == outcomes


def test_step_epoch_on_empty_world_returns_false():
    world = build_ft_ring("world", seed=1)
    assert world.step_epoch() is False


def test_proc_step_epoch_after_close_raises():
    world = build_ft_ring("proc", seed=2)
    world.close()
    with pytest.raises(UsageError, match="closed"):
        world.step_epoch()


# ---------------------------------------------------------------------------
# journals


@pytest.mark.parametrize("backend", ["world", "sharded"])
def test_attach_on_pristine_world_is_resumable(backend):
    backend_store = MemoryJournal()
    journal = WorldJournal(backend_store)
    world, build_ring = make_empty(backend, seed=5, journal=journal)
    # The journal sees the topology added after construction.
    build_ring()
    launch_ft_tours(world)
    run_stepped(world)
    outcomes, debits = world.outcomes(), ring_debits(world)
    stats = journal.stats()
    assert stats["commits"] > 1
    assert stats["kinds"]["launch"] == 3
    assert stats["kinds"]["add_node"] == 9

    resumed = resume_world(WorldJournal(backend_store))
    resumed.run()
    assert resumed.outcomes() == outcomes
    assert ring_debits(resumed) == debits


@pytest.mark.parametrize("backend", ["world", "sharded"])
def test_attach_on_live_world_is_telemetry_only(backend):
    """Journals attached to a running world (older code could) carry a
    ``live_attach`` config marker; they lack the run's prefix, and
    resume refuses them."""
    journal = WorldJournal(MemoryJournal())
    world = build_ft_ring(backend, seed=5, alternates=False,
                          journal=journal)
    launch_ft_tours(world)
    world.run()
    live = live_attach_journal(journal.backend.read_all()[0])
    with pytest.raises(UsageError, match="already-running world"):
        resume_world(WorldJournal(live))
