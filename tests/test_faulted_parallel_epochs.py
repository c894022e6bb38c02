"""Failures keep the process backend on parallel epochs.

Only a fault-tolerant launch puts a
:class:`~repro.node.procshard.ProcShardedWorld` run on serial turns.
Crash plans, whole-shard kills (with and without a restart) and step
alternates do not: foreign liveness and suspension come from the
barrier view on both sharded backends, and alternates matter only to
fault-tolerant shadows and diversion.  A basic-protocol run under those
failures therefore walks its epochs in parallel and still equals the
in-process :class:`~repro.node.sharded.ShardedWorld` run on outcomes,
counters, events, epochs and trace digests.  A journal such a run wrote
on serial turns (the schedule failures used to force) resumes on
parallel epochs equal to the uninterrupted run.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import WorldKilled
from repro.journal import MemoryJournal, WorldJournal, resume_world
from repro.sim.failures import CrashPlan

from tests.helpers import FT_RING, LinearAgent, build_ft_ring

#: Whole-shard outage per fault set: None, or ``(shard, at, restart_at)``
#: with ``restart_at`` None for a permanent kill.  Every set also
#: crashes two ring nodes (:func:`crash_plans`).
FAULTS = {
    "crash-plans": None,
    "kill-restart": (1, 0.08, 2.0),
    "kill": (1, 0.055, None),
}


def crash_plans(seed):
    """Two ring nodes crash and recover, at seed-drawn times."""
    rng = random.Random(seed)
    return [CrashPlan(node, rng.uniform(0.01, 0.2), rng.uniform(0.02, 0.3))
            for node in rng.sample(FT_RING, 2)]


def faulted_world(backend, seed, fault, journal=None, serial=False):
    """The FT ring (with alternates) under ``fault``, four basic tours
    launched, each rolling back once.  ``serial`` puts a process world
    on serial turns from construction."""
    world = build_ft_ring(backend, seed=seed, journal=journal)
    if serial:
        world._entangled = True
    world.apply_crash_plans(crash_plans(seed))
    outage = FAULTS[fault]
    if outage is not None:
        shard, at, restart_at = outage
        world.kill_shard(shard, at=at, restart_at=restart_at)
    for a in range(4):
        plan = [FT_RING[(2 * a + j) % len(FT_RING)] for j in range(8)]
        world.launch(LinearAgent(f"ag-{a}", plan, savepoints={0: "sp"},
                                 rollback_to="sp"),
                     at=plan[0], method="step")
    return world


def observe(world):
    return (world.outcomes(), world.counters(), world.events_processed(),
            world.epochs_run)


def run_faulted(backend, seed, fault):
    world = faulted_world(backend, seed, fault)
    try:
        world.enable_trace_digest()
        world.run(until=120.0)
        if backend == "proc":
            assert not world._entangled, (seed, fault)
        return observe(world), world.trace_digests()
    finally:
        world.close()


def assert_backends_equal(seed, fault):
    inproc = run_faulted("sharded", seed, fault)
    assert run_faulted("proc", seed, fault) == inproc, (seed, fault)
    return inproc


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_a_faulted_basic_run_takes_parallel_epochs(fault):
    (outcomes, counters, _events, _epochs), _digests = \
        assert_backends_equal(11, fault)
    assert counters["crash.count"] >= 2
    if fault == "kill":
        # Tours that reach the dead shard never come back.
        assert counters["shard.kills"] == 1
        assert "shard.restarts" not in counters
    else:
        assert all(o["status"] == "finished" for o in outcomes.values())


@pytest.mark.soak
@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_faulted_basic_runs_equal_across_backends_sweep(fault, seed):
    assert_backends_equal(seed, fault)


def test_a_serial_turn_journal_resumes_on_parallel_epochs():
    """The journal of a faulted basic run written on serial turns — the
    schedule a crash plan or a shard kill used to force — stands for
    one older code wrote: killed and resumed, the run continues on
    parallel epochs and equals the uninterrupted run."""
    world = faulted_world("proc", 11, "kill-restart")
    try:
        world.run(until=120.0)
        uninterrupted = observe(world)
    finally:
        world.close()

    shared = MemoryJournal()
    world = faulted_world("proc", 11, "kill-restart",
                          journal=WorldJournal(shared), serial=True)
    try:
        world.kill_world(at=0.1)
        with pytest.raises(WorldKilled):
            world.run(until=120.0)
    finally:
        world.close()
    resumed = resume_world(WorldJournal(shared))
    try:
        resumed.run(until=120.0)
        assert not resumed._entangled
        assert observe(resumed) == uninterrupted
    finally:
        resumed.close()
