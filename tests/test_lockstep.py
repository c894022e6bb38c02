"""The one lockstep walk and the one facade every backend shares.

:class:`~repro.node.lockstep.LockstepWorld` decides every barrier for
:class:`~repro.node.runtime.World`,
:class:`~repro.node.sharded.ShardedWorld` and
:class:`~repro.node.procshard.ProcShardedWorld`.  These tests pin what
that sharing promises: a run cut into ``run(until=t)`` pieces walks the
same barriers as a straight run on both sharded backends, and every
backend answers the same inspection surface; a launch is validated
before it is journaled, so a refused launch leaves a journal that
resumes; and a resumed world counts the barriers it replays.
"""

import pytest

from repro import MemoryJournal, WorldJournal
from repro.errors import UsageError, WorldKilled
from repro.journal import resume_world
from tests.helpers import (
    FT_RING,
    LinearAgent,
    build_ft_ring,
    launch_ft_tours,
    scenario_record,
)

SHARDED = ("sharded", "proc")

#: ``run(until=t)`` cut sequences, each followed by a plain ``run()``:
#: a cut before the first barrier, cuts around the shard-1 kill (0.08)
#: and restart (0.3), and a repeated cut.  None of them falls inside an
#: epoch with an event due, so the walk equals the straight run's.
CUTS = {
    "early": [0.0123],
    "around-outage": [0.05, 0.081, 0.2999, 0.31],
    "repeated": [0.1, 0.1, 0.4],
}

#: Cuts that change the walk: 0.0514 falls inside an epoch with events
#: due, so that barrier is capped at the cut (off the grid the straight
#: run walks); 0.1 after 0.2 lies behind the clock.
WALK_CHANGING_CUTS = {"capped": [0.0514], "behind": [0.2, 0.1]}


def _outage_run(backend, cuts):
    world = build_ft_ring(backend, seed=5)
    try:
        world.enable_trace_digest()
        world.kill_shard(1, 0.08, restart_at=0.3)
        launch_ft_tours(world)
        for i, cut in enumerate(cuts):
            world.run(until=cut)
            # A capped run leaves the clock at the cut, never behind
            # it and never past it.
            assert world.now == max(cuts[:i + 1])
        world.run()
        return {"outcomes": world.outcomes(),
                "digests": world.trace_digests(),
                "epochs": world.epochs_run,
                "events": world.events_processed()}
    finally:
        world.close()


@pytest.fixture(scope="module")
def straight_runs():
    return {backend: _outage_run(backend, []) for backend in SHARDED}


@pytest.mark.parametrize("cuts", CUTS.values(), ids=CUTS.keys())
def test_split_runs_equal_straight_runs_on_both_sharded_backends(
        straight_runs, cuts):
    assert straight_runs["sharded"] == straight_runs["proc"]
    assert all(o["status"] == "finished"
               for o in straight_runs["sharded"]["outcomes"].values())
    for backend in SHARDED:
        assert _outage_run(backend, cuts) == straight_runs[backend]


@pytest.mark.parametrize("cuts", WALK_CHANGING_CUTS.values(),
                         ids=WALK_CHANGING_CUTS.keys())
def test_walk_changing_cuts_agree_on_both_sharded_backends(cuts):
    assert _outage_run("sharded", cuts) == _outage_run("proc", cuts)


@pytest.mark.parametrize("backend", ("world",) + SHARDED)
def test_every_backend_answers_one_facade(backend):
    world = build_ft_ring(backend, seed=5)
    try:
        records = launch_ft_tours(world)
        progressed = 0
        while world.step_epoch():
            progressed += 1
        # An idle step may flush the bridge without walking a barrier.
        assert 0 < world.epochs_run <= progressed
        assert world.all_done()
        assert world.now > 0.0
        for record in records:
            assert world.record_of(record.agent_id) is record
        with pytest.raises(UsageError):
            world.record_of("no-such-agent")
        assert {o["status"] for o in world.outcomes().values()} \
            == {"finished"}
        assert world.counters()["agents.finished"] == len(records)
        timelines = world.timelines()
        # The process backend's timelines stay in its shard processes.
        assert len(timelines) == {"world": 1, "sharded": 3,
                                  "proc": 0}[backend]
        assert timelines == [] or any(timelines)
        with pytest.raises(UsageError):
            world.kill_world(world.now - 0.001)
    finally:
        world.close()
    world.close()  # idempotent
    with pytest.raises(UsageError):
        world.step_epoch()


def test_journaled_world_walks_one_epoch_per_commit_marker():
    journal = WorldJournal(MemoryJournal())
    world = build_ft_ring("world", seed=5, journal=journal)
    launch_ft_tours(world)
    world.run()
    markers = [kind for kind, _ in journal.recover().entries
               if kind == "epoch"]
    assert world.epochs_run == len(markers) > 0


def _launch_records(journal):
    return [data for kind, data in journal.recover().entries
            if kind == "launch"]


def _journaled_ring_run(backend, refused=None):
    """The journaled FT ring run to the end, optionally after a refused
    launch; returns its record, the journal's backend and the error."""
    shared = MemoryJournal()
    journal = WorldJournal(shared)
    world = build_ft_ring(backend, seed=5, journal=journal)
    error = None
    try:
        launch_ft_tours(world)
        if refused is not None:
            with pytest.raises(Exception) as excinfo:
                refused(world)
            error = excinfo.value
            assert len(_launch_records(journal)) == 3
        world.run()
        return scenario_record(world, backend), shared, error
    finally:
        world.close()


def _duplicate_id(world):
    world.launch(LinearAgent("ag-0", FT_RING[:2]), at="n0", method="step")


def _unknown_node(world):
    world.launch(LinearAgent("ag-new", FT_RING[:2]), at="nowhere",
                 method="step")


def _unpicklable(world):
    agent = LinearAgent("ag-new", FT_RING[:2])
    agent.callback = lambda: None
    world.launch(agent, at="n0", method="step")


REFUSALS = {"duplicate-id": (_duplicate_id, UsageError),
            "unknown-node": (_unknown_node, UsageError),
            "unpicklable": (_unpicklable, TypeError)}


@pytest.fixture(scope="module")
def unrefused_runs():
    return {}


@pytest.mark.parametrize("refusal", REFUSALS.values(), ids=REFUSALS.keys())
@pytest.mark.parametrize("backend", ("world",) + SHARDED)
def test_refused_launch_is_not_journaled(backend, refusal, unrefused_runs):
    """Validate, then journal: a refused launch raises the facade's own
    error on every backend (never a remote ``WorkerError``), writes no
    ``launch`` record, and the journal resumes equal to the run that
    never tried it."""
    refused, error_type = refusal
    if backend not in unrefused_runs:
        unrefused_runs[backend] = _journaled_ring_run(backend)[0]
    expected = unrefused_runs[backend]
    record, shared, error = _journaled_ring_run(backend, refused)
    assert type(error) is error_type
    if error_type is TypeError:
        assert ".callback" in str(error)
    assert record == expected
    journal = WorldJournal(shared)
    resumed = resume_world(journal)
    try:
        resumed.run()
        assert scenario_record(resumed, backend) == expected
    finally:
        resumed.close()


@pytest.mark.parametrize("phase", ("commit", "barrier"))
def test_resumed_world_counts_every_replayed_epoch(phase):
    """A journaled ``World`` killed half way and resumed ends with the
    uninterrupted run's ``epochs_run``: resume replays the journaled
    barriers through the one walk, which counts each of them."""
    straight = WorldJournal(MemoryJournal())
    world = build_ft_ring("world", seed=5, journal=straight)
    launch_ft_tours(world)
    world.run()
    epochs, end, outcomes = world.epochs_run, world.now, world.outcomes()

    shared = MemoryJournal()
    world = build_ft_ring("world", seed=5, journal=WorldJournal(shared))
    launch_ft_tours(world)
    world.kill_world(at=end / 2, phase=phase)
    with pytest.raises(WorldKilled):
        world.run()
    journal = WorldJournal(shared)
    resumed = resume_world(journal)
    resumed.run()
    markers = [kind for kind, _ in journal.recover().entries
               if kind == "epoch"]
    assert resumed.outcomes() == outcomes
    assert resumed.epochs_run == epochs == len(markers)
