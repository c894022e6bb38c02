"""The one lockstep walk and the one facade every backend shares.

:class:`~repro.node.lockstep.LockstepWorld` decides every barrier for
:class:`~repro.node.runtime.World`,
:class:`~repro.node.sharded.ShardedWorld` and
:class:`~repro.node.procshard.ProcShardedWorld`.  These tests pin what
that sharing promises: a run cut into ``run(until=t)`` pieces walks the
same barriers as a straight run on both sharded backends, wherever the
cuts fall, and a launch after a journaled cut resumes equal to the run
that was never interrupted; every backend answers the same inspection
surface; a launch is validated before it is journaled, so a refused
launch leaves a journal that resumes; a closed world refuses every
facade op before it journals anything; and a resumed world counts the
barriers it replays.
"""

import pytest

from repro import Bank, MemoryJournal, WorldJournal
from repro.agent.packages import Protocol
from repro.errors import UsageError, WorldKilled
from repro.journal import resume_world
from tests.helpers import (
    FT_RING,
    LinearAgent,
    build_ft_ring,
    launch_ft_tours,
    make_world,
    scenario_record,
)

SHARDED = ("sharded", "proc")

#: ``run(until=t)`` cut sequences, each followed by a plain ``run()``:
#: a cut before the first barrier, cuts around the shard-1 kill (0.08)
#: and restart (0.3), a repeated cut, a cut inside an epoch with events
#: due, a cut behind the clock, and five cuts through the outage, most
#: of them off the barrier grid.  Each walks the straight run's barriers.
CUTS = {
    "early": [0.0123],
    "around-outage": [0.05, 0.081, 0.2999, 0.31],
    "repeated": [0.1, 0.1, 0.4],
    "capped": [0.0514],
    "behind": [0.2, 0.1],
    "through-outage": [0.0514, 0.0731, 0.1999, 0.3001, 0.777],
}


def _outage_run(backend, cuts):
    world = build_ft_ring(backend, seed=5)
    try:
        world.enable_trace_digest()
        world.kill_shard(1, 0.08, restart_at=0.3)
        launch_ft_tours(world)
        for cut in cuts:
            before = world.now
            world.run(until=cut)
            # A cut walks the barriers at or before it: the clock never
            # passes the cut and never moves back.
            assert before <= world.now <= max(before, cut)
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


def _cut_then_launch(backend, journal=None):
    """One FT tour cut at 0.0123, where no barrier lies, then a second
    FT tour launched at the cut."""
    world = build_ft_ring(backend, seed=5, journal=journal)
    launch_ft_tours(world, n_agents=1)
    world.run(until=0.0123)
    agent = LinearAgent("ag-late", FT_RING[3:7], savepoints={0: "sp"},
                        rollback_to="sp")
    world.launch(agent, at=FT_RING[3], method="step",
                 protocol=Protocol.FAULT_TOLERANT)
    return world


def _finish(world, journal):
    """Run ``world`` to the end; its outcomes, events and markers."""
    try:
        world.run()
        return {"outcomes": world.outcomes(),
                "events": world.events_processed(),
                "markers": sum(kind == "epoch" for kind, _
                               in journal.recover().entries)}
    finally:
        world.close()


@pytest.mark.parametrize("backend", ("world",) + SHARDED)
def test_launch_after_a_cut_resumes_equal_to_the_straight_run(backend):
    """A cut journals no clock move, because it makes none: resume
    replays the barriers walked before the cut, applies the launch on
    the same clocks, and continues equal to the uninterrupted run."""
    journal = WorldJournal(MemoryJournal())
    straight = _finish(_cut_then_launch(backend, journal), journal)

    shared = MemoryJournal()
    _cut_then_launch(backend, WorldJournal(shared)).close()
    journal = WorldJournal(shared)
    resumed = _finish(resume_world(journal), journal)
    assert resumed == straight
    assert {o["status"] for o in straight["outcomes"].values()} \
        == {"finished"}


def test_journaled_and_unjournaled_world_cut_alike():
    journal = WorldJournal(MemoryJournal())
    journaled = _finish(_cut_then_launch("world", journal), journal)
    world = _cut_then_launch("world")
    try:
        world.run()
        assert world.outcomes() == journaled["outcomes"]
        assert world.events_processed() == journaled["events"]
    finally:
        world.close()


def test_a_cut_behind_the_clock_keeps_it():
    world = build_ft_ring("world", seed=5)
    try:
        launch_ft_tours(world, n_agents=1)
        world.run(until=0.5)
        now = world.now
        assert 0.0 < now <= 0.5
        world.run(until=0.1)
        assert world.now == now
    finally:
        world.close()


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


def _misspelled_keyword(world):
    world.launch(LinearAgent("ag-new", FT_RING[:2]), at="n0",
                 method="step", protcol=Protocol.FAULT_TOLERANT)


def _unknown_mode(world):
    world.launch(LinearAgent("ag-new", FT_RING[:2]), at="n0",
                 method="step", mode="bogus")


def _missing_method(world):
    world.launch(LinearAgent("ag-new", FT_RING[:2]), at="n0",
                 method="no_such_step")


REFUSALS = {"duplicate-id": (_duplicate_id, UsageError),
            "unknown-node": (_unknown_node, UsageError),
            "unpicklable": (_unpicklable, TypeError),
            "misspelled-keyword": (_misspelled_keyword, UsageError),
            "unknown-mode": (_unknown_mode, UsageError),
            "missing-method": (_missing_method, UsageError)}


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


@pytest.mark.parametrize("backend", ("world",) + SHARDED)
def test_duplicate_resource_is_refused_before_it_is_journaled(backend):
    """A second resource of the same name on a node raises the facade's
    ``UsageError`` on every backend — for a node hosted by the
    coordinator and for one in a worker process alike — and leaves one
    ``add_resource`` record per node, so the journal resumes."""
    shared = MemoryJournal()
    journal = WorldJournal(shared)
    world = make_world(backend, seed=5, journal=journal)
    try:
        for name in ("n0", "n1"):  # shards 0 and 1
            world.add_node(name).add_resource(Bank("bank"))
            with pytest.raises(UsageError, match="'bank' exists"):
                world.node(name).add_resource(Bank("bank"))
        assert journal.stats()["kinds"]["add_resource"] == 2
    finally:
        world.close()
    resumed = resume_world(WorldJournal(shared))
    try:
        resumed.run()
        for name in ("n0", "n1"):
            assert resumed.resource_state(name, "bank").name == "bank"
    finally:
        resumed.close()


@pytest.mark.parametrize("journaled", (True, False),
                         ids=("journaled", "unjournaled"))
@pytest.mark.parametrize("backend", ("world",) + SHARDED)
def test_closed_world_refuses_every_facade_op(backend, journaled):
    """Closed mid-run, a world refuses every facade op with ``world is
    closed``: no event fires, no clock moves, nothing is journaled."""
    journal = WorldJournal(MemoryJournal()) if journaled else None
    world = build_ft_ring(backend, seed=5, journal=journal)
    launch_ft_tours(world)
    world.run(until=0.05)
    node = world.node("n0")
    world.close()

    def state():
        return (world.now, world.events_processed(),
                journal.stats() if journaled else None)

    frozen = state()
    ops = {
        "run": lambda: world.run(),
        "run-until": lambda: world.run(until=1.0),
        "step_epoch": world.step_epoch,
        "launch": lambda: world.launch(LinearAgent("ag-new", FT_RING[:2]),
                                       at="n0", method="step"),
        "add_node": lambda: world.add_node("late-node"),
        "set_alternates": lambda: world.set_alternates("n0", "n1"),
        "add_resource": lambda: node.add_resource(Bank("late-bank")),
    }
    for name, op in ops.items():
        with pytest.raises(UsageError, match="world is closed"):
            op()
        assert state() == frozen, name
    assert "ag-new" not in world.agents


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
