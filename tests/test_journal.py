"""Unit tests for the write-ahead world journal.

Three layers, bottom up:

* **backends** — CRC-framed record streams (memory / append-only
  file): round-trips, truncation, the torn-tail rule (damage at the
  physical end is the interrupted write and is discarded; damage before
  it raises :class:`~repro.errors.JournalCorrupt`);
* **WorldJournal** — config + ops + commit markers, recovery-frontier
  selection (config + everything through the last commit marker +
  trailing ops), re-arming;
* **resume** — journaled worlds killed mid-run resume to outcomes
  identical to the uninterrupted run, including through a node crash
  whose transactional undo must not double-apply, and recovery refuses
  a journal whose replay diverges from the committed digest;
* **one world per journal** — a journal already holding a config
  record refuses a second world.

The cross-backend crash-resume differential axis lives in
tests/test_multiproc_differential.py; this file covers the journal
machinery itself, mostly on the unsharded World, plus the sharded tour
swarm: journaling changes none of its 1 730 events, and it resumes
from a torn barrier to the uninterrupted outcome.
"""

import pytest

from repro import ProcShardedWorld, ShardedWorld, World
from repro.bench.workloads import BANK, TourAgent, make_tour_plan
from repro.errors import (
    JournalCorrupt,
    JournalDiverged,
    UsageError,
    WorldKilled,
)
from repro.journal import (
    FileJournal,
    MemoryJournal,
    WorldJournal,
    resume_world,
)
from repro.journal.backends import frame, parse_frames
from repro.journal.journal import OP_KINDS, decode_record, encode_record
from repro.resources.bank import Bank, OverdraftPolicy
from repro.storage.serialization import capture, restore
from tests.helpers import (
    FT_RING,
    build_ft_ring,
    launch_ft_tours,
    live_attach_journal,
    ring_debits,
    run_crash_resume_scenario,
    run_differential_scenario,
    scenario_record,
)

BACKENDS = ("world", "sharded", "proc")

BACKEND_FACTORIES = {
    "memory": lambda tmp: MemoryJournal(),
    "file": lambda tmp: FileJournal(tmp / "world.journal"),
}


@pytest.fixture(params=sorted(BACKEND_FACTORIES))
def backend(request, tmp_path):
    be = BACKEND_FACTORIES[request.param](tmp_path)
    yield be
    be.close()


# -- backends ----------------------------------------------------------------------


def test_backend_round_trip(backend):
    records = [f"record-{i}".encode() for i in range(5)]
    for payload in records:
        backend.append(payload)
    backend.sync()
    payloads, torn = backend.read_all()
    assert payloads == records
    assert not torn
    backend.truncate_records(2)
    payloads, torn = backend.read_all()
    assert payloads == records[:2]
    assert not torn
    assert backend.size_bytes > 0


def test_backend_torn_tail_discards_final_record(backend):
    for i in range(3):
        backend.append(f"record-{i}".encode())
    backend.sync()
    backend.tear_tail(3)
    payloads, torn = backend.read_all()
    assert payloads == [b"record-0", b"record-1"]
    assert torn


def test_backend_corrupt_final_record_is_torn_tail(backend):
    for i in range(3):
        backend.append(f"record-{i}".encode())
    backend.sync()
    backend.corrupt_record(2)
    payloads, torn = backend.read_all()
    assert payloads == [b"record-0", b"record-1"]
    assert torn


def test_backend_corrupt_before_tail_raises(backend):
    for i in range(3):
        backend.append(f"record-{i}".encode())
    backend.sync()
    backend.corrupt_record(0)
    with pytest.raises(JournalCorrupt):
        backend.read_all()


def test_parse_frames_torn_variants():
    buf = frame(b"alpha") + frame(b"bravo")
    # Torn header: fewer than 8 bytes of the second frame survive.
    payloads, torn = parse_frames(buf[:len(frame(b"alpha")) + 4], "t")
    assert (payloads, torn) == ([b"alpha"], True)
    # Torn payload: full header, short payload.
    payloads, torn = parse_frames(buf[:-2], "t")
    assert (payloads, torn) == ([b"alpha"], True)
    # Intact stream.
    payloads, torn = parse_frames(buf, "t")
    assert (payloads, torn) == ([b"alpha", b"bravo"], False)


# -- WorldJournal: commit and recovery frontier ------------------------------------


def test_recover_keeps_commits_and_trailing_ops():
    journal = WorldJournal()
    journal.record_config(backend="world", seed=1)
    journal.record_op("add_node", name="n0")
    journal.commit_epoch(1.0, (5,))
    journal.record_op("launch", bundle=b"x")
    journal.commit_epoch(2.0, (9,))
    journal.record_op("crash_plans", blob=b"y")  # op after last commit: kept
    recovered = journal.recover()
    assert recovered.frontier_barrier == 2.0
    assert recovered.frontier["digest"] == (9,)
    assert not recovered.torn_tail
    kinds = [kind for kind, _ in recovered.entries]
    assert kinds == ["add_node", "epoch", "launch", "epoch", "crash_plans"]
    assert recovered.kept_records == len(kinds) + 1  # + config
    assert recovered.discarded_records == 0


def test_recover_discards_uncommitted_payload_records():
    journal = WorldJournal()
    journal.record_config(backend="world", seed=1)
    journal.commit_epoch(1.0, (3,))
    # Effect records after the last marker, as a journal written before
    # the journal kept only config + ops + markers could hold them.
    journal.backend.append(encode_record("store", {"op": "put"}))
    journal.backend.append(encode_record("bridge", {"moved": 2}))
    recovered = journal.recover()
    assert [kind for kind, _ in recovered.entries] == ["epoch"]
    assert recovered.discarded_records == 2
    journal.rearm(recovered)
    assert journal.commits == 1
    # The truncation is physical: a fresh recover sees the clean tail.
    again = WorldJournal(journal.backend).recover()
    assert [kind for kind, _ in again.entries] == ["epoch"]
    assert again.discarded_records == 0


def test_recover_without_config_record_raises():
    be = MemoryJournal()
    be.append(encode_record("add_node", {"name": "n0"}))
    with pytest.raises(JournalCorrupt):
        WorldJournal(be).recover()


def test_journal_rejects_unknown_kinds():
    journal = WorldJournal()
    journal.record_config(backend="world", seed=1)
    with pytest.raises(UsageError):
        journal.record_op("format_disk")
    with pytest.raises(UsageError):
        journal.record_config(backend="world", seed=2)


# -- journaled runs ----------------------------------------------------------------


def test_journaled_run_matches_unjournaled_and_audits_effects():
    plain = build_ft_ring("world", seed=7)
    launch_ft_tours(plain)
    plain.run(until=120.0)

    journal = WorldJournal()
    journaled = build_ft_ring("world", seed=7, journal=journal)
    launch_ft_tours(journaled)
    journaled.run(until=120.0)

    assert journaled.outcomes() == plain.outcomes()
    assert ring_debits(journaled) == ring_debits(plain)
    stats = journal.stats()
    assert stats["commits"] > 1
    assert stats["kinds"]["add_node"] == 9
    assert stats["kinds"]["launch"] == 3
    # The journal keeps only what resume reads: config + ops + markers,
    # on every backend.
    for backend in BACKENDS:
        store = MemoryJournal()
        world = build_ft_ring(backend, seed=7, journal=WorldJournal(store))
        launch_ft_tours(world)
        world.run(until=120.0)
        world.close()
        kinds = [decode_record(p)[0] for p in store.read_all()[0]]
        assert kinds[0] == "config", backend
        assert "epoch" in kinds, backend
        assert set(kinds[1:]) <= OP_KINDS | {"epoch"}, backend


@pytest.mark.parametrize("backend", BACKENDS)
def test_journal_refuses_a_second_world(backend):
    """A journal belongs to one world: a second world's constructor
    refuses it instead of writing its ops into the first one's run."""
    factory = {"world": World, "sharded": ShardedWorld,
               "proc": ProcShardedWorld}[backend]
    store = MemoryJournal()
    journal = WorldJournal(store)
    first = factory(seed=1, journal=journal)
    first.add_node("a0")
    first.close()
    with pytest.raises(UsageError, match="already holds a config record"):
        factory(seed=2, journal=journal)
    records = [decode_record(p) for p in store.read_all()[0]]
    assert [kind for kind, _ in records] == ["config", "add_node"]
    assert records[0][1]["seed"] == 1


def journaled_tour_swarm(journal=None, kill_at=None):
    """24 partition-keyed 8-step tours with 40 kB of SRO ballast on
    three in-process shards and a coarse barrier grid.  Returns
    (outcomes, counters, events, epochs), or None when killed."""
    world = ShardedWorld(n_shards=3, seed=41, epoch=1.0, journal=journal)
    for i in range(9):
        node = world.add_node(f"n{i}")
        bank = Bank(BANK)
        bank.seed_account("merchant", 1_000_000,
                          overdraft=OverdraftPolicy.ALLOWED)
        bank.seed_account("escrow", 1_000_000,
                          overdraft=OverdraftPolicy.ALLOWED)
        node.add_resource(bank)
    for a in range(24):
        partition = [f"n{i}" for i in range(9) if i % 3 == a % 3]
        offset = (a // 3) % 3
        rotated = partition[offset:] + partition[:offset]
        plan = make_tour_plan(rotated, 8, mixed_fraction=0.25,
                              rollback_depth=7, sro_ballast=40_000)
        world.launch(TourAgent(f"wj-{a}", plan), at=plan.steps[0].node,
                     method="run")
    if kill_at is not None:
        world.kill_world(at=kill_at, phase="barrier")
        with pytest.raises(WorldKilled):
            world.run()
        return None
    world.run()
    return world_summary(world)


def world_summary(world):
    outcomes = world.outcomes()
    assert all(o["status"] == "finished" for o in outcomes.values())
    return (outcomes, world.counters(), world.events_processed(),
            world.epochs_run)


def test_journaling_does_not_change_the_swarm(tmp_path):
    """Journal off, in RAM or on file: the same run, event for event,
    with one commit per barrier."""
    plain = journaled_tour_swarm()
    assert plain[2:] == (1730, 15)
    for journal in (WorldJournal(MemoryJournal()),
                    WorldJournal(FileJournal(tmp_path / "w.journal"))):
        assert journaled_tour_swarm(journal) == plain
        assert journal.stats()["commits"] == 15
        journal.close()


def test_swarm_resumes_from_a_mid_barrier_kill(tmp_path):
    """Killed inside the second barrier (torn marker), reopened from
    disk and resumed: the frontier is the first barrier and the outcome
    equals the uninterrupted run."""
    path = tmp_path / "w.journal"
    journal = WorldJournal(FileJournal(path))
    journaled_tour_swarm(journal, kill_at=0.5)
    journal.close()
    journal = WorldJournal(FileJournal(path))
    recovered = journal.recover()
    assert recovered.torn_tail
    assert recovered.frontier_barrier == 0.0
    world = resume_world(journal)
    world.run()
    assert world_summary(world) == journaled_tour_swarm()
    journal.close()


def test_kill_world_validates_plan():
    world = build_ft_ring("world", seed=3, journal=WorldJournal())
    with pytest.raises(UsageError):
        world.kill_world(at=1.0, phase="gently")
    with pytest.raises(UsageError):
        world.kill_world(at=-1.0)


def test_mid_barrier_kill_falls_back_one_epoch(tmp_path):
    path = tmp_path / "world.journal"
    journal = WorldJournal(FileJournal(path))
    world = build_ft_ring("world", seed=7, journal=journal)
    launch_ft_tours(world)
    world.kill_world(at=0.06, phase="barrier")
    with pytest.raises(WorldKilled) as exc_info:
        world.run(until=120.0)
    journal.close()
    assert exc_info.value.phase == "barrier"
    killed_barrier = exc_info.value.barrier
    # Reopen from disk, as a restarted process would.
    journal = WorldJournal(FileJournal(path))
    recovered = journal.recover()
    assert recovered.torn_tail
    assert recovered.frontier_barrier < killed_barrier
    journal.close()


def test_resume_after_commit_kill_is_outcome_identical(tmp_path):
    factory = lambda: WorldJournal(  # noqa: E731
        FileJournal(tmp_path / "world.journal"))
    resumed, killed = run_crash_resume_scenario("world", seed=7,
                                                kill_at=0.1,
                                                journal_factory=factory)
    assert killed
    assert resumed == run_differential_scenario("world", seed=7)


def test_resume_of_completed_run_is_identity():
    backend = MemoryJournal()
    journal = WorldJournal(backend)
    world = build_ft_ring("world", seed=5, journal=journal)
    launch_ft_tours(world)
    world.run(until=120.0)
    outcomes, debits = world.outcomes(), ring_debits(world)

    resumed = resume_world(WorldJournal(backend))
    resumed.run(until=120.0)
    assert resumed.outcomes() == outcomes
    assert ring_debits(resumed) == debits


def test_crash_undo_not_double_applied_after_resume():
    """StableStore transactional undo x journal replay.

    A node crash aborts in-flight step transactions, whose undo
    restores the stable stores and requeues the agents; the coordinator
    is then killed.  The resumed run must re-execute that history — crash,
    abort, undo and all — to the same per-bank sums as an uninterrupted
    run, never double-applying the undone writes.
    """
    outage = (1, 0.05, 1.5)
    reference = run_differential_scenario("world", seed=13, outage=outage)
    backend = MemoryJournal()
    factory = lambda: WorldJournal(backend)  # noqa: E731
    resumed, killed = run_crash_resume_scenario(
        "world", seed=13, kill_at=0.09, outage=outage,
        journal_factory=factory)
    assert killed
    assert resumed == reference


def test_resume_refuses_diverged_journal():
    backend = MemoryJournal()
    journal = WorldJournal(backend)
    world = build_ft_ring("world", seed=5, journal=journal)
    launch_ft_tours(world)
    world.kill_world(at=0.1)
    with pytest.raises(WorldKilled):
        world.run(until=120.0)
    # Tamper with every committed digest: replay can no longer vouch
    # for the journaled history.
    payloads, _torn = backend.read_all()
    tampered = MemoryJournal()
    for payload in payloads:
        kind, data = decode_record(payload)
        if kind == "epoch":
            data["digest"] = tuple(d + 1 for d in data["digest"])
        tampered.append(encode_record(kind, data))
    with pytest.raises(JournalDiverged):
        resume_world(WorldJournal(tampered))


# -- journals written before the journal kept only config + ops + markers ----------

#: One record of each effect kind older journals carry per epoch.
EFFECT_RECORDS = [
    ("store", {"store": "stable@n0", "op": "put", "key": "k", "value": 1,
               "shard": 0}),
    ("queue", {"node": "n0", "op": "enqueue", "item": 7, "bytes": 512,
               "shard": 0}),
    ("savepoint", {"agent": "ag-0", "sp": "sp", "virtual": False,
                   "frame": b"frame", "shard": 0}),
    ("bridge", {"moved": 2, "barrier": 0.05}),
    ("record-merge", {"agent": "ag-0", "origin": 1}),
]


def as_written_before(kind, data):
    """One record as older writers journaled it: a plain world's step
    alternates as an ``ft_alternates`` op, and a launch bundle carrying
    only the keyword its caller passed."""
    if kind == "set_alternates":
        return "ft_alternates", data
    if kind == "launch":
        agent, at, method, kwargs = restore(data["bundle"])
        return kind, {"bundle": capture(
            (agent, at, method, {"protocol": kwargs["protocol"]}))}
    return kind, data


def in_old_format(payloads):
    """The same journal as older writers left it: effect records before
    every commit marker and after the last one, and the ops in their
    older shape (:func:`as_written_before`)."""
    effects = [encode_record(kind, data) for kind, data in EFFECT_RECORDS]
    old = MemoryJournal()
    for payload in payloads:
        kind, data = decode_record(payload)
        if kind == "epoch":
            for effect in effects:
                old.append(effect)
        old.append(encode_record(*as_written_before(kind, data)))
    for effect in effects:
        old.append(effect)
    return old


@pytest.mark.parametrize("backend", BACKENDS)
def test_old_format_journal_still_resumes(backend):
    store = MemoryJournal()
    world = build_ft_ring(backend, seed=5, journal=WorldJournal(store))
    launch_ft_tours(world)
    world.kill_world(at=0.1)
    with pytest.raises(WorldKilled):
        world.run(until=120.0)
    world.close()
    payloads, _torn = store.read_all()
    # The current writer: ``set_alternates`` on every backend, and
    # launch bundles that carry all three launch keywords.
    records = [decode_record(payload) for payload in payloads]
    kinds = [kind for kind, _ in records]
    assert "ft_alternates" not in kinds
    assert kinds.count("set_alternates") == len(FT_RING)
    for kind, data in records:
        if kind == "launch":
            assert sorted(restore(data["bundle"])[3]) == \
                ["initial_savepoints", "mode", "protocol"]

    old = in_old_format(payloads)
    recovered = WorldJournal(old).recover()
    assert recovered.discarded_records == len(EFFECT_RECORDS)
    assert [kind for kind, _ in recovered.entries].count("ft_alternates") \
        == len(FT_RING)
    resumed = resume_world(WorldJournal(old))
    try:
        resumed.run(until=120.0)
        assert scenario_record(resumed, backend) == \
            run_differential_scenario(backend, seed=5)
    finally:
        resumed.close()

    # A journal attached to an already-running world lacks the run's
    # prefix; its config says so, and resume refuses it.
    with pytest.raises(UsageError, match="already-running world"):
        resume_world(WorldJournal(live_attach_journal(payloads)))


@pytest.mark.parametrize("backend", BACKENDS)
def test_journal_bytes_do_not_depend_on_process_history(backend):
    """The same input writes the same journal, however many worlds the
    process built before (no reset between the two builds)."""

    def journal_of_one_run():
        store = MemoryJournal()
        world = build_ft_ring(backend, seed=5, journal=WorldJournal(store))
        if backend != "world":
            world.kill_shard(1, 0.08, restart_at=2.0)
        launch_ft_tours(world)
        world.run(until=120.0)
        world.close()
        return store.read_all()[0]

    first = journal_of_one_run()
    assert journal_of_one_run() == first
