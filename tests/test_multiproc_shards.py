"""Tests: the multiprocess shard-worker driver (facade + machinery).

The contract under test (see :mod:`repro.node.procshard`):

* **backend equivalence** — the same seeded workload produces
  byte-identical results on ``ShardedWorld`` and ``ProcShardedWorld``:
  outcomes, aggregate counters, epoch count, event count, and the
  kernel event-stream digests;
* **facade parity** — argument validation, record identity across
  ``run`` calls;
* **failure surfacing** — a worker-side error arrives as
  :class:`~repro.errors.WorkerError` with the remote traceback; a
  hard worker-process death (SIGKILL) as
  :class:`~repro.errors.WorkerDied`, never a hang;
* **picklability contract** — unpicklable agents/resources are
  rejected at ship time with a message naming the offending attribute;
* **lazy hydration across the pipe** — entry frames stay lazily
  hydrated after crossing the process boundary (the per-worker
  serialization counters match the in-process run's);
* **worlds keep to themselves** — every world owns its ids and
  counters, so a second world of the same seed in the same process
  runs identically and the process-default scope never moves.
"""

import multiprocessing
import os
import signal

import pytest

from repro import AgentStatus, ProcShardedWorld, ShardedWorld
from repro.bench.workloads import BANK, TourAgent, make_tour_plan
from repro.errors import UsageError, WorkerDied, WorkerError
from repro.resources.bank import Bank, OverdraftPolicy

from tests.helpers import (
    LinearAgent,
    build_ft_ring,
    launch_ft_tours,
    make_world,
)

N_NODES = 8
RING = [f"n{i}" for i in range(N_NODES)]


@pytest.fixture
def proc_worlds():
    """Track ProcShardedWorlds and close them even on assertion failure."""
    opened = []

    def make(*args, **kwargs):
        world = ProcShardedWorld(*args, **kwargs)
        opened.append(world)
        return world

    yield make
    for world in opened:
        world.close()


def build(world):
    for i in range(N_NODES):
        node = world.add_node(f"n{i}")
        bank = Bank("bank")
        bank.seed_account("a", 1_000, overdraft=OverdraftPolicy.ALLOWED)
        bank.seed_account("b", 1_000, overdraft=OverdraftPolicy.ALLOWED)
        node.add_resource(bank)
    return world


def run_swarm(world, n_agents=6):
    world.enable_trace_digest()
    for a in range(n_agents):
        rotated = RING[a % N_NODES:] + RING[:a % N_NODES]
        agent = LinearAgent(f"ag-{a}", rotated[:5],
                            savepoints={0: "sp"}, rollback_to="sp")
        world.launch(agent, at=rotated[0], method="step")
    world.run()
    return world


# -- backend equivalence ---------------------------------------------------------


def test_process_swarm_matches_in_process_bit_for_bit(proc_worlds):
    inproc = run_swarm(build(ShardedWorld(n_shards=2, seed=7)))
    proc = run_swarm(build(proc_worlds(n_shards=2, seed=7)))
    assert proc.outcomes() == inproc.outcomes()
    assert proc.counters() == inproc.counters()
    assert proc.epochs_run == inproc.epochs_run
    assert proc.events_processed() == inproc.events_processed()
    # The strongest check: every worker kernel fired the exact same
    # (time, label) event stream as its in-process twin.
    assert proc.trace_digests() == inproc.trace_digests()
    assert all(o["status"] == "finished" for o in proc.outcomes().values())


def run_partition_keyed_swarm(world, n_partitions=4, n_nodes=12,
                              n_agents=64):
    """64 tours of 8 steps with 60 kB of SRO ballast, each kept on its
    home partition's nodes, on a coarse barrier grid; returns
    (outcomes, counters, events, epochs)."""
    for i in range(n_nodes):
        node = world.add_node(f"n{i}")
        bank = Bank(BANK)
        bank.seed_account("merchant", 1_000_000,
                          overdraft=OverdraftPolicy.ALLOWED)
        bank.seed_account("escrow", 1_000_000,
                          overdraft=OverdraftPolicy.ALLOWED)
        node.add_resource(bank)
    for a in range(n_agents):
        home = a % n_partitions
        partition = [f"n{i}" for i in range(n_nodes)
                     if i % n_partitions == home]
        offset = (a // n_partitions) % len(partition)
        rotated = partition[offset:] + partition[:offset]
        plan = make_tour_plan(rotated, 8, mixed_fraction=0.25,
                              rollback_depth=7, sro_ballast=60_000)
        world.launch(TourAgent(f"mp-{a}", plan), at=plan.steps[0].node,
                     method="run")
    world.run()
    outcomes = world.outcomes()
    assert all(o["status"] == "finished" for o in outcomes.values())
    return (outcomes, world.counters(), world.events_processed(),
            world.epochs_run)


def test_partition_keyed_swarm_identical_on_four_workers(proc_worlds):
    """The throughput swarm: four worker processes compute exactly what
    four in-process shards do."""
    inline = run_partition_keyed_swarm(
        ShardedWorld(n_shards=4, seed=40, epoch=1.0))
    proc = run_partition_keyed_swarm(
        proc_worlds(n_shards=4, seed=40, epoch=1.0))
    assert proc == inline
    assert inline[2:] == (7442, 38)


@pytest.mark.soak
def test_partition_keyed_swarm_outcomes_do_not_depend_on_shard_count(
        proc_worlds):
    """Stray cross-shard hops at one and two shards go over the bridge;
    per-agent outcomes must not care, on either backend."""
    reference = run_partition_keyed_swarm(
        ShardedWorld(n_shards=4, seed=40, epoch=1.0))[0]
    for n_shards in (1, 2):
        inline = run_partition_keyed_swarm(
            ShardedWorld(n_shards=n_shards, seed=40, epoch=1.0))
        proc = run_partition_keyed_swarm(
            proc_worlds(n_shards=n_shards, seed=40, epoch=1.0))
        assert proc == inline
        assert inline[0] == reference


def test_process_runs_are_deterministic(proc_worlds):
    first = run_swarm(build(proc_worlds(n_shards=2, seed=7)))
    second = run_swarm(build(proc_worlds(n_shards=2, seed=7)))
    assert first.outcomes() == second.outcomes()
    assert first.counters() == second.counters()
    assert first.trace_digests() == second.trace_digests()


# -- shard 0 in the coordinator -------------------------------------------------


def test_coordinator_hosts_shard_zero(proc_worlds):
    """N shards run on N-1 worker processes; one shard spawns none."""
    before = set(multiprocessing.active_children())
    world = proc_worlds(n_shards=3, seed=0)
    spawned = set(multiprocessing.active_children()) - before
    assert len(spawned) == 2
    assert world._handles[0].process is None
    solo = proc_worlds(n_shards=1, seed=0)
    assert set(multiprocessing.active_children()) - before == spawned
    build(solo)
    run_swarm(solo, n_agents=2)
    assert all(o["status"] == "finished" for o in solo.outcomes().values())


def _ft_ring_digests(world):
    return world.outcomes(), world.trace_digests()


def test_hosted_shard_leaves_a_live_in_process_world_alone():
    """Half-run an in-process world, run a process-backed world to the
    end in the same process, then finish the first: it ends exactly as
    a solo run, with the solo run's counters — shard 0's scope and the
    coordinator's keep their ids and counters to themselves."""
    def started():
        world = build_ft_ring("sharded", seed=5)
        world.enable_trace_digest()
        launch_ft_tours(world)
        return world

    solo = started()
    solo.run()
    expected = _ft_ring_digests(solo), solo.serialization_stats()
    first = started()
    first.run(until=0.5)
    proc = build_ft_ring("proc", seed=5)
    try:
        launch_ft_tours(proc)
        proc.run()
        assert all(o["status"] == "finished"
                   for o in proc.outcomes().values())
        assert proc.serialization_stats()["entry_blob_serialized"] > 0
    finally:
        proc.close()
    first.run()
    assert (_ft_ring_digests(first), first.serialization_stats()) == expected


def _default_scope_state():
    from repro.scope import DEFAULT
    return dict(DEFAULT.stats), dict(DEFAULT.next_ids)


@pytest.mark.parametrize("backend", ("world", "sharded", "proc"))
def test_same_seed_twice_in_one_process_is_identical(backend):
    """A second world of the same seed in the same process, with no
    reset between, starts from a fresh scope: equal outcomes, digests,
    events, epochs, journal bytes, ledger claims and serialization
    counters — and the process-default scope never moves."""
    from repro import MemoryJournal, WorldJournal

    default = _default_scope_state()
    runs = []
    for _ in range(2):
        backend_journal = MemoryJournal()
        world = build_ft_ring(backend, seed=5,
                              journal=WorldJournal(backend_journal))
        try:
            world.enable_trace_digest()
            launch_ft_tours(world)
            world.run()
            runs.append({
                "outcomes": world.outcomes(),
                "digests": world.trace_digests(),
                "events": world.events_processed(),
                "epochs": world.epochs_run,
                "journal": backend_journal.read_all(),
                "claims": (world.ledger_claims() if backend != "world"
                           else None),
                "stats": world.serialization_stats(),
            })
        finally:
            world.close()
    assert runs[0] == runs[1]
    assert runs[0]["stats"]["entry_blob_serialized"] > 0
    assert all(o["status"] == "finished"
               for o in runs[0]["outcomes"].values())
    assert _default_scope_state() == default


def test_idle_turns_are_skipped_with_identical_digests():
    """Shards with nothing due at a barrier get no epoch command, and
    the run stays bit-identical to the in-process one.  After every
    step — and a fetch, which a skipped shard answers with its old
    clock — each shard's clock as the coordinator sees it equals the
    in-process kernel's."""
    inproc = build_ft_ring("sharded", seed=5)
    inproc.enable_trace_digest()
    inproc.kill_shard(1, at=0.08, restart_at=2.0)
    launch_ft_tours(inproc)

    world = build_ft_ring("proc", seed=5)
    sent = {"epoch": 0}

    def spy(send):
        def wrapped(op, payload):
            if op == "epoch":
                sent["epoch"] += 1
            send(op, payload)
        return wrapped

    try:
        for handle in world._handles:
            handle.send = spy(handle.send)
        world.enable_trace_digest()
        world.kill_shard(1, at=0.08, restart_at=2.0)
        launch_ft_tours(world)
        while inproc.step_epoch():
            assert world.step_epoch()
            world.counters()
            assert [h.now for h in world._handles] == \
                [shard.sim.now for shard in inproc.shards]
        assert not world.step_epoch()
        assert world.trace_digests() == inproc.trace_digests()
        assert world.outcomes() == inproc.outcomes()
        assert world.epochs_run == inproc.epochs_run
        assert sent["epoch"] < world.epochs_run * world.n_shards
    finally:
        world.close()


# -- view deltas ------------------------------------------------------------------


def test_view_deltas_rebuild_the_coordinator_views():
    """Oracle for the delta barrier exchange.  After every step, each
    worker's merged views equal the full views the coordinator would
    have served it at its last dispatch, through a shard
    outage and restart; a turn with no foreign change ships empty
    deltas."""
    import copy

    world = build_ft_ring("proc", seed=5)
    expected = {}
    seen = {"empty": 0, "partial": 0}

    def spy(handle, send):
        def wrapped(op, payload):
            views = payload.get("views")
            if views is not None:
                full = copy.deepcopy(world._views_for(handle.shard))
                if views.get("delta"):
                    if full == expected[handle.shard]:
                        assert (views["claims"], views["locks"]) == ({}, {})
                        seen["empty"] += 1
                    elif views["claims"] and \
                            len(views["claims"]) < len(full["claims"]):
                        seen["partial"] += 1
                expected[handle.shard] = full
            send(op, payload)
        return wrapped

    try:
        for handle in world._handles:
            handle.send = spy(handle, handle.send)
        world.kill_shard(1, at=0.08, restart_at=2.0)
        launch_ft_tours(world)
        steps = 0
        while world.step_epoch():
            steps += 1
            for shard, want in expected.items():
                got = world._handles[shard].request(
                    "fetch", {"what": "views"})["value"]
                assert got == want, (steps, shard)
        assert all(o["status"] == "finished"
                   for o in world.outcomes().values())
    finally:
        world.close()
    assert sorted(expected) == [0, 1, 2]
    assert seen["empty"] > 0
    assert seen["partial"] > 0


def test_claims_views_stay_exact_through_a_shard_outage():
    """Claims travel as deltas both ways.  After every barrier of an FT
    ring whose shard 1 dies and restarts, the coordinator's copy of
    each claims replica equals the replica itself, and each shard's
    view of every foreign replica, with the claims still queued for it
    applied, equals that copy — removals and the claims that moved
    while the shard was suspended included.  The replicas end holding
    the in-process run's claims (compared as rows of holders: worker
    shards mint work ids in their own namespaces)."""
    def claim_rows(world):
        return sorted(tuple(sorted(holders.items()))
                      for holders in world.ledger_claims().values())

    inproc = build_ft_ring("sharded", seed=5)
    inproc.kill_shard(1, at=0.08, restart_at=2.0)
    launch_ft_tours(inproc)
    inproc.run()

    world = build_ft_ring("proc", seed=5)
    seen = {"removed": 0, "queued_while_suspended": 0}
    absorb = world._absorb

    def spy(shard, reply):
        seen["removed"] += len(
            reply.get("dump", {}).get("claims", ({}, []))[1])
        absorb(shard, reply)

    world._absorb = spy
    try:
        world.kill_shard(1, at=0.08, restart_at=2.0)
        launch_ft_tours(world)
        while world.step_epoch():
            for shard, handle in enumerate(world._handles):
                assert world._claims[shard] == handle.fetch("ledger")
                if world._views_sent[shard] is None:
                    continue  # no turn yet: its first one ships all
                queued = world._claims_queued[shard]
                if queued and world.shard_suspended(shard):
                    seen["queued_while_suspended"] += 1
                views = handle.fetch("views")["claims"]
                for replica, view in views.items():
                    want = world._claims[replica]
                    for work_id in queued.get(replica, ()):
                        if work_id in want:
                            view[work_id] = want[work_id]
                        else:
                            view.pop(work_id, None)
                    assert view == want, (world.epochs_run, shard, replica)
        assert claim_rows(world) == claim_rows(inproc)
        assert world.outcomes() == inproc.outcomes()
    finally:
        world.close()
    assert seen["removed"] > 0
    assert seen["queued_while_suspended"] > 0


# -- facade parity ----------------------------------------------------------------


@pytest.mark.parametrize("backend", ["sharded", "proc"])
def test_validation_mirrors_in_process_facade(backend, proc_worlds,
                                              monkeypatch):
    make = ShardedWorld if backend == "sharded" else proc_worlds
    with pytest.raises(UsageError):
        make(n_shards=0)
    with monkeypatch.context() as patch:
        def no_spawn(*_args, **_kwargs):
            raise AssertionError("a worker process was started")

        patch.setattr(multiprocessing, "get_context", no_spawn)
        # A keyword the shard kernel does not take (including every
        # retired construction knob) fails here with one error on both
        # backends, not in a kernel's or a child's TypeError.
        for bad in ({"bogus": 1}, {"ipc": "pipe"}, {"lockstep": "serial"},
                    {"journal_epoch": 0.5}, {"start_method": "fork"},
                    {"workers": "process"}):
            with pytest.raises(UsageError,
                               match=f"unknown world keyword "
                                     f"{next(iter(bad))!r}"):
                make(n_shards=2, **bad)
    world = make(n_shards=2, seed=0)
    world.add_node("x", shard=1)
    assert world.shard_of("x") == 1
    with pytest.raises(UsageError):
        world.add_node("x")
    with pytest.raises(UsageError):
        world.add_node("y", shard=5)
    with pytest.raises(UsageError):
        world.shard_of("nope")
    with pytest.raises(UsageError):
        world.kill_shard(7, at=0.1)
    with pytest.raises(UsageError):
        world.kill_shard(1, at=0.2, restart_at=0.2)
    with pytest.raises(UsageError):
        world.record_of("ghost")


@pytest.mark.parametrize("backend", ["world", "sharded", "proc"])
def test_missing_resource_raises_usage_error_on_every_backend(backend,
                                                              monkeypatch):
    world = make_world(backend, n_shards=2)
    try:
        for name in ("n0", "n1"):  # one per shard where there are shards
            world.add_node(name).add_resource(Bank("bank"))
        if backend == "proc":
            def no_round_trip(*_args, **_kwargs):
                raise AssertionError("a fetch reached a shard")

            for handle in world._handles:
                monkeypatch.setattr(handle, "fetch", no_round_trip)
        for name in ("n0", "n1"):
            with pytest.raises(UsageError,
                               match=f"{name}: no resource 'vault'"):
                world.node(name).get_resource("vault")
            with pytest.raises(UsageError,
                               match=f"{name}: no resource 'vault'"):
                world.resource_state(name, "vault")
    finally:
        world.close()


def test_launch_record_stays_live_across_runs(proc_worlds):
    world = build(proc_worlds(n_shards=2, seed=3))
    agent = LinearAgent("capped", RING[:4])
    record = world.launch(agent, at="n0", method="step")
    world.run(until=0.02)
    assert record.status is AgentStatus.RUNNING
    world.run()
    # The object returned by launch() was merged in place at barriers.
    assert record.status is AgentStatus.FINISHED
    assert record is world.record_of("capped")
    assert record.steps_committed == 5


def test_a_cut_syncs_the_agent_records(proc_worlds):
    """A walk stopped by ``until`` pulls the workers' record copies, as
    an idle one does, so the cut world reads like the in-process one."""
    worlds = [build(proc_worlds(n_shards=2, seed=3)),
              build(ShardedWorld(n_shards=2, seed=3))]
    for world in worlds:
        world.launch(LinearAgent("cut", RING[:4]), at="n0", method="step")
        # By 0.1 the agent has committed steps on a worker shard.
        world.run(until=0.1)
    assert worlds[0].outcomes() == worlds[1].outcomes()
    assert worlds[0].record_of("cut").steps_committed > 0
    worlds[1].close()


def _stepped_until_finished(backend, agent_id):
    """Launch a 40-step tour and then a 2-step one, step the world one
    barrier at a time, and return the call after which ``agent_id``'s
    record reads finished (None when only the idle walk shows it)."""
    from repro.service import LaunchSpec, WorldSpec, build_world, \
        resolve_launch

    spec = WorldSpec(backend=backend, nodes=4, n_shards=2, seed=1,
                     journal="none")
    world, _journal = build_world(spec)
    try:
        for name, steps in (("long", 40), ("short", 2)):
            launch = resolve_launch(LaunchSpec(agent_id=name, steps=steps),
                                    spec, name)
            world.launch(launch.agent, at=launch.at, method=launch.method,
                         **launch.kwargs)
        calls = 0
        while world.step_epoch():
            calls += 1
            if world.record_of(agent_id).status is AgentStatus.FINISHED:
                return calls
        return None
    finally:
        world.close()


def test_step_epoch_returns_with_the_records_current():
    """Parallel epochs ship records with migrating agents, so every
    ``step_epoch()`` return pulls the workers' copies: a finished agent
    reads finished at the same call as in-process, not once the long
    tour beside it has gone idle."""
    inproc = _stepped_until_finished("sharded", "short")
    assert inproc is not None
    assert _stepped_until_finished("proc", "short") == inproc


def test_resource_state_returns_worker_side_snapshot(proc_worlds):
    world = run_swarm(build(proc_worlds(n_shards=2, seed=7)))
    bank = world.resource_state("n0", "bank")
    total = bank.peek("a")["balance"] + bank.peek("b")["balance"]
    assert total == 2_000  # transfers conserve money
    # NodeProxy offers the same read.
    assert world.node("n0").get_resource("bank").peek("a") == bank.peek("a")


# -- failure surfacing -------------------------------------------------------------


def test_worker_side_error_surfaces_with_remote_traceback(proc_worlds):
    world = build(proc_worlds(n_shards=2, seed=0))
    with pytest.raises(WorkerError) as excinfo:
        # A read only the worker can refuse: it knows no such view.
        world._handles[1].fetch("no-such-view")
    assert "UsageError" in str(excinfo.value)
    assert "worker traceback" in str(excinfo.value)
    assert excinfo.value.shard == 1


def test_sigkilled_worker_surfaces_as_shard_outage_not_hang(proc_worlds):
    world = build(proc_worlds(n_shards=2, seed=3))
    agent = LinearAgent("doomed", RING[:4])
    world.launch(agent, at="n0", method="step")
    world.run(until=0.02)
    victim = world._handles[1].process
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=10)
    with pytest.raises(WorkerDied) as excinfo:
        world.run()
    assert excinfo.value.shard == 1
    assert "outage" in str(excinfo.value)
    # The surviving worker's pipe stays request/reply-aligned: the
    # facade remains inspectable after the outage surfaced.
    metrics = world.shard_metrics(0)
    assert metrics.count("steps.committed") >= 1
    world.close()  # close after a dead worker must not raise


# -- picklability contract ---------------------------------------------------------


def test_unpicklable_agent_rejected_with_named_attribute(proc_worlds):
    world = build(proc_worlds(n_shards=2, seed=0))
    agent = LinearAgent("closure-smuggler", RING[:2])
    agent.callback = lambda: None  # the contract violation
    with pytest.raises(TypeError) as excinfo:
        world.launch(agent, at="n0", method="step")
    message = str(excinfo.value)
    assert "closure-smuggler" in message
    assert ".callback" in message
    assert "process-picklable" in message


def test_unpicklable_resource_rejected_with_named_attribute(proc_worlds):
    world = proc_worlds(n_shards=2, seed=0)
    node = world.add_node("solo")
    bank = Bank("bank")
    bank.on_overdraft = lambda account: None
    with pytest.raises(TypeError) as excinfo:
        node.add_resource(bank)
    assert ".on_overdraft" in str(excinfo.value)


def test_cross_process_resource_sharing_is_rejected(proc_worlds):
    world = proc_worlds(n_shards=2, seed=0)
    world.add_node("a0", shard=0)
    proxy = world.add_node("b0", shard=1)
    with pytest.raises(UsageError):
        proxy.share_resource_from("a0", "bank")


# -- lazy hydration across the process boundary ------------------------------------


def test_entry_frames_stay_lazy_across_the_pipe(proc_worlds):
    inproc = run_swarm(build(ShardedWorld(n_shards=2, seed=7)))
    inproc_stats = inproc.serialization_stats()
    proc = run_swarm(build(proc_worlds(n_shards=2, seed=7)))
    proc_stats = proc.serialization_stats()
    # Workers defer exactly as many entry hydrations as the in-process
    # run: crossing the pipe adopts frames without unpickling them.
    assert proc_stats["entry_hydration_deferred"] == \
        inproc_stats["entry_hydration_deferred"]
    assert proc_stats["entry_hydrated"] == inproc_stats["entry_hydrated"]
    assert proc_stats["entry_hydration_deferred"] > 0
    # The lazy win survives the boundary: most adopted frames are never
    # unpickled (steps hydrate none; only the rollback touches a tail).
    assert proc_stats["entry_hydrated"] < \
        proc_stats["entry_hydration_deferred"]
    # And every worker individually deferred work.
    for shard in range(2):
        assert proc.shard_serialization_stats(shard)[
            "entry_hydration_deferred"] > 0
