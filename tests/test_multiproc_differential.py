"""Differential determinism harness: one workload, three backends.

The headline invariant of the sharded architecture, finally tested in
one place across **all three execution modes**: the same seeded FT
itinerary workload — rollbacks, compensations, mid-run ``kill_shard``,
restart — run on

* an unsharded :class:`~repro.node.runtime.World` (one kernel),
* an in-process :class:`~repro.node.sharded.ShardedWorld`, and
* a multiprocess :class:`~repro.node.procshard.ProcShardedWorld`

must produce identical per-agent outcomes, identical per-bank effect
sums (exactly-once, wherever each step executed), and a consistent
exactly-once ledger.  Between the two sharded backends the equality is
bit-level: aggregate counters, epoch counts, event counts and the
kernel event-stream digests all match.

The quick tier runs a representative scenario pair; the parametrized
seed sweep across outage schedules is marked ``soak`` (run with
``-m soak``) so regular CI stays fast.

Workload builders live in :mod:`tests.helpers`
(:func:`~tests.helpers.run_differential_scenario`), module-level and
picklable — the worker-process contract.
"""

import pytest

from perf.agents import PerfAgent
from perf.inputs import make_inputs
from perf.kernel import launch_all, lay_out, new_world
from perf.measure import Tracer

from tests.helpers import (
    FT_RING,
    LinearAgent,
    build_ft_ring,
    launch_ft_tours,
    run_crash_resume_scenario,
    run_differential_scenario,
    shard_nodes,
)

BACKENDS = ("world", "sharded", "proc")

#: (outage, n_agents): None = crash-free; (shard, at, restart_at) =
#: whole-shard outage.  Kill times sweep the protocol phases of the
#: three-agent run (shadow in flight / first claims / mid-tour).
SCENARIOS = {
    "crash-free": (None, 3),
    "kill-restart-early": ((1, 0.04, 1.5), 3),
    "kill-restart-mid": ((1, 0.08, 2.0), 3),
    "kill-restart-late": ((1, 0.15, 2.0), 3),
    "kill-shard0-restart": ((0, 0.06, 2.0), 3),
}


def assert_differential(results, scenario):
    """The cross-backend equivalence contract for one scenario."""
    world, sharded, proc = (results[b] for b in BACKENDS)
    # 1. Per-agent outcomes: identical across ALL THREE backends.
    assert world["outcomes"] == sharded["outcomes"], scenario
    assert sharded["outcomes"] == proc["outcomes"], scenario
    assert all(o["status"] == "finished"
               for o in proc["outcomes"].values()), scenario
    # 2. Effect sums: every committed step debited one bank exactly
    # once; totals agree across all three, per-bank placement agrees
    # between the two sharded backends (and, with placement-aware
    # alternates resolving identically, with the unsharded run too).
    assert sum(world["debits"].values()) == \
        sum(sharded["debits"].values()) == \
        sum(proc["debits"].values()), scenario
    assert sharded["debits"] == proc["debits"], scenario
    # 3. Exactly-once ledger state: the replicas agree with a majority.
    assert sharded["ledger_agrees"] and proc["ledger_agrees"], scenario
    # 4. Between the sharded backends the runs are bit-identical.
    assert sharded["counters"] == proc["counters"], scenario
    assert sharded["epochs"] == proc["epochs"], scenario
    assert sharded["events"] == proc["events"], scenario


def run_all_backends(seed, outage, n_agents=3):
    return {backend: run_differential_scenario(backend, seed=seed,
                                               outage=outage,
                                               n_agents=n_agents)
            for backend in BACKENDS}


# -- quick tier -------------------------------------------------------------------


def test_crash_free_tours_identical_across_all_backends():
    results = run_all_backends(seed=11, outage=SCENARIOS["crash-free"][0])
    assert_differential(results, "crash-free")
    # Rollbacks and compensations really ran in every backend.
    assert all(o["rollbacks_completed"] == 1
               for o in results["proc"]["outcomes"].values())


def test_kill_shard_with_restart_identical_across_all_backends():
    results = run_all_backends(seed=11,
                               outage=SCENARIOS["kill-restart-mid"][0])
    assert_differential(results, "kill-restart-mid")


def test_event_streams_identical_between_sharded_backends():
    """Kernel-level equivalence: each worker process fires the exact
    same (time, label) event stream as its in-process twin, through a
    kill + restart."""
    from repro import ProcShardedWorld

    digests = {}
    for backend in ("sharded", "proc"):
        world = build_ft_ring(backend, seed=5)
        world.enable_trace_digest()
        world.kill_shard(1, at=0.08, restart_at=2.0)
        launch_ft_tours(world)
        world.run()
        digests[backend] = world.trace_digests()
        if isinstance(world, ProcShardedWorld):
            world.close()
    assert digests["sharded"] == digests["proc"]
    assert len(digests["proc"]) == 3


def test_kill_without_restart_identical_between_sharded_backends():
    """A permanent outage: the unsharded analogue has no 'kernel stays
    frozen forever' mode, so this scenario pins the two sharded
    backends to each other."""
    from repro import ProcShardedWorld

    results = {}
    for backend in ("sharded", "proc"):
        world = build_ft_ring(backend, seed=7)
        world.kill_shard(1, at=0.055)
        launch_ft_tours(world)
        world.run()
        results[backend] = {
            "outcomes": world.outcomes(),
            "counters": world.counters(),
            "debits": {n: 1_000
                       - world.resource_state(n, "bank").peek("a")["balance"]
                       for n in shard_nodes(0) + shard_nodes(2)},
            "quorum": world.ledger_quorum_agrees(),
            "alive": world.shard_alive(1),
        }
        if isinstance(world, ProcShardedWorld):
            world.close()
    assert results["sharded"] == results["proc"]
    assert not results["proc"]["alive"]
    assert all(o["status"] == "finished"
               for o in results["proc"]["outcomes"].values())


# -- crash-resume axis -----------------------------------------------------------
#
# The fourth differential axis: kill the *coordinator* mid-run (the
# write-ahead journal's ``kill_world``), rebuild from the journal with
# ``resume_world`` and run the continuation — the resumed run must be
# outcome-identical to the uninterrupted run of the same scenario, on
# every backend, at both kill phases (right after an epoch commit, and
# mid-barrier between collect and scatter with the commit marker torn).


def assert_crash_resume(backend, seed, kill_at, phase="commit",
                        outage=None, journal_factory=None, reference=None):
    """The resumed run equals the uninterrupted run on ``reference``
    (default: the same backend)."""
    resumed, killed = run_crash_resume_scenario(
        backend, seed=seed, kill_at=kill_at, phase=phase, outage=outage,
        journal_factory=journal_factory)
    assert killed, (backend, kill_at, phase)
    uninterrupted = run_differential_scenario(reference or backend,
                                              seed=seed, outage=outage)
    assert resumed == uninterrupted, (backend, kill_at, phase)


@pytest.mark.parametrize("backend", BACKENDS)
def test_crash_resume_identical_to_uninterrupted(backend):
    assert_crash_resume(backend, seed=11, kill_at=0.06,
                        outage=SCENARIOS["kill-restart-mid"][0])


@pytest.mark.parametrize("backend", ("sharded", "proc"))
def test_mid_barrier_crash_resume_identical(backend):
    """Kill between barrier collect and scatter: the commit marker is
    physically torn, so recovery falls back one epoch and re-executes
    the uncommitted barrier from journaled inputs.  Both sharded
    backends resume onto the uninterrupted in-process run, through the
    shard outage."""
    assert_crash_resume(backend, seed=11, kill_at=0.06, phase="barrier",
                        outage=SCENARIOS["kill-restart-mid"][0],
                        reference="sharded")


def test_crash_resume_from_reopened_file_journal(tmp_path):
    """The durable path: journal to disk, crash, reopen the file in a
    'new process' (a fresh journal over the same path) and resume."""
    from repro.journal import FileJournal, WorldJournal

    path = tmp_path / "world.journal"
    factory = lambda: WorldJournal(FileJournal(path))  # noqa: E731
    assert_crash_resume("proc", seed=11, kill_at=0.08, phase="barrier",
                        outage=SCENARIOS["kill-restart-mid"][0],
                        journal_factory=factory)


def test_proc_journal_with_retired_wire_config_still_resumes(monkeypatch):
    """Proc journals written while the process backend had a shared-
    memory ring wire record its mode and ring capacity in their config;
    resume ignores both and reproduces the uninterrupted run."""
    from repro.journal import MemoryJournal, WorldJournal

    record_config = WorldJournal.record_config

    def legacy_record_config(self, **data):
        data.update({"ipc": "shm", "ring_size": 4096})
        record_config(self, **data)

    monkeypatch.setattr(WorldJournal, "record_config", legacy_record_config)
    shared = MemoryJournal()
    factory = lambda: WorldJournal(shared)  # noqa: E731
    assert_crash_resume("proc", seed=11, kill_at=0.06,
                        outage=SCENARIOS["kill-restart-mid"][0],
                        journal_factory=factory)
    config = WorldJournal(shared).recover().config
    assert (config["ipc"], config["ring_size"]) == ("shm", 4096)


def test_proc_journal_with_retired_optimistic_lockstep_still_resumes(
        monkeypatch):
    """Journals written while the epoch schedule and the worker start
    method were construction knobs record ``lockstep`` (``"optimistic"``
    — the retired speculative schedule, pinned bit-identical to serial
    turns — ``"parallel"`` or ``"serial"``) and ``start_method``.
    Resume ignores both keys, and each such journal of an entangled run
    reproduces the uninterrupted run."""
    from repro.journal import MemoryJournal, WorldJournal

    outage = SCENARIOS["kill-restart-mid"][0]
    uninterrupted = run_differential_scenario("proc", seed=11, outage=outage)
    record_config = WorldJournal.record_config
    for retired in ({"lockstep": "optimistic"},
                    {"lockstep": "parallel", "start_method": "spawn"},
                    {"lockstep": "serial", "start_method": "spawn"}):
        shared = MemoryJournal()
        with monkeypatch.context() as patch:
            patch.setattr(WorldJournal, "record_config",
                          lambda self, retired=retired, **data:
                          record_config(self, **dict(data, **retired)))
            resumed, killed = run_crash_resume_scenario(
                "proc", seed=11, kill_at=0.06, outage=outage,
                journal_factory=lambda shared=shared: WorldJournal(shared))
        assert killed, retired
        assert resumed == uninterrupted, retired
        config = WorldJournal(shared).recover().config
        assert {key: config[key] for key in retired} == retired


def test_world_journal_with_retired_journal_epoch_still_resumes(monkeypatch):
    """``World`` journals recorded their commit grid as ``journal_epoch``;
    the grid is now always ``net_params.latency``.  A journal written on
    that grid or another one resumes to the uninterrupted run: replay
    walks the journaled barriers verbatim, the continuation takes the
    latency grid, and one kernel routes nothing at a barrier, so only
    the markers move, never the events."""
    from repro import World
    from repro.journal import MemoryJournal, WorldJournal

    outage = SCENARIOS["kill-restart-mid"][0]
    uninterrupted = run_differential_scenario("world", seed=11,
                                              outage=outage)
    record_config = WorldJournal.record_config
    barriers = {}
    for grid in (0.005, 0.0125):
        shared = MemoryJournal()
        journals = []

        def factory():
            # The second journal is the recovery, which runs the code
            # as it is now: the old grid is gone by then.
            if journals:
                patch.undo()
            journals.append(WorldJournal(shared))
            return journals[-1]

        with monkeypatch.context() as patch:
            patch.setattr(WorldJournal, "record_config",
                          lambda self, grid=grid, **data:
                          record_config(self, **dict(data,
                                                     journal_epoch=grid)))
            patch.setattr(World, "_epoch_length", lambda self, grid=grid: grid)
            resumed, killed = run_crash_resume_scenario(
                "world", seed=11, kill_at=0.06, outage=outage,
                journal_factory=factory)
        assert killed, grid
        assert resumed == uninterrupted, grid
        recovered = WorldJournal(shared).recover()
        assert recovered.config["journal_epoch"] == grid
        barriers[grid] = [data["barrier"] for kind, data in recovered.entries
                          if kind == "epoch"]
    # The old grid really moved the markers.
    assert barriers[0.005] != barriers[0.0125]


def test_forced_parallel_entangled_journal_fails_the_frontier_check(
        monkeypatch):
    """A journal of an entangled run under the retired forced
    ``lockstep="parallel"`` resumes under the one schedule left (serial
    turns on an entangled run), which walks a different event sequence:
    resume refuses it with a typed error instead of continuing a
    different run, whatever other retired keys the config carries."""
    from repro import ProcShardedWorld
    from repro.errors import JournalDiverged, WorldKilled
    from repro.journal import MemoryJournal, WorldJournal, resume_world

    for retired in ({"lockstep": "parallel"},
                    {"lockstep": "parallel", "start_method": "spawn"}):
        shared = MemoryJournal()
        with monkeypatch.context() as patch:
            record_config = WorldJournal.record_config
            patch.setattr(WorldJournal, "record_config",
                          lambda self, retired=retired, **data:
                          record_config(self, **dict(data, **retired)))
            # The retired schedule: parallel epochs on an entangled run,
            # every turn dispatched before any reply is collected.
            cycle, collect = ProcShardedWorld._cycle, ProcShardedWorld._collect
            deferred = []

            def parallel_cycle(self, *args, **kwargs):
                cycle(self, *args, **kwargs)
                for shard in deferred:
                    collect(self, shard)
                deferred.clear()

            patch.setattr(ProcShardedWorld, "_cycle", parallel_cycle)
            patch.setattr(ProcShardedWorld, "_collect",
                          lambda self, shard: deferred.append(shard))
            world = build_ft_ring("proc", seed=11,
                                  journal=WorldJournal(shared))
            try:
                world.kill_shard(1, at=0.08, restart_at=2.0)
                launch_ft_tours(world)
                world.kill_world(at=0.3)
                with pytest.raises(WorldKilled):
                    world.run(until=120.0)
            finally:
                world.close()
        with pytest.raises(JournalDiverged):
            resume_world(WorldJournal(shared))


# -- launch is a ship: mid-run launches and the repo benchmark's inputs ------------


def _stepped_run_with_late_launches(backend):
    """Drive the FT ring with ``step_epoch`` and launch one 3-hop FT
    tour per shard after calls 5, 17 and 29 — launches that land
    between barriers, while their owners hold a routed inbox."""
    from repro import ProcShardedWorld
    from repro.agent.packages import Protocol

    world = build_ft_ring(backend, seed=5, n_shards=3)
    try:
        world.enable_trace_digest()
        launch_ft_tours(world, n_agents=1)
        calls = 0
        while world.step_epoch() or calls < 29:
            calls += 1
            if calls in (5, 17, 29):
                for shard in range(3):
                    start = FT_RING.index(shard_nodes(shard)[0])
                    plan = [FT_RING[(start + j) % len(FT_RING)]
                            for j in range(3)]
                    world.launch(LinearAgent(f"late-{calls}-{shard}", plan),
                                 at=plan[0], method="step",
                                 protocol=Protocol.FAULT_TOLERANT)
        return (world.outcomes(), world.events_processed(),
                world.epochs_run, world.trace_digests())
    finally:
        if isinstance(world, ProcShardedWorld):
            world.close()


def test_mid_run_launch_queues_behind_the_routed_inbox():
    """A launch between barriers must land after the owner's inbox
    routed at the last barrier, as the in-process flush scheduled it."""
    inproc = _stepped_run_with_late_launches("sharded")
    proc = _stepped_run_with_late_launches("proc")
    assert len(inproc[0]) == 10
    assert all(o["status"] == "finished" for o in proc[0].values())
    assert proc == inproc


def _perf_world(inputs, inproc, journal=None):
    world = new_world(inputs, inproc=inproc, journal=journal)
    lay_out(world, inputs)
    launch_all(world, inputs, Tracer(inputs.workload, enabled=False))
    return world


def _perf_observed(world):
    return {"outcomes": world.outcomes(), "counters": world.counters(),
            "epochs": world.epochs_run,
            "events": world.events_processed()}


def test_pinned_ft_crossshard_input_set_equal_on_both_sharded_backends():
    """Input set (seed 11, variant 7) of the repo benchmark's
    ``ft-crossshard`` workload — every hop cross-shard, the next two
    ring nodes as alternates, shard 1 killed at 0.08 and restarted at
    2.0.  Its agents' SRO key aliases an interned string, so their
    first package was 8 bytes shorter in-process than on the process
    backend until launch became a ship on every backend."""
    inputs = make_inputs("ft-crossshard", 11, 7)
    results = {}
    for inproc in (True, False):
        world = _perf_world(inputs, inproc)
        try:
            world.enable_trace_digest()
            world.run()
            results[inproc] = (_perf_observed(world), world.trace_digests())
        finally:
            if not inproc:
                world.close()
    assert results[True] == results[False]
    assert all(o["status"] == "finished"
               for o in results[False][0]["outcomes"].values())


def test_records_only_barriers_send_no_command():
    """Input set (seed 11, variant 0) of the ``ft-crossshard`` workload
    on the serial turn schedule.  Every epoch command goes to a shard
    with an event due by its barrier, staged bridge items or a
    revival; broadcast records alone never buy a turn but ride the
    shard's next command, with the barriers it skipped.  The worker's
    command count is pinned (435 while records-only turns were
    taken), and the run equals the in-process one."""
    inputs = make_inputs("ft-crossshard", 11, 0)
    inproc = _perf_world(inputs, inproc=True)
    inproc.enable_trace_digest()
    inproc.run()

    world = _perf_world(inputs, inproc=False)
    sent = {handle.shard: 0 for handle in world._handles}
    records_caught_up = 0

    def spy(handle, send):
        def wrapped(op, payload):
            nonlocal records_caught_up
            if op == "epoch":
                sent[handle.shard] += 1
                due = payload["run"] and handle.peek is not None \
                    and handle.peek <= payload["barrier"]
                assert due or payload["items"] \
                    or payload["revive"] is not None, (handle.shard, payload)
                if payload["records"] and handle.catch_up is not None:
                    records_caught_up += 1
            send(op, payload)
        return wrapped

    try:
        for handle in world._handles:
            handle.send = spy(handle, handle.send)
        world.enable_trace_digest()
        world.run()
        assert _perf_observed(world) == _perf_observed(inproc)
        assert world.trace_digests() == inproc.trace_digests()
    finally:
        world.close()
    assert sent[1] == 316
    assert records_caught_up > 0


def test_pinned_ft_crossshard_input_set_resumes_identically(tmp_path):
    """The same inputs in-process, killed mid-barrier and resumed from
    a reopened file journal, equal the uninterrupted run."""
    from repro.errors import WorldKilled
    from repro.journal import FileJournal, WorldJournal, resume_world

    inputs = make_inputs("ft-crossshard", 11, 7)
    world = _perf_world(inputs, inproc=True)
    world.run()
    uninterrupted = _perf_observed(world)
    assert all(o["status"] == "finished"
               for o in uninterrupted["outcomes"].values())

    path = tmp_path / "world.journal"
    journal = WorldJournal(FileJournal(path))
    world = _perf_world(inputs, inproc=True, journal=journal)
    world.kill_world(at=0.5, phase="barrier")
    with pytest.raises(WorldKilled):
        world.run()
    journal.close()
    journal = WorldJournal(FileJournal(path))
    try:
        resumed = resume_world(journal)
        resumed.run()
        assert _perf_observed(resumed) == uninterrupted
    finally:
        journal.close()


def test_aliased_key_agent_first_package_size_equal_on_all_backends():
    """An agent whose SRO key aliases an interned string pickles shorter
    before its first round trip than after; every backend launches the
    round-tripped agent, so the first package is the same size."""
    from repro import ProcShardedWorld, ShardedWorld, World
    from repro.storage.serialization import capture, restore

    inputs = make_inputs("ft-crossshard", 11, 7)
    spec = inputs.agents[0]
    agent = PerfAgent(spec)
    assert len(capture(agent)) < len(capture(restore(capture(agent))))
    at = spec.steps[0].node
    sizes = {}
    for backend in ("world", "sharded", "proc"):
        if backend == "world":
            world = World(seed=1)
        elif backend == "sharded":
            world = ShardedWorld(n_shards=2, seed=1)
        else:
            world = ProcShardedWorld(n_shards=2, seed=1)
        try:
            for name in inputs.ring:
                # Shard 0 hosts the launch node on both sharded backends.
                if backend == "world":
                    world.add_node(name)
                else:
                    world.add_node(name, shard=0 if name == at else 1)
            world.launch(PerfAgent(spec), at=at, method="run")
            if backend == "world":
                kernel = world
            elif backend == "sharded":
                kernel = world.world_of(at)
            else:
                kernel = world._handles[0].server.world
            sizes[backend] = kernel.node(at).queue.head().size_bytes
        finally:
            if backend == "proc":
                world.close()
    assert sizes["world"] == sizes["sharded"] == sizes["proc"]


# -- generated workloads: the fuzzer feeds the same harness -----------------------
#
# The fixed scenarios above pin known-interesting schedules; the seeded
# fuzzer (:mod:`repro.fuzz`) generates arbitrary itineraries over the
# semantic scenario pack — rollbacks across ship ratchets, fee-bearing
# compensations, node crashes, shard outages — and runs the same
# three-backend cross-check *plus* the model oracle.  The quick tier
# replays two seeds chosen (by a coverage scan) to exercise the
# ratchet-adjusted rollback and the semantic-residue paths; the soak
# tier sweeps wide.


@pytest.mark.parametrize("seed", (8, 11))
def test_generated_workload_differential(seed):
    from repro.fuzz import run_seed

    assert run_seed(seed) == []


@pytest.mark.soak
@pytest.mark.parametrize("seed", range(0, 50, 2))
def test_generated_seed_sweep_differential(seed):
    from repro.fuzz import run_seed

    assert run_seed(seed) == []


def test_generated_sweep_world_and_sharded():
    """The first 60 generated seeds on the two in-process backends plus
    the model oracle: no divergence, and the model's rollback total is
    fixed for this generator version (a drift means the generator
    changed without a version bump)."""
    from repro.fuzz import generate_case, predict, run_seed_range

    summary = run_seed_range(0, 60, backends=("world", "sharded"))
    assert summary["seeds"] == 60
    assert summary["failing_seeds"] == []
    rollbacks = sum(agent["rollbacks"]
                    for seed in range(60)
                    for agent in predict(generate_case(seed))["agents"]
                    .values())
    assert rollbacks == 113


@pytest.mark.soak
def test_generated_sweep_all_three_backends():
    from repro.fuzz import run_seed_range

    summary = run_seed_range(0, 8, backends=BACKENDS)
    assert summary["failing_seeds"] == []


# -- soak tier: the full seed sweep ------------------------------------------------


@pytest.mark.soak
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", (3, 11, 29, 47))
def test_seed_sweep_differential(scenario, seed):
    outage, n_agents = SCENARIOS[scenario]
    results = run_all_backends(seed=seed, outage=outage, n_agents=n_agents)
    assert_differential(results, f"{scenario}/seed={seed}")


@pytest.mark.soak
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("phase", ("commit", "barrier"))
@pytest.mark.parametrize("kill_at", (0.03, 0.07, 0.3, 1.0))
@pytest.mark.parametrize("seed", (3, 29))
def test_crash_resume_sweep(backend, phase, kill_at, seed):
    assert_crash_resume(backend, seed=seed, kill_at=kill_at, phase=phase,
                        outage=SCENARIOS["kill-restart-mid"][0])
