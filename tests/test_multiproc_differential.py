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

from tests.helpers import (
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
                        outage=None, journal_factory=None):
    resumed, killed = run_crash_resume_scenario(
        backend, seed=seed, kill_at=kill_at, phase=phase, outage=outage,
        journal_factory=journal_factory)
    assert killed, (backend, kill_at, phase)
    uninterrupted = run_differential_scenario(backend, seed=seed,
                                              outage=outage)
    assert resumed == uninterrupted, (backend, kill_at, phase)


@pytest.mark.parametrize("backend", BACKENDS)
def test_crash_resume_identical_to_uninterrupted(backend):
    assert_crash_resume(backend, seed=11, kill_at=0.06,
                        outage=SCENARIOS["kill-restart-mid"][0])


@pytest.mark.parametrize("backend", ("sharded", "proc"))
def test_mid_barrier_crash_resume_identical(backend):
    """Kill between barrier collect and scatter: the commit marker is
    physically torn, so recovery falls back one epoch and re-executes
    the uncommitted barrier from journaled inputs."""
    assert_crash_resume(backend, seed=11, kill_at=0.06, phase="barrier",
                        outage=SCENARIOS["kill-restart-mid"][0])


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
