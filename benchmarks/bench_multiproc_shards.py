"""EVAL-MULTIPROC-SHARDS — worker processes vs in-process shard kernels.

The ROADMAP's oldest open item: ``ShardedWorld`` runs its N kernels in
one Python process, so N-way *logical* concurrency uses one core.
``ProcShardedWorld`` moves each kernel into a worker process behind
the same lockstep epoch protocol; on a multi-core machine the epochs
execute on real cores in parallel and the same seeded swarm finishes
in a fraction of the wall-clock time — with byte-identical per-agent
outcomes and aggregate counters (the differential harness in
tests/test_multiproc_differential.py proves the equivalence; this
bench measures the speed).

The workload is the sharded swarm in its production shape: tours are
**partition-keyed** — each agent's itinerary stays on the nodes its
home shard hosts — so shards scale the way real shardings do (local
traffic, the bridge only carries the occasional stray hop at lower
shard counts).  The same 64 agents run at every shard count, on both
backends, and every configuration must produce identical per-agent
outcomes.

Emits ``benchmarks/results/BENCH_multiproc_shards.json``:

* ``speedup.speedup`` — in-process wall-clock / process-backed
  wall-clock for the run phase at ``workers`` shards.  **Hardware
  dependent**: >= 1.5 is asserted only when the machine actually has
  at least that many cores (a single-core container can only lose to
  IPC overhead — the JSON records ``cpu_count`` so the committed
  baseline and the regression gate stay honest about what they
  measured).
* ``speedup.outcomes_identical`` — per-agent outcomes, aggregate
  counters, event and epoch totals equal between the two backends
  (the invariant part, gated ``equal`` regardless of hardware).
* ``scaling.rows`` — both backends' wall-clock per shard count.

``BENCH_QUICK=1`` shrinks the workload for smoke runs.
"""

import json
import os
import time

from repro import ProcShardedWorld, ShardedWorld
from repro.bench import format_table
from repro.bench.workloads import BANK, TourAgent, make_tour_plan
from repro.resources.bank import Bank, OverdraftPolicy

from bench_paths import results_dir

QUICK = bool(os.environ.get("BENCH_QUICK"))

N_SHARDS = 2 if QUICK else 4
NODES_PER_SHARD = 3
N_NODES = NODES_PER_SHARD * N_SHARDS
N_AGENTS = 8 if QUICK else 64
N_STEPS = 4 if QUICK else 8
#: Inert agent payload: makes the per-step serialization work (capture,
#: stable-store sizing, savepoint snapshots) large enough that compute
#: dominates the per-epoch pipe exchange.
SRO_BALLAST = 20_000 if QUICK else 60_000
#: Barrier spacing.  The default (= network latency) is the right
#: lookahead for correctness tests; a partition-keyed workload needs
#: no cross-shard lookahead at all, so throughput runs use a coarse
#: grid — hundreds of kernel events per barrier exchange instead of
#: one or two.  Applied identically to both backends — the comparison
#: stays apples-to-apples and outcomes stay identical.
EPOCH = 1.0
SPEEDUP_TARGET = 1.5

RESULTS_DIR = results_dir()
JSON_PATH = RESULTS_DIR / "BENCH_multiproc_shards.json"


def record_json(section, payload):
    """Merge one section into the shared JSON artifact."""
    RESULTS_DIR.mkdir(exist_ok=True)
    data = {}
    if JSON_PATH.exists():
        data = json.loads(JSON_PATH.read_text())
    data[section] = payload
    data["quick_mode"] = QUICK
    JSON_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def build_world(world):
    for i in range(N_NODES):
        node = world.add_node(f"n{i}")
        bank = Bank(BANK)
        bank.seed_account("merchant", 1_000_000,
                          overdraft=OverdraftPolicy.ALLOWED)
        bank.seed_account("escrow", 1_000_000,
                          overdraft=OverdraftPolicy.ALLOWED)
        node.add_resource(bank)
    return world


def launch_swarm(world):
    """64 partition-keyed tours: agent a tours its home partition's
    nodes (co-located at N_SHARDS shards; stray cross-shard hops at
    lower shard counts go over the bridge — outcomes must not care)."""
    for a in range(N_AGENTS):
        home = a % N_SHARDS
        partition = [f"n{i}" for i in range(N_NODES)
                     if i % N_SHARDS == home]
        offset = (a // N_SHARDS) % len(partition)
        rotated = partition[offset:] + partition[:offset]
        plan = make_tour_plan(rotated, N_STEPS, mixed_fraction=0.25,
                              rollback_depth=N_STEPS - 1,
                              sro_ballast=SRO_BALLAST)
        agent = TourAgent(f"mp-{a}", plan)
        world.launch(agent, at=plan.steps[0].node, method="run")


def run_backend(backend, n_shards, seed=40):
    """Build + run the swarm; returns (summary, setup_s, run_s)."""
    t0 = time.perf_counter()
    if backend == "proc":
        world = build_world(ProcShardedWorld(n_shards=n_shards, seed=seed,
                                             epoch=EPOCH))
    else:
        world = build_world(ShardedWorld(n_shards=n_shards, seed=seed,
                                         epoch=EPOCH))
    launch_swarm(world)
    t1 = time.perf_counter()
    world.run()
    t2 = time.perf_counter()
    outcomes = world.outcomes()
    assert all(o["status"] == "finished" for o in outcomes.values())
    summary = (outcomes, world.counters(), world.events_processed(),
               world.epochs_run)
    if backend == "proc":
        world.close()
    return summary, t1 - t0, t2 - t1


def test_eval_multiproc_speedup(benchmark, record_table):
    def measure():
        cpu_count = os.cpu_count() or 1
        rows = []
        summaries = {}
        shard_counts = (N_SHARDS,) if QUICK else (1, 2, N_SHARDS)
        for n_shards in shard_counts:
            in_summary, _in_setup, in_run = run_backend("inline", n_shards)
            p_summary, p_setup, p_run = run_backend("proc", n_shards)
            summaries[n_shards] = (in_summary, p_summary)
            rows.append([n_shards, round(in_run, 3), round(p_setup, 3),
                         round(p_run, 3), round(in_run / p_run, 2)])
        # The invariant half of the claim, at every shard count: same
        # outcomes, same counters, same event and epoch totals —
        # process workers change where the kernels run, not what they
        # compute.  And the shard count itself must not change
        # per-agent outcomes either (the PR-2 bridge invariant).
        outcomes_identical = all(
            in_s == p_s for in_s, p_s in summaries.values())
        assert outcomes_identical
        reference = summaries[shard_counts[0]][0][0]
        assert all(in_s[0] == reference
                   for in_s, _ in summaries.values())
        speedup = rows[-1][4]
        # The performance half is hardware-gated: demanding parallel
        # speedup from a single-core container would be dishonest, and
        # shared CI runners report cores they time-slice — so the hard
        # assert is opt-in (BENCH_ASSERT_SPEEDUP=1 on dedicated
        # hardware); the JSON always records the verdict and the
        # bench-regression gate guards against relative slides.
        target_met = None
        if cpu_count >= N_SHARDS and not QUICK:
            target_met = speedup >= SPEEDUP_TARGET
            if os.environ.get("BENCH_ASSERT_SPEEDUP"):
                assert target_met, (
                    f"{N_SHARDS} workers on {cpu_count} cores: "
                    f"{speedup:.2f}x < {SPEEDUP_TARGET}x")
        in_summary = summaries[N_SHARDS][0]
        return (cpu_count, rows, outcomes_identical, speedup, target_met,
                in_summary)

    (cpu_count, rows, outcomes_identical, speedup, target_met,
     in_summary) = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = format_table(
        ["shards", "in-process run (s)", "worker setup (s)",
         "worker run (s)", "speedup"],
        rows,
        title=f"EVAL-MULTIPROC-SHARDS: {N_AGENTS} agents x {N_STEPS} "
              f"steps, partition-keyed tours, {cpu_count} core(s)")
    record_table("multiproc_shards", table)
    record_json("speedup", {
        "cpu_count": cpu_count,
        "workers": N_SHARDS,
        "agents": N_AGENTS,
        "steps": N_STEPS,
        "sro_ballast": SRO_BALLAST,
        "epoch": EPOCH,
        "inproc_run_s": rows[-1][1],
        "proc_run_s": rows[-1][3],
        "speedup": speedup,
        "speedup_target": SPEEDUP_TARGET,
        "speedup_target_met": target_met,
        "outcomes_identical": outcomes_identical,
        "events_total": in_summary[2],
        "epochs": in_summary[3],
    })
    record_json("scaling", {
        "rows": [{"shards": r[0], "inproc_run_s": r[1],
                  "proc_setup_s": r[2], "proc_run_s": r[3],
                  "speedup": r[4]} for r in rows],
    })
