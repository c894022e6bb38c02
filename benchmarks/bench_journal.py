"""EVAL-JOURNAL — write-ahead journal overhead and crash-resume cost.

The durability tentpole's performance claims, measured on the sharded
backend with the partition-keyed tour swarm the other evals use:

* **overhead** — the same seeded run journal-off vs journal-on (in-RAM
  and append-only file backends).  Group commit hands each epoch's
  payload records and marker to the OS at its barrier, and the run
  fsyncs them once, when ``run()`` returns, so the wall-clock ratio
  must stay small; each side is the median of ``OVERHEAD_ROUNDS``
  alternating runs, so one slow fsync or scheduler hiccup cannot
  decide the ratio.  The invariant half (identical outcomes, identical
  event totals — journaling must not *change* the run) is gated
  ``equal``.
* **resume** — kill the coordinator mid-barrier (torn commit marker),
  reopen the journal from disk and resume.  Records recovery-frontier
  stats, the resume wall-clock relative to a full uninterrupted run
  (replay re-executes the committed prefix, so the ratio is O(1)-ish,
  not free), and the outcome-identity verdict.

Emits ``benchmarks/results/BENCH_journal.json``; the bench-regression
gate (``compare_bench.py``) pins the invariants exactly and puts a
generous band on the wall-clock ratios.

``BENCH_QUICK=1`` shrinks the workload for smoke runs.
"""

import json
import os
import statistics
import tempfile
import time

from repro import (
    FileJournal,
    ShardedWorld,
    WorldJournal,
    WorldKilled,
    resume_world,
)
from repro.bench import format_table
from repro.bench.workloads import BANK, TourAgent, make_tour_plan
from repro.journal import MemoryJournal
from repro.resources.bank import Bank, OverdraftPolicy

from bench_paths import results_dir

QUICK = bool(os.environ.get("BENCH_QUICK"))

N_SHARDS = 3
NODES_PER_SHARD = 3
N_NODES = NODES_PER_SHARD * N_SHARDS
N_AGENTS = 6 if QUICK else 24
N_STEPS = 4 if QUICK else 8
SRO_BALLAST = 10_000 if QUICK else 40_000
EPOCH = 1.0
SEED = 41
#: Alternating off / memory / file runs per overhead measurement.
OVERHEAD_ROUNDS = 5
#: Lands on the second epoch barrier (the EPOCH-spaced grid starts at
#: 0.0), so recovery has one committed epoch behind the torn one.
KILL_AT = 0.5

RESULTS_DIR = results_dir()
JSON_PATH = RESULTS_DIR / "BENCH_journal.json"


def record_json(section, payload):
    """Merge one section into the shared JSON artifact."""
    RESULTS_DIR.mkdir(exist_ok=True)
    data = {}
    if JSON_PATH.exists():
        data = json.loads(JSON_PATH.read_text())
    data[section] = payload
    data["quick_mode"] = QUICK
    JSON_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def build_world(journal=None):
    world = ShardedWorld(n_shards=N_SHARDS, seed=SEED, epoch=EPOCH,
                         journal=journal)
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
    for a in range(N_AGENTS):
        home = a % N_SHARDS
        partition = [f"n{i}" for i in range(N_NODES)
                     if i % N_SHARDS == home]
        offset = (a // N_SHARDS) % len(partition)
        rotated = partition[offset:] + partition[:offset]
        plan = make_tour_plan(rotated, N_STEPS, mixed_fraction=0.25,
                              rollback_depth=N_STEPS - 1,
                              sro_ballast=SRO_BALLAST)
        world.launch(TourAgent(f"wj-{a}", plan),
                     at=plan.steps[0].node, method="run")


def run_once(journal=None, kill_at=None):
    """One seeded swarm run; returns (summary, run_s, killed)."""
    world = build_world(journal)
    launch_swarm(world)
    if kill_at is not None:
        world.kill_world(at=kill_at, phase="barrier")
    killed = False
    t0 = time.perf_counter()
    try:
        world.run()
    except WorldKilled:
        killed = True
    run_s = time.perf_counter() - t0
    summary = None
    if not killed:
        outcomes = world.outcomes()
        assert all(o["status"] == "finished" for o in outcomes.values())
        summary = (outcomes, world.counters(), world.events_processed(),
                   world.epochs_run)
    return summary, run_s, killed


def test_eval_journal_overhead(benchmark, record_table):
    def measure():
        times = {"off": [], "memory": [], "file": []}
        summaries = []
        stats = {}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bench.journal")

            def file_journal():
                if os.path.exists(path):
                    os.remove(path)
                return WorldJournal(FileJournal(path))

            factories = {
                "off": lambda: None,
                "memory": lambda: WorldJournal(MemoryJournal()),
                "file": file_journal,
            }
            for _ in range(OVERHEAD_ROUNDS):
                for name, factory in factories.items():
                    journal = factory()
                    summary, run_s, _ = run_once(journal)
                    times[name].append(run_s)
                    summaries.append(summary)
                    if journal is not None:
                        stats[name] = journal.stats()
                        journal.close()
        baseline = summaries[0]
        base_s = statistics.median(times["off"])
        rows = [["off", round(base_s, 3), 1.0, 0, 0, 0]]
        for name in ("memory", "file"):
            run_s = statistics.median(times[name])
            rows.append([name, round(run_s, 3),
                         round(run_s / base_s, 2),
                         stats[name]["commits"],
                         stats[name]["records_written"],
                         stats[name]["bytes"]])
        identical = all(summary == baseline for summary in summaries)
        return baseline, rows, identical, stats

    baseline, rows, identical, stats = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    table = format_table(
        ["journal", "run (s)", "ratio", "commits", "records", "bytes"],
        rows,
        title=f"EVAL-JOURNAL overhead: {N_AGENTS} agents x {N_STEPS} "
              f"steps, {N_SHARDS} shards, median of {OVERHEAD_ROUNDS} "
              f"alternating runs")
    record_table("journal_overhead", table)
    record_json("overhead", {
        "agents": N_AGENTS,
        "steps": N_STEPS,
        "shards": N_SHARDS,
        "epoch": EPOCH,
        "outcomes_identical": identical,
        "events_total": baseline[2],
        "epochs": baseline[3],
        "baseline_run_s": rows[0][1],
        "memory_run_s": rows[1][1],
        "memory_overhead_ratio": rows[1][2],
        "file_run_s": rows[2][1],
        "file_overhead_ratio": rows[2][2],
        "commits": stats["file"]["commits"],
        "records": stats["file"]["records_written"],
        "journal_bytes": stats["file"]["bytes"],
    })
    assert identical


def test_eval_journal_resume(benchmark, record_table):
    def measure():
        reference, full_s, _ = run_once()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bench.journal")
            journal = WorldJournal(FileJournal(path))
            _, killed_s, killed = run_once(journal, kill_at=KILL_AT)
            assert killed
            journal.close()
            # A "new process": reopen the journal file and resume.
            t0 = time.perf_counter()
            journal = WorldJournal(FileJournal(path))
            recovered = journal.recover()
            world = resume_world(journal)
            replay_s = time.perf_counter() - t0
            world.run()
            resume_s = time.perf_counter() - t0
            summary = (world.outcomes(), world.counters(),
                       world.events_processed(), world.epochs_run)
            journal.close()
        return (reference, summary, full_s, killed_s, replay_s, resume_s,
                recovered)

    (reference, summary, full_s, killed_s, replay_s, resume_s,
     recovered) = benchmark.pedantic(measure, rounds=1, iterations=1)
    identical = summary == reference
    rows = [
        ["uninterrupted", round(full_s, 3)],
        ["journaled, killed mid-barrier", round(killed_s, 3)],
        ["recover + replay to frontier", round(replay_s, 3)],
        ["resume to completion", round(resume_s, 3)],
    ]
    table = format_table(
        ["phase", "wall (s)"], rows,
        title=f"EVAL-JOURNAL resume: kill at t={KILL_AT}, "
              f"frontier={recovered.frontier_barrier}")
    record_table("journal_resume", table)
    record_json("resume", {
        "kill_at": KILL_AT,
        "frontier_barrier": recovered.frontier_barrier,
        "torn_tail": recovered.torn_tail,
        "kept_records": recovered.kept_records,
        "discarded_records": recovered.discarded_records,
        "outcome_identical": identical,
        "full_run_s": round(full_s, 3),
        "replay_s": round(replay_s, 3),
        "resume_s": round(resume_s, 3),
        "resume_over_full_ratio": round(resume_s / full_s, 2),
    })
    assert identical
    assert recovered.torn_tail
