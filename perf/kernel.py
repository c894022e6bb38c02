"""The four kernel workloads: build a world, run it, observe it.

One *repetition* builds a fresh world from the generated inputs (that
is the set-up), drives it to completion (that is the measured phase),
reads the public accessors, and closes it.  A traced repetition drives
the same world with ``step_epoch()`` under a span per call instead of
``run()``.
"""

from __future__ import annotations

import os
import time
from typing import Any, Optional

from repro import (
    Bank,
    FileJournal,
    FTParams,
    InfoDirectory,
    ProcShardedWorld,
    Protocol,
    RollbackMode,
    ShardedWorld,
    World,
    WorldJournal,
    WorldKilled,
    resume_world,
    serialization_stats,
)

from perf.agents import BANK, DIRECTORY, PerfAgent
from perf.inputs import Inputs
from perf.measure import (
    Stopwatch,
    Tracer,
    leaks,
    peak_rss_mb,
    shm_segments,
    world_pids,
)

OPENING_BALANCE = 1_000_000
ACCOUNTS = ("merchant", "escrow")


# -- building ---------------------------------------------------------------

def new_world(inputs: Inputs, inproc: bool = False,
              journal: Optional[WorldJournal] = None):
    """The world a workload row names, every other knob at its default.

    ``inproc`` swaps the process backend for the in-process sharded
    driver with the same arguments: the reference the process-backed
    workloads must agree with.
    """
    size = inputs.size
    if inputs.workload == "tour-rollback":
        return World(seed=inputs.seed)
    kwargs: dict[str, Any] = {"n_shards": size["n_shards"],
                              "seed": inputs.seed}
    if "epoch" in size:
        kwargs["epoch"] = size["epoch"]
    if inputs.workload == "ft-crossshard":
        kwargs["ft_params"] = FTParams(takeover_timeout=0.05)
    if journal is not None:
        kwargs["journal"] = journal
    if inproc or inputs.workload == "journal-resume":
        return ShardedWorld(**kwargs)
    return ProcShardedWorld(**kwargs)


def populate(world, inputs: Inputs, tracer: Tracer) -> None:
    """Nodes, resources, failure schedule and every launch (queued)."""
    lay_out(world, inputs)
    launch_all(world, inputs, tracer)


def launch_all(world, inputs: Inputs, tracer: Tracer) -> None:
    for spec in inputs.agents:
        with tracer.span("node.runtime.launch"):
            world.launch(PerfAgent(spec), at=spec.steps[0].node,
                         method="run", mode=RollbackMode(spec.mode),
                         protocol=Protocol(spec.protocol))


def lay_out(world, inputs: Inputs) -> None:
    ring = inputs.ring
    for i, name in enumerate(ring):
        node = world.add_node(name)
        bank = Bank(BANK)
        for account in ACCOUNTS:
            bank.seed_account(account, OPENING_BALANCE, overdraft="allowed")
        node.add_resource(bank)
        directory = InfoDirectory(DIRECTORY)
        directory.publish("offers", [{"item": "widget", "price": 10 + i}])
        node.add_resource(directory)
    if inputs.workload == "ft-crossshard":
        # Round-robin placement puts the next two ring nodes on the
        # other shard: takeover and diversion targets are cross-shard.
        for i, name in enumerate(ring):
            world.set_alternates(name, ring[(i + 1) % len(ring)],
                                 ring[(i + 2) % len(ring)])
        world.kill_shard(1, at=inputs.size["kill_at"],
                         restart_at=inputs.size["restart_at"])


def drive(world, tracer: Tracer) -> None:
    """Run to completion, or to a planned kill (``WorldKilled``)."""
    if tracer.enabled:
        more = True
        while more:
            with tracer.span("step_epoch"):
                more = world.step_epoch()
    else:
        world.run()


# -- observing --------------------------------------------------------------

def rollback_latencies(timelines: list[list[tuple]]) -> list[float]:
    """Simulated initiation-to-completion gap of every rollback.

    An agent initiates on one shard and may complete on another, so
    the per-shard timelines are merged before pairing.
    """
    merged = sorted((e for t in timelines for e in t), key=lambda e: e[0])
    started: dict[str, float] = {}
    gaps = []
    for at, kind, details in merged:
        if kind == "rollback-initiated":
            started.setdefault(details["agent"], at)
        elif kind == "rollback-completed":
            begin = started.pop(details["agent"], None)
            if begin is not None:
                gaps.append(at - begin)
    return gaps


def observe(world, inputs: Inputs) -> dict[str, Any]:
    """Everything the checks and metrics need, via public accessors."""
    if isinstance(world, World):
        counters = world.metrics.summary()
        events, epochs = world.sim.events_processed, 0
        timelines = [world.metrics.events()]
    else:
        counters = world.counters()
        events, epochs = world.events_processed(), world.epochs_run
        timelines = [world.shard_metrics(i).events()
                     for i in range(world.n_shards)]
    outcomes = world.outcomes()
    gaps = rollback_latencies(timelines)
    return {
        "outcomes": outcomes, "counters": counters, "events": events,
        "epochs": epochs, "stats": world.serialization_stats(),
        "bank_total": sum(world.resource_state(n, BANK).total_balance()
                          for n in inputs.ring),
        "sim_rollback_latency_s": sum(gaps) / len(gaps) if gaps else 0.0,
    }


def sim_bytes(counters: dict[str, int]) -> int:
    """Simulated bytes moved between nodes: agent transfers + messages."""
    return sum(v for k, v in counters.items()
               if k.startswith("bytes.agent.transfers.")
               or (k.startswith("bytes.net.") and k != "bytes.net.total"))


def failures_of(obs: dict[str, Any], inputs: Inputs) -> list[str]:
    """Failed operations and failed conservation, as printable lines."""
    failed = []
    purses = 0
    for spec in inputs.agents:
        outcome = obs["outcomes"].get(spec.agent_id)
        planned = len(spec.rollback_targets)
        if outcome is None or outcome["status"] != "finished" \
                or outcome["rollbacks_completed"] != planned \
                or outcome["result"]["rolled_back"] != planned:
            failed.append(f"{spec.agent_id}: planned {planned} rollbacks, "
                          f"got {outcome}")
            continue
        purses += outcome["result"]["purse"]
    expected = OPENING_BALANCE * len(ACCOUNTS) * len(inputs.ring)
    if obs["bank_total"] + purses != expected:
        failed.append(f"money not conserved: banks {obs['bank_total']} + "
                      f"purses {purses} != {expected}")
    return failed


def stats_delta(after: dict[str, Any], before: dict[str, Any],
                process_backed: bool) -> dict[str, Any]:
    """Serialization counters of one repetition.

    In-process worlds share this process's cumulative counters.  A
    process-backed world sums its fresh workers and adds only this
    process's IPC keys, so only those need the earlier value removed.
    """
    ipc = ("ipc_bytes_framed", "ipc_bytes_copied", "ipc_bytes_control",
           "frame_reused", "ring_spills")
    delta = dict(after)
    for key in after:
        if key.startswith("spec."):
            continue  # per-world already
        if not process_backed or key in ipc:
            delta[key] = after[key] - before.get(key, 0)
    return delta


# -- repetitions ------------------------------------------------------------

def repetition(inputs: Inputs, tracer: Tracer,
               inproc: bool = False) -> dict[str, Any]:
    """Build, run, observe and close one world of a non-journal workload."""
    shm_before = shm_segments()
    stats_before = serialization_stats()
    started = time.perf_counter()
    with tracer.span("build"):
        with tracer.span("construct"):
            world = new_world(inputs, inproc=inproc)
        process_backed = isinstance(world, ProcShardedWorld)
        try:
            # The constructor only starts the workers; they have
            # spawned once the first topology request is answered.
            with tracer.span("lay_out"):
                lay_out(world, inputs)
            spawn_s = time.perf_counter() - started
            launch_all(world, inputs, tracer)
        except BaseException:
            if process_backed:
                world.close()
            raise
    setup_s = time.perf_counter() - started
    try:
        pids = world_pids()
        workers = [pid for pid in pids if pid != os.getpid()]
        watch = Stopwatch(pids)
        run_mark = tracer.mark()
        with tracer.span("run"), watch.running():
            drive(world, tracer)
        steps_s = tracer.durations("step_epoch", run_mark)
        obs = observe(world, inputs)
        rss_mb = peak_rss_mb(pids)
        worker_rss_mb = peak_rss_mb(workers)
    finally:
        started = time.perf_counter()
        if process_backed:
            with tracer.span("close"):
                world.close()
        close_s = time.perf_counter() - started
    obs["stats"] = stats_delta(obs["stats"], stats_before, process_backed)
    failed = failures_of(obs, inputs)
    if process_backed:
        suppressed = (serialization_stats()["teardown.suppressed"]
                      - stats_before["teardown.suppressed"])
        obs["stats"]["teardown.suppressed"] = suppressed
        failed += [f"leak: {line}" for line in leaks(shm_before, workers)]
    return {"ops": len(inputs.agents), "failures": failed, "obs": obs,
            "setup_s": setup_s, "spawn_s": spawn_s if process_backed else 0.0,
            "wall_s": watch.wall_s, "cpu_s": watch.cpu_s, "close_s": close_s,
            "rss_mb": rss_mb, "worker_rss_mb": worker_rss_mb,
            "steps_s": steps_s,
            "launches_s": tracer.durations("node.runtime.launch")}


class TimedBackend:
    """A journal backend that times ``append`` and ``sync`` from outside.

    Delegates everything to the wrapped backend, so the journal cannot
    tell the difference; one span per call.
    """

    def __init__(self, backend, tracer: Tracer):
        self._backend = backend
        self._tracer = tracer

    def append(self, payload: bytes) -> None:
        with self._tracer.span("journal.append"):
            self._backend.append(payload)

    def sync(self) -> None:
        with self._tracer.span("journal.sync"):
            self._backend.sync()

    @property
    def size_bytes(self) -> int:
        return self._backend.size_bytes

    def __getattr__(self, name: str):
        return getattr(self._backend, name)


def _journaled_world(inputs: Inputs, path: str, tracer: Tracer):
    if os.path.exists(path):
        os.remove(path)
    backend = FileJournal(path)
    if tracer.enabled:
        backend = TimedBackend(backend, tracer)
    journal = WorldJournal(backend)
    world = new_world(inputs, journal=journal)
    populate(world, inputs, tracer)
    return world, journal


def journal_repetition(inputs: Inputs, tracer: Tracer,
                       scratch: str) -> dict[str, Any]:
    """(a) a full journaled run; (b) the same run killed mid-barrier at
    ``kill_fraction`` of its length, then reopened, recovered, resumed
    and run to the end.  Both halves count: an agent is an operation
    whether or not a crash came between launch and outcome.
    """
    stats_before = serialization_stats()
    path = os.path.join(scratch, "world.journal")
    setups = []
    pids = world_pids()
    watch = Stopwatch(pids)

    def timed(span: str, work) -> tuple[float, Any]:
        """Run one measured segment; returns (its wall time, result)."""
        before = watch.wall_s
        with tracer.span(span), watch.running():
            result = work()
        return watch.wall_s - before, result

    started = time.perf_counter()
    with tracer.span("build"):
        world, journal = _journaled_world(inputs, path, tracer)
    setups.append(time.perf_counter() - started)
    run_mark = tracer.mark()
    full_s, _ = timed("run", lambda: drive(world, tracer))
    run_end = tracer.mark()
    obs = observe(world, inputs)
    end_time = world.now
    journal_stats = journal.stats()
    journal.close()
    obs["stats"] = stats_delta(obs["stats"], stats_before, False)
    failed = failures_of(obs, inputs)

    started = time.perf_counter()
    with tracer.span("build"):
        world, journal = _journaled_world(inputs, path, tracer)
    setups.append(time.perf_counter() - started)
    world.kill_world(at=inputs.size["kill_fraction"] * end_time,
                     phase="barrier")
    try:
        timed("run-until-killed", lambda: drive(world, tracer))
        failed.append("kill_world never fired")
    except WorldKilled:
        pass
    killed_s = watch.wall_s - full_s
    journal.close()

    # A new process would start here: nothing survives but the file.
    def reopen_and_recover():
        journal = WorldJournal(FileJournal(path))
        return journal, journal.recover()

    recover_s, (journal, recovered) = timed("journal.recover",
                                            reopen_and_recover)
    rebuild_s, resumed = timed("journal.resume_world",
                               lambda: resume_world(journal))
    tail_s, _ = timed("journal.tail_run", lambda: drive(resumed, tracer))
    after = observe(resumed, inputs)
    journal.close()
    os.remove(path)
    for key in ("outcomes", "events", "epochs"):
        if after[key] != obs[key]:
            failed.append(f"resumed {key} differ from the uninterrupted run")
    failed += failures_of(after, inputs)

    return {"ops": 2 * len(inputs.agents), "failures": failed, "obs": obs,
            "setup_s": sum(setups) / len(setups),
            "wall_s": watch.wall_s, "cpu_s": watch.cpu_s,
            "rss_mb": peak_rss_mb(pids),
            "steps_s": tracer.durations("step_epoch", run_mark, run_end),
            "launches_s": tracer.durations("node.runtime.launch", 0,
                                           run_mark),
            "journal": {
                "appends_s": tracer.durations("journal.append", run_mark,
                                              run_end),
                "syncs_s": tracer.durations("journal.sync", run_mark,
                                            run_end),
                "full_run_s": full_s, "killed_run_s": killed_s,
                "recover_s": recover_s, "rebuild_replay_s": rebuild_s,
                "resume_s": recover_s + rebuild_s,
                "tail_run_s": tail_s, "stats": journal_stats,
                "kept_records": recovered.kept_records,
                "discarded_records": recovered.discarded_records}}
