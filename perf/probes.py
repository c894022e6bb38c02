"""Isolated per-layer probes: one public function, called in a loop.

Each probe times a layer's unit of work with nothing else running, so
that ``unit cost x count`` (the counts come from the workload's own
counters) bounds what a faster layer can save.  A probe reports the
median over several batches, in microseconds per call.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import time
from functools import partial
from typing import Any, Callable

from repro import FileJournal, LoggingMode, PackageKind, RollbackLog
from repro.agent.packages import AgentPackage
from repro.log.entries import (
    BeginOfStepEntry,
    EndOfStepEntry,
    OperationEntry,
    OperationKind,
    SavepointEntry,
)
from repro.node import CrossShardBridge
from repro.node.shmring import ShmRing
from repro.sim.kernel import Simulator
from repro.storage.serialization import capture, restore, snapshot

from perf.agents import BANK, PerfAgent
from perf.inputs import make_inputs

BATCHES = 5


def _per_call_us(fn: Callable[[], Any], calls: int,
                 setup: Callable[[], Any] = lambda: None,
                 quick: bool = False) -> float:
    """Median over ``BATCHES`` of (wall of ``calls`` calls) / calls.

    ``quick`` (smoke runs) takes one batch of a tenth of the calls.
    """
    if quick:
        calls = max(1, calls // 10)
    samples = []
    for _ in range(1 if quick else BATCHES):
        setup()
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - started) / calls * 1e6)
    return statistics.median(samples)


def _noop() -> None:
    pass


def _agent(ballast: int) -> PerfAgent:
    spec = make_inputs("tour-rollback", seed=0).agents[0]
    agent = PerfAgent(spec)
    agent.sro["ballast"] = b"s" * ballast
    agent.set_control(spec.steps[0].node, "run")
    return agent


def _logged(agent: PerfAgent) -> RollbackLog:
    """The log of a 16-step tour: 4 savepoints, 2 operations a step."""
    log = RollbackLog(LoggingMode.STATE)
    for entry in _entries(agent):
        log.append(entry)
    return log


def _entries(agent: PerfAgent) -> list:
    entries: list = []
    for i, step in enumerate(agent.spec.steps):
        entries.append(BeginOfStepEntry(node=step.node, step_index=i))
        for _ in range(2):
            entries.append(OperationEntry(
                op_kind=OperationKind.RESOURCE, op_name="perf.undo_transfer",
                params={"src": "merchant", "dst": "escrow", "amount": 7},
                node=step.node, resource=BANK))
        entries.append(EndOfStepEntry(node=step.node, step_index=i))
        if step.savepoint is not None:
            entries.append(SavepointEntry(sp_id=step.savepoint, mode="state",
                                          payload=snapshot(agent.sro)))
    return entries


def sim_probe(quick: bool) -> dict[str, float]:
    events = 20_000 if quick else 200_000
    sim = Simulator(seed=0)
    started = time.perf_counter()
    for i in range(events):
        sim.schedule(i * 1e-6, _noop)
    sim.run_epoch(1.0)
    wall = time.perf_counter() - started
    assert sim.events_processed == events
    return {"sim.noop_event_us": wall / events * 1e6}


def storage_probe(quick: bool) -> dict[str, float]:
    timed = partial(_per_call_us, quick=quick)
    out = {}
    for label, ballast in (("2k", 2_000), ("60k", 60_000)):
        agent = _agent(ballast)
        blob = capture(agent)
        out[f"storage.capture_us_{label}"] = timed(
            lambda: capture(agent), 200)
        out[f"storage.restore_us_{label}"] = timed(
            lambda: restore(blob), 200)
        out[f"storage.snapshot_us_{label}"] = timed(
            lambda: snapshot(agent.sro), 200)
    return out


def agent_probe(quick: bool) -> dict[str, float]:
    timed = partial(_per_call_us, quick=quick)
    agent = _agent(2_000)
    log = _logged(agent)
    package = AgentPackage.pack(PackageKind.STEP, agent, log, step_index=16)
    return {
        "agent.pack_us": timed(
            lambda: AgentPackage.pack(PackageKind.STEP, agent, log,
                                      step_index=16), 200),
        "agent.unpack_us": timed(package.unpack, 200),
        "agent.package_bytes": float(package.size_bytes),
    }


def log_probe(quick: bool) -> dict[str, float]:
    timed = partial(_per_call_us, quick=quick)
    agent = _agent(2_000)
    state: dict[str, Any] = {}

    def fresh() -> None:
        state["entries"] = iter(_entries(agent))
        state["log"] = RollbackLog(LoggingMode.STATE)

    count = len(_entries(agent))
    append_us = timed(lambda: state["log"].append(next(state["entries"])),
                      count, fresh)
    full = _logged(agent)
    reconstruct_us = timed(lambda: full.reconstruct_sro("sp-8"), 200)
    truncate_us = timed(
        lambda: state["log"].truncate(), 1,
        lambda: state.update(log=_logged(agent)))
    return {"log.append_us": append_us, "log.truncate_us": truncate_us,
            "log.reconstruct_sro_us": reconstruct_us}


def route_probe(quick: bool) -> dict[str, float]:
    timed = partial(_per_call_us, quick=quick)
    forwards = 256
    agent = _agent(2_000)
    package = AgentPackage.pack(PackageKind.STEP, agent, _logged(agent),
                                step_index=16)
    bridge = CrossShardBridge(2)

    def load() -> None:
        for i in range(forwards):
            bridge.forward(i % 2, f"n{i % 2}", package, at=i * 1e-3)

    def route() -> None:
        assert len(bridge.route([False, False])) == forwards

    return {"node.sharded.route_us": timed(route, 1, load) / forwards}


def ring_probe(quick: bool) -> dict[str, float]:
    """Ring frame round trip beside a pipe send/recv of the same bytes:
    tells the payload size from which rings beat the pipe."""
    timed = partial(_per_call_us, quick=quick)
    out = {}
    ring = ShmRing.create()
    near, far = multiprocessing.Pipe()
    try:
        for label, size in (("2k", 2_000), ("64k", 64_000)):
            payload = b"p" * size

            def frame() -> None:
                ring.begin_batch()
                assert ring.try_write(payload)
                ring.read_frame()

            def pipe() -> None:
                near.send_bytes(payload)
                far.recv_bytes()

            out[f"node.shmring.frame_us_{label}"] = timed(frame, 500)
            out[f"node.shmring.pipe_ref_us_{label}"] = timed(pipe, 500)
    finally:
        near.close()
        far.close()
        ring.unlink()
    return out


def fsync_probe(scratch: str, quick: bool) -> dict[str, float]:
    """The sandbox's disk, reported as such: not a device figure."""
    timed = partial(_per_call_us, quick=quick)
    path = os.path.join(scratch, "probe.journal")
    journal = FileJournal(path)
    payload = b"j" * 4_096

    def write() -> None:
        journal.append(payload)
        journal.sync()

    try:
        return {"journal.fsync_us": timed(write, 20)}
    finally:
        journal.close()
        os.remove(path)


def run_all(scratch: str, quick: bool = False) -> dict[str, float]:
    out: dict[str, float] = {}
    for probe in (sim_probe, storage_probe, agent_probe, log_probe,
                  route_probe, ring_probe):
        out.update(probe(quick))
    out.update(fsync_probe(scratch, quick))
    return out
