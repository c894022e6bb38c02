"""The ``service-launch`` workload: a closed loop against a real server.

The server is ``python -m repro serve --port 0`` in its own process, so
client and server do not share an interpreter lock.  The client is one
asyncio thread that keeps ``inflight`` launches outstanding: each POSTs
a launch and waits for that agent's ``agent`` event on one shared SSE
stream before sending the next.  Callers that wait for an outcome are a
closed loop: a slower server receives less load, and latency times
throughput stays equal to ``inflight``.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from typing import Any, Optional

from perf.kernel import rollback_latencies
from perf.measure import (
    Tracer,
    cpu_seconds,
    leaks,
    peak_rss_mb,
    percentile,
    shm_segments,
)

OUTCOME_TIMEOUT_S = 10.0


class Server:
    """One ``repro serve`` subprocess, listening on a free port."""

    def __init__(self, root: str):
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                   PYTHONHASHSEED="0", PYTHONUNBUFFERED="1")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"serve did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        self.spawn_s = time.perf_counter() - started

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        """SIGTERM, wait for the drain, reap."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


async def request(port: int, method: str, path: str,
                  body: Optional[dict] = None) -> tuple[int, Any]:
    """One HTTP/1.1 exchange (the gateway closes after each reply)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        data = json.dumps(body).encode() if body is not None else b""
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: perf\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n\r\n".encode() + data)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    head, _, payload = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(payload) if payload.strip() else None


class EventStream:
    """The shared passive SSE subscription of one hosted world."""

    def __init__(self) -> None:
        self.waiting: dict[str, asyncio.Future] = {}
        self.timeline: list[dict[str, Any]] = []
        self._task: Optional[asyncio.Task] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def attach(self, port: int, world_id: str) -> None:
        reader, self._writer = await asyncio.open_connection(
            "127.0.0.1", port)
        self._writer.write(
            f"GET /worlds/{world_id}/events HTTP/1.1\r\n"
            f"Host: perf\r\n\r\n".encode())
        await self._writer.drain()
        await reader.readuntil(b"\r\n\r\n")
        # The first frame ("world") proves the subscription is live.
        await reader.readuntil(b"\r\n\r\n")
        self._task = asyncio.ensure_future(self._pump(reader))

    async def _pump(self, reader: asyncio.StreamReader) -> None:
        while True:
            try:
                frame = await reader.readuntil(b"\r\n\r\n")
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            event, data = None, None
            for line in frame.decode().split("\r\n"):
                if line.startswith("event:"):
                    event = line[6:].strip()
                elif line.startswith("data:"):
                    data = line[5:]
            if event == "agent":
                outcome = json.loads(data)
                future = self.waiting.pop(outcome["agent"], None)
                if future is not None and not future.done():
                    future.set_result((time.perf_counter(), outcome))
            elif event == "timeline":
                self.timeline.extend(json.loads(data)["entries"])
            elif event == "end":
                return

    async def close(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
        if self._writer is not None:
            self._writer.close()


async def _closed_loop(port: int, world_id: str, stream: EventStream,
                       launches: list[dict], inflight: int,
                       tracer: Tracer) -> dict[str, Any]:
    """Drive every launch through; returns latencies and reply codes."""
    loop = asyncio.get_running_loop()
    pending = iter(launches)
    latencies: list[float] = []
    acks: list[float] = []
    failures: list[str] = []
    rejected = 0

    async def lane() -> None:
        nonlocal rejected
        for body in pending:
            agent = body["agent_id"]
            stream.waiting[agent] = future = loop.create_future()
            sent = time.perf_counter()
            with tracer.span("service.gateway.post"):
                status, reply = await request(
                    port, "POST", f"/worlds/{world_id}/launch", body)
            acks.append((time.perf_counter() - sent) * 1000.0)
            if status != 202:
                rejected += status == 429
                stream.waiting.pop(agent, None)
                failures.append(f"{agent}: HTTP {status} {reply}")
                continue
            try:
                with tracer.span("service.host.outcome_wait"):
                    arrived, outcome = await asyncio.wait_for(
                        future, OUTCOME_TIMEOUT_S)
            except asyncio.TimeoutError:
                stream.waiting.pop(agent, None)
                failures.append(f"{agent}: no outcome within "
                                f"{OUTCOME_TIMEOUT_S} s")
                continue
            latencies.append((arrived - sent) * 1000.0)
            if outcome.get("status") != "finished" \
                    or outcome.get("rollbacks_completed") != 1:
                failures.append(f"{agent}: {outcome}")

    started = time.perf_counter()
    await asyncio.gather(*(lane() for _ in range(inflight)))
    return {"wall_s": time.perf_counter() - started,
            "latencies_ms": latencies, "acks_ms": acks,
            "failures": failures, "rejected_429": rejected}


async def _repetition(root: str, inputs, tracer: Tracer) -> dict[str, Any]:
    size = inputs.size
    built = time.perf_counter()
    with tracer.span("service.spawn"):
        server = Server(root)
    try:
        with tracer.span("service.gateway.create_world"):
            status, made = await request(
                server.port, "POST", "/worlds",
                {"backend": "sharded", "nodes": size["nodes"],
                 "n_shards": size["n_shards"], "seed": inputs.seed})
        if status != 201:
            raise RuntimeError(f"POST /worlds: HTTP {status} {made}")
        world_id = made["world"]
        stream = EventStream()
        await stream.attach(server.port, world_id)
        setup_s = time.perf_counter() - built
        cpu_before = cpu_seconds([server.pid])
        loop = await _closed_loop(server.port, world_id, stream,
                                  list(inputs.launches), size["inflight"],
                                  tracer)
        cpu_s = cpu_seconds([server.pid]) - cpu_before
        started = time.perf_counter()
        with tracer.span("service.gateway.snapshot"):
            status, _ = await request(server.port, "GET",
                                      f"/worlds/{world_id}")
        snapshot_ms = (time.perf_counter() - started) * 1000.0
        started = time.perf_counter()
        with tracer.span("service.host.drain"):
            status, drained = await request(server.port, "DELETE",
                                            f"/worlds/{world_id}")
        drain_s = time.perf_counter() - started
        await stream.close()
        rss_mb = peak_rss_mb([server.pid])
    finally:
        server.stop()
    return dict(loop, setup_s=setup_s, spawn_s=server.spawn_s, cpu_s=cpu_s,
                snapshot_ms=snapshot_ms, drain_s=drain_s,
                rss_mb=rss_mb, drained=drained, server_pid=server.pid,
                timeline=stream.timeline)


def repetition(root: str, inputs, tracer: Tracer) -> dict[str, Any]:
    """One fresh server, one fresh world, every launch, drain, stop."""
    shm_before = shm_segments()
    rep = asyncio.run(_repetition(root, inputs, tracer))
    drained = rep["drained"]
    launched = {body["agent_id"] for body in inputs.launches}
    if set(drained.get("agents", {})) != launched:
        rep["failures"].append(
            f"drained snapshot holds {len(drained.get('agents', {}))} "
            f"agents, launched {len(launched)}")
    rep["failures"] += [f"leak: {line}" for line in
                        leaks(shm_before, [rep["server_pid"]])]
    gaps = rollback_latencies(
        [[(e["at"], e["kind"], e) for e in rep.pop("timeline")]])
    lat = rep["latencies_ms"]
    half = min(100, len(lat) // 2)
    rep.update(
        ops=len(inputs.launches),
        obs={"outcomes": drained.get("agents", {}),
             "counters": drained.get("counters", {}),
             "stats": drained.get("serialization_stats", {}),
             "epochs": drained.get("epochs", 0),
             "sim_rollback_latency_s":
                 sum(gaps) / len(gaps) if gaps else 0.0},
        p50_ms=percentile(lat, 0.50) if lat else 0.0,
        p90_ms=percentile(lat, 0.90) if lat else 0.0,
        p99_ms=percentile(lat, 0.99) if lat else 0.0,
        latency_drift=(percentile(lat[-half:], 0.5)
                       / percentile(lat[:half], 0.5)) if half else 0.0)
    return rep


def host_probe(inputs, launches: int = 200) -> dict[str, float]:
    """Launch latency with no HTTP in the way: ``WorldHost.launch()``
    and a synchronous ``Subscription`` in this process.  What the
    gateway adds is ``launch_p50_ms`` minus this.
    """
    import queue

    from repro.service import LaunchSpec, WorldHost, WorldSpec

    size = inputs.size
    host = WorldHost("probe", WorldSpec(
        backend="sharded", nodes=size["nodes"], n_shards=size["n_shards"],
        seed=inputs.seed)).start()
    sub = host.subscribe(replay=False)
    apply_ms, outcome_ms = [], []
    try:
        for k in range(launches):
            body = dict(inputs.launches[k % len(inputs.launches)],
                        agent_id=f"probe-{k}")
            sent = time.perf_counter()
            host.launch(LaunchSpec.from_json(body))
            apply_ms.append((time.perf_counter() - sent) * 1000.0)
            while True:
                try:
                    item = sub.get(timeout=OUTCOME_TIMEOUT_S)
                except queue.Empty:
                    raise RuntimeError("host probe: no outcome") from None
                if item is None or (item["event"] == "agent" and
                                    item["data"]["agent"] == body["agent_id"]):
                    break
            outcome_ms.append((time.perf_counter() - sent) * 1000.0)
    finally:
        host.unsubscribe(sub)
        host.drain()
    return {"launch_apply_ms_p50": percentile(apply_ms, 0.5),
            "launch_to_outcome_ms_p50": percentile(outcome_ms, 0.5)}
