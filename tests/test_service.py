"""Tests: the world-as-a-service gateway (host + HTTP layer).

The contract under test (see :mod:`repro.service`):

* **spec discipline** — world/launch specs reject unknown keys and
  out-of-range values before any world is built;
* **gateway ≡ script** — a launch streamed through the gateway into a
  live world produces the same per-agent outcome and trace digest as
  the same ``(WorldSpec, LaunchSpec)`` pair run scripted;
* **admission control** — per-tenant in-flight caps reject with
  :class:`~repro.service.AdmissionFull` (HTTP 429 + ``Retry-After``)
  and the world stays consistent: once the blocking agent finishes,
  the retried launch succeeds and finishes too;
* **event ordering** — the ``epoch`` events on a subscription carry
  journal group-commit indices in exactly the journal's commit order;
* **subscriber isolation** — a mid-stream disconnect cancels only that
  subscription; the world keeps running and the outcome is identical;
* **graceful drain** — drain finishes the epoch, group-commits and
  fsyncs the journal tail, emits a final ``drain`` event and ends every
  stream with the ``None`` sentinel;
* **durable telemetry** — every ``epoch`` / ``agent`` event goes out
  only after its commit is fsynced.
"""

import asyncio
import gc
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import UsageError
from repro.journal import WorldJournal, resume_world
from repro.service import gateway as gateway_module
from repro.service import (
    AdmissionFull,
    Gateway,
    HostClosed,
    LaunchSpec,
    Subscription,
    WorldHost,
    WorldSpec,
    build_world,
    resolve_launch,
)
from tests.helpers import RecordingJournal

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def scripted_run(world_json, launch_json, agent_id):
    """The scripted twin of one gateway launch (shared build path)."""
    wspec = WorldSpec.from_json(dict(world_json))
    lspec = LaunchSpec.from_json(dict(launch_json))
    world, journal = build_world(wspec)
    try:
        resolved = resolve_launch(lspec, wspec, agent_id)
        world.launch(resolved.agent, at=resolved.at,
                     method=resolved.method, **resolved.kwargs)
        world.run()
        return dict(world.outcomes()), list(world.trace_digests())
    finally:
        world.close()


def wait_for_agent(host, agent_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        snap = host.agent_snapshot(agent_id)
        if snap["status"] in ("finished", "failed"):
            return snap
        time.sleep(0.01)
    raise AssertionError(f"agent {agent_id} never finished")


# ---------------------------------------------------------------------------
# specs


def test_world_spec_rejects_unknown_keys():
    with pytest.raises(UsageError, match="unknown world-spec key"):
        WorldSpec.from_json({"backend": "world", "nodez": 4})


def test_world_spec_rejects_bad_backend_and_sizes():
    with pytest.raises(UsageError, match="unknown backend"):
        WorldSpec.from_json({"backend": "quantum"})
    with pytest.raises(UsageError, match="nodes"):
        WorldSpec.from_json({"nodes": 1})
    with pytest.raises(UsageError, match="journal"):
        WorldSpec.from_json({"journal": "postgres"})


def test_launch_spec_rejects_unknown_keys_and_values():
    with pytest.raises(UsageError, match="unknown launch-spec key"):
        LaunchSpec.from_json({"stepz": 5})
    with pytest.raises(UsageError, match="steps"):
        LaunchSpec.from_json({"steps": 1})
    with pytest.raises(UsageError, match="unknown mode"):
        LaunchSpec.from_json({"mode": "yolo"})
    with pytest.raises(UsageError, match="unknown protocol"):
        LaunchSpec.from_json({"protocol": "udp"})


# ---------------------------------------------------------------------------
# host: launch parity, admission, ordering, drain


@pytest.mark.parametrize("backend", ["world", "sharded"])
def test_host_launch_matches_scripted_run(backend):
    wjson = {"backend": backend, "nodes": 4, "n_shards": 2, "seed": 7}
    ljson = {"steps": 6, "mode": "optimized", "mixed_fraction": 0.3}
    host = WorldHost("w-test", WorldSpec.from_json(wjson)).start()
    try:
        record = host.launch(LaunchSpec.from_json(ljson))
        agent = record["agent"]
        wait_for_agent(host, agent)
    finally:
        snap = host.drain()
    want_out, want_dig = scripted_run(wjson, ljson, agent)
    assert snap["agents"][agent]["status"] == "finished"
    assert snap["agents"] == want_out
    assert snap["trace_digests"] == want_dig


def test_host_launch_proc_backend_matches_scripted_run():
    wjson = {"backend": "proc", "nodes": 4, "n_shards": 2, "seed": 3}
    ljson = {"steps": 6, "mode": "basic"}
    host = WorldHost("w-proc", WorldSpec.from_json(wjson)).start()
    try:
        record = host.launch(LaunchSpec.from_json(ljson))
        agent = record["agent"]
        wait_for_agent(host, agent)
    finally:
        snap = host.drain()
    want_out, want_dig = scripted_run(wjson, ljson, agent)
    assert snap["agents"] == want_out
    assert snap["trace_digests"] == want_dig


@pytest.mark.parametrize("backend", ["world", "sharded", "proc"])
def test_world_built_after_a_run_reports_zero_serialization_stats(backend):
    """A world's counters are its own: one built after another world
    of the same spec has run reports all-zero serialization stats."""
    wspec = WorldSpec.from_json(
        {"backend": backend, "nodes": 4, "n_shards": 2, "seed": 7})
    lspec = LaunchSpec.from_json({"steps": 6, "mode": "optimized"})
    first, _journal = build_world(wspec)
    try:
        resolved = resolve_launch(lspec, wspec, "ag-first")
        first.launch(resolved.agent, at=resolved.at,
                     method=resolved.method, **resolved.kwargs)
        first.run()
        assert any(first.serialization_stats().values())
    finally:
        first.close()
    second, _journal = build_world(wspec)
    try:
        stats = second.serialization_stats()
    finally:
        second.close()
    assert stats and not any(stats.values())


def test_admission_cap_rejects_then_recovers():
    """429 on overflow; after the blocker finishes, the world is fine."""
    spec = WorldSpec.from_json({"backend": "world", "nodes": 4, "seed": 0})
    host = WorldHost("w-adm", spec, max_inflight=1).start()
    try:
        # ~200 tour steps keep the blocker in flight for a wall-clock
        # while (hundreds of epochs), so the second launch reliably
        # hits the cap rather than racing the stepper.
        first = host.launch(LaunchSpec(steps=200, agent_id="blocker"))
        with pytest.raises(AdmissionFull) as excinfo:
            host.launch(LaunchSpec(steps=4, agent_id="rejected"))
        assert excinfo.value.retry_after == pytest.approx(1.0)
        assert "in flight" in str(excinfo.value)
        wait_for_agent(host, first["agent"])
        # The rejection left no residue: the retry is admitted and runs
        # to completion on the same, still-consistent world.
        retried = host.launch(LaunchSpec(steps=4, agent_id="retried"))
        outcome = wait_for_agent(host, retried["agent"])
        assert outcome["status"] == "finished"
    finally:
        snap = host.drain()
    assert "rejected" not in snap["agents"]
    assert snap["agents"]["blocker"]["status"] == "finished"
    assert snap["agents"]["retried"]["status"] == "finished"


def test_epoch_events_match_journal_commit_order():
    spec = WorldSpec.from_json({"backend": "sharded", "nodes": 4,
                                "n_shards": 2, "seed": 5})
    host = WorldHost("w-ord", spec)
    sub = host.subscribe()
    host.start()
    record = host.launch(LaunchSpec(steps=6))
    wait_for_agent(host, record["agent"])
    host.drain()
    events = []
    while True:
        item = sub.get(timeout=5)
        if item is None:
            break
        events.append(item)
    kinds = [item["event"] for item in events]
    assert kinds[0] == "world"
    assert kinds[-1] == "drain"
    assert "launch" in kinds and "agent" in kinds
    seqs = [item["seq"] for item in events]
    assert seqs == sorted(seqs)
    epochs = [item["data"] for item in events if item["event"] == "epoch"]
    committed = [entry for kind, entry in host.journal.recover().entries
                 if kind == "epoch"]
    # One epoch event per journal group commit, in commit order.
    assert [e["commit"] for e in epochs] == \
        [c["commit"] for c in committed] == list(range(len(committed)))
    assert [e["barrier"] for e in epochs] == \
        [c["barrier"] for c in committed]


def watch_syncs(monkeypatch, backend):
    """A host over a :class:`RecordingJournal` whose every emission is
    checked against the synced watermark; returns the host, its
    recorder, the events emitted and those emitted before their sync."""
    monkeypatch.setattr("repro.journal.MemoryJournal", RecordingJournal)
    spec = WorldSpec.from_json({"backend": backend, "nodes": 4,
                                "n_shards": 2, "seed": 5})
    host = WorldHost("w-sync", spec)
    recorder = host.journal.backend
    emitted, early = [], []
    emit = host._emit

    def checked_emit(event, data):
        # Runs on the stepper thread, before any subscriber sees it.
        if event == "epoch":
            synced = recorder.synced_bytes >= recorder.marker_end(
                data["commit"]) > 0
        elif event == "agent":
            synced = recorder.covers_last_marker()
        elif event == "drain":
            synced = recorder.synced_bytes == recorder.size_bytes
        else:
            synced = True
        emitted.append(event)
        if not synced:
            early.append((event, data))
        emit(event, data)

    monkeypatch.setattr(host, "_emit", checked_emit)
    return host, recorder, emitted, early


@pytest.mark.parametrize("backend", ["world", "sharded", "proc"])
def test_epoch_and_agent_events_follow_the_journal_sync(monkeypatch,
                                                        backend):
    host, recorder, emitted, early = watch_syncs(monkeypatch, backend)
    host.start()
    first = host.launch(LaunchSpec(steps=6))
    wait_for_agent(host, first["agent"])
    host.launch(LaunchSpec(steps=6))  # still running when drain starts
    host.drain()
    assert "epoch" in emitted and "agent" in emitted
    assert emitted[-1] == "drain"
    assert early == []
    assert recorder.synced_bytes == recorder.size_bytes


@pytest.mark.parametrize("backend", ["world", "sharded", "proc"])
def test_drain_commits_and_syncs_the_buffered_tail(monkeypatch, backend):
    host, recorder, emitted, early = watch_syncs(monkeypatch, backend)
    # Apply one launch as the stepper would, then drain before any
    # barrier: the launch op is durable before ``drain`` is emitted,
    # and the drain writes no commit marker of its own.
    resolved = resolve_launch(LaunchSpec(steps=4), host.spec, "tail-0")
    host.world.launch(resolved.agent, at=resolved.at,
                      method=resolved.method, **resolved.kwargs)
    assert recorder.synced_bytes == recorder.size_bytes
    host.drain()
    assert host.journal.commits == 0
    assert host.journal.stats()["kinds"]["launch"] == 1
    assert emitted == ["drain"]
    assert early == []
    assert not host.journal.unsynced


@pytest.mark.parametrize("backend", ["world", "sharded", "proc"])
def test_drained_host_journal_resumes_to_its_snapshot(backend):
    """Every backend takes the hosted world's journal at construction,
    so it holds the whole run, topology included: resume rebuilds the
    drained world at its last commit."""
    spec = WorldSpec.from_json({"backend": backend, "nodes": 4,
                                "n_shards": 2, "seed": 5})
    host = WorldHost("w-resume", spec).start()
    first = host.launch(LaunchSpec(steps=6))
    wait_for_agent(host, first["agent"])
    host.launch(LaunchSpec(steps=6))  # may still run when drain starts
    snap = host.drain()
    assert snap["agents"][first["agent"]]["status"] == "finished"
    resumed = resume_world(WorldJournal(host.journal.backend))
    try:
        assert resumed.outcomes() == snap["agents"]
    finally:
        resumed.close()


def test_disconnect_cancels_only_that_subscription():
    wjson = {"backend": "world", "nodes": 4, "seed": 9}
    ljson = {"steps": 8, "mode": "optimized"}
    spec = WorldSpec.from_json(wjson)
    host = WorldHost("w-sub", spec)
    doomed = host.subscribe()
    keeper = host.subscribe()
    host.start()
    record = host.launch(LaunchSpec.from_json(ljson))
    doomed.get(timeout=5)  # it was live...
    host.unsubscribe(doomed)  # ...then the client went away mid-stream
    wait_for_agent(host, record["agent"])
    snap = host.drain()
    # The surviving stream saw the run end; the world never noticed.
    tail = []
    while True:
        item = keeper.get(timeout=5)
        if item is None:
            break
        tail.append(item["event"])
    assert "drain" in tail
    want_out, want_dig = scripted_run(wjson, ljson, record["agent"])
    assert snap["agents"] == want_out
    assert snap["trace_digests"] == want_dig


def test_subscribe_after_drain_replays_then_ends():
    spec = WorldSpec.from_json({"backend": "world", "nodes": 4, "seed": 2})
    host = WorldHost("w-late", spec).start()
    record = host.launch(LaunchSpec(steps=4))
    wait_for_agent(host, record["agent"])
    host.drain()
    sub = host.subscribe()
    events = []
    while True:
        item = sub.get(timeout=5)
        if item is None:
            break
        events.append(item["event"])
    assert events[0] == "world"
    assert events[-1] == "drain"


@pytest.mark.parametrize("kind", ["sync", "async"])
def test_late_subscriber_replay_runs_gap_free_into_the_live_tail(kind):
    """A subscriber attached after more events than the host retains
    gets the newest ones replayed with nothing dropped, and its ``seq``
    runs on without a gap into the live tail and the end of stream."""
    spec = WorldSpec.from_json({"backend": "world", "nodes": 4, "seed": 6})
    host = WorldHost("w-replay", spec).start()
    for _ in range(40):
        wait_for_agent(host, host.launch(LaunchSpec(steps=8))["agent"])
    assert host._seq > host._retained.maxlen
    loop = asyncio.new_event_loop() if kind == "async" else None
    sub = host.subscribe(loop=loop)
    assert sub.dropped == 0
    record = host.launch(LaunchSpec(steps=8))  # the live tail
    wait_for_agent(host, record["agent"])
    host.drain()
    if kind == "sync":
        items = []
        while not items or items[-1] is not None:
            items.append(sub.get(timeout=5))
    else:
        async def consume():
            got = []
            while not got or got[-1] is not None:
                got.extend(await sub.batch())
            return got

        try:
            items = loop.run_until_complete(consume())
        finally:
            loop.close()
    seqs = [item["seq"] for item in items[:-1]]
    assert sub.dropped == 0
    assert seqs[0] > 1 and seqs == list(range(seqs[0], host._seq + 1))
    assert any(item["event"] == "launch"
               and item["data"]["agent"] == record["agent"]
               for item in items[:-1])
    assert items[-2]["event"] == "drain"


def test_launch_after_drain_raises_host_closed():
    spec = WorldSpec.from_json({"backend": "world", "nodes": 4, "seed": 1})
    host = WorldHost("w-closed", spec).start()
    host.drain()
    with pytest.raises(HostClosed):
        host.launch(LaunchSpec(steps=4))
    # drain is idempotent
    assert host.drain()["status"] == "drained"


def test_slow_subscriber_drops_events_not_the_world():
    spec = WorldSpec.from_json({"backend": "world", "nodes": 4, "seed": 4})
    host = WorldHost("w-slow", spec, sub_depth=2)
    sub = host.subscribe()  # bounded at 2 and never read until the end
    host.start()
    record = host.launch(LaunchSpec(steps=8))
    wait_for_agent(host, record["agent"])
    snap = host.drain()
    assert snap["agents"][record["agent"]]["status"] == "finished"
    assert sub.dropped > 0  # backpressure became drops, not a stall


def test_stepper_reads_only_the_agents_in_flight(monkeypatch):
    """Per barrier the stepper checks the agents it applied and has not
    reported — never the whole world — and reports each exactly once,
    in launch order among those finishing at one barrier."""
    # A coarse barrier grid, so several agents finish at one barrier.
    spec = WorldSpec.from_json({"backend": "sharded", "nodes": 4,
                                "n_shards": 2, "seed": 3, "epoch": 1.0})
    host = WorldHost("w-lean", spec)
    readers = []
    outcomes = host.world.outcomes

    def counted_outcomes():
        readers.append(threading.current_thread())
        return outcomes()

    monkeypatch.setattr(host.world, "outcomes", counted_outcomes)
    sub = host.subscribe()
    host.start()
    events = []

    def read_until_reported(agents):
        left = set(agents)
        while left:
            item = sub.get(timeout=10)
            events.append(item)
            if item["event"] == "agent":
                left.discard(item["data"]["agent"])

    for wave in range(75):  # 300 launches, four submitted at a time
        # Ids count down within a wave: launch order is not id order.
        futures = [host.submit(LaunchSpec(
            steps=4, agent_id=f"lean-{wave}-{3 - k}")) for k in range(4)]
        read_until_reported([f.result(timeout=10)["agent"]
                             for f in futures])
    assert [t for t in readers if t is host._thread] == []
    snap = host.drain()
    assert host._unreported == {}
    while True:
        item = sub.get(timeout=5)
        if item is None:
            break
        events.append(item)
    launched = [e["data"]["agent"] for e in events if e["event"] == "launch"]
    reported = [e["data"] for e in events if e["event"] == "agent"]
    assert len(launched) == 300
    assert sorted(o["agent"] for o in reported) == sorted(launched)
    for outcome in reported:
        assert {k: v for k, v in outcome.items() if k != "agent"} \
            == snap["agents"][outcome["agent"]]
    # The agent events that follow one epoch event finished at that
    # barrier: they come in launch order.
    order = {agent: i for i, agent in enumerate(launched)}
    groups, group = [], []
    for item in events:
        if item["event"] == "epoch":
            groups.append(group)
            group = []
        elif item["event"] == "agent":
            group.append(order[item["data"]["agent"]])
    groups.append(group)
    assert any(len(g) > 1 for g in groups)
    assert all(g == sorted(g) for g in groups)


def test_async_subscription_batches_arrive_in_seq_order(monkeypatch):
    """A producer thread feeding a subscription on a live loop: every
    event arrives once, in ``seq`` order, with at most one loop wake-up
    per batch taken."""
    loop = asyncio.new_event_loop()
    posts = []
    post = loop.call_soon_threadsafe

    def counted_post(*args):
        posts.append(args)
        return post(*args)

    monkeypatch.setattr(loop, "call_soon_threadsafe", counted_post)
    sub = Subscription(depth=100_000, loop=loop)
    n = 5_000

    def produce():
        for seq in range(1, n + 1):
            sub.offer({"seq": seq, "event": "tick", "data": {}})
        sub.offer(None)

    async def consume():
        producer = threading.Thread(target=produce)
        producer.start()
        got, batches = [], 0
        while not got or got[-1] is not None:
            got.extend(await sub.batch())
            batches += 1
            await asyncio.sleep(0)
        producer.join()
        return got, batches

    try:
        got, batches = loop.run_until_complete(consume())
    finally:
        loop.close()
    assert got[-1] is None
    assert [item["seq"] for item in got[:-1]] == list(range(1, n + 1))
    assert sub.dropped == 0
    assert 1 <= len(posts) <= batches


def test_async_slow_subscriber_counts_every_drop_and_still_ends():
    spec = WorldSpec.from_json({"backend": "world", "nodes": 4, "seed": 4})
    host = WorldHost("w-aslow", spec, sub_depth=2)
    loop = asyncio.new_event_loop()
    sub = host.subscribe(loop=loop)
    delivered = []

    async def consume():
        while not delivered or delivered[-1] is not None:
            delivered.extend(await sub.batch())
            await asyncio.sleep(0.05)  # slower than the stepper

    reader = threading.Thread(target=loop.run_until_complete,
                              args=(consume(),))
    reader.start()
    try:
        host.start()
        record = host.launch(LaunchSpec(steps=8))
        wait_for_agent(host, record["agent"])
        snap = host.drain()
        reader.join(timeout=10)
        assert not reader.is_alive(), "the end of stream never arrived"
    finally:
        loop.close()
    assert delivered[-1] is None
    events = delivered[:-1]
    seqs = [item["seq"] for item in events]
    assert seqs == sorted(set(seqs))
    offered = host._seq  # subscribed before the first event
    assert sub.dropped > 0
    assert sub.dropped == offered - len(events)
    assert snap["events_dropped"] == sub.dropped


# ---------------------------------------------------------------------------
# HTTP layer


class GatewayFixture:
    """A live gateway on a loop thread + blocking HTTP helpers."""

    def __init__(self, **kwargs):
        self.gateway = Gateway(**kwargs)
        self.base = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self):
        async def run():
            host, port = await self.gateway.start("127.0.0.1", 0)
            self.base = f"http://{host}:{port}"
            self._ready.set()
            await self.gateway.serve_forever()

        self.loop = asyncio.new_event_loop()
        try:
            self.loop.run_until_complete(run())
        finally:
            self.loop.close()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(10), "gateway never bound"
        return self

    def __exit__(self, *exc):
        future = asyncio.run_coroutine_threadsafe(
            self.gateway.shutdown(), self.loop)
        future.result(timeout=60)
        self._thread.join(timeout=10)

    def request(self, method, path, body=None):
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(self.base + path, data=data,
                                     method=method)
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                return resp.status, dict(resp.headers), \
                    json.loads(resp.read().decode())
        except urllib.error.HTTPError as exc:
            return exc.code, dict(exc.headers), \
                json.loads(exc.read().decode())

    def sse(self, path, until="end", timeout=30):
        """Read SSE frames until an event named ``until`` (inclusive)."""
        out = []
        with urllib.request.urlopen(self.base + path,
                                    timeout=timeout) as resp:
            event = data = None
            for raw in resp:
                line = raw.decode().strip()
                if line.startswith("event:"):
                    event = line.split(":", 1)[1].strip()
                elif line.startswith("data:"):
                    data = json.loads(line.split(":", 1)[1].strip())
                elif not line and event is not None:
                    out.append((event, data))
                    if event == until:
                        return out
                    event = data = None
        return out


def test_http_end_to_end_with_sse_and_drain():
    wjson = {"backend": "sharded", "nodes": 4, "n_shards": 2, "seed": 13}
    ljson = {"steps": 6, "mode": "optimized"}
    with GatewayFixture() as gw:
        status, _, health = gw.request("GET", "/healthz")
        assert status == 200 and health["ok"]
        status, _, made = gw.request("POST", "/worlds", wjson)
        assert status == 201
        wid = made["world"]
        status, _, listed = gw.request("GET", "/worlds")
        assert [w["world"] for w in listed["worlds"]] == [wid]
        status, _, launched = gw.request(
            "POST", f"/worlds/{wid}/launch", ljson)
        assert status == 202
        agent = launched["agent"]
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            status, _, snap = gw.request(
                "GET", f"/worlds/{wid}/agents/{agent}")
            assert status == 200
            if snap["status"] in ("finished", "failed"):
                break
            time.sleep(0.02)
        assert snap["status"] == "finished"
        status, _, drained = gw.request("DELETE", f"/worlds/{wid}")
        assert status == 200 and drained["status"] == "drained"
        # The retained stream replays gap-free after the drain.
        status, _, made2 = gw.request("POST", "/worlds", wjson)
        wid2 = made2["world"]
        gw.request("POST", f"/worlds/{wid2}/launch", ljson)
        events = gw.sse(f"/worlds/{wid2}/events", until="agent")
        kinds = [e for e, _ in events]
        assert kinds[0] == "world" and "launch" in kinds
        status, _, drained2 = gw.request("DELETE", f"/worlds/{wid2}")
        assert drained2["agents"] == drained["agents"]
        assert drained2["trace_digests"] == drained["trace_digests"]
    want_out, want_dig = scripted_run(wjson, ljson, agent)
    got = json.loads(json.dumps(drained["agents"], default=repr))
    want = json.loads(json.dumps(want_out, default=repr))
    assert got == want
    assert drained["trace_digests"] == want_dig


def http_launch_and_drain(gw, wjson, ljson):
    """One launch over HTTP, polled to its end, then drained."""
    _, _, made = gw.request("POST", "/worlds", wjson)
    wid = made["world"]
    status, _, launched = gw.request("POST", f"/worlds/{wid}/launch", ljson)
    assert status == 202
    agent = launched["agent"]
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        _, _, snap = gw.request("GET", f"/worlds/{wid}/agents/{agent}")
        if snap["status"] in ("finished", "failed"):
            break
        time.sleep(0.01)
    status, _, drained = gw.request("DELETE", f"/worlds/{wid}")
    assert status == 200
    return agent, drained


@pytest.mark.parametrize("backend", ["world", "sharded", "proc"])
def test_http_launch_is_bit_identical_to_the_scripted_run(backend):
    """The gateway may not perturb a single bit of the run, on any
    backend: outcome and trace digests equal the scripted twin's."""
    wjson = {"backend": backend, "nodes": 4, "n_shards": 2, "seed": 11}
    ljson = {"steps": 6, "mode": "optimized", "mixed_fraction": 0.25}
    with GatewayFixture() as gw:
        agent, drained = http_launch_and_drain(gw, wjson, ljson)
    want_out, want_dig = scripted_run(wjson, ljson, agent)
    assert drained["agents"][agent]["status"] == "finished"
    assert (json.loads(json.dumps(drained["agents"], default=repr))
            == json.loads(json.dumps(want_out, default=repr)))
    assert drained["trace_digests"] == want_dig


def test_http_load_every_launch_reaches_its_outcome():
    """48 launches from four client threads into one hosted world:
    every launch's outcome is streamed and every agent finishes."""
    launches = 48
    arrived = set()
    with GatewayFixture(max_inflight=launches + 1) as gw:
        _, _, made = gw.request(
            "POST", "/worlds", {"backend": "world", "nodes": 4, "seed": 5})
        wid = made["world"]
        done = threading.Event()

        def watch():
            with urllib.request.urlopen(f"{gw.base}/worlds/{wid}/events",
                                        timeout=120) as resp:
                event = None
                for raw in resp:
                    line = raw.decode().strip()
                    if line.startswith("event:"):
                        event = line.split(":", 1)[1].strip()
                    elif line.startswith("data:") and event == "agent":
                        arrived.add(json.loads(line.split(":", 1)[1])
                                    ["agent"])
                        if len(arrived) >= launches:
                            done.set()
                            return

        def post(ids):
            for agent_id in ids:
                status = 429
                while status == 429:
                    status, _, body = gw.request(
                        "POST", f"/worlds/{wid}/launch",
                        {"steps": 4, "agent_id": agent_id})
                    if status == 429:
                        time.sleep(0.01)
                assert status == 202, body

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        time.sleep(0.1)  # let the subscription attach
        ids = [f"ld-{k}" for k in range(launches)]
        clients = [threading.Thread(target=post, args=(ids[w::4],))
                   for w in range(4)]
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        assert done.wait(120), f"{len(arrived)}/{launches} outcomes"
        watcher.join(timeout=10)
        _, _, snap = gw.request("GET", f"/worlds/{wid}")
        gw.request("DELETE", f"/worlds/{wid}")
    assert arrived == set(ids)
    assert sum(o["status"] == "finished"
               for o in snap["agents"].values()) == launches


def test_http_admission_429_carries_retry_after():
    with GatewayFixture(max_inflight=1, retry_after=2.5) as gw:
        _, _, made = gw.request(
            "POST", "/worlds", {"backend": "world", "nodes": 4, "seed": 0})
        wid = made["world"]
        # A long blocker (≈1s of epochs) keeps the cap occupied across
        # the HTTP round trip of the second launch.
        status, _, first = gw.request(
            "POST", f"/worlds/{wid}/launch",
            {"steps": 400, "agent_id": "blocker"})
        assert status == 202
        status, headers, err = gw.request(
            "POST", f"/worlds/{wid}/launch", {"steps": 4})
        assert status == 429
        assert headers.get("Retry-After") == "2.5"
        assert "in flight" in err["error"]
        # Mid-run drain: the in-flight epoch finishes, the blocker is
        # reported as-is, nothing hangs.
        status, _, drained = gw.request("DELETE", f"/worlds/{wid}")
        assert status == 200
        assert "blocker" in drained["agents"]


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def test_http_launch_refused_at_apply_frees_the_tenant_slot():
    """Two tenants queue the same agent id before a barrier: the second
    is refused when applied (400), and its tenant's only in-flight slot
    is free again."""
    with GatewayFixture(max_inflight=1) as gw:
        _, _, made = gw.request(
            "POST", "/worlds", {"backend": "world", "nodes": 4, "seed": 6})
        wid = made["world"]
        host = gw.gateway.hosts[wid]
        replies = {}

        def post(tenant):
            replies[tenant] = gw.request(
                "POST", f"/worlds/{wid}/launch",
                {"steps": 4, "agent_id": "twin", "tenant": tenant})

        posters = [threading.Thread(target=post, args=(t,))
                   for t in ("a", "b")]
        with host._world_lock:  # hold the stepper off the next barrier
            for tenant, poster in zip(("a", "b"), posters):
                poster.start()
                wait_until(lambda t=tenant: "twin" in
                           host._inflight.get(t, ()))
        for poster in posters:
            poster.join(timeout=30)
        assert replies["a"][0] == 202
        status, _, err = replies["b"]
        assert status == 400 and "already launched" in err["error"]
        status, _, again = gw.request(
            "POST", f"/worlds/{wid}/launch",
            {"steps": 4, "agent_id": "b-next", "tenant": "b"})
        assert status == 202, again
        _, _, drained = gw.request("DELETE", f"/worlds/{wid}")
    assert set(drained["agents"]) == {"twin", "b-next"}


def test_http_queued_launch_fails_503_when_the_host_drains():
    """429 and 503 map as before: a full tenant is refused with
    ``Retry-After``; a launch still queued when the host drains, and
    one sent after, both get 503."""
    with GatewayFixture() as gw:
        # Never started: its launch waits in the queue until the drain.
        host = WorldHost("w-queued", WorldSpec.from_json(
            {"backend": "world", "nodes": 4}), max_inflight=1)
        gw.gateway.hosts["w-queued"] = host
        reply = {}
        poster = threading.Thread(target=lambda: reply.update(
            queued=gw.request("POST", "/worlds/w-queued/launch",
                              {"steps": 4})))
        poster.start()
        wait_until(lambda: host._commands.qsize() == 1)
        status, headers, err = gw.request(
            "POST", "/worlds/w-queued/launch", {"steps": 4})
        assert status == 429 and headers.get("Retry-After") == "1"
        assert "in flight" in err["error"]
        host.drain()
        poster.join(timeout=30)
        status, _, err = reply["queued"]
        assert status == 503 and "draining" in err["error"]
        status, _, err = gw.request(
            "POST", "/worlds/w-queued/launch", {"steps": 4})
        assert status == 503 and "draining" in err["error"]
        assert host._inflight == {"default": set()}
        gw.gateway.hosts.pop("w-queued")


def test_http_error_mapping():
    with GatewayFixture() as gw:
        status, _, err = gw.request("GET", "/worlds/w99")
        assert status == 404
        status, _, err = gw.request("POST", "/worlds",
                                    {"backend": "quantum"})
        assert status == 400 and "unknown backend" in err["error"]
        status, _, err = gw.request("POST", "/worlds", {"nodes": "four"})
        assert status == 400
        status, _, err = gw.request("POST", "/worlds",
                                    {"backend": "sharded", "epoch": "x"})
        assert status == 400 and "epoch must be" in err["error"]
        status, _, err = gw.request("POST", "/worlds",
                                    {"backend": "world", "seed": "x"})
        assert status == 400 and "seed must be an int" in err["error"]
        # The schedule is not a knob: a spec naming one is rejected.
        for backend in ("sharded", "proc"):
            status, _, err = gw.request(
                "POST", "/worlds", {"backend": backend, "lockstep": "auto"})
            assert status == 400
            assert "unknown world-spec key(s) ['lockstep']" in err["error"]
        _, _, made = gw.request("POST", "/worlds",
                                {"backend": "world", "nodes": 4})
        wid = made["world"]
        status, _, err = gw.request(
            "GET", f"/worlds/{wid}/agents/ghost")
        assert status == 404 or status == 400
        status, _, err = gw.request("PATCH", f"/worlds/{wid}")
        assert status == 405
        status, _, err = gw.request("GET", "/nonsense")
        assert status == 404


def raw_status(base, data, half_close=False):
    """Send ``data`` to the gateway as is, then (``half_close``) shut the
    write half; the reply's status (None when the connection closes with
    nothing written)."""
    host, port = base.removeprefix("http://").rsplit(":", 1)
    reply = b""
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        while chunk := sock.recv(1 << 16):
            reply += chunk
    return int(reply.split(b" ", 2)[1]) if reply else None


_BLANK = b"\r\n\r\n"


@pytest.mark.parametrize("tail, half_close, status", [
    (b"Content-Length: abc" + _BLANK, False, 400),
    (b"Content-Length: -5" + _BLANK, False, 400),
    (b"X-Pad: " + b"x" * (70 * 1024) + _BLANK, False, 413),
    (b"Content-Length: 2097152" + _BLANK, False, 413),
    (b"Content-Length: 10" + _BLANK + b"abc", True, 400),
    (b"Content-Length: 10\r\n", False, 408),
], ids=["length-not-a-number", "length-negative", "head-70KiB",
        "body-over-max", "body-truncated", "head-timeout"])
def test_http_malformed_request_is_answered(monkeypatch, tail, half_close,
                                            status):
    """A bad length, an oversized head or body, a body cut short by the
    client's half-close, or a head that never completes gets its 4xx,
    and leaves no exception in the event loop; the gateway serves on."""
    monkeypatch.setattr(gateway_module, "_READ_TIMEOUT", 0.5)
    errors = []

    async def watch_loop():
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: errors.append(context))

    with GatewayFixture() as gw:
        asyncio.run_coroutine_threadsafe(watch_loop(), gw.loop).result(10)
        request = b"POST /worlds HTTP/1.1\r\nHost: t\r\n" + tail
        assert raw_status(gw.base, request, half_close) == status
        code, _, health = gw.request("GET", "/healthz")
        assert code == 200 and health["ok"]
        gc.collect()  # an unretrieved task exception reports at collection
    assert errors == []


def test_serve_cli_subprocess_sigterm_drains(tmp_path):
    """`python -m repro serve` end to end: HTTP up, SIGTERM, clean exit."""
    import os
    import signal
    import subprocess
    import sys

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)
    try:
        line = proc.stdout.readline()
        assert "listening on http://" in line, line
        base = line.strip().rsplit(" ", 1)[-1]

        def request(method, path, body=None):
            data = json.dumps(body).encode() if body is not None else None
            req = urllib.request.Request(base + path, data=data,
                                         method=method)
            with urllib.request.urlopen(req, timeout=30) as resp:
                return json.loads(resp.read().decode())

        made = request("POST", "/worlds",
                       {"backend": "sharded", "nodes": 4, "seed": 21})
        wid = made["world"]
        launched = request("POST", f"/worlds/{wid}/launch", {"steps": 5})
        agent = launched["agent"]
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            snap = request("GET", f"/worlds/{wid}/agents/{agent}")
            if snap["status"] in ("finished", "failed"):
                break
            time.sleep(0.02)
        assert snap["status"] == "finished"
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, out
        assert "draining" in out and "drained" in out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=30)
