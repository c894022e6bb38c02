#!/usr/bin/env python3
"""Service smoke: serve, launch over HTTP, verify parity, drain clean.

The CI ``service`` job's script (also runnable locally)::

    PYTHONPATH=src python tools/service_smoke.py

What it proves, end to end, against a real ``python -m repro serve``
subprocess on a free port:

1. a seeded tour launched over HTTP into a **process-backed** world
   streams its outcome over SSE, and that outcome — plus the drained
   world's trace digests — is identical to the same ``(WorldSpec,
   LaunchSpec)`` pair run scripted in this process;
2. the SSE stream's ``id:`` lines run 1, 2, 3, ... with no gap or
   repeat up to that outcome, and the drained snapshot counts no
   dropped event;
3. malformed requests are answered, and the server serves on: a
   non-numeric and a negative ``Content-Length`` get 400, a 70 KiB
   request head gets 413, and the launch above runs after them;
4. outcomes are not held back: in a second process-backed world, a
   2-step tour launched after a 40-step one streams its ``agent``
   event first, at the barrier where it finished, not once the world
   goes idle;
5. SIGTERM drains gracefully: exit code 0, the drain banner printed;
6. nothing leaks: no orphan ``multiprocessing`` spawn workers, no
   stale ``psm_*`` shared-memory segments.

Exit status 0 on success; any failure raises with a diagnosis.
"""

from __future__ import annotations

import glob
import json
import os
import signal
import socket
import subprocess
import sys
import urllib.request

WORLD_SPEC = {"backend": "proc", "nodes": 4, "n_shards": 2, "seed": 19}
LAUNCH_SPEC = {"steps": 6, "mode": "optimized", "mixed_fraction": 0.25,
               "agent_id": "smoke-1"}
#: Launched in this order into a second world: the short tour's outcome
#: must stream before the long one's.
LATE_LAUNCHES = [{"steps": 40, "agent_id": "smoke-long"},
                 {"steps": 2, "agent_id": "smoke-short"}]
#: Request heads the gateway must answer with a 4xx, not a dropped
#: connection: (what, extra header line, expected status).
MALFORMED = [
    ("non-numeric Content-Length", b"Content-Length: abc", 400),
    ("negative Content-Length", b"Content-Length: -5", 400),
    ("70 KiB request head", b"X-Pad: " + b"x" * (70 * 1024), 413),
]


def request(base: str, method: str, path: str, body=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(base + path, data=data, method=method)
    with urllib.request.urlopen(req, timeout=60) as resp:
        return json.loads(resp.read().decode())


def raw_status(base: str, data: bytes):
    """Send ``data`` as is; the reply's status code, or None when the
    server closed the connection without writing one."""
    host, port = base.removeprefix("http://").rsplit(":", 1)
    reply = b""
    with socket.create_connection((host, int(port)), timeout=60) as sock:
        sock.sendall(data)
        while chunk := sock.recv(1 << 16):
            reply += chunk
    return int(reply.split(b" ", 2)[1]) if reply else None


def stream_until_agents(base: str, world_id: str, agent_ids: set):
    """Follow the SSE stream until every agent in ``agent_ids`` has its
    terminal event; returns their outcomes in arrival order and every
    ``id:`` read up to the last."""
    ids, outcomes = [], {}
    with urllib.request.urlopen(f"{base}/worlds/{world_id}/events",
                                timeout=120) as resp:
        event = None
        for raw in resp:
            line = raw.decode().strip()
            if line.startswith("event:"):
                event = line.split(":", 1)[1].strip()
            elif line.startswith("id:"):
                ids.append(int(line.split(":", 1)[1]))
            elif line.startswith("data:") and event == "agent":
                data = json.loads(line.split(":", 1)[1])
                if data.get("agent") in agent_ids:
                    outcomes[data["agent"]] = data
                    if len(outcomes) == len(agent_ids):
                        return outcomes, ids
    raise AssertionError("SSE stream ended before the agent events")


def scripted_run():
    from repro.service import (
        LaunchSpec,
        WorldSpec,
        build_world,
        resolve_launch,
    )

    wspec = WorldSpec.from_json(dict(WORLD_SPEC))
    lspec = LaunchSpec.from_json(dict(LAUNCH_SPEC))
    world, _journal = build_world(wspec)
    try:
        resolved = resolve_launch(lspec, wspec, lspec.agent_id)
        world.launch(resolved.agent, at=resolved.at,
                     method=resolved.method, **resolved.kwargs)
        world.run()
        return (json.loads(json.dumps(world.outcomes(), default=repr)),
                list(world.trace_digests()))
    finally:
        world.close()


def shm_segments():
    return set(glob.glob("/dev/shm/psm_*"))


def orphan_spawn_workers():
    out = subprocess.run(["pgrep", "-f", "multiprocessing.spawn"],
                         capture_output=True, text=True)
    return [pid for pid in out.stdout.split() if pid.isdigit()]


def main() -> int:
    shm_before = shm_segments()
    workers_before = set(orphan_spawn_workers())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)
    try:
        line = proc.stdout.readline()
        assert "listening on http://" in line, f"no banner: {line!r}"
        base = line.strip().rsplit(" ", 1)[-1]
        print(f"serve up at {base}")

        for what, header, want in MALFORMED:
            got = raw_status(base, b"POST /worlds HTTP/1.1\r\nHost: smoke"
                             b"\r\n" + header + b"\r\n\r\n")
            assert got == want, f"{what}: status {got}, want {want}"
            print(f"malformed request ({what}): {got}")

        made = request(base, "POST", "/worlds", WORLD_SPEC)
        world_id = made["world"]
        launched = request(base, "POST", f"/worlds/{world_id}/launch",
                           LAUNCH_SPEC)
        agent_id = launched["agent"]
        print(f"launched {agent_id} into {world_id} "
              f"({WORLD_SPEC['backend']} backend)")

        streamed, ids = stream_until_agents(base, world_id, {agent_id})
        streamed = streamed[agent_id]
        assert streamed["status"] == "finished", streamed
        # Batched delivery keeps the feed gap-free and in seq order.
        assert ids == list(range(1, len(ids) + 1)), \
            f"SSE ids not 1, 2, 3, ...: {ids}"
        print(f"streamed outcome: {streamed['status']} "
              f"(SSE ids 1..{len(ids)}, no gap or repeat)")

        drained = request(base, "DELETE", f"/worlds/{world_id}")
        assert drained["status"] == "drained", drained
        assert drained["events_dropped"] == 0, drained["events_dropped"]

        want_outcomes, want_digests = scripted_run()
        got_agent = json.loads(json.dumps(
            {k: v for k, v in streamed.items() if k != "agent"},
            default=repr))
        assert got_agent == want_outcomes[agent_id], \
            f"streamed {got_agent!r} != scripted {want_outcomes[agent_id]!r}"
        got_drained = json.loads(json.dumps(drained["agents"],
                                            default=repr))
        assert got_drained == want_outcomes, "drained outcomes diverged"
        assert drained["trace_digests"] == want_digests, \
            (drained["trace_digests"], want_digests)
        print(f"parity: outcomes + trace digests {want_digests} "
              f"match the scripted run")

        late_world = request(base, "POST", "/worlds", WORLD_SPEC)["world"]
        for spec in LATE_LAUNCHES:
            request(base, "POST", f"/worlds/{late_world}/launch", spec)
        arrived, _ids = stream_until_agents(
            base, late_world, {spec["agent_id"] for spec in LATE_LAUNCHES})
        order = list(arrived)
        assert order == ["smoke-short", "smoke-long"], \
            f"outcomes streamed in order {order}: the short tour's waited"
        request(base, "DELETE", f"/worlds/{late_world}")
        print(f"late outcomes: {order[0]} streamed before {order[1]}")

        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"exit {proc.returncode}: {out}"
        assert "drained" in out, out
        # An exception a request left in the event loop logs a traceback.
        assert "Traceback" not in out, out
        print("SIGTERM drain: clean exit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=60)

    leaked = shm_segments() - shm_before
    assert not leaked, f"leaked shm segments: {sorted(leaked)}"
    orphans = set(orphan_spawn_workers()) - workers_before
    assert not orphans, f"orphan spawn workers: {sorted(orphans)}"
    print("no orphan workers, no stale psm_* segments")
    print("SERVICE SMOKE OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
