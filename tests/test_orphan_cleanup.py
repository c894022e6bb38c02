"""Satellite: shard workers must not outlive a SIGKILLed coordinator.

A SIGKILLed coordinator never runs its atexit teardown, and under the
``fork`` start method sibling workers keep every pipe write-end open,
so no EOF ever reaches a worker either.  The worker serve loop
therefore polls :func:`multiprocessing.parent_process` liveness every
half second and exits on its own — this test is that defense's proof:
it SIGKILLs a real coordinator process and asserts every worker pid
vanishes within a few seconds.

The same scenario must also leave no POSIX shared-memory segment
(``psm_*``) behind.
"""

import glob
import os
import subprocess
import sys
import time

_CHILD = """
import sys, time
sys.path.insert(0, {src!r})
from tests.helpers import build_ft_ring, launch_ft_tours

if __name__ == "__main__":
    world = build_ft_ring("proc", seed=3)
    launch_ft_tours(world)
    world.run(until=0.05)
    # Shard 0 runs in this process; the rest are worker processes.
    print(" ".join(str(h.process.pid) for h in world._handles[1:]),
          flush=True)
    time.sleep(120)  # hold the workers idle until the SIGKILL lands
"""


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _shm_segments():
    return set(glob.glob("/dev/shm/psm_*"))


def test_workers_exit_after_coordinator_sigkill(tmp_path):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = tmp_path / "coordinator.py"
    script.write_text(_CHILD.format(src=os.path.join(repo, "src")))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [os.path.join(repo, "src"), repo]))
    segments_before = _shm_segments()
    proc = subprocess.Popen([sys.executable, str(script)],
                            stdout=subprocess.PIPE, text=True,
                            cwd=repo, env=env)
    try:
        line = proc.stdout.readline()
        pids = [int(p) for p in line.split()]
        assert len(pids) == 2  # n_shards - 1: shard 0 is in-process
        assert all(_alive(pid) for pid in pids)
        proc.kill()  # SIGKILL: no atexit, no pipe EOF under fork
        proc.wait(timeout=10)
        # The liveness poll runs every 0.5 s; give it a few rounds.
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            if not any(_alive(pid) for pid in pids):
                break
            time.sleep(0.25)
        survivors = [pid for pid in pids if _alive(pid)]
        assert not survivors, f"orphaned workers survived: {survivors}"
        leaked = _shm_segments() - segments_before
        assert not leaked, f"leaked shm segments: {sorted(leaked)}"
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.stdout.close()
