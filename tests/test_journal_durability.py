"""The journal's durability contract: fsync when control returns.

An epoch commit appends its payload and marker and hands them to the
OS; the world fsyncs them whenever control goes back to its caller —
each return or raise of ``run()`` / ``step_epoch()``, ``commit_journal()``
and ``close()``.  Pinned here:

* **the watermark** — a recording backend keeps the byte offset its
  last ``sync`` covered; after every ``step_epoch()`` return, every
  ``run()`` return and every ``WorldKilled`` it covers the last commit
  marker, on all three backends;
* **the count** — a ``run()`` over K barriers costs one fsync beyond
  the input ops' own, not K;
* **a real crash** — a process SIGKILLed inside ``ShardedWorld.run()``
  leaves every flushed (never fsynced) marker in the file, so recovery
  lands past the first barrier and the resumed run equals the
  uninterrupted one;
* **I/O failure** — an ``OSError`` from a write or an fsync surfaces as
  :class:`~repro.errors.JournalError`, the journal refuses every later
  write and fsync, and the file still recovers and resumes.

The service host's share of the contract (SSE events after the sync,
drain through :meth:`commit_journal`) lives in tests/test_service.py.
"""

import errno
import os
import signal
import subprocess
import sys

import pytest

from repro.errors import JournalError, WorldKilled
from repro.journal import FileJournal, WorldJournal, resume_world
from tests.helpers import (
    RecordingJournal,
    build_ft_ring,
    launch_ft_tours,
    run_differential_scenario,
    scenario_record,
)

BACKENDS = ("world", "sharded", "proc")


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_return_leaves_the_last_marker_synced(backend):
    recorder = RecordingJournal()
    journal = WorldJournal(recorder)
    world = build_ft_ring(backend, seed=5, journal=journal)
    try:
        launch_ft_tours(world)
        for _ in range(4):
            assert world.step_epoch()
            assert recorder.covers_last_marker()
            assert not journal.unsynced
        world.run(until=world.now + 0.02)
        assert recorder.covers_last_marker()
        world.kill_world(at=world.now + 0.02)
        with pytest.raises(WorldKilled):
            world.run(until=120.0)
        assert recorder.covers_last_marker()
        assert recorder.synced_bytes == recorder.size_bytes
    finally:
        world.close()


@pytest.mark.parametrize("backend", ("world", "sharded"))
def test_run_over_k_barriers_fsyncs_once(backend):
    recorder = RecordingJournal()
    journal = WorldJournal(recorder)
    world = build_ft_ring(backend, seed=5, journal=journal)
    launch_ft_tours(world)
    # Config and every input op were synced as they were issued.
    assert recorder.syncs == journal.records_written
    op_syncs = recorder.syncs
    world.run(until=120.0)
    # One commit per walked barrier: 31 on World, 37 sharded (the FT
    # ring's takeover checks share the takeover_timeout grid).
    assert journal.commits == world.epochs_run
    assert journal.commits >= 30
    assert recorder.syncs == op_syncs + 1
    assert recorder.synced_bytes == recorder.size_bytes
    world.close()
    assert recorder.syncs == op_syncs + 1  # nothing left for close


_CRASH_CHILD = """
import os, signal, sys
from repro import FileJournal, WorldJournal
from tests.helpers import build_ft_ring, launch_ft_tours

path, kill_after = sys.argv[1], int(sys.argv[2])
fsyncs = []
real_fsync = os.fsync
os.fsync = lambda fd: (fsyncs.append(fd), real_fsync(fd))[1]
real_commit = WorldJournal.commit_epoch

def commit_then_die(self, barrier, digest):
    real_commit(self, barrier, digest)
    if self.commits == kill_after:
        print(len(fsyncs), flush=True)
        os.kill(os.getpid(), signal.SIGKILL)

WorldJournal.commit_epoch = commit_then_die
world = build_ft_ring("sharded", seed=5,
                      journal=WorldJournal(FileJournal(path)))
launch_ft_tours(world)
fsyncs.clear()
world.run(until=120.0)
"""


def test_sigkill_inside_run_keeps_flushed_markers(tmp_path):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = tmp_path / "world.journal"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(repo, "src"), repo]))
    kill_after = 6
    proc = subprocess.run(
        [sys.executable, "-c", _CRASH_CHILD, str(path), str(kill_after)],
        cwd=repo, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    # The run had fsynced nothing when the kill landed.
    assert proc.stdout.split() == ["0"]

    journal = WorldJournal(FileJournal(path))
    recovered = journal.recover()
    assert not recovered.torn_tail
    assert recovered.frontier["commit"] == kill_after - 1
    first = next(data for kind, data in recovered.entries
                 if kind == "epoch")
    assert recovered.frontier_barrier > first["barrier"]
    resumed = resume_world(journal)
    try:
        resumed.run(until=120.0)
        assert scenario_record(resumed, "sharded") == \
            run_differential_scenario("sharded", seed=5)
    finally:
        resumed.close()
        journal.close()


def _fail_after(monkeypatch, name, calls, code):
    """Make ``os.<name>`` raise ``OSError(code)`` from its ``calls``-th
    call on; returns the list of attempted calls."""
    real = getattr(os, name)
    attempts = []

    def failing(*args):
        attempts.append(args)
        if len(attempts) >= calls:
            raise OSError(code, os.strerror(code))
        return real(*args)

    monkeypatch.setattr(os, name, failing)
    return attempts


def _resume_and_compare(path, backend):
    journal = WorldJournal(FileJournal(path))
    recovered = journal.recover()
    resumed = resume_world(journal)
    try:
        resumed.run(until=120.0)
        assert scenario_record(resumed, backend) == \
            run_differential_scenario(backend, seed=5)
    finally:
        resumed.close()
        journal.close()
    return recovered


def test_failed_fsync_raises_and_refuses_later_writes(tmp_path,
                                                      monkeypatch):
    path = tmp_path / "world.journal"
    journal = WorldJournal(FileJournal(path))
    world = build_ft_ring("world", seed=5, journal=journal)
    launch_ft_tours(world)
    attempts = _fail_after(monkeypatch, "fsync", 1, errno.EIO)
    with pytest.raises(JournalError) as exc_info:
        world.run(until=120.0)
    assert isinstance(exc_info.value.__cause__, OSError)
    assert exc_info.value.__cause__.errno == errno.EIO
    assert len(attempts) == 1
    # No retry: every later write and fsync is refused outright.
    with pytest.raises(JournalError):
        journal.record_op("add_node", name="late")
    with pytest.raises(JournalError):
        world.close()
    assert len(attempts) == 1
    journal.close()
    monkeypatch.undo()
    # The commits reached the file before the fsync failed.
    recovered = _resume_and_compare(path, "world")
    assert recovered.frontier["commit"] == journal.commits - 1


@pytest.mark.parametrize("backend", ("world", "sharded"))
def test_failed_write_raises_and_file_recovers(tmp_path, monkeypatch,
                                               backend):
    path = tmp_path / "world.journal"
    journal = WorldJournal(FileJournal(path))
    world = build_ft_ring(backend, seed=5, journal=journal)
    launch_ft_tours(world)
    # Each commit writes once: the third commit of the run hits ENOSPC.
    _fail_after(monkeypatch, "write", 3, errno.ENOSPC)
    with pytest.raises(JournalError) as exc_info:
        world.run(until=120.0)
    assert exc_info.value.__cause__.errno == errno.ENOSPC
    with pytest.raises(JournalError):
        world.step_epoch()
    monkeypatch.undo()
    journal.close()
    recovered = _resume_and_compare(path, backend)
    assert recovered.frontier["commit"] == 1
