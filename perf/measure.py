"""Clocks, process accounting, summaries, spans and the leak check."""

from __future__ import annotations

import glob
import hashlib
import heapq
import json
import multiprocessing
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Optional

_TICK = os.sysconf("SC_CLK_TCK")


# -- process accounting (Linux /proc; the sandbox is Linux) ------------------

def cpu_seconds(pids: Iterable[int]) -> float:
    """User + system CPU seconds consumed so far by ``pids`` together."""
    total = 0.0
    for pid in pids:
        if pid == os.getpid():
            total += time.process_time()
            continue
        with open(f"/proc/{pid}/stat") as fh:
            # The command name may hold spaces; fields resume after ')'.
            fields = fh.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / _TICK
    return total


class Stopwatch:
    """Adds up wall and CPU time over the segments it wraps."""

    def __init__(self, pids: list[int]):
        self.pids = pids
        self.wall_s = 0.0
        self.cpu_s = 0.0

    @contextmanager
    def running(self) -> Iterator[None]:
        cpu = cpu_seconds(self.pids)
        started = time.perf_counter()
        try:
            yield
        finally:
            self.wall_s += time.perf_counter() - started
            self.cpu_s += cpu_seconds(self.pids) - cpu


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of the peak resident set sizes (VmHWM) of ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


def world_pids() -> list[int]:
    """This process and its live multiprocessing workers."""
    return [os.getpid()] + [p.pid for p in multiprocessing.active_children()
                            if p.pid is not None]


# -- machine speed ----------------------------------------------------------

#: What :func:`calibrate` takes on the sandbox this benchmark was sized
#: on, when nothing else competes for the host.  Times are reported as
#: if the loop always took this long; see :func:`calibrate`.
CALIBRATION_REFERENCE_S = 0.020


def calibrate() -> float:
    """Wall time of a fixed loop of interpreter work (heap, dict, pickle).

    The sandbox's speed drifts by a quarter or more for minutes at a
    time (a busy neighbour on the host slows wall *and* CPU time
    alike), which no statistic over one run's repetitions can remove.
    This loop runs right before and after every repetition; dividing a
    repetition's times by ``loop time / reference`` cancels the drift
    to first order, because the loop and the program are both
    single-threaded interpreter work.  The loop never changes, so the
    ratio moves only when the program does.
    """
    started = time.perf_counter()
    heap: list[tuple[int, int]] = []
    table: dict[int, Any] = {}
    blob = {"a": list(range(50)), "b": b"x" * 2000, "c": {"k": (1, 2, 3)}}
    for i in range(6000):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        table[i % 257] = pickle.loads(pickle.dumps(blob, 5))
        if i % 3 == 0:
            heapq.heappop(heap)
    return time.perf_counter() - started


# -- summaries --------------------------------------------------------------

def summarize(values: list[float]) -> dict[str, float]:
    """Median, quartiles and sample count of one timing series."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (``fraction`` in 0..1)."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, int(len(ordered) * fraction))
    return ordered[rank]


def digest_of(payload: Any) -> str:
    """SHA-256 of the canonical JSON form of ``payload``."""
    text = json.dumps(payload, sort_keys=True, default=repr,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def hardware_stamp(root: str) -> dict[str, Any]:
    """What produced a result file: wall-clock numbers compare only
    between equal stamps."""
    try:
        commit = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # an exported checkout is no repository
    return {"nproc": os.cpu_count(), "platform": platform.platform(),
            "machine": platform.machine(),
            "python": platform.python_version(), "commit": commit}


# -- spans ------------------------------------------------------------------

class Tracer:
    """In-memory span recorder; a disabled tracer records nothing.

    Spans are taken from the benchmark's side of each call into a
    layer (name, start, end, parent, workload id) and written out once,
    when the run ends.
    """

    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.spans: list[tuple[int, str, float, float, Optional[int]]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((index, name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            _, _, start, _, _ = self.spans[index]
            self.spans[index] = (index, name, start, time.perf_counter(),
                                 parent)

    def mark(self) -> int:
        """A position in the span list, for :meth:`durations`."""
        return len(self.spans)

    def durations(self, name: str, since: int = 0,
                  until: Optional[int] = None) -> list[float]:
        return [end - start
                for _, n, start, end, _ in self.spans[since:until]
                if n == name]

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"workload": self.workload, "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p}
                for i, n, s, e, p in self.spans]}, fh)


# -- leak check -------------------------------------------------------------

def shm_segments() -> set[str]:
    return set(glob.glob("/dev/shm/psm_*"))


def leaks(shm_before: set[str], pids: Iterable[int]) -> list[str]:
    """What a process-backed or service workload left behind."""
    found = [f"process {pid} still alive" for pid in pids
             if os.path.exists(f"/proc/{pid}")
             and _state(pid) not in ("Z", "X")]
    found += [f"worker {p.name} (pid {p.pid}) still alive"
              for p in multiprocessing.active_children()]
    found += [f"shared-memory segment {path} not unlinked"
              for path in sorted(shm_segments() - shm_before)]
    return found


def _state(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return "X"


def eprint(*args: Any) -> None:
    print(*args, file=sys.stderr, flush=True)
