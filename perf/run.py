#!/usr/bin/env python3
"""The repo benchmark's one command.

``python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in a fresh child interpreter: a discarded warm-up
repetition, then timed repetitions for ``S`` seconds.  The command
itself only supervises that child: it returns once every process the
run started has ended (see :func:`supervise`).  The child prints every
metric by name with its unit, checks the outputs, writes the details to
``perf/out/`` and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with tracing
off.  ``--trace 1`` alternates untraced and traced repetitions (the
traced ones drive the world with ``step_epoch()`` under spans), runs
the isolated probes, writes ``perf/out/trace-<workload>.json`` and
reports the per-layer metrics.  Without ``--workload`` every workload
runs, each in its own subprocess, and the results are gathered into
one file that ``perf/compare.py`` reads.  ``--smoke`` shrinks every
workload to a second or so; its numbers mean nothing.

``BENCHMARK.json`` at the repo root names the workloads and every
metric with its unit; this command refuses to emit a name it does not
list, or to omit one it does.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time
from typing import Any, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

MIN_REPS = 5          # timed repetitions of an untraced run, at least
MIN_TRACED_REPS = 3   # of each kind in a traced run, at least
CALIBRATION_LOOPS = 3  # before and again after every repetition
SUPERVISED = "PERF_SUPERVISED"  # set in the child that runs the workload
LINGER_S = 10.0       # what a finished run's orphans get to end by themselves


def ring_end_bug(exc: BaseException) -> bool:
    """Is this the known crash of ``ShmRing.try_write``?

    A frame that ends exactly at the ring's end leaves the next write
    past the buffer (``struct.error`` from ``pack_into``).  About one
    input set in a hundred of ``swarm-local`` hits it.  Such a variant
    is skipped and reported, not counted as a failed operation: the
    inputs are chosen so that no operation fails, and this is the
    choosing.  Once the program is fixed nothing is skipped.
    """
    tb = exc.__traceback__
    while tb is not None and tb.tb_next is not None:
        tb = tb.tb_next
    return (tb is not None and tb.tb_frame.f_code.co_name == "try_write"
            and tb.tb_frame.f_code.co_filename.endswith("shmring.py"))


def load_spec() -> dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- one workload, in this interpreter --------------------------------------

def one_repetition(inputs, tracer, scratch: str) -> dict[str, Any]:
    from perf import kernel, service
    if inputs.workload == "service-launch":
        return service.repetition(ROOT, inputs, tracer)
    if inputs.workload == "journal-resume":
        return kernel.journal_repetition(inputs, tracer, scratch)
    return kernel.repetition(inputs, tracer)


def identity_of(rep: dict[str, Any], keys: tuple[str, ...]) -> dict[str, Any]:
    return {key: rep["obs"][key] for key in keys}


def end_to_end(workload: str, reps: list[dict], exact: int,
               import_s: float) -> dict[str, dict[str, float]]:
    """Every end-to-end metric as median, quartiles and sample count.

    Times are divided by the repetition's ``slowdown`` (see
    :func:`perf.measure.calibrate`).  The simulated bytes take only the
    first ``exact`` repetitions, a fixed set of input variants, so the
    figure repeats exactly for a seed however many repetitions fit.
    """
    from perf.kernel import sim_bytes
    from perf.measure import summarize

    def series(value, upto=None) -> dict[str, float]:
        return summarize([value(rep) for rep in reps[:upto]])

    # The server pays its own import inside the spawn that set-up times.
    once = 0.0 if workload == "service-launch" else import_s
    return {
        "agents_per_s": series(
            lambda r: r["ops"] / r["wall_s"] * r["slowdown"]),
        "cpu_ms_per_agent": series(
            lambda r: r["cpu_s"] / r["ops"] * 1e3 / r["slowdown"]),
        "sim_bytes_per_agent": series(
            lambda r: sim_bytes(r["obs"]["counters"]) / r["agents"], exact),
        "peak_rss_mb": series(lambda r: r["rss_mb"]),
        "setup_s": series(lambda r: (once + r["setup_s"]) / r["slowdown"]),
    }


def run_one(args, spec: dict[str, Any]) -> int:
    started = time.perf_counter()
    import repro  # noqa: F401 - timed: part of every user's set-up
    import_s = time.perf_counter() - started

    from perf import kernel, layers, probes, service
    from perf.inputs import make_inputs
    from perf.measure import (
        CALIBRATION_REFERENCE_S,
        Tracer,
        calibrate,
        digest_of,
        eprint,
        hardware_stamp,
        summarize,
    )

    workload, traced_run = args.workload, bool(args.trace)
    # Launches reach a hosted world between barriers, whenever they
    # arrive, so there only the outcomes repeat for a seed; elsewhere
    # every simulated statistic does.
    exact_keys = (("outcomes",) if workload == "service-launch" else
                  ("outcomes", "counters", "events", "epochs"))
    scratch = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    attempted = 0
    failures: list[str] = []
    skipped: list[int] = []
    plain: list[dict] = []
    traced: list[dict] = []
    first_tracer: Optional[Tracer] = None

    def repeat(variant: int, with_spans: bool) -> Optional[dict[str, Any]]:
        nonlocal attempted, first_tracer
        inputs = make_inputs(workload, args.seed, variant, smoke=args.smoke)
        tracer = Tracer(workload, with_spans)
        loops = [calibrate() for _ in range(CALIBRATION_LOOPS)]
        try:
            rep = one_repetition(inputs, tracer, scratch)
        except struct.error as exc:
            if not ring_end_bug(exc):
                raise
            skipped.append(variant)
            eprint(f"variant {variant} skipped: ShmRing.try_write wrote "
                   f"past the ring ({exc}); see README, 'A known crash'")
            return None
        loops += [calibrate() for _ in range(CALIBRATION_LOOPS)]
        rep["slowdown"] = statistics.mean(loops) / CALIBRATION_REFERENCE_S
        rep["variant"] = variant
        rep["agents"] = len(inputs.agents) or len(inputs.launches)
        attempted += rep["ops"]
        failures.extend(f"variant {variant}: {line}"
                        for line in rep["failures"])
        if with_spans and first_tracer is None:
            first_tracer = tracer
        # Worlds are cyclic garbage: free each one before the next is
        # built, so peak RSS is one world's and not the collector's lag.
        gc.collect()
        return rep

    try:
        # Warm-up (caches, lazy imports), discarded; it is also the
        # twin that the first timed repetition must reproduce exactly.
        warm = None if args.smoke else repeat(0, False)
        exact = 1 if args.smoke else (
            MIN_TRACED_REPS if traced_run else MIN_REPS)
        deadline = time.perf_counter() + (0 if args.smoke else args.seconds)
        variant = 0
        while len(plain) < exact or time.perf_counter() < deadline:
            untraced = repeat(variant, False)
            spanned = repeat(variant, True) if (
                traced_run and untraced is not None) else None
            variant += 1
            if untraced is None or (traced_run and spanned is None):
                continue
            plain.append(untraced)
            if spanned is not None:
                traced.append(spanned)

        twins = list(zip(plain, traced))
        if warm is not None and warm["variant"] == plain[0]["variant"]:
            twins.append((warm, plain[0]))
        if any(identity_of(a, exact_keys) != identity_of(b, exact_keys)
               for a, b in twins):
            failures.append("two runs of the same inputs disagree")
        digest = digest_of([identity_of(rep, exact_keys)
                            for rep in plain[:exact]])
        # The process-backed drivers must agree with the in-process one
        # (its epoch count aside: it can close with one more barrier).
        reference = unjournaled = None
        first_inputs = make_inputs(workload, args.seed, plain[0]["variant"],
                                   smoke=args.smoke)
        off = Tracer(workload, False)
        if workload in ("swarm-local", "ft-crossshard"):
            reference = kernel.repetition(first_inputs, off, inproc=True)
            failures.extend(reference["failures"])
            shared = ("outcomes", "counters", "events")
            if identity_of(reference, shared) \
                    != identity_of(plain[0], shared):
                failures.append("process-backed run differs from the "
                                "in-process ShardedWorld run")

        computed: dict[str, dict[str, float]]
        if not traced_run:
            computed = end_to_end(workload, plain, exact, import_s)
        else:
            values: dict[str, float] = dict.fromkeys(
                (m["name"] for m in spec["per_layer"]), 0.0)
            if workload == "service-launch":
                values.update(layers.service_layers(
                    traced, service.host_probe(
                        first_inputs, launches=6 if args.smoke else 200)))
            else:
                if workload == "journal-resume":
                    unjournaled = kernel.repetition(first_inputs, off,
                                                    inproc=True)
                values.update(layers.kernel_layers(
                    workload, traced, reference, unjournaled))
            values.update(probes.run_all(scratch, quick=args.smoke))
            values["bench.calibration_ms"] = statistics.median(
                r["slowdown"] for r in plain) * CALIBRATION_REFERENCE_S * 1e3
            values["bench.raw_agents_per_s"] = statistics.median(
                r["ops"] / r["wall_s"] for r in plain)
            # Twins share inputs and are neighbours in time.
            values["trace.overhead_pct"] = statistics.median(
                t["wall_s"] / p["wall_s"] - 1.0
                for p, t in zip(plain, traced)) * 100.0
            computed = {name: {"median": float(value)}
                        for name, value in values.items()}
            assert first_tracer is not None
            first_tracer.write(os.path.join(OUT, f"trace-{workload}.json"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    listed = spec["per_layer" if traced_run else "end_to_end"]
    unknown = set(computed) - {m["name"] for m in listed}
    if unknown:
        raise SystemExit(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    metrics = {m["name"]: {"value": computed[m["name"]]["median"],
                           "unit": m["unit"]} for m in listed}

    slowdown = statistics.median(r["slowdown"] for r in plain)
    print(f"# {workload}  seed={args.seed}  trace={args.trace}  "
          f"repetitions={len(plain)}+{len(traced)} traced  "
          f"agents/repetition={plain[0]['agents']}  "
          f"machine {slowdown:.3f}x slower than the reference")
    for m in listed:
        s = computed[m["name"]]
        spread = (f"  [q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}]"
                  if "q1" in s else "")
        print(f"{m['name']:<44} {s['median']:>14.6g} {m['unit']}{spread}")
    print(f"operations attempted {attempted}, failed {len(failures)}; "
          f"variants skipped {skipped}; outcome_digest {digest}")
    for line in failures:
        eprint(f"FAILED: {line}")

    result = {
        "workload": workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "seconds": args.seconds,
        "stamp": hardware_stamp(ROOT), "size": first_inputs.size,
        "slowdown": slowdown,
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "attempted": attempted, "failed": len(failures),
        "failures": failures, "skipped_variants": skipped,
        "outcome_digest": digest,
        "raw_wall_s": summarize([r["wall_s"] for r in plain]),
        "metrics": {name: dict(computed[name], unit=metrics[name]["unit"])
                    for name in metrics},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(
            OUT, f"{workload}.trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


# -- the supervisor: nothing outlives the command ---------------------------

def supervise(arguments: list[str]) -> int:
    """Run this same command in a child interpreter; leave nothing behind.

    The child gets a fixed hash order (its workers and server inherit
    it) and a session of its own.  This process adopts whatever the
    child orphans and waits for all of it: multiprocessing's resource
    tracker ends only after the process that made shared memory has, and
    a run that crashed or was interrupted may leave workers or a server.
    What has not ended ``LINGER_S`` after the child is killed, and the
    command fails: a leak is a failed run whatever the result line said.
    """
    import ctypes
    PR_SET_CHILD_SUBREAPER = 36
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")

    def interrupted(signum, frame):
        raise KeyboardInterrupt
    signal.signal(signal.SIGTERM, interrupted)

    env = dict(os.environ, PYTHONHASHSEED="0", **{SUPERVISED: "1"})
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__)] + arguments, env=env,
        start_new_session=True)
    patience = LINGER_S
    try:
        status = child.wait()
    except KeyboardInterrupt:
        status, patience = 130, 0.0
    killed = reap_orphans(child, patience)
    if killed:
        print("processes outlived the run and were killed", file=sys.stderr)
    if status < 0:
        status = 128 - status  # ended by a signal, as a shell reports it
    return status or (3 if killed else 0)


def reap_orphans(child: subprocess.Popen, patience_s: float) -> bool:
    """Wait until this process has no children left.  After
    ``patience_s`` the child's process group is killed; returns whether
    it came to that.  Gives up on what survives even that."""
    deadline = time.monotonic() + patience_s
    killed = False
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed
        if pid == child.pid:
            child.returncode = -signal.SIGKILL  # reaped here, not by Popen
        if pid:
            continue
        if not killed and time.monotonic() >= deadline:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # an orphan outside the group; waited for all the same
            killed = True
        elif time.monotonic() >= deadline + LINGER_S:
            return True
        time.sleep(0.005)


# -- every workload, each in its own interpreter ----------------------------

def run_all(args, spec: dict[str, Any]) -> int:
    from perf.measure import hardware_stamp

    gathered: dict[str, Any] = {"stamp": hardware_stamp(ROOT),
                                "seed": args.seed, "smoke": args.smoke,
                                "seconds": args.seconds, "workloads": {}}
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        entry: dict[str, Any] = {}
        for trace in ((0, 1) if args.trace else (0,)):
            command = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                command.append("--smoke")
            done = subprocess.run(command, cwd=ROOT)
            if done.returncode != 0:
                print(f"{workload} --trace {trace}: exit {done.returncode}")
                status = 1
                continue
            with open(os.path.join(
                    OUT, f"{workload}.trace{trace}.json")) as fh:
                detail = json.load(fh)
            entry["per_layer" if trace else "end_to_end"] = detail["metrics"]
            entry.setdefault("attempted", detail["attempted"])
            entry["failed"] = entry.get("failed", 0) + detail["failed"]
            entry.setdefault("outcome_digest", detail["outcome_digest"])
            if detail["failed"]:
                status = 1
        gathered["workloads"][workload] = entry
    path = args.out or os.path.join(
        OUT, f"result-seed{args.seed}-{int(time.time())}.json")
    with open(path, "w") as fh:
        json.dump(gathered, fh, indent=1, sort_keys=True)
    print(f"results: {os.path.relpath(path, ROOT)}")
    return status


def main(argv: Optional[list[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run this one, in this interpreter "
                             "(default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="how long the timed repetitions run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one repetition")
    parser.add_argument("--out", help="result file of an all-workload run")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args, spec)
    if os.environ.get(SUPERVISED) != "1":
        return supervise(sys.argv[1:] if argv is None else argv)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
